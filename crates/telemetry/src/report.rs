//! The run-level telemetry report: everything an instrumented replay
//! hands back, with JSON and human-readable renderers.
//!
//! The report keeps the determinism split explicit: `counters` (and the
//! deterministic `weave_batch_sizes` histogram) are bit-identical across
//! runs; `spans` and the latency histograms are host time and vary run to
//! run. `metrics_json()` groups them accordingly so a consumer can diff
//! the `counters` object byte-for-byte while ignoring `host`.

use crate::counters::CounterSnapshot;
use crate::hist::LogHistogram;
use crate::perfetto::render_trace_json;
use crate::span::SpanEvent;

/// Everything one instrumented run recorded.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Deterministic counter snapshot (bit-identical across runs).
    pub counters: CounterSnapshot,
    /// Deterministic histogram of weave-turn batch sizes (transactions
    /// retired per weave turn).
    pub weave_batch_sizes: LogHistogram,
    /// Host-time phase spans, all tracks merged.
    pub spans: Vec<SpanEvent>,
    /// Track id → display name for the Perfetto export.
    pub track_names: Vec<(u32, String)>,
    /// Host-time histogram of weave-turn latencies (ns).
    pub weave_turn_ns: LogHistogram,
    /// Spans dropped after a track filled up (never silent).
    pub dropped_spans: u64,
}

impl TelemetryReport {
    /// Renders the span timeline as Chrome trace-event / Perfetto JSON
    /// (the `--trace-out` artifact).
    pub fn trace_json(&self) -> String {
        render_trace_json(&self.spans, &self.track_names)
    }

    /// Renders counters and histograms as a JSON document (the
    /// `--metrics-out` artifact). The `counters` and `weave_batch_sizes`
    /// members are deterministic; everything under `host` is wall-clock.
    pub fn metrics_json(&self) -> String {
        format!(
            "{{\n  \"counters\": {},\n  \"weave_batch_sizes\": {},\n  \"host\": {{\n    \
             \"weave_turn_ns\": {},\n    \"span_count\": {},\n    \
             \"dropped_spans\": {}\n  }}\n}}\n",
            self.counters.to_json(),
            self.weave_batch_sizes.to_json(),
            self.weave_turn_ns.to_json(),
            self.spans.len(),
            self.dropped_spans,
        )
    }

    /// A short human-readable block for bench stdout.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: {} counters, {} spans ({} dropped)\n",
            self.counters.rows().len(),
            self.spans.len(),
            self.dropped_spans,
        ));
        for name in [
            "weave.transactions",
            "weave.contended",
            "dir.lookups",
            "spill.bytes",
            "fill.bytes",
        ] {
            if let Some(total) = self.counters.total(name) {
                out.push_str(&format!("  {name}: {total}\n"));
            }
        }
        if self.weave_turn_ns.count() > 0 {
            out.push_str(&format!(
                "  weave turn: p50 {} ns, p99 {} ns, max {} ns over {} turns\n",
                self.weave_turn_ns.percentile(0.5),
                self.weave_turn_ns.percentile(0.99),
                self.weave_turn_ns.max(),
                self.weave_turn_ns.count(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterRegistry;
    use crate::span::Phase;

    fn sample() -> TelemetryReport {
        let mut reg = CounterRegistry::new();
        reg.add("weave.transactions", 0, 12);
        reg.add("dir.lookups", 1, 3);
        let mut weave_batch_sizes = LogHistogram::new();
        weave_batch_sizes.record(4);
        let mut weave_turn_ns = LogHistogram::new();
        weave_turn_ns.record(900);
        TelemetryReport {
            counters: reg.snapshot(),
            weave_batch_sizes,
            spans: vec![SpanEvent {
                track: 0,
                phase: Phase::Weave,
                quantum: 1,
                start_ns: 10,
                dur_ns: 5,
            }],
            track_names: vec![(0, "core 0".into())],
            weave_turn_ns,
            dropped_spans: 0,
        }
    }

    #[test]
    fn metrics_json_separates_deterministic_and_host_sections() {
        let j = sample().metrics_json();
        assert!(j.contains("\"counters\": {\"dir.lookups\":[0,3]"), "{j}");
        assert!(j.contains("\"host\": {"), "{j}");
        assert!(j.contains("\"dropped_spans\": 0"), "{j}");
    }

    #[test]
    fn trace_json_contains_the_span() {
        let j = sample().trace_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"name\":\"weave\""));
    }

    #[test]
    fn summary_mentions_counters_and_latencies() {
        let s = sample().summary();
        assert!(s.contains("weave.transactions: 12"), "{s}");
        assert!(s.contains("weave turn: p50"), "{s}");
    }
}
