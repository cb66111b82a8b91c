//! Engine-wide observability for the Califorms reproduction: deterministic
//! counters, host-time phase spans, and a Chrome-trace-event/Perfetto
//! exporter (DESIGN.md §13).
//!
//! The layer is split along the repo's determinism boundary:
//!
//! * [`CounterRegistry`] / [`CounterSnapshot`] — named counters with
//!   per-lane values (lane = core, directory shard, or a single global
//!   lane). They are populated exclusively from **simulated** state, so a
//!   snapshot is bit-identical across runs, host thread schedules, and
//!   packed/unpacked replay — it can be asserted in tests and diffed by
//!   the differential oracle like any other result.
//! * [`LogHistogram`] — power-of-two-bucketed histograms. Deterministic
//!   when fed simulated values (weave batch sizes), host-side when fed
//!   span durations (weave-turn latency, barrier waits).
//! * [`TelemetryClock`] / [`TrackRecorder`] / [`SpanEvent`] — host
//!   wall-clock phase spans (bound/weave/barrier, per core, per
//!   quantum). Host time is scheduling-dependent by nature, so spans are
//!   confined to telemetry-only output and never feed a simulated result;
//!   the `califorms-analyze` determinism linter allowlists exactly one
//!   file for the clock ([`span`]) and keeps flagging host time anywhere
//!   else in this crate.
//! * [`perfetto`] — renders spans as Chrome trace-event JSON
//!   (`chrome://tracing`, <https://ui.perfetto.dev>).
//! * [`TelemetryReport`] — what an instrumented run hands back: the
//!   counter snapshot, the span timeline, and the latency histograms,
//!   with `metrics_json()` / `trace_json()` / `summary()` renderers.
//!
//! When telemetry is disabled the engines allocate none of this — the
//! recording paths are `Option`-gated and compile down to a branch on a
//! `None`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod perfetto;
pub mod report;
pub mod span;

pub use counters::{CounterRegistry, CounterSnapshot};
pub use hist::LogHistogram;
pub use report::TelemetryReport;
pub use span::{Phase, SpanEvent, TelemetryClock, TrackRecorder};

/// Escapes a string for inclusion in a JSON string literal. Counter and
/// track names are internal ASCII identifiers, but the exporters escape
/// anyway so a hostile name cannot corrupt the document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t"), "x\\n\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
