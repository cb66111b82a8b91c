//! Human-readable and JSON rendering of experiment results.

use crate::experiments::{mean, PolicyRow, SlowdownRow};
use serde::Serialize;
use std::path::Path;

/// Renders slowdown rows with the paper reference alongside.
pub fn render_slowdowns(title: &str, rows: &[SlowdownRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str("label           | paper    | measured\n");
    out.push_str("----------------+----------+---------\n");
    for r in rows {
        let paper = match r.paper {
            Some(p) => format!("{:7.2}%", p * 100.0),
            None => "      — ".into(),
        };
        out.push_str(&format!(
            "{:<15} | {} | {:7.2}%\n",
            r.label,
            paper,
            r.measured * 100.0
        ));
    }
    out.push_str(&format!(
        "{:<15} |          | {:7.2}%\n",
        "AVG",
        mean(rows) * 100.0
    ));
    out
}

/// Renders a policy figure (Figures 11/12) as a benchmark × series matrix.
pub fn render_policy_rows(title: &str, rows: &[PolicyRow]) -> String {
    let mut out = format!("{title}\n");
    if rows.is_empty() {
        return out;
    }
    let labels: Vec<&str> = rows[0].series.iter().map(|(l, _)| l.as_str()).collect();
    out.push_str(&format!("{:<12}", "benchmark"));
    for l in &labels {
        out.push_str(&format!(" | {l:>19}"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<12}", r.benchmark));
        for (_, v) in &r.series {
            out.push_str(&format!(" | {:>18.2}%", v * 100.0));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "AVG"));
    for l in &labels {
        let avg = crate::experiments::series_average(rows, l);
        out.push_str(&format!(" | {:>18.2}%", avg * 100.0));
    }
    out.push('\n');
    out
}

/// Renders one instrumented multicore run for bench stdout: the
/// telemetry counter/latency summary and the per-core weave wall-clock
/// breakdown that replaces the old aggregate `weave_s`.
pub fn render_telemetry_summary(
    report: &califorms_telemetry::TelemetryReport,
    timing: &califorms_sim::RuntimeTiming,
) -> String {
    let mut out = report.summary();
    let wb = &timing.weave_breakdown;
    if !wb.per_core_s.is_empty() {
        let per_core: Vec<String> = wb
            .per_core_s
            .iter()
            .enumerate()
            .map(|(c, s)| format!("core{c} {s:.3}s"))
            .collect();
        out.push_str(&format!(
            "  weave wall-clock by core: {} (total {:.3}s over {} quanta sampled{})\n",
            per_core.join(", "),
            timing.weave_s,
            wb.per_quantum_s.len(),
            if wb.quantum_samples_dropped > 0 {
                format!(", {} dropped", wb.quantum_samples_dropped)
            } else {
                String::new()
            },
        ));
    }
    out
}

/// Writes any serialisable result next to the binary's stdout report, so
/// EXPERIMENTS.md numbers stay reproducible.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value).expect("results are serialisable");
    std::fs::write(path, json)
}

/// Standard results directory (`target/experiment-results`), created on
/// demand.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target/experiment-results");
    std::fs::create_dir_all(&dir).expect("can create results dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SlowdownRow> {
        vec![
            SlowdownRow {
                label: "a".into(),
                paper: Some(0.01),
                measured: 0.012,
            },
            SlowdownRow {
                label: "b".into(),
                paper: None,
                measured: 0.020,
            },
        ]
    }

    #[test]
    fn slowdown_render_contains_rows_and_average() {
        let s = render_slowdowns("Fig X", &rows());
        assert!(s.contains("Fig X"));
        assert!(s.contains("1.20%"));
        assert!(s.contains("1.00%"));
        assert!(s.contains("AVG"));
        assert!(s.contains("1.60%")); // (1.2+2.0)/2
    }

    #[test]
    fn policy_render_has_matrix_shape() {
        let rows = vec![PolicyRow {
            benchmark: "mcf".into(),
            series: vec![("1-3B".into(), 0.05), ("1-7B CFORM".into(), 0.15)],
        }];
        let s = render_policy_rows("Fig 11", &rows);
        assert!(s.contains("mcf"));
        assert!(s.contains("1-3B"));
        assert!(s.contains("15.00%"));
    }

    #[test]
    fn json_round_trips_to_disk() {
        let dir = results_dir();
        let path = dir.join("test.json");
        write_json(&path, &rows()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"measured\""));
        std::fs::remove_file(path).ok();
    }
}
