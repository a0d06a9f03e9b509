//! Metric names, the result line, and the run's record on disk.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
    /// Provenance and sample-count notes, `(key, value)`.
    pub notes: Vec<(String, String)>,
}

/// The end-to-end metrics every workload reports, with units.
pub const E2E: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("freshness_ms_p50", "ms"),
    ("freshness_ms_tail", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_tail", "ms"),
    ("recover_ms", "ms"),
    ("accounted_bytes_peak", "B"),
    ("rss_peak_mb", "MiB"),
    ("wan_bytes_per_flow", "B"),
    ("disk_bytes_per_flow", "B"),
    ("answer_rel_err", "ratio"),
];

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: the value with all its digits (non-finite values, which
/// no metric should produce, read as `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// `{"key": "value", ...}`.
pub fn notes_json(notes: &[(String, String)]) -> String {
    let body: Vec<String> = notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
