//! The benchmark's output: every metric by name with its unit, the
//! omitted ones with their reason, and — last — one JSON line with the
//! metrics `BENCHMARK.json` gates.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Work items attempted (ops requested, or instances explored).
    pub attempted: u64,
    /// Work items that failed (unserved ops, or instances whose
    /// verdicts differed from the expected ones).
    pub failed: u64,
    /// Failed checks; the run is correct only when this is empty.
    pub failures: Vec<String>,
    /// The metrics of the last JSON line.
    pub gated: Vec<Metric>,
    /// Further metrics, printed on the report lines only.
    pub info: Vec<Metric>,
    /// Metrics or details left out, with the reason.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a gated metric.
    pub fn gate(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.gated.push(Metric { name, unit, value });
    }

    /// Adds an informational metric.
    pub fn info(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.info.push(Metric { name, unit, value });
    }

    /// Records a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The report lines followed by the result line.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {header}");
        for m in self.gated.iter().chain(&self.info) {
            let _ = writeln!(out, "metric {:<36} {:>18} {}", m.name, fmt(m.value), m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note   {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                let mut name = String::new();
                sfs_obs::json::write_str(&mut name, m.name);
                format!(
                    "{name}: {{\"value\": {}, \"unit\": \"{}\"}}",
                    fmt(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_only_gated_metrics() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.gate("events_per_s", "events/s", 1234.5);
        r.info("ops_per_s", "ops/s", 7.0);
        let json = r.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"events_per_s\": {\"value\": 1234.5, \"unit\": \"events/s\"}}}"
        );
        let parsed = sfs_obs::Json::parse(&json).unwrap();
        assert_eq!(parsed.get("attempted").and_then(|a| a.as_u64()), Some(4));
        r.fail("boom");
        assert!(r.json().starts_with("{\"correct\": false"));
        let text = r.render("w");
        assert!(text.contains("ops_per_s") && text.ends_with("}}}\n"));
    }
}
