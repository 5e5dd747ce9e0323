//! What one run prints: named metrics with units, the correctness
//! tally, and the final one-line JSON result.

use cachekit_bench::json::Json;
use std::fmt;

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Operations attempted and failed. An operation fails when it errors,
/// is refused, or returns a wrong result; every check of a run goes
/// through one tally so `failed_frac` counts each operation once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were wrong.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` says whether it succeeded and was
    /// correct.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Lines printed before the result: notes on how a metric was taken.
    notes: Vec<String>,
    /// Correctness tally.
    pub tally: Tally,
    /// Descriptions of the first failures, for the log.
    pub failures: Vec<String>,
}

impl Report {
    /// Record `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or an invalid unit: those
    /// are bugs in the benchmark, not in the program measured.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} recorded twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Add a free-form note line to the log.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation, keeping a description of the first
    /// few failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Whether every operation was correct.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics named in `keep`.
    pub fn result_json(&self, keep: &[&str]) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| keep.contains(&m.name.as_str()))
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::object(vec![
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Json::object(metrics)),
        ])
        .to_compact()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for note in &self.notes {
            writeln!(f, "# {note}")?;
        }
        for failure in &self.failures {
            writeln!(f, "! {failure}")?;
        }
        for m in &self.metrics {
            writeln!(
                f,
                "{:<36} {:>16} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "setup_s",
            "cache.access_many.maccess_per_s",
            "exec.engine.lazy_table",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "pct%",
            "ünicode",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract() {
        for good in ["ms", "s", "1/s", "count", "%", "Maccess/s", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "a".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn recording_an_invalid_name_panics() {
        Report::default().metric("bad name", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn recording_a_name_twice_panics() {
        let mut r = Report::default();
        r.metric("x", 1.0, "s");
        r.metric("x", 2.0, "s");
    }

    #[test]
    fn failed_frac_counts_each_operation_once() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
    }

    #[test]
    fn a_run_with_no_attempts_or_any_failure_is_not_correct() {
        let mut r = Report::default();
        assert!(!r.correct());
        r.check(true, String::new);
        assert!(r.correct());
        r.check(false, || "wrong".into());
        assert!(!r.correct());
        assert_eq!(r.failures, vec!["wrong".to_owned()]);
    }

    #[test]
    fn result_line_keeps_the_named_metrics() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("setup_s", 0.5, "s");
        r.metric("extra", 2.0, "count");
        let line = r.result_json(&["setup_s"]);
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = json.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.5)
        );
        assert!(metrics.get("extra").is_none());
    }
}
