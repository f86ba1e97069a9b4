//! What one workload pass produces, and how it is printed.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One output check; a failed check makes the run incorrect.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one workload pass.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: frames injected, sessions opened, or
    /// datagrams sent plus kill chains started.
    pub attempted: u64,
    /// Operations lost although the network had a live path for them.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Metrics the result line carries: the end-to-end set of the
    /// untraced pass, or the per-layer set of the traced pass.
    pub metrics: Vec<Metric>,
    /// Further figures printed for the reader only (the workload's own
    /// names for its end-to-end figures, bases of ratios, counts).
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric::new(name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Folds another pass into this one (the traced run covers every
    /// workload).
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }

    /// The human-readable lines: checks, then every figure with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {} {verdict}: {}", c.name, c.detail);
        }
        for m in self.info.iter().chain(&self.metrics) {
            let _ = writeln!(out, "{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        o.metric("latency_p50_us", 12.5, "us");
        o.metric("setup_s", 0.25, "s");
        o.check("x", true, String::new());
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check("y", false, String::new());
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
