//! The benchmark's result: metrics with units and sample counts, the
//! attempted/failed tally, and the correctness verdict.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Client-round results plus whole runs.
    pub attempted: u64,
    /// Results not committed plus runs that errored or failed a check.
    pub failed: u64,
    /// One line per failed correctness check.
    pub errors: Vec<String>,
    /// Informational lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The human-readable table (one metric per line, with its sample
    /// count) followed by the one-line JSON result.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let _ = writeln!(
            out,
            "# {workload} ({}): {:<34} {:>14} {:<8} {:>7}",
            if trace { "traced" } else { "untraced" },
            "metric",
            "value",
            "unit",
            "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "# {:<34} {:>14.4} {:<8} {:>7}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# failed_frac {fail_frac:.4} ({} failed of {} attempted: client-round results plus runs)",
            self.failed, self.attempted
        );
        for e in &self.errors {
            let _ = writeln!(out, "# CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
