//! The result printer: one human-readable line per metric, then the JSON
//! result object (`correct`, `attempted`, `failed`, `metrics`) as the last
//! line of stdout.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`p50_ms`, `memo.hit_us`, …).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit (`ms`, `rec/s`, `fraction`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics printed as text only (workload-specific detail).
    pub detail: Vec<Metric>,
    /// Metrics printed as text and in the final JSON object.
    pub metrics: Vec<Metric>,
    /// Records (or solves) attempted.
    pub attempted: usize,
    /// Of those, failed: error lines, missing answers, failed checks.
    pub failed: usize,
    /// Why the run is not valid, if it is not (failed answers, late
    /// generator, unclean shutdown).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric reported in the JSON object.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Adds a metric printed as text only.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric::new(name, value, unit));
    }

    /// Prints every metric, then the JSON line; returns whether the run
    /// was correct.
    pub fn print(&self, header: &str) -> bool {
        println!("{header}");
        for m in self.detail.iter().chain(&self.metrics) {
            println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let mut problems = self.problems.clone();
        if self.failed > 0 {
            problems.push(format!("{} of {} failed", self.failed, self.attempted));
        }
        for m in &self.metrics {
            if !m.value.is_finite() {
                problems.push(format!("metric {} is not finite", m.name));
            }
        }
        for p in &problems {
            println!("  INVALID: {p}");
        }
        let correct = problems.is_empty() && self.attempted > 0;
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}
