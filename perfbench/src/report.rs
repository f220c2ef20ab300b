//! The run's result: named metrics with units, correctness, and the JSON
//! line the command ends with.

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    /// Ops issued inside timed windows.
    pub attempted: u64,
    /// Ops the protocol gave up on.
    pub failed: u64,
    /// Every correctness violation found; the run is correct iff empty.
    pub violations: Vec<String>,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a human-readable line that is not a metric.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when no violation was found.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// One `name = value unit` line per metric, then the notes.
    pub fn human(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("{n} = {v} {u}\n"));
        let notes = self.notes.iter().map(|line| format!("{line}\n"));
        metrics.chain(notes).collect()
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
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
