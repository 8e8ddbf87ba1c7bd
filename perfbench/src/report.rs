//! Operation tallies and the metric list each phase contributes to the final line.

/// Operations attempted and failed (wrong, refused or errored) across the run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; a failed one is reported on stderr with `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }
}

/// Metrics in the order they are printed.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A metric measured once per round (or per drain cycle), reported as the median:
    /// the host's CPU steal slows whole rounds, and the median rides out the slow ones.
    pub fn put_rounds(&mut self, name: &str, per_round: &[f64], unit: &'static str) {
        self.put(name, crate::stats::median(per_round), unit);
    }

    /// The final result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, tally: &Tally) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting gives; JSON has
/// no NaN or infinity, so those print as `null`.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}
