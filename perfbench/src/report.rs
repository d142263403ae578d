//! What a run prints: metric lines, the error breakdown, and the final
//! JSON result line.

use crate::check::Tally;

pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
    /// Set when a benchmark self-check failed (a hand loop disagreeing
    /// with the reference, a tape mismatch, counts that do not repeat):
    /// the run's figures are void and no result line is printed.
    pub broken: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            metrics: Vec::new(),
            tally: Tally::default(),
            broken: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints every metric by name and unit, then the result line with
    /// the metrics `in_result` selects. `correct` is false when any
    /// answer differed from its reference; errors and deadline expiries
    /// count as failed.
    pub fn print(&self, in_result: impl Fn(&str) -> bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        for b in &self.broken {
            println!("# BROKEN: {b}");
        }
        println!("# {}", self.tally.breakdown());
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        if !self.broken.is_empty() {
            return;
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(name, _, _)| in_result(name))
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong == 0,
            self.tally.attempted(),
            self.tally.wrong + self.tally.failed(),
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as `null`, so that no reader takes it for a number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
