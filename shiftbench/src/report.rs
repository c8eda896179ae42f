//! Result line, summary statistics, and process measurements.

use std::fmt::Write as _;

/// The outcome of one benchmark invocation: named metrics with units, and
/// operations attempted and failed.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Simulated runs (and other checked operations) attempted.
    pub attempted: u64,
    /// Attempted operations that panicked, broke an accounting identity, or
    /// produced a non-finite value.
    pub failed: u64,
    /// Problems found, one line each; any entry makes the result incorrect.
    problems: Vec<String>,
}

impl Outcome {
    /// Adds a metric. A non-finite value is a failed operation.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failed += 1;
            self.problems.push(format!("metric {name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Human-readable metric lines, then the one-line JSON result (last).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for problem in &self.problems {
            let _ = writeln!(out, "problem: {problem}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} = {value} {unit}");
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Median of `values` (mean of the middle pair for even lengths; NaN when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User + system CPU time this process has used, in seconds.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn render_ends_with_the_json_result() {
        let mut out = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        out.metric("wall_s", 1.5, "s");
        let text = out.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        out.metric("bad", f64::INFINITY, "s");
        assert!(out
            .render()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn process_measurements_are_available() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
