//! Metric collection and the two renderings of a result: one line per
//! metric for people, then the JSON object the benchmark contract asks
//! for as the last line of standard output.

use std::fmt::Write;

pub struct Report {
    attempted: u64,
    failed_runs: u64,
    /// Set when a check on the whole invocation failed rather than on
    /// one run.
    all_failed: bool,
    failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed_runs: 0,
            all_failed: false,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record one simulation run and whether its own checks passed.
    pub fn run_done(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed_runs += 1;
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.require(value.is_finite(), || {
            format!("{name} is not a finite number: {value}")
        });
        self.metrics.push((name.to_string(), value, unit, note));
    }

    /// A check on one run (see [`Report::run_done`]).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
        ok
    }

    /// A check on the whole invocation: when it fails, every run counts
    /// as failed.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.all_failed |= !self.check(ok, what);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn print(&self) {
        for (name, value, unit, note) in &self.metrics {
            if note.is_empty() {
                println!("{name} = {value} {unit}");
            } else {
                println!("{name} = {value} {unit}  ({note})");
            }
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            if self.all_failed {
                self.attempted
            } else {
                self.failed_runs
            }
        );
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to a String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `v` (sorts it in place).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted, non-empty `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// The highest percentile of sorted `v` with at least ten samples
/// beyond it, from a fixed ladder so the percentile stays put while the
/// sample count moves a little: `(p, value, samples beyond)`.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    let n = v.len();
    if n == 0 {
        return (0.5, f64::NAN, 0);
    }
    for p in LADDER {
        let rank = (p * n as f64).ceil().max(1.0) as usize;
        if n - rank >= 10 {
            return (p, v[rank - 1], n - rank);
        }
    }
    let rank = (0.5 * n as f64).ceil().max(1.0) as usize;
    (0.5, v[rank - 1], n - rank)
}
