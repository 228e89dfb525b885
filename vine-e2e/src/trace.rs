//! Spans recorded around the benchmark's calls into each public API.
//! Spans stay in memory and are summarised when the run ends; with
//! tracing off, nothing is recorded.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Tracer {
    enabled: bool,
    /// Each span's name and duration in microseconds.
    spans: Vec<(&'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, recording a span named `name` around it when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push((name, start.elapsed().as_secs_f64() * 1e6));
        out
    }

    /// Per span name: count, median and total duration, one line each.
    pub fn summary(&self) -> String {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (name, us) in &self.spans {
            by_name.entry(name).or_default().push(*us);
        }
        let mut out = String::from("span                      count      p50_us      total_s\n");
        for (name, mut durations) in by_name {
            let total: f64 = durations.iter().sum();
            out.push_str(&format!(
                "{name:<22} {:>9} {:>11.2} {:>12.4}\n",
                durations.len(),
                stats::median(&mut durations),
                total / 1e6
            ));
        }
        out
    }
}
