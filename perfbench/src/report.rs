//! What one workload run hands back: operation counts, end-to-end metrics,
//! per-layer metrics, and the notes (sample counts, percentiles) printed
//! next to them.

use crate::stats::{Samples, Tail};
use serde_json::Value;
use std::time::Instant;

/// One named value with its unit and a human-readable note.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed check failed (the first few are printed).
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks an already counted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, note: String) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, note: String) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note,
        });
    }

    /// A median with its sample count as the note.
    pub fn e2e_median(&mut self, name: &str, unit: &'static str, s: &Samples) {
        self.e2e(name, unit, s.median(), format!("p50 of {}", s.len()));
    }

    /// The `p`-th percentile with its sample count as the note.
    pub fn e2e_percentile(&mut self, name: &str, unit: &'static str, p: f64, s: &Samples) {
        self.e2e(name, unit, s.percentile(p), format!("p{p} of {}", s.len()));
    }

    /// A tail with its percentile and sample count as the note.
    pub fn e2e_tail(&mut self, name: &str, unit: &'static str, s: &Samples) {
        let Tail {
            percentile,
            value,
            count,
        } = s.tail();
        self.e2e(name, unit, value, format!("p{percentile} of {count}"));
    }

    pub fn layer_median(&mut self, name: &str, unit: &'static str, s: &Samples) {
        self.layer(name, unit, s.median(), format!("p50 of {}", s.len()));
    }

    pub fn layer_tail(&mut self, name: &str, unit: &'static str, s: &Samples) {
        let t = s.tail();
        self.layer(
            name,
            unit,
            t.value,
            format!("p{} of {}", t.percentile, t.count),
        );
    }

    pub fn layer_count(&mut self, name: &str, value: u64) {
        self.layer(name, "count", value as f64, "exact".to_string());
    }
}

/// A phase deadline: whole units of work run while the next one is
/// expected to end in time, and at least one always runs.
pub struct Budget {
    start: Instant,
    seconds: f64,
    longest: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            longest: 0.0,
        }
    }

    /// Records that a unit took `unit_s` seconds; returns whether another
    /// unit as long as the longest so far still fits.
    pub fn another(&mut self, unit_s: f64) -> bool {
        self.longest = self.longest.max(unit_s);
        self.start.elapsed().as_secs_f64() + self.longest <= self.seconds
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A JSON object with its fields in the order given.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `value` as one line of compact JSON.
pub fn json_line(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON values serialize")
}
