//! Small shared pieces: the correctness gate, medians, peak RSS, and the
//! metric list the harness prints.

use std::fmt::Write as _;

/// Counts every application op and every harness check; any failure makes
/// the run incorrect and the exit code non-zero.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// How many of the failures were application ops (the rest are checks).
    pub ops_failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// `n` application ops ran and returned `Ok`.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// A cell aborted on an application error: one op failed.
    pub fn op_failed(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        self.ops_failed += 1;
        self.failures.push(what.to_string());
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    bench::runner::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.0 != name), "metric {name} twice");
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value (a
    /// ratio over a zero count) prints as 0.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
