//! Sample statistics, process memory, and the result record every
//! workload returns.

use std::fmt::Write as _;

use tsgb_rand::rngs::SmallRng;
use tsgb_rand::Rng;

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for k in (1..v.len()).rev() {
        v.swap(k, rng.gen_range(0..=k));
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// A tail quantile: the highest of p50/p90/p99/p99.9 that has at least
/// ten samples beyond it, or the maximum when fewer than twenty
/// samples exist.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The quantile level (`1.0` for the maximum).
    pub level: f64,
    pub value: f64,
    pub samples: usize,
}

impl Tail {
    /// `p99 = 12.5 ms over 2400 requests`.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "p{} = {} ms over {} {what}",
            self.level * 100.0,
            self.value,
            self.samples
        )
    }
}

pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let level = [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(1.0);
    Tail {
        level,
        value: quantile(&s, level),
        samples: n,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (passes, scored sets, requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific figures under the names the prediction table
    /// uses; printed on the line before the result.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, name: impl Into<String>, value: impl ToString) {
        self.detail.push((name.into(), value.to_string()));
    }

    /// Records one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    /// The detail line: every workload-specific figure as a string.
    pub fn detail_json(&self) -> String {
        let mut d = String::new();
        for (i, (k, v)) in self.detail.iter().enumerate() {
            if i > 0 {
                d.push_str(", ");
            }
            let _ = write!(d, "\"{k}\": \"{v}\"");
        }
        format!("{{\"detail\": {{{d}}}}}")
    }
}

/// A JSON number with every digit `{}` gives; non-finite values (which
/// no check lets through) become `0`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
