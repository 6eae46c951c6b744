//! Sample summaries: n / min / q1 / median / q3, the highest
//! percentile the sample supports, and an IQR noise estimate.
//!
//! The rank rule: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never two
//! outliers. Percentiles interpolate linearly between order
//! statistics (position `p · (n − 1)`).

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Tail percentiles a summary may report, ascending.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Summary of one metric's samples, in the samples' own unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise `samples` (any order; non-finite values are a bug in
    /// the caller and panic here rather than poison a median).
    pub fn new(mut samples: Vec<f64>) -> Summary {
        assert!(samples.iter().all(|v| v.is_finite()), "non-finite sample");
        samples.sort_by(|a, b| a.total_cmp(b));
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest sample (0 for an empty summary).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// The `pct`-th percentile by linear interpolation (0 when empty).
    pub fn percentile(&self, pct: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = (pct / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * (pos - lo as f64)
    }

    /// First quartile.
    pub fn q1(&self) -> f64 {
        self.percentile(25.0)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Third quartile.
    pub fn q3(&self) -> f64 {
        self.percentile(75.0)
    }

    /// Whether the rank rule supports reporting percentile `pct`.
    pub fn supports(&self, pct: f64) -> bool {
        // the epsilon absorbs the rounding of `100 - pct` (99.9 is not
        // a binary fraction): exactly ten beyond must count as ten
        self.sorted.len() as f64 * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9
    }

    /// The highest candidate percentile with at least [`MIN_BEYOND`]
    /// samples beyond it, with its value; `None` below 20 samples.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        TAIL_CANDIDATES.iter().rev().find(|&&p| self.supports(p)).map(|&p| (p, self.percentile(p)))
    }

    /// Run-internal noise estimate: interquartile range over median.
    pub fn iqr_noise(&self) -> f64 {
        let med = self.median();
        if med == 0.0 {
            0.0
        } else {
            (self.q3() - self.q1()) / med.abs()
        }
    }

    /// One greppable line: `n= min= q1= median= q3= pXX= noise=`.
    pub fn line(&self, unit: &str) -> String {
        let tail = match self.highest_supported() {
            Some((p, v)) => format!("p{p}={v:.4}"),
            None => "p--=n/a".to_string(),
        };
        format!(
            "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} {tail} noise={:.3} [{unit}]",
            self.n(),
            self.min(),
            self.q1(),
            self.median(),
            self.q3(),
            self.iqr_noise(),
        )
    }
}

/// Call `f` until `budget` has elapsed (at least `min_samples` times)
/// and summarise the per-call wall time in milliseconds.
pub fn sample_ms(budget: Duration, min_samples: usize, f: impl FnMut()) -> Summary {
    sample_ms_keep(budget, min_samples.max(1), f).0
}

/// [`sample_ms`] for a call whose result is wanted afterwards: returns
/// the last call's value next to the summary (`min_samples` ≥ 1).
pub fn sample_ms_keep<T>(
    budget: Duration,
    min_samples: usize,
    mut f: impl FnMut() -> T,
) -> (Summary, T) {
    let start = Instant::now();
    let mut laps = Vec::new();
    let mut timed = || {
        let t0 = Instant::now();
        let value = f();
        laps.push(t0.elapsed().as_secs_f64() * 1e3);
        value
    };
    let mut last = timed();
    let mut n = 1;
    while n < min_samples || start.elapsed() < budget {
        last = timed();
        n += 1;
    }
    (Summary::new(laps), last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((0..n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn quartiles_of_a_ramp() {
        let s = ramp(101);
        assert_eq!(s.n(), 101);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.q1(), 25.0);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.q3(), 75.0);
        assert_eq!(s.mean(), 50.0);
        assert!((s.iqr_noise() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s = Summary::new(vec![10.0, 20.0]);
        assert_eq!(s.median(), 15.0);
        assert_eq!(s.percentile(100.0), 20.0);
        assert_eq!(s.percentile(0.0), 10.0);
    }

    #[test]
    fn rank_rule_at_60_200_1000() {
        // 60 samples: p75 leaves 15 beyond, p90 only 6
        assert_eq!(ramp(60).highest_supported().map(|t| t.0), Some(75.0));
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2
        assert_eq!(ramp(200).highest_supported().map(|t| t.0), Some(95.0));
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
        assert_eq!(ramp(1000).highest_supported().map(|t| t.0), Some(99.0));
        assert!(ramp(100).supports(90.0) && !ramp(99).supports(90.0));
        assert!(ramp(10_000).supports(99.9) && !ramp(9_999).supports(99.9));
    }

    #[test]
    fn too_few_samples_support_no_percentile() {
        assert_eq!(ramp(19).highest_supported(), None);
        assert_eq!(ramp(20).highest_supported().map(|t| t.0), Some(50.0));
        let empty = Summary::new(Vec::new());
        assert_eq!((empty.n(), empty.median(), empty.iqr_noise()), (0, 0.0, 0.0));
    }

    #[test]
    fn sample_ms_honours_the_minimum_sample_count() {
        let mut calls = 0;
        let s = sample_ms(Duration::ZERO, 5, || calls += 1);
        assert_eq!((s.n(), calls), (5, 5));
        assert!(s.line("ms").starts_with("n=5 "));
        let (s, last) = sample_ms_keep(Duration::ZERO, 3, || {
            calls += 1;
            calls
        });
        assert_eq!((s.n(), last), (3, 8));
    }
}
