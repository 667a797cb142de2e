//! Batch summary of a sample set.

use super::online::OnlineStats;

/// Descriptive statistics of a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub sd: f64,
    /// Standard error of the mean.
    pub sem: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (interpolated).
    pub median: f64,
    /// Lower quartile (interpolated).
    pub q25: f64,
    /// Upper quartile (interpolated).
    pub q75: f64,
}

impl Summary {
    /// Summarise samples (empty input gives an all-zero summary).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                n: 0,
                mean: 0.0,
                sd: 0.0,
                sem: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                q25: 0.0,
                q75: 0.0,
            };
        }
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.push(x);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self {
            n: samples.len(),
            mean: stats.mean(),
            sd: stats.sd(),
            sem: stats.sem(),
            min: stats.min(),
            max: stats.max(),
            median: quantile_sorted(&sorted, 0.5),
            q25: quantile_sorted(&sorted, 0.25),
            q75: quantile_sorted(&sorted, 0.75),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} med={:.4} max={:.4}",
            self.n, self.mean, self.sd, self.min, self.median, self.max
        )
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice
/// (`q ∈ [0, 1]`; the "type 7" estimator used by R and NumPy).
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_data() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.q25 - 2.0).abs() < 1e-12);
        assert!((s.q75 - 4.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.sd - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = Summary::from_samples(&[3.0, 1.0, 2.0]);
        let b = Summary::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 10.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_endpoints() {
        let sorted = [1.0, 5.0, 9.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 9.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_rejects_empty() {
        let _ = quantile_sorted(&[], 0.5);
    }

    #[test]
    fn display_mentions_count() {
        let s = Summary::from_samples(&[1.0, 2.0]);
        assert!(format!("{s}").contains("n=2"));
    }
}
