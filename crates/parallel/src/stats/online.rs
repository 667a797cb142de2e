//! Welford online moments.

use super::ci::z_for_confidence;

/// Streaming mean/variance/extrema accumulator. The Monte Carlo runner
/// folds samples into one of these in trial order, so every moment is
/// bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (0 when empty).
    #[must_use]
    pub fn sem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sd() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation CI for the mean at the given
    /// confidence level: `z·sem`. Returns `f64::INFINITY` for fewer than
    /// two samples — the variance (and hence any honest interval) is
    /// undefined, which is exactly what an adaptive stopping rule should
    /// see so it keeps sampling.
    ///
    /// ```
    /// use ephemeral_parallel::stats::OnlineStats;
    /// let mut s = OnlineStats::new();
    /// assert_eq!(s.half_width(0.95), f64::INFINITY);
    /// s.push(1.0);
    /// assert_eq!(s.half_width(0.95), f64::INFINITY); // one sample: still undefined
    /// s.push(3.0);
    /// // two samples: sd = √2, sem = 1, z(95%) ≈ 1.96.
    /// assert!((s.half_width(0.95) - 1.959_964).abs() < 1e-5);
    /// ```
    #[must_use]
    pub fn half_width(&self, confidence: f64) -> f64 {
        if self.count < 2 {
            f64::INFINITY
        } else {
            z_for_confidence(confidence) * self.sem()
        }
    }

    /// Smallest sample (`+inf` when empty).
    #[must_use]
    pub const fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    #[must_use]
    pub const fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sem(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn half_width_tracks_sample_count() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push(f64::from(i % 10));
        }
        let wide = s.half_width(0.95);
        for i in 0..900 {
            s.push(f64::from(i % 10));
        }
        let narrow = s.half_width(0.95);
        assert!(narrow < wide, "{narrow} vs {wide}");
        // 10× the samples ⇒ ~√10 narrower.
        assert!((wide / narrow - 10f64.sqrt()).abs() < 0.2);
        // Higher confidence widens the interval.
        assert!(s.half_width(0.99) > s.half_width(0.95));
    }
}
