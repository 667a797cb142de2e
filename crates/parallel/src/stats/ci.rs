//! Confidence intervals.

/// Two-sided standard-normal quantile for the common confidence levels.
/// Inputs are snapped to the nearest supported level
/// (80%, 90%, 95%, 98%, 99%, 99.9%).
#[must_use]
pub fn z_for_confidence(level: f64) -> f64 {
    const TABLE: [(f64, f64); 6] = [
        (0.80, 1.281_551_6),
        (0.90, 1.644_853_6),
        (0.95, 1.959_964_0),
        (0.98, 2.326_347_9),
        (0.99, 2.575_829_3),
        (0.999, 3.290_526_7),
    ];
    let mut best = TABLE[0];
    for &(l, z) in &TABLE[1..] {
        if (l - level).abs() < (best.0 - level).abs() {
            best = (l, z);
        }
    }
    best.1
}

/// Wilson score interval for a binomial proportion — well-behaved at the
/// extremes (`p̂ = 0` or `1`), which success-probability experiments such as
/// E06/E08 hit routinely.
///
/// Zero successes pin the lower end at 0 but keep a positive width — the
/// interval never collapses to a point on extreme data:
///
/// ```
/// use ephemeral_parallel::stats::wilson_interval;
/// let (lo, hi) = wilson_interval(0, 50, 0.95);
/// assert_eq!(lo, 0.0);
/// assert!(hi > 0.0 && hi < 0.15);
/// ```
///
/// All successes mirror that exactly (`[1 − hi₀, 1]`):
///
/// ```
/// use ephemeral_parallel::stats::wilson_interval;
/// let (lo0, hi0) = wilson_interval(0, 50, 0.95);
/// let (lo1, hi1) = wilson_interval(50, 50, 0.95);
/// assert!((lo1 - (1.0 - hi0)).abs() < 1e-12);
/// assert!((hi1 - 1.0).abs() < 1e-12);
/// ```
///
/// A single trial stays honest — the interval covers most of `[0, 1]`
/// rather than claiming certainty from one observation:
///
/// ```
/// use ephemeral_parallel::stats::wilson_interval;
/// let (lo, hi) = wilson_interval(1, 1, 0.95);
/// assert!((hi - 1.0).abs() < 1e-12);
/// assert!(lo < 0.3, "one success can't pin the proportion: lo = {lo}");
/// ```
#[must_use]
pub fn wilson_interval(successes: usize, trials: usize, level: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = z_for_confidence(level);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

/// Half the width of the Wilson interval — the stopping quantity of the
/// adaptive proportion estimator. `f64::INFINITY` with no trials (an empty
/// experiment has no estimate to bound).
///
/// ```
/// use ephemeral_parallel::stats::wilson_half_width;
/// assert_eq!(wilson_half_width(0, 0, 0.95), f64::INFINITY);
/// assert!(wilson_half_width(500, 1000, 0.95) < wilson_half_width(5, 10, 0.95));
/// ```
#[must_use]
pub fn wilson_half_width(successes: usize, trials: usize, level: f64) -> f64 {
    if trials == 0 {
        return f64::INFINITY;
    }
    let (lo, hi) = wilson_interval(successes, trials, level);
    (hi - lo) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_snap_to_levels() {
        assert!((z_for_confidence(0.95) - 1.959_964).abs() < 1e-5);
        assert!((z_for_confidence(0.94) - 1.959_964).abs() < 1e-5); // snaps to 95
        assert!((z_for_confidence(0.99) - 2.575_829).abs() < 1e-5);
        assert!((z_for_confidence(0.999) - 3.290_527).abs() < 1e-5);
    }

    #[test]
    fn wilson_contains_point_estimate() {
        for &(s, n) in &[(0usize, 100usize), (50, 100), (100, 100), (1, 3)] {
            let (lo, hi) = wilson_interval(s, n, 0.95);
            let p = s as f64 / n as f64;
            assert!(
                lo <= p + 1e-12 && p - 1e-12 <= hi,
                "({s},{n}): [{lo},{hi}] vs {p}"
            );
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_zero_successes_has_positive_width() {
        let (lo, hi) = wilson_interval(0, 50, 0.95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.15);
    }

    #[test]
    fn wilson_all_successes_mirrors_zero() {
        let (lo0, hi0) = wilson_interval(0, 50, 0.95);
        let (lo1, hi1) = wilson_interval(50, 50, 0.95);
        assert!((lo1 - (1.0 - hi0)).abs() < 1e-12);
        assert!((hi1 - (1.0 - lo0)).abs() < 1e-12);
    }

    #[test]
    fn wilson_no_trials_is_vacuous() {
        assert_eq!(wilson_interval(0, 0, 0.95), (0.0, 1.0));
    }

    #[test]
    fn wilson_narrows_with_more_trials() {
        let (lo1, hi1) = wilson_interval(5, 10, 0.95);
        let (lo2, hi2) = wilson_interval(500, 1000, 0.95);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_single_trial_edge_cases() {
        let (lo, hi) = wilson_interval(0, 1, 0.95);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.7, "one failure can't rule p out: hi = {hi}");
        let (lo1, hi1) = wilson_interval(1, 1, 0.95);
        assert!((lo1 - (1.0 - hi)).abs() < 1e-12);
        assert!((hi1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_width_is_half_the_interval() {
        for &(s, n) in &[(0usize, 20usize), (7, 20), (20, 20), (1, 1)] {
            let (lo, hi) = wilson_interval(s, n, 0.95);
            assert!((wilson_half_width(s, n, 0.95) - (hi - lo) / 2.0).abs() < 1e-15);
        }
        assert_eq!(wilson_half_width(0, 0, 0.99), f64::INFINITY);
    }
}
