//! Star graphs `K_{1,n−1}` — the witness family of Theorem 6.
//!
//! For the star, `T_reach` has a closed-form characterisation that this
//! module exploits for an `O(n·r)`-per-trial Monte Carlo (the generic check
//! costs `n` foremost sweeps): leaves `u → v` connect through the centre
//! iff `min L(u) < max L(v)`, and centre↔leaf journeys always exist when
//! every edge has at least one label. Hence
//!
//! `T_reach  ⟺  ∀ ordered leaf pairs u ≠ v:  min L(u) < max L(v)`.
//!
//! Theorem 6 shows `r(n) = Θ(log n)` labels per edge are both sufficient
//! (via *2-split journeys*: first hop in `(0, n/2)`, second in `(n/2, n)`)
//! and necessary, so the star's Price of Randomness is `Θ(log n)`.

use crate::reachability_whp::minimal_r_search;
use ephemeral_parallel::adaptive::{adaptive_proportion, AdaptiveConfig};
use ephemeral_parallel::Proportion;
use ephemeral_rng::RandomSource;
use ephemeral_temporal::Time;

/// Per-edge label extremes `(min, max)` — all the star check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeExtremes {
    /// Smallest label on the edge.
    pub min: Time,
    /// Largest label on the edge.
    pub max: Time,
}

/// Sample the extremes of `r` i.i.d. uniform labels on `{1, …, lifetime}`.
#[inline]
fn sample_extremes(lifetime: Time, r: usize, rng: &mut impl RandomSource) -> EdgeExtremes {
    debug_assert!(r >= 1);
    let mut min = Time::MAX;
    let mut max = 0;
    for _ in 0..r {
        let l = rng.range_u32(1, lifetime);
        min = min.min(l);
        max = max.max(l);
    }
    EdgeExtremes { min, max }
}

/// Exact `T_reach` check for a star given each leaf edge's label extremes.
///
/// Fails iff some ordered leaf pair `(u, v)` has `min L(u) ≥ max L(v)`;
/// equivalently `max_u min L(u) ≥ max L(v)` for some `v ≠ u`. Handled via
/// the top-2 extremes so the check is a single `O(n)` pass.
#[must_use]
pub fn star_treach(extremes: &[EdgeExtremes]) -> bool {
    let k = extremes.len();
    if k <= 1 {
        return true; // centre↔single-leaf journeys always exist
    }
    // Largest and second-largest min (with index of the largest).
    let mut max1_min = 0;
    let mut arg_max_min = usize::MAX;
    let mut max2_min = 0;
    // Smallest and second-smallest max (with index of the smallest).
    let mut min1_max = Time::MAX;
    let mut arg_min_max = usize::MAX;
    let mut min2_max = Time::MAX;
    for (i, e) in extremes.iter().enumerate() {
        if e.min > max1_min || arg_max_min == usize::MAX {
            max2_min = max1_min;
            max1_min = e.min;
            arg_max_min = i;
        } else if e.min > max2_min {
            max2_min = e.min;
        }
        if e.max < min1_max || arg_min_max == usize::MAX {
            min2_max = min1_max;
            min1_max = e.max;
            arg_min_max = i;
        } else if e.max < min2_max {
            min2_max = e.max;
        }
    }
    if arg_max_min != arg_min_max {
        max1_min < min1_max
    } else {
        // The extreme edge is the same: compare it against the runners-up.
        max1_min < min2_max && max2_min < min1_max
    }
}

/// Reference implementation of the star check (`O(k²)` over ordered leaf
/// pairs) — used by the tests to validate [`star_treach`].
#[must_use]
pub fn star_treach_bruteforce(extremes: &[EdgeExtremes]) -> bool {
    for (i, a) in extremes.iter().enumerate() {
        for (j, b) in extremes.iter().enumerate() {
            if i != j && a.min >= b.max {
                return false;
            }
        }
    }
    true
}

/// Monte Carlo estimate of `P[T_reach]` for the normalized star
/// (`K_{1,n−1}`, lifetime `n`) with `r` uniform labels per edge.
///
/// ```
/// use ephemeral_core::star::star_treach_probability;
/// // One label per edge essentially never works; 6·log2(64) labels do.
/// let low = star_treach_probability(64, 1, 200, 7, 1);
/// let high = star_treach_probability(64, 36, 200, 7, 1);
/// assert!(low.estimate < 0.2 && high.estimate > 0.95);
/// ```
///
/// # Panics
/// If `n < 2`, `r == 0` or `trials == 0`.
#[must_use]
pub fn star_treach_probability(
    n: usize,
    r: usize,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Proportion {
    assert!(n >= 2, "star needs at least one leaf");
    assert!(r >= 1, "at least one label per edge");
    let leaves = n - 1;
    let lifetime = n as Time;
    let fixed = AdaptiveConfig::fixed(trials);
    adaptive_proportion(&fixed, seed, threads, |_, rng| {
        // Streaming top-2 tracking would need the same pass as
        // star_treach; sampling extremes per edge is the dominant cost.
        let extremes: Vec<EdgeExtremes> = (0..leaves)
            .map(|_| sample_extremes(lifetime, r, rng))
            .collect();
        star_treach(&extremes)
    })
    .proportion
}

/// The probability that a fixed leaf pair admits a 2-split journey
/// (Theorem 6(a)): both halves hit, `(1 − 2^{−r})²`.
#[must_use]
pub fn two_split_probability(r: usize) -> f64 {
    let miss = 0.5f64.powi(r as i32);
    (1.0 - miss) * (1.0 - miss)
}

/// Theorem 6(a)'s union bound on `P[¬T_reach]` for the star with `r`
/// labels per edge: `n(n−1) · 2 · 2^{−r}`, clamped to `[0, 1]`.
#[must_use]
pub fn star_failure_upper_bound(n: usize, r: usize) -> f64 {
    let nf = n as f64;
    (nf * (nf - 1.0) * 2.0 * 0.5f64.powi(r as i32)).min(1.0)
}

/// Smallest `r` whose empirical `P[T_reach] ≥ target` on the normalized
/// star, found by the doubling-then-bisect search of
/// [`reachability_whp`](crate::reachability_whp), every probe a fixed
/// count of `trials` at seed `seed ^ (r << 32)`. If even `r = 4096`
/// fails, 4096 is returned.
///
/// # Panics
/// If `n < 2`, `trials == 0` or `target ∉ (0, 1]`.
#[must_use]
pub fn minimal_r_star(n: usize, target: f64, trials: usize, seed: u64, threads: usize) -> usize {
    minimal_r_search(target, |r| {
        star_treach_probability(n, r, trials, seed ^ ((r as u64) << 32), threads)
    })
    .r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_rng::default_rng;

    fn ex(min: Time, max: Time) -> EdgeExtremes {
        EdgeExtremes { min, max }
    }

    #[test]
    fn trivial_stars_always_reach() {
        assert!(star_treach(&[]));
        assert!(star_treach(&[ex(5, 5)]));
    }

    #[test]
    fn two_leaves_both_directions() {
        // u: {3}, v: {1,5}: u→v needs 3 < 5 ✓; v→u needs 1 < 3 ✓.
        assert!(star_treach(&[ex(3, 3), ex(1, 5)]));
        // u: {3}, v: {1,2}: u→v needs 3 < 2 ✗.
        assert!(!star_treach(&[ex(3, 3), ex(1, 2)]));
        // Symmetric failure.
        assert!(!star_treach(&[ex(1, 2), ex(3, 3)]));
    }

    #[test]
    fn same_arg_extreme_edge_case() {
        // One edge has both the largest min and the smallest max: {4,4};
        // others {1,9}. Pairs: (a,{1,9}): 4<9 ✓; ({1,9},a): 1<4 ✓;
        // cross {1,9} pairs: 1<9 ✓.
        assert!(star_treach(&[ex(4, 4), ex(1, 9), ex(1, 9)]));
        // Now shrink the others: {1,3}: (a → other) needs 4 < 3 ✗.
        assert!(!star_treach(&[ex(4, 4), ex(1, 3), ex(1, 3)]));
    }

    #[test]
    fn fast_check_matches_bruteforce_on_random_inputs() {
        let mut rng = default_rng(99);
        use ephemeral_rng::RandomSource;
        for trial in 0..2000 {
            let k = 2 + rng.index(6);
            let extremes: Vec<EdgeExtremes> = (0..k)
                .map(|_| {
                    let a = rng.range_u32(1, 8);
                    let b = rng.range_u32(1, 8);
                    ex(a.min(b), a.max(b))
                })
                .collect();
            assert_eq!(
                star_treach(&extremes),
                star_treach_bruteforce(&extremes),
                "trial {trial}: {extremes:?}"
            );
        }
    }

    #[test]
    fn fast_check_matches_generic_treach() {
        // Cross-validate against the generic temporal check on sampled
        // star instances.
        use crate::urtn::sample_multi_urtn;
        use ephemeral_graph::generators;
        use ephemeral_temporal::reachability::treach_holds;
        for seed in 0..30 {
            let mut rng = default_rng(seed);
            let n = 12;
            let tn = sample_multi_urtn(generators::star(n), n as Time, 2, &mut rng);
            let extremes: Vec<EdgeExtremes> = (0..(n - 1) as u32)
                .map(|e| {
                    let l = tn.labels(e);
                    ex(*l.first().unwrap(), *l.last().unwrap())
                })
                .collect();
            assert_eq!(star_treach(&extremes), treach_holds(&tn, 1), "seed {seed}");
        }
    }

    #[test]
    fn probability_increases_with_r() {
        let n = 64;
        let p1 = star_treach_probability(n, 1, 400, 1, 2);
        let p6 = star_treach_probability(n, 6, 400, 1, 2);
        let p16 = star_treach_probability(n, 16, 400, 1, 2);
        assert!(
            p1.estimate < p6.estimate,
            "{} !< {}",
            p1.estimate,
            p6.estimate
        );
        assert!(p6.estimate <= p16.estimate + 0.05);
        assert!(p16.estimate > 0.95, "{p16}");
        // One label per edge can never satisfy T_reach for n ≥ 3 leaves
        // unless extremes align (min == max per edge): P should be tiny.
        assert!(p1.estimate < 0.1, "{p1}");
    }

    #[test]
    fn analytic_formulas() {
        assert!((two_split_probability(1) - 0.25).abs() < 1e-12);
        assert!(two_split_probability(20) > 0.99999);
        assert_eq!(star_failure_upper_bound(100, 1), 1.0);
        assert!(star_failure_upper_bound(100, 40) < 1e-6);
    }

    #[test]
    fn minimal_r_is_logarithmic_in_n() {
        let r64 = minimal_r_star(64, 0.9, 200, 5, 2);
        let r1024 = minimal_r_star(1024, 0.9, 200, 5, 2);
        assert!(r64 >= 2, "r64 = {r64}");
        assert!(r1024 >= r64, "r should not shrink with n");
        // Θ(log n): bounded by a small multiple of log2 n.
        assert!((r1024 as f64) < 4.0 * 1024f64.log2(), "r1024 = {r1024}");
    }

    #[test]
    fn minimal_r_respects_target_monotonicity() {
        let lax = minimal_r_star(128, 0.5, 300, 6, 2);
        let strict = minimal_r_star(128, 0.99, 300, 6, 2);
        assert!(lax <= strict, "lax {lax} strict {strict}");
    }
}
