//! Delayed-revelation oracle for the expansion process at huge `n`.
//!
//! Materialising the directed clique costs `Θ(n²)` memory — `n = 10⁶` would
//! need terabytes. The paper's own analysis only ever *reveals* an arc's
//! label the first time the process examines it ("delayed revelation of
//! random values", §3), and each arc is examined at most once; so the
//! process can be simulated by sampling, per frontier vertex, **how many**
//! of its unexamined arcs land in the current label window — a
//! `Binomial(pool, |∆|/a)` draw (binomial thinning) — and then **which**
//! distinct pool vertices were hit.
//!
//! Substitution note: the forward sweep, the backward sweep and the
//! matching step are treated as revealing disjoint arc sets. Arcs examined
//! twice across stages (a backward-frontier member that also borders the
//! forward structure) have probability `O(√n/n)` each; the bias is far
//! below Monte Carlo noise at the sizes where the oracle is used
//! (`n ≥ 10⁴`), and the exact implementation ([`crate::expansion`]) covers
//! every smaller size.

use crate::expansion::ExpansionParams;
use ephemeral_rng::distr::Binomial;
use ephemeral_rng::RandomSource;
use ephemeral_temporal::Time;

/// Outcome of one oracle run (no journey is materialised — the instance
/// itself is never fully drawn).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Did the matching step connect the frontiers?
    pub success: bool,
    /// `|Γᵢ(s)|`, `i = 1, …, d+1`.
    pub forward_levels: Vec<usize>,
    /// `|Γ'ᵢ(t)|`, `i = 1, …, d+1`.
    pub backward_levels: Vec<usize>,
    /// The arrival bound `3c₁·ln n + 2d·c₂` certified on success.
    pub arrival_bound: Time,
}

/// Grow one side (forward or backward — by symmetry the law is identical)
/// and return the level sizes plus the final frontier size.
fn grow_side(
    n: u64,
    lifetime: f64,
    params: &ExpansionParams,
    iv_lengths: &[Time],
    rng: &mut impl RandomSource,
) -> (Vec<usize>, u64) {
    let _ = params;
    // Pool of vertices not yet absorbed (excludes the seed vertex).
    let mut pool = n - 1;
    let mut frontier: u64 = 1; // the seed
    let mut levels = Vec::with_capacity(iv_lengths.len());
    for &len in iv_lengths {
        let p = f64::from(len) / lifetime;
        if frontier == 0 || pool == 0 {
            levels.push(0);
            frontier = 0;
            continue;
        }
        // Each of the `pool` candidates is hit independently with
        // probability 1 − (1−p)^frontier (its arcs from distinct frontier
        // vertices are independent).
        let q = 1.0 - (1.0 - p).powf(frontier as f64);
        let hits = Binomial::new(pool, q).sample(rng);
        levels.push(hits as usize);
        pool -= hits;
        frontier = hits;
    }
    (levels, frontier)
}

/// Run the expansion process on a *virtual* directed normalized U-RT clique
/// of `n` vertices with lifetime `a` (use `a = n` for the normalized case).
///
/// # Panics
/// If `n < 2` or the window layout does not fit in the lifetime.
#[must_use]
pub fn expansion_oracle(
    n: u64,
    lifetime: Time,
    params: &ExpansionParams,
    rng: &mut impl RandomSource,
) -> OracleOutcome {
    assert!(n >= 2, "oracle requires at least two vertices");
    let iv = params.intervals(n as usize);
    assert!(
        iv.total_end() <= lifetime,
        "windows end at {} beyond lifetime {}",
        iv.total_end(),
        lifetime
    );
    let a = f64::from(lifetime);

    // Window lengths: ∆1 then d narrow windows (forward); mirrored backward.
    let mut lengths = Vec::with_capacity(iv.d + 1);
    lengths.push(iv.l1);
    lengths.extend(std::iter::repeat_n(iv.c, iv.d));

    let (forward_levels, fwd_frontier) = grow_side(n, a, params, &lengths, rng);
    let (backward_levels, bwd_frontier) = grow_side(n, a, params, &lengths, rng);

    // Matching: one arc among frontier × frontier with label in ∆* (width
    // l1) suffices. P(miss) = (1 − l1/a)^(F·B).
    let pairs = fwd_frontier.saturating_mul(bwd_frontier);
    let p1 = f64::from(iv.l1) / a;
    let success = if pairs == 0 {
        false
    } else {
        let miss = (1.0 - p1).powf(pairs as f64);
        rng.bernoulli(1.0 - miss)
    };

    OracleOutcome {
        success,
        forward_levels,
        backward_levels,
        arrival_bound: iv.total_end(),
    }
}

/// The expected frontier trajectory (deterministic mean-field recurrence) —
/// a cheap cross-check the tests compare Monte Carlo levels against.
#[must_use]
pub fn expected_levels(n: u64, lifetime: Time, params: &ExpansionParams) -> Vec<f64> {
    let iv = params.intervals(n as usize);
    let a = f64::from(lifetime);
    let mut lengths = Vec::with_capacity(iv.d + 1);
    lengths.push(iv.l1);
    lengths.extend(std::iter::repeat_n(iv.c, iv.d));
    let mut pool = (n - 1) as f64;
    let mut frontier = 1.0f64;
    let mut out = Vec::with_capacity(lengths.len());
    for &len in &lengths {
        let p = f64::from(len) / a;
        let q = 1.0 - (1.0 - p).powf(frontier);
        let hits = pool * q;
        out.push(hits);
        pool -= hits;
        frontier = hits;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_rng::default_rng;

    #[test]
    fn oracle_succeeds_at_large_n() {
        let n: u64 = 100_000;
        let params = ExpansionParams::practical(n as usize);
        let mut successes = 0;
        for seed in 0..20 {
            let mut rng = default_rng(seed);
            let out = expansion_oracle(n, n as Time, &params, &mut rng);
            successes += u32::from(out.success);
        }
        assert!(successes >= 18, "{successes}/20");
    }

    #[test]
    fn oracle_handles_paper_constants_at_million_scale() {
        let n: u64 = 1_000_000;
        let params = ExpansionParams::paper(n as usize);
        assert!(params.fits(n as usize, n as Time));
        let mut rng = default_rng(7);
        let out = expansion_oracle(n, n as Time, &params, &mut rng);
        assert!(out.success);
        // Γ1 concentrates around c1·ln n ≈ 456.
        let g1 = out.forward_levels[0] as f64;
        assert!((g1 - 456.0).abs() < 120.0, "Γ1 = {g1}");
    }

    #[test]
    fn levels_track_mean_field_expectation() {
        let n: u64 = 50_000;
        let params = ExpansionParams::practical(n as usize);
        let expect = expected_levels(n, n as Time, &params);
        // Average the Monte Carlo levels over a few runs.
        let runs = 30;
        let mut sums = vec![0.0f64; expect.len()];
        for seed in 0..runs {
            let mut rng = default_rng(seed);
            let out = expansion_oracle(n, n as Time, &params, &mut rng);
            for (s, &l) in sums.iter_mut().zip(&out.forward_levels) {
                *s += l as f64;
            }
        }
        for (i, (&e, &s)) in expect.iter().zip(&sums).enumerate() {
            let avg = s / runs as f64;
            assert!(
                (avg - e).abs() < 0.25 * e.max(4.0),
                "level {i}: avg {avg} vs expected {e}"
            );
        }
    }

    #[test]
    fn zero_frontier_propagates() {
        // A lifetime so large that windows have negligible probability:
        // Γ1 is almost surely empty and the outcome must fail cleanly.
        let params = ExpansionParams {
            c1: 0.001,
            c2: 0.001,
            d: 2,
        };
        let mut rng = default_rng(3);
        let out = expansion_oracle(1000, 1_000_000, &params, &mut rng);
        assert!(!out.success);
        assert_eq!(out.forward_levels.len(), 3);
    }

    #[test]
    #[should_panic(expected = "beyond lifetime")]
    fn oracle_rejects_oversized_windows() {
        let params = ExpansionParams {
            c1: 50.0,
            c2: 50.0,
            d: 10,
        };
        let mut rng = default_rng(5);
        let _ = expansion_oracle(100, 100, &params, &mut rng);
    }
}
