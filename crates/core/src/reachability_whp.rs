//! Definition 7: experiments that *strongly guarantee temporal reachability
//! with high probability* — how many random labels per edge until
//! `P[T_reach] ≥ 1 − n^{−a}`?

use crate::models::UniformMulti;
use crate::scenario::Scratch;
use ephemeral_graph::Graph;
use ephemeral_parallel::adaptive::{
    adaptive_proportion_pooled_with, AdaptiveConfig, AdaptiveProportion, StatePool,
};
use ephemeral_parallel::Proportion;
use ephemeral_rng::SeedSequence;
use ephemeral_temporal::reachability::StaticReach;
use ephemeral_temporal::Time;

/// Warm trial [`Scratch`]es shared across the probes of one
/// `(graph, lifetime)`, so a minimal-`r` search builds at most `threads`
/// of them instead of a network copy per candidate `r`.
pub type ProbePool = StatePool<Scratch>;

/// Monte Carlo estimate of `P[T_reach]` for `r` i.i.d. uniform labels per
/// edge over `graph` with the given lifetime: batches run until the Wilson
/// half-width reaches the config's target or its cap (a fixed count is
/// [`AdaptiveConfig::fixed`]), so probes at `p̂ ≈ 0` or `1` stop after a
/// few batches. Each trial redraws the labels into its worker's
/// [`Scratch`] and checks `T_reach` (64-lane probe, then the dispatched
/// full-width engine) against one static oracle built for the call.
///
/// # Panics
/// If `r == 0`, `lifetime == 0` or the config's trial cap is 0.
#[must_use]
pub fn treach_probability_adaptive(
    graph: &Graph,
    lifetime: Time,
    r: usize,
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
) -> AdaptiveProportion {
    treach_probability_adaptive_pooled(graph, lifetime, r, cfg, seed, threads, &ProbePool::new())
}

/// [`treach_probability_adaptive`] drawing its scratches from a
/// caller-owned [`ProbePool`]: identical numbers, as the per-trial redraw
/// fully resets a pooled scratch.
///
/// # Panics
/// As [`treach_probability_adaptive`], or if the pool holds scratches of
/// another `(graph, lifetime)`.
#[must_use]
pub fn treach_probability_adaptive_pooled(
    graph: &Graph,
    lifetime: Time,
    r: usize,
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    pool: &ProbePool,
) -> AdaptiveProportion {
    probe(graph, lifetime, threads, pool)(r, cfg, seed)
}

/// The `T_reach` probe `(r, cfg, seed) ↦ P̂` of one instance: every probe
/// draws scratches from `pool` and checks against one static oracle.
pub(crate) fn probe<'a>(
    graph: &'a Graph,
    lifetime: Time,
    threads: usize,
    pool: &'a ProbePool,
) -> impl Fn(usize, &AdaptiveConfig, u64) -> AdaptiveProportion + 'a {
    let oracle = StaticReach::new(graph);
    move |r, cfg, seed| {
        assert!(r >= 1);
        let model = UniformMulti { lifetime, r };
        adaptive_proportion_pooled_with(
            cfg,
            seed,
            threads,
            pool,
            || Scratch::new(graph, lifetime),
            |s, _, rng| {
                s.redraw(&model, rng);
                s.treach(&oracle).0
            },
        )
    }
}

/// Result of the minimal-`r` search.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimalR {
    /// Smallest evaluated `r` whose estimate met the target.
    pub r: usize,
    /// The estimate at that `r`.
    pub probability: Proportion,
    /// Every `(r, estimate)` pair evaluated along the way, in evaluation
    /// order — the raw material of the E08 tables.
    pub evaluations: Vec<(usize, f64)>,
    /// The target probability used.
    pub target: f64,
}

/// Largest `r` a minimal-`r` search probes.
const R_CAP: usize = 4096;

/// The one minimal-`r` search: double `r` from 1 until `probe(r)` meets
/// `target` (capped at `r = 4096`), then bisect between the last failing
/// and the first meeting `r` — both on the Monte Carlo estimate, so the
/// answer is exact up to sampling noise at the threshold. If even the cap
/// fails it is returned with its measured probability, so callers can see
/// the failure. Panics unless `target ∈ (0, 1]`.
pub(crate) fn minimal_r_search(
    target: f64,
    mut probe: impl FnMut(usize) -> Proportion,
) -> MinimalR {
    assert!(target > 0.0 && target <= 1.0, "target must be in (0,1]");
    let mut evaluations = Vec::new();
    let mut eval = |r: usize| {
        let p = probe(r);
        evaluations.push((r, p.estimate));
        p
    };
    let mut hi = 1usize;
    let mut hi_prob = eval(hi);
    while hi_prob.estimate < target && hi < R_CAP {
        hi *= 2;
        hi_prob = eval(hi);
    }
    if hi_prob.estimate >= target {
        let mut lo = hi / 2; // exclusive: lo failed (or is 0)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let p = eval(mid);
            if p.estimate >= target {
                hi = mid;
                hi_prob = p;
            } else {
                lo = mid;
            }
        }
    }
    MinimalR {
        r: hi,
        probability: hi_prob,
        evaluations,
        target,
    }
}

/// The minimal-`r` search with adaptive trial allocation per probe: each
/// probed `r` runs only as many trials as its Wilson interval demands, at
/// a seed from a [`SeedSequence`] stream keyed by `r` (probes never share
/// draws). One [`ProbePool`] and one static oracle span the search.
///
/// # Panics
/// If `target ∉ (0, 1]`.
#[must_use]
pub fn minimal_r_adaptive(
    graph: &Graph,
    lifetime: Time,
    target: f64,
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
) -> MinimalR {
    let seq = SeedSequence::new(seed);
    let pool = ProbePool::new();
    let probe = probe(graph, lifetime, threads, &pool);
    minimal_r_search(target, |r| probe(r, cfg, seq.derive(r as u64)).proportion)
}

/// The paper's "with high probability" target for a given `n`: `1 − 1/n`
/// (the weakest exponent `a = 1` of the definition).
#[must_use]
pub fn whp_target(n: usize) -> f64 {
    1.0 - 1.0 / (n.max(2) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_graph::generators;

    #[test]
    fn clique_needs_one_label() {
        let g = generators::clique(10, false);
        let fixed = AdaptiveConfig::fixed(50);
        let p = treach_probability_adaptive(&g, 10, 1, &fixed, 1, 2).proportion;
        assert_eq!(p.estimate, 1.0, "cliques satisfy T_reach with any labels");
        let res = minimal_r_adaptive(&g, 10, 0.99, &fixed, 1, 2);
        assert_eq!(res.r, 1);
        assert_eq!(res.evaluations.len(), 1);
    }

    #[test]
    fn path_needs_many_labels() {
        let g = generators::path(12);
        let fixed = AdaptiveConfig::fixed(100);
        let one = treach_probability_adaptive(&g, 12, 1, &fixed, 2, 2).proportion;
        assert!(one.estimate < 0.2, "{one}");
        let many = treach_probability_adaptive(&g, 12, 48, &fixed, 2, 2).proportion;
        assert!(many.estimate > 0.8, "{many}");
    }

    #[test]
    fn minimal_r_finds_a_threshold() {
        let g = generators::star(32);
        let res = minimal_r_adaptive(&g, 32, 0.9, &AdaptiveConfig::fixed(150), 3, 2);
        assert!(res.r >= 2, "one label cannot serve a star: {}", res.r);
        assert!(res.r <= 64, "threshold unexpectedly large: {}", res.r);
        assert!(res.probability.estimate >= 0.9);
        // The evaluation trace includes the final r.
        assert!(res.evaluations.iter().any(|&(r, _)| r == res.r));
    }

    #[test]
    fn minimal_r_on_disconnected_graph_respects_static_reach() {
        // T_reach only requires journeys where static paths exist; two
        // disjoint edges each need their own labels but no cross pairs.
        let mut b = ephemeral_graph::GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        let res = minimal_r_adaptive(&g, 4, 0.95, &AdaptiveConfig::fixed(50), 4, 1);
        assert_eq!(res.r, 1, "single labels serve single edges");
    }

    #[test]
    fn search_doubles_then_bisects_and_stops_at_the_cap() {
        let at = |threshold: usize| move |r: usize| Proportion::new(usize::from(r >= threshold), 1);
        let res = minimal_r_search(0.5, at(11));
        let probed: Vec<usize> = res.evaluations.iter().map(|&(r, _)| r).collect();
        assert_eq!(probed, [1, 2, 4, 8, 16, 12, 10, 11]);
        assert_eq!((res.r, res.probability.estimate), (11, 1.0));
        // Nothing meets the target: the doubling stops at the cap, which is
        // returned with its failing estimate and never exceeded.
        let res = minimal_r_search(0.5, at(usize::MAX));
        assert_eq!(res.evaluations.len(), 13);
        assert_eq!(res.evaluations.last(), Some(&(R_CAP, 0.0)));
        assert_eq!((res.r, res.probability.estimate), (R_CAP, 0.0));
    }

    #[test]
    fn adaptive_minimal_r_matches_the_fixed_search_shape() {
        let g = generators::star(32);
        let cfg = AdaptiveConfig::new(0.06)
            .with_min_trials(24)
            .with_batch(24)
            .with_max_trials(600);
        let res = minimal_r_adaptive(&g, 32, 0.9, &cfg, 3, 2);
        assert!(res.r >= 2 && res.r <= 64, "r = {}", res.r);
        assert!(res.probability.estimate >= 0.9);
        assert!(res.evaluations.iter().any(|&(r, _)| r == res.r));
        // Determinism across thread counts (the sweep contract).
        let again = minimal_r_adaptive(&g, 32, 0.9, &cfg, 3, 8);
        assert_eq!(res, again);
    }

    #[test]
    fn adaptive_treach_probability_stops_early_at_extremes() {
        let clique = generators::clique(12, false);
        let cfg = AdaptiveConfig::new(0.05)
            .with_min_trials(16)
            .with_batch(16)
            .with_max_trials(2_000);
        let sure = treach_probability_adaptive(&clique, 12, 1, &cfg, 1, 2);
        assert_eq!(sure.proportion.estimate, 1.0);
        assert!(sure.converged);
        // The path at a borderline budget needs many more trials.
        let path = generators::path(10);
        let mid = treach_probability_adaptive(&path, 10, 16, &cfg, 1, 2);
        assert!(
            mid.proportion.trials >= sure.proportion.trials,
            "mid {} sure {}",
            mid.proportion.trials,
            sure.proportion.trials
        );
    }

    #[test]
    fn pooled_probes_match_fresh_probes_and_reuse_sessions() {
        let g = generators::star(24);
        let cfg = AdaptiveConfig::new(0.08)
            .with_min_trials(16)
            .with_batch(16)
            .with_max_trials(200);
        let threads = 2;
        let pool = ProbePool::new();
        for r in [1usize, 4, 16] {
            let pooled =
                treach_probability_adaptive_pooled(&g, 24, r, &cfg, 7 ^ r as u64, threads, &pool);
            let fresh = treach_probability_adaptive(&g, 24, r, &cfg, 7 ^ r as u64, threads);
            assert_eq!(pooled.proportion, fresh.proportion, "r = {r}");
            assert_eq!(pooled.half_width, fresh.half_width, "r = {r}");
        }
        // The shared pool parked its warm scratches between probes instead
        // of rebuilding them: never more than `threads` states exist.
        let idle = pool.idle();
        assert!(
            (1..=threads).contains(&idle),
            "expected 1..={threads} pooled probe states, found {idle}"
        );
    }

    #[test]
    fn whp_target_formula() {
        assert!((whp_target(100) - 0.99).abs() < 1e-12);
        assert!(whp_target(0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "target must be in (0,1]")]
    fn bad_target_panics() {
        let g = generators::path(4);
        let _ = minimal_r_adaptive(&g, 4, 0.0, &AdaptiveConfig::fixed(10), 0, 1);
    }
}
