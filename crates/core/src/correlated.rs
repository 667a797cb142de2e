//! Correlated what-if estimation of `P[T_reach]` through the
//! differential cursor.
//!
//! The Monte Carlo estimators in [`reachability_whp`](crate::reachability_whp)
//! redraw **every** label between trials, so each trial pays a cold
//! all-source sweep. This module explores the complementary regime the
//! [`DeltaCursor`](ephemeral_temporal::delta::DeltaCursor) exists for:
//! single-site Gibbs chains where consecutive assignments differ in one
//! label, so each step replays only the handful of perturbed buckets
//! instead of sweeping cold.
//!
//! Per step the `T_reach` sample itself is O(1): journeys are paths, so
//! temporal reach is a subset of static reach source by source, and the
//! **total** maintained bit count equals the static total iff every
//! source matches ([`StaticReach::total`]). No per-step sweep, no
//! per-step comparison pass.
//!
//! ## Statistics, honestly
//!
//! Within a chain consecutive samples are highly correlated (they share
//! all but one label), so they are *not* independent draws from the
//! UNI-CASE distribution conditioned on anything useful — but each
//! chain's *marginal* per-step distribution is exactly UNI-CASE once
//! the chain starts from a fresh uniform draw, because resampling a
//! uniformly chosen label of a uniformly chosen edge to a fresh uniform
//! value maps the product-uniform distribution to itself (the move is a
//! Gibbs update whose stationary law is the i.i.d. prior, and the
//! chain *starts* stationary). The estimate is therefore unbiased; only
//! the *variance* is inflated by autocorrelation. The reported
//! half-width comes from the spread of the per-chain means across
//! independent chains — the standard batch-means construction — and
//! stays honest regardless of the within-chain correlation length. For
//! the same reason the minimal-`r` searches of
//! [`reachability_whp`](crate::reachability_whp) keep independent cold
//! draws: a bisection wants the tightest CI per sweep, not the cheapest
//! sample per step.
//!
//! One chain loop serves E12's [`treach_probability_correlated`] and the
//! `treachd` cells of [`Scenario`](crate::scenario::Scenario) alike.

use crate::models::{LabelModel, UniformSingle};
use crate::scenario::Scratch;
use ephemeral_graph::{EdgeId, Graph};
use ephemeral_parallel::par_map_with;
use ephemeral_rng::{DefaultRng, RandomSource, SeedSequence};
use ephemeral_temporal::reachability::StaticReach;
use ephemeral_temporal::wide::EngineKind;
use ephemeral_temporal::Time;

/// Seed stream tag for the per-chain rng streams.
const CHAIN_STREAM: u64 = 0xC0;

/// The result of [`treach_probability_correlated`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorrelatedTreach {
    /// Mean of the per-chain `T_reach` frequencies (unbiased for the
    /// UNI-CASE probability; see the module-level statistics note).
    pub estimate: f64,
    /// `1.96 ×` the standard error of the per-chain means — a 95%
    /// interval built from *independent* chains only, immune to the
    /// within-chain autocorrelation (`∞` when `chains < 2`).
    pub half_width: f64,
    /// Independent chains run.
    pub chains: usize,
    /// Gibbs steps proposed per chain (samples per chain is one more:
    /// the freshly drawn starting state counts).
    pub steps_per_chain: usize,
    /// Total `T_reach` samples taken (`chains × (steps_per_chain + 1)`).
    pub samples: usize,
    /// Proposals actually applied (no-op and colliding draws are
    /// rejected by the move semantics and re-sample the same state).
    pub applied_moves: usize,
    /// Total buckets the differential cursor replayed across every
    /// applied move — the work a cold driver would have spent full
    /// sweeps on.
    pub replayed_buckets: usize,
    /// Mean temporally reachable **ordered off-diagonal** pairs per
    /// sample — the free continuous observable of the maintained
    /// closure (`reached_bits − n`, read in O(1) per step).
    pub mean_reachable_pairs: f64,
    /// `1.96 ×` the between-chain standard error of the per-chain
    /// reachable-pair means (`∞` when `chains < 2`).
    pub reach_half_width: f64,
}

/// Estimate `P[T_reach]` under UNI-CASE labels on `graph` with the
/// given `lifetime`, using `chains` independent single-site Gibbs
/// chains of `steps_per_chain` moves each, every chain maintained
/// differentially by a [`DeltaCursor`](ephemeral_temporal::delta::DeltaCursor)
/// (one recorded sweep per chain, then one
/// [`apply_label_move`](ephemeral_temporal::delta::DeltaCursor::apply_label_move)
/// per step). An edgeless graph holds `T_reach` vacuously: the estimate
/// is 1 and no chain runs.
///
/// Deterministic in `(graph, lifetime, chains, steps_per_chain, seed)`
/// — never in `threads`: each chain's rng stream is keyed by its index.
///
/// # Panics
/// If `lifetime == 0` or `chains == 0`.
#[must_use]
pub fn treach_probability_correlated(
    graph: &Graph,
    lifetime: Time,
    chains: usize,
    steps_per_chain: usize,
    seed: u64,
    threads: usize,
) -> CorrelatedTreach {
    assert!(chains > 0, "at least one chain is required");
    let stream = SeedSequence::new(seed).child(CHAIN_STREAM);
    run_chains(
        graph,
        &UniformSingle { lifetime },
        chains,
        steps_per_chain,
        threads,
        || Scratch::new(graph, lifetime),
        |s, c, run| run(s, &mut stream.rng(c)),
    )
}

/// One chain's tallies, and the engine that recorded its starting state.
pub(crate) struct Chain {
    hits: usize,
    applied: usize,
    replayed: usize,
    reach_sum: u64,
    pub(crate) engine: EngineKind,
}

/// Run `chains` independent Gibbs chains of `steps` proposals each, every
/// chain started from a fresh draw from `model` and recorded once, and
/// fold them by the between-chain construction. `around(scratch, c,
/// chain)` runs chain `c` on its own generator and may wrap it (the
/// scenario's arena tracking and engine attribution), so the result never
/// depends on `threads`.
pub(crate) fn run_chains<A>(
    graph: &Graph,
    model: &(dyn LabelModel + Sync),
    chains: usize,
    steps: usize,
    threads: usize,
    init: impl Fn() -> Scratch + Sync,
    around: A,
) -> CorrelatedTreach
where
    A: Fn(&mut Scratch, u64, &dyn Fn(&mut Scratch, &mut DefaultRng) -> Chain) -> Chain + Sync,
{
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    if m == 0 {
        // Both reaches are the diagonal: T_reach holds vacuously.
        return CorrelatedTreach {
            estimate: 1.0,
            chains,
            steps_per_chain: steps,
            ..CorrelatedTreach::default()
        };
    }
    let target = StaticReach::new(graph).total(graph);
    let lifetime = model.lifetime();
    let chain = |s: &mut Scratch, rng: &mut DefaultRng| {
        s.redraw(model, rng);
        let (stats, engine) = s.sweeper.record_delta(&s.tn);
        let mut out = Chain {
            hits: usize::from(stats.reached_bits == target),
            applied: 0,
            replayed: 0,
            reach_sum: (stats.reached_bits - n) as u64,
            engine,
        };
        for _ in 0..steps {
            // One Gibbs proposal, the words `urtn::propose_label_move`
            // reads: a uniform edge, a uniform label of it, a fresh
            // uniform replacement. An edge whose model draw left it
            // unlabelled rejects the proposal (nothing to move) and the
            // unchanged state is sampled again — exactly like a colliding
            // draw.
            let e = rng.index(m) as EdgeId;
            let labels = s.tn.labels(e);
            if !labels.is_empty() {
                let from = labels[rng.index(labels.len())];
                let to = rng.range_u32(1, lifetime);
                if let Some(a) = s.sweeper.delta.apply_label_move(&mut s.tn, e, from, to) {
                    out.applied += 1;
                    out.replayed += a.replayed_buckets;
                }
            }
            let reached = s.sweeper.delta.stats().reached_bits;
            out.hits += usize::from(reached == target);
            out.reach_sum += (reached - n) as u64;
        }
        out
    };
    let ids: Vec<u64> = (0..chains as u64).collect();
    let per_chain = par_map_with(&ids, threads, init, |s, _, &c| around(s, c, &chain));

    let samples_per_chain = steps + 1;
    // Between-chain standard error: honest under within-chain
    // autocorrelation, since only independent chains enter the spread.
    let mean_and_se = |tally: fn(&Chain) -> f64| {
        let means: Vec<f64> = per_chain
            .iter()
            .map(|c| tally(c) / samples_per_chain as f64)
            .collect();
        let mean = means.iter().sum::<f64>() / chains as f64;
        let half = if chains >= 2 {
            let var = means.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (chains - 1) as f64;
            1.96 * (var / chains as f64).sqrt()
        } else {
            f64::INFINITY
        };
        (mean, half)
    };
    let (estimate, half_width) = mean_and_se(|c| c.hits as f64);
    let (mean_reachable_pairs, reach_half_width) = mean_and_se(|c| c.reach_sum as f64);
    CorrelatedTreach {
        estimate,
        half_width,
        chains,
        steps_per_chain: steps,
        samples: chains * samples_per_chain,
        applied_moves: per_chain.iter().map(|c| c.applied).sum(),
        replayed_buckets: per_chain.iter().map(|c| c.replayed).sum(),
        mean_reachable_pairs,
        reach_half_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urtn::{placeholder_network, propose_label_move, resample_single_in_place};
    use ephemeral_graph::generators;
    use ephemeral_temporal::reachability::treach_holds;
    use ephemeral_temporal::LabelAssignment;

    #[test]
    fn clique_chains_always_hold() {
        // The undirected clique satisfies T_reach under any single
        // labelling (the direct edge is a one-hop journey), so every
        // sample in every chain hits.
        let g = generators::clique(12, false);
        let out = treach_probability_correlated(&g, 12, 3, 40, 7, 2);
        assert_eq!(out.estimate, 1.0);
        assert_eq!(out.samples, 3 * 41);
        assert!(out.applied_moves > 0);
        assert_eq!(out.half_width, 0.0);
        assert_eq!(out.mean_reachable_pairs, (12 * 11) as f64);
        assert_eq!(out.reach_half_width, 0.0);
    }

    #[test]
    fn star_chains_essentially_never_hold() {
        let g = generators::star(16);
        let out = treach_probability_correlated(&g, 16, 3, 40, 7, 2);
        assert!(out.estimate < 0.3, "estimate {}", out.estimate);
    }

    #[test]
    fn edgeless_graphs_hold_vacuously() {
        let g = ephemeral_graph::GraphBuilder::new_undirected(3)
            .build()
            .unwrap();
        let out = treach_probability_correlated(&g, 4, 2, 10, 1, 1);
        assert_eq!((out.estimate, out.half_width, out.samples), (1.0, 0.0, 0));
    }

    #[test]
    fn differential_samples_match_cold_reevaluation() {
        // Replay chain 0's exact rng stream with a cold full T_reach
        // check per step; the differential estimator's hit count must
        // agree sample for sample.
        let g = generators::cycle(24);
        let lifetime = 36;
        let (seed, steps) = (11, 60);
        let out = treach_probability_correlated(&g, lifetime, 1, steps, seed, 1);
        let mut rng = SeedSequence::new(seed).child(CHAIN_STREAM).rng(0);
        let mut tn = placeholder_network(&g, lifetime);
        let mut spare = LabelAssignment::default();
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let mut hits = usize::from(treach_holds(&tn, 1));
        let mut applied = 0usize;
        for _ in 0..steps {
            let (e, from, to) = propose_label_move(&tn, &mut rng);
            applied += usize::from(tn.move_label(e, from, to).is_some());
            hits += usize::from(treach_holds(&tn, 1));
        }
        assert_eq!(out.applied_moves, applied);
        assert_eq!(out.estimate, hits as f64 / (steps + 1) as f64);
    }

    #[test]
    fn estimation_is_deterministic_and_thread_invariant() {
        let mut rng = ephemeral_rng::default_rng(3);
        let g = generators::gnp(48, 0.12, false, &mut rng);
        let base = treach_probability_correlated(&g, 48, 4, 30, 5, 1);
        for threads in [2, 8] {
            let again = treach_probability_correlated(&g, 48, 4, 30, 5, threads);
            assert_eq!(again, base, "threads {threads}");
        }
        assert_ne!(treach_probability_correlated(&g, 48, 4, 30, 6, 2), base);
        assert!(base.half_width.is_finite());
    }
}
