//! Monte Carlo estimation of the Temporal Diameter (Definition 5,
//! Theorems 3–4).
//!
//! `TD(G) = E[max_{s,t} δ(s,t)]` over the random labelling. Per trial we
//! draw a fresh UNI-CASE assignment into per-worker scratch buffers over a
//! shared graph CSR, rebuild the time-edge index in place, and compute the
//! instance diameter exactly through whichever journey engine the
//! density-aware `EngineChoice` selects — the single-pass wide-frontier
//! sweep below the crossover and on dense instances above it, the
//! event-driven sparse sweep on sparse ones — then summarise across
//! trials. Theorem 4 predicts `TD ≤ γ·log n` w.h.p. for
//! the directed normalized U-RT clique; experiment E02 fits `γ`.

use crate::models::UniformSingle;
use crate::scenario::Scratch;
use ephemeral_graph::Graph;
use ephemeral_parallel::adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveRun, FilteredMeanAccumulator,
};
use ephemeral_parallel::stats::OnlineStats;
use ephemeral_temporal::distance::{
    instance_temporal_diameter, instance_temporal_diameter_scratch,
};
use ephemeral_temporal::Time;

/// Monte Carlo estimate of `TD` over a fixed graph, from
/// [`td_montecarlo_adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveDiameterEstimate {
    /// Moments of the finite instance diameters.
    pub finite: OnlineStats,
    /// 95% CI half-width of the finite mean.
    pub half_width: f64,
    /// Did the run hit the target precision before the cap?
    pub converged: bool,
    /// Trials whose instance diameter was infinite (some pair unreachable).
    pub infinite_instances: usize,
    /// Total trials executed.
    pub trials: usize,
    /// `mean / ln n` — the empirical `γ` against the natural log.
    pub gamma_ln: f64,
    /// `mean / log₂ n` — the empirical `γ` against the binary log.
    pub gamma_log2: f64,
}

/// Estimate `TD` of the UNI-CASE model over a fixed graph: batches run
/// until the CI half-width of the mean finite instance diameter reaches
/// the config's target, or its trial cap (a fixed count is
/// [`AdaptiveConfig::fixed`]). Deterministic in `(graph, lifetime, cfg,
/// seed)` regardless of `threads`. Each worker owns one [`Scratch`]; each
/// trial redraws the labels into it and runs the dispatched engine —
/// trials × threads, not sources × threads. On large graphs (≥ 2²⁰
/// edges, ~100 MB per clique instance) trials run in sequence with the
/// engine's column-block parallelism inside each, with the same numbers.
///
/// # Panics
/// If the graph is empty, `lifetime == 0` or the config's trial cap is 0.
#[must_use]
pub fn td_montecarlo_adaptive(
    graph: &Graph,
    lifetime: Time,
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
) -> AdaptiveDiameterEstimate {
    let n = graph.num_nodes();
    assert!(n > 0, "graph must be non-empty");
    let model = UniformSingle { lifetime };
    let big = graph.num_edges() >= 1 << 20;
    let (outer_threads, inner_threads) = if big { (1, threads) } else { (threads, 1) };
    let run: AdaptiveRun<FilteredMeanAccumulator> = run_adaptive(
        cfg,
        seed,
        outer_threads,
        || Scratch::new(graph, lifetime),
        |s, _, rng| {
            s.redraw(&model, rng);
            let d = if inner_threads <= 1 {
                instance_temporal_diameter_scratch(&s.tn, &mut s.sweeper)
            } else {
                instance_temporal_diameter(&s.tn, inner_threads)
            };
            match d.value() {
                Some(v) => (f64::from(v), true),
                None => (0.0, false),
            }
        },
    );
    let finite = run.accumulator.accepted;
    let ln_n = (n.max(2) as f64).ln();
    let log2_n = (n.max(2) as f64).log2();
    AdaptiveDiameterEstimate {
        gamma_ln: finite.mean() / ln_n,
        gamma_log2: finite.mean() / log2_n,
        finite,
        half_width: run.half_width,
        converged: run.converged,
        infinite_instances: run.accumulator.rejected,
        trials: run.trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_graph::generators;
    use ephemeral_parallel::available_threads;

    /// `trials` fixed-count trials.
    fn td(
        graph: &Graph,
        lifetime: Time,
        trials: usize,
        seed: u64,
        threads: usize,
    ) -> AdaptiveDiameterEstimate {
        td_montecarlo_adaptive(
            graph,
            lifetime,
            &AdaptiveConfig::fixed(trials),
            seed,
            threads,
        )
    }

    #[test]
    fn urt_clique_diameter_is_logarithmic() {
        let clique = generators::clique(128, true);
        let est = td(&clique, 128, 20, 1, available_threads());
        assert_eq!(est.trials, 20);
        assert_eq!(est.infinite_instances, 0, "clique instances are connected");
        // Θ(log n): between log2(n)/2 and 8·ln n at this size.
        let ln_n = 128f64.ln();
        let mean = est.finite.mean();
        assert!(mean > 0.5 * 128f64.log2(), "mean {mean}");
        assert!(mean < 8.0 * ln_n, "mean {mean}");
        assert!(est.gamma_ln > 0.0 && est.gamma_log2 > 0.0);
    }

    #[test]
    fn undirected_clique_behaves_like_directed() {
        // Remark 1: the undirected case is not significantly different.
        let (directed, undirected) = (generators::clique(64, true), generators::clique(64, false));
        let dir = td(&directed, 64, 15, 2, available_threads());
        let und = td(&undirected, 64, 15, 2, available_threads());
        assert_eq!(und.infinite_instances, 0);
        // Undirected labels serve both directions: diameter within 2x.
        assert!(und.finite.mean() <= dir.finite.mean() * 1.5 + 2.0);
    }

    #[test]
    fn estimates_are_deterministic() {
        let clique = generators::clique(32, true);
        let a = td(&clique, 32, 10, 3, available_threads());
        let b = td(&clique, 32, 10, 3, available_threads());
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_graphs_report_infinite_instances() {
        // A path with a single uniform label per edge is almost never
        // temporally connected.
        let graph = generators::path(16);
        let est = td(&graph, 16, 10, 4, 2);
        assert!(est.infinite_instances > 5, "{}", est.infinite_instances);
    }

    #[test]
    fn diameter_grows_with_lifetime() {
        // Theorem 5 mechanics: larger lifetime stretches the diameter.
        let clique = generators::clique(64, true);
        let short = td(&clique, 64, 10, 5, available_threads());
        let long = td(&clique, 64 * 8, 10, 5, available_threads());
        assert!(
            long.finite.mean() > short.finite.mean() * 2.0,
            "short {} long {}",
            short.finite.mean(),
            long.finite.mean()
        );
    }

    #[test]
    #[should_panic(expected = "trial cap must be positive")]
    fn zero_trials_panics() {
        let graph = generators::path(4);
        let _ = td(&graph, 4, 0, 0, 1);
    }

    #[test]
    fn adaptive_draws_the_same_trial_streams_as_fixed() {
        // With the stopping rule disabled (cap == min == fixed count), the
        // batch boundaries must not matter: batches of 8 reproduce the
        // one-batch fixed count's samples exactly.
        let graph = generators::clique(48, true);
        let fixed = td(&graph, 48, 24, 5, 2);
        let cfg = AdaptiveConfig::new(0.0)
            .with_min_trials(24)
            .with_max_trials(24)
            .with_batch(8);
        let adaptive = td_montecarlo_adaptive(&graph, 48, &cfg, 5, 2);
        assert_eq!(adaptive.trials, 24);
        assert_eq!(adaptive.infinite_instances, fixed.infinite_instances);
        assert_eq!(
            adaptive.finite.mean().to_bits(),
            fixed.finite.mean().to_bits()
        );
        assert_eq!(adaptive.finite.min(), fixed.finite.min());
        assert_eq!(adaptive.finite.max(), fixed.finite.max());
    }

    #[test]
    fn adaptive_estimate_is_thread_invariant_and_converges() {
        let graph = generators::clique(32, true);
        let cfg = AdaptiveConfig::new(0.5)
            .with_min_trials(8)
            .with_batch(8)
            .with_max_trials(400);
        let base = td_montecarlo_adaptive(&graph, 32, &cfg, 9, 1);
        for threads in [2, 8] {
            let other = td_montecarlo_adaptive(&graph, 32, &cfg, 9, threads);
            assert_eq!(base, other, "threads={threads}");
        }
        assert!(base.converged);
        assert!(base.half_width <= 0.5);
        assert!(base.trials >= 8 && base.trials <= 400);
        assert_eq!(base.infinite_instances, 0);
    }

    #[test]
    fn adaptive_clique_wrappers_track_the_log_law() {
        let cfg = AdaptiveConfig::new(1.0)
            .with_min_trials(8)
            .with_batch(8)
            .with_max_trials(64);
        let clique = generators::clique(64, true);
        let est = td_montecarlo_adaptive(&clique, 64, &cfg, 11, available_threads());
        assert!(est.finite.mean() > 0.5 * 64f64.log2());
        assert!(est.finite.mean() < 8.0 * 64f64.ln());
        let long = td_montecarlo_adaptive(&clique, 64 * 8, &cfg, 11, available_threads());
        assert!(long.finite.mean() > est.finite.mean() * 2.0);
    }
}
