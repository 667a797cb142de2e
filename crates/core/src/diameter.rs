//! Monte Carlo estimation of the Temporal Diameter (Definition 5,
//! Theorems 3–4).
//!
//! `TD(G) = E[max_{s,t} δ(s,t)]` over the random labelling. Per trial we
//! draw a fresh UNI-CASE assignment into per-worker scratch buffers over a
//! shared graph CSR, rebuild the time-edge index in place, and compute the
//! instance diameter exactly through whichever journey engine the
//! density-aware `EngineChoice` selects — the single-pass wide-frontier
//! sweep on dense instances above the batch crossover, the event-driven
//! sparse sweep on sparse ones, the 64-lane batched engine below — then
//! summarise across trials. Theorem 4 predicts `TD ≤ γ·log n` w.h.p. for
//! the directed normalized U-RT clique; experiment E02 fits `γ`.

use ephemeral_graph::{generators, Graph};
use ephemeral_parallel::adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveRun, FilteredMeanAccumulator,
};
use ephemeral_parallel::stats::{OnlineStats, Summary};
use ephemeral_parallel::{available_threads, par_for_with};
use ephemeral_rng::SeedSequence;
use ephemeral_temporal::distance::{
    instance_temporal_diameter, instance_temporal_diameter_scratch,
};
use ephemeral_temporal::wide::SweepScratch;
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time};

/// Monte Carlo estimate of the temporal diameter of a random temporal
/// network family.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalDiameterEstimate {
    /// Summary of the finite instance diameters.
    pub finite: Summary,
    /// Trials whose instance diameter was infinite (some pair unreachable).
    pub infinite_instances: usize,
    /// Total trials.
    pub trials: usize,
    /// `mean / ln n` — the empirical `γ` against the natural log.
    pub gamma_ln: f64,
    /// `mean / log₂ n` — the empirical `γ` against the binary log.
    pub gamma_log2: f64,
}

/// Per-worker trial scratch: one owned copy of the network whose labels are
/// redrawn in place each trial, the spare assignment the draw writes into,
/// and both journey-engine sweepers — so a full Monte Carlo run performs no
/// per-trial allocation once the buffers are warm (locked in by the
/// allocation regression test in `tests/alloc_regression.rs`).
struct TrialScratch {
    tn: TemporalNetwork,
    spare: LabelAssignment,
    sweeper: SweepScratch,
}

impl TrialScratch {
    fn new(graph: &Graph, lifetime: Time) -> Self {
        Self {
            tn: crate::urtn::placeholder_network(graph, lifetime),
            spare: LabelAssignment::default(),
            sweeper: SweepScratch::new(),
        }
    }

    /// Draw trial `trial`'s labels into the spare buffers, swap them into
    /// the network, and return the instance diameter. The engine is
    /// picked per instance by the density-aware dispatch (batched below
    /// the crossover, wide/sparse by occupied-bucket fill above it);
    /// `inner_threads > 1` additionally shards the instance across
    /// workers, 1 reuses this scratch's sweepers. All paths report
    /// identical numbers.
    fn run_trial(
        &mut self,
        seq: &SeedSequence,
        trial: usize,
        inner_threads: usize,
    ) -> (Time, bool) {
        let mut rng = seq.rng(trial as u64);
        crate::urtn::resample_single_in_place(&mut self.tn, &mut self.spare, &mut rng);
        let d = if inner_threads <= 1 {
            instance_temporal_diameter_scratch(&self.tn, &mut self.sweeper)
        } else {
            instance_temporal_diameter(&self.tn, inner_threads)
        };
        match d.value() {
            Some(v) => (v, true),
            None => (d.max_finite, false),
        }
    }
}

/// Estimate `TD` of the UNI-CASE model over a fixed graph. Each worker owns
/// one copy of the graph CSR for the whole run; each trial redraws labels
/// into per-worker scratch and runs the batch engine — batches × threads,
/// not sources × threads.
///
/// # Panics
/// If `trials == 0`, the graph is empty, or `lifetime == 0`.
#[must_use]
pub fn td_montecarlo(
    graph: &Graph,
    lifetime: Time,
    trials: usize,
    seed: u64,
    threads: usize,
) -> TemporalDiameterEstimate {
    assert!(trials > 0, "need at least one trial");
    let n = graph.num_nodes();
    assert!(n > 0, "graph must be non-empty");
    let seq = SeedSequence::new(seed);

    // Memory strategy: for large graphs a clique instance is ~100 MB, so
    // trials run sequentially with batch-level parallelism inside; for
    // small graphs one trial's few batches cannot feed many threads, so we
    // fan out across trials instead (one scratch per worker).
    let big = graph.num_edges() >= 1 << 20;
    let results: Vec<(Time, bool)> = if big {
        let mut scratch = TrialScratch::new(graph, lifetime);
        (0..trials)
            .map(|i| scratch.run_trial(&seq, i, threads))
            .collect()
    } else {
        par_for_with(
            trials,
            threads,
            || TrialScratch::new(graph, lifetime),
            |scratch, i| scratch.run_trial(&seq, i, 1),
        )
    };

    summarise(results, n)
}

fn summarise(results: Vec<(Time, bool)>, n: usize) -> TemporalDiameterEstimate {
    let trials = results.len();
    let finite_samples: Vec<f64> = results
        .iter()
        .filter(|&&(_, finite)| finite)
        .map(|&(v, _)| f64::from(v))
        .collect();
    let infinite_instances = trials - finite_samples.len();
    let finite = Summary::from_samples(&finite_samples);
    let ln_n = (n.max(2) as f64).ln();
    let log2_n = (n.max(2) as f64).log2();
    TemporalDiameterEstimate {
        gamma_ln: finite.mean / ln_n,
        gamma_log2: finite.mean / log2_n,
        finite,
        infinite_instances,
        trials,
    }
}

/// [`td_montecarlo`] with **adaptive** trial allocation: batches run until
/// the CI half-width of the mean finite instance diameter reaches the
/// config's target, or its trial cap. Trials are spent only where variance
/// demands them — a low-variance size stops early, a noisy one keeps
/// sampling. Deterministic in `(graph, lifetime, cfg, seed)` regardless of
/// `threads`.
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

/// Adaptive-stopping estimate of `TD` over a fixed graph (see
/// [`AdaptiveDiameterEstimate`]). Uses the same per-worker scratch loop as
/// [`td_montecarlo`]; large graphs (≥ 2²⁰ edges) run trials sequentially
/// with batch-level engine parallelism instead, without changing any
/// reported number.
///
/// # Panics
/// If the graph is empty or `lifetime == 0`.
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
    let seq = SeedSequence::new(seed);
    let big = graph.num_edges() >= 1 << 20;
    let (outer_threads, inner_threads) = if big { (1, threads) } else { (threads, 1) };
    let run: AdaptiveRun<FilteredMeanAccumulator> = run_adaptive(
        cfg,
        seed,
        outer_threads,
        || TrialScratch::new(graph, lifetime),
        |scratch, trial, _| {
            // TrialScratch derives the trial generator itself from `seq`
            // (identical construction — the rng handed in is untouched).
            let (v, finite) = scratch.run_trial(&seq, trial, inner_threads);
            (f64::from(v), finite)
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

/// Adaptive-stopping estimate of `TD` of the normalized U-RT clique.
#[must_use]
pub fn clique_td_adaptive(
    n: usize,
    directed: bool,
    cfg: &AdaptiveConfig,
    seed: u64,
) -> AdaptiveDiameterEstimate {
    let graph = generators::clique(n, directed);
    td_montecarlo_adaptive(&graph, n as Time, cfg, seed, available_threads())
}

/// Adaptive-stopping estimate of `TD` of a U-RT clique with an arbitrary
/// lifetime (Theorem 5's regime).
#[must_use]
pub fn clique_td_with_lifetime_adaptive(
    n: usize,
    directed: bool,
    lifetime: Time,
    cfg: &AdaptiveConfig,
    seed: u64,
) -> AdaptiveDiameterEstimate {
    let graph = generators::clique(n, directed);
    td_montecarlo_adaptive(&graph, lifetime, cfg, seed, available_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urt_clique_diameter_is_logarithmic() {
        let clique = generators::clique(128, true);
        let est = td_montecarlo(&clique, 128, 20, 1, available_threads());
        assert_eq!(est.trials, 20);
        assert_eq!(est.infinite_instances, 0, "clique instances are connected");
        // Θ(log n): between log2(n)/2 and 8·ln n at this size.
        let ln_n = 128f64.ln();
        assert!(
            est.finite.mean > 0.5 * 128f64.log2(),
            "mean {}",
            est.finite.mean
        );
        assert!(est.finite.mean < 8.0 * ln_n, "mean {}", est.finite.mean);
        assert!(est.gamma_ln > 0.0 && est.gamma_log2 > 0.0);
    }

    #[test]
    fn undirected_clique_behaves_like_directed() {
        // Remark 1: the undirected case is not significantly different.
        let (directed, undirected) = (generators::clique(64, true), generators::clique(64, false));
        let dir = td_montecarlo(&directed, 64, 15, 2, available_threads());
        let und = td_montecarlo(&undirected, 64, 15, 2, available_threads());
        assert_eq!(und.infinite_instances, 0);
        // Undirected labels serve both directions: diameter within 2x.
        assert!(und.finite.mean <= dir.finite.mean * 1.5 + 2.0);
    }

    #[test]
    fn estimates_are_deterministic() {
        let clique = generators::clique(32, true);
        let a = td_montecarlo(&clique, 32, 10, 3, available_threads());
        let b = td_montecarlo(&clique, 32, 10, 3, available_threads());
        assert_eq!(a, b);
    }

    #[test]
    fn sparse_graphs_report_infinite_instances() {
        // A path with a single uniform label per edge is almost never
        // temporally connected.
        let graph = generators::path(16);
        let est = td_montecarlo(&graph, 16, 10, 4, 2);
        assert!(est.infinite_instances > 5, "{}", est.infinite_instances);
    }

    #[test]
    fn diameter_grows_with_lifetime() {
        // Theorem 5 mechanics: larger lifetime stretches the diameter.
        let clique = generators::clique(64, true);
        let short = td_montecarlo(&clique, 64, 10, 5, available_threads());
        let long = td_montecarlo(&clique, 64 * 8, 10, 5, available_threads());
        assert!(
            long.finite.mean > short.finite.mean * 2.0,
            "short {} long {}",
            short.finite.mean,
            long.finite.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let graph = generators::path(4);
        let _ = td_montecarlo(&graph, 4, 0, 0, 1);
    }

    #[test]
    fn adaptive_draws_the_same_trial_streams_as_fixed() {
        // With the stopping rule disabled (cap == min == fixed count), the
        // adaptive estimator must reproduce td_montecarlo's samples exactly.
        let graph = generators::clique(48, true);
        let fixed = td_montecarlo(&graph, 48, 24, 5, 2);
        let cfg = AdaptiveConfig::new(0.0)
            .with_min_trials(24)
            .with_max_trials(24)
            .with_batch(8);
        let adaptive = td_montecarlo_adaptive(&graph, 48, &cfg, 5, 2);
        assert_eq!(adaptive.trials, 24);
        assert_eq!(adaptive.infinite_instances, fixed.infinite_instances);
        assert_eq!(
            adaptive.finite.mean().to_bits(),
            fixed.finite.mean.to_bits()
        );
        assert_eq!(adaptive.finite.min(), fixed.finite.min);
        assert_eq!(adaptive.finite.max(), fixed.finite.max);
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
        let est = clique_td_adaptive(64, true, &cfg, 11);
        assert!(est.finite.mean() > 0.5 * 64f64.log2());
        assert!(est.finite.mean() < 8.0 * 64f64.ln());
        let long = clique_td_with_lifetime_adaptive(64, true, 64 * 8, &cfg, 11);
        assert!(long.finite.mean() > est.finite.mean() * 2.0);
    }
}
