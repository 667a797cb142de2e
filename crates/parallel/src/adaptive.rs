//! The Monte Carlo trial runner: run trials in fixed-size batches and stop
//! as soon as the confidence interval is tight enough — or a trial cap is
//! hit — instead of hard-coding a trial count per experiment cell. A fixed
//! count is the config whose stopping rule never fires
//! ([`AdaptiveConfig::fixed`]), so fixed-count and adaptive estimates
//! share one runner, [`run_adaptive`].
//!
//! Determinism contract: trial `i` always draws from the generator
//! `SeedSequence::new(seed).rng(i)`, samples are folded into the
//! accumulator **in trial order** on the coordinating thread, and the
//! stopping rule is evaluated only at fixed batch boundaries taken from
//! [`AdaptiveConfig`]. The result is therefore bit-identical no matter how
//! many worker threads execute the batches — the property every table and
//! the sweep engine's resumable output rely on.

use crate::faults::{self, site, WorkerPanic};
use crate::montecarlo::Proportion;
use crate::pool::par_for_with;
use crate::stats::{wilson_half_width, OnlineStats};
use ephemeral_rng::{DefaultRng, SeedSequence};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Confidence level of every adaptive interval: the stopping rule and the
/// reported half-widths are 95% intervals.
const CONFIDENCE: f64 = 0.95;

/// Stopping knobs of an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Stop once the 95% CI half-width is at or below this value.
    pub target_half_width: f64,
    /// Never stop (except at the cap) before this many trials.
    pub min_trials: usize,
    /// Hard trial cap; the run reports `converged = false` when it stops
    /// here with the interval still wider than the target.
    pub max_trials: usize,
    /// Trials per batch. The stopping rule is only consulted at batch
    /// boundaries, which is what makes the trial count — and hence the
    /// result — independent of thread scheduling.
    pub batch: usize,
}

impl AdaptiveConfig {
    /// A config targeting `target_half_width` at 95% confidence, with
    /// moderate defaults (min 16, cap 4096, batches of 32).
    #[must_use]
    pub const fn new(target_half_width: f64) -> Self {
        Self {
            target_half_width,
            min_trials: 16,
            max_trials: 4096,
            batch: 32,
        }
    }

    /// Exactly `trials` trials in one batch (one parallel region): the
    /// stopping rule never fires before the cap, and with no precision
    /// target (`+∞`) every run reports `converged`.
    #[must_use]
    pub const fn fixed(trials: usize) -> Self {
        Self {
            target_half_width: f64::INFINITY,
            min_trials: trials,
            max_trials: trials,
            batch: trials,
        }
    }

    /// Override the minimum trial count.
    #[must_use]
    pub const fn with_min_trials(mut self, min_trials: usize) -> Self {
        self.min_trials = min_trials;
        self
    }

    /// Override the trial cap.
    #[must_use]
    pub const fn with_max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = max_trials;
        self
    }

    /// Override the batch size.
    #[must_use]
    pub const fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

/// How an adaptive run folds per-trial samples into a stoppable estimate.
///
/// Implementations must be order-insensitive in distribution but are always
/// fed samples **in trial order**, so floating-point results are exactly
/// reproducible.
pub trait AdaptiveAccumulator: Default {
    /// The per-trial sample type.
    type Sample: Send;

    /// Absorb one sample.
    fn push(&mut self, sample: Self::Sample);

    /// Number of samples absorbed so far.
    fn trials(&self) -> usize;

    /// Current 95% CI half-width
    /// (`f64::INFINITY` while the estimate is undefined).
    fn half_width(&self) -> f64;
}

/// Accumulates real-valued samples; half-width is the normal interval
/// `z·sem` over all samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanAccumulator {
    /// The running moments.
    pub stats: OnlineStats,
}

impl AdaptiveAccumulator for MeanAccumulator {
    type Sample = f64;

    fn push(&mut self, sample: f64) {
        self.stats.push(sample);
    }

    fn trials(&self) -> usize {
        self.stats.count() as usize
    }

    fn half_width(&self) -> f64 {
        self.stats.half_width(CONFIDENCE)
    }
}

/// Accumulates boolean samples; half-width is the Wilson score interval's,
/// which stays honest at `p̂ = 0` or `1` (the regime success-probability
/// experiments hit routinely).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProportionAccumulator {
    /// Number of `true` samples.
    pub successes: usize,
    /// Total samples.
    pub count: usize,
}

impl AdaptiveAccumulator for ProportionAccumulator {
    type Sample = bool;

    fn push(&mut self, sample: bool) {
        self.successes += usize::from(sample);
        self.count += 1;
    }

    fn trials(&self) -> usize {
        self.count
    }

    fn half_width(&self) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            wilson_half_width(self.successes, self.count, CONFIDENCE)
        }
    }
}

/// Accumulates `(value, accept)` samples: accepted values feed the mean,
/// rejected trials are only counted. The temporal-diameter metric uses this
/// — an instance with an unreachable pair has no finite diameter, but the
/// trial still happened and the rejection rate is itself reported.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilteredMeanAccumulator {
    /// Moments of the accepted samples.
    pub accepted: OnlineStats,
    /// Number of rejected trials.
    pub rejected: usize,
}

impl FilteredMeanAccumulator {
    /// Fraction of trials rejected (0 when no trials ran).
    #[must_use]
    pub fn rejected_fraction(&self) -> f64 {
        let total = self.trials();
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }
}

impl AdaptiveAccumulator for FilteredMeanAccumulator {
    type Sample = (f64, bool);

    fn push(&mut self, (value, accept): (f64, bool)) {
        if accept {
            self.accepted.push(value);
        } else {
            self.rejected += 1;
        }
    }

    fn trials(&self) -> usize {
        self.accepted.count() as usize + self.rejected
    }

    fn half_width(&self) -> f64 {
        self.accepted.half_width(CONFIDENCE)
    }
}

/// Outcome of [`run_adaptive`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRun<A> {
    /// The folded samples.
    pub accumulator: A,
    /// Trials executed (a multiple of the batch size, clipped at the cap).
    pub trials: usize,
    /// Final CI half-width.
    pub half_width: f64,
    /// Did the half-width reach the target before (or at) the cap?
    pub converged: bool,
}

/// A caller-owned pool of warm scratch states for the `_pooled` adaptive
/// runners ([`try_run_adaptive_pooled`],
/// [`adaptive_proportion_pooled_with`]). Within one run, states already
/// pool across batch boundaries; sharing a `StatePool` additionally
/// carries them across *runs* — the per-candidate-`r` probes of a
/// minimal-`r` search, a sweep grid's cells over one family — so a
/// sequence of runs on `threads` workers builds at most `threads` states
/// total instead of `threads` per run. The pool never validates what it holds: only share
/// one across runs whose `init`/`sim` pairs accept each other's states.
#[derive(Debug)]
pub struct StatePool<S> {
    states: Mutex<Vec<S>>,
}

impl<S> StatePool<S> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self {
            states: Mutex::new(Vec::new()),
        }
    }

    /// Number of idle states currently parked in the pool.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.states.lock().len()
    }
}

impl<S> Default for StatePool<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Hands a pooled scratch state back when its worker finishes a batch, so
/// the next batch's workers reuse it instead of paying `init()` again —
/// a trial scratch can be a ~100 MB network copy. A state whose trial
/// panicked is set to `None` *before* the unwind propagates, so a
/// half-updated scratch is dropped, never re-pooled (no poisoned state).
struct PooledState<'a, S> {
    state: Option<S>,
    pool: &'a Mutex<Vec<S>>,
}

impl<S> Drop for PooledState<'_, S> {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            self.pool.lock().push(s);
        }
    }
}

/// Run batches of trials until `accumulator.half_width()` (95%) drops
/// to the target or `max_trials` is reached. `init()` builds per-worker
/// scratch state, reused across that worker's trials, so it must only
/// hold reusable allocations (label buffers, sweep frontiers), never data
/// carried between trials; `sim` receives the scratch, the global trial
/// index and the trial's own generator. States are pooled across batch
/// boundaries: at most `threads` are ever built per run, however many
/// batches the stopping rule takes.
///
/// Deterministic: the executed trial count and every reported number depend
/// only on `(cfg, seed)`, never on `threads`.
///
/// # Panics
/// If `batch == 0` or `max_trials == 0`, or — re-thrown with its structured
/// [`WorkerPanic`] payload — when a trial panics; use
/// [`try_run_adaptive`] to receive that as an `Err` instead.
pub fn run_adaptive<A, S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    init: I,
    sim: F,
) -> AdaptiveRun<A>
where
    A: AdaptiveAccumulator,
    A::Sample: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> A::Sample + Sync,
{
    match try_run_adaptive(cfg, seed, threads, init, sim) {
        Ok(run) => run,
        Err(wp) => std::panic::panic_any(wp),
    }
}

/// Panic-isolated [`run_adaptive`]: a panicking trial is caught, its scratch
/// state is discarded instead of returning to the state pool, the remaining
/// trials of the batch still execute (so [`faults`] attempt counters advance
/// uniformly and a retried run converges), and the structured
/// [`WorkerPanic`] for the **lowest** failing trial index is returned —
/// deterministic across thread counts, like every other number here.
///
/// # Panics
/// If `batch == 0` or `max_trials == 0`.
pub fn try_run_adaptive<A, S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    init: I,
    sim: F,
) -> Result<AdaptiveRun<A>, WorkerPanic>
where
    A: AdaptiveAccumulator,
    A::Sample: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> A::Sample + Sync,
{
    try_run_adaptive_pooled(cfg, seed, threads, &StatePool::new(), init, sim)
}

/// [`try_run_adaptive`] drawing scratch states from (and returning them
/// to) a **caller-owned** pool, so a sequence of runs — the
/// per-candidate-`r` probes of a minimal-`r` search, a sweep grid's cells
/// over one family — reuses the same warm states instead of paying
/// `init()` again per run.
/// The pool is consulted before `init`: pass an empty pool for the old
/// behaviour. States poisoned by a panicking trial are dropped, never
/// re-pooled, exactly as in [`try_run_adaptive`].
///
/// Results are bit-identical to [`try_run_adaptive`] whenever the pooled
/// states are interchangeable with freshly `init()`-ed ones after `sim`'s
/// own per-trial reset (the contract `init`/`sim` pairs already obey for
/// cross-batch pooling within a single run).
///
/// # Panics
/// If `batch == 0` or `max_trials == 0`.
pub fn try_run_adaptive_pooled<A, S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    pool: &StatePool<S>,
    init: I,
    sim: F,
) -> Result<AdaptiveRun<A>, WorkerPanic>
where
    A: AdaptiveAccumulator,
    A::Sample: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> A::Sample + Sync,
{
    assert!(cfg.max_trials >= 1, "trial cap must be positive");
    assert!(cfg.batch >= 1, "batch size must be positive");
    let pool = &pool.states;
    let seq = SeedSequence::new(seed);
    let mut accumulator = A::default();
    let mut done = 0usize;
    let half_width = loop {
        let batch = cfg.batch.min(cfg.max_trials - done);
        let samples: Vec<Result<A::Sample, WorkerPanic>> = par_for_with(
            batch,
            threads,
            || PooledState {
                state: None, // lazily filled from the pool on first trial
                pool,
            },
            |pooled, i| {
                let trial = done + i;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let state = pooled
                        .state
                        .get_or_insert_with(|| pool.lock().pop().unwrap_or_else(&init));
                    faults::hit(site::ADAPTIVE_TRIAL, trial as u64);
                    sim(state, trial, &mut seq.rng(trial as u64))
                }));
                match outcome {
                    Ok(s) => Ok(s),
                    Err(payload) => {
                        pooled.state = None; // poisoned scratch: never re-pool
                        Err(WorkerPanic::from_payload(trial, payload.as_ref()))
                    }
                }
            },
        );
        // Fold in trial order; the lowest failing trial index wins.
        for s in samples {
            accumulator.push(s?);
        }
        done += batch;
        let hw = accumulator.half_width();
        if (done >= cfg.min_trials && hw <= cfg.target_half_width) || done >= cfg.max_trials {
            break hw;
        }
    };
    Ok(AdaptiveRun {
        converged: half_width <= cfg.target_half_width,
        trials: done,
        half_width,
        accumulator,
    })
}

/// An adaptively estimated mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveMean {
    /// Moments of the samples.
    pub stats: OnlineStats,
    /// Final 95% CI half-width (`mean ± half_width`).
    pub half_width: f64,
    /// Trials executed.
    pub trials: usize,
    /// Did the run hit the target precision?
    pub converged: bool,
}

/// Adaptive mean with per-worker scratch state.
pub fn adaptive_mean_with<S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    init: I,
    sim: F,
) -> AdaptiveMean
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> f64 + Sync,
{
    let run: AdaptiveRun<MeanAccumulator> = run_adaptive(cfg, seed, threads, init, sim);
    AdaptiveMean {
        stats: run.accumulator.stats,
        half_width: run.half_width,
        trials: run.trials,
        converged: run.converged,
    }
}

/// Adaptive estimate of `E[sim]` for a real-valued simulation.
pub fn adaptive_mean<F>(cfg: &AdaptiveConfig, seed: u64, threads: usize, sim: F) -> AdaptiveMean
where
    F: Fn(usize, &mut DefaultRng) -> f64 + Sync,
{
    adaptive_mean_with(cfg, seed, threads, || (), |(), i, rng| sim(i, rng))
}

/// An adaptively estimated success probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveProportion {
    /// The estimate with its 95% Wilson interval.
    pub proportion: Proportion,
    /// Final 95% Wilson half-width — the one the stopping rule read, at
    /// the adaptive batch boundary where the run stopped.
    pub half_width: f64,
    /// Did the run hit the target precision?
    pub converged: bool,
}

/// Adaptive success probability with per-worker scratch state.
pub fn adaptive_proportion_with<S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    init: I,
    sim: F,
) -> AdaptiveProportion
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> bool + Sync,
{
    let run: AdaptiveRun<ProportionAccumulator> = run_adaptive(cfg, seed, threads, init, sim);
    AdaptiveProportion {
        proportion: Proportion::new(run.accumulator.successes, run.accumulator.count),
        half_width: run.half_width,
        converged: run.converged,
    }
}

/// [`adaptive_proportion_with`] drawing scratch from a caller-owned pool
/// (see [`try_run_adaptive_pooled`]): a bisection probing many configs
/// over the same instance keeps its warm sweep state across probes.
///
/// # Panics
/// On invalid config or a panicking trial, as [`adaptive_proportion_with`].
pub fn adaptive_proportion_pooled_with<S, I, F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    pool: &StatePool<S>,
    init: I,
    sim: F,
) -> AdaptiveProportion
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut DefaultRng) -> bool + Sync,
{
    let run: Result<AdaptiveRun<ProportionAccumulator>, WorkerPanic> =
        try_run_adaptive_pooled(cfg, seed, threads, pool, init, sim);
    let run = match run {
        Ok(run) => run,
        Err(wp) => std::panic::panic_any(wp),
    };
    AdaptiveProportion {
        proportion: Proportion::new(run.accumulator.successes, run.accumulator.count),
        half_width: run.half_width,
        converged: run.converged,
    }
}

/// Adaptive estimate of `P[sim]` for a boolean simulation.
pub fn adaptive_proportion<F>(
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
    sim: F,
) -> AdaptiveProportion
where
    F: Fn(usize, &mut DefaultRng) -> bool + Sync,
{
    adaptive_proportion_with(cfg, seed, threads, || (), |(), i, rng| sim(i, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_rng::RandomSource;

    #[test]
    fn converges_on_an_easy_mean() {
        let cfg = AdaptiveConfig::new(0.02).with_max_trials(100_000);
        let est = adaptive_mean(&cfg, 1, 2, |_, rng| rng.unit_f64());
        assert!(est.converged);
        assert!(est.half_width <= 0.02);
        assert!(
            (est.stats.mean() - 0.5).abs() < 0.05,
            "{}",
            est.stats.mean()
        );
        // Uniform sd ≈ 0.2887 ⇒ ~800 trials for hw 0.02; far below the cap.
        assert!(est.trials < 10_000, "{}", est.trials);
    }

    #[test]
    fn spends_more_trials_where_variance_demands() {
        let cfg = AdaptiveConfig::new(0.05).with_max_trials(100_000);
        let narrow = adaptive_mean(&cfg, 2, 2, |_, rng| rng.unit_f64());
        let wide = adaptive_mean(&cfg, 2, 2, |_, rng| rng.unit_f64() * 10.0);
        assert!(narrow.converged && wide.converged);
        assert!(
            wide.trials >= narrow.trials * 4,
            "narrow {} wide {}",
            narrow.trials,
            wide.trials
        );
    }

    #[test]
    fn caps_and_reports_non_convergence() {
        let cfg = AdaptiveConfig::new(1e-9)
            .with_max_trials(100)
            .with_batch(32);
        let est = adaptive_mean(&cfg, 3, 2, |_, rng| rng.unit_f64());
        assert!(!est.converged);
        assert_eq!(est.trials, 100, "cap is exact, not rounded to a batch");
        assert!(est.half_width > 1e-9);
    }

    #[test]
    fn respects_min_trials_even_with_zero_variance() {
        let cfg = AdaptiveConfig::new(0.1).with_min_trials(50).with_batch(16);
        let est = adaptive_mean(&cfg, 4, 1, |_, _| 7.0);
        // Constant samples have hw 0 immediately, but min_trials holds.
        assert!(est.trials >= 50, "{}", est.trials);
        assert!(est.converged);
        assert_eq!(est.stats.mean(), 7.0);
    }

    #[test]
    fn adaptive_results_are_thread_invariant() {
        let cfg = AdaptiveConfig::new(0.05)
            .with_min_trials(16)
            .with_batch(16)
            .with_max_trials(2_000);
        let base = adaptive_mean(&cfg, 9, 1, |i, rng| rng.unit_f64() + (i % 3) as f64);
        for threads in [2, 8] {
            let other = adaptive_mean(&cfg, 9, threads, |i, rng| rng.unit_f64() + (i % 3) as f64);
            assert_eq!(base, other, "threads={threads}");
        }
    }

    #[test]
    fn proportion_converges_and_covers_truth() {
        let cfg = AdaptiveConfig::new(0.03).with_max_trials(50_000);
        let est = adaptive_proportion(&cfg, 5, 2, |_, rng| rng.bernoulli(0.3));
        assert!(est.converged);
        assert!(est.half_width <= 0.03);
        let p = est.proportion;
        assert!(p.lo <= 0.3 && 0.3 <= p.hi, "{p}");
    }

    #[test]
    fn extreme_proportions_converge_fast() {
        // p̂ = 1 has a tight Wilson interval long before a mid-range p̂ does
        // — the speed win of adaptive allocation.
        let cfg = AdaptiveConfig::new(0.05).with_max_trials(50_000);
        let sure = adaptive_proportion(&cfg, 6, 2, |_, _| true);
        let coin = adaptive_proportion(&cfg, 6, 2, |_, rng| rng.bernoulli(0.5));
        assert!(sure.converged && coin.converged);
        assert!(
            sure.proportion.trials * 3 <= coin.proportion.trials,
            "sure {} coin {}",
            sure.proportion.trials,
            coin.proportion.trials
        );
        assert_eq!(sure.proportion.estimate, 1.0);
    }

    #[test]
    fn filtered_accumulator_tracks_rejections() {
        let mut acc = FilteredMeanAccumulator::default();
        assert_eq!(acc.rejected_fraction(), 0.0);
        acc.push((3.0, true));
        acc.push((0.0, false));
        acc.push((5.0, true));
        acc.push((0.0, false));
        assert_eq!(acc.trials(), 4);
        assert_eq!(acc.rejected, 2);
        assert!((acc.rejected_fraction() - 0.5).abs() < 1e-12);
        assert!((acc.accepted.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn all_rejected_runs_to_the_cap() {
        let cfg = AdaptiveConfig::new(0.5)
            .with_min_trials(8)
            .with_batch(8)
            .with_max_trials(40);
        let run: AdaptiveRun<FilteredMeanAccumulator> =
            run_adaptive(&cfg, 7, 2, || (), |(), _, _| (0.0, false));
        assert!(!run.converged);
        assert_eq!(run.trials, 40);
        assert_eq!(run.accumulator.rejected, 40);
        assert_eq!(run.half_width, f64::INFINITY);
    }

    #[test]
    fn scratch_state_does_not_leak_into_results() {
        let cfg = AdaptiveConfig::new(0.1).with_max_trials(500);
        let stateless = adaptive_mean(&cfg, 11, 1, |_, rng| rng.unit_f64());
        for threads in [1, 4] {
            let stateful =
                adaptive_mean_with(&cfg, 11, threads, Vec::<u64>::new, |scratch, _, rng| {
                    scratch.push(scratch.len() as u64); // grows per worker; must not matter
                    rng.unit_f64()
                });
            assert_eq!(stateless, stateful, "threads={threads}");
        }
    }

    #[test]
    fn scratch_states_are_pooled_across_batches() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Force many batches (1-trial batches, cap 64) and count init()
        // calls: the state pool must keep them at ≤ threads per run, not
        // one per batch.
        let inits = AtomicUsize::new(0);
        let threads = 4;
        let cfg = AdaptiveConfig::new(0.0)
            .with_min_trials(64)
            .with_batch(1)
            .with_max_trials(64);
        let est = adaptive_mean_with(
            &cfg,
            13,
            threads,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u8
            },
            |_, _, rng| rng.unit_f64(),
        );
        assert_eq!(est.trials, 64);
        let calls = inits.load(Ordering::Relaxed);
        assert!(
            calls <= threads,
            "init called {calls} times across 64 batches on {threads} threads"
        );
    }

    #[test]
    fn caller_owned_pool_spans_runs_without_changing_results() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A shared pool across a *sequence* of runs (a minimal-r search's
        // per-r probes) must build at most `threads` states total, and must
        // not perturb any reported number versus per-run local pools.
        let inits = AtomicUsize::new(0);
        let threads = 3;
        let cfg = AdaptiveConfig::new(0.0)
            .with_min_trials(32)
            .with_batch(8)
            .with_max_trials(32);
        let pool: StatePool<u8> = StatePool::new();
        for seed in [5u64, 6, 7] {
            let pooled = adaptive_proportion_pooled_with(
                &cfg,
                seed,
                threads,
                &pool,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u8
                },
                |_, _, rng| rng.unit_f64() < 0.4,
            );
            let fresh = adaptive_proportion_with(
                &cfg,
                seed,
                threads,
                || 0u8,
                |_, _, rng| rng.unit_f64() < 0.4,
            );
            assert_eq!(pooled.proportion, fresh.proportion, "seed {seed}");
            assert_eq!(pooled.half_width, fresh.half_width, "seed {seed}");
        }
        let calls = inits.load(Ordering::Relaxed);
        assert!(
            calls <= threads,
            "init called {calls} times across 3 runs on {threads} threads"
        );
    }

    #[test]
    fn batch_larger_than_cap_is_clipped() {
        let cfg = AdaptiveConfig::new(0.0)
            .with_batch(1_000)
            .with_min_trials(1)
            .with_max_trials(10);
        let est = adaptive_mean(&cfg, 12, 2, |_, rng| rng.unit_f64());
        assert_eq!(est.trials, 10);
    }

    #[test]
    fn fixed_count_runs_exactly_that_many_trials_in_one_batch() {
        let cfg = AdaptiveConfig::fixed(37);
        assert_eq!((cfg.min_trials, cfg.max_trials, cfg.batch), (37, 37, 37));
        let est = adaptive_mean(&cfg, 14, 2, |_, rng| rng.unit_f64());
        assert_eq!(est.trials, 37);
        assert!(est.converged, "a fixed count has no precision target");
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let cfg = AdaptiveConfig::new(0.1).with_batch(0);
        let _ = adaptive_mean(&cfg, 0, 1, |_, _| 0.0);
    }
}
