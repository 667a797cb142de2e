//! Cross-thread determinism: the Monte Carlo engine's core contract.
//!
//! Trial `i` must draw the same random stream whether the experiment runs on
//! 1 thread or all of them — threads decide only *which* trials they
//! execute, never what those trials see. This is what makes every number in
//! the experiment tables reproducible on any machine.

use ephemeral_parallel::adaptive::{
    adaptive_mean, adaptive_proportion, run_adaptive, AdaptiveAccumulator, AdaptiveConfig,
    AdaptiveRun,
};
use ephemeral_parallel::available_threads;
use ephemeral_parallel::stats::Summary;
use ephemeral_rng::{RandomSource, SeedSequence};

/// A small but non-trivial simulation: a random walk whose step count and
/// step sizes both come from the trial's generator.
fn walk(trial: usize, rng: &mut ephemeral_rng::DefaultRng) -> f64 {
    let steps = 8 + rng.index(64);
    let mut position = trial as f64;
    for _ in 0..steps {
        position += rng.unit_f64() - 0.5;
    }
    position
}

/// Every sample in trial order: the raw output of a fixed-count run.
struct Samples<T>(Vec<T>);

impl<T> Default for Samples<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T: Send> AdaptiveAccumulator for Samples<T> {
    type Sample = T;

    fn push(&mut self, sample: T) {
        self.0.push(sample);
    }

    fn trials(&self) -> usize {
        self.0.len()
    }

    fn half_width(&self) -> f64 {
        f64::INFINITY
    }
}

/// `trials` fixed-count trials of `sim` on `threads` workers, in trial order.
fn fixed_run<T: Send>(
    trials: usize,
    seed: u64,
    threads: usize,
    sim: impl Fn(usize, &mut ephemeral_rng::DefaultRng) -> T + Sync,
) -> Vec<T> {
    let run: AdaptiveRun<Samples<T>> = run_adaptive(
        &AdaptiveConfig::fixed(trials),
        seed,
        threads,
        || (),
        |(), i, rng| sim(i, rng),
    );
    run.accumulator.0
}

#[test]
fn summaries_are_bit_identical_across_thread_counts() {
    let trials = 1003; // deliberately not a multiple of any block size
    let seed = 0xA11CE;

    let sequential = Summary::from_samples(&fixed_run(trials, seed, 1, walk));
    let parallel = Summary::from_samples(&fixed_run(trials, seed, available_threads(), walk));

    // PartialEq would accept -0.0 == 0.0; compare raw bits to rule out even
    // that much divergence.
    assert_eq!(sequential.n, parallel.n);
    for (name, a, b) in [
        ("mean", sequential.mean, parallel.mean),
        ("sd", sequential.sd, parallel.sd),
        ("sem", sequential.sem, parallel.sem),
        ("min", sequential.min, parallel.min),
        ("max", sequential.max, parallel.max),
        ("median", sequential.median, parallel.median),
        ("q25", sequential.q25, parallel.q25),
        ("q75", sequential.q75, parallel.q75),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} != {b}");
    }
}

#[test]
fn raw_trial_outputs_are_identical_across_thread_counts() {
    let seed = 2014;
    let one = fixed_run(257, seed, 1, |i, rng| {
        (i as u64).wrapping_add(rng.next_u64())
    });
    for threads in [2, 3, available_threads().max(2)] {
        let many = fixed_run(257, seed, threads, |i, rng| {
            (i as u64).wrapping_add(rng.next_u64())
        });
        assert_eq!(one, many, "threads={threads}");
    }
}

/// The adaptive estimator's whole point is to choose its own trial count —
/// which must still be a pure function of `(config, seed)`. Running on 1, 2
/// and 8 workers has to yield the same trial count, the same moments (to
/// the bit: samples are folded in trial order on one thread) and the same
/// convergence verdict.
#[test]
fn adaptive_estimates_are_identical_across_1_2_and_8_threads() {
    let cfg = AdaptiveConfig::new(0.04)
        .with_min_trials(16)
        .with_batch(16)
        .with_max_trials(5_000);
    let mean_base = adaptive_mean(&cfg, 0xADA7, 1, walk);
    let prop_base = adaptive_proportion(&cfg, 0xADA7, 1, |i, rng| walk(i, rng) > i as f64);
    for threads in [2, 8] {
        let mean = adaptive_mean(&cfg, 0xADA7, threads, walk);
        assert_eq!(mean.trials, mean_base.trials, "threads={threads}");
        assert_eq!(mean.converged, mean_base.converged, "threads={threads}");
        assert_eq!(
            mean.stats.mean().to_bits(),
            mean_base.stats.mean().to_bits(),
            "threads={threads}"
        );
        assert_eq!(
            mean.half_width.to_bits(),
            mean_base.half_width.to_bits(),
            "threads={threads}"
        );
        let prop = adaptive_proportion(&cfg, 0xADA7, threads, |i, rng| walk(i, rng) > i as f64);
        assert_eq!(prop, prop_base, "threads={threads}");
    }
}

/// Golden values locking in the `SeedSequence::derive` construction.
///
/// `run_adaptive` hands trial `i` the generator `SeedSequence::new(seed).rng(i)`;
/// if the derivation in `crates/rng/src/seeds.rs` changes, every published
/// experiment number silently changes with it. These constants make that
/// loud instead. Update them ONLY with a changelog entry declaring the
/// stream break.
#[test]
fn seed_derivation_contract_is_frozen() {
    let seq = SeedSequence::new(2014);
    let derived: Vec<u64> = (0..4).map(|i| seq.derive(i)).collect();
    assert_eq!(
        derived,
        vec![
            0xa33c_e03d_6365_e349,
            0x8117_30c4_a820_6379,
            0x2aae_47ac_363d_db3e,
            0x9395_81a0_807a_6c69,
        ],
        "SeedSequence::derive changed — this breaks reproducibility of all \
         published experiment numbers"
    );

    // The first output of each trial generator, as the runner hands it out.
    let firsts: Vec<u64> = (0..3).map(|i| seq.rng(i).next_u64()).collect();
    assert_eq!(
        firsts,
        vec![
            0x1760_098b_8c92_c0d8,
            0x2f42_6b59_c44e_54b2,
            0xe56d_d46c_baca_1b43,
        ],
        "Xoshiro256PlusPlus seeding or output changed"
    );
}
