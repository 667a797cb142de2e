//! Property-based tests for the parallel substrate and statistics.

use ephemeral_parallel::adaptive::{
    run_adaptive, AdaptiveAccumulator, AdaptiveConfig, AdaptiveRun,
};
use ephemeral_parallel::par_map;
use ephemeral_parallel::stats::{quantile_sorted, Summary};
use ephemeral_rng::RandomSource;
use proptest::prelude::*;

/// Every sample in trial order: the raw output of a fixed-count run.
#[derive(Default)]
struct Samples(Vec<u64>);

impl AdaptiveAccumulator for Samples {
    type Sample = u64;

    fn push(&mut self, sample: u64) {
        self.0.push(sample);
    }

    fn trials(&self) -> usize {
        self.0.len()
    }

    fn half_width(&self) -> f64 {
        f64::INFINITY
    }
}

fn fixed_run(trials: usize, seed: u64, threads: usize) -> Vec<u64> {
    let run: AdaptiveRun<Samples> = run_adaptive(
        &AdaptiveConfig::fixed(trials),
        seed,
        threads,
        || (),
        |(), i, rng| rng.next_u64() ^ (i as u64),
    );
    run.accumulator.0
}

proptest! {
    #[test]
    fn par_map_equals_sequential(
        items in prop::collection::vec(any::<u32>(), 0..300),
        threads in 1usize..9,
    ) {
        let seq: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| u64::from(x) * 3 + i as u64)
            .collect();
        let par = par_map(&items, threads, |i, &x| u64::from(x) * 3 + i as u64);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn summary_bounds_are_consistent(xs in prop::collection::vec(-1e5f64..1e5, 1..200)) {
        let s = Summary::from_samples(&xs);
        prop_assert!(s.min <= s.q25 + 1e-9);
        prop_assert!(s.q25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q75 + 1e-9);
        prop_assert!(s.q75 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.sd >= 0.0 && s.sem >= 0.0);
    }

    #[test]
    fn quantiles_are_monotone_in_q(xs in prop::collection::vec(-1e5f64..1e5, 1..100)) {
        let mut sorted = xs;
        sorted.sort_unstable_by(f64::total_cmp);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile_sorted(&sorted, f64::from(i) / 10.0);
            prop_assert!(q >= last - 1e-12);
            last = q;
        }
    }

    #[test]
    fn monte_carlo_thread_invariance(trials in 1usize..200, seed: u64) {
        prop_assert_eq!(fixed_run(trials, seed, 1), fixed_run(trials, seed, 5));
    }

    #[test]
    fn proportion_interval_contains_estimate(successes in 0usize..500, extra in 0usize..500) {
        let trials = successes + extra;
        let p = ephemeral_parallel::Proportion::new(successes, trials);
        if trials > 0 {
            prop_assert!(p.lo <= p.estimate + 1e-12);
            prop_assert!(p.estimate <= p.hi + 1e-12);
        }
        prop_assert!(p.lo >= 0.0 && p.hi <= 1.0);
    }
}
