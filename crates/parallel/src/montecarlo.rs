//! Fixed-count Monte Carlo: the [`Proportion`] every success-probability
//! estimate reports. A fixed count is an adaptive run whose stopping rule
//! never fires ([`AdaptiveConfig::fixed`](crate::adaptive::AdaptiveConfig::fixed)),
//! so it keeps the runner's determinism contract: trial `i` draws from
//! `SeedSequence::new(seed).rng(i)` and samples fold in trial order.

use crate::stats::wilson_interval;

/// An empirical proportion with its 95% Wilson score interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Number of successes.
    pub successes: usize,
    /// Number of trials.
    pub trials: usize,
    /// Point estimate `successes / trials` (0 when `trials == 0`).
    pub estimate: f64,
    /// Lower end of the 95% Wilson interval.
    pub lo: f64,
    /// Upper end of the 95% Wilson interval.
    pub hi: f64,
}

impl Proportion {
    /// Build from raw counts.
    #[must_use]
    pub fn new(successes: usize, trials: usize) -> Self {
        let estimate = if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        };
        let (lo, hi) = wilson_interval(successes, trials, 0.95);
        Self {
            successes,
            trials,
            estimate,
            lo,
            hi,
        }
    }
}

impl std::fmt::Display for Proportion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] ({}/{})",
            self.estimate, self.lo, self.hi, self.successes, self.trials
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{
        adaptive_mean, adaptive_proportion, adaptive_proportion_with, run_adaptive,
        AdaptiveAccumulator, AdaptiveConfig, AdaptiveRun,
    };
    use ephemeral_rng::{DefaultRng, RandomSource};

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

    fn run<F>(trials: usize, seed: u64, threads: usize, sim: F) -> Vec<u64>
    where
        F: Fn(usize, &mut DefaultRng) -> u64 + Sync,
    {
        let run: AdaptiveRun<Samples> = run_adaptive(
            &AdaptiveConfig::fixed(trials),
            seed,
            threads,
            || (),
            |(), i, rng| sim(i, rng),
        );
        assert_eq!(run.trials, trials);
        run.accumulator.0
    }

    #[test]
    fn results_are_in_trial_order_and_deterministic() {
        let a = run(100, 7, 2, |i, rng| (i as u64) ^ rng.next_u64());
        let b = run(100, 7, 2, |i, rng| (i as u64) ^ rng.next_u64());
        assert_eq!(a, b);
        // Trial i draws from the generator derived from (seed, i).
        let seq = ephemeral_rng::SeedSequence::new(7);
        for (i, &x) in a.iter().enumerate() {
            assert_eq!(x, (i as u64) ^ seq.rng(i as u64).next_u64(), "trial {i}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = run(500, 11, 1, |_, rng| rng.next_u64());
        for threads in [2, 4, 16] {
            let other = run(500, 11, threads, |_, rng| rng.next_u64());
            assert_eq!(base, other, "threads={threads}");
        }
    }

    #[test]
    fn run_with_matches_run_and_is_thread_invariant() {
        // A stateful run whose state is pure scratch must reproduce the
        // stateless run bit-for-bit, at any thread count.
        let base = run(300, 21, 1, |i, rng| (i as u64).wrapping_mul(rng.next_u64()));
        for threads in [1, 3, 8] {
            let stateful: AdaptiveRun<Samples> = run_adaptive(
                &AdaptiveConfig::fixed(300),
                21,
                threads,
                Vec::<u64>::new,
                |scratch, i, rng| {
                    scratch.push(i as u64); // grows per worker; must not matter
                    (i as u64).wrapping_mul(rng.next_u64())
                },
            );
            assert_eq!(base, stateful.accumulator.0, "threads={threads}");
        }
    }

    #[test]
    fn success_probability_with_matches_stateless() {
        let cfg = AdaptiveConfig::fixed(2_000);
        let stateless = adaptive_proportion(&cfg, 5, 2, |_, rng| rng.bernoulli(0.4));
        let stateful = adaptive_proportion_with(&cfg, 5, 2, || 0u8, |_, _, rng| rng.bernoulli(0.4));
        assert_eq!(stateless, stateful);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = run(50, 1, 2, |_, rng| rng.next_u64());
        let b = run(50, 2, 2, |_, rng| rng.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn summary_of_uniform_mean() {
        let s = adaptive_mean(&AdaptiveConfig::fixed(20_000), 3, 2, |_, rng| {
            rng.unit_f64()
        })
        .stats;
        assert_eq!(s.count(), 20_000);
        assert!((s.mean() - 0.5).abs() < 0.01, "mean {}", s.mean());
        assert!((s.sd() - (1.0f64 / 12.0).sqrt()).abs() < 0.01);
    }

    #[test]
    fn success_probability_wilson_covers_truth() {
        let cfg = AdaptiveConfig::fixed(5_000);
        let p = adaptive_proportion(&cfg, 9, 2, |_, rng| rng.bernoulli(0.25)).proportion;
        assert!((p.estimate - 0.25).abs() < 0.03, "{p}");
        assert!(p.lo <= 0.25 && 0.25 <= p.hi, "{p}");
        assert_eq!(p.trials, 5_000);
    }

    #[test]
    fn zero_trials_proportion_is_safe() {
        let p = Proportion::new(0, 0);
        assert_eq!(p.estimate, 0.0);
        assert!(p.lo <= p.hi);
    }

    #[test]
    fn display_formats() {
        let p = Proportion::new(1, 4);
        let s = format!("{p}");
        assert!(s.contains("0.2500"));
        assert!(s.contains("(1/4)"));
    }
}
