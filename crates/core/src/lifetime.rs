//! Theorem 5: the temporal diameter's dependence on the lifetime.
//!
//! If each edge of the `n`-clique gets one uniform label from
//! `{1, …, a}` with `a ≫ n`, the temporal diameter is `Ω((a/n)·log n)`:
//! the arcs labelled `≤ k` form an Erdős–Rényi `G(n, p)` with `p = k/a`,
//! which is disconnected w.h.p. while `p < ln n / n` — so some pair needs a
//! label beyond `k ≈ (a/n)·ln n`. This module measures the connectivity
//! side of that argument.

use ephemeral_graph::algo::is_connected;
use ephemeral_graph::generators;
use ephemeral_parallel::adaptive::{adaptive_proportion, AdaptiveConfig, AdaptiveProportion};

/// Empirical probability that `G(n, p)` is connected — the classical
/// threshold the paper's lower bounds lean on (E03) — with adaptive trial
/// allocation: stops once the Wilson half-width reaches the config's
/// target (or its cap). Far from the threshold `p̂` sits at 0 or 1 and a
/// handful of batches suffice; near `c = 1` the estimator keeps sampling —
/// exactly where E03's S-curve needs resolution.
#[must_use]
pub fn gnp_connectivity_probability_adaptive(
    n: usize,
    p: f64,
    cfg: &AdaptiveConfig,
    seed: u64,
    threads: usize,
) -> AdaptiveProportion {
    adaptive_proportion(cfg, seed, threads, |_, rng| {
        is_connected(&generators::gnp(n, p, false, rng))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urtn::sample_urt_clique_with_lifetime;
    use ephemeral_graph::algo::connected_components;
    use ephemeral_rng::default_rng;
    use ephemeral_temporal::foremost::foremost_with_horizon;

    #[test]
    fn pair_connectivity_grows_with_horizon() {
        let mut rng = default_rng(2);
        let tn = sample_urt_clique_with_lifetime(64, true, 64, &mut rng);
        let connected = |h| foremost_with_horizon(&tn, 0, 0, h).reached(1);
        // With the full horizon the direct arc always connects the pair.
        assert!(connected(64));
        // Monotonicity in the horizon.
        let mut was_connected = false;
        for h in [4u32, 16, 32, 64] {
            let now = connected(h);
            assert!(!was_connected || now, "connectivity must be monotone");
            was_connected = now;
        }
    }

    #[test]
    fn gnp_threshold_behaviour() {
        let n = 256;
        let ln_n = (n as f64).ln();
        // One batch of 30 trials, capped there.
        let cfg = AdaptiveConfig::new(0.1)
            .with_min_trials(30)
            .with_batch(30)
            .with_max_trials(30);
        let connected = |c: f64| {
            gnp_connectivity_probability_adaptive(n, c * ln_n / n as f64, &cfg, 3, 2).proportion
        };
        // Well below threshold: rarely connected.
        let below = connected(0.4);
        // Well above: almost always connected.
        let above = connected(2.5);
        assert!(below.estimate < 0.3, "below: {below}");
        assert!(above.estimate > 0.8, "above: {above}");
    }

    #[test]
    fn adaptive_gnp_probability_spends_trials_near_the_threshold() {
        let n = 128;
        let ln_n = (n as f64).ln();
        let cfg = AdaptiveConfig::new(0.08)
            .with_min_trials(16)
            .with_batch(16)
            .with_max_trials(2_000);
        let far = gnp_connectivity_probability_adaptive(n, 3.0 * ln_n / n as f64, &cfg, 5, 2);
        let near = gnp_connectivity_probability_adaptive(n, 1.0 * ln_n / n as f64, &cfg, 5, 2);
        assert!(far.converged && near.converged);
        assert!(far.proportion.estimate > 0.9, "{}", far.proportion);
        assert!(
            near.proportion.trials > far.proportion.trials,
            "near {} vs far {}",
            near.proportion.trials,
            far.proportion.trials
        );
        // Thread invariance of the adaptive path.
        let again = gnp_connectivity_probability_adaptive(n, 1.0 * ln_n / n as f64, &cfg, 5, 8);
        assert_eq!(again, near);
    }

    #[test]
    fn giant_component_appears_above_1_over_n() {
        let mut rng = default_rng(4);
        let n = 512;
        let mut largest_fraction = |p: f64| {
            let c = connected_components(&generators::gnp(n, p, false, &mut rng));
            f64::from(c.sizes.iter().copied().max().unwrap_or(0)) / n as f64
        };
        let sub = largest_fraction(0.2 / n as f64);
        let sup = largest_fraction(3.0 / n as f64);
        assert!(sub < 0.2, "subcritical fraction {sub}");
        assert!(sup > 0.5, "supercritical fraction {sup}");
    }
}
