//! E05 — the §3.5 dissemination protocol.
//!
//! Shape to reproduce: broadcast time `O(log n)` (tracking `ln n` within a
//! small constant), message count a constant fraction of all `n(n−1)`
//! arcs (`Θ(n²)` — the price of having no algorithmic randomness).

use crate::table::{f, Table};
use crate::ExpConfig;
use ephemeral_core::dissemination::{flood_montecarlo, flood_oracle_clique};
use ephemeral_graph::generators;
use ephemeral_parallel::stats::Summary;

/// Run E05.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let seq = cfg.seq(0xE05);
    let mut exact = Table::new(
        "E05a · flooding a message through the U-RT clique (exact instances)",
        &[
            "n",
            "trials",
            "mean time",
            "sd",
            "ln n",
            "time/ln n",
            "mean messages",
            "n(n-1)",
            "msg fraction",
        ],
    );
    let sizes: &[usize] = if cfg.quick {
        &[256]
    } else {
        &[256, 512, 1024, 2048]
    };
    for (si, &n) in sizes.iter().enumerate() {
        let trials = cfg.scale(if n >= 2048 { 10 } else { 30 }, 4);
        // Per-worker scratch reuse + parallel trials via flood_montecarlo.
        let g = generators::clique(n, true);
        let est = flood_montecarlo(&g, n as u32, 0, trials, seq.derive(si as u64), cfg.threads);
        assert_eq!(est.incomplete, 0, "clique floods fully");
        let s = est.broadcast_times;
        let arcs = (n * (n - 1)) as f64;
        exact.row(vec![
            n.to_string(),
            trials.to_string(),
            f(s.mean(), 2),
            f(s.sd(), 2),
            f((n as f64).ln(), 2),
            f(s.mean() / (n as f64).ln(), 2),
            f(est.mean_messages, 0),
            f(arcs, 0),
            f(est.mean_messages / arcs, 3),
        ]);
    }
    exact.note("time/ln n should be a flat constant (Thm 4 + §3.5); msg fraction stays Θ(1) — blind flooding uses Θ(n²) messages.");

    let mut oracle = Table::new(
        "E05b · oracle flooding at web scale",
        &[
            "n",
            "trials",
            "mean time",
            "ln n",
            "time/ln n",
            "E[messages]",
        ],
    );
    let big: &[u64] = if cfg.quick {
        &[100_000]
    } else {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    };
    for (si, &n) in big.iter().enumerate() {
        let trials = cfg.scale(40, 8);
        let mut rng = seq.rng(500 + si as u64);
        let mut times = Vec::with_capacity(trials);
        let mut msgs = 0.0;
        for _ in 0..trials {
            let out = flood_oracle_clique(n, n as u32, &mut rng);
            times.push(f64::from(out.broadcast_time.expect("oracle floods fully")));
            msgs += out.expected_messages;
        }
        let s = Summary::from_samples(&times);
        oracle.row(vec![
            n.to_string(),
            trials.to_string(),
            f(s.mean, 2),
            f((n as f64).ln(), 2),
            f(s.mean / (n as f64).ln(), 2),
            format!("{:.3e}", msgs / trials as f64),
        ]);
    }
    oracle.note("the time/ln n constant persists across four orders of magnitude.");

    vec![exact, oracle]
}
