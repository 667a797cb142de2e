//! E04 — temporal diameter vs lifetime (Theorem 5).
//!
//! With one uniform label per arc from `{1, …, a}`, `a ≫ n` forces
//! `TD = Ω((a/n)·ln n)`. Shape to reproduce: `TD` grows linearly in the
//! ratio `a/n`, and the measured `TD / ((a/n)·ln n)` ratio stays bounded
//! (≥ some constant) rather than decaying.

use crate::table::{f, Table};
use crate::ExpConfig;
use ephemeral_core::bounds::lifetime_bound;
use ephemeral_core::diameter::td_montecarlo_adaptive;
use ephemeral_graph::generators;

/// Run E04.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "E04 · TD of the U-RT clique as the lifetime a grows (directed, one label/arc; adaptive trials)",
        &[
            "n",
            "a/n",
            "a",
            "trials",
            "mean TD",
            "±95%",
            "sd",
            "(a/n)·ln n",
            "TD / bound",
        ],
    );
    let sizes: &[usize] = if cfg.quick { &[128] } else { &[128, 256, 512] };
    let ratios: &[u32] = if cfg.quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let seq = cfg.seq(0xE04);
    for &n in sizes {
        let clique = generators::clique(n, true);
        for &ratio in ratios {
            let a = (n as u32) * ratio;
            // TD (and its sd) scale with a/n, so the precision target does
            // too: a fixed absolute width would starve small-`a` rows and
            // overspend on large ones.
            let target = 0.05 * lifetime_bound(n, u64::from(a)).max(4.0);
            let acfg = cfg.adaptive(target, if n >= 512 { 80 } else { 250 });
            let est = td_montecarlo_adaptive(
                &clique,
                a,
                &acfg,
                seq.derive((n as u64) << 8 | u64::from(ratio)),
                cfg.threads,
            );
            let bound = lifetime_bound(n, u64::from(a));
            t.row(vec![
                n.to_string(),
                ratio.to_string(),
                a.to_string(),
                est.trials.to_string(),
                f(est.finite.mean(), 1),
                f(est.half_width, 1),
                f(est.finite.sd(), 1),
                f(bound, 1),
                f(est.finite.mean() / bound, 2),
            ]);
        }
    }
    t.note("Theorem 5: TD must be Ω((a/n)·log n) — the last column should stay bounded away from 0 as a/n grows (static phone-call-style models cannot capture this). Trials are CI-driven at ±5% of the bound.");
    vec![t]
}
