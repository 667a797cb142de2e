//! E02 — the temporal diameter of the normalized U-RT clique
//! (Theorems 3–4): `TD = Θ(log n)` w.h.p. and in expectation.
//!
//! Shape to reproduce: `TD/ln n` flat (a constant γ), `R²` of the
//! `TD ≈ a + γ·log₂ n` fit near 1, zero infinite instances.
//!
//! Trials are allocated adaptively: each size runs batches until the 95%
//! CI half-width of the mean TD reaches the target (or the per-size cap —
//! tight where instances are cheap, generous where they are ~100 MB).

use crate::table::{f, Table};
use crate::ExpConfig;
use ephemeral_core::diameter::td_montecarlo_adaptive;
use ephemeral_graph::generators;
use ephemeral_parallel::stats::fit_log2;

/// Run E02.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut t = Table::new(
        "E02 · temporal diameter TD of the directed normalized U-RT clique (adaptive trials, target CI ±0.25)",
        &[
            "n",
            "trials",
            "mean TD",
            "±95%",
            "sd",
            "TD/ln n",
            "TD/log2 n",
            "infinite",
        ],
    );
    let sizes: &[usize] = if cfg.quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let seq = cfg.seq(0xE02);
    let mut ns = Vec::new();
    let mut means = Vec::new();
    for &n in sizes {
        // The CI target is uniform; the cap scales down with instance cost
        // so the big sizes stay affordable even if noisy.
        let cap = match n {
            0..=256 => 1200,
            257..=1024 => 300,
            _ => 60,
        };
        let acfg = cfg.adaptive(0.25, cap);
        let clique = generators::clique(n, true);
        let est =
            td_montecarlo_adaptive(&clique, n as u32, &acfg, seq.derive(n as u64), cfg.threads);
        ns.push(n);
        means.push(est.finite.mean());
        t.row(vec![
            n.to_string(),
            est.trials.to_string(),
            f(est.finite.mean(), 2),
            f(est.half_width, 2),
            f(est.finite.sd(), 2),
            f(est.gamma_ln, 3),
            f(est.gamma_log2, 3),
            est.infinite_instances.to_string(),
        ]);
    }
    let fit = fit_log2(&ns, &means);
    t.note(format!(
        "fit TD ≈ {:.2} + {:.3}·log2 n with R² = {:.4} — Theorem 4 predicts a clean γ·log n law (infinite must be 0: the clique always has the direct arc).",
        fit.intercept, fit.slope, fit.r2
    ));
    vec![t]
}
