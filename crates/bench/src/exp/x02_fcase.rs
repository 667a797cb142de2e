//! X02 (extension, paper §2 note) — F-CASE label distributions.
//!
//! The paper defines F-RTNs ("labels selected per a distribution F") as a
//! prospective study. This experiment compares `P[T_reach]` on the star
//! under uniform, early-skewed (Zipf) and late-skewed (reversed-Zipf)
//! label laws at equal per-edge budgets: reachability needs *spread* —
//! a leaf must leave early **and** be enterable late — so any skew should
//! hurt, and symmetric spread should win.

use crate::table::{f, Table};
use crate::ExpConfig;
use ephemeral_core::models::{LabelModel, UniformMulti, ZipfMulti};
use ephemeral_core::scenario::Scratch;
use ephemeral_graph::{generators, Graph};
use ephemeral_parallel::adaptive::{adaptive_proportion_with, AdaptiveConfig};
use ephemeral_rng::RandomSource;
use ephemeral_temporal::reachability::StaticReach;
use ephemeral_temporal::{LabelAssignment, Time};

/// Zipf draws mirrored `t ↦ a + 1 − t`: the late-skewed law.
struct LateZipf(ZipfMulti);

impl LabelModel for LateZipf {
    fn lifetime(&self) -> Time {
        self.0.lifetime
    }

    fn assign_into(&self, m: usize, rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let a = self.0.assign(m, rng);
        let lifetime = self.0.lifetime;
        *out = LabelAssignment::from_fn(m, |e| {
            a.labels(e).iter().map(|&t| lifetime + 1 - t).collect()
        })
        .expect("mirrored labels stay in range");
    }
}

/// Structured spread: half the draws uniform in the early half, half in
/// the late half (a deterministic-ish "design" for the 2-split journeys
/// of Theorem 6a).
struct HalfSplit {
    lifetime: Time,
    r: usize,
}

impl LabelModel for HalfSplit {
    fn lifetime(&self) -> Time {
        self.lifetime
    }

    fn assign_into(&self, m: usize, rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let half = self.lifetime / 2;
        *out = LabelAssignment::from_fn(m, |_| {
            (0..self.r)
                .map(|i| {
                    if i % 2 == 0 {
                        rng.range_u32(1, half)
                    } else {
                        rng.range_u32(half + 1, self.lifetime)
                    }
                })
                .collect()
        })
        .expect("labels in range");
    }
}

/// `P[T_reach]` over `trials` draws from `model`, each checked against the
/// star's one static oracle.
fn probability(
    graph: &Graph,
    oracle: &StaticReach,
    model: &(dyn LabelModel + Sync),
    trials: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    adaptive_proportion_with(
        &AdaptiveConfig::fixed(trials),
        seed,
        threads,
        || Scratch::new(graph, model.lifetime()),
        |s, _, rng| {
            s.redraw(model, rng);
            s.treach(oracle).0
        },
    )
    .proportion
    .estimate
}

/// Run X02.
#[must_use]
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let n = if cfg.quick { 64 } else { 128 };
    let g = generators::star(n);
    let lifetime = n as Time;
    let trials = cfg.scale(200, 40);
    let mut t = Table::new(
        format!(
            "X02 · star K_{{1,{}}}: P[T_reach] under different label distributions F",
            n - 1
        ),
        &[
            "r",
            "uniform",
            "zipf s=1.0 (early-skew)",
            "reverse-zipf (late-skew)",
            "half-half split",
        ],
    );
    let oracle = StaticReach::new(&g);
    for &r in &[4usize, 8, 12, 16, 24] {
        let seq = cfg.seq(0xF0CA).child(r as u64);
        let laws: [&(dyn LabelModel + Sync); 4] = [
            &UniformMulti { lifetime, r },
            &ZipfMulti::new(lifetime, r, 1.0),
            &LateZipf(ZipfMulti::new(lifetime, r, 1.0)),
            &HalfSplit { lifetime, r },
        ];
        let [p_uni, p_zipf, p_late, p_split] = std::array::from_fn(|k| {
            probability(
                &g,
                &oracle,
                laws[k],
                trials,
                seq.derive(k as u64),
                cfg.threads,
            )
        });
        t.row(vec![
            r.to_string(),
            f(p_uni, 3),
            f(p_zipf, 3),
            f(p_late, 3),
            f(p_split, 3),
        ]);
    }
    t.note("the engineered 2-split spread (one early + one late draw per edge) saturates already at tiny budgets — it guarantees the Thm 6a journey structure deterministically; one-sided skews shift the threshold modestly, showing the binding constraint is having both an early and a late label per edge, not the label law's shape.");
    vec![t]
}
