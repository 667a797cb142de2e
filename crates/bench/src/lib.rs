//! # ephemeral-bench
//!
//! The experiment harness that regenerates every quantitative claim of the
//! paper (see DESIGN.md §4 for the experiment ↔ theorem map):
//!
//! | id | claim |
//! |----|-------|
//! | E01 | Fig. 1 / Thm 1–2: expansion frontiers grow geometrically to `Θ(√n)` |
//! | E02 | Thm 3–4: `TD(K_n) = Θ(log n)` — fit of `γ` |
//! | E03 | §3.4/§3.6: `G(n,p)` connectivity threshold at `ln n / n` |
//! | E04 | Thm 5: `TD = Ω((a/n)·log n)` once `a ≫ n` |
//! | E05 | §3.5: flooding time `O(log n)`, messages `Θ(n²)` |
//! | E06 | Fig. 2 / Thm 6(a): star threshold at `r = Θ(log n)` |
//! | E07 | Thm 6(b): `r = log n / β(n)` labels fail w.h.p. |
//! | E08 | Fig. 3 / Thm 7: box budget `2·d·ln n` vs measured `r*` |
//! | E09 | Thm 6/8: Price of Randomness, measured vs bound |
//! | E10 | §1.1: temporal flood vs push / push–pull baselines |
//! | E11 | Generalization: TD + connectivity across graph families (the clique's Θ(log n) vs sparse substrates) |
//! | E12 | Correlated what-if chains: Gibbs resampling with the closure maintained differentially (`delta` cursor) vs cold redraws |
//!
//! Run everything: `cargo run --release -p ephemeral-bench --bin experiments`
//! (add `--quick` for a fast smoke pass, or experiment ids to filter).
//! `experiments sweep` runs the declarative scenario [`sweep`] instead —
//! an adaptive CI-driven grid over families × label models, streamed as
//! resumable JSON lines (`--resume <file>` skips completed cells and
//! reproduces the uninterrupted output byte-for-byte).
//! `experiments serve` runs the JSON-lines reachability service of
//! `ephemeral-serve` on stdin/stdout or a TCP listener. Sweep rows carry
//! an `"engine"` field (`wide`/`sparse`/`batch`/`scalar`) naming the
//! journey engine that served each cell. Performance is measured by the
//! one benchmark, `python3 perfbench/run.py` (declared in
//! `BENCHMARK.json`; see `perfbench/README.md`).
//!
//! E02/E03/E04/E08 allocate their trials adaptively (see
//! [`ExpConfig::adaptive`]); the remaining tables keep fixed counts where
//! a fixed design is the point (e.g. E06's fixed-`r` probability curve).
//! All per-cell seeds come from [`ExpConfig::seq`] —
//! `SeedSequence::derive` streams, never ad-hoc xor mixing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod sweep;
pub mod table;

use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_rng::SeedSequence;
pub use table::Table;

/// Global experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Reduce sizes/trials for a fast smoke pass.
    pub quick: bool,
    /// Master seed (every experiment derives from it deterministically).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl ExpConfig {
    /// Default full-fidelity configuration.
    #[must_use]
    pub fn full() -> Self {
        Self {
            quick: false,
            seed: 20140623, // SPAA'14 opened June 23, 2014
            threads: ephemeral_parallel::available_threads(),
        }
    }

    /// Quick smoke-pass configuration.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::full()
        }
    }

    /// Pick `full` or `quick` value depending on the mode.
    #[must_use]
    pub const fn scale(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The experiment's seed stream: a [`SeedSequence`] child keyed by an
    /// experiment tag. Every per-cell seed inside an experiment must come
    /// from `cfg.seq(TAG).derive(stream)` — derived streams cannot collide,
    /// unlike the xor mixing this replaced.
    #[must_use]
    pub fn seq(&self, tag: u64) -> SeedSequence {
        SeedSequence::new(self.seed).child(tag)
    }

    /// Adaptive stopping knobs for a CI-driven experiment cell: the given
    /// target half-width and trial cap at full fidelity, both relaxed by
    /// ~an order of magnitude in `--quick` mode.
    #[must_use]
    pub fn adaptive(&self, target_half_width: f64, max_trials: usize) -> AdaptiveConfig {
        if self.quick {
            AdaptiveConfig::new(target_half_width * 4.0)
                .with_min_trials(6)
                .with_batch(6)
                .with_max_trials((max_trials / 10).clamp(6, 60))
        } else {
            AdaptiveConfig::new(target_half_width)
                .with_min_trials(12)
                .with_batch(24)
                .with_max_trials(max_trials.max(12))
        }
    }
}

/// One experiment: id, descriptive title, and the runner producing tables.
pub struct Experiment {
    /// Short id (`"e01"`, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&ExpConfig) -> Vec<Table>,
}

/// Every experiment, in paper order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e01",
            title: "E01 · Expansion process frontiers (Fig. 1, Thm 1-2)",
            run: exp::e01_expansion::run,
        },
        Experiment {
            id: "e02",
            title: "E02 · Temporal diameter of the normalized U-RT clique (Thm 3-4)",
            run: exp::e02_diameter::run,
        },
        Experiment {
            id: "e03",
            title: "E03 · Erdős–Rényi connectivity threshold (§3.4, §3.6)",
            run: exp::e03_threshold::run,
        },
        Experiment {
            id: "e04",
            title: "E04 · Temporal diameter vs lifetime (Thm 5)",
            run: exp::e04_lifetime::run,
        },
        Experiment {
            id: "e05",
            title: "E05 · Dissemination protocol (§3.5)",
            run: exp::e05_dissemination::run,
        },
        Experiment {
            id: "e06",
            title: "E06 · Star reachability threshold (Fig. 2, Thm 6a)",
            run: exp::e06_star::run,
        },
        Experiment {
            id: "e07",
            title: "E07 · Star lower bound: sublogarithmic budgets fail (Thm 6b)",
            run: exp::e07_star_lower::run,
        },
        Experiment {
            id: "e08",
            title: "E08 · Box-scheme budget vs measured minimal r (Fig. 3, Thm 7)",
            run: exp::e08_general::run,
        },
        Experiment {
            id: "e09",
            title: "E09 · Price of Randomness (Thm 6, Thm 8)",
            run: exp::e09_por::run,
        },
        Experiment {
            id: "e10",
            title: "E10 · Temporal flooding vs the random phone-call model (§1.1)",
            run: exp::e10_phonecall::run,
        },
        Experiment {
            id: "e11",
            title:
                "E11 · Temporal diameter and connectivity across graph families (scenario engine)",
            run: exp::e11_families::run,
        },
        Experiment {
            id: "e12",
            title:
                "E12 · Correlated what-if chains: differential closure maintenance as an estimator",
            run: exp::e12_whatif::run,
        },
        Experiment {
            id: "x01",
            title: "X01 · Extension: designed availability — backbone + random extras (§6)",
            run: exp::x01_design::run,
        },
        Experiment {
            id: "x02",
            title: "X02 · Extension: F-CASE label distributions (§2 note)",
            run: exp::x02_fcase::run,
        },
    ]
}
