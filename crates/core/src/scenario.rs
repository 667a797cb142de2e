//! Declarative scenarios: graph family × label model × lifetime rule ×
//! metric, evaluated by the adaptive Monte Carlo engine.
//!
//! The paper proves its temporal-diameter and connectivity results for the
//! uniform random temporal **clique** (and stars), but the machinery —
//! [`LabelModel`] over any graph, the
//! bit-parallel engine, CI-driven stopping — generalizes. Follow-up work
//! studies exactly that generalization (sparse random availability on
//! general graphs; dynamic random geometric graphs). A [`Scenario`] names
//! one such cell; [`Scenario::evaluate`] measures it with trials allocated
//! adaptively, deterministic in `(scenario, seed)` regardless of the
//! thread count. The sweep engine in `ephemeral-bench` expands grids of
//! these cells and streams resumable JSON-lines results.

use crate::correlated::run_chains;
use crate::models::{GeometricArrivals, LabelModel, UniformMulti, UniformSingle, ZipfMulti};
use crate::urtn::placeholder_network;
use ephemeral_graph::{generators, Graph};
use ephemeral_parallel::adaptive::{
    run_adaptive, AdaptiveConfig, AdaptiveRun, FilteredMeanAccumulator, ProportionAccumulator,
};
use ephemeral_parallel::faults::CancelToken;
use ephemeral_rng::{DefaultRng, RandomSource, SeedSequence};
use ephemeral_temporal::distance::instance_temporal_diameter_scratch_traced;
use ephemeral_temporal::reachability::{treach_holds_scratch_with, StaticReach};
use ephemeral_temporal::wide::{EngineKind, SweepScratch};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Seed stream tag for the (possibly random) substrate graph.
const GRAPH_STREAM: u64 = 1;
/// Seed stream tag for the per-trial label draws.
const TRIAL_STREAM: u64 = 2;

/// A substrate graph family, parameterized by the target vertex count `n`.
///
/// `Clique` is the paper's §3 object; the rest are the generalization
/// follow-up work studies: `Gnp` at a multiple of the connectivity
/// threshold, sparse regular graphs, geometric-flavoured tori/grids, and
/// the paper's own star / complete-bipartite lower-bound witnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Complete graph `K_n` (directed per §3's main theorem, or undirected
    /// per Remark 1).
    Clique {
        /// Use ordered arcs.
        directed: bool,
    },
    /// Erdős–Rényi `G(n, p)` with `p = c·ln n / n` — `c` positions the
    /// family relative to the connectivity threshold at `c = 1`.
    Gnp {
        /// Threshold multiplier.
        c: f64,
    },
    /// Random `degree`-regular graph (configuration model). When `n·degree`
    /// is odd the degree is bumped by one to keep the model well-defined.
    RandomRegular {
        /// Target degree.
        degree: usize,
    },
    /// `side × side` torus with `side = round(√n)` (so the actual vertex
    /// count is the nearest square, never below 9).
    Torus,
    /// `side × side` grid with `side = round(√n)`.
    Grid,
    /// Star `K_{1,n−1}` — the §4 lower-bound witness.
    Star,
    /// Balanced complete bipartite `K_{⌈n/2⌉,⌊n/2⌋}`.
    CompleteBipartite,
}

impl GraphFamily {
    /// Short stable identifier (part of a sweep cell's id — changing these
    /// strings invalidates `--resume` files).
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            Self::Clique { directed: true } => "clique".to_owned(),
            Self::Clique { directed: false } => "uclique".to_owned(),
            Self::Gnp { c } => format!("gnp{c:.2}"),
            Self::RandomRegular { degree } => format!("reg{degree}"),
            Self::Torus => "torus".to_owned(),
            Self::Grid => "grid".to_owned(),
            Self::Star => "star".to_owned(),
            Self::CompleteBipartite => "bipartite".to_owned(),
        }
    }

    /// Build an instance targeting `n` vertices (`Torus`/`Grid` snap to the
    /// nearest square; everything else hits `n` exactly).
    ///
    /// # Panics
    /// If `n < 2`.
    #[must_use]
    pub fn build(&self, n: usize, rng: &mut impl RandomSource) -> Graph {
        assert!(n >= 2, "scenario families need at least two vertices");
        match *self {
            Self::Clique { directed } => generators::clique(n, directed),
            Self::Gnp { c } => {
                let p = (c * (n as f64).ln() / n as f64).clamp(0.0, 1.0);
                generators::gnp(n, p, false, rng)
            }
            Self::RandomRegular { degree } => {
                let mut d = degree.min(n - 1);
                if n % 2 == 1 && d % 2 == 1 {
                    d += 1; // n odd ⇒ n−1 even ⇒ d+1 ≤ n−1 stays valid
                }
                generators::random_regular(n, d, rng)
            }
            Self::Torus => {
                let side = ((n as f64).sqrt().round() as usize).max(3);
                generators::torus(side, side)
            }
            Self::Grid => {
                let side = ((n as f64).sqrt().round() as usize).max(2);
                generators::grid(side, side)
            }
            Self::Star => generators::star(n),
            Self::CompleteBipartite => generators::complete_bipartite(n.div_ceil(2), n / 2),
        }
    }

    /// The default scenario catalog: the paper's clique next to the sparse
    /// and structured substrates the follow-up literature studies.
    #[must_use]
    pub fn catalog() -> Vec<Self> {
        vec![
            Self::Clique { directed: true },
            Self::Gnp { c: 1.5 },
            Self::RandomRegular { degree: 3 },
            Self::Torus,
            Self::Star,
            Self::CompleteBipartite,
        ]
    }
}

/// A label model up to the lifetime (which the scenario supplies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LabelModelSpec {
    /// UNI-CASE: one uniform label per edge.
    UniformSingle,
    /// `r` i.i.d. uniform labels per edge (§4).
    UniformMulti {
        /// Draws per edge.
        r: usize,
    },
    /// F-CASE, Zipf-skewed towards early labels.
    Zipf {
        /// Draws per edge.
        r: usize,
        /// Skew exponent.
        s: f64,
    },
    /// F-CASE, geometric inter-availability gaps.
    Geometric {
        /// Per-step activation probability.
        p: f64,
    },
}

impl LabelModelSpec {
    /// Short stable identifier (part of a sweep cell's id).
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            Self::UniformSingle => "uni1".to_owned(),
            Self::UniformMulti { r } => format!("uni{r}"),
            Self::Zipf { r, s } => format!("zipf{r}s{s:.1}"),
            Self::Geometric { p } => format!("geom{p:.2}"),
        }
    }

    /// Instantiate the model at a concrete lifetime.
    #[must_use]
    pub fn instantiate(&self, lifetime: Time) -> Box<dyn LabelModel + Send + Sync> {
        match *self {
            Self::UniformSingle => Box::new(UniformSingle { lifetime }),
            Self::UniformMulti { r } => Box::new(UniformMulti { lifetime, r }),
            Self::Zipf { r, s } => Box::new(ZipfMulti::new(lifetime, r, s)),
            Self::Geometric { p } => Box::new(GeometricArrivals { lifetime, p }),
        }
    }
}

/// How the lifetime `a` is derived from the instance's vertex count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimeRule {
    /// `a = n` — the normalized regime of §3.
    EqualsN,
    /// `a = k·n` — the Theorem 5 regime when `k ≫ 1`.
    MultipleOfN(u32),
    /// A fixed lifetime, independent of `n`.
    Fixed(Time),
}

impl LifetimeRule {
    /// Short stable identifier (part of a sweep cell's id).
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            Self::EqualsN => "a=n".to_owned(),
            Self::MultipleOfN(k) => format!("a={k}n"),
            Self::Fixed(a) => format!("a={a}"),
        }
    }

    /// The lifetime for an instance with `nodes` vertices.
    #[must_use]
    pub fn lifetime(&self, nodes: usize) -> Time {
        match *self {
            Self::EqualsN => (nodes.max(1)) as Time,
            Self::MultipleOfN(k) => ((nodes.max(1)) as Time).saturating_mul(k.max(1)),
            Self::Fixed(a) => a.max(1),
        }
    }
}

/// What is measured per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Instance temporal diameter (Definition 5's inner quantity); trials
    /// with an unreachable pair are counted as failures.
    TemporalDiameter,
    /// `P[T_reach]` — does the assignment preserve static reachability
    /// (Definition 6)?
    TreachProbability,
    /// `P[T_reach]` again, but estimated by correlated single-site Gibbs
    /// chains maintained differentially (one recorded sweep per chain,
    /// then one [`DeltaCursor::apply_label_move`](ephemeral_temporal::delta::DeltaCursor::apply_label_move)
    /// per step instead of a cold sweep per trial). The move kernel
    /// redraws one uniformly chosen label uniformly over `{1, …, a}`,
    /// which is stationary for the **uniform** label models (UNI-CASE
    /// single and multi — resampling one coordinate of a product-uniform
    /// vector); skewed F-CASE models would need a Metropolis correction
    /// the chain does not implement, so grids pairing this metric with
    /// `Zipf`/`Geometric` estimate the uniform law, not the cell's.
    /// Rows report the total replayed buckets
    /// ([`ScenarioOutcome::delta_replayed_buckets`]).
    TreachCorrelated,
    /// Broadcast time of the §3.5 flooding protocol from vertex 0; trials
    /// that fail to inform everyone are counted as failures.
    FloodTime,
}

impl Metric {
    /// Short stable identifier (part of a sweep cell's id).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Self::TemporalDiameter => "td",
            Self::TreachProbability => "treach",
            Self::TreachCorrelated => "treachd",
            Self::FloodTime => "flood",
        }
    }
}

/// Total order on engines by the weight of the path they represent — the
/// fold `Scenario::evaluate` applies across trials so one cell reports
/// the heaviest engine that actually served any of its trials.
const fn engine_rank(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::Scalar => 1,
        EngineKind::Batch => 2,
        EngineKind::Sparse => 3,
        EngineKind::Wide => 4,
    }
}

const fn engine_from_rank(rank: u8) -> EngineKind {
    match rank {
        1 => EngineKind::Scalar,
        3 => EngineKind::Sparse,
        4 => EngineKind::Wide,
        _ => EngineKind::Batch,
    }
}

/// One fully specified experiment cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Substrate family.
    pub family: GraphFamily,
    /// Label model.
    pub model: LabelModelSpec,
    /// Lifetime rule.
    pub lifetime: LifetimeRule,
    /// Measured quantity.
    pub metric: Metric,
    /// Target vertex count.
    pub n: usize,
}

/// The measured result of one scenario cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOutcome {
    /// Actual vertex count of the built substrate.
    pub nodes: usize,
    /// Edge (or arc) count of the built substrate.
    pub edges: usize,
    /// Lifetime used.
    pub lifetime: Time,
    /// Point estimate: mean finite diameter / success probability / mean
    /// complete-flood time, per the metric.
    pub estimate: f64,
    /// 95% CI half-width of the estimate
    /// (`f64::INFINITY` when no trial produced a usable sample).
    pub half_width: f64,
    /// Trials executed.
    pub trials: usize,
    /// Did the half-width reach the target before the cap?
    pub converged: bool,
    /// Fraction of trials excluded from the estimate (infinite diameters /
    /// incomplete floods; always 0 for probability metrics).
    pub failures: f64,
    /// Short name of the heaviest journey engine that **actually
    /// answered** a trial of this cell (`"wide"` / `"sparse"` /
    /// `"batch"` / `"scalar"`) — the attribution sweep rows report so
    /// perf regressions are traceable. A `T_reach` cell whose every trial
    /// was decided by the 64-lane probe reports `"batch"` at any size (a
    /// failing probe, or `n ≤ 64`, where the probe covers every source):
    /// no full-width engine ran.
    pub engine: &'static str,
    /// Buckets the differential cursor replayed across the cell's Gibbs
    /// steps — the work attribution of [`Metric::TreachCorrelated`]
    /// (always 0 for the cold-trial metrics).
    pub delta_replayed_buckets: usize,
    /// High-water mark of the sparse engine's region arena across the
    /// cell's trials, in `u32` words — the memory attribution of the
    /// event-driven engine (0 when no trial dispatched sparse).
    pub arena_hiwater_words: usize,
    /// Sparse-arena compaction cycles summed across the cell's trials.
    pub compactions: usize,
    /// Degradation events summed across the cell's trials: forced arena
    /// compactions under a word budget plus closure row-block shrinks
    /// under the byte budget — sweeps that completed by doing extra work
    /// instead of aborting (see `SweepStats::degraded`).
    pub degraded: usize,
}

/// The one per-worker trial scratch of every Monte Carlo estimator: an
/// owned network whose labels are redrawn in place, the spare assignment
/// the draw writes into, and every journey engine's sweeper. Every trial
/// and Gibbs chain reuses its buffers, so a warm trial allocates nothing
/// (`tests/alloc_regression.rs`); `T_reach` reads its static counts from
/// one [`StaticReach`] shared by every worker.
#[derive(Debug)]
pub struct Scratch {
    pub(crate) tn: TemporalNetwork,
    spare: LabelAssignment,
    pub(crate) sweeper: SweepScratch,
}

impl Scratch {
    /// A scratch over `graph` at `lifetime` (`> 0`), carrying placeholder
    /// labels until the first [`Scratch::redraw`].
    #[must_use]
    pub fn new(graph: &Graph, lifetime: Time) -> Self {
        Self {
            tn: placeholder_network(graph, lifetime),
            spare: LabelAssignment::default(),
            sweeper: SweepScratch::new(),
        }
    }

    /// Swap a fresh draw from `model` (at the scratch's lifetime) into the
    /// network. With [`UniformSingle`] this reads the same words as
    /// [`resample_single_in_place`](crate::urtn::resample_single_in_place).
    pub fn redraw(&mut self, model: &dyn LabelModel, rng: &mut DefaultRng) {
        model.assign_into(self.tn.graph().num_edges(), rng, &mut self.spare);
        let drawn = std::mem::take(&mut self.spare);
        self.spare = self
            .tn
            .replace_assignment(drawn)
            .expect("model labels fit the lifetime");
    }

    /// Does the drawn instance preserve static reachability (`T_reach`,
    /// Definition 6)? `oracle` must be [`StaticReach::new`] of the
    /// scratch's graph. Also reports the engine that actually answered.
    pub fn treach(&mut self, oracle: &StaticReach) -> (bool, EngineKind) {
        treach_holds_scratch_with(&self.tn, &mut self.sweeper, oracle)
    }
}

/// Thread-invariant fold of the sparse engine's arena accounting across
/// a cell's trials. The high-water mark folds by `max` and the per-worker
/// counters are monotone, so each worker's final reading is the max over
/// its own (serially executed) trials and the cross-worker max equals the
/// max over the fixed trial set — independent of which worker ran which
/// trial. Compaction cycles fold by summing each trial's *delta* of the
/// monotone per-scratch counter, which is likewise scheduling-invariant.
struct ArenaAccounting {
    hiwater: AtomicUsize,
    compactions: AtomicU64,
    degraded: AtomicU64,
}

impl ArenaAccounting {
    const fn new() -> Self {
        Self {
            hiwater: AtomicUsize::new(0),
            compactions: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Run one trial body and absorb the scratch's arena counters.
    fn track<T>(&self, s: &mut Scratch, f: impl FnOnce(&mut Scratch) -> T) -> T {
        let before = s.sweeper.sparse.compactions_total();
        let degraded_before = s.sweeper.sparse.degraded_total();
        let out = f(s);
        self.hiwater
            .fetch_max(s.sweeper.sparse.arena_hiwater_words(), Ordering::Relaxed);
        self.compactions.fetch_add(
            s.sweeper.sparse.compactions_total() - before,
            Ordering::Relaxed,
        );
        self.degraded.fetch_add(
            s.sweeper.sparse.degraded_total() - degraded_before,
            Ordering::Relaxed,
        );
        out
    }
}

impl Scenario {
    /// Stable cell identifier — the key of sweep resume files. Format:
    /// `family/n=<n>/model/lifetime/metric`.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}/n={}/{}/{}/{}",
            self.family.name(),
            self.n,
            self.model.name(),
            self.lifetime.name(),
            self.metric.name()
        )
    }

    /// Build this scenario's substrate exactly as [`Scenario::evaluate`]
    /// does (random families draw from the seed's graph stream).
    #[must_use]
    pub fn build_graph(&self, seed: u64) -> Graph {
        let mut rng = SeedSequence::new(seed).child(GRAPH_STREAM).rng(0);
        self.family.build(self.n, &mut rng)
    }

    /// Measure the scenario: build the substrate once, then run adaptive
    /// Monte Carlo over fresh label draws until the CI half-width reaches
    /// the config's target (or its trial cap).
    ///
    /// Deterministic: the result depends only on `(self, cfg, seed)` —
    /// never on `threads` — so sweep cells can be scheduled anywhere and
    /// resumed byte-identically.
    #[must_use]
    pub fn evaluate(&self, cfg: &AdaptiveConfig, seed: u64, threads: usize) -> ScenarioOutcome {
        self.evaluate_with_cancel(cfg, seed, threads, None)
    }

    /// [`Scenario::evaluate`] with an optional cooperative cancellation
    /// token armed on every engine in each worker's sweep scratch — the
    /// sweep grid's per-cell watchdog (`--cell-timeout`). When the token
    /// fires, the trial unwinds with a structured
    /// [`WorkerPanic`](ephemeral_parallel::WorkerPanic) whose `cancelled`
    /// field names the reason; the caller catches it at cell granularity.
    /// A `None` token (or one that never fires) leaves the result
    /// byte-identical to [`Scenario::evaluate`].
    #[must_use]
    pub fn evaluate_with_cancel(
        &self,
        cfg: &AdaptiveConfig,
        seed: u64,
        threads: usize,
        cancel: Option<CancelToken>,
    ) -> ScenarioOutcome {
        let graph = self.build_graph(seed);
        let nodes = graph.num_nodes();
        let edges = graph.num_edges();
        let lifetime = self.lifetime.lifetime(nodes);
        let model = self.model.instantiate(lifetime);
        let model = model.as_ref();
        let trial_seed = SeedSequence::new(seed).child(TRIAL_STREAM).base();
        let init = || {
            let mut s = Scratch::new(&graph, lifetime);
            s.sweeper.set_cancel_token(cancel.clone());
            s
        };
        // Fold of the engine that actually answered each trial: a max
        // over a fixed trial set, so the result is independent of thread
        // scheduling (the adaptive trial count itself is deterministic).
        let served = AtomicU8::new(0);
        let serve = |kind: EngineKind| {
            served.fetch_max(engine_rank(kind), Ordering::Relaxed);
        };
        let arena = ArenaAccounting::new();

        let mut delta_replayed_buckets = 0usize;
        let (estimate, half_width, trials, converged, failures) = match self.metric {
            Metric::TemporalDiameter => {
                let run: AdaptiveRun<FilteredMeanAccumulator> =
                    run_adaptive(cfg, trial_seed, threads, init, |s, _, rng| {
                        arena.track(s, |s| {
                            s.redraw(model, rng);
                            let (d, engine) =
                                instance_temporal_diameter_scratch_traced(&s.tn, &mut s.sweeper);
                            serve(engine);
                            match d.value() {
                                Some(v) => (f64::from(v), true),
                                None => (0.0, false),
                            }
                        })
                    });
                finite_mean_outcome(&run)
            }
            Metric::FloodTime => {
                let run: AdaptiveRun<FilteredMeanAccumulator> =
                    run_adaptive(cfg, trial_seed, threads, init, |s, _, rng| {
                        if let Some(c) = &cancel {
                            c.checkpoint();
                        }
                        s.redraw(model, rng);
                        serve(EngineKind::Scalar);
                        match crate::dissemination::flood(&s.tn, 0).broadcast_time {
                            Some(t) => (f64::from(t), true),
                            None => (0.0, false),
                        }
                    });
                finite_mean_outcome(&run)
            }
            Metric::TreachProbability => {
                // The substrate never changes within the cell: one static
                // oracle serves every trial on every worker.
                let oracle = StaticReach::new(&graph);
                let run: AdaptiveRun<ProportionAccumulator> =
                    run_adaptive(cfg, trial_seed, threads, init, |s, _, rng| {
                        arena.track(s, |s| {
                            s.redraw(model, rng);
                            let (holds, engine) = s.treach(&oracle);
                            serve(engine);
                            holds
                        })
                    });
                let p = run.accumulator.successes as f64 / run.accumulator.count.max(1) as f64;
                (p, run.half_width, run.trials, run.converged, 0.0)
            }
            Metric::TreachCorrelated => {
                // The trial budget reshaped into chains × steps: the batch
                // setting caps the chain count and the trial cap fixes the
                // total number of samples. Restarts are the cheap part:
                // per grid cell, the 16 cold recordings average 2.9 ms
                // while the 1,488 cursor applies take 104 ms.
                let chains = cfg.batch.clamp(1, 16);
                let steps = cfg.max_trials / chains;
                let stream = SeedSequence::new(trial_seed);
                let out = run_chains(&graph, model, chains, steps, threads, init, |s, c, run| {
                    arena.track(s, |s| {
                        let out = run(s, &mut stream.rng(c));
                        serve(out.engine);
                        out
                    })
                });
                delta_replayed_buckets = out.replayed_buckets;
                let converged = out.half_width <= cfg.target_half_width;
                (out.estimate, out.half_width, out.samples, converged, 0.0)
            }
        };

        ScenarioOutcome {
            nodes,
            edges,
            lifetime,
            estimate,
            half_width,
            trials,
            converged,
            failures,
            engine: engine_from_rank(served.load(Ordering::Relaxed)).name(),
            delta_replayed_buckets,
            arena_hiwater_words: arena.hiwater.load(Ordering::Relaxed),
            compactions: arena.compactions.load(Ordering::Relaxed) as usize,
            degraded: arena.degraded.load(Ordering::Relaxed) as usize,
        }
    }
}

fn finite_mean_outcome(run: &AdaptiveRun<FilteredMeanAccumulator>) -> (f64, f64, usize, bool, f64) {
    (
        run.accumulator.accepted.mean(),
        run.half_width,
        run.trials,
        run.converged,
        run.accumulator.rejected_fraction(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AdaptiveConfig {
        AdaptiveConfig::new(1.0)
            .with_min_trials(8)
            .with_batch(8)
            .with_max_trials(64)
    }

    #[test]
    fn catalog_families_build_and_name_uniquely() {
        let mut rng = ephemeral_rng::default_rng(1);
        let mut names = std::collections::HashSet::new();
        for fam in GraphFamily::catalog() {
            let g = fam.build(36, &mut rng);
            assert!(g.num_nodes() >= 2, "{}", fam.name());
            assert!(g.num_edges() > 0, "{}", fam.name());
            assert!(names.insert(fam.name()), "duplicate name {}", fam.name());
        }
    }

    #[test]
    fn regular_family_fixes_odd_parity() {
        let mut rng = ephemeral_rng::default_rng(2);
        // n = 15 odd, degree 3 odd ⇒ bumped to 4.
        let g = GraphFamily::RandomRegular { degree: 3 }.build(15, &mut rng);
        assert_eq!(g.num_nodes(), 15);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 4);
        }
        // Even n keeps the requested degree.
        let g = GraphFamily::RandomRegular { degree: 3 }.build(16, &mut rng);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 3);
        }
    }

    #[test]
    fn torus_and_grid_snap_to_squares() {
        let mut rng = ephemeral_rng::default_rng(3);
        assert_eq!(GraphFamily::Torus.build(36, &mut rng).num_nodes(), 36);
        assert_eq!(GraphFamily::Torus.build(40, &mut rng).num_nodes(), 36);
        assert_eq!(GraphFamily::Grid.build(50, &mut rng).num_nodes(), 49);
    }

    #[test]
    fn clique_td_scenario_matches_the_paper_shape() {
        let sc = Scenario {
            family: GraphFamily::Clique { directed: true },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TemporalDiameter,
            n: 64,
        };
        let out = sc.evaluate(&quick_cfg(), 1, 2);
        assert_eq!(out.nodes, 64);
        assert_eq!(out.edges, 64 * 63);
        assert_eq!(out.lifetime, 64);
        assert_eq!(out.failures, 0.0, "the clique always has the direct arc");
        let ln_n = 64f64.ln();
        assert!(
            out.estimate > 0.5 * 64f64.log2() && out.estimate < 8.0 * ln_n,
            "TD {} out of the Θ(log n) band",
            out.estimate
        );
        assert!(out.trials >= 8);
    }

    #[test]
    fn sparse_families_break_the_clique_only_picture() {
        // One uniform label per edge: the clique is always temporally
        // connected, a near-threshold G(n,p) essentially never is — the
        // confrontation E11 tabulates.
        let cfg = quick_cfg();
        let clique = Scenario {
            family: GraphFamily::Clique { directed: true },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TemporalDiameter,
            n: 32,
        }
        .evaluate(&cfg, 2, 2);
        let gnp = Scenario {
            family: GraphFamily::Gnp { c: 1.5 },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TemporalDiameter,
            n: 32,
        }
        .evaluate(&cfg, 2, 2);
        assert_eq!(clique.failures, 0.0);
        assert!(gnp.failures > 0.5, "gnp failures {}", gnp.failures);
    }

    #[test]
    fn treach_metric_reports_probabilities() {
        let sure = Scenario {
            family: GraphFamily::Clique { directed: false },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n: 16,
        }
        .evaluate(&quick_cfg(), 3, 1);
        assert_eq!(sure.estimate, 1.0, "K_n satisfies T_reach with one label");
        let star = Scenario {
            family: GraphFamily::Star,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n: 16,
        }
        .evaluate(&quick_cfg(), 3, 1);
        assert!(star.estimate < 0.5, "one label cannot serve a star");
    }

    #[test]
    fn flood_metric_tracks_log_n_on_the_clique() {
        let out = Scenario {
            family: GraphFamily::Clique { directed: true },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::FloodTime,
            n: 64,
        }
        .evaluate(&quick_cfg(), 4, 2);
        assert_eq!(out.failures, 0.0);
        assert!(out.estimate >= 2.0 && out.estimate <= 8.0 * 64f64.ln());
    }

    #[test]
    fn outcomes_attribute_the_engine_that_actually_answered() {
        use ephemeral_temporal::wide::WIDE_CROSSOVER;
        let mk = |family, metric, n| Scenario {
            family,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric,
            n,
        };
        let clique = GraphFamily::Clique { directed: true };
        // Below the crossover the wide engine serves the diameter.
        let small = mk(clique, Metric::TemporalDiameter, 32).evaluate(&quick_cfg(), 1, 1);
        assert_eq!(small.engine, "wide");
        let flood = mk(clique, Metric::FloodTime, 32).evaluate(&quick_cfg(), 1, 1);
        assert_eq!(flood.engine, "scalar");
        let n = WIDE_CROSSOVER + 8;
        let light = AdaptiveConfig::new(5.0)
            .with_min_trials(2)
            .with_batch(2)
            .with_max_trials(4);
        // Dense clique above the crossover: full wide sweeps every trial.
        let wide = mk(clique, Metric::TemporalDiameter, n).evaluate(&light, 1, 1);
        assert_eq!(wide.engine, "wide");
        assert_eq!(wide.failures, 0.0, "the clique always has the direct arc");
        // A constant-degree substrate above the crossover: event-driven
        // sweeps (near-threshold G(n,p) stays wide — its reach sets grow
        // towards n and reacher-list merges would lose).
        let sparse = mk(
            GraphFamily::RandomRegular { degree: 3 },
            Metric::TemporalDiameter,
            n,
        )
        .evaluate(&light, 1, 1);
        assert_eq!(sparse.engine, "sparse");
    }

    #[test]
    fn treach_cells_answered_by_the_probe_report_batch() {
        // The engine-attribution regression: above the crossover the
        // density dispatch picks the sparse engine for a star (n − 1
        // single labels over ~(1 − 1/e)·n occupied buckets), but a
        // single-label star essentially never preserves reachability and
        // every trial fails at the 64-lane probe block — one lane pass
        // per trial, and the row must say so.
        use ephemeral_temporal::wide::WIDE_CROSSOVER;
        let n = WIDE_CROSSOVER + 8;
        let sc = Scenario {
            family: GraphFamily::Star,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n,
        };
        let out = sc.evaluate(&quick_cfg(), 5, 2);
        assert_eq!(out.estimate, 0.0, "one label cannot serve a star");
        assert_eq!(
            out.engine, "batch",
            "every trial was answered by the probe block alone"
        );
        // A holding instance, by contrast, must sweep full-width: the
        // undirected clique satisfies T_reach with any single labelling.
        let sure = Scenario {
            family: GraphFamily::Clique { directed: false },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n,
        }
        .evaluate(
            &AdaptiveConfig::new(5.0)
                .with_min_trials(2)
                .with_batch(2)
                .with_max_trials(4),
            5,
            1,
        );
        assert_eq!(sure.estimate, 1.0);
        assert_eq!(sure.engine, "wide", "holding trials sweep every block");
        // At n ≤ 64 the probe covers every source: a holding cell is
        // answered by the lane pass alone, too.
        let small = Scenario {
            family: GraphFamily::Clique { directed: false },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n: 32,
        }
        .evaluate(&quick_cfg(), 5, 1);
        assert_eq!(small.estimate, 1.0);
        assert_eq!(small.engine, "batch", "no block remains after the probe");
    }

    #[test]
    fn all_filtered_cells_terminate_at_the_cap_without_nan() {
        // A single-label star always has an infinite instance diameter
        // (the leaf behind the maximum label can reach no other leaf), so
        // every trial is filtered. The filtered-mean accumulator must
        // drive the adaptive loop to the trial cap — an undefined interval
        // reads as +∞, never NaN (NaN would compare false against the
        // target and also stop at the cap, but would then poison the
        // reported row) — and the outcome must record the full excluded
        // fraction.
        use ephemeral_temporal::wide::WIDE_CROSSOVER;
        let cfg = AdaptiveConfig::new(0.5)
            .with_min_trials(4)
            .with_batch(4)
            .with_max_trials(12);
        let out = Scenario {
            family: GraphFamily::Star,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TemporalDiameter,
            n: WIDE_CROSSOVER + 32,
        }
        .evaluate(&cfg, 3, 2);
        assert_eq!(out.trials, 12, "the loop must stop exactly at the cap");
        assert!(!out.converged);
        assert!(
            out.half_width.is_infinite() && out.half_width > 0.0,
            "undefined interval reads +inf, got {}",
            out.half_width
        );
        assert!(!out.half_width.is_nan());
        assert_eq!(out.failures, 1.0, "every trial excluded");
        assert_eq!(out.estimate, 0.0, "empty accepted set has mean 0");
        assert_eq!(out.engine, "sparse", "a big star dispatches event-driven");
    }

    #[test]
    fn evaluation_is_deterministic_and_thread_invariant() {
        let sc = Scenario {
            family: GraphFamily::Gnp { c: 2.0 },
            model: LabelModelSpec::UniformMulti { r: 4 },
            lifetime: LifetimeRule::MultipleOfN(2),
            metric: Metric::TreachProbability,
            n: 24,
        };
        let base = sc.evaluate(&quick_cfg(), 7, 1);
        for threads in [2, 8] {
            assert_eq!(sc.evaluate(&quick_cfg(), 7, threads), base, "t={threads}");
        }
        // A different seed draws a different substrate stream.
        assert_ne!(sc.evaluate(&quick_cfg(), 8, 2), base);
    }

    #[test]
    fn ids_are_unique_across_a_grid() {
        let mut ids = std::collections::HashSet::new();
        for fam in GraphFamily::catalog() {
            for model in [
                LabelModelSpec::UniformSingle,
                LabelModelSpec::UniformMulti { r: 3 },
                LabelModelSpec::Zipf { r: 3, s: 1.0 },
                LabelModelSpec::Geometric { p: 0.1 },
            ] {
                for rule in [
                    LifetimeRule::EqualsN,
                    LifetimeRule::MultipleOfN(4),
                    LifetimeRule::Fixed(100),
                ] {
                    for metric in [
                        Metric::TemporalDiameter,
                        Metric::TreachProbability,
                        Metric::TreachCorrelated,
                        Metric::FloodTime,
                    ] {
                        for n in [16, 32] {
                            let sc = Scenario {
                                family: fam,
                                model,
                                lifetime: rule,
                                metric,
                                n,
                            };
                            assert!(ids.insert(sc.id()), "duplicate id {}", sc.id());
                        }
                    }
                }
            }
        }
        assert_eq!(ids.len(), 6 * 4 * 3 * 4 * 2);
    }

    #[test]
    fn correlated_metric_agrees_with_structure_and_reports_replay_work() {
        // K_n holds under every single labelling, the star essentially
        // never does — the correlated chains must say exactly that, and
        // the star cell must report the buckets its applies replayed.
        let sure = Scenario {
            family: GraphFamily::Clique { directed: false },
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachCorrelated,
            n: 16,
        }
        .evaluate(&quick_cfg(), 3, 2);
        assert_eq!(sure.estimate, 1.0);
        assert_eq!(sure.half_width, 0.0);
        assert!(sure.converged);
        assert!(sure.trials > 0);
        let star = Scenario {
            family: GraphFamily::Star,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachCorrelated,
            n: 16,
        }
        .evaluate(&quick_cfg(), 3, 1);
        assert!(star.estimate < 0.5, "one label cannot serve a star");
        assert!(
            star.delta_replayed_buckets > 0,
            "applied moves replay buckets"
        );
        // The cold-trial metrics never touch the cursor.
        let cold = Scenario {
            family: GraphFamily::Star,
            model: LabelModelSpec::UniformSingle,
            lifetime: LifetimeRule::EqualsN,
            metric: Metric::TreachProbability,
            n: 16,
        }
        .evaluate(&quick_cfg(), 3, 1);
        assert_eq!(cold.delta_replayed_buckets, 0);
    }

    #[test]
    fn correlated_metric_is_deterministic_and_thread_invariant() {
        let sc = Scenario {
            family: GraphFamily::Gnp { c: 1.5 },
            model: LabelModelSpec::UniformMulti { r: 3 },
            lifetime: LifetimeRule::MultipleOfN(2),
            metric: Metric::TreachCorrelated,
            n: 24,
        };
        let base = sc.evaluate(&quick_cfg(), 9, 1);
        for threads in [2, 8] {
            assert_eq!(sc.evaluate(&quick_cfg(), 9, threads), base, "t={threads}");
        }
        assert_ne!(sc.evaluate(&quick_cfg(), 10, 2), base);
    }
}
