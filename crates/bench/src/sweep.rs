//! The scenario sweep engine: expand a declarative grid of graph families ×
//! label models × lifetime rules × metrics × sizes into cells, schedule the
//! cells across a worker pool, and stream **one JSON-lines row per
//! completed cell** — in canonical grid order, so output is reproducible
//! and resumable.
//!
//! ## Determinism and resume
//!
//! Every cell's seed is derived from the sweep seed and the cell's grid
//! index through [`SeedSequence::derive`] (no xor mixing — streams cannot
//! collide), and [`Scenario::evaluate`] is deterministic in `(cell, seed)`
//! regardless of scheduling. Rows are emitted in grid order. Consequently a
//! sweep killed mid-grid leaves a clean prefix of the full output; running
//! again with `--resume <file>` re-emits the surviving rows **verbatim**,
//! computes only the missing cells, and produces byte-identical final
//! output to an uninterrupted run. A truncated trailing line (the kill
//! landed mid-write) is detected and ignored.
//!
//! ## Fault isolation
//!
//! A cell whose evaluation panics — an injected fault, a cell-timeout
//! cancellation, or a genuine bug — does **not** take the sweep down.
//! The worker retries the cell up to [`SweepOptions::max_attempts`]
//! times (the seed is re-derived from the cell index, so a retried cell
//! produces a byte-identical row to a fault-free run); a cell that fails
//! every attempt is quarantined into a `"status":"failed"` row carrying
//! the panic message and, when the fault was injected, the failpoint
//! that fired. The stream never hangs: every cell posts exactly one row.
//! `--resume` treats failed rows as retryable — they are recomputed, so
//! resuming after the fault clears converges to the fault-free output.

use crate::table::json_string;
use ephemeral_core::scenario::{
    GraphFamily, LabelModelSpec, LifetimeRule, Metric, Scenario, ScenarioOutcome,
};
use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_parallel::faults::{self, CancelToken, WorkerPanic};
use ephemeral_parallel::ThreadPool;
use ephemeral_rng::SeedSequence;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Stream tag under the sweep seed reserved for per-cell seeds.
const CELL_STREAM: u64 = 0x5EED;

/// A declarative sweep grid: the cross product of every axis, plus the
/// adaptive stopping knobs shared by all cells.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Substrate families.
    pub families: Vec<GraphFamily>,
    /// Label models.
    pub models: Vec<LabelModelSpec>,
    /// Lifetime rules.
    pub lifetimes: Vec<LifetimeRule>,
    /// Metrics.
    pub metrics: Vec<Metric>,
    /// Target vertex counts.
    pub sizes: Vec<usize>,
    /// Stopping knobs for every cell.
    pub adaptive: AdaptiveConfig,
    /// Master seed; cell `i` uses `SeedSequence::new(seed).child(CELL_STREAM).derive(i)`.
    pub seed: u64,
}

impl SweepSpec {
    /// The full-fidelity default grid: the whole scenario catalog, single
    /// and multi-label UNI-CASE, temporal diameter + `T_reach` (cold
    /// trials and differentially maintained Gibbs chains), three sizes.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self {
            families: GraphFamily::catalog(),
            models: vec![
                LabelModelSpec::UniformSingle,
                LabelModelSpec::UniformMulti { r: 4 },
            ],
            lifetimes: vec![LifetimeRule::EqualsN],
            metrics: vec![
                Metric::TemporalDiameter,
                Metric::TreachProbability,
                Metric::TreachCorrelated,
            ],
            sizes: vec![64, 144, 256],
            adaptive: AdaptiveConfig::new(0.25)
                .with_min_trials(24)
                .with_batch(24)
                .with_max_trials(1_500),
            seed,
        }
    }

    /// A small smoke grid (the `--quick` preset and the CI gate). The
    /// sizes straddle the batch crossover so the quick grid exercises —
    /// and its rows report — all three sweep engines: `batch` at n = 36,
    /// `wide` on the n = 224 clique and near-threshold G(n,p) (whose
    /// high degree keeps it off the event-driven engine), `sparse` on
    /// the n = 224 star.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            families: vec![
                GraphFamily::Clique { directed: true },
                GraphFamily::Gnp { c: 1.5 },
                GraphFamily::Star,
            ],
            models: vec![
                LabelModelSpec::UniformSingle,
                LabelModelSpec::UniformMulti { r: 4 },
            ],
            lifetimes: vec![LifetimeRule::EqualsN],
            metrics: vec![
                Metric::TemporalDiameter,
                Metric::TreachProbability,
                Metric::TreachCorrelated,
            ],
            sizes: vec![36, 224],
            adaptive: AdaptiveConfig::new(1.0)
                .with_min_trials(8)
                .with_batch(8)
                .with_max_trials(48),
            seed,
        }
    }

    /// Expand the grid into cells, in canonical order (family, model,
    /// lifetime, metric, size — innermost last). Output rows appear in
    /// exactly this order.
    #[must_use]
    pub fn cells(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &family in &self.families {
            for &model in &self.models {
                for &lifetime in &self.lifetimes {
                    for &metric in &self.metrics {
                        for &n in &self.sizes {
                            out.push(Scenario {
                                family,
                                model,
                                lifetime,
                                metric,
                                n,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The derived seed of cell `index` — a dedicated
    /// [`SeedSequence::derive`] stream per cell, so no two cells (and no
    /// cell and any other experiment) can share draws.
    #[must_use]
    pub fn cell_seed(&self, index: usize) -> u64 {
        SeedSequence::new(self.seed)
            .child(CELL_STREAM)
            .derive(index as u64)
    }

    /// A fingerprint of everything that determines a cell's row bytes:
    /// the row format version, the seed, the adaptive stopping knobs, and
    /// the full grid. Stamped into every row so `--resume` can tell rows
    /// of *this* sweep apart from a file produced with a different seed,
    /// mode, grid or row schema — mismatched rows are recomputed instead
    /// of silently corrupting the output (splicing old-format rows in
    /// would break the byte-identical resume contract).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical description; stability across runs of
        // one version is all that matters.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        // Bumped whenever render_row's schema changes — or the meaning of
        // a field: rowfmt 3 switched the `engine` value from the n-only
        // dispatch prediction to the engine that actually answered the
        // cell (probe-served T_reach cells now say "batch", sparse
        // instances "sparse"); rowfmt 4 added the `treachd` correlated
        // metric and the `delta_replayed_buckets` field attributing the
        // differential cursor's replay work; rowfmt 5 added the sparse
        // engine's arena accounting (`arena_hiwater_words`,
        // `compactions`); rowfmt 6 added the `degraded` budget-pressure
        // count, the `status` field, and the quarantined
        // `"status":"failed"` row shape. Rows written by an older binary
        // are recomputed rather than spliced in verbatim.
        eat(b"rowfmt:6");
        eat(&self.seed.to_le_bytes());
        eat(&self.adaptive.target_half_width.to_bits().to_le_bytes());
        // The confidence level, fixed at 95% since it stopped being a
        // setting: its bits stay in the hash so every row's `spec` and
        // every existing `--resume` file keep their fingerprint.
        eat(&0.95f64.to_bits().to_le_bytes());
        eat(&self.adaptive.min_trials.to_le_bytes());
        eat(&self.adaptive.max_trials.to_le_bytes());
        eat(&self.adaptive.batch.to_le_bytes());
        for cell in self.cells() {
            eat(cell.id().as_bytes());
            eat(b"/");
        }
        h
    }
}

/// Render one completed cell as a JSON-lines row. All numeric fields use
/// fixed formatting, so re-rendering the same outcome is byte-stable.
/// `fingerprint` is the owning spec's [`SweepSpec::fingerprint`]. The
/// `engine` field names the journey engine that **actually answered**
/// the cell (`"wide"` / `"sparse"` / `"batch"` / `"scalar"`, the
/// heaviest path across its trials — a `T_reach` cell decided entirely
/// by the 64-lane probe block reports `"batch"` whatever the density
/// dispatch would have predicted), so a perf regression in the sweep
/// path is attributable to the engine that produced it.
#[must_use]
pub fn render_row(fingerprint: u64, cell: &Scenario, out: &ScenarioOutcome) -> String {
    let half_width = if out.half_width.is_finite() {
        format!("{:.4}", out.half_width)
    } else {
        "null".to_owned()
    };
    format!(
        "{{\"cell\":{},\"spec\":\"{fingerprint:016x}\",\"family\":{},\"model\":{},\"lifetime\":{},\"metric\":{},\"n\":{},\"nodes\":{},\"edges\":{},\"a\":{},\"engine\":{},\"trials\":{},\"converged\":{},\"estimate\":{:.4},\"half_width\":{},\"failures\":{:.4},\"delta_replayed_buckets\":{},\"arena_hiwater_words\":{},\"compactions\":{},\"degraded\":{},\"status\":\"ok\"}}",
        json_string(&cell.id()),
        json_string(&cell.family.name()),
        json_string(&cell.model.name()),
        json_string(&cell.lifetime.name()),
        json_string(cell.metric.name()),
        cell.n,
        out.nodes,
        out.edges,
        out.lifetime,
        json_string(out.engine),
        out.trials,
        out.converged,
        out.estimate,
        half_width,
        out.failures,
        out.delta_replayed_buckets,
        out.arena_hiwater_words,
        out.compactions,
        out.degraded,
    )
}

/// Render the quarantine row of a cell that failed every retry: same
/// `cell`/`spec` head as a healthy row (so [`parse_cell_id`] and the
/// resume scan treat it uniformly) with `"status":"failed"` instead of
/// measurements, plus the attempt count, the panic message, and — when
/// the failure was injected or a cancellation — the failpoint / reason,
/// so a red sweep names its own trigger. Resume treats these rows as
/// retryable: they are never spliced into later output verbatim.
#[must_use]
pub fn render_failed_row(
    fingerprint: u64,
    cell: &Scenario,
    attempts: u32,
    panic: &WorkerPanic,
) -> String {
    let failpoint = match &panic.injected {
        Some(f) => json_string(f.site),
        None => "null".to_owned(),
    };
    let cancelled = match panic.cancelled {
        Some(faults::CancelReason::TimedOut) => "\"timed-out\"".to_owned(),
        Some(faults::CancelReason::Requested) => "\"requested\"".to_owned(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"cell\":{},\"spec\":\"{fingerprint:016x}\",\"status\":\"failed\",\"attempts\":{attempts},\"failpoint\":{failpoint},\"cancelled\":{cancelled},\"error\":{}}}",
        json_string(&cell.id()),
        json_string(&panic.message),
    )
}

/// Is this line a quarantined [`render_failed_row`] row? Failed rows are
/// retryable: resume recomputes them instead of re-emitting verbatim.
#[must_use]
pub fn is_failed_row(line: &str) -> bool {
    line.contains("\"status\":\"failed\"")
}

/// Per-sweep robustness knobs of [`run_sweep_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Evaluation attempts per cell before quarantine (≥ 1). The default
    /// 3 rides out one-shot injected faults (attempt counters advance on
    /// every firing decision, so a deterministic schedule that fired on
    /// attempt 0 passes attempt 1) while bounding the wall-clock a
    /// genuinely broken cell can burn.
    pub max_attempts: u32,
    /// Per-attempt wall-clock budget, enforced by a cooperative
    /// [`CancelToken`] checked at every bucket boundary of every engine
    /// (`None` = no watchdog). A timed-out attempt unwinds with a
    /// structured cancellation and counts against `max_attempts`.
    pub cell_timeout: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            cell_timeout: None,
        }
    }
}

/// Extract the cell id of a sweep row, or `None` if the line is not a
/// complete row (e.g. the torn trailing line of a killed run).
#[must_use]
pub fn parse_cell_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"cell\":\"")?;
    let end = rest.find('"')?;
    if !line.ends_with('}') {
        return None;
    }
    Some(&rest[..end])
}

/// Compute one cell's row under the per-cell fault discipline: bounded
/// retry with the same derived seed — evaluation is deterministic in
/// `(cell, seed)`, so a retry that survives its faults produces the
/// byte-identical row of a fault-free run, and injected one-shot
/// schedules pass on retry because their attempt counters advanced when
/// they fired — then quarantine into a [`render_failed_row`] after
/// [`SweepOptions::max_attempts`] unwinds.
fn evaluate_cell_row(
    cell: &Scenario,
    cfg: &AdaptiveConfig,
    seed: u64,
    fingerprint: u64,
    index: usize,
    opts: SweepOptions,
) -> String {
    let mut last: Option<WorkerPanic> = None;
    for _attempt in 0..opts.max_attempts {
        let token = opts.cell_timeout.map(CancelToken::with_deadline);
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            faults::hit(faults::site::SWEEP_CELL, index as u64);
            let outcome = cell.evaluate_with_cancel(cfg, seed, 1, token);
            let rendered = render_row(fingerprint, cell, &outcome);
            faults::hit(faults::site::SWEEP_EMIT, index as u64);
            rendered
        })) {
            Ok(row) => return row,
            Err(payload) => {
                last = Some(WorkerPanic::from_payload(index, payload.as_ref()));
            }
        }
    }
    let panic = last.as_ref().expect("quarantine implies a caught panic");
    render_failed_row(fingerprint, cell, opts.max_attempts, panic)
}

/// Run the sweep: compute every cell not already present in `resume`
/// (lines of a previous, possibly interrupted run of the **same spec** —
/// rows whose spec fingerprint doesn't match are recomputed, so a file
/// from a different seed, mode or grid cannot silently corrupt the
/// output), stream rows in canonical order through `emit` as cells
/// complete, and return the full row list.
///
/// Cells are scheduled across a [`ThreadPool`] of `threads` workers, each
/// cell evaluated single-threaded — per-cell results are deterministic, so
/// neither the pool size nor scheduling order can change any byte of the
/// output.
///
/// `opts` sets the robustness knobs. Panic isolation is per-cell: an
/// attempt that unwinds (injected fault, watchdog timeout, genuine bug) is
/// retried up to [`SweepOptions::max_attempts`] times with the same
/// derived seed — a successful retry's row is byte-identical to a
/// fault-free run — and a cell that exhausts its attempts posts a
/// `"status":"failed"` quarantine row instead of hanging or killing the
/// stream. A job that dies **inside the pool
/// itself** (the `pool::job` failpoint fires before the cell body runs)
/// never fills its slot; the streaming loop detects the orphaned slot
/// through the pool's panicked-job count and recomputes the cell inline
/// — same seed, same discipline, same bytes — so the stream cannot hang
/// whatever layer the fault lands in.
pub fn run_sweep_with(
    spec: &SweepSpec,
    threads: usize,
    resume: &[String],
    opts: SweepOptions,
    mut emit: impl FnMut(&str),
) -> Vec<String> {
    assert!(opts.max_attempts >= 1, "at least one attempt per cell");
    let cells = spec.cells();
    let fingerprint = spec.fingerprint();
    let spec_tag = format!("\"spec\":\"{fingerprint:016x}\"");
    let mut cached: HashMap<&str, &str> = HashMap::new();
    for line in resume {
        if let Some(id) = parse_cell_id(line) {
            // Failed rows are retryable: recompute, never splice.
            if line.contains(&spec_tag) && !is_failed_row(line) {
                cached.entry(id).or_insert(line.as_str());
            }
        }
    }

    // Slot per cell: pre-fill from the resume file, compute the rest.
    // Every cell posts exactly one row — measured or quarantined — so
    // the streaming loop can never wait forever.
    type Slots = Arc<(Mutex<Vec<Option<String>>>, Condvar)>;
    let slots: Slots = Arc::new((Mutex::new(vec![None; cells.len()]), Condvar::new()));
    let pool = ThreadPool::new(threads.max(1));
    let cfg = spec.adaptive;
    for (i, cell) in cells.iter().enumerate() {
        let id = cell.id();
        if let Some(&line) = cached.get(id.as_str()) {
            slots.0.lock().expect("sweep slots lock")[i] = Some(line.to_owned());
            continue;
        }
        let slots = Arc::clone(&slots);
        let cell = *cell;
        let seed = spec.cell_seed(i);
        pool.execute(move || {
            let row = evaluate_cell_row(&cell, &cfg, seed, fingerprint, i, opts);
            let mut guard = slots.0.lock().expect("sweep slots lock");
            guard[i] = Some(row);
            drop(guard);
            slots.1.notify_all();
        });
    }

    // Stream rows in canonical order as they become available. A slot
    // can stay empty forever only if its job died inside the pool (the
    // `pool::job` failpoint fires before the cell body's own
    // catch_unwind is armed), so the wait is bounded: once every
    // submitted job is accounted for — filled a slot or counted panicked
    // — any still-empty slot is orphaned and the cell is recomputed
    // inline with the same seed and retry discipline (bytes can't
    // differ: the dead job never reached a failpoint the recompute
    // skips). `synthesized` keeps the accounting exact when several
    // jobs die: each inline row consumes one panicked job.
    let mut rows = Vec::with_capacity(cells.len());
    let mut synthesized = 0usize;
    for i in 0..cells.len() {
        let mut guard = slots.0.lock().expect("sweep slots lock");
        loop {
            if guard[i].is_some() {
                break;
            }
            let ever_filled = i + guard[i..].iter().filter(|s| s.is_some()).count();
            if ever_filled + pool.panicked_jobs() >= cells.len() + synthesized {
                drop(guard);
                let row =
                    evaluate_cell_row(&cells[i], &cfg, spec.cell_seed(i), fingerprint, i, opts);
                synthesized += 1;
                guard = slots.0.lock().expect("sweep slots lock");
                if guard[i].is_none() {
                    guard[i] = Some(row);
                }
                break;
            }
            let (g, _timeout) = slots
                .1
                .wait_timeout(guard, Duration::from_millis(20))
                .expect("sweep slots wait");
            guard = g;
        }
        let row = guard[i].take().expect("slot filled");
        drop(guard);
        emit(&row);
        rows.push(row);
    }
    pool.wait_idle();
    rows
}
