//! Event-driven sparse-frontier sweep engine: the closure engine for the
//! regime where nothing saturates.
//!
//! [`WideSweeper`] already skips empty buckets
//! and stops at saturation, but on *sparse, disconnected* instances —
//! `G(n, p)` at the `c·ln n / n` threshold, random regular graphs, tori,
//! the substrates the paper's connectivity results live on — neither
//! rescue applies: every occupied bucket is visited and every one of the
//! bucket's edges walks `W = ⌈n/64⌉` frontier words per direction, even
//! though a typical frontier holds a few dozen set bits for the whole
//! sweep (temporal reachability sets stay small below the connectivity
//! threshold). [`SparseSweeper`] preserves the exact "reached strictly
//! before `t`" per-bucket semantics but stores each vertex's frontier as
//! a **sorted list of reaching lanes** in an append-only arena, so the
//! per-bucket cost scales with the frontiers that actually **changed**,
//! never with `n × W`:
//!
//! * **Merge propagation.** An edge `(u, v)` at time `t` merges two
//!   sorted lane lists — `O(|L_u| + |L_v|)` sequential word-stream work;
//!   the elements unique to the source side are exactly the fresh
//!   arrivals. Nothing proportional to `n` or `W` is ever touched.
//! * **Region sharing.** List regions are immutable (updates append a
//!   new region and re-point), so after an undirected exchange both
//!   endpoints *share* the union region: a later edge between equally
//!   reachable vertices is recognised by a pointer compare and costs
//!   `O(1)`. An edge into a still-empty frontier (the common case in
//!   column-block sweeps) adopts the source's region — also `O(1)`, no
//!   copy.
//! * **Version-memoised relabels.** Every vertex has a change counter;
//!   each (edge, direction) remembers the source's counter from its last
//!   application, so a relabel of the same edge whose source has not
//!   changed since is skipped outright — sound because the previous
//!   application already transferred everything missing, frontiers only
//!   grow, and labels along a journey strictly increase (Definition 2).
//!   Under single-label assignments the memo (and its `O(m)` reset) is
//!   skipped entirely.
//! * **Conflict-scanned buckets.** Endpoint-disjoint buckets (virtually
//!   all buckets at sparse fill) commit in place edge by edge. A bucket
//!   with a shared endpoint falls back to a snapshot discipline: every
//!   endpoint's `(start, len)` is recorded before the bucket runs,
//!   sources read the snapshot, targets merge live — reproducing the
//!   frozen-`before` bucket commit of the scalar sweep exactly.
//! * The wide engine's **saturation early-exit** and **empty-bucket
//!   skipping** (via [`TemporalNetwork::occupied_times`]) are kept.
//!
//! * **Arena compaction.** Relabel-heavy multi-label sweeps strand dead
//!   regions behind re-pointed frontiers; when the arena exceeds 3× the
//!   live-region footprint (and the
//!   [`SparseSweeper::set_compaction_floor`] floor), the
//!   engine **evacuates live regions between buckets** — sorted layout
//!   and intra-shard sharing preserved, accounted in
//!   [`SweepStats::arena_hiwater_words`] / [`SweepStats::compactions`].
//!
//! The `n × ⌈n/64⌉` closure matrix consumers read through
//! [`SparseSweeper::reach_word`] is never built whole: a **streaming
//! closure** materialises 256-row blocks on demand from the lists
//! (`O(reached bits)` per block) into an LRU bounded by a byte budget
//! ([`SparseSweeper::set_closure_budget_bytes`], 256 MiB default), and
//! whole-matrix
//! consumers stream rows through [`SparseSweeper::for_each_reach_row`]
//! with one pooled row buffer. Sweeps that only need stats or arrival
//! callbacks touch neither — which is what makes an `n = 10⁶` closure
//! feasible: the arena holds the reached pairs (a few MiB at constant
//! average degree), not the 116 GiB of mostly-zero frontier words.
//!
//! Sharded all-source sweeps (`lanes < n` over contiguous source blocks,
//! one [`SparseSweeper`] per worker walking the shared bucket index)
//! combine their per-shard results (arrival rows, diameter terms, closure
//! bits) in canonical shard order, so the parallel entry points are
//! **bit-identical for any worker count**
//! (`tests/sparse_proptests.rs` pins 1/2/8). Partial-source sweeps run
//! **agenda-driven**: a time-keyed heap of the windows whose buckets can
//! matter, so a shard pays only its causal cone, not the full bucket
//! walk.
//!
//! Per-(source, target) arrival times are **bit-identical** to the wide
//! engine and `n` scalar [`foremost`](crate::foremost::foremost) sweeps
//! (`tests/sparse_proptests.rs` pins both, plus horizons, start times,
//! ragged `n` and block sharding).
//!
//! ## Engine choice
//!
//! [`EngineChoice::pick`] is the dispatch of every all-source entry
//! point, and it always names a full-width engine: below
//! [`WIDE_CROSSOVER`] the wide engine, whatever the density; at and
//! above it the *density* of the occupied buckets decides — instances
//! whose occupied buckets carry at least `n / 16` time-edges on average
//! (cliques, complete bipartite substrates: saturation plausible,
//! branch-free inner loop worth it) keep the wide engine, everything
//! sparser goes event-driven.
//! [`EngineChoice::pick_parallel`] extends the model with the worker
//! count: the wide engine's column blocks parallelise its `n × W` fill,
//! while the event-driven shards each repeat the bucket walk, so the
//! crossover shifts wide-ward as workers grow (pinned by
//! `parallel_dispatch_crossover_pins_the_worker_count`).

use crate::engine::SweepStats;
use crate::kernels::{
    self, emit, merge_dual_emitting, merge_into_emitting, AlignedLanes, AlignedSlab,
};
use crate::network::TemporalNetwork;
use crate::wide::{
    cache_block_count, EngineKind, FrontierEngine, SweepScratch, WideSweeper, WIDE_CROSSOVER,
};
use crate::Time;
use ephemeral_graph::NodeId;
use ephemeral_parallel::faults::{self, CancelToken};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Average time-edges per occupied bucket, as a fraction of `n`, above
/// which the all-source entry points prefer the branch-free
/// [`WideSweeper`] over the event-driven
/// [`SparseSweeper`]: `M / occupied ≥ n / DENSE_BUCKET_DIVISOR` reads
/// "each visited bucket touches a constant fraction of the vertices", the
/// regime where the closure saturates within a few buckets and the wide
/// engine's early-exit dominates.
pub const DENSE_BUCKET_DIVISOR: usize = 16;

/// Time-edges per vertex above which the event-driven engine loses even
/// when the buckets are diffuse: past `M > SPARSE_EDGE_FACTOR · n` the
/// temporal reach sets grow towards `Θ(n)` (the static average degree is
/// high enough for a well-connected giant cluster), every reacher-list
/// merge streams a long list, and the wide engine's fixed `W`-word rows
/// win back. Near-threshold `G(n, p = c·ln n / n)` instances sit above
/// this bound; the genuinely sparse substrates (constant average degree,
/// stars, paths, tori, random regular graphs) sit below it.
pub const SPARSE_EDGE_FACTOR: usize = 3;

/// The density-aware engine dispatch used uniformly by the all-source
/// entry points (closure, distances, diameter, connectivity, `T_reach`,
/// metrics) and the Monte Carlo scratch loops.
#[derive(Debug, Clone, Copy)]
pub struct EngineChoice;

impl EngineChoice {
    /// Pick the engine for an `n`-vertex instance with
    /// `occupied_buckets` non-empty time buckets and `time_edges` labels:
    /// [`EngineKind::Wide`] below [`WIDE_CROSSOVER`] (the wide matrix is
    /// at most three words per vertex there, whatever the density); at
    /// and above it [`EngineKind::Sparse`] only for genuinely sparse
    /// instances — diffuse buckets (average fill below
    /// `n /` [`DENSE_BUCKET_DIVISOR`]) *and* constant-ish average degree
    /// (at most [`SPARSE_EDGE_FACTOR`] time-edges per vertex, keeping the
    /// reacher lists short) — and [`EngineKind::Wide`] otherwise. It
    /// never returns [`EngineKind::Batch`] or [`EngineKind::Scalar`].
    ///
    /// ```
    /// use ephemeral_temporal::sparse::EngineChoice;
    /// use ephemeral_temporal::wide::EngineKind;
    ///
    /// // Small n: always wide.
    /// assert_eq!(EngineChoice::pick(64, 64, 2016), EngineKind::Wide);
    /// // Dense clique at a = n: every bucket floods a constant fraction.
    /// assert_eq!(EngineChoice::pick(4096, 4096, 16_773_120), EngineKind::Wide);
    /// // Near-threshold G(n, p = 1.5·ln n / n): diffuse buckets but high
    /// // degree — reach sets grow towards n, the wide engine keeps it.
    /// assert_eq!(EngineChoice::pick(4096, 4093, 25_562), EngineKind::Wide);
    /// // Sparse G(n, p) at average degree 4, lifetime 4n: event-driven.
    /// assert_eq!(EngineChoice::pick(4096, 6328, 8066), EngineKind::Sparse);
    /// ```
    #[must_use]
    pub const fn pick(n: usize, occupied_buckets: usize, time_edges: usize) -> EngineKind {
        Self::pick_parallel(n, occupied_buckets, time_edges, 1)
    }

    /// [`EngineChoice::pick`] with the available worker count folded into
    /// the cost model. The wide engine's dominant cost — streaming
    /// `M · ⌈n/64⌉` frontier words — splits across workers by column
    /// blocks with near-perfect efficiency (blocks never interact), so
    /// `w` workers divide its effective fill cost by `w`. The sparse
    /// engine's per-shard work is serial inside each shard: every shard
    /// pays its own agenda walk and bucket commits, and its merge costs
    /// shrink only mildly with narrower shards. The dense-fill threshold
    /// therefore drops by the worker count —
    /// `M ·` [`DENSE_BUCKET_DIVISOR`] `· w ≥ occupied · n` picks
    /// [`EngineKind::Wide`] — while the degree bound
    /// ([`SPARSE_EDGE_FACTOR`], a property of reach-set growth, not of
    /// parallelism) is unchanged. `workers = 0` is treated as 1.
    ///
    /// ```
    /// use ephemeral_temporal::sparse::EngineChoice;
    /// use ephemeral_temporal::wide::EngineKind;
    ///
    /// // A few-occupied-buckets instance right at the 8-worker
    /// // crossover: sequential dispatch keeps it event-driven, eight
    /// // workers make the wide engine's divided fill cheaper.
    /// assert_eq!(
    ///     EngineChoice::pick_parallel(1024, 256, 2048, 1),
    ///     EngineKind::Sparse
    /// );
    /// assert_eq!(
    ///     EngineChoice::pick_parallel(1024, 256, 2048, 8),
    ///     EngineKind::Wide
    /// );
    /// ```
    #[must_use]
    pub const fn pick_parallel(
        n: usize,
        occupied_buckets: usize,
        time_edges: usize,
        workers: usize,
    ) -> EngineKind {
        if n < WIDE_CROSSOVER {
            return EngineKind::Wide;
        }
        let occupied = if occupied_buckets == 0 {
            1
        } else {
            occupied_buckets
        };
        let workers = if workers == 0 { 1 } else { workers };
        if time_edges
            .saturating_mul(DENSE_BUCKET_DIVISOR)
            .saturating_mul(workers)
            >= occupied.saturating_mul(n)
            || time_edges > SPARSE_EDGE_FACTOR.saturating_mul(n)
        {
            EngineKind::Wide
        } else {
            EngineKind::Sparse
        }
    }

    /// [`EngineChoice::pick`] fed from a network's own counts
    /// (`num_nodes`, `occupied_times().len()`, `num_time_edges`).
    #[must_use]
    pub fn pick_for(tn: &TemporalNetwork) -> EngineKind {
        Self::pick_for_parallel(tn, 1)
    }

    /// [`EngineChoice::pick_parallel`] fed from a network's own counts.
    #[must_use]
    pub fn pick_for_parallel(tn: &TemporalNetwork, workers: usize) -> EngineKind {
        Self::pick_parallel(
            tn.num_nodes(),
            tn.occupied_times().len(),
            tn.num_time_edges(),
            workers,
        )
    }

    /// The one dispatch every all-source entry point shares.
    ///
    /// Runs `r` with the engine type [`EngineChoice::pick_for_parallel`]
    /// selects (the worker count is part of the cost model — see
    /// [`EngineChoice::pick_parallel`]) and that engine's column-shard
    /// count: the wide engine shards into
    /// `workers.max(cache_block_count(n))` blocks so its cache blocking
    /// engages regardless of worker count, the sparse engine only as far
    /// as the workers — each shard runs its own arena and agenda over
    /// the shared bucket index and visits only its causal cone.
    ///
    /// Sequential scratch callers pass `workers = 1` (wide then shards to
    /// exactly its cache schedule, sparse to the single block `0..n`) and
    /// fetch their warm engine inside `run` via
    /// [`FrontierEngine::from_scratch`].
    pub fn run<R: FrontierRun>(tn: &TemporalNetwork, workers: usize, r: R) -> R::Out {
        let n = tn.num_nodes();
        match Self::pick_for_parallel(tn, workers) {
            EngineKind::Sparse => r.run::<SparseSweeper>(workers),
            // `pick_parallel` names only the two full-width engines.
            _ => r.run::<WideSweeper>(workers.max(cache_block_count(n))),
        }
    }

    /// [`EngineChoice::run`] wrapped in `Some`; it never returns `None`.
    /// It stays only because the benchmark harness
    /// (`perfbench/src/closure.rs`) calls `.unwrap_or` on it, and goes
    /// with the next benchmark change.
    pub fn dispatch<R: FrontierRun>(tn: &TemporalNetwork, workers: usize, r: R) -> Option<R::Out> {
        Some(Self::run(tn, workers, r))
    }
}

/// A full-width computation generic over the frontier engine: the body
/// that used to be copied into every `match EngineChoice::pick_for` arm,
/// written once. The closure, distance, diameter, connectivity,
/// `T_reach`, metrics and delta entry points each implement this with
/// their per-block work; [`EngineChoice::run`] instantiates it with the
/// engine type and shard count the density dispatch selects.
pub trait FrontierRun {
    /// What the computation produces.
    type Out;

    /// Run through engine `S`, sharding the sources into `shards`
    /// word-aligned column blocks (see
    /// [`source_blocks`](crate::wide::source_blocks) /
    /// [`block_schedule`](crate::wide::block_schedule) /
    /// [`probe_blocks`](crate::wide::probe_blocks)).
    fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out;
}

/// Sentinel for "this (edge, direction) has never propagated".
const NEVER_APPLIED: u64 = u64::MAX;

/// Default byte budget of the streaming closure's row-block cache
/// (see [`SparseSweeper::reach_word`]); override per sweeper with
/// [`SparseSweeper::set_closure_budget_bytes`]. 256 MiB holds the whole
/// closure up to `n ≈ 46k` and caps the resident footprint far below the
/// `n²/8`-byte matrix beyond it (125 GB at `n = 10⁶`).
pub const DEFAULT_CLOSURE_BUDGET_BYTES: usize = 256 << 20;

/// Vertices per materialised closure row block: 256 rows keep a block at
/// `2 KiB · ⌈lanes/64⌉` — big enough to amortise the list walk, small
/// enough that even one block stays modest at a million lanes.
const CLOSURE_BLOCK_ROWS: usize = 256;

/// Arena size, in words, below which compaction is never considered —
/// evacuating a few-KiB arena costs more than the cache pressure it
/// relieves. Tests lower it through
/// [`SparseSweeper::set_compaction_floor`] to force compaction cycles on
/// small instances.
const COMPACT_MIN_WORDS: usize = 1 << 15;

/// Garbage multiple that triggers evacuation: compact when the arena
/// exceeds this many times the summed live region lengths. Live lengths
/// count shared regions once per sharer, so the bound is conservative —
/// when it fires, at least `1 − 1/factor` of the arena is dead.
const COMPACT_GARBAGE_FACTOR: usize = 3;

/// One cached block of [`CLOSURE_BLOCK_ROWS`] materialised closure rows
/// (`block == u32::MAX` marks a slot invalidated by a new sweep; the
/// buffer is kept for warm reuse).
#[derive(Debug, Clone, Default)]
struct RowBlock {
    block: u32,
    /// LRU clock value at the last touch.
    tick: u64,
    words: AlignedSlab,
}

/// The arena is addressed by `u32` region offsets; growing past that is
/// astronomically far outside any dispatched workload (the arena holds
/// reached pairs), but a direct caller on an adversarial instance must
/// get a panic, not silently wrapped offsets.
#[inline]
fn arena_offset(arena: &[u32]) -> u32 {
    u32::try_from(arena.len()).expect("sparse arena exceeds u32 region offsets")
}

/// A vertex's frontier region: `arena[start .. start + len]`, one 8-byte
/// slot so an application touches a single metadata cache line per
/// endpoint. `u32` offsets bound the arena at 4 Gi entries — far beyond
/// any dispatched workload (the arena holds the reached pairs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Region {
    start: u32,
    len: u32,
}

// The merge inner loops — `kernels::merge_dual_emitting`,
// `kernels::merge_into_emitting` (branch-light, with a galloping path for
// skewed list sizes) and the word-grouped `kernels::emit` — live in
// [`crate::kernels`] with the rest of the hot word kernels, pinned
// bit-identical to scalar references there.

/// Reusable scratch state of the event-driven sparse-frontier sweep.
///
/// Construction is free; the first sweep sizes the per-vertex region
/// tables and the arena, and subsequent sweeps of same-shaped networks
/// reuse them, so a Monte Carlo loop that keeps one sweeper per worker
/// performs no per-trial allocation once warm (covered by
/// `ephemeral-core`'s allocation regression test).
///
/// ```
/// use ephemeral_graph::generators;
/// use ephemeral_temporal::sparse::SparseSweeper;
/// use ephemeral_temporal::wide::FrontierEngine;
/// use ephemeral_temporal::{LabelAssignment, TemporalNetwork, NEVER};
///
/// // 0—1 @1, 1—2 @2: all three sources answered in one pass.
/// let tn = TemporalNetwork::new(
///     generators::path(3),
///     LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
///     2,
/// )
/// .unwrap();
/// let mut sweeper = SparseSweeper::new();
/// let mut arrivals = vec![NEVER; 3 * 3];
/// let stats = sweeper.arrivals_into(&tn, 0..3, 0, &mut arrivals);
/// assert_eq!(arrivals, vec![0, 1, 2, 1, 0, 2, NEVER, 2, 0]);
/// assert_eq!(stats.unreached_pairs(3), 1); // 2 never reaches 0
/// assert_eq!(stats.buckets_visited, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseSweeper {
    /// Append-only storage of the sorted lane lists in a 64-byte-aligned
    /// lane buffer; regions are immutable once written (updates append
    /// and re-point), which is what makes region sharing sound.
    arena: AlignedLanes,
    /// Per-vertex frontier region (`len == lanes` ⇔ saturated).
    meta: Vec<Region>,
    /// Pre-bucket region + version snapshots for conflicted buckets
    /// (valid where `stamp[v] == epoch`).
    snap_meta: Vec<Region>,
    snap_ver: Vec<u64>,
    /// Per-vertex change counter, bumped whenever the frontier grows.
    version: Vec<u64>,
    /// `version[src]` at the last application of each (edge, direction):
    /// slot `2e` for `u → v`, `2e + 1` for `v → u`. Unused (and never
    /// reset) under single-label assignments.
    edge_version: Vec<u64>,
    /// `stamp[v] == epoch` marks `v` as an endpoint already seen in the
    /// current bucket's conflict scan.
    stamp: Vec<u64>,
    /// Merge scratch: the union under construction.
    out_buf: Vec<u32>,
    /// Pending-bucket min-heap of occupied-window indices — the agenda of
    /// event-driven partial-source sweeps. Empty between sweeps.
    agenda: BinaryHeap<Reverse<u32>>,
    /// `sched[i] == sched_epoch` marks window bucket `i` as already
    /// scheduled (pending or processed) this sweep.
    sched: Vec<u64>,
    sched_epoch: u64,
    /// Pooled compaction scratch: the sorted unique live `(start, len)`
    /// keys, their evacuated starts, and the evacuation buffer (kept to
    /// ping-pong with `arena`).
    compact_keys: Vec<(u32, u32)>,
    compact_starts: Vec<u32>,
    compact_buf: AlignedLanes,
    /// Arena words below which compaction is never considered
    /// (`0` = the `COMPACT_MIN_WORDS` default).
    compact_floor: usize,
    /// Lifetime arena high-water mark (words) across every sweep.
    arena_hiwater: usize,
    /// Monotone count of degradation events (forced budget compactions +
    /// closure block shrinks) across this sweeper's lifetime — the
    /// delta-foldable counterpart of the per-sweep [`SweepStats::degraded`].
    degraded_total: u64,
    /// Lifetime compaction count across every sweep.
    compactions_total: u64,
    /// Streaming-closure row-block cache (see
    /// [`SparseSweeper::reach_word`]), LRU under `closure_budget` bytes.
    cache: Vec<RowBlock>,
    cache_tick: u64,
    /// Row-block cache byte budget
    /// (`0` = [`DEFAULT_CLOSURE_BUDGET_BYTES`]).
    closure_budget: usize,
    /// Pooled row buffer of [`SparseSweeper::for_each_reach_row`].
    row_buf: AlignedSlab,
    /// Words per row of the most recent sweep.
    width: usize,
    /// Vertices of the most recent sweep.
    n: usize,
    /// Vertices per closure row block of the most recent sweep —
    /// [`CLOSURE_BLOCK_ROWS`] unless the byte budget forced a shrink
    /// (the degradation path; see [`SweepStats::degraded`]).
    block_rows: usize,
    /// Arena word budget (`0` = unlimited): exceeding it between buckets
    /// forces a compaction instead of growing on — the degradation path
    /// for memory pressure under relabel churn.
    arena_budget_words: usize,
    /// Cooperative cancellation token checked at every bucket boundary
    /// (`None` = never fires).
    cancel: Option<CancelToken>,
}

impl SparseSweeper {
    /// A sweeper with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Words per frontier row of the most recent sweep (`⌈lanes/64⌉`).
    #[must_use]
    pub const fn words_per_row(&self) -> usize {
        self.width
    }

    /// Word `w` of the closure row of `v` after the most recent sweep:
    /// bit `i` set iff source `sources.start + 64w + i` reached `v`
    /// (sources count themselves). This is the **streaming closure**:
    /// rows are materialised from the reacher lists per block of
    /// `CLOSURE_BLOCK_ROWS` vertices, on demand, into an LRU cache
    /// bounded by the [`SparseSweeper::set_closure_budget_bytes`] byte
    /// budget — consumers that walk rows in order pay `O(reached bits)`
    /// list work in total and never hold more than the budget resident,
    /// whatever `n` is. Stats-only sweeps never materialise anything;
    /// whole-closure visitors should prefer
    /// [`SparseSweeper::for_each_reach_row`], which streams through one
    /// row buffer and skips the cache entirely.
    ///
    /// # Panics
    /// If `v` or `w` is out of range for the last swept network.
    #[must_use]
    pub fn reach_word(&mut self, v: NodeId, w: usize) -> u64 {
        assert!(w < self.width, "word {w} out of range");
        let vi = v as usize;
        assert!(vi < self.n, "vertex {v} out of range");
        let b = (vi / self.block_rows) as u32;
        let slot = match self.cache.iter().position(|s| s.block == b) {
            Some(i) => i,
            None => self.materialise_block(b),
        };
        self.cache_tick += 1;
        self.cache[slot].tick = self.cache_tick;
        self.cache[slot].words.words()[(vi % self.block_rows) * self.width + w]
    }

    /// Fill the closure row block `b` from the reacher lists into a free
    /// (or LRU-evicted) cache slot under the byte budget; returns the
    /// slot index. At least one slot is always kept, so a single
    /// `reach_word` probe works under any budget.
    fn materialise_block(&mut self, b: u32) -> usize {
        let budget = if self.closure_budget == 0 {
            DEFAULT_CLOSURE_BUDGET_BYTES
        } else {
            self.closure_budget
        };
        let block_rows = self.block_rows.max(1);
        let block_bytes = block_rows * self.width * 8;
        let max_slots = (budget / block_bytes.max(1)).max(1);
        self.cache.truncate(max_slots);
        let slot = if self.cache.len() < max_slots {
            self.cache.push(RowBlock::default());
            self.cache.len() - 1
        } else {
            let mut lru = 0;
            for (i, s) in self.cache.iter().enumerate() {
                if s.tick < self.cache[lru].tick {
                    lru = i;
                }
            }
            lru
        };
        let lo = b as usize * block_rows;
        let hi = (lo + block_rows).min(self.n);
        let width = self.width;
        let Self {
            cache, meta, arena, ..
        } = self;
        let s = &mut cache[slot];
        s.block = b;
        s.words.resize_zeroed(block_rows * width);
        let words = s.words.words_mut();
        for (i, m) in meta[lo..hi].iter().enumerate() {
            let st = m.start as usize;
            let row = i * width;
            kernels::set_lane_bits(
                &mut words[row..row + width],
                &arena[st..st + m.len as usize],
            );
        }
        slot
    }

    /// Visit the closure row of every vertex of the most recent sweep in
    /// ascending vertex order, streaming each row out of the reacher
    /// lists through one pooled `words_per_row`-sized buffer — set words
    /// are written before and cleared after each visit, so a whole-
    /// closure pass costs `O(n + reached bits)` with `O(⌈lanes/64⌉)`
    /// resident memory: no matrix, no cache. A no-op when the last sweep
    /// carried no lanes (matching the wide engine).
    pub fn for_each_reach_row(&mut self, mut f: impl FnMut(NodeId, &[u64])) {
        let width = self.width;
        let n = self.n;
        if width == 0 {
            return;
        }
        let Self {
            row_buf,
            meta,
            arena,
            ..
        } = self;
        row_buf.resize_zeroed(width);
        let row = row_buf.words_mut();
        for (x, m) in meta[..n].iter().enumerate() {
            let st = m.start as usize;
            let list = &arena[st..st + m.len as usize];
            kernels::set_lane_bits(row, list);
            f(x as NodeId, row);
            kernels::clear_lane_bits(row, list);
        }
    }

    /// Cap the streaming closure's row-block cache at `bytes`
    /// (`0` restores [`DEFAULT_CLOSURE_BUDGET_BYTES`]). Takes effect on
    /// the next cache miss; at least one block is always kept.
    pub fn set_closure_budget_bytes(&mut self, bytes: usize) {
        self.closure_budget = bytes;
    }

    /// Override the arena size, in words, below which compaction is
    /// never considered (`0` restores the `COMPACT_MIN_WORDS` built-in
    /// floor). Tests lower it to force compaction cycles on small
    /// instances.
    pub fn set_compaction_floor(&mut self, words: usize) {
        self.compact_floor = words;
    }

    /// Cap the region arena at `words` `u32` entries (`0` = unlimited).
    /// Exceeding the cap between buckets forces an evacuation regardless
    /// of the garbage factor — the sweep degrades (more compaction work,
    /// counted in [`SweepStats::degraded`]) instead of aborting under
    /// memory pressure. Arrival times are unaffected: compaction never
    /// changes region contents, only their placement.
    pub fn set_arena_budget_words(&mut self, words: usize) {
        self.arena_budget_words = words;
    }

    /// Arm (or clear) the cooperative cancellation token checked at every
    /// bucket boundary of subsequent sweeps — the sweep grid's per-cell
    /// watchdog (`--cell-timeout`) installs the cell's token here.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Lifetime arena high-water mark, in words, across every sweep this
    /// sweeper ran (monotone; per-sweep values are on the returned
    /// [`SweepStats::arena_hiwater_words`]).
    #[must_use]
    pub const fn arena_hiwater_words(&self) -> usize {
        self.arena_hiwater
    }

    /// Lifetime compaction count across every sweep this sweeper ran
    /// (monotone; per-sweep counts are on the returned
    /// [`SweepStats::compactions`]).
    #[must_use]
    pub const fn compactions_total(&self) -> u64 {
        self.compactions_total
    }

    /// Monotone degradation-event count across this sweeper's lifetime
    /// (forced compactions under [`SparseSweeper::set_arena_budget_words`]
    /// plus closure row-block shrinks under the byte budget). Fold by
    /// per-trial delta, like [`SparseSweeper::compactions_total`].
    #[must_use]
    pub const fn degraded_total(&self) -> u64 {
        self.degraded_total
    }

    /// One event-driven sweep from the contiguous source range `sources`
    /// (lane `i` ↔ vertex `sources.start + i`), using labels strictly
    /// greater than `start_time`. `on_reach(v, w, fresh, t)` fires with
    /// the lanes of word `w` that first reached `v` at time `t`, in
    /// non-decreasing order of `t` — the wide engine's callback contract.
    ///
    /// # Panics
    /// If any source is out of range.
    pub fn sweep(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> SweepStats {
        self.sweep_with_horizon(tn, sources, start_time, tn.lifetime(), on_reach)
    }

    /// [`SparseSweeper::sweep`] ignoring every label greater than
    /// `horizon` (matching `foremost_with_horizon` lane for lane).
    ///
    /// All-source sweeps walk the occupied window linearly (every bucket
    /// is causally reachable from *some* source, and the linear walk is
    /// what the stats contract pins). Partial-source sweeps — the shards
    /// of a parallel closure, the probe blocks — run **event-driven off
    /// an agenda**: a bucket enters the pending min-heap only when some
    /// vertex with an incident label in that bucket has grown, so a
    /// shard visits exactly its causal cone instead of re-paying the
    /// whole occupied walk per shard. Arrival times are bit-identical
    /// either way; only `buckets_visited` (the work observable) shrinks.
    ///
    /// # Panics
    /// If any source is out of range.
    #[allow(clippy::too_many_lines)]
    pub fn sweep_with_horizon(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        horizon: Time,
        mut on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> SweepStats {
        let n = tn.num_nodes();
        let lanes = sources.len();
        let width = lanes.div_ceil(64);
        self.width = width;
        self.n = n;
        // A new sweep invalidates the streaming-closure cache (buffers
        // are kept for warm reuse; tick 0 makes stale slots evict first).
        for s in &mut self.cache {
            s.block = u32::MAX;
            s.tick = 0;
        }
        // Degradation, not abortion: if even one closure row block of
        // the default shape would blow the byte budget, halve the rows
        // per block until a block fits (floor 1 row). Smaller blocks
        // amortise the list walk worse — a cost, counted once on this
        // sweep's stats — but the cache stays inside its budget.
        let closure_budget = if self.closure_budget == 0 {
            DEFAULT_CLOSURE_BUDGET_BYTES
        } else {
            self.closure_budget
        };
        self.block_rows = CLOSURE_BLOCK_ROWS;
        while self.block_rows > 1 && self.block_rows * width * 8 > closure_budget {
            self.block_rows /= 2;
        }
        let mut degraded = usize::from(self.block_rows < CLOSURE_BLOCK_ROWS);
        self.arena.clear();
        // Warm headroom: same-shaped redraws produce arenas of similar
        // size, so carrying the previous high-water (plus the seeds)
        // keeps warm trials allocation-free.
        self.arena.reserve(lanes);
        self.meta.clear();
        self.meta.resize(n, Region::default());
        self.snap_meta.clear();
        self.snap_meta.resize(n, Region::default());
        // The version counters exist only to feed the relabel memo;
        // under single-label assignments both they and the memo are idle
        // and skip their O(n)/O(m) resets and per-application traffic.
        let use_memo = tn.num_time_edges() > tn.graph().num_edges();
        self.snap_ver.clear();
        self.version.clear();
        if use_memo {
            self.snap_ver.resize(n, 0);
            self.version.resize(n, 0);
        }
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.out_buf.clear();
        self.out_buf.reserve(lanes);
        self.edge_version.clear();
        if use_memo {
            self.edge_version
                .resize(2 * tn.graph().num_edges(), NEVER_APPLIED);
        }
        for (lane, s) in sources.clone().enumerate() {
            assert!((s as usize) < n, "source {s} out of range");
            self.meta[s as usize] = Region {
                start: arena_offset(&self.arena),
                len: 1,
            };
            self.arena.push(lane as u32);
        }
        let target = lanes * n;
        let lane_count = lanes as u32;
        let mut reached = lanes;
        let mut last_arrival: Time = 0;
        let mut buckets_visited = 0usize;
        let mut epoch = 0u64;
        let directed = tn.graph().is_directed();
        let window = tn.occupied_between(start_time, horizon);
        // Partial-source sweeps run event-driven off the agenda; the
        // all-source sweep keeps the linear occupied walk (every bucket
        // would be scheduled anyway, and the linear order is what the
        // cross-engine stats contract pins).
        let event_driven = lanes < n;
        self.sched_epoch += 1;
        let sepoch = self.sched_epoch;
        if event_driven {
            self.agenda.clear();
            if self.sched.len() < window.len() {
                self.sched.resize(window.len(), 0);
            }
        }
        let floor = if self.compact_floor == 0 {
            COMPACT_MIN_WORDS
        } else {
            self.compact_floor
        };
        let mut compact_check = floor.max(2 * self.arena.len());
        let mut hiwater = self.arena.len();
        let mut compactions = 0usize;
        let budget = self.arena_budget_words;
        let mut budget_check = budget;
        let cancel = self.cancel.clone();
        let Self {
            arena,
            meta,
            snap_meta,
            snap_ver,
            version,
            edge_version,
            stamp,
            out_buf,
            agenda,
            sched,
            compact_keys,
            compact_starts,
            compact_buf,
            ..
        } = self;
        if event_driven {
            for s in sources.clone() {
                schedule_incident(tn, s, start_time, horizon, window, sched, sepoch, agenda);
            }
        }
        let mut cursor = 0usize;
        loop {
            if reached >= target {
                break; // saturated: no later bucket can set a fresh bit
            }
            let t = if event_driven {
                match agenda.pop() {
                    // Pushes are always for strictly later buckets, so
                    // pops come out in strictly ascending time order —
                    // the bucket semantics of the linear walk.
                    Some(Reverse(i)) => window[i as usize],
                    None => break, // agenda dry: nothing pending can grow
                }
            } else if let Some(&t) = window.get(cursor) {
                cursor += 1;
                t
            } else {
                break;
            };
            faults::hit(faults::site::ENGINE_BUCKET, u64::from(t));
            if let Some(c) = &cancel {
                c.checkpoint();
            }
            buckets_visited += 1;
            let edges = tn.edges_at(t);
            // Conflict scan: sparse buckets almost never carry two edges
            // sharing an endpoint. Endpoint-disjoint buckets commit in
            // place edge by edge (each edge's reads and writes touch rows
            // no other edge of the bucket touches). A conflicted bucket
            // snapshots every endpoint's region first; sources then read
            // the snapshot while targets merge live — the frozen-`before`
            // discipline of the scalar sweep, list-shaped. Single-edge
            // buckets (the common case at sparse fill) skip the scan.
            epoch += 1;
            let mut conflict = false;
            if edges.len() > 1 {
                for &e in edges {
                    let (u, v) = tn.graph().endpoints(e);
                    for w in [u, v] {
                        let wi = w as usize;
                        if stamp[wi] == epoch {
                            conflict = true;
                        } else {
                            stamp[wi] = epoch;
                            snap_meta[wi] = meta[wi];
                            if use_memo {
                                snap_ver[wi] = version[wi];
                            }
                        }
                    }
                }
            }
            let mut bucket_fresh = 0usize;
            for &e in edges {
                let (u, v) = tn.graph().endpoints(e);
                if u == v {
                    continue; // a self-loop can never extend a journey
                }
                let (ui, vi) = (u as usize, v as usize);
                // Frozen sources: live regions in a disjoint bucket, the
                // pre-bucket snapshot in a conflicted one.
                let mu = if conflict { snap_meta[ui] } else { meta[ui] };
                let mv = if conflict { snap_meta[vi] } else { meta[vi] };
                let (su, sul) = (mu.start as usize, mu.len as usize);
                let (sv, svl) = (mv.start as usize, mv.len as usize);
                // The event-driven short-circuits, all one-word checks: a
                // direction is dead when its (frozen) source is empty,
                // its target is saturated, or its source has not changed
                // since this arc last propagated (a relabel).
                let fwd = sul != 0
                    && meta[vi].len != lane_count
                    && (!use_memo || edge_version[2 * e as usize] != version[ui]);
                let bwd = !directed
                    && svl != 0
                    && meta[ui].len != lane_count
                    && (!use_memo || edge_version[2 * e as usize + 1] != version[vi]);
                if !fwd && !bwd {
                    continue;
                }
                let mut fresh_u = 0u32;
                let mut fresh_v = 0u32;
                if fwd && bwd && !conflict {
                    // Undirected exchange in a disjoint bucket: both rows
                    // become the union, so they can *share* one region.
                    if su == sv && sul == svl {
                        // Identical shared region: nothing can flow.
                    } else if sul == 1 && svl == 1 {
                        // Singleton exchange — the dominant early shape.
                        let a = arena[su];
                        let b = arena[sv];
                        if a != b {
                            let out = arena_offset(arena);
                            arena.push(a.min(b));
                            arena.push(a.max(b));
                            meta[ui] = Region { start: out, len: 2 };
                            meta[vi] = Region { start: out, len: 2 };
                            fresh_u = 1;
                            fresh_v = 1;
                            on_reach(u, (b / 64) as usize, 1u64 << (b % 64), t);
                            on_reach(v, (a / 64) as usize, 1u64 << (a % 64), t);
                        }
                    } else {
                        let (fu, fv) = merge_dual_emitting(
                            &arena[su..su + sul],
                            &arena[sv..sv + svl],
                            out_buf,
                            u,
                            v,
                            t,
                            &mut on_reach,
                        );
                        fresh_u = fu;
                        fresh_v = fv;
                        if fresh_u == 0 && fresh_v == 0 {
                            // Equal content in different regions:
                            // canonicalise so the next meeting is O(1).
                            meta[ui] = mv;
                        } else {
                            let out = arena_offset(arena);
                            arena.extend_from_slice(out_buf);
                            let r = Region {
                                start: out,
                                len: out_buf.len() as u32,
                            };
                            meta[ui] = r;
                            meta[vi] = r;
                        }
                    }
                } else {
                    // Single directions (directed edges, one-sided
                    // eligibility, or a conflicted bucket, where the two
                    // directions must not share a region because later
                    // edges may grow either side independently).
                    if fwd {
                        fresh_v = propagate(arena, meta, out_buf, su, sul, vi, t, v, &mut on_reach);
                    }
                    if bwd {
                        fresh_u = propagate(arena, meta, out_buf, sv, svl, ui, t, u, &mut on_reach);
                    }
                }
                if use_memo {
                    if fresh_v > 0 {
                        version[vi] += 1;
                    }
                    if fresh_u > 0 {
                        version[ui] += 1;
                    }
                }
                // Record the memo *after* the bumps: whatever this
                // application moved, each target now contains everything
                // its frozen source held. In a conflicted bucket the
                // frozen content is the *snapshot*, and the source may
                // have grown since (as a target of another edge this
                // bucket) — the memo must record the snapshot's version,
                // or a later relabel would wrongly skip the newer bits.
                if use_memo {
                    if fwd {
                        edge_version[2 * e as usize] =
                            if conflict { snap_ver[ui] } else { version[ui] };
                    }
                    if bwd {
                        edge_version[2 * e as usize + 1] =
                            if conflict { snap_ver[vi] } else { version[vi] };
                    }
                }
                if event_driven {
                    // Fresh growth arms every strictly later incident
                    // label of the grown endpoint.
                    if fresh_u > 0 {
                        schedule_incident(tn, u, t, horizon, window, sched, sepoch, agenda);
                    }
                    if fresh_v > 0 {
                        schedule_incident(tn, v, t, horizon, window, sched, sepoch, agenda);
                    }
                }
                bucket_fresh += (fresh_u + fresh_v) as usize;
            }
            if bucket_fresh > 0 {
                reached += bucket_fresh;
                last_arrival = t;
            }
            // Between buckets no snapshot or frozen source region is
            // live, so the arena can be evacuated. Checks are spaced
            // geometrically (the live scan is O(n)); an evacuation runs
            // only once the garbage bound is met.
            if arena.len() >= compact_check {
                if arena.len() > hiwater {
                    hiwater = arena.len();
                }
                let live: usize = meta.iter().map(|m| m.len as usize).sum();
                if arena.len() > live.saturating_mul(COMPACT_GARBAGE_FACTOR) {
                    compact_arena(arena, meta, compact_keys, compact_starts, compact_buf);
                    compactions += 1;
                }
                compact_check = (2 * arena.len()).max(floor);
            }
            // Forced evacuation under the arena word budget: between
            // buckets no region is borrowed, so when the budget is
            // exceeded compact regardless of the garbage factor and
            // account the event as degradation. Geometric back-off
            // (+25%) bounds the re-check cost when even the live set
            // exceeds the budget (the sweep then runs over budget —
            // degraded, but it completes).
            if budget != 0 && arena.len() > budget_check {
                if arena.len() > hiwater {
                    hiwater = arena.len();
                }
                let live: usize = meta.iter().map(|m| m.len as usize).sum();
                if arena.len() > live {
                    compact_arena(arena, meta, compact_keys, compact_starts, compact_buf);
                    compactions += 1;
                    degraded += 1;
                }
                budget_check = (arena.len() + arena.len() / 4).max(budget);
            }
        }
        if arena.len() > hiwater {
            hiwater = arena.len();
        }
        self.arena_hiwater = self.arena_hiwater.max(hiwater);
        self.compactions_total += compactions as u64;
        self.degraded_total += degraded as u64;
        SweepStats {
            lanes,
            reached_bits: reached,
            last_arrival,
            buckets_visited,
            retired_early: 0,
            arena_hiwater_words: hiwater,
            compactions,
            degraded,
        }
    }
}

/// One direction of an application: merge the frozen source region
/// `arena[su..su + sul]` into the live list of `dst`, re-pointing `dst`
/// at the union and emitting the fresh lanes. Returns the number of
/// fresh bits. An empty target adopts the source's region outright —
/// `O(1)`, no copy (regions are immutable).
#[allow(clippy::too_many_arguments)]
#[inline]
fn propagate(
    arena: &mut AlignedLanes,
    meta: &mut [Region],
    out_buf: &mut Vec<u32>,
    su: usize,
    sul: usize,
    dst: usize,
    t: Time,
    dst_id: NodeId,
    on_reach: &mut impl FnMut(NodeId, usize, u64, Time),
) -> u32 {
    let md = meta[dst];
    let (sd, dl) = (md.start as usize, md.len as usize);
    if dl == 0 {
        meta[dst] = Region {
            start: su as u32,
            len: sul as u32,
        };
        emit(&arena[su..su + sul], dst_id, t, on_reach);
        return sul as u32;
    }
    if sd == su && dl == sul {
        return 0; // identical shared region
    }
    let fresh = {
        let (d, src) = (&arena[sd..sd + dl], &arena[su..su + sul]);
        merge_into_emitting(d, src, out_buf, dst_id, t, on_reach)
    };
    if fresh > 0 {
        let out = arena_offset(arena);
        arena.extend_from_slice(out_buf);
        meta[dst] = Region {
            start: out,
            len: out_buf.len() as u32,
        };
    }
    fresh
}

/// Arm every bucket that a growth of `v` at time `after` could feed:
/// each incident label of `v` in `(after, horizon]` maps (two binary
/// searches — per-edge labels and the occupied window are both sorted)
/// to its window index and enters the pending agenda once per sweep
/// (the `sched` stamps dedup). Completeness: a propagation `u → v` at
/// label `ℓ` needs `u` non-empty strictly before `ℓ`, i.e. `u` grew at
/// some `t' < ℓ` — and that growth armed every incident label `> t'`,
/// `ℓ` included. No bucket that could set a fresh bit is ever skipped;
/// the skipped ones are provably fruitless.
#[allow(clippy::too_many_arguments)]
#[inline]
fn schedule_incident(
    tn: &TemporalNetwork,
    v: NodeId,
    after: Time,
    horizon: Time,
    window: &[Time],
    sched: &mut [u64],
    epoch: u64,
    agenda: &mut BinaryHeap<Reverse<u32>>,
) {
    let (_, edge_ids) = tn.graph().out_adjacency(v);
    for &e in edge_ids {
        let labels = tn.labels(e);
        let from = labels.partition_point(|&l| l <= after);
        for &l in &labels[from..] {
            if l > horizon {
                break;
            }
            // Every label in (after, horizon] is an occupied time of
            // the window, so the search always lands on it.
            let i = window.partition_point(|&x| x < l);
            debug_assert!(i < window.len() && window[i] == l);
            if sched[i] != epoch {
                sched[i] = epoch;
                agenda.push(Reverse(i as u32));
            }
        }
    }
}

/// Evacuate the arena: copy each **unique** live region into `buf` in
/// ascending old-start order, re-point every non-empty vertex at its
/// evacuated copy by binary search on the exact `(start, len)` key, and
/// swap `buf` in as the new arena. Distinct live regions never overlap
/// (appends only ever write whole regions and re-points copy whole
/// region descriptors), so keying by `(start, len)` both preserves
/// sharing — all sharers land on the same evacuated copy — and keeps
/// each sorted list's layout verbatim. Every scratch vector is pooled
/// by the caller (`buf` ping-pongs with the arena), so warm compaction
/// cycles allocate nothing.
fn compact_arena(
    arena: &mut AlignedLanes,
    meta: &mut [Region],
    keys: &mut Vec<(u32, u32)>,
    starts: &mut Vec<u32>,
    buf: &mut AlignedLanes,
) {
    keys.clear();
    for m in meta.iter() {
        if m.len > 0 {
            keys.push((m.start, m.len));
        }
    }
    keys.sort_unstable();
    keys.dedup();
    starts.clear();
    buf.clear();
    for &(s, l) in keys.iter() {
        starts.push(buf.len() as u32);
        buf.extend_from_slice(&arena[s as usize..(s + l) as usize]);
    }
    for m in meta.iter_mut() {
        if m.len > 0 {
            let i = keys
                .binary_search(&(m.start, m.len))
                .expect("live region must be keyed");
            m.start = starts[i];
        }
    }
    std::mem::swap(arena, buf);
}

impl FrontierEngine for SparseSweeper {
    fn sweep_with_horizon(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        horizon: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> SweepStats {
        Self::sweep_with_horizon(self, tn, sources, start_time, horizon, on_reach)
    }

    fn reach_word(&mut self, v: NodeId, w: usize) -> u64 {
        Self::reach_word(self, v, w)
    }

    fn for_each_reach_row(&mut self, f: impl FnMut(NodeId, &[u64])) {
        Self::for_each_reach_row(self, f);
    }

    fn words_per_row(&self) -> usize {
        Self::words_per_row(self)
    }

    fn kind() -> EngineKind {
        EngineKind::Sparse
    }

    fn from_scratch(scratch: &mut SweepScratch) -> &mut Self {
        &mut scratch.sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foremost::{foremost, foremost_with_horizon};
    use crate::wide::WideSweeper;
    use crate::{LabelAssignment, NEVER};
    use ephemeral_graph::{generators, GraphBuilder};
    use ephemeral_rng::{RandomSource, SeedSequence};

    fn random_network(seed: u64, n: usize, directed: bool, lifetime: Time) -> TemporalNetwork {
        let mut rng = SeedSequence::new(seed).rng(0);
        let g = generators::gnp(n, 0.12, directed, &mut rng);
        let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
            vec![rng.range_u32(1, lifetime), rng.range_u32(1, lifetime)]
        })
        .unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    fn scalar_arrivals(tn: &TemporalNetwork, start: Time) -> Vec<Time> {
        let n = tn.num_nodes();
        let mut out = Vec::with_capacity(n * n);
        for s in 0..n as NodeId {
            out.extend_from_slice(foremost(tn, s, start).arrivals());
        }
        out
    }

    #[test]
    fn sparse_matches_scalar_on_a_path() {
        let g = generators::path(4);
        let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2], vec![3]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        let mut out = vec![0; 16];
        let stats = SparseSweeper::new().arrivals_into(&tn, 0..4, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.last_arrival, 3);
        assert_eq!(stats.buckets_visited, 3);
    }

    #[test]
    fn arena_budget_forces_compactions_and_counts_degradation() {
        let n = 70usize;
        let tn = random_network(5, n, false, n as Time);
        let mut clean = SparseSweeper::new();
        let mut base_out = vec![0; n * n];
        let base = clean.arrivals_into(&tn, 0..n as NodeId, 0, &mut base_out);
        assert_eq!(base.degraded, 0, "unbudgeted sweeps never degrade");

        // A word budget far below the churn high-water mark: the sweep
        // must complete with identical arrivals, trading extra forced
        // compactions — each counted as a degradation event — for the
        // smaller footprint.
        let mut tight = SparseSweeper::new();
        tight.set_arena_budget_words(256);
        let mut out = vec![0; n * n];
        let stats = tight.arrivals_into(&tn, 0..n as NodeId, 0, &mut out);
        assert_eq!(out, base_out, "degradation must not change arrivals");
        assert!(
            stats.degraded > 0,
            "a {}-word budget under hiwater {} must force compactions",
            256,
            base.arena_hiwater_words
        );
        assert!(stats.compactions >= stats.degraded);
        assert_eq!(tight.degraded_total(), stats.degraded as u64);

        // The budgeted sweeper is not poisoned: lifting the budget
        // reproduces the clean sweep byte for byte, degradation-free.
        tight.set_arena_budget_words(0);
        let mut again = vec![0; n * n];
        let relaxed = tight.arrivals_into(&tn, 0..n as NodeId, 0, &mut again);
        assert_eq!(again, base_out);
        assert_eq!(relaxed.degraded, 0);
    }

    #[test]
    fn closure_byte_budget_shrinks_row_blocks_instead_of_aborting() {
        let n = 70usize;
        let tn = random_network(6, n, false, n as Time);
        let mut reference = SparseSweeper::new();
        reference.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let want: Vec<u64> = (0..n as NodeId)
            .map(|v| reference.reach_word(v, 0))
            .collect();

        // A byte budget below one default-shape block: the sweep shrinks
        // the rows-per-block geometry (one degradation event) and every
        // closure query must still read the same bits.
        let mut tiny = SparseSweeper::new();
        tiny.set_closure_budget_bytes(64);
        let stats = tiny.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        assert_eq!(stats.degraded, 1, "one shrink event per sweep");
        let got: Vec<u64> = (0..n as NodeId).map(|v| tiny.reach_word(v, 0)).collect();
        assert_eq!(
            got, want,
            "shrunken blocks must read identical closure bits"
        );
    }

    #[test]
    fn sparse_matches_scalar_on_random_networks() {
        // 70 and 130 vertices: 2- and 3-word rows, ragged last word.
        for &n in &[70usize, 130] {
            for directed in [false, true] {
                let tn = random_network(3, n, directed, n as Time);
                let mut out = vec![0; n * n];
                SparseSweeper::new().arrivals_into(&tn, 0..n as NodeId, 0, &mut out);
                assert_eq!(out, scalar_arrivals(&tn, 0), "n {n} directed {directed}");
            }
        }
    }

    #[test]
    fn multi_label_edges_exercise_the_version_memo() {
        // Many labels per edge on a small graph: the same arc relabels
        // again and again, the exact shape the version memo short-circuits
        // — and the arrivals must still equal the scalar oracle.
        let mut rng = SeedSequence::new(9).rng(4);
        let g = generators::gnp(40, 0.2, false, &mut rng);
        let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
            (0..12).map(|_| rng.range_u32(1, 200)).collect()
        })
        .unwrap();
        let tn = TemporalNetwork::new(g, labels, 200).unwrap();
        let mut out = vec![0; 40 * 40];
        SparseSweeper::new().arrivals_into(&tn, 0..40, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
    }

    #[test]
    fn dense_conflicted_buckets_match_scalar() {
        // Few buckets, many edges per bucket: shared endpoints everywhere,
        // so the snapshot slow path carries the sweep.
        let mut rng = SeedSequence::new(31).rng(7);
        let g = generators::gnp(50, 0.3, false, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 5)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 5).unwrap();
        let mut out = vec![0; 50 * 50];
        SparseSweeper::new().arrivals_into(&tn, 0..50, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
    }

    #[test]
    fn nonzero_start_time_matches_scalar() {
        let tn = random_network(5, 40, false, 40);
        for start in [1, 5, 39] {
            let mut out = vec![0; 40 * 40];
            SparseSweeper::new().arrivals_into(&tn, 0..40, start, &mut out);
            assert_eq!(out, scalar_arrivals(&tn, start), "start {start}");
        }
    }

    #[test]
    fn horizon_matches_scalar_horizon() {
        let tn = random_network(7, 30, false, 30);
        let horizon = 7;
        let mut got = vec![NEVER; 30 * 30];
        for s in 0..30 {
            got[s * 30 + s] = 0;
        }
        SparseSweeper::new().sweep_with_horizon(&tn, 0..30, 0, horizon, |v, w, mut fresh, t| {
            while fresh != 0 {
                let lane = w * 64 + fresh.trailing_zeros() as usize;
                got[lane * 30 + v as usize] = t;
                fresh &= fresh - 1;
            }
        });
        let mut expected = Vec::new();
        for s in 0..30 {
            expected.extend_from_slice(foremost_with_horizon(&tn, s, 0, horizon).arrivals());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn saturation_early_exit_is_kept() {
        let g = generators::clique(8, false);
        let m = g.num_edges();
        let labels = LabelAssignment::from_vecs(vec![(1..=50).collect(); m]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 50).unwrap();
        let mut sweeper = SparseSweeper::new();
        let stats = sweeper.sweep(&tn, 0..8, 0, |_, _, _, _| {});
        assert!(stats.all_reached(8));
        assert_eq!(stats.buckets_visited, 1, "saturated after the first bucket");
        assert_eq!(stats.last_arrival, 1);
    }

    #[test]
    fn empty_buckets_are_skipped() {
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![10], vec![20]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1000).unwrap();
        let mut sweeper = SparseSweeper::new();
        let mut out = vec![0; 9];
        let stats = sweeper.arrivals_into(&tn, 0..3, 0, &mut out);
        assert_eq!(stats.buckets_visited, 2);
        assert_eq!(out, scalar_arrivals(&tn, 0));
    }

    #[test]
    fn stats_match_the_wide_engine() {
        for seed in [1u64, 2, 3] {
            let tn = random_network(seed, 90, seed == 2, 300);
            let mut wide = WideSweeper::new();
            let ws = wide.sweep(&tn, 0..90, 0, |_, _, _, _| {});
            let mut sparse = SparseSweeper::new();
            let ss = sparse.sweep(&tn, 0..90, 0, |_, _, _, _| {});
            assert_eq!(ss.lanes, ws.lanes, "seed {seed}");
            assert_eq!(ss.reached_bits, ws.reached_bits, "seed {seed}");
            assert_eq!(ss.last_arrival, ws.last_arrival, "seed {seed}");
            assert_eq!(ss.buckets_visited, ws.buckets_visited, "seed {seed}");
            for v in 0..90u32 {
                for w in 0..FrontierEngine::words_per_row(&sparse) {
                    assert_eq!(sparse.reach_word(v, w), wide.reach_word(v, w));
                }
            }
        }
    }

    #[test]
    fn block_decomposition_is_bit_identical_to_full_width() {
        use crate::wide::source_blocks;
        let n = 150usize;
        let tn = random_network(11, n, true, 60);
        let mut full = vec![0; n * n];
        SparseSweeper::new().arrivals_into(&tn, 0..n as NodeId, 0, &mut full);
        for threads in [1, 2, 3, 8] {
            let mut sharded = Vec::new();
            let mut sweeper = SparseSweeper::new();
            for block in source_blocks(n, threads) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                sharded.extend(rows);
            }
            assert_eq!(sharded, full, "threads {threads}");
        }
    }

    #[test]
    fn wide_rows_materialise_beyond_64_words() {
        // > 4096 lanes forces multi-word rows far beyond one summary word;
        // the lazily materialised closure must match scalar reachability.
        let n = 4100usize;
        let g = generators::path(n);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |e| vec![1 + (e % 2) as Time]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let mut sweeper = SparseSweeper::new();
        let stats = sweeper.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        assert!(sweeper.words_per_row() > 64);
        let mut reached = 0usize;
        for s in (0..n).step_by(397) {
            let run = foremost(&tn, s as NodeId, 0);
            for (v, &a) in run.arrivals().iter().enumerate() {
                let bit = sweeper.reach_word(v as NodeId, s / 64) >> (s % 64) & 1 == 1;
                assert_eq!(bit, a != NEVER, "pair ({s},{v})");
            }
            reached += run.reached_count();
        }
        assert!(reached > 0);
        assert!(stats.reached_bits >= reached);
    }

    #[test]
    fn empty_sources_are_a_no_op() {
        let tn = random_network(4, 10, false, 10);
        let mut sweeper = SparseSweeper::new();
        let stats = sweeper.sweep(&tn, 0..0, 0, |_, _, _, _| panic!("no events"));
        assert_eq!(stats.lanes, 0);
        assert_eq!(stats.reached_bits, 0);
        assert_eq!(
            stats.buckets_visited, 0,
            "saturated before the first bucket"
        );
        assert!(stats.all_reached(10), "0 lanes trivially cover 0 bits");
    }

    #[test]
    fn directed_arcs_are_one_way() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let tn = TemporalNetwork::new(g, LabelAssignment::single(vec![1, 2]).unwrap(), 2).unwrap();
        let mut out = vec![0; 9];
        SparseSweeper::new().arrivals_into(&tn, 0..3, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
        assert_eq!(out[6..9], [NEVER, NEVER, 0]); // 2 reaches only itself
    }

    #[test]
    fn sweeper_reuse_across_networks_is_clean() {
        let mut sweeper = SparseSweeper::new();
        let tn1 = random_network(1, 90, false, 90);
        let mut a1 = vec![0; 90 * 90];
        sweeper.arrivals_into(&tn1, 0..90, 0, &mut a1);
        let tn2 = random_network(2, 33, true, 33);
        let mut a2 = vec![0; 33 * 33];
        sweeper.arrivals_into(&tn2, 0..33, 0, &mut a2);
        assert_eq!(a2, scalar_arrivals(&tn2, 0));
        let mut a1b = vec![0; 90 * 90];
        sweeper.arrivals_into(&tn1, 0..90, 0, &mut a1b);
        assert_eq!(a1, a1b);
    }

    #[test]
    fn engine_choice_dispatches_by_density() {
        // Below the crossover: wide, whatever the density.
        assert_eq!(EngineChoice::pick(100, 1, 1_000_000), EngineKind::Wide);
        assert_eq!(
            EngineChoice::pick(WIDE_CROSSOVER - 1, 1, 0),
            EngineKind::Wide
        );
        // At the crossover the density decides.
        let n = WIDE_CROSSOVER;
        let dense = n / DENSE_BUCKET_DIVISOR; // per-bucket fill threshold
        assert_eq!(EngineChoice::pick(n, 10, 10 * dense), EngineKind::Wide);
        assert_eq!(
            EngineChoice::pick(n, 10, 10 * dense - 1),
            EngineKind::Sparse
        );
        // Degenerate: no occupied buckets — trivially sparse.
        assert_eq!(EngineChoice::pick(n, 0, 0), EngineKind::Sparse);
    }

    #[test]
    fn engine_choice_for_networks() {
        // Dense: every edge of K_200 labelled once over lifetime 200.
        let g = generators::clique(200, false);
        let m = g.num_edges();
        let mut rng = SeedSequence::new(1).rng(0);
        let labels = LabelAssignment::from_fn(m, |_| vec![rng.range_u32(1, 200)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 200).unwrap();
        assert_eq!(EngineChoice::pick_for(&tn), EngineKind::Wide);
        // Sparse: a 200-path over lifetime 800.
        let g = generators::path(200);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 800)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 800).unwrap();
        assert_eq!(EngineChoice::pick_for(&tn), EngineKind::Sparse);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let tn = random_network(1, 5, false, 5);
        let _ = SparseSweeper::new().sweep(&tn, 3..9, 0, |_, _, _, _| {});
    }

    #[test]
    fn forced_compaction_preserves_arrivals_and_reports_cycles() {
        // A tiny compaction floor makes every between-bucket check live,
        // so the garbage test runs constantly and evacuations actually
        // fire on the relabel-heavy multi-label network — and the
        // arrivals must stay bit-identical to the scalar oracle.
        let mut rng = SeedSequence::new(9).rng(4);
        let g = generators::gnp(40, 0.2, false, &mut rng);
        let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
            (0..12).map(|_| rng.range_u32(1, 200)).collect()
        })
        .unwrap();
        let tn = TemporalNetwork::new(g, labels, 200).unwrap();
        let mut sweeper = SparseSweeper::new();
        sweeper.set_compaction_floor(1);
        let mut out = vec![0; 40 * 40];
        let stats = sweeper.arrivals_into(&tn, 0..40, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
        assert!(stats.compactions > 0, "the tiny floor must force cycles");
        assert!(stats.arena_hiwater_words > 0);
        assert_eq!(sweeper.compactions_total(), stats.compactions as u64);
        assert_eq!(sweeper.arena_hiwater_words(), stats.arena_hiwater_words);
        // Warm re-sweep: identical arrivals and identical cycle count.
        let mut again = vec![0; 40 * 40];
        let stats2 = sweeper.arrivals_into(&tn, 0..40, 0, &mut again);
        assert_eq!(again, out);
        assert_eq!(stats2.compactions, stats.compactions);
    }

    #[test]
    fn default_floor_never_compacts_small_instances() {
        let tn = random_network(3, 70, false, 70);
        let mut sweeper = SparseSweeper::new();
        let stats = sweeper.sweep(&tn, 0..70, 0, |_, _, _, _| {});
        assert_eq!(stats.compactions, 0, "70 vertices sit far below the floor");
        assert!(stats.arena_hiwater_words > 0);
    }

    #[test]
    fn streaming_closure_matches_wide_under_a_tiny_budget() {
        // n = 300 spans two row blocks; a 1-byte budget clamps the cache
        // to a single slot, so alternating between the blocks evicts on
        // every query — the answers must still match the wide engine.
        let n = 300usize;
        let tn = random_network(13, n, false, 150);
        let mut wide = WideSweeper::new();
        wide.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let mut sparse = SparseSweeper::new();
        sparse.set_closure_budget_bytes(1);
        sparse.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let words = FrontierEngine::words_per_row(&sparse);
        for round in 0..2 {
            for v in [0u32, 255, 256, 299, 17, 270] {
                for w in 0..words {
                    assert_eq!(
                        sparse.reach_word(v, w),
                        wide.reach_word(v, w),
                        "round {round} vertex {v} word {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_each_reach_row_matches_reach_word() {
        let n = 130usize;
        let tn = random_network(17, n, true, 80);
        let mut sweeper = SparseSweeper::new();
        let stats = sweeper.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let words = FrontierEngine::words_per_row(&sweeper);
        let mut streamed = vec![0u64; n * words];
        let mut visited = 0usize;
        SparseSweeper::for_each_reach_row(&mut sweeper, |v, row| {
            assert_eq!(row.len(), words);
            streamed[v as usize * words..(v as usize + 1) * words].copy_from_slice(row);
            visited += 1;
        });
        assert_eq!(visited, n, "every vertex streams exactly once");
        assert_eq!(
            kernels::popcount_words(&streamed),
            stats.reached_bits,
            "the streamed rows hold exactly the sweep's reached pairs"
        );
        for v in 0..n as NodeId {
            for w in 0..words {
                assert_eq!(streamed[v as usize * words + w], sweeper.reach_word(v, w));
            }
        }
    }

    #[test]
    fn closure_cache_invalidates_across_sweeps() {
        // Query the streaming closure, re-sweep a different network, and
        // query again: the second answers must reflect the second sweep,
        // not a stale cached block.
        let tn1 = random_network(1, 90, false, 90);
        let tn2 = random_network(2, 90, true, 90);
        let mut sweeper = SparseSweeper::new();
        sweeper.sweep(&tn1, 0..90, 0, |_, _, _, _| {});
        let _ = sweeper.reach_word(0, 0);
        sweeper.sweep(&tn2, 0..90, 0, |_, _, _, _| {});
        let mut wide = WideSweeper::new();
        wide.sweep(&tn2, 0..90, 0, |_, _, _, _| {});
        for v in 0..90u32 {
            for w in 0..FrontierEngine::words_per_row(&sweeper) {
                assert_eq!(sweeper.reach_word(v, w), wide.reach_word(v, w));
            }
        }
    }

    #[test]
    fn parallel_dispatch_crossover_pins_the_worker_count() {
        // The satellite regression: at a fixed sparse instance right at
        // the crossover, one worker keeps the event-driven engine and
        // eight workers flip to the wide engine (its fill divides by the
        // worker count; the sparse shards' agenda walks do not).
        let (n, occupied, m) = (1024usize, 256usize, 2048usize);
        assert_eq!(
            EngineChoice::pick_parallel(n, occupied, m, 1),
            EngineKind::Sparse
        );
        assert_eq!(
            EngineChoice::pick_parallel(n, occupied, m, 2),
            EngineKind::Sparse
        );
        assert_eq!(
            EngineChoice::pick_parallel(n, occupied, m, 8),
            EngineKind::Wide
        );
        // Average-degree-4 G(4096, p) at a = 4n (6,328 occupied buckets,
        // 8,066 time-edges) stays event-driven even at eight workers.
        assert_eq!(
            EngineChoice::pick_parallel(4096, 6328, 8066, 8),
            EngineKind::Sparse
        );
        // `pick` is exactly the one-worker model, and the degree bound is
        // worker-independent: a high-degree instance stays wide at w = 1.
        assert_eq!(EngineChoice::pick(n, occupied, m), EngineKind::Sparse);
        assert_eq!(
            EngineChoice::pick_parallel(1024, 4096, 4 * 1024 + 1, 1),
            EngineKind::Wide
        );
        // Workers never flip an instance *towards* sparse.
        for w in 1..=16usize {
            if EngineChoice::pick_parallel(n, occupied, m, w) == EngineKind::Wide {
                assert_eq!(
                    EngineChoice::pick_parallel(n, occupied, m, w + 1),
                    EngineKind::Wide
                );
            }
        }
    }
}
