//! Wide-frontier closure engine: all `n` sources in a **single**
//! time-ordered pass over the bucket index.
//!
//! [`BatchSweeper`] answers 64 sources per
//! pass, so an all-pairs question at `n` vertices re-traverses the
//! time-edge index `⌈n/64⌉` times — and under sparse availability
//! (lifetime `a = kn`, mostly-empty buckets) each of those passes walks a
//! long, cold index. [`WideSweeper`] removes both costs:
//!
//! * **Wide frontiers.** Every vertex carries `W = ⌈lanes/64⌉` frontier
//!   words (a flat `n × W` `u64` matrix, row per vertex), so one pass
//!   answers every source at once. Per edge the inner loop is `W`
//!   contiguous word operations — the edge-visit overhead (bucket walk,
//!   endpoint loads) that dominates the batched engine is paid once
//!   instead of `⌈n/64⌉` times, and the word loop vectorizes.
//! * **Saturation early-exit.** The sweep counts set bits and stops the
//!   moment `reached == lanes · n`: on dense instances the pass visits
//!   `O(instance diameter)` buckets instead of all `a`
//!   ([`WideStats::buckets_visited`] makes this observable).
//! * **Empty-bucket skipping.** The pass iterates
//!   [`TemporalNetwork::occupied_times`] rather than probing every
//!   `t ∈ {1, …, a}`, turning sparse sweeps from `O(a + M·W)` into
//!   `O(occupied + M·W)`.
//! * **Intra-instance parallelism.** The lane axis shards into word-aligned
//!   column blocks ([`source_blocks`]): lanes never interact, so each
//!   worker sweeps its own block of the matrix independently and results
//!   are folded in canonical block order — bit-identical for 1, 2 or 8
//!   workers (pinned by `tests/wide_proptests.rs`).
//!
//! ## Semantics contract
//!
//! The sweep preserves the exact strictly-increasing-label semantics of
//! the scalar [`foremost`](crate::foremost::foremost) sweep and of
//! [`BatchSweeper`]: `before[v]` holds the
//! lanes that reached `v` **strictly before** the time being processed,
//! `delta[v]` the lanes newly arriving **at** it, and a whole bucket is
//! committed at once — sound because a journey's labels strictly
//! increase (Definition 2), so a vertex first reached *at* `t` can never
//! relay over another label-`t` edge. Per-(source, target) arrival times
//! are therefore **bit-identical** to `n` independent scalar sweeps.
//!
//! ## Early-exit soundness
//!
//! `reached` counts distinct `(lane, vertex)` bits ever set; it is
//! monotone and bounded by `lanes · n`. Once it hits the bound every
//! frontier word is all-ones over the live lanes, so no later bucket can
//! produce a fresh bit (`before[u] & !before[v] = 0` for every edge) —
//! stopping is lossless. Skipping empty buckets is trivially lossless:
//! an empty bucket applies no edges and commits nothing.
//!
//! Callers dispatch through the density-aware
//! [`EngineChoice::pick`](crate::sparse::EngineChoice::pick):
//! `Batch` below [`WIDE_CROSSOVER`], then `Wide` for dense instances
//! (occupied buckets carrying ≥ `n/16` time-edges on average, where the
//! saturation exit and the branch-free word loop pay off) and the
//! event-driven [`sparse`](crate::sparse) engine for everything sparser.
//! [`SweepScratch`] bundles all three sweepers for Monte Carlo loops
//! whose trials straddle the boundaries. Few-source queries stay on
//! `BatchSweeper`; the scalar `foremost` remains the differential-testing
//! oracle for every engine.

use crate::engine::BatchSweeper;
use crate::kernels::{self, AlignedSlab, CHUNK_WORDS};
use crate::network::TemporalNetwork;
use crate::{Time, NEVER};
use ephemeral_graph::NodeId;
use ephemeral_parallel::faults::{self, CancelToken};
use std::ops::Range;

/// Vertex count at which the all-source entry points (closure, all-pairs
/// distances, instance diameter, connectivity, metrics) switch from the
/// 64-lane [`BatchSweeper`] to a full-width engine. Below this the wide
/// matrix is at most a few words per vertex and the batched engine's
/// smaller frontier wins; above it a single pass amortises the index walk
/// over every source, and the density-aware
/// [`EngineChoice::pick`](crate::sparse::EngineChoice::pick) decides
/// *which* full-width engine — [`WideSweeper`] for dense instances, the
/// event-driven [`SparseSweeper`](crate::sparse::SparseSweeper) for
/// sparse ones.
pub const WIDE_CROSSOVER: usize = 192;

/// Which journey engine served a computation — the attribution that
/// `experiments sweep` rows report so perf regressions are traceable to
/// the engine that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-source scalar `foremost` sweep (single-source work like the
    /// §3.5 flooding protocol).
    Scalar,
    /// 64-lane [`BatchSweeper`], one pass
    /// per batch of sources.
    Batch,
    /// Single-pass [`WideSweeper`].
    Wide,
    /// Event-driven [`SparseSweeper`](crate::sparse::SparseSweeper).
    Sparse,
}

impl EngineKind {
    /// Short stable identifier
    /// (`"scalar"` / `"batch"` / `"wide"` / `"sparse"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Batch => "batch",
            Self::Wide => "wide",
            Self::Sparse => "sparse",
        }
    }
}

/// The interface shared by the full-width frontier engines —
/// [`WideSweeper`] and the event-driven
/// [`SparseSweeper`](crate::sparse::SparseSweeper) — so the all-source
/// entry points (closure, distances, diameter, connectivity, metrics)
/// implement each code path once, generically over the engine the
/// density-aware dispatch picked. Both implementations uphold the same
/// contract: exact "reached strictly before `t`" + per-bucket-delta
/// semantics, arrivals bit-identical to per-source scalar sweeps.
pub trait FrontierEngine: Default + Send {
    /// Sweep `sources` ignoring labels `> horizon` (see
    /// [`WideSweeper::sweep_with_horizon`]).
    fn sweep_with_horizon(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        horizon: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> WideStats;

    /// Sweep `sources` over the full lifetime (see [`WideSweeper::sweep`]).
    fn sweep(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> WideStats {
        self.sweep_with_horizon(tn, sources, start_time, tn.lifetime(), on_reach)
    }

    /// Sweep and fill a per-pair arrival matrix (see
    /// [`WideSweeper::arrivals_into`]).
    ///
    /// # Panics
    /// If `out.len() != sources.len() · tn.num_nodes()`.
    fn arrivals_into(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        out: &mut [Time],
    ) -> WideStats {
        let n = tn.num_nodes();
        assert_eq!(
            out.len(),
            sources.len() * n,
            "arrival buffer must hold sources × vertices entries"
        );
        out.fill(NEVER);
        for (lane, s) in sources.clone().enumerate() {
            out[lane * n + s as usize] = start_time;
        }
        self.sweep(tn, sources, start_time, |v, w, mut fresh, t| {
            while fresh != 0 {
                let lane = w * 64 + fresh.trailing_zeros() as usize;
                out[lane * n + v as usize] = t;
                fresh &= fresh - 1;
            }
        })
    }

    /// Word `w` of the closure row of `v` after the most recent sweep
    /// (see [`WideSweeper::reach_word`]). Takes `&mut self` because the
    /// sparse engine materialises its closure row blocks lazily on
    /// demand.
    fn reach_word(&mut self, v: NodeId, w: usize) -> u64;

    /// Visit the closure row of every vertex of the most recent sweep in
    /// ascending vertex order: `row[w]` is [`FrontierEngine::reach_word`]
    /// word `w` of the visited vertex, `row.len() == words_per_row()`.
    /// This is the streaming path for whole-closure consumers — the wide
    /// engine lends slices of its frontier matrix zero-copy, the sparse
    /// engine streams each row out of its reacher lists through one
    /// pooled `O(words_per_row)` buffer, so **neither engine ever builds
    /// an `n × ⌈lanes/64⌉` matrix for a visitor**.
    fn for_each_reach_row(&mut self, f: impl FnMut(NodeId, &[u64]));

    /// Words per frontier row of the most recent sweep.
    fn words_per_row(&self) -> usize;

    /// The [`EngineKind`] this engine reports as its attribution.
    fn kind() -> EngineKind;

    /// The persistent instance of this engine inside a [`SweepScratch`]
    /// bundle — what lets the sequential scratch entry points route
    /// through
    /// [`EngineChoice::dispatch`](crate::sparse::EngineChoice::dispatch)
    /// with warm buffers instead of hand-matching on the engine kind.
    fn from_scratch(scratch: &mut SweepScratch) -> &mut Self;
}

impl FrontierEngine for WideSweeper {
    fn sweep_with_horizon(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        horizon: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> WideStats {
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
        EngineKind::Wide
    }

    fn from_scratch(scratch: &mut SweepScratch) -> &mut Self {
        &mut scratch.wide
    }
}

/// Word-aligned column blocks covering sources `0..n`: at most
/// `min(threads, ⌈n/64⌉)` contiguous ranges, each a whole number of
/// 64-lane words (the last possibly ragged). Lanes in different blocks
/// never interact, so sweeping the blocks on different workers and
/// folding in block order is bit-identical to one full-width sweep.
#[must_use]
pub fn source_blocks(n: usize, threads: usize) -> Vec<Range<NodeId>> {
    word_blocks(0, n.div_ceil(64), threads, n)
}

/// The number of column blocks a sequential all-source sweep should use
/// for cache residency: one block per [`BLOCK_WORDS`] words
/// (`= ⌈n/1024⌉`). A block's compact `n × 16`-word `before` + `delta`
/// slabs fit the fast cache levels where the full-width matrices at
/// large `n` do not — worth more than the extra walks of the (skip-listed)
/// bucket index it costs. The all-source entry points shard into
/// `max(threads, cache_block_count(n))` blocks, so the blocking engages
/// regardless of the worker count; results are bit-identical either way.
#[must_use]
pub fn cache_block_count(n: usize) -> usize {
    n.div_ceil(64 * BLOCK_WORDS).max(1)
}

/// The allocation-free iterator form of [`source_blocks`]`(n, shards)`:
/// the same word-aligned column-block schedule, yielded lazily — what the
/// sequential scratch paths iterate so they never heap-allocate per
/// trial. `shards = 1` degenerates to the single full-width block `0..n`.
pub fn block_schedule(n: usize, shards: usize) -> impl Iterator<Item = Range<NodeId>> {
    let words = n.div_ceil(64);
    let chunks = words.div_ceil(CHUNK_WORDS);
    let parts = shards.clamp(1, chunks.max(1));
    let base = chunks / parts;
    let extra = chunks % parts;
    let mut word = 0usize;
    (0..parts).map(move |b| {
        let lo = (word * 64).min(n) as NodeId;
        word += ((base + usize::from(b < extra)) * CHUNK_WORDS).min(words - word);
        lo..(word * 64).min(n) as NodeId
    })
}

/// The fail-fast split used by the whole-network connectivity checks: the
/// first 64-lane word as a cheap probe block (a failing instance almost
/// always has an unreached pair among any 64 sources, so probing it first
/// costs no more than one batched sweep), plus the remaining words
/// sharded into at most `threads` wide blocks.
///
/// # Panics
/// If `n == 0`.
#[must_use]
pub fn probe_blocks(n: usize, threads: usize) -> (Range<NodeId>, Vec<Range<NodeId>>) {
    let words = n.div_ceil(64);
    assert!(words > 0, "probe_blocks needs at least one source");
    let probe = 0..(64.min(n)) as NodeId;
    (probe, word_blocks(1, words, threads, n))
}

/// Word-aligned blocks covering sources `64·lo_word .. n`, split into at
/// most `threads` near-equal contiguous word ranges whose interior edges
/// are rounded to whole [`CHUNK_WORDS`] kernel chunks — every block but
/// the last spans a multiple of `64 · CHUNK_WORDS` lanes, so each shard's
/// slice of a chunk-aligned frontier slab is itself whole aligned chunks
/// (only the final tail is ragged).
fn word_blocks(lo_word: usize, words: usize, threads: usize, n: usize) -> Vec<Range<NodeId>> {
    if words <= lo_word {
        return Vec::new();
    }
    let span = words - lo_word;
    let chunks = span.div_ceil(CHUNK_WORDS);
    let blocks = threads.clamp(1, chunks);
    let base = chunks / blocks;
    let extra = chunks % blocks;
    let mut out = Vec::with_capacity(blocks);
    let mut word = lo_word;
    for b in 0..blocks {
        let take = ((base + usize::from(b < extra)) * CHUNK_WORDS).min(lo_word + span - word);
        let lo = (word * 64).min(n) as NodeId;
        let hi = ((word + take) * 64).min(n) as NodeId;
        out.push(lo..hi);
        word += take;
    }
    out
}

/// What a wide sweep observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideStats {
    /// Number of source lanes the sweep carried.
    pub lanes: usize,
    /// Total `(lane, vertex)` bits set at the end of the sweep (diagonal
    /// included). Equals `lanes · n` iff every lane reached everything.
    pub reached_bits: usize,
    /// The last time any bit newly set (`0` when nothing was reached).
    pub last_arrival: Time,
    /// Occupied buckets the pass actually visited before finishing or
    /// saturating — `≪ a` on dense instances (the early-exit observable),
    /// `≤ occupied ≤ min(a, M)` always.
    pub buckets_visited: usize,
    /// High-water mark of the sparse engine's region arena during the
    /// sweep, in `u32` words (`0` for the wide and batched engines, which
    /// carry no arena).
    pub arena_hiwater_words: usize,
    /// Arena compactions the sparse engine performed during the sweep
    /// (`0` for the wide and batched engines).
    pub compactions: usize,
    /// Graceful-degradation events the sweep absorbed instead of
    /// aborting: forced arena compactions under an
    /// [`arena budget`](crate::sparse::SparseSweeper::set_arena_budget_words)
    /// and closure row-block shrinks under the streaming-closure byte
    /// budget. `0` means the sweep ran at full capacity.
    pub degraded: usize,
}

impl WideStats {
    /// Did every lane reach every one of the `n` vertices?
    #[must_use]
    pub const fn all_reached(&self, n: usize) -> bool {
        self.reached_bits == self.lanes * n
    }

    /// Ordered `(lane, vertex)` pairs the sweep did **not** connect.
    #[must_use]
    pub const fn unreached_pairs(&self, n: usize) -> usize {
        self.lanes * n - self.reached_bits
    }
}

/// Reusable scratch state of the wide-frontier sweep.
///
/// Construction is free; the first sweep sizes the `n × W` frontier
/// matrices and subsequent sweeps of same-shaped networks reuse them, so
/// a Monte Carlo loop that keeps one sweeper per worker performs no
/// per-trial allocation (covered by `ephemeral-core`'s allocation
/// regression test).
///
/// ```
/// use ephemeral_graph::generators;
/// use ephemeral_temporal::wide::WideSweeper;
/// use ephemeral_temporal::{LabelAssignment, TemporalNetwork, NEVER};
///
/// // 0—1 @1, 1—2 @2: all three sources answered in one pass.
/// let tn = TemporalNetwork::new(
///     generators::path(3),
///     LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
///     2,
/// )
/// .unwrap();
/// let mut sweeper = WideSweeper::new();
/// let mut arrivals = vec![NEVER; 3 * 3];
/// let stats = sweeper.arrivals_into(&tn, 0..3, 0, &mut arrivals);
/// assert_eq!(arrivals, vec![0, 1, 2, 1, 0, 2, NEVER, 2, 0]);
/// assert_eq!(stats.unreached_pairs(3), 1); // 2 never reaches 0
/// assert_eq!(stats.buckets_visited, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WideSweeper {
    /// Row-major `n × stride` matrix in a 64-byte-aligned slab: lanes
    /// that reached `v` strictly before the time being processed. Rows
    /// start every `stride` words (`width` rounded up to a whole
    /// [`CHUNK_WORDS`] kernel chunk), so every row base is itself
    /// chunk-aligned; words `width..stride` of each row are dead padding.
    before: AlignedSlab,
    /// Lanes newly arriving at `v` at the time being processed (same
    /// aligned `n × stride` layout).
    delta: AlignedSlab,
    /// Vertices with a non-zero `delta` row in the current column block.
    touched: Vec<NodeId>,
    /// `stamp[v] == epoch` marks `v` as already on `touched` for the
    /// (bucket, column block) round `epoch`.
    stamp: Vec<u64>,
    /// Set lanes per row — `row_bits[v] == lanes` means row `v` is
    /// saturated and edges into `v` can be skipped without reading it.
    row_bits: Vec<u32>,
    /// Per-bucket endpoint scratch: each bucket's edges are resolved once
    /// and reused by every column block.
    pairs: Vec<(NodeId, NodeId)>,
    /// Bits set so far per column block (saturated blocks are skipped).
    block_reached: Vec<usize>,
    /// `block_lanes · n` per column block.
    block_target: Vec<usize>,
    /// Words per row of the most recent sweep.
    width: usize,
    /// Allocated words per row: `width` rounded up to a whole kernel
    /// chunk, so consecutive rows stay 64-byte aligned.
    stride: usize,
    /// Cooperative cancellation token checked at every bucket boundary
    /// (`None` = never fires; see [`SweepScratch::set_cancel_token`]).
    cancel: Option<CancelToken>,
}

/// Words per column block of one pass: 16 words (1024 lanes) keeps a
/// block's slice of `before` + `delta` at `256·n` bytes — comfortably
/// cache-resident — while still amortising each edge visit over up to
/// 1024 sources. Wider sweeps are processed in blocks of this many words
/// internally (see [`WideSweeper::sweep_with_horizon`]), and
/// [`cache_block_count`] sizes the entry points' sharding to it.
pub const BLOCK_WORDS: usize = 16;

impl WideSweeper {
    /// A sweeper with empty scratch buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the cooperative cancellation token checked at every
    /// bucket boundary of subsequent sweeps — the sweep grid's per-cell
    /// watchdog (`--cell-timeout`) installs the cell's token here.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Words per frontier row of the most recent sweep
    /// (`⌈lanes/64⌉`).
    #[must_use]
    pub const fn words_per_row(&self) -> usize {
        self.width
    }

    /// Word `w` of the closure row of `v` after the most recent sweep:
    /// bit `i` set iff source `sources.start + 64w + i` reached `v`
    /// (sources count themselves).
    ///
    /// # Panics
    /// If `v` or `w` is out of range for the last swept network.
    #[inline]
    #[must_use]
    pub fn reach_word(&self, v: NodeId, w: usize) -> u64 {
        assert!(w < self.width, "word {w} out of range");
        self.before.words()[v as usize * self.stride + w]
    }

    /// Visit the closure row of every vertex of the most recent sweep in
    /// ascending vertex order, lending each `width`-word row straight out
    /// of the frontier matrix — no copies (the
    /// [`FrontierEngine::for_each_reach_row`] streaming contract).
    pub fn for_each_reach_row(&self, mut f: impl FnMut(NodeId, &[u64])) {
        if self.width == 0 {
            return;
        }
        for (v, row) in self.before.words().chunks_exact(self.stride).enumerate() {
            f(v as NodeId, &row[..self.width]);
        }
    }

    /// One single-pass wide sweep from the contiguous source range
    /// `sources` (lane `i` ↔ vertex `sources.start + i`), using labels
    /// strictly greater than `start_time`. `on_reach(v, w, fresh, t)`
    /// fires once per newly set frontier word: `fresh` holds the lanes of
    /// word `w` that first reached `v` at time `t`, in non-decreasing
    /// order of `t`.
    ///
    /// # Panics
    /// If any source is out of range.
    pub fn sweep(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> WideStats {
        self.sweep_with_horizon(tn, sources, start_time, tn.lifetime(), on_reach)
    }

    /// [`WideSweeper::sweep`] ignoring every label greater than `horizon`
    /// (matching `foremost_with_horizon` lane for lane).
    ///
    /// # Panics
    /// If any source is out of range.
    pub fn sweep_with_horizon(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        horizon: Time,
        mut on_reach: impl FnMut(NodeId, usize, u64, Time),
    ) -> WideStats {
        let n = tn.num_nodes();
        let lanes = sources.len();
        let width = lanes.div_ceil(64);
        let stride = width.next_multiple_of(CHUNK_WORDS);
        self.width = width;
        self.stride = stride;
        self.before.resize_zeroed(n * stride);
        self.delta.resize_zeroed(n * stride);
        self.touched.clear();
        self.stamp.clear();
        self.stamp.resize(n, 0);
        self.row_bits.clear();
        self.row_bits.resize(n, 0);
        // Column blocks of the pass: per bucket, every live block applies
        // the (once-resolved) edges over its own word range and commits
        // before the next block runs, so a block's slice of `before` +
        // `delta` stays cache-resident. Blocks cover disjoint lanes, so
        // the block loop cannot change any result — only the cache
        // behaviour and the callback order *within* a bucket.
        let nblocks = width.div_ceil(BLOCK_WORDS).max(1);
        self.block_reached.clear();
        self.block_reached.resize(nblocks, 0);
        self.block_target.clear();
        self.block_target.resize(nblocks, 0);
        for b in 0..nblocks {
            let wb = b * BLOCK_WORDS;
            let we = (wb + BLOCK_WORDS).min(width);
            self.block_target[b] = (lanes.min(we * 64) - (wb * 64).min(lanes)) * n;
        }
        {
            let before = self.before.words_mut();
            for (lane, s) in sources.clone().enumerate() {
                assert!((s as usize) < n, "source {s} out of range");
                before[s as usize * stride + lane / 64] |= 1 << (lane % 64);
                self.row_bits[s as usize] += 1;
                self.block_reached[lane / 64 / BLOCK_WORDS] += 1;
            }
        }
        let target = lanes * n;
        let lane_count = lanes as u32;
        let mut reached = lanes;
        let mut last_arrival: Time = 0;
        let mut buckets_visited = 0usize;
        let mut epoch = 0u64;
        let directed = tn.graph().is_directed();
        let cancel = self.cancel.clone();
        let Self {
            before,
            delta,
            touched,
            stamp,
            row_bits,
            pairs,
            block_reached,
            block_target,
            ..
        } = self;
        let before = before.words_mut();
        let delta = delta.words_mut();
        // Apply one direction of an edge over one block's word range: OR
        // `row(from) & !row(to)` into `delta`'s row of `to`, returning the
        // union of the new bits — `kernels::ornot_accumulate`, the one
        // definition of the OR/ANDN word loop, over chunk-aligned
        // stride-padded rows.
        let apply = |before: &[u64],
                     delta: &mut [u64],
                     from: usize,
                     to: usize,
                     wb: usize,
                     we: usize|
         -> u64 {
            kernels::ornot_accumulate(
                &mut delta[to * stride + wb..to * stride + we],
                &before[from * stride + wb..from * stride + we],
                &before[to * stride + wb..to * stride + we],
            )
        };
        for &t in tn.occupied_between(start_time, horizon) {
            if reached >= target {
                break; // saturated: no later bucket can set a fresh bit
            }
            faults::hit(faults::site::ENGINE_BUCKET, u64::from(t));
            if let Some(c) = &cancel {
                c.checkpoint();
            }
            buckets_visited += 1;
            // Resolve the bucket's endpoints once; every block reuses them.
            pairs.clear();
            pairs.extend(tn.edges_at(t).iter().map(|&e| tn.graph().endpoints(e)));
            for b in 0..nblocks {
                if block_reached[b] >= block_target[b] {
                    continue; // this block's lanes are saturated
                }
                epoch += 1;
                let wb = b * BLOCK_WORDS;
                let we = (wb + BLOCK_WORDS).min(width);
                for &(u, v) in pairs.iter() {
                    // u -> v: lanes that left u before t and have not seen
                    // v. A saturated target row can gain nothing — skip it
                    // from the one-word `row_bits` check without touching
                    // the row.
                    if row_bits[v as usize] != lane_count
                        && apply(before, delta, u as usize, v as usize, wb, we) != 0
                        && stamp[v as usize] != epoch
                    {
                        stamp[v as usize] = epoch;
                        touched.push(v);
                    }
                    // v -> u for undirected edges.
                    if !directed
                        && row_bits[u as usize] != lane_count
                        && apply(before, delta, v as usize, u as usize, wb, we) != 0
                        && stamp[u as usize] != epoch
                    {
                        stamp[u as usize] = epoch;
                        touched.push(u);
                    }
                }
                // Commit the block's delta at once: a vertex first reached
                // at t cannot relay over another label-t edge, so `before`
                // stays frozen while the bucket is scanned (the
                // Definition 2 argument). The loop body is branch-free
                // apart from the callback guard, which vanishes when
                // `on_reach` is a no-op.
                let mut block_fresh = 0usize;
                for &v in touched.iter() {
                    let v0 = v as usize * stride;
                    let row_fresh = kernels::commit_fresh(
                        &mut delta[v0 + wb..v0 + we],
                        &mut before[v0 + wb..v0 + we],
                        |w, fresh| on_reach(v, wb + w, fresh, t),
                    );
                    // Every touched row saw at least one fresh bit
                    // (`apply` returned non-zero against the same frozen
                    // `before`).
                    debug_assert!(row_fresh > 0);
                    block_fresh += row_fresh as usize;
                    row_bits[v as usize] += row_fresh;
                }
                if block_fresh > 0 {
                    reached += block_fresh;
                    block_reached[b] += block_fresh;
                    last_arrival = t;
                }
                touched.clear();
            }
        }
        WideStats {
            lanes,
            reached_bits: reached,
            last_arrival,
            buckets_visited,
            arena_hiwater_words: 0,
            compactions: 0,
            degraded: 0,
        }
    }

    /// Sweep and record per-pair arrival times into `out`, laid out
    /// `out[lane · n + v] = δ(sources.start + lane, v)` with [`NEVER`]
    /// marking unreachable pairs and each source reporting its own
    /// `start_time` — lane for lane the `arrivals()` array of a scalar
    /// foremost run.
    ///
    /// # Panics
    /// If `out.len() != sources.len() · n`, or as [`WideSweeper::sweep`].
    pub fn arrivals_into(
        &mut self,
        tn: &TemporalNetwork,
        sources: Range<NodeId>,
        start_time: Time,
        out: &mut [Time],
    ) -> WideStats {
        let n = tn.num_nodes();
        assert_eq!(
            out.len(),
            sources.len() * n,
            "arrival buffer must hold sources × vertices entries"
        );
        out.fill(NEVER);
        for (lane, s) in sources.clone().enumerate() {
            out[lane * n + s as usize] = start_time;
        }
        self.sweep(tn, sources, start_time, |v, w, mut fresh, t| {
            while fresh != 0 {
                let lane = w * 64 + fresh.trailing_zeros() as usize;
                out[lane * n + v as usize] = t;
                fresh &= fresh - 1;
            }
        })
    }
}

/// All three journey engines in one reusable bundle — the per-worker
/// scratch of Monte Carlo loops whose instances straddle the dispatch
/// boundaries (e.g. `ephemeral-core`'s diameter estimators and scenario
/// sweeps). Whichever engine
/// [`EngineChoice::pick`](crate::sparse::EngineChoice::pick) selects per
/// trial, the others' buffers stay warm and unused; all three are
/// allocation-free across same-shaped trials.
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    /// The 64-lane batched engine (below the crossover).
    pub batch: BatchSweeper,
    /// The single-pass wide engine (dense instances above the crossover).
    pub wide: WideSweeper,
    /// The event-driven sparse engine (sparse instances above the
    /// crossover).
    pub sparse: crate::sparse::SparseSweeper,
    /// The pooled differential-maintenance cursor (checkpoint slabs,
    /// log arenas and dirty-tracking tables), seeded by
    /// [`SweepScratch::record_delta`](crate::delta) and reused across
    /// trials so warm
    /// [`apply_label_move`](crate::delta::DeltaCursor::apply_label_move)
    /// calls allocate nothing.
    pub delta: crate::delta::DeltaCursor,
}

impl SweepScratch {
    /// A scratch bundle with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) one cooperative cancellation token on every engine
    /// in the bundle — whichever engine the density-aware dispatch picks
    /// for a trial honours the same token at its bucket boundaries. The
    /// sweep grid's per-cell watchdog (`--cell-timeout`) installs the
    /// cell's token here.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.batch.set_cancel_token(token.clone());
        self.wide.set_cancel_token(token.clone());
        self.sparse.set_cancel_token(token.clone());
        self.delta.set_cancel_token(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foremost::{foremost, foremost_with_horizon};
    use crate::LabelAssignment;
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
    fn wide_matches_scalar_on_a_path() {
        let g = generators::path(4);
        let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2], vec![3]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        let mut out = vec![0; 16];
        let stats = WideSweeper::new().arrivals_into(&tn, 0..4, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.last_arrival, 3);
        assert_eq!(stats.buckets_visited, 3);
    }

    #[test]
    fn wide_matches_scalar_on_random_networks() {
        // 70 and 130 vertices: 2- and 3-word rows, ragged last word.
        for &n in &[70usize, 130] {
            for directed in [false, true] {
                let tn = random_network(3, n, directed, n as Time);
                let mut out = vec![0; n * n];
                WideSweeper::new().arrivals_into(&tn, 0..n as NodeId, 0, &mut out);
                assert_eq!(out, scalar_arrivals(&tn, 0), "n {n} directed {directed}");
            }
        }
    }

    #[test]
    fn nonzero_start_time_matches_scalar() {
        let tn = random_network(5, 40, false, 40);
        for start in [1, 5, 39] {
            let mut out = vec![0; 40 * 40];
            WideSweeper::new().arrivals_into(&tn, 0..40, start, &mut out);
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
        WideSweeper::new().sweep_with_horizon(&tn, 0..30, 0, horizon, |v, w, mut fresh, t| {
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
    fn saturation_early_exit_is_observable() {
        // Every edge of K_8 available at every time: the closure saturates
        // after bucket 1 of 50.
        let g = generators::clique(8, false);
        let m = g.num_edges();
        let labels = LabelAssignment::from_vecs(vec![(1..=50).collect(); m]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 50).unwrap();
        let mut sweeper = WideSweeper::new();
        let stats = sweeper.sweep(&tn, 0..8, 0, |_, _, _, _| {});
        assert!(stats.all_reached(8));
        assert_eq!(stats.buckets_visited, 1, "saturated after the first bucket");
        assert_eq!(stats.last_arrival, 1);
    }

    #[test]
    fn empty_buckets_are_skipped() {
        // Path with labels 10 and 20 over lifetime 1000: exactly two
        // occupied buckets are visited, not a thousand.
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![10], vec![20]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1000).unwrap();
        let mut sweeper = WideSweeper::new();
        let mut out = vec![0; 9];
        let stats = sweeper.arrivals_into(&tn, 0..3, 0, &mut out);
        assert_eq!(stats.buckets_visited, 2);
        assert_eq!(out, scalar_arrivals(&tn, 0));
    }

    #[test]
    fn block_decomposition_is_bit_identical_to_full_width() {
        let n = 150usize;
        let tn = random_network(11, n, true, 60);
        let mut full = vec![0; n * n];
        WideSweeper::new().arrivals_into(&tn, 0..n as NodeId, 0, &mut full);
        for threads in [1, 2, 3, 8] {
            let mut sharded = Vec::new();
            let mut sweeper = WideSweeper::new();
            for block in source_blocks(n, threads) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                sharded.extend(rows);
            }
            assert_eq!(sharded, full, "threads {threads}");
        }
    }

    #[test]
    fn source_blocks_partition_and_align() {
        for n in [0usize, 1, 63, 64, 65, 150, 500] {
            for threads in [1usize, 2, 7, 64] {
                let blocks = source_blocks(n, threads);
                let mut all = Vec::new();
                for b in &blocks {
                    assert_eq!(b.start % 64, 0, "n {n} threads {threads}");
                    all.extend(b.clone());
                }
                assert_eq!(all, (0..n as NodeId).collect::<Vec<_>>());
                assert!(blocks.len() <= threads.max(1));
                assert!(blocks.len() <= n.div_ceil(64).max(1));
            }
        }
    }

    #[test]
    fn cache_blocks_iterator_matches_source_blocks() {
        for n in [1usize, 63, 64, 1000, 1024, 1025, 1100, 5000] {
            let collected: Vec<_> = block_schedule(n, cache_block_count(n)).collect();
            assert_eq!(collected, source_blocks(n, cache_block_count(n)), "n {n}");
        }
    }

    #[test]
    fn block_interiors_are_chunk_aligned_and_cover_exactly() {
        // Satellite of the kernel layer: every schedule's interior blocks
        // span whole 64-byte kernel chunks (multiples of 64·CHUNK_WORDS
        // lanes), only the final tail is ragged, and the union still
        // exactly covers 0..n — for source_blocks, block_schedule AND the
        // probe split, across thread counts.
        let chunk_lanes = (64 * CHUNK_WORDS) as u32;
        let check = |blocks: &[Range<NodeId>], lo: u32, n: usize, tag: &str| {
            let mut next = lo;
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(b.start, next, "{tag}: gapless at block {i}");
                assert!(!b.is_empty(), "{tag}: empty block {i}");
                if i + 1 < blocks.len() {
                    assert_eq!(
                        (b.end - b.start) % chunk_lanes,
                        0,
                        "{tag}: interior block {i} not chunk-aligned"
                    );
                }
                next = b.end;
            }
            assert_eq!(next as usize, n, "{tag}: union must cover 0..n");
        };
        for n in [1usize, 63, 64, 65, 150, 511, 512, 513, 1100, 4097, 100_000] {
            for threads in [1usize, 2, 3, 5, 8, 64] {
                let blocks = source_blocks(n, threads);
                check(&blocks, 0, n, "source_blocks");
                let sched: Vec<_> = block_schedule(n, threads).collect();
                assert_eq!(sched, blocks, "block_schedule must match source_blocks");
                let (probe, rest) = probe_blocks(n, threads);
                assert_eq!(probe, 0..64.min(n) as NodeId);
                if n > 64 {
                    check(&rest, 64, n, "probe_blocks rest");
                } else {
                    assert!(rest.iter().all(Range::is_empty) || rest.is_empty());
                }
            }
        }
    }

    #[test]
    fn multi_block_full_width_sweep_matches_scalar() {
        // More than BLOCK_WORDS·64 = 1024 lanes in ONE sweep call, so the
        // internal column-block machinery (per-block epoch stamping,
        // commit ordering, block saturation counters) actually runs —
        // every entry point pre-shards to ≤ 16-word blocks, so only a
        // direct full-width call exercises it.
        let n = 1100usize;
        let mut rng = SeedSequence::new(13).rng(0);
        let g = generators::gnp(n, 6.0 / n as f64, false, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 300)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 300).unwrap();
        let mut sweeper = WideSweeper::new();
        let mut wide = vec![0; n * n];
        let stats = sweeper.arrivals_into(&tn, 0..n as NodeId, 0, &mut wide);
        let mut reached = 0usize;
        for (s, chunk) in wide.chunks(n).enumerate() {
            let oracle = foremost(&tn, s as NodeId, 0);
            assert_eq!(chunk, oracle.arrivals(), "row {s}");
            reached += oracle.reached_count();
        }
        assert_eq!(stats.reached_bits, reached);
        // A dense multi-block sweep saturates block by block: K_1100 with
        // every edge always available completes in one visited bucket.
        let k = generators::clique(1100, false);
        let m = k.num_edges();
        let labels = LabelAssignment::from_vecs(vec![vec![1, 2, 3]; m]).unwrap();
        let ktn = TemporalNetwork::new(k, labels, 3).unwrap();
        let kstats = sweeper.sweep(&ktn, 0..1100, 0, |_, _, _, _| {});
        assert!(kstats.all_reached(1100));
        assert_eq!(kstats.buckets_visited, 1);
    }

    #[test]
    fn probe_blocks_cover_all_sources() {
        for n in [1usize, 63, 64, 65, 150, 500] {
            for threads in [1usize, 3, 16] {
                let (probe, rest) = probe_blocks(n, threads);
                assert_eq!(probe.start, 0);
                assert_eq!(probe.end as usize, 64.min(n));
                let mut all: Vec<NodeId> = probe.collect();
                for b in &rest {
                    assert_eq!(b.start % 64, 0);
                    all.extend(b.clone());
                }
                assert_eq!(all, (0..n as NodeId).collect::<Vec<_>>());
                assert!(rest.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn reach_word_exposes_the_closure() {
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let mut sweeper = WideSweeper::new();
        sweeper.sweep(&tn, 0..3, 0, |_, _, _, _| {});
        assert_eq!(sweeper.words_per_row(), 1);
        assert_eq!(sweeper.reach_word(2, 0), 0b111);
        assert_eq!(sweeper.reach_word(0, 0), 0b011);
    }

    #[test]
    fn sweeper_reuse_across_networks_is_clean() {
        let mut sweeper = WideSweeper::new();
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
    fn empty_sources_are_a_no_op() {
        let tn = random_network(4, 10, false, 10);
        let mut sweeper = WideSweeper::new();
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
        WideSweeper::new().arrivals_into(&tn, 0..3, 0, &mut out);
        assert_eq!(out, scalar_arrivals(&tn, 0));
        assert_eq!(out[6..9], [NEVER, NEVER, 0]); // 2 reaches only itself
    }

    #[test]
    fn engine_dispatch_constants() {
        assert_eq!(EngineKind::Scalar.name(), "scalar");
        assert_eq!(EngineKind::Batch.name(), "batch");
        assert_eq!(EngineKind::Wide.name(), "wide");
        assert_eq!(EngineKind::Sparse.name(), "sparse");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let tn = random_network(1, 5, false, 5);
        let _ = WideSweeper::new().sweep(&tn, 3..9, 0, |_, _, _, _| {});
    }
}
