//! Differential closure maintenance: retract-and-replay of one
//! all-source sweep under single-label moves.
//!
//! Every correlated-resampling loop in `ephemeral-core` perturbs **one
//! edge label at a time** and then asks the same all-pairs question
//! again. A cold sweep re-derives the whole closure from scratch;
//! [`DeltaCursor`] instead memoizes the sweep as a per-row
//! **fresh-word log** and answers a label move `(e, t₁ → t₂)` by
//! replaying only the buckets the move can actually perturb: the two
//! moved buckets plus any bucket containing an edge into a row whose
//! replayed value has diverged from the memoized baseline. Everything
//! else — the whole prefix before `min(t₁, t₂)` and every clean
//! bucket after it — is never even read.
//!
//! ## Why a log is enough
//!
//! A [`FrontierEngine`] sweep sets each `(source, vertex)` reach bit
//! **exactly once**, and its commit callback fires once per freshly set
//! frontier word in non-decreasing bucket time. Recording those
//! `(time, word, fresh-mask)` events per vertex row therefore captures
//! the entire sweep reversibly: because bits only ever turn on, the
//! same log is simultaneously
//!
//! * the **undo log** — `row &= !mask` over a row's log suffix
//!   restores that row's state strictly before a bucket, and
//! * the **redo log** — `row |= mask` replays its commits verbatim.
//!
//! The per-engine snapshot machinery the design sketch called for
//! (row-matrix snapshots for the wide engine, arena watermarks for the
//! sparse one) collapses into this one shared, finer-grained structure:
//! any engine that honours the [`FrontierEngine`] callback contract can
//! record a cursor, so [`DeltaSweep`] is a marker extension with a
//! single provided method. Epoch checkpoints degenerate to per-row log
//! positions — the "nearest checkpoint ≤ min(t₁, t₂)" is found by a
//! binary search over one row's entry times, exact rather than
//! ~√(occupied) apart, and materialized only for the handful of rows a
//! replayed bucket actually reads.
//!
//! ## Lazily opened rows instead of global retraction
//!
//! Retracting the whole log suffix at `min(t₁, t₂)` and fast-forwarding
//! it back is two streamed passes over everything the sweep did after
//! the cut — `O(K)` word writes per apply no matter how small the
//! actual perturbation. Even a passive walk over the occupied suffix
//! asking "is this bucket perturbed?" costs a gate check per bucket.
//! The cursor instead leaves `rows` at the final closure and drives an
//! **agenda** of candidate bucket times: the two moved buckets seed
//! it, and whenever a processed bucket leaves a row diverged from the
//! baseline, the future label times of that row's incident edges — the
//! only buckets that can ever read it — are pushed. A popped candidate
//! is re-checked against the **dirty gate** (is it a moved bucket, or
//! does some edge in it still touch a diverged row?) and processed
//! only then; clean stretches of the sweep are never visited at all.
//! Processing a bucket **opens** each incident row — binary-search its
//! log, clear the suffix masks so the row shows its before-view —
//! recomputes the commits under the frozen-`before` per-bucket
//! semantics shared by all engines, and **splices** the row's log at
//! that time from the old entries to the new ones. Already-open rows
//! are advanced by re-applying their logged entries, which is exact
//! because a bucket left unvisited (or gated off) had no diverged
//! endpoint when its time passed. A shadow copy of the baseline is
//! kept for every word a processed bucket touches; when the tracked
//! divergence set drains at a bucket ≥ max(t₁, t₂) every remaining
//! candidate would gate off anyway, so the walk stops — the early
//! re-convergence exit. At the end every opened row is fast-forwarded
//! through its remaining (still valid) log entries back to the final
//! closure.
//!
//! ## Cost model
//!
//! With `D` processed (dirty) buckets of average bucket degree `d̄`,
//! `R ≤ 2 d̄ D` opened rows of graph degree `δ̄` with logs of average
//! length `ℓ = K/n` (`K` total log entries, `n` vertices,
//! `W = ⌈n/64⌉` words per row):
//!
//! * agenda: `O(δ̄ log)` pushes per newly diverged row, one
//!   `O(d̄)` gate re-check per popped candidate — buckets the
//!   perturbation cannot reach are never visited, so the walk cost is
//!   independent of the lifetime and of the occupied-bucket count;
//! * open / advance / finalize: `O(ℓ + W)` per opened row;
//! * process: `O(d̄ · W)` words per dirty bucket plus a splice of the
//!   touched rows' logs;
//! * memory: `n · W` words of rows plus 16 bytes per log entry, pooled
//!   and reused across applies (zero warm allocations).
//!
//! In the paper's sparse regime (`a = 4n`, average degree 4) the
//! closure is ~1% dense at `n = 4096`, `ℓ` is ~40 and `D` is a few
//! dozen — microseconds against a multi-millisecond cold re-sweep. The
//! benchmark's traced grid run (`python3 perfbench/run.py --workload grid
//! --trace 1`) measures it: `delta.apply_us` per move against
//! `engine.sparse.sweep_us` per cold sweep.
//!
//! ```
//! use ephemeral_graph::generators;
//! use ephemeral_temporal::delta::{DeltaCursor, DeltaSweep};
//! use ephemeral_temporal::wide::WideSweeper;
//! use ephemeral_temporal::{LabelAssignment, TemporalNetwork};
//!
//! // 0—1 @1, 1—2 @2, then move the second edge's label to 1: the
//! // journey 0→2 (strictly increasing labels) disappears.
//! let tn = TemporalNetwork::new(
//!     generators::path(3),
//!     LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
//!     4,
//! )
//! .unwrap();
//! let mut tn = tn;
//! let mut cursor = DeltaCursor::new();
//! let stats = WideSweeper::new().record(&tn, &mut cursor);
//! assert_eq!(stats.reached_bits, 3 + 5); // diagonal + 5 off-diagonal
//! assert_eq!(cursor.reach_word(2, 0), 0b111);
//! let delta = cursor.apply_label_move(&mut tn, 1, 2, 1).unwrap();
//! assert_eq!(cursor.reach_word(2, 0), 0b110); // 0 no longer reaches 2
//! assert!(delta.replayed_buckets >= 1);
//! ```

use crate::engine::SweepStats;
use crate::kernels::{self, AlignedSlab};
use crate::network::{LabelMove, TemporalNetwork};
use crate::sparse::{EngineChoice, FrontierRun, SparseSweeper};
use crate::wide::{EngineKind, FrontierEngine, SweepScratch, WideSweeper};
use crate::Time;
use ephemeral_graph::{EdgeId, Graph, NodeId};
use ephemeral_parallel::faults::{self, CancelToken};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A [`FrontierEngine`] whose sweeps can seed a [`DeltaCursor`].
///
/// Any engine honouring the [`FrontierEngine`] callback contract —
/// each `(word, bit)` set exactly once per sweep, callbacks in
/// non-decreasing bucket time — records correctly, so the trait adds a
/// single provided method and the per-engine impls are empty markers.
pub trait DeltaSweep: FrontierEngine {
    /// Run one full all-source sweep (`sources = 0..n`, start time 0,
    /// full lifetime) through this engine, memoizing it into `cursor`
    /// so subsequent [`DeltaCursor::apply_label_move`] calls replay
    /// differentially instead of re-sweeping cold.
    fn record(&mut self, tn: &TemporalNetwork, cursor: &mut DeltaCursor) -> SweepStats
    where
        Self: Sized,
    {
        cursor.record_from(tn, self)
    }
}

impl DeltaSweep for WideSweeper {}
impl DeltaSweep for SparseSweeper {}

/// One logged commit of a row: word `word` of the row gained the
/// `mask` lanes at bucket time `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowEntry {
    time: Time,
    word: u16,
    mask: u64,
}

/// What one [`DeltaCursor::apply_label_move`] did — the observability
/// the sweep rows and the benchmark's `delta.replayed_buckets` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaApply {
    /// Buckets re-processed for real (the moved buckets plus buckets
    /// containing an edge into a diverged row).
    pub replayed_buckets: usize,
    /// Agenda candidates popped but gated off — the row that put them
    /// on the agenda had already re-converged by the time they came up.
    pub skipped_buckets: usize,
    /// Rows materialized to a before-view during this apply.
    pub opened_rows: usize,
    /// The bucket time at which the replayed state re-converged onto
    /// the memoized baseline and the walk stopped early, if it did.
    pub reconverged_at: Option<Time>,
}

/// A memoized all-source sweep that maintains itself under
/// [`TemporalNetwork::move_label`] surgery.
///
/// Seed with [`DeltaSweep::record`] (or the pooled, dispatching
/// [`SweepScratch::record_delta`]), then drive with
/// [`DeltaCursor::apply_label_move`]. After every apply the cursor's
/// closure rows, [`DeltaCursor::stats`] `reached_bits` and
/// `last_arrival` are **bit-identical** to a cold all-source sweep of
/// the mutated network (pinned by `tests/delta_proptests.rs` across
/// engines and thread counts). `buckets_visited` reports the number of
/// nonempty log buckets rather than a cold pass's visit count — the
/// one field whose cold meaning does not survive memoization.
///
/// All state is pooled: warm applies allocate nothing (covered by
/// `ephemeral-core`'s allocation regression test).
#[derive(Debug, Clone, Default)]
pub struct DeltaCursor {
    n: usize,
    width: usize,
    /// Row-major `n × width` closure matrix (diagonal seeded) in a
    /// 64-byte-aligned slab, held at the **final** state between
    /// applies; only opened rows are ever rewound mid-apply.
    rows: AlignedSlab,
    /// Word-occupancy summary: bit `w` of `occupancy[v·sw + w/64]` is
    /// set iff word `w` of row `v` is nonzero (`sw = ⌈width/64⌉`) —
    /// lets the frozen accumulation walk only the populated words of a
    /// sparse before-view instead of all `⌈n/64⌉`.
    occupancy: Vec<u64>,
    sw: usize,
    /// Total reach bits set (diagonal included).
    reached: usize,
    /// Per-vertex commit logs in non-decreasing time order — the
    /// memoized sweep.
    rowlog: Vec<Vec<RowEntry>>,
    /// Log entries per bucket time (index `t`), maintaining
    /// `nonempty_buckets` and `last_arrival` incrementally.
    time_entries: Vec<u32>,
    nonempty_buckets: usize,
    last_arrival: Time,
    /// `open_slot[r] != MAX` ⇒ row `r` is open at position
    /// `open_pos[open_slot[r]]` of its log (suffix masks cleared).
    open_slot: Vec<u32>,
    opened: Vec<u32>,
    open_pos: Vec<u32>,
    /// `slot[idx] != MAX` ⇒ word `idx` is tracked at that position of
    /// `tracked`/`shadow` (tracked ⟺ diverged-from-baseline at the
    /// row's current log position).
    slot: Vec<u32>,
    tracked: Vec<u32>,
    shadow: Vec<u64>,
    /// Tracked-word count per vertex row — the O(1) dirty gate.
    row_dirty: Vec<u32>,
    /// Frozen-`before` pending masks for one processed bucket,
    /// epoch-stamped so they never need clearing.
    pending: Vec<u64>,
    pstamp: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
    /// Per-bucket scratch: incident-row dedup stamps and list, the old
    /// entry words seen this bucket, and the new commits to splice.
    vstamp: Vec<u64>,
    incident: Vec<u32>,
    bucket_words: Vec<u32>,
    new_entries: Vec<(u32, u64)>,
    /// Candidate bucket times still to visit this apply (min-heap),
    /// and the apply generation at which each row's future incident
    /// times were last pushed (push once per apply — re-divergence is
    /// covered because the earlier push already included all later
    /// times).
    agenda: BinaryHeap<Reverse<Time>>,
    hstamp: Vec<u64>,
    apply_gen: u64,
    /// Cooperative cancellation token checked at every replayed bucket
    /// (`None` = never fires).
    cancel: Option<CancelToken>,
}

impl DeltaCursor {
    /// An empty cursor; [`DeltaSweep::record`] sizes it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or clear) the cooperative cancellation token checked at every
    /// replayed bucket of subsequent applies — the sweep grid's per-cell
    /// watchdog (`--cell-timeout`) installs the cell's token here.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Words per closure row of the recorded sweep (`⌈n/64⌉`).
    #[must_use]
    pub const fn words_per_row(&self) -> usize {
        self.width
    }

    /// Word `w` of the closure row of `v`: bit `i` set iff source
    /// `64w + i` reaches `v` (sources count themselves) — the same
    /// layout as [`FrontierEngine::reach_word`] after a full-width
    /// sweep.
    ///
    /// # Panics
    /// If `v` or `w` is out of range for the recorded network.
    #[inline]
    #[must_use]
    pub fn reach_word(&self, v: NodeId, w: usize) -> u64 {
        assert!(w < self.width, "word {w} out of range");
        self.rows.words()[v as usize * self.width + w]
    }

    /// Foremost arrival `δ(u, v)` of the recorded-and-maintained sweep:
    /// the bucket time at which source `u`'s bit committed into row `v`,
    /// `Some(0)` for `u == v` (a source counts itself at the recording's
    /// start time), `None` when `u` never reaches `v`.
    ///
    /// Scans `v`'s commit log: each `(source, vertex)` bit appears in the
    /// log exactly once, in non-decreasing time order, so the first hit
    /// **is** the foremost arrival and stays bit-identical to a cold
    /// sweep after any [`DeltaCursor::apply_label_move`] sequence — this
    /// is the cursor-resident fast path of
    /// [`QuerySession`](crate::session::QuerySession), answering point
    /// queries in `O(|log_v|)` with no sweep at all.
    ///
    /// # Panics
    /// If `u` or `v` is out of range for the recorded network.
    #[must_use]
    pub fn arrival(&self, u: NodeId, v: NodeId) -> Option<Time> {
        assert!((u as usize) < self.n, "source {u} out of range");
        assert!((v as usize) < self.n, "vertex {v} out of range");
        if u == v {
            return Some(0);
        }
        let word = (u as usize / 64) as u16;
        let bit = 1u64 << (u as usize % 64);
        self.rowlog[v as usize]
            .iter()
            .find(|e| e.word == word && e.mask & bit != 0)
            .map(|e| e.time)
    }

    /// Sweep statistics of the maintained closure; see the type-level
    /// note on `buckets_visited`.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            lanes: self.n,
            reached_bits: self.reached,
            last_arrival: self.last_arrival,
            buckets_visited: self.nonempty_buckets,
            ..SweepStats::default()
        }
    }

    /// Memoize one full all-source sweep of `tn` run through `engine`,
    /// replacing any previously recorded state. Returns the engine's
    /// own sweep stats.
    pub fn record_from<S: FrontierEngine>(
        &mut self,
        tn: &TemporalNetwork,
        engine: &mut S,
    ) -> SweepStats {
        let n = tn.num_nodes();
        let width = n.div_ceil(64);
        debug_assert!(width <= 1 << 16, "row word index must fit u16");
        self.n = n;
        self.width = width;
        self.sw = width.div_ceil(64);
        self.rows.resize_zeroed(n * width);
        self.occupancy.clear();
        self.occupancy.resize(n * self.sw, 0);
        for log in &mut self.rowlog {
            log.clear();
        }
        self.rowlog.resize_with(n, Vec::new);
        self.time_entries.clear();
        self.time_entries.resize(tn.lifetime() as usize + 1, 0);
        self.nonempty_buckets = 0;
        self.last_arrival = 0;
        self.open_slot.clear();
        self.open_slot.resize(n, u32::MAX);
        self.opened.clear();
        self.open_pos.clear();
        self.slot.clear();
        self.slot.resize(n * width, u32::MAX);
        self.tracked.clear();
        self.shadow.clear();
        self.row_dirty.clear();
        self.row_dirty.resize(n, 0);
        self.pending.clear();
        self.pending.resize(n * width, 0);
        self.pstamp.clear();
        self.pstamp.resize(n * width, 0);
        self.vstamp.clear();
        self.vstamp.resize(n, 0);
        self.epoch = 0;
        self.agenda.clear();
        self.hstamp.clear();
        self.hstamp.resize(n, 0);
        self.apply_gen = 0;
        {
            let rows = self.rows.words_mut();
            for v in 0..n {
                rows[v * width + v / 64] |= 1 << (v % 64);
            }
        }
        let mut reached = n;
        let Self {
            rows,
            rowlog,
            time_entries,
            nonempty_buckets,
            last_arrival,
            ..
        } = self;
        let rows = rows.words_mut();
        let stats = engine.sweep(tn, 0..n as NodeId, 0, |v, w, fresh, t| {
            let idx = v as usize * width + w;
            debug_assert_eq!(rows[idx] & fresh, 0, "a reach bit set twice");
            rows[idx] |= fresh;
            reached += fresh.count_ones() as usize;
            rowlog[v as usize].push(RowEntry {
                time: t,
                word: w as u16,
                mask: fresh,
            });
            let te = &mut time_entries[t as usize];
            if *te == 0 {
                *nonempty_buckets += 1;
            }
            *te += 1;
            if t > *last_arrival {
                *last_arrival = t;
            }
        });
        debug_assert_eq!(reached, stats.reached_bits);
        self.reached = reached;
        let rows = self.rows.words();
        for v in 0..n {
            kernels::nonzero_word_mask(
                &rows[v * width..(v + 1) * width],
                &mut self.occupancy[v * self.sw..(v + 1) * self.sw],
            );
        }
        stats
    }

    /// Move one label of edge `e` from `from` to `to` **and** update
    /// the memoized closure by replaying the perturbed buckets of the
    /// time-ordered pass. Returns `None` — with both the network and
    /// the cursor untouched — when the move is invalid (see
    /// [`TemporalNetwork::move_label`]).
    ///
    /// # Panics
    /// If no sweep of a same-sized network has been recorded.
    pub fn apply_label_move(
        &mut self,
        tn: &mut TemporalNetwork,
        e: EdgeId,
        from: Time,
        to: Time,
    ) -> Option<DeltaApply> {
        assert!(
            !self.rows.is_empty() && self.n == tn.num_nodes(),
            "record a sweep over this network before applying moves"
        );
        let mv = tn.move_label(e, from, to)?;
        Some(self.replay(tn, mv))
    }

    /// Replay the walk from `mv.earliest()` against the
    /// already-mutated `tn`, processing only perturbed buckets.
    fn replay(&mut self, tn: &TemporalNetwork, mv: LabelMove) -> DeltaApply {
        let t_hi = mv.latest();
        let width = self.width;
        let sw = self.sw;
        let graph = tn.graph();
        let directed = graph.is_directed();
        let (eu, ev) = graph.endpoints(mv.edge);
        let cancel = self.cancel.clone();
        let Self {
            rows,
            occupancy,
            reached,
            rowlog,
            time_entries,
            nonempty_buckets,
            last_arrival,
            open_slot,
            opened,
            open_pos,
            slot,
            tracked,
            shadow,
            row_dirty,
            pending,
            pstamp,
            epoch,
            touched,
            vstamp,
            incident,
            bucket_words,
            new_entries,
            agenda,
            hstamp,
            apply_gen,
            ..
        } = self;
        let rows = rows.words_mut();

        // Seed the agenda with the two moved buckets — `from` must be
        // visited even when the move emptied its bucket (its lingering
        // log entries target `e`'s endpoints and must be consumed).
        // Every other candidate arrives when a row diverges.
        *apply_gen += 1;
        debug_assert!(agenda.is_empty());
        agenda.push(Reverse(mv.from));
        agenda.push(Reverse(mv.to));
        let mut replayed_buckets = 0usize;
        let mut skipped_buckets = 0usize;
        let mut opened_rows = 0usize;
        let mut reconverged_at = None;
        while let Some(Reverse(t)) = agenda.pop() {
            while agenda.peek() == Some(&Reverse(t)) {
                agenda.pop();
            }
            faults::hit(faults::site::ENGINE_BUCKET, u64::from(t));
            if let Some(c) = &cancel {
                c.checkpoint();
            }
            let edges: &[EdgeId] = tn.edges_at(t);
            // The dirty gate: a bucket's commits can differ from its
            // logged entries only if its edge set changed (the moved
            // buckets) or some endpoint row diverged from the baseline.
            let process = t == mv.from
                || t == mv.to
                || (!tracked.is_empty()
                    && edges.iter().any(|&e| {
                        let (u, v) = graph.endpoints(e);
                        row_dirty[u as usize] != 0 || row_dirty[v as usize] != 0
                    }));
            if !process {
                skipped_buckets += 1;
                continue;
            }
            replayed_buckets += 1;
            *epoch += 1;
            // a) Collect this bucket's incident rows — old and new
            // commits can only target these — and open each to its
            // before-view at `t`.
            incident.clear();
            let mut note = |r: NodeId| {
                if vstamp[r as usize] != *epoch {
                    vstamp[r as usize] = *epoch;
                    incident.push(r);
                }
            };
            for &e in edges {
                let (u, v) = graph.endpoints(e);
                note(u);
                note(v);
            }
            if t == mv.from {
                note(eu);
                note(ev);
            }
            for &r in incident.iter() {
                if open_to(
                    rows, occupancy, sw, reached, rowlog, open_slot, opened, open_pos, width,
                    r as usize, t,
                ) {
                    opened_rows += 1;
                }
            }
            // b) Accumulate frozen-`before` pending masks over the
            // bucket's edges (the Definition 2 commit semantics all
            // engines share); `rows` is not written until commit.
            for &e in edges {
                let (u, v) = graph.endpoints(e);
                accumulate(
                    rows, occupancy, sw, pending, pstamp, touched, *epoch, width, u as usize,
                    v as usize,
                );
                if !directed {
                    accumulate(
                        rows, occupancy, sw, pending, pstamp, touched, *epoch, width, v as usize,
                        u as usize,
                    );
                }
            }
            // c) Advance the baseline shadow of every word the old log
            // touches at this time (capture pre-commit rows: untracked
            // ⟺ current equals baseline at the row's log position).
            bucket_words.clear();
            for &r in incident.iter() {
                let log = &rowlog[r as usize];
                let mut p = open_pos[open_slot[r as usize] as usize] as usize;
                while p < log.len() && log[p].time == t {
                    let idx = r as usize * width + log[p].word as usize;
                    track(slot, tracked, shadow, row_dirty, width, idx, rows[idx]);
                    shadow[slot[idx] as usize] |= log[p].mask;
                    bucket_words.push(idx as u32);
                    p += 1;
                }
            }
            // d) Commit the pending masks.
            new_entries.clear();
            for &word in touched.iter() {
                let idx = word as usize;
                let fresh = pending[idx];
                debug_assert!(fresh != 0 && fresh & rows[idx] == 0);
                track(slot, tracked, shadow, row_dirty, width, idx, rows[idx]);
                rows[idx] |= fresh;
                occ_set(occupancy, sw, width, idx);
                *reached += fresh.count_ones() as usize;
                new_entries.push((word, fresh));
            }
            touched.clear();
            // e) Splice each incident row's log at `t` from its old
            // entries to the committed ones, keeping the bucket-time
            // accounting exact.
            new_entries.sort_unstable_by_key(|&(idx, _)| idx);
            for &r in incident.iter() {
                let r = r as usize;
                let s = open_slot[r] as usize;
                let pos = open_pos[s] as usize;
                let log = &mut rowlog[r];
                let mut pos_end = pos;
                while pos_end < log.len() && log[pos_end].time == t {
                    pos_end += 1;
                }
                let old_len = pos_end - pos;
                let lo = new_entries.partition_point(|&(idx, _)| (idx as usize) < r * width);
                let hi = new_entries.partition_point(|&(idx, _)| (idx as usize) < (r + 1) * width);
                let fresh = &new_entries[lo..hi];
                let entry = |&(idx, mask): &(u32, u64)| RowEntry {
                    time: t,
                    word: (idx as usize - r * width) as u16,
                    mask,
                };
                let keep = old_len.min(fresh.len());
                for (dst, src) in log[pos..pos + keep].iter_mut().zip(fresh) {
                    *dst = entry(src);
                }
                if fresh.len() < old_len {
                    log.drain(pos + fresh.len()..pos_end);
                } else if fresh.len() > old_len {
                    log.splice(pos_end..pos_end, fresh[old_len..].iter().map(entry));
                }
                open_pos[s] = (pos + fresh.len()) as u32;
                if fresh.len() != old_len {
                    let te = &mut time_entries[t as usize];
                    let was = *te;
                    *te = *te - old_len as u32 + fresh.len() as u32;
                    if was == 0 {
                        *nonempty_buckets += 1;
                        if t > *last_arrival {
                            *last_arrival = t;
                        }
                    } else if *te == 0 {
                        *nonempty_buckets -= 1;
                    }
                }
            }
            // f) Reconcile: whatever now matches its shadow is clean
            // again — drop it so tracked ⟺ dirty holds at the bucket
            // boundary.
            for &word in bucket_words.iter() {
                reconcile(slot, tracked, shadow, row_dirty, width, rows, word);
            }
            for &(word, _) in new_entries.iter() {
                reconcile(slot, tracked, shadow, row_dirty, width, rows, word);
            }
            // g) Put the future reads of every still-diverged incident
            // row on the agenda: only buckets holding one of the row's
            // incident edges can ever consult it, so their label times
            // are the complete set of buckets the divergence can
            // perturb.
            for &r in incident.iter() {
                if row_dirty[r as usize] != 0 && hstamp[r as usize] != *apply_gen {
                    hstamp[r as usize] = *apply_gen;
                    enqueue_row_reads(agenda, tn, graph, r, t);
                }
            }
            // h) Re-convergence: past both moved buckets with no
            // divergent word left, every remaining candidate would be
            // gated off — stop the walk.
            if t >= t_hi && tracked.is_empty() {
                reconverged_at = Some(t);
                agenda.clear();
                break;
            }
        }
        // Fast-forward every opened row through its remaining (still
        // valid) log entries back to the final closure and release it.
        for (s, &r) in opened.iter().enumerate() {
            let base = r as usize * width;
            for e in &rowlog[r as usize][open_pos[s] as usize..] {
                let idx = base + e.word as usize;
                debug_assert_eq!(rows[idx] & e.mask, 0);
                rows[idx] |= e.mask;
                occ_set(occupancy, sw, width, idx);
                *reached += e.mask.count_ones() as usize;
            }
            open_slot[r as usize] = u32::MAX;
        }
        opened.clear();
        open_pos.clear();
        // The walk may end with genuinely divergent words (the move
        // changed the closure) — reset tracking for the next apply.
        for &word in tracked.iter() {
            slot[word as usize] = u32::MAX;
            row_dirty[word as usize / width] -= 1;
        }
        tracked.clear();
        shadow.clear();
        while *last_arrival > 0 && time_entries[*last_arrival as usize] == 0 {
            *last_arrival -= 1;
        }
        debug_assert!(row_dirty.iter().all(|&d| d == 0));
        DeltaApply {
            replayed_buckets,
            skipped_buckets,
            opened_rows,
            reconverged_at,
        }
    }
}

/// Push every bucket time after `t` at which an edge incident to row
/// `r` fires — the complete set of future buckets that can read or
/// write `r` — onto the agenda. For directed graphs both directions
/// matter: out-edges forward `r`'s (diverged) row, in-edges commit
/// into it.
fn enqueue_row_reads(
    agenda: &mut BinaryHeap<Reverse<Time>>,
    tn: &TemporalNetwork,
    graph: &Graph,
    r: NodeId,
    t: Time,
) {
    let mut push_edges = |edges: &[EdgeId]| {
        for &e in edges {
            let labels = tn.labels(e);
            for &l in &labels[labels.partition_point(|&l| l <= t)..] {
                agenda.push(Reverse(l));
            }
        }
    };
    push_edges(graph.out_adjacency(r).1);
    if graph.is_directed() {
        push_edges(graph.in_adjacency(r).1);
    }
}

/// Open row `r` at time `t` — clear its logged commits at times `≥ t`
/// so `rows` shows the row's before-view (returns `true`) — or advance
/// an already-open row by re-applying its logged commits at times
/// `< t` (returns `false`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn open_to(
    rows: &mut [u64],
    occupancy: &mut [u64],
    sw: usize,
    reached: &mut usize,
    rowlog: &[Vec<RowEntry>],
    open_slot: &mut [u32],
    opened: &mut Vec<u32>,
    open_pos: &mut Vec<u32>,
    width: usize,
    r: usize,
    t: Time,
) -> bool {
    let log = &rowlog[r];
    let base = r * width;
    if open_slot[r] == u32::MAX {
        open_slot[r] = opened.len() as u32;
        let pos = log.partition_point(|e| e.time < t);
        for e in &log[pos..] {
            let idx = base + e.word as usize;
            debug_assert_eq!(rows[idx] & e.mask, e.mask);
            rows[idx] = kernels::ornot_word(rows[idx], e.mask);
            occ_update(occupancy, sw, width, idx, rows[idx]);
            *reached -= e.mask.count_ones() as usize;
        }
        opened.push(r as u32);
        open_pos.push(pos as u32);
        true
    } else {
        let s = open_slot[r] as usize;
        let mut pos = open_pos[s] as usize;
        while pos < log.len() && log[pos].time < t {
            let e = log[pos];
            let idx = base + e.word as usize;
            debug_assert_eq!(rows[idx] & e.mask, 0);
            rows[idx] |= e.mask;
            occ_set(occupancy, sw, width, idx);
            *reached += e.mask.count_ones() as usize;
            pos += 1;
        }
        open_pos[s] = pos as u32;
        false
    }
}

/// Mark word `idx` of the row matrix nonzero in the occupancy summary.
#[inline]
fn occ_set(occupancy: &mut [u64], sw: usize, width: usize, idx: usize) {
    let (v, w) = (idx / width, idx % width);
    occupancy[v * sw + w / 64] |= 1 << (w % 64);
}

/// Re-derive word `idx`'s occupancy bit from its new value `val`.
#[inline]
fn occ_update(occupancy: &mut [u64], sw: usize, width: usize, idx: usize, val: u64) {
    let (v, w) = (idx / width, idx % width);
    let bit = 1u64 << (w % 64);
    if val == 0 {
        occupancy[v * sw + w / 64] &= !bit;
    } else {
        occupancy[v * sw + w / 64] |= bit;
    }
}

/// OR `rows[f] & !rows[tgt]` into `tgt`'s pending masks,
/// epoch-stamping each newly pending word onto `touched` — visiting
/// only the populated words of `f`'s (typically sparse) before-view
/// via the occupancy summary.
#[inline]
#[allow(clippy::too_many_arguments)]
fn accumulate(
    rows: &[u64],
    occupancy: &[u64],
    sw: usize,
    pending: &mut [u64],
    pstamp: &mut [u64],
    touched: &mut Vec<u32>,
    epoch: u64,
    width: usize,
    f: usize,
    tgt: usize,
) {
    let fbase = f * width;
    let tbase = tgt * width;
    for swi in 0..sw {
        let mut summary = occupancy[f * sw + swi];
        while summary != 0 {
            let w = (swi << 6) + summary.trailing_zeros() as usize;
            summary &= summary - 1;
            let fresh = kernels::ornot_word(rows[fbase + w], rows[tbase + w]);
            if fresh != 0 {
                let idx = tbase + w;
                if pstamp[idx] != epoch {
                    pstamp[idx] = epoch;
                    pending[idx] = 0;
                    touched.push(idx as u32);
                }
                pending[idx] |= fresh;
            }
        }
    }
}

/// Start tracking word `idx` with baseline shadow `val` unless already
/// tracked.
#[inline]
fn track(
    slot: &mut [u32],
    tracked: &mut Vec<u32>,
    shadow: &mut Vec<u64>,
    row_dirty: &mut [u32],
    width: usize,
    idx: usize,
    val: u64,
) {
    if slot[idx] == u32::MAX {
        slot[idx] = tracked.len() as u32;
        tracked.push(idx as u32);
        shadow.push(val);
        row_dirty[idx / width] += 1;
    }
}

/// Untrack word `word` if its row value matches its baseline shadow.
#[inline]
fn reconcile(
    slot: &mut [u32],
    tracked: &mut Vec<u32>,
    shadow: &mut Vec<u64>,
    row_dirty: &mut [u32],
    width: usize,
    rows: &[u64],
    word: u32,
) {
    let idx = word as usize;
    let s = slot[idx];
    if s == u32::MAX || rows[idx] != shadow[s as usize] {
        return;
    }
    let s = s as usize;
    let last = tracked.len() - 1;
    tracked.swap(s, last);
    shadow.swap(s, last);
    tracked.pop();
    shadow.pop();
    if s < tracked.len() {
        slot[tracked[s] as usize] = s as u32;
    }
    slot[idx] = u32::MAX;
    row_dirty[idx / width] -= 1;
}

impl SweepScratch {
    /// Record the pooled [`DeltaCursor`] from one all-source sweep,
    /// dispatched density-aware exactly like the cold entry points
    /// ([`EngineChoice::run`]). Returns the sweep stats and the engine
    /// that ran.
    pub fn record_delta(&mut self, tn: &TemporalNetwork) -> (SweepStats, EngineKind) {
        struct Record<'a> {
            tn: &'a TemporalNetwork,
            delta: &'a mut DeltaCursor,
            scratch: &'a mut SweepScratch,
        }
        impl FrontierRun for Record<'_> {
            type Out = (SweepStats, EngineKind);
            fn run<S: FrontierEngine>(self, _shards: usize) -> Self::Out {
                let stats = self
                    .delta
                    .record_from(self.tn, S::from_scratch(self.scratch));
                (stats, S::kind())
            }
        }
        // The cursor rides outside the scratch for the duration of the
        // dispatch so the selected engine can be borrowed from it.
        let mut delta = std::mem::take(&mut self.delta);
        let out = EngineChoice::run(
            tn,
            1,
            Record {
                tn,
                delta: &mut delta,
                scratch: &mut *self,
            },
        );
        self.delta = delta;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelAssignment;
    use ephemeral_graph::{generators, NodeId};
    use ephemeral_rng::{RandomSource, SeedSequence};

    fn random_network(seed: u64, n: usize, directed: bool, lifetime: Time) -> TemporalNetwork {
        let mut rng = SeedSequence::new(seed).rng(0);
        let g = generators::gnp(n, 3.0 / n as f64, directed, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, lifetime)]).unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    /// Assert the cursor is bit-identical to a cold wide re-sweep.
    fn assert_matches_cold(cursor: &DeltaCursor, tn: &TemporalNetwork) {
        let n = tn.num_nodes();
        let mut cold = DeltaCursor::new();
        let stats = WideSweeper::new().record(tn, &mut cold);
        for v in 0..n as NodeId {
            for w in 0..cold.words_per_row() {
                assert_eq!(
                    cursor.reach_word(v, w),
                    cold.reach_word(v, w),
                    "row {v} word {w} diverged from cold sweep"
                );
            }
        }
        assert_eq!(cursor.stats().reached_bits, stats.reached_bits);
        assert_eq!(cursor.stats().last_arrival, stats.last_arrival);
    }

    #[test]
    fn record_matches_engine_rows() {
        let tn = random_network(1, 100, false, 60);
        let mut cursor = DeltaCursor::new();
        let mut wide = WideSweeper::new();
        let stats = wide.record(&tn, &mut cursor);
        assert_eq!(cursor.stats().reached_bits, stats.reached_bits);
        assert_eq!(cursor.stats().last_arrival, stats.last_arrival);
        for v in 0..100 {
            for w in 0..cursor.words_per_row() {
                assert_eq!(cursor.reach_word(v, w), wide.reach_word(v, w));
            }
        }
    }

    #[test]
    fn sparse_and_wide_record_identically() {
        for directed in [false, true] {
            let tn = random_network(2, 90, directed, 200);
            let mut a = DeltaCursor::new();
            let mut b = DeltaCursor::new();
            let sa = WideSweeper::new().record(&tn, &mut a);
            let sb = SparseSweeper::default().record(&tn, &mut b);
            assert_eq!(sa.reached_bits, sb.reached_bits);
            for v in 0..90 {
                for w in 0..a.words_per_row() {
                    assert_eq!(
                        a.reach_word(v, w),
                        b.reach_word(v, w),
                        "directed {directed}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_move_up_and_down_matches_cold() {
        let mut tn = random_network(3, 80, false, 100);
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let from = tn.labels(0)[0];
        cursor.apply_label_move(&mut tn, 0, from, 100).unwrap();
        assert_matches_cold(&cursor, &tn);
        cursor.apply_label_move(&mut tn, 0, 100, 1).unwrap();
        assert_matches_cold(&cursor, &tn);
    }

    #[test]
    fn doc_example_journey_breaks() {
        let mut tn = TemporalNetwork::new(
            generators::path(3),
            LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
            4,
        )
        .unwrap();
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        assert_eq!(cursor.reach_word(2, 0), 0b111);
        // Move 1—2 to time 1: label sequence 1,1 is not increasing.
        cursor.apply_label_move(&mut tn, 1, 2, 1).unwrap();
        assert_eq!(cursor.reach_word(2, 0), 0b110);
        assert_matches_cold(&cursor, &tn);
        // Move it back out to time 3: journey restored.
        cursor.apply_label_move(&mut tn, 1, 1, 3).unwrap();
        assert_eq!(cursor.reach_word(2, 0), 0b111);
        assert_matches_cold(&cursor, &tn);
    }

    #[test]
    fn random_move_sequences_match_cold_resweeps() {
        for (seed, directed) in [(11u64, false), (12, true)] {
            let mut tn = random_network(seed, 70, directed, 90);
            let mut cursor = DeltaCursor::new();
            SparseSweeper::default().record(&tn, &mut cursor);
            let mut rng = SeedSequence::new(seed).rng(7);
            let m = tn.assignment().num_edges();
            let mut applied = 0;
            for step in 0..120 {
                let e = rng.index(m) as EdgeId;
                let labels = tn.labels(e);
                if labels.is_empty() {
                    continue;
                }
                let from = labels[rng.index(labels.len())];
                let to = rng.range_u32(1, 90);
                if cursor.apply_label_move(&mut tn, e, from, to).is_some() {
                    applied += 1;
                }
                if step % 10 == 0 {
                    assert_matches_cold(&cursor, &tn);
                }
            }
            assert!(applied > 60, "only {applied} moves applied");
            assert_matches_cold(&cursor, &tn);
        }
    }

    #[test]
    fn reconvergence_fires_on_a_far_past_noop_move() {
        // A clique saturates in its first bucket; moving a label among
        // later buckets replays and re-converges without any change.
        let g = generators::clique(8, false);
        let m = g.num_edges();
        let labels = LabelAssignment::from_vecs(vec![(1..=20).collect(); m]).unwrap();
        let mut tn = TemporalNetwork::new(g, labels, 40).unwrap();
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let before = cursor.stats();
        let delta = cursor.apply_label_move(&mut tn, 0, 10, 30).unwrap();
        assert_eq!(delta.reconverged_at, Some(30));
        assert_eq!(cursor.stats().reached_bits, before.reached_bits);
        assert_matches_cold(&cursor, &tn);
    }

    #[test]
    fn clean_buckets_are_never_even_visited() {
        // Same saturated clique: the buckets between the moved pair
        // never reach the agenda — no row diverges, so nothing puts
        // them there.
        let g = generators::clique(8, false);
        let m = g.num_edges();
        let labels = LabelAssignment::from_vecs(vec![(1..=20).collect(); m]).unwrap();
        let mut tn = TemporalNetwork::new(g, labels, 40).unwrap();
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let delta = cursor.apply_label_move(&mut tn, 0, 10, 30).unwrap();
        // Only the moved buckets 10 and 30 are visited at all.
        assert_eq!(delta.replayed_buckets, 2);
        assert_eq!(delta.skipped_buckets, 0);
        // Bucket 10 is a clique bucket, so every vertex is incident
        // and opened once (their log suffixes are empty — the clique
        // saturates at time 1); bucket 30 holds only the moved edge,
        // whose endpoints are already open.
        assert_eq!(delta.opened_rows, 8);
    }

    #[test]
    fn moves_that_empty_and_create_buckets_match_cold() {
        // Path 0—1 @{1}, 1—2 @{2}: moving the only label of a bucket
        // both empties its old bucket and creates a new one.
        let mut tn = TemporalNetwork::new(
            generators::path(3),
            LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
            50,
        )
        .unwrap();
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        cursor.apply_label_move(&mut tn, 0, 1, 40).unwrap();
        assert_matches_cold(&cursor, &tn);
        assert_eq!(tn.occupied_times(), &[2, 40]);
        cursor.apply_label_move(&mut tn, 1, 2, 45).unwrap();
        assert_matches_cold(&cursor, &tn);
        assert_eq!(cursor.stats().last_arrival, 45);
    }

    #[test]
    fn invalid_moves_leave_cursor_and_network_untouched() {
        let mut tn = random_network(4, 40, false, 50);
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let before = cursor.stats();
        assert!(cursor.apply_label_move(&mut tn, 0, 51, 7).is_none());
        let from = tn.labels(0)[0];
        assert!(cursor.apply_label_move(&mut tn, 0, from, 0).is_none());
        assert!(cursor.apply_label_move(&mut tn, 0, from, from).is_none());
        assert_eq!(cursor.stats(), before);
        assert_matches_cold(&cursor, &tn);
    }

    #[test]
    #[should_panic(expected = "record a sweep")]
    fn apply_without_record_panics() {
        let mut tn = random_network(5, 10, false, 10);
        let from = tn.labels(0)[0];
        let _ = DeltaCursor::new().apply_label_move(&mut tn, 0, from, 9);
    }

    #[test]
    fn log_invariants_survive_heavy_churn() {
        let mut tn = random_network(6, 64, false, 40);
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let mut rng = SeedSequence::new(6).rng(1);
        let m = tn.assignment().num_edges();
        for _ in 0..600 {
            let e = rng.index(m) as EdgeId;
            let labels = tn.labels(e);
            let from = labels[rng.index(labels.len())];
            let _ = cursor.apply_label_move(&mut tn, e, from, rng.range_u32(1, 40));
        }
        // The per-row logs stay time-sorted and per-bit-once, and
        // OR-ing them up reproduces the closure rows exactly.
        let mut logged = 0usize;
        for (r, log) in cursor.rowlog.iter().enumerate() {
            let mut seen = vec![0u64; cursor.width];
            seen[r / 64] |= 1 << (r % 64); // the diagonal is never logged
            for pair in log.windows(2) {
                assert!(pair[0].time <= pair[1].time, "row {r} log out of order");
            }
            for e in log {
                assert_ne!(e.mask, 0, "row {r} carries an empty entry");
                assert_eq!(
                    seen[e.word as usize] & e.mask,
                    0,
                    "row {r} bit logged twice"
                );
                seen[e.word as usize] |= e.mask;
                logged += e.mask.count_ones() as usize;
            }
            for (w, &word) in seen.iter().enumerate() {
                assert_eq!(word, cursor.reach_word(r as NodeId, w), "row {r} word {w}");
            }
        }
        assert_eq!(logged + 64, cursor.stats().reached_bits);
        // The bucket-time accounting matches the logs it summarizes.
        let nonzero = cursor.time_entries.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonzero, cursor.stats().buckets_visited);
        let maxt = cursor
            .time_entries
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0);
        assert_eq!(maxt as Time, cursor.stats().last_arrival);
        assert_matches_cold(&cursor, &tn);
    }

    #[test]
    fn scratch_record_delta_dispatches_and_matches() {
        let mut scratch = SweepScratch::new();
        // Sparse pick: large lifetime, few edges per bucket.
        let tn = random_network(7, 210, false, 2000);
        let (stats, kind) = scratch.record_delta(&tn);
        assert_eq!(kind, EngineChoice::pick_for(&tn));
        assert_eq!(kind, EngineKind::Sparse);
        assert_matches_cold(&scratch.delta, &tn);
        assert!(stats.reached_bits >= 210);
        // Below the crossover the dispatch picks the wide engine.
        let small = random_network(8, 40, false, 20);
        let (_, kind) = scratch.record_delta(&small);
        assert_eq!(kind, EngineKind::Wide);
        assert_matches_cold(&scratch.delta, &small);
    }

    #[test]
    fn arrival_reads_the_foremost_time_from_the_log() {
        use crate::foremost::foremost;
        let mut tn = random_network(10, 50, false, 40);
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let check = |cursor: &DeltaCursor, tn: &TemporalNetwork| {
            for u in 0..50u32 {
                let run = foremost(tn, u, 0);
                for v in 0..50u32 {
                    assert_eq!(cursor.arrival(u, v), run.arrival(v), "{u} -> {v}");
                }
            }
        };
        check(&cursor, &tn);
        // The log stays the foremost oracle through label-move churn.
        let mut rng = SeedSequence::new(10).rng(1);
        let m = tn.assignment().num_edges();
        for _ in 0..60 {
            let e = rng.index(m) as EdgeId;
            let labels = tn.labels(e);
            let from = labels[rng.index(labels.len())];
            let _ = cursor.apply_label_move(&mut tn, e, from, rng.range_u32(1, 40));
        }
        check(&cursor, &tn);
    }

    #[test]
    fn multi_label_edges_move_one_label_at_a_time() {
        let mut rng = SeedSequence::new(9).rng(0);
        let g = generators::gnp(30, 0.2, false, &mut rng);
        let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
            vec![
                rng.range_u32(1, 60),
                rng.range_u32(1, 60),
                rng.range_u32(1, 60),
            ]
        })
        .unwrap();
        let mut tn = TemporalNetwork::new(g, labels, 60).unwrap();
        let mut cursor = DeltaCursor::new();
        WideSweeper::new().record(&tn, &mut cursor);
        let m = tn.assignment().num_edges();
        for step in 0..80u32 {
            let e = rng.index(m) as EdgeId;
            let labels = tn.labels(e);
            let from = labels[rng.index(labels.len())];
            let _ = cursor.apply_label_move(&mut tn, e, from, rng.range_u32(1, 60));
            if step % 8 == 0 {
                assert_matches_cold(&cursor, &tn);
            }
        }
        assert_matches_cold(&cursor, &tn);
    }
}
