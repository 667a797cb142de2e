//! The 64-lane lane pass: up to 64 single-source foremost queries in one
//! walk over the label-bucketed time-edge index.
//!
//! One scalar [`foremost`](crate::foremost::foremost) sweep answers "when
//! does *one* source reach every vertex" in `O(M + a)` time.
//! [`BatchSweeper::sweep_lanes`] answers up to **64 such queries in a
//! single pass** by packing one query (a [`Lane`]) per bit of a `u64` word
//! per vertex:
//!
//! * `before[v]` — the lanes that reached `v` **strictly before** the time
//!   currently being processed (each lane starts with its source's bit
//!   set, mirroring `arrival[source] = start_time`);
//! * `delta[v]` — the lanes newly arriving at `v` **at** the current time.
//!
//! Processing time `t` ORs `before[u] & !before[v]` into `delta[v]` for
//! every edge `(u, v)` available at `t` (both directions when undirected),
//! then commits every delta at once. Because a vertex first reached *at*
//! `t` can never extend a journey with another label-`t` edge (labels along
//! a journey are **strictly** increasing, Definition 2), deferring the
//! commit to the end of the bucket reproduces the scalar sweep exactly —
//! every lane's arrivals are **bit-identical** to its own scalar sweep,
//! which `tests/engine_proptests.rs` and `tests/session_proptests.rs` pin
//! down. Each lane retires on its own (target committed, frontier
//! saturated, horizon passed), and the pass stops once every lane has.
//!
//! The lane pass answers the point queries of [`session`](crate::session)
//! and the 64-lane `T_reach` and connectivity probes of
//! [`reachability`](crate::reachability). All-source work (closure,
//! instance diameter, metrics, and the `T_reach` blocks after the probe)
//! runs on the full-width engine the density-aware
//! [`EngineChoice`](crate::sparse::EngineChoice) picks —
//! [`wide`](crate::wide) or [`sparse`](crate::sparse). The scalar
//! `foremost` stays the differential-testing oracle for all of them.

use crate::kernels::ornot_word;
use crate::network::TemporalNetwork;
use crate::{Time, NEVER};
use ephemeral_graph::NodeId;
use ephemeral_parallel::faults::{self, CancelToken};

/// Number of sources a single sweep can carry (one per bit of a `u64`).
pub const MAX_LANES: usize = 64;

/// Number of batches needed to cover `n` sources at [`MAX_LANES`] per sweep.
#[must_use]
pub fn batch_count(n: usize) -> usize {
    n.div_ceil(MAX_LANES)
}

/// The source vertices of batch `b` when sweeping all `n` sources in
/// [`batch_count`]`(n)` batches: `b·64 .. min(n, (b+1)·64)`.
#[must_use]
pub fn batch_range(n: usize, b: usize) -> std::ops::Range<NodeId> {
    let lo = (b * MAX_LANES).min(n) as NodeId;
    let hi = ((b + 1) * MAX_LANES).min(n) as NodeId;
    lo..hi
}

/// What one sweep observed — the one stats record every pass returns:
/// the lane pass ([`BatchSweeper::sweep_lanes`]), the full-width engines
/// ([`FrontierEngine`](crate::wide::FrontierEngine)) and the differential
/// cursor ([`DeltaCursor`](crate::delta::DeltaCursor)). A field the pass
/// has no use for reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of source lanes the sweep carried.
    pub lanes: usize,
    /// Total `(lane, vertex)` bits set at the end of the sweep, the
    /// diagonal included. Equals `lanes · n` iff every lane reached every
    /// vertex.
    pub reached_bits: usize,
    /// The last time any bit newly set — `max` over the reached
    /// off-diagonal pairs of `δ(s, v)`, or `0` when nothing was newly
    /// reached.
    pub last_arrival: Time,
    /// Occupied buckets the pass actually visited before finishing,
    /// saturating or retiring every lane — `≪ a` on dense instances (the
    /// early-exit observable), `≤ occupied ≤ min(a, M)` always.
    pub buckets_visited: usize,
    /// Lanes of a lane pass that retired before their horizon was
    /// exhausted — target found or frontier saturated (horizon expiry is
    /// not "early").
    pub retired_early: usize,
    /// High-water mark of the sparse engine's region arena during the
    /// sweep, in `u32` words.
    pub arena_hiwater_words: usize,
    /// Arena compactions the sparse engine performed during the sweep.
    pub compactions: usize,
    /// Graceful-degradation events the sweep absorbed instead of
    /// aborting: forced arena compactions under an
    /// [`arena budget`](crate::sparse::SparseSweeper::set_arena_budget_words)
    /// and closure row-block shrinks under the streaming-closure byte
    /// budget. `0` means the sweep ran at full capacity.
    pub degraded: usize,
}

impl SweepStats {
    /// Did every lane reach every one of the `n` vertices?
    #[must_use]
    pub const fn all_reached(&self, n: usize) -> bool {
        self.reached_bits == self.lanes * n
    }

    /// Ordered `(lane, vertex)` pairs the sweep did **not** connect
    /// (diagonal bits are always set, so they cancel).
    #[must_use]
    pub const fn unreached_pairs(&self, n: usize) -> usize {
        self.lanes * n - self.reached_bits
    }
}

/// One point query packed into a [`BatchSweeper::sweep_lanes`] pass.
///
/// A lane is a single-source foremost sweep with its own retirement
/// policy: a `target` lane retires the moment the target's bit commits
/// (its arrival is final — commits are non-decreasing in time), a
/// targetless lane stays live to its `horizon` collecting a whole
/// closure/distance row, and every lane retires when its frontier
/// saturates `saturation` vertices — the full-width engines' global
/// saturation exit, generalised per lane. A caller that knows the
/// source's static reachable set (e.g. its connected-component size)
/// tightens the bound with [`Lane::with_saturation`]; the default is
/// `n` (no outside knowledge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    /// Source vertex the lane sweeps from.
    pub source: NodeId,
    /// Vertex whose foremost arrival answers the lane, or `None` to keep
    /// the lane live to its horizon (row-shaped queries).
    pub target: Option<NodeId>,
    /// Inclusive label ceiling: the lane ignores labels greater than
    /// `horizon`, matching
    /// [`foremost_with_horizon`](crate::foremost::foremost_with_horizon)
    /// (clamped to the network lifetime).
    pub horizon: Time,
    /// The lane retires once its frontier holds this many vertices
    /// (clamped to `n`). Sound whenever it upper-bounds the number of
    /// vertices any journey from `source` can ever reach — once the
    /// frontier hits the bound no future bucket can commit a new bit,
    /// so every remaining answer is final.
    pub saturation: u32,
}

impl Lane {
    /// A `foremost(source → target)` lane with no horizon bound.
    #[must_use]
    pub const fn foremost(source: NodeId, target: NodeId) -> Self {
        Self {
            source,
            target: Some(target),
            horizon: NEVER,
            saturation: u32::MAX,
        }
    }

    /// A `reaches(source, target, ≤ by)` lane.
    #[must_use]
    pub const fn reaches(source: NodeId, target: NodeId, by: Time) -> Self {
        Self {
            source,
            target: Some(target),
            horizon: by,
            saturation: u32::MAX,
        }
    }

    /// A whole-row lane: sweep `source` to `horizon` with no target.
    #[must_use]
    pub const fn row(source: NodeId, horizon: Time) -> Self {
        Self {
            source,
            target: None,
            horizon,
            saturation: u32::MAX,
        }
    }

    /// Cap the lane's frontier at `bound` vertices — retire as saturated
    /// once that many are reached. `bound` must upper-bound the source's
    /// statically reachable set or answers may finalise early.
    #[must_use]
    pub const fn with_saturation(mut self, bound: u32) -> Self {
        self.saturation = bound;
        self
    }
}

/// Reusable scratch state of the lane pass.
///
/// Construction is free; the first pass sizes the internal frontier
/// buffers to the network and subsequent passes reuse them, so a loop
/// that keeps one sweeper performs no per-pass allocation (see
/// `ephemeral-core`'s allocation regression test).
#[derive(Debug, Clone, Default)]
pub struct BatchSweeper {
    /// Lanes that reached `v` strictly before the time being processed.
    before: Vec<u64>,
    /// Lanes newly arriving at `v` at the time being processed.
    delta: Vec<u64>,
    /// Vertices with a non-zero `delta` in the current bucket.
    touched: Vec<NodeId>,
    /// Per-vertex lane bits whose target is that vertex — the retirement
    /// index of [`BatchSweeper::sweep_lanes`] (empty between passes).
    tmask: Vec<u64>,
    /// Cooperative cancellation token checked at every bucket boundary
    /// (`None` = never fires).
    cancel: Option<CancelToken>,
}

impl BatchSweeper {
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

    /// Run one lane-allocated pass: up to [`MAX_LANES`] independent point
    /// queries packed as lanes of a single walk over the occupied time
    /// buckets, each lane retiring the moment its own answer is final.
    ///
    /// `arrivals[i]` receives lane `i`'s foremost arrival at its target
    /// ([`NEVER`] when unreachable within the horizon, `start_time` when
    /// `target == source`), or stays [`NEVER`] for targetless row lanes —
    /// their answers stream through `on_reach(v, lanes, t)`, which fires
    /// once per commit of lanes that were live at the top of bucket `t`:
    /// `lanes` holds the lane bits (bit `i` ↔ `lanes[i]`) that first
    /// reached `v` at time `t`, in non-decreasing order of `t`. Labels at
    /// or below `start_time` are ignored, and duplicate sources are
    /// allowed (their lanes evolve identically).
    ///
    /// Lanes are independent (lane `i`'s frontier never reads lane `j`'s
    /// bits), so masking retired lanes out of the propagation leaves every
    /// live lane's evolution bit-identical to a dedicated
    /// [`foremost_with_horizon`](crate::foremost::foremost_with_horizon)
    /// sweep — the per-lane early exit is pure work avoidance
    /// (`tests/session_proptests.rs` pins this differentially).
    ///
    /// ```
    /// use ephemeral_graph::generators;
    /// use ephemeral_temporal::engine::{BatchSweeper, Lane};
    /// use ephemeral_temporal::{LabelAssignment, TemporalNetwork, NEVER};
    ///
    /// // 0—1 @1, 1—2 @2: source 0 reaches vertex 2 at time 2, but vertex
    /// // 2 never reaches 0.
    /// let tn = TemporalNetwork::new(
    ///     generators::path(3),
    ///     LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
    ///     2,
    /// )
    /// .unwrap();
    /// let mut sweeper = BatchSweeper::new();
    /// let lanes = [Lane::foremost(0, 2), Lane::foremost(2, 0)];
    /// let mut arrivals = [0; 2];
    /// let stats = sweeper.sweep_lanes(&tn, &lanes, 0, &mut arrivals, |_, _, _| {});
    /// assert_eq!(arrivals, [2, NEVER]);
    /// assert_eq!(stats.retired_early, 1); // lane 0, when vertex 2 committed
    /// ```
    ///
    /// # Panics
    /// If `lanes.len() > MAX_LANES`, `arrivals.len() != lanes.len()`, or
    /// any source/target is out of range.
    pub fn sweep_lanes(
        &mut self,
        tn: &TemporalNetwork,
        lanes: &[Lane],
        start_time: Time,
        arrivals: &mut [Time],
        mut on_reach: impl FnMut(NodeId, u64, Time),
    ) -> SweepStats {
        let n = tn.num_nodes();
        assert!(
            lanes.len() <= MAX_LANES,
            "at most {MAX_LANES} lanes per pass"
        );
        assert_eq!(arrivals.len(), lanes.len(), "one arrival slot per lane");
        self.before.clear();
        self.before.resize(n, 0);
        self.delta.clear();
        self.delta.resize(n, 0);
        self.touched.clear();
        // At most once per vertex per bucket: reserving `n` keeps a warm
        // pass from growing it.
        self.touched.reserve(n);
        self.tmask.clear();
        self.tmask.resize(n, 0);
        arrivals.fill(NEVER);
        let mut counts = [0usize; MAX_LANES];
        let mut sats = [usize::MAX; MAX_LANES];
        let mut active: u64 = 0;
        let mut max_horizon: Time = start_time;
        // Earliest horizon among lanes still active: buckets at or below
        // it cannot expire anything, so the per-bucket expiry scan only
        // runs when the walk actually crosses a lane's horizon.
        let mut min_horizon: Time = NEVER;
        let mut retired_early = 0usize;
        for (i, lane) in lanes.iter().enumerate() {
            assert!(
                (lane.source as usize) < n,
                "source {} out of range",
                lane.source
            );
            let bit = 1u64 << i;
            self.before[lane.source as usize] |= bit;
            counts[i] = 1;
            sats[i] = (lane.saturation as usize).min(n);
            match lane.target {
                Some(tv) => {
                    assert!((tv as usize) < n, "target {tv} out of range");
                    if tv == lane.source {
                        // Answered at setup: a source reaches itself at
                        // its start time, mirroring scalar `foremost`.
                        arrivals[i] = start_time;
                        continue;
                    }
                    if lane.horizon <= start_time {
                        continue; // no label can serve this lane
                    }
                    self.tmask[tv as usize] |= bit;
                }
                None => {
                    if lane.horizon <= start_time {
                        continue;
                    }
                }
            }
            if counts[i] >= sats[i] {
                continue; // saturated at setup (n == 1, or a unit bound)
            }
            active |= bit;
            max_horizon = max_horizon.max(lane.horizon.min(tn.lifetime()));
            min_horizon = min_horizon.min(lane.horizon);
        }
        let mut reached_bits = lanes.len();
        let mut last_arrival: Time = 0;
        let directed = tn.graph().is_directed();
        let occupied = tn.occupied_between(start_time, max_horizon);
        let mut buckets_visited = 0usize;
        for &t in occupied {
            if active == 0 {
                break;
            }
            // Expire lanes whose horizon ended before this bucket; their
            // answers are final (commits at times ≤ horizon all happened).
            // `min_horizon` keeps the scan off the hot path: a retired
            // lane can leave it stale-low, which only costs a redundant
            // rescan, never a missed expiry.
            if t > min_horizon {
                let mut expiring = active;
                min_horizon = NEVER;
                while expiring != 0 {
                    let i = expiring.trailing_zeros() as usize;
                    expiring &= expiring - 1;
                    if lanes[i].horizon < t {
                        active &= !(1u64 << i);
                    } else {
                        min_horizon = min_horizon.min(lanes[i].horizon);
                    }
                }
                if active == 0 {
                    break;
                }
            }
            faults::hit(faults::site::ENGINE_BUCKET, u64::from(t));
            if let Some(c) = &self.cancel {
                c.checkpoint();
            }
            buckets_visited += 1;
            for &e in tn.edges_at(t) {
                let (u, v) = tn.graph().endpoints(e);
                let bu = self.before[u as usize];
                let bv = self.before[v as usize];
                let forward = ornot_word(bu, bv) & active;
                if forward != 0 {
                    if self.delta[v as usize] == 0 {
                        self.touched.push(v);
                    }
                    self.delta[v as usize] |= forward;
                }
                if !directed {
                    let backward = ornot_word(bv, bu) & active;
                    if backward != 0 {
                        if self.delta[u as usize] == 0 {
                            self.touched.push(u);
                        }
                        self.delta[u as usize] |= backward;
                    }
                }
            }
            // Commit the bucket at once: a vertex first reached at t cannot
            // relay over another label-t edge, so `before` stays frozen
            // while the bucket is scanned. A lane that retires mid-commit may still commit other bits accumulated
            // under this bucket's mask — harmless: its answer was final
            // the moment its retirement condition fired.
            let mut touched = std::mem::take(&mut self.touched);
            for &v in &touched {
                let fresh = ornot_word(self.delta[v as usize], self.before[v as usize]);
                self.delta[v as usize] = 0;
                if fresh != 0 {
                    self.before[v as usize] |= fresh;
                    reached_bits += fresh.count_ones() as usize;
                    last_arrival = t;
                    on_reach(v, fresh, t);
                    let hit = fresh & self.tmask[v as usize];
                    let mut iter = fresh;
                    while iter != 0 {
                        let i = iter.trailing_zeros() as usize;
                        iter &= iter - 1;
                        counts[i] += 1;
                        let bit = 1u64 << i;
                        if hit & bit != 0 {
                            arrivals[i] = t;
                            if active & bit != 0 {
                                active &= !bit;
                                retired_early += 1;
                            }
                        } else if counts[i] >= sats[i] && active & bit != 0 {
                            active &= !bit;
                            retired_early += 1;
                        }
                    }
                }
            }
            touched.clear();
            self.touched = touched;
        }
        self.tmask.clear();
        SweepStats {
            lanes: lanes.len(),
            reached_bits,
            last_arrival,
            buckets_visited,
            retired_early,
            ..SweepStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foremost::{foremost, foremost_with_horizon};
    use crate::LabelAssignment;
    use ephemeral_graph::{generators, GraphBuilder};
    use ephemeral_rng::{RandomSource, SeedSequence};

    fn random_network(seed: u64, n: usize, directed: bool) -> TemporalNetwork {
        let mut rng = SeedSequence::new(seed).rng(0);
        let g = generators::gnp(n, 0.15, directed, &mut rng);
        let lifetime = (n as Time).max(4);
        let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
            vec![rng.range_u32(1, lifetime), rng.range_u32(1, lifetime)]
        })
        .unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    fn scalar_arrivals(tn: &TemporalNetwork, sources: &[NodeId], start: Time) -> Vec<Time> {
        let n = tn.num_nodes();
        let mut out = Vec::with_capacity(sources.len() * n);
        for &s in sources {
            out.extend_from_slice(foremost(tn, s, start).arrivals());
        }
        out
    }

    /// One pass of targetless row lanes from `sources`, its streamed
    /// commits laid out `out[lane · n + v]` ([`NEVER`] when unreached, the
    /// source's own slot at `start`) — lane for lane the `arrivals()` of
    /// a scalar `foremost_with_horizon` run.
    fn row_arrivals(
        sweeper: &mut BatchSweeper,
        tn: &TemporalNetwork,
        sources: &[NodeId],
        start: Time,
        horizon: Time,
    ) -> (Vec<Time>, SweepStats) {
        let n = tn.num_nodes();
        let lanes: Vec<Lane> = sources.iter().map(|&s| Lane::row(s, horizon)).collect();
        let mut out = vec![NEVER; lanes.len() * n];
        for (i, &s) in sources.iter().enumerate() {
            out[i * n + s as usize] = start;
        }
        let mut arrivals = vec![NEVER; lanes.len()];
        let stats = sweeper.sweep_lanes(tn, &lanes, start, &mut arrivals, |v, mut bits, t| {
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out[i * n + v as usize] = t;
            }
        });
        (out, stats)
    }

    #[test]
    fn batch_matches_scalar_on_a_path() {
        let g = generators::path(4);
        let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2], vec![3]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        let sources: Vec<NodeId> = (0..4).collect();
        let (out, stats) = row_arrivals(&mut BatchSweeper::new(), &tn, &sources, 0, NEVER);
        assert_eq!(out, scalar_arrivals(&tn, &sources, 0));
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.last_arrival, 3);
    }

    #[test]
    fn batch_matches_scalar_on_random_networks() {
        // 70 vertices: a full 64-lane batch plus a 6-lane remainder.
        for seed in 0..8 {
            for directed in [false, true] {
                let n = 70usize;
                let tn = random_network(seed, n, directed);
                let mut sweeper = BatchSweeper::new();
                let mut out = Vec::new();
                for b in 0..batch_count(n) {
                    let sources: Vec<NodeId> = batch_range(n, b).collect();
                    out.extend(row_arrivals(&mut sweeper, &tn, &sources, 0, NEVER).0);
                }
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                assert_eq!(
                    out,
                    scalar_arrivals(&tn, &all, 0),
                    "seed {seed} directed {directed}"
                );
            }
        }
    }

    #[test]
    fn nonzero_start_time_matches_scalar() {
        let tn = random_network(3, 40, false);
        let sources: Vec<NodeId> = (0..40).collect();
        for start in [1, 5, 39] {
            let (out, _) = row_arrivals(&mut BatchSweeper::new(), &tn, &sources, start, NEVER);
            assert_eq!(out, scalar_arrivals(&tn, &sources, start), "start {start}");
        }
    }

    #[test]
    fn horizon_matches_scalar_horizon() {
        let tn = random_network(5, 30, false);
        let sources: Vec<NodeId> = (0..30).collect();
        let horizon = 7;
        let (got, _) = row_arrivals(&mut BatchSweeper::new(), &tn, &sources, 0, horizon);
        let mut expected = Vec::new();
        for &s in &sources {
            expected.extend_from_slice(foremost_with_horizon(&tn, s, 0, horizon).arrivals());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn arbitrary_source_subsets_work() {
        let tn = random_network(9, 50, true);
        let sources: Vec<NodeId> = vec![49, 0, 17, 17, 3]; // duplicates allowed
        let (out, _) = row_arrivals(&mut BatchSweeper::new(), &tn, &sources, 0, NEVER);
        assert_eq!(out, scalar_arrivals(&tn, &sources, 0));
        // Duplicate lanes are bit-identical.
        assert_eq!(out[2 * 50..3 * 50], out[3 * 50..4 * 50]);
    }

    #[test]
    fn stats_count_unreached_pairs() {
        // Path 0—1 @2, 1—2 @1: vertices 1 and 2 reach everyone, vertex 0
        // only 1 (the edge onward to 2 fired before it arrived).
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![2], vec![1]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let (_, stats) = row_arrivals(&mut BatchSweeper::new(), &tn, &[0, 1, 2], 0, NEVER);
        let mut expected_bits = 0;
        for s in 0..3 {
            expected_bits += foremost(&tn, s, 0).reached_count();
        }
        assert_eq!(stats.reached_bits, expected_bits);
        assert_eq!(stats.unreached_pairs(3), 9 - expected_bits);
        assert!(!stats.all_reached(3));
    }

    #[test]
    fn last_arrival_is_the_batch_diameter() {
        let tn = random_network(11, 45, false);
        let sources: Vec<NodeId> = (0..45).collect();
        let (_, stats) = row_arrivals(&mut BatchSweeper::new(), &tn, &sources, 0, NEVER);
        let mut max = 0;
        for s in 0..45 {
            for (v, &a) in foremost(&tn, s, 0).arrivals().iter().enumerate() {
                if v as NodeId != s && a != NEVER {
                    max = max.max(a);
                }
            }
        }
        assert_eq!(stats.last_arrival, max);
    }

    #[test]
    fn sweeper_reuse_across_networks_is_clean() {
        let mut sweeper = BatchSweeper::new();
        let tn1 = random_network(1, 60, false);
        let sources: Vec<NodeId> = (0..60).collect();
        let (a1, _) = row_arrivals(&mut sweeper, &tn1, &sources, 0, NEVER);
        // A smaller, different network afterwards must not see stale bits.
        let tn2 = random_network(2, 33, true);
        let sources2: Vec<NodeId> = (0..33).collect();
        let (a2, _) = row_arrivals(&mut sweeper, &tn2, &sources2, 0, NEVER);
        assert_eq!(a2, scalar_arrivals(&tn2, &sources2, 0));
        // And the big one still matches when re-swept.
        let (a1b, _) = row_arrivals(&mut sweeper, &tn1, &sources, 0, NEVER);
        assert_eq!(a1, a1b);
        assert_eq!(a1, scalar_arrivals(&tn1, &sources, 0));
    }

    #[test]
    fn lanes_reaching_exposes_the_closure_word() {
        // Row lanes stream each vertex's closure word: the lanes whose
        // source it is, plus the lane bits committed at it.
        let g = generators::path(3);
        let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let lanes = [0, 1, 2].map(|s| Lane::row(s, NEVER));
        let mut word = [0b001u64, 0b010, 0b100];
        let mut sweeper = BatchSweeper::new();
        sweeper.sweep_lanes(&tn, &lanes, 0, &mut [NEVER; 3], |v, bits, _| {
            word[v as usize] |= bits;
        });
        // Vertex 2 is reached by sources 0 (via 1) and 1, plus itself.
        assert_eq!(word[2], 0b111);
        // Vertex 0 only by itself and source 1 (edge 0—1 @1).
        assert_eq!(word[0], 0b011);
    }

    #[test]
    fn empty_sources_are_a_no_op() {
        let tn = random_network(4, 10, false);
        let mut sweeper = BatchSweeper::new();
        let stats = sweeper.sweep_lanes(&tn, &[], 0, &mut [], |_, _, _| panic!("no events"));
        assert_eq!(stats.lanes, 0);
        assert_eq!(stats.reached_bits, 0);
        assert_eq!(stats.last_arrival, 0);
        assert_eq!(stats.buckets_visited, 0);
        assert!(stats.all_reached(10), "0 lanes trivially cover 0 bits");
    }

    #[test]
    fn directed_arcs_are_one_way_in_batch() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let tn = TemporalNetwork::new(g, LabelAssignment::single(vec![1, 2]).unwrap(), 2).unwrap();
        let (out, _) = row_arrivals(&mut BatchSweeper::new(), &tn, &[0, 1, 2], 0, NEVER);
        assert_eq!(out, scalar_arrivals(&tn, &[0, 1, 2], 0));
        assert_eq!(out[0..3], [0, 1, 2]); // 0 reaches everyone in order
        assert_eq!(out[6..9], [NEVER, NEVER, 0]); // 2 reaches only itself
    }

    #[test]
    fn batch_helpers_cover_all_sources() {
        assert_eq!(batch_count(0), 0);
        assert_eq!(batch_count(1), 1);
        assert_eq!(batch_count(64), 1);
        assert_eq!(batch_count(65), 2);
        assert_eq!(batch_range(65, 0), 0..64);
        assert_eq!(batch_range(65, 1), 64..65);
        let n = 150;
        let mut seen = Vec::new();
        for b in 0..batch_count(n) {
            seen.extend(batch_range(n, b));
        }
        assert_eq!(seen, (0..n as NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn lane_pass_matches_scalar_foremost() {
        for seed in 0..6 {
            for directed in [false, true] {
                let tn = random_network(seed, 48, directed);
                let n = tn.num_nodes();
                let mut rng = SeedSequence::new(seed ^ 0xbeef).rng(1);
                let lanes: Vec<Lane> = (0..40)
                    .map(|_| {
                        let source = rng.range_u32(0, n as u32 - 1);
                        let target = rng.range_u32(0, n as u32 - 1);
                        let horizon = if rng.range_u32(0, 2) == 0 {
                            NEVER
                        } else {
                            rng.range_u32(1, tn.lifetime())
                        };
                        Lane {
                            source,
                            target: Some(target),
                            horizon,
                            saturation: u32::MAX,
                        }
                    })
                    .collect();
                let mut got = vec![0; lanes.len()];
                BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut got, |_, _, _| {});
                for (i, lane) in lanes.iter().enumerate() {
                    let run = foremost_with_horizon(&tn, lane.source, 0, lane.horizon);
                    let want = run.arrival(lane.target.unwrap()).unwrap_or(NEVER);
                    assert_eq!(
                        got[i], want,
                        "seed {seed} directed {directed} lane {i}: {lane:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_self_targets_and_tight_horizons_answer_at_setup() {
        let tn = random_network(2, 20, false);
        let lanes = vec![
            Lane::foremost(7, 7),
            Lane::reaches(3, 9, 0), // horizon ≤ start: nothing can serve it
            Lane::reaches(3, 3, 0), // but a self-target still answers
        ];
        let mut got = vec![0; 3];
        let stats = BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut got, |_, _, _| {});
        assert_eq!(got, vec![0, NEVER, 0]);
        assert_eq!(stats.buckets_visited, 0, "no lane needed a bucket");
    }

    #[test]
    fn row_lanes_stream_the_same_commits_as_a_full_sweep() {
        let tn = random_network(13, 50, false);
        let n = tn.num_nodes();
        let sources: Vec<NodeId> = (0..50).collect();
        let lanes: Vec<Lane> = sources.iter().map(|&s| Lane::row(s, NEVER)).collect();
        let mut got = vec![NEVER; lanes.len() * n];
        for (i, &s) in sources.iter().enumerate() {
            got[i * n + s as usize] = 0;
        }
        let mut arrivals = vec![0; lanes.len()];
        let stats =
            BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut arrivals, |v, mut bits, t| {
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    got[i * n + v as usize] = t;
                }
            });
        assert_eq!(got, scalar_arrivals(&tn, &sources, 0));
        assert!(
            arrivals.iter().all(|&a| a == NEVER),
            "row lanes have no target"
        );
        assert_eq!(stats.lanes, 50);
    }

    #[test]
    fn retired_lanes_stop_the_pass_early() {
        // Path with strictly increasing labels: querying the immediate
        // neighbour of each source retires every lane after its own edge
        // fires, long before the last occupied bucket.
        let n = 40usize;
        let g = generators::path(n);
        let labels = LabelAssignment::from_fn(n - 1, |e| vec![(e as Time) + 1]).unwrap();
        let tn = TemporalNetwork::new(g, labels, n as Time).unwrap();
        let lanes = vec![Lane::foremost(0, 1), Lane::foremost(1, 2)];
        let mut got = vec![0; 2];
        let stats = BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut got, |_, _, _| {});
        assert_eq!(got, vec![1, 2]);
        assert_eq!(stats.retired_early, 2);
        assert!(
            stats.buckets_visited <= 2,
            "pass must stop once both lanes retire, saw {}",
            stats.buckets_visited
        );
    }

    #[test]
    fn horizon_expired_lanes_report_horizon_answers() {
        let tn = random_network(21, 30, false);
        // Every query bounded at horizon 3: lanes whose journey needs a
        // later label must come back NEVER, exactly as the scalar oracle.
        let lanes: Vec<Lane> = (0..30).map(|v| Lane::reaches(0, v, 3)).collect();
        let mut got = vec![0; lanes.len()];
        BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut got, |_, _, _| {});
        let run = foremost_with_horizon(&tn, 0, 0, 3);
        for (v, &arrival) in got.iter().enumerate() {
            assert_eq!(arrival, run.arrival(v as NodeId).unwrap_or(NEVER), "v {v}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn too_many_lanes_panics() {
        let tn = random_network(1, 80, false);
        let lanes: Vec<Lane> = (0..65).map(|v| Lane::foremost(0, v)).collect();
        let mut got = vec![0; 65];
        let _ = BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut got, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn too_many_sources_panics() {
        let tn = random_network(1, 80, false);
        let lanes: Vec<Lane> = (0..65).map(|s| Lane::row(s, NEVER)).collect();
        let _ = BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut [0; 65], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let tn = random_network(1, 5, false);
        let lanes = [Lane::row(9, NEVER)];
        let _ = BatchSweeper::new().sweep_lanes(&tn, &lanes, 0, &mut [0], |_, _, _| {});
    }
}
