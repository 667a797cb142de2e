//! Point-query sessions: the lane-allocating query layer over the sweep
//! engines.
//!
//! The full-width engines answer all-pairs questions; the paper's
//! objects — foremost arrival `δ(u, v)`, "can `u` reach `v` by `t`",
//! one source's distance row — are *point* questions. A
//! [`QuerySession`] pins one instance arena-resident (the network's
//! label-bucketed time-edge index, the engines' aligned slabs, and
//! optionally a recorded [`DeltaCursor`](crate::delta::DeltaCursor))
//! and answers batches of up to
//! [`MAX_LANES`] [`PointQuery`]s by packing them as lanes of a single
//! [`BatchSweeper::sweep_lanes`] pass with per-lane early exit — a lane
//! retires the moment its target bit commits, the pass retires when all
//! lanes are done. Row-shaped queries at or above
//! [`WIDE_CROSSOVER`] run instead on whichever full-width engine the
//! density-aware [`EngineChoice`] selects, exactly like the all-pairs
//! entry points.
//!
//! When the session carries a live cursor (after
//! [`QuerySession::record_cursor`] or a [`QuerySession::move_label`]),
//! target queries skip the sweep entirely: the cursor's per-vertex
//! commit logs are the memoized sweep, and
//! [`DeltaCursor::arrival`](crate::delta::DeltaCursor::arrival) reads
//! the foremost arrival straight out of
//! them — bit-identical to a cold sweep after any move sequence.
//!
//! The lane-pass core is shared, not copied: the `T_reach` and
//! connectivity probes of [`reachability`](crate::reachability) read one
//! total from [`block_reached_bits`] below, so point and all-pairs code
//! answer from one semantics contract (`tests/session_proptests.rs` and
//! `tests/engine_proptests.rs` pin the lane pass against the scalar
//! [`foremost`](crate::foremost::foremost) oracle).

use crate::delta::DeltaApply;
use crate::engine::{BatchSweeper, Lane, SweepStats, MAX_LANES};
use crate::network::TemporalNetwork;
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{EngineKind, FrontierEngine, SweepScratch, WIDE_CROSSOVER};
use crate::{Time, NEVER};
use ephemeral_graph::algo::{connected_components, Components};
use ephemeral_graph::{EdgeId, NodeId};
use ephemeral_parallel::faults::CancelToken;
use std::ops::Range;

/// One point question against a resident instance (start time 0, the
/// paper's convention for `δ(u, v)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointQuery {
    /// Does a journey `u → v` arrive by time `by` (inclusive)?
    Reaches {
        /// Source vertex.
        u: NodeId,
        /// Target vertex.
        v: NodeId,
        /// Inclusive arrival deadline.
        by: Time,
    },
    /// The foremost arrival `δ(u, v)`.
    Foremost {
        /// Source vertex.
        u: NodeId,
        /// Target vertex.
        v: NodeId,
    },
    /// The whole distance row `δ(u, ·)` up to `horizon`.
    DistanceRow {
        /// Source vertex.
        u: NodeId,
        /// Inclusive label ceiling ([`NEVER`] = the full lifetime).
        horizon: Time,
    },
}

/// The answer to one [`PointQuery`], variant-for-variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointAnswer {
    /// Answer to [`PointQuery::Reaches`].
    Reaches {
        /// Did a journey arrive by the deadline?
        reached: bool,
        /// Its foremost arrival when it did.
        arrival: Option<Time>,
    },
    /// Answer to [`PointQuery::Foremost`]: `None` when unreachable.
    Foremost(Option<Time>),
    /// Answer to [`PointQuery::DistanceRow`]: `row[v] = δ(u, v)` with
    /// [`NEVER`] marking pairs with no journey within the horizon.
    DistanceRow(Vec<Time>),
}

/// Running counters of everything a session did (monotone; never reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Query batches answered.
    pub batches: u64,
    /// Target-shaped queries answered (reaches + foremost).
    pub point_queries: u64,
    /// Row-shaped queries answered.
    pub row_queries: u64,
    /// Target queries answered from the live cursor log, no sweep.
    pub cursor_hits: u64,
    /// Lane passes run ([`BatchSweeper::sweep_lanes`]).
    pub lane_passes: u64,
    /// Row queries served by a dispatched full-width engine.
    pub dispatched_rows: u64,
    /// Lanes that retired before their horizon across all passes.
    pub retired_early: u64,
    /// Occupied buckets scanned across all lane passes.
    pub buckets_visited: u64,
    /// Target queries answered "unreachable" straight from the static
    /// component index — no lane, no sweep.
    pub component_skips: u64,
}

/// A resident instance plus every pooled buffer needed to answer point
/// queries against it — the engine-layer session the `ephemeral-serve`
/// cache holds one of per instance.
///
/// ```
/// use ephemeral_graph::generators;
/// use ephemeral_temporal::session::{PointAnswer, PointQuery, QuerySession};
/// use ephemeral_temporal::{LabelAssignment, TemporalNetwork};
///
/// // 0—1 @1, 1—2 @2: a journey 0 → 2 arrives at 2.
/// let tn = TemporalNetwork::new(
///     generators::path(3),
///     LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap(),
///     2,
/// )
/// .unwrap();
/// let mut session = QuerySession::new(tn);
/// let answers = session.answer_batch(&[
///     PointQuery::Foremost { u: 0, v: 2 },
///     PointQuery::Reaches { u: 2, v: 0, by: 2 },
/// ]);
/// assert_eq!(answers[0], PointAnswer::Foremost(Some(2)));
/// assert_eq!(
///     answers[1],
///     PointAnswer::Reaches { reached: false, arrival: None }
/// );
/// ```
#[derive(Debug)]
pub struct QuerySession {
    tn: TemporalNetwork,
    scratch: SweepScratch,
    /// Is `scratch.delta` a recording of `tn`'s *current* labels?
    cursor_live: bool,
    /// Static (weak) components of the resident graph, materialised by
    /// the first lane-packing batch. Label moves and assignment swaps
    /// never touch the graph, so one union–find pass serves the whole
    /// session: cross-component targets answer "unreachable" with no
    /// lane, and same-component lanes retire once their frontier
    /// saturates the component.
    components: Option<Components>,
    lanes: Vec<Lane>,
    lane_arrivals: Vec<Time>,
    lane_slots: Vec<usize>,
    stats: SessionStats,
}

impl QuerySession {
    /// Pin `tn` resident with fresh scratch; the first batch sizes the
    /// engine buffers, subsequent batches reuse them.
    #[must_use]
    pub fn new(tn: TemporalNetwork) -> Self {
        Self {
            tn,
            scratch: SweepScratch::new(),
            cursor_live: false,
            components: None,
            lanes: Vec::new(),
            lane_arrivals: Vec::new(),
            lane_slots: Vec::new(),
            stats: SessionStats::default(),
        }
    }

    /// The resident network.
    #[must_use]
    pub fn network(&self) -> &TemporalNetwork {
        &self.tn
    }

    /// Vertices of the resident network.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.tn.num_nodes()
    }

    /// The session's monotone counters.
    #[must_use]
    pub const fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Is the maintained cursor currently answering target queries?
    #[must_use]
    pub const fn cursor_live(&self) -> bool {
        self.cursor_live
    }

    /// Deterministic estimate of the session's resident footprint in
    /// bytes — the instance-cache accounting unit of `ephemeral-serve`.
    /// A size model (network index + engine slabs + cursor log), not an
    /// allocator measurement: identical instances produce identical
    /// estimates on every platform, which keeps cache evictions — and
    /// therefore served answers — byte-stable across runs.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let n = self.tn.num_nodes();
        let width = n.div_ceil(64);
        // Time-edge index: one u32 per (label, edge-slot) plus bucket
        // offsets over the lifetime; labels themselves once more.
        let network = 12 * self.tn.num_time_edges()
            + 8 * self.tn.lifetime() as usize
            + 16 * self.tn.graph().num_edges();
        // Lane pass: before/delta/tmask words plus the touched list.
        let engines = 28 * n;
        // Cursor: closure rows plus 16 bytes per logged commit entry.
        let cursor = if self.cursor_live {
            8 * n * width + 16 * self.scratch.delta.stats().reached_bits
        } else {
            0
        };
        network + engines + cursor
    }

    /// Arm (or clear) one cooperative cancellation token across every
    /// engine in the session — the serve layer installs its per-batch
    /// deadline here.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.scratch.set_cancel_token(token);
    }

    /// Answer one query (a batch of one).
    pub fn answer(&mut self, query: &PointQuery) -> PointAnswer {
        let mut out = Vec::with_capacity(1);
        self.answer_batch_into(std::slice::from_ref(query), &mut out);
        out.pop().expect("one answer per query")
    }

    /// [`QuerySession::answer_batch_into`] into a fresh vector.
    #[must_use]
    pub fn answer_batch(&mut self, queries: &[PointQuery]) -> Vec<PointAnswer> {
        let mut out = Vec::with_capacity(queries.len());
        self.answer_batch_into(queries, &mut out);
        out
    }

    /// Answer up to [`MAX_LANES`] queries in one pass, `out[i]`
    /// answering `queries[i]`.
    ///
    /// Target queries hit the live cursor log when there is one;
    /// everything else packs as lanes of a single
    /// [`BatchSweeper::sweep_lanes`] walk over the occupied buckets,
    /// except row queries at or above [`WIDE_CROSSOVER`], which run
    /// through [`EngineChoice::run`] on the full-width engine the density
    /// selects — the same dispatch the all-pairs entry points use, so
    /// every path answers from one semantics contract.
    ///
    /// # Panics
    /// If `queries.len() > MAX_LANES` or any vertex is out of range.
    pub fn answer_batch_into(&mut self, queries: &[PointQuery], out: &mut Vec<PointAnswer>) {
        assert!(
            queries.len() <= MAX_LANES,
            "at most {MAX_LANES} queries per batch"
        );
        out.clear();
        self.stats.batches += 1;
        let n = self.tn.num_nodes();
        // Below the crossover a row rides the lane pass with the point
        // queries; at and above it a full-width engine serves it.
        let rows_ride_lanes = n < WIDE_CROSSOVER;
        let mut tmp: [Option<PointAnswer>; MAX_LANES] = std::array::from_fn(|_| None);
        // (query slot, source, horizon) of rows the full-width engines
        // will serve after the lane pass.
        let mut dispatched: Vec<(usize, NodeId, Time)> = Vec::new();
        // Row buffers collected during the lane pass, indexed per lane.
        let mut row_of_lane: [usize; MAX_LANES] = [usize::MAX; MAX_LANES];
        let mut rows: Vec<Vec<Time>> = Vec::new();
        self.lanes.clear();
        self.lane_slots.clear();
        // Materialise the static component index on first use: union–find
        // over the (immutable) graph, one pass per session lifetime. A
        // cross-component target can never be reached — answer it here —
        // and a same-component lane can never commit more bits than its
        // component holds, so it retires at component saturation instead
        // of scanning to its horizon.
        let comps = self
            .components
            .get_or_insert_with(|| connected_components(self.tn.graph()));
        let comp_of = |v: NodeId| comps.labels[v as usize];
        let comp_size = |v: NodeId| comps.sizes[comps.labels[v as usize] as usize];
        for (slot, q) in queries.iter().enumerate() {
            match *q {
                PointQuery::Reaches { u, v, by } => {
                    self.stats.point_queries += 1;
                    if self.cursor_live {
                        self.stats.cursor_hits += 1;
                        let arrival = self.scratch.delta.arrival(u, v).filter(|&t| t <= by);
                        tmp[slot] = Some(PointAnswer::Reaches {
                            reached: arrival.is_some(),
                            arrival,
                        });
                    } else if u != v && comp_of(u) != comp_of(v) {
                        self.stats.component_skips += 1;
                        tmp[slot] = Some(PointAnswer::Reaches {
                            reached: false,
                            arrival: None,
                        });
                    } else {
                        self.lane_slots.push(slot);
                        self.lanes
                            .push(Lane::reaches(u, v, by).with_saturation(comp_size(u)));
                    }
                }
                PointQuery::Foremost { u, v } => {
                    self.stats.point_queries += 1;
                    if self.cursor_live {
                        self.stats.cursor_hits += 1;
                        tmp[slot] = Some(PointAnswer::Foremost(self.scratch.delta.arrival(u, v)));
                    } else if u != v && comp_of(u) != comp_of(v) {
                        self.stats.component_skips += 1;
                        tmp[slot] = Some(PointAnswer::Foremost(None));
                    } else {
                        self.lane_slots.push(slot);
                        self.lanes
                            .push(Lane::foremost(u, v).with_saturation(comp_size(u)));
                    }
                }
                PointQuery::DistanceRow { u, horizon } => {
                    self.stats.row_queries += 1;
                    if rows_ride_lanes {
                        row_of_lane[self.lanes.len()] = rows.len();
                        let mut row = vec![NEVER; n];
                        row[u as usize] = 0;
                        rows.push(row);
                        self.lane_slots.push(slot);
                        self.lanes
                            .push(Lane::row(u, horizon).with_saturation(comp_size(u)));
                    } else {
                        dispatched.push((slot, u, horizon));
                    }
                }
            }
        }
        if !self.lanes.is_empty() {
            self.stats.lane_passes += 1;
            self.lane_arrivals.clear();
            self.lane_arrivals.resize(self.lanes.len(), NEVER);
            let rows_ref = &mut rows;
            let lane_stats = self.scratch.batch.sweep_lanes(
                &self.tn,
                &self.lanes,
                0,
                &mut self.lane_arrivals,
                |v, mut bits, t| {
                    while bits != 0 {
                        let lane = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let r = row_of_lane[lane];
                        if r != usize::MAX {
                            rows_ref[r][v as usize] = t;
                        }
                    }
                },
            );
            self.stats.retired_early += lane_stats.retired_early as u64;
            self.stats.buckets_visited += lane_stats.buckets_visited as u64;
            let mut rows_iter = rows.into_iter();
            for (lane, &slot) in self.lane_slots.iter().enumerate() {
                let answer = if row_of_lane[lane] != usize::MAX {
                    PointAnswer::DistanceRow(rows_iter.next().expect("one row per row lane"))
                } else {
                    let arrival = self.lane_arrivals[lane];
                    let arrival = (arrival != NEVER).then_some(arrival);
                    match queries[slot] {
                        PointQuery::Reaches { .. } => PointAnswer::Reaches {
                            reached: arrival.is_some(),
                            arrival,
                        },
                        PointQuery::Foremost { .. } => PointAnswer::Foremost(arrival),
                        PointQuery::DistanceRow { .. } => unreachable!("row lanes are marked"),
                    }
                };
                tmp[slot] = Some(answer);
            }
        }
        for (slot, u, horizon) in dispatched {
            self.stats.dispatched_rows += 1;
            let mut row = vec![NEVER; n];
            row[u as usize] = 0;
            let run = RowSweep {
                tn: &self.tn,
                scratch: &mut self.scratch,
                source: u,
                horizon,
                out: &mut row,
            };
            EngineChoice::run(&self.tn, 1, run);
            tmp[slot] = Some(PointAnswer::DistanceRow(row));
        }
        for answer in tmp.iter_mut().take(queries.len()) {
            out.push(answer.take().expect("every query produced an answer"));
        }
    }

    /// Record (or re-record) the maintained cursor from the resident
    /// network through whichever engine the density dispatch selects;
    /// subsequent target queries answer from the cursor log with no
    /// sweep, and [`QuerySession::move_label`] maintains it in place.
    pub fn record_cursor(&mut self) -> (SweepStats, EngineKind) {
        let recorded = self.scratch.record_delta(&self.tn);
        self.cursor_live = true;
        recorded
    }

    /// Apply a single-label move to the resident instance through the
    /// cursor's retract-and-replay path — the session stays resident and
    /// its answers stay bit-identical to a cold rebuild of the mutated
    /// network (the `move_then_queries_match_a_cold_rebuild` regression).
    /// Records the cursor first when none is live. Returns `None` (and
    /// changes nothing) for invalid moves, exactly like
    /// [`TemporalNetwork::move_label`].
    pub fn move_label(&mut self, e: EdgeId, from: Time, to: Time) -> Option<DeltaApply> {
        if !self.cursor_live {
            self.record_cursor();
        }
        self.scratch
            .delta
            .apply_label_move(&mut self.tn, e, from, to)
    }

    /// Drop the cursor (answers fall back to lane passes). The serve
    /// layer calls this when a panic unwinds out of a cursor apply: the
    /// network's own move completed before the replay started, so only
    /// the memoized log is suspect.
    pub fn invalidate_cursor(&mut self) {
        self.cursor_live = false;
    }

    /// Replace the engine scratch wholesale (cursor included) — the
    /// serve layer's recovery from a panic that unwound mid-sweep and
    /// may have left engine buffers mid-update.
    pub fn reset_scratch(&mut self) {
        self.scratch = SweepScratch::new();
        self.cursor_live = false;
    }
}

/// Row query served by a dispatched full-width engine (one source, the
/// engine's own horizon semantics) — how
/// [`QuerySession::answer_batch_into`] answers rows at or above
/// [`WIDE_CROSSOVER`].
struct RowSweep<'a> {
    tn: &'a TemporalNetwork,
    scratch: &'a mut SweepScratch,
    source: NodeId,
    horizon: Time,
    out: &'a mut [Time],
}

impl FrontierRun for RowSweep<'_> {
    type Out = ();
    fn run<S: FrontierEngine>(self, _shards: usize) {
        let sweeper = S::from_scratch(self.scratch);
        let out = self.out;
        sweeper.sweep_with_horizon(
            self.tn,
            self.source..self.source + 1,
            0,
            self.horizon,
            |v, _w, bits, t| {
                if bits & 1 == 1 {
                    out[v as usize] = t;
                }
            },
        );
    }
}

/// Ordered `(source, vertex)` pairs the sources of one contiguous block
/// reach by a journey, each source counting itself: one lane pass with
/// per-lane saturation exit. This is the shared core of the connectivity
/// and `T_reach` probes in [`reachability`](crate::reachability). The
/// block is connected to everyone iff the total is `block.len() · n`, and
/// preserves reachability iff it equals the block's static total.
/// Allocation-free once the sweeper is warm.
///
/// # Panics
/// If `block.len() > MAX_LANES` or any source is out of range.
#[must_use]
pub fn block_reached_bits(
    tn: &TemporalNetwork,
    sweeper: &mut BatchSweeper,
    block: Range<NodeId>,
) -> usize {
    let width = block.len();
    let mut arrivals = [NEVER; MAX_LANES];
    let mut lanes = [Lane::row(0, NEVER); MAX_LANES];
    for (i, s) in block.enumerate() {
        lanes[i].source = s;
    }
    sweeper
        .sweep_lanes(tn, &lanes[..width], 0, &mut arrivals[..width], |_, _, _| {})
        .reached_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foremost::{foremost, foremost_with_horizon};
    use crate::LabelAssignment;
    use ephemeral_graph::generators;
    use ephemeral_rng::{RandomSource, SeedSequence};

    fn random_network(seed: u64, n: usize, lifetime: Time) -> TemporalNetwork {
        let mut rng = SeedSequence::new(seed).rng(0);
        let g = generators::gnp(n, 3.0 / n as f64, false, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, lifetime)]).unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    fn mixed_queries(seed: u64, n: usize, lifetime: Time, k: usize) -> Vec<PointQuery> {
        let mut rng = SeedSequence::new(seed).rng(7);
        (0..k)
            .map(|_| {
                let u = rng.range_u32(0, n as u32 - 1);
                let v = rng.range_u32(0, n as u32 - 1);
                match rng.index(4) {
                    0 => PointQuery::Reaches {
                        u,
                        v,
                        by: rng.range_u32(1, lifetime),
                    },
                    1 => PointQuery::DistanceRow {
                        u,
                        horizon: if rng.index(2) == 0 {
                            NEVER
                        } else {
                            rng.range_u32(1, lifetime)
                        },
                    },
                    _ => PointQuery::Foremost { u, v },
                }
            })
            .collect()
    }

    fn oracle(tn: &TemporalNetwork, q: &PointQuery) -> PointAnswer {
        match *q {
            PointQuery::Reaches { u, v, by } => {
                let arrival = foremost_with_horizon(tn, u, 0, by).arrival(v);
                PointAnswer::Reaches {
                    reached: arrival.is_some(),
                    arrival,
                }
            }
            PointQuery::Foremost { u, v } => PointAnswer::Foremost(foremost(tn, u, 0).arrival(v)),
            PointQuery::DistanceRow { u, horizon } => PointAnswer::DistanceRow(
                foremost_with_horizon(tn, u, 0, horizon).arrivals().to_vec(),
            ),
        }
    }

    #[test]
    fn batched_answers_match_the_scalar_oracle() {
        for seed in 0..5 {
            let (n, lifetime) = (60, 120);
            let tn = random_network(seed, n, lifetime);
            let mut session = QuerySession::new(tn);
            let queries = mixed_queries(seed, n, lifetime, 50);
            let answers = session.answer_batch(&queries);
            for (q, a) in queries.iter().zip(&answers) {
                assert_eq!(*a, oracle(session.network(), q), "seed {seed} query {q:?}");
            }
        }
    }

    #[test]
    fn cursor_resident_answers_are_identical() {
        let (n, lifetime) = (50, 80);
        let tn = random_network(3, n, lifetime);
        let mut session = QuerySession::new(tn);
        let queries = mixed_queries(3, n, lifetime, 40);
        let cold = session.answer_batch(&queries);
        session.record_cursor();
        assert!(session.cursor_live());
        let warm = session.answer_batch(&queries);
        assert_eq!(cold, warm);
        assert!(session.stats().cursor_hits > 0, "cursor path exercised");
    }

    #[test]
    fn move_then_queries_match_a_cold_rebuild() {
        let (n, lifetime) = (48, 60);
        let mut session = QuerySession::new(random_network(5, n, lifetime));
        let mut rng = SeedSequence::new(5).rng(3);
        let m = session.network().assignment().num_edges();
        let queries = mixed_queries(5, n, lifetime, 30);
        for step in 0..40 {
            let e = rng.index(m) as EdgeId;
            let labels = session.network().labels(e);
            let from = labels[rng.index(labels.len())];
            let _ = session.move_label(e, from, rng.range_u32(1, lifetime));
            if step % 10 == 0 {
                // Bit-identical to a cold rebuild of the mutated network.
                let mut cold = QuerySession::new(session.network().clone());
                assert_eq!(
                    session.answer_batch(&queries),
                    cold.answer_batch(&queries),
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn wide_regime_rows_dispatch_and_match() {
        let n = crate::wide::WIDE_CROSSOVER + 10;
        let lifetime = 64;
        let tn = random_network(11, n, lifetime);
        assert_ne!(EngineChoice::pick_for(&tn), EngineKind::Batch);
        let mut session = QuerySession::new(tn);
        let queries = vec![
            PointQuery::DistanceRow {
                u: 3,
                horizon: NEVER,
            },
            PointQuery::Foremost {
                u: 0,
                v: (n - 1) as NodeId,
            },
            PointQuery::DistanceRow {
                u: (n - 1) as NodeId,
                horizon: 9,
            },
        ];
        let answers = session.answer_batch(&queries);
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, oracle(session.network(), q), "query {q:?}");
        }
        assert_eq!(session.stats().dispatched_rows, 2);
        assert_eq!(session.stats().lane_passes, 1);
    }

    #[test]
    fn shared_primitives_match_their_direct_counterparts() {
        let tn = random_network(2, 70, 90);
        let mut sweeper = BatchSweeper::new();
        for block in [0..64, 64..70, 5..6] {
            let scalar: usize = block
                .clone()
                .map(|s| foremost(&tn, s, 0).reached_count())
                .sum();
            assert_eq!(
                block_reached_bits(&tn, &mut sweeper, block.clone()),
                scalar,
                "block {block:?}"
            );
        }
        // A complete network connects every block: the total reads width · n.
        let g = ephemeral_graph::generators::clique(10, false);
        let labels = LabelAssignment::single(vec![1; g.num_edges()]).unwrap();
        let complete = TemporalNetwork::new(g, labels, 1).unwrap();
        assert_eq!(block_reached_bits(&complete, &mut sweeper, 2..9), 7 * 10);
    }

    #[test]
    fn resident_bytes_are_deterministic_and_grow_with_the_cursor() {
        let tn = random_network(4, 40, 50);
        let mut a = QuerySession::new(tn.clone());
        let mut b = QuerySession::new(tn);
        assert_eq!(a.resident_bytes(), b.resident_bytes());
        let before = a.resident_bytes();
        a.record_cursor();
        assert!(a.resident_bytes() > before, "cursor adds resident bytes");
        b.record_cursor();
        assert_eq!(a.resident_bytes(), b.resident_bytes());
    }

    #[test]
    #[should_panic(expected = "at most 64 queries")]
    fn oversized_batches_panic() {
        let mut session = QuerySession::new(random_network(1, 10, 10));
        let queries: Vec<PointQuery> = (0..65)
            .map(|_| PointQuery::Foremost { u: 0, v: 1 })
            .collect();
        let _ = session.answer_batch(&queries);
    }
}
