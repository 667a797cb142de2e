//! # ephemeral-temporal
//!
//! Temporal networks with discrete time labels, after Akrida, Gąsieniec,
//! Mertzios & Spirakis, *"Ephemeral Networks with Random Availability of
//! Links"* (SPAA'14), §2, which in turn extends Kempe–Kleinberg–Kumar
//! (STOC'00) and Mertzios–Michail–Chatzigiannakis–Spirakis (ICALP'13).
//!
//! A **temporal network** `(G, L)` assigns every edge `e` of a (di)graph a
//! finite set `L_e ⊆ {1, …, a}` of discrete availability times (`a` = the
//! network's *lifetime*; the network is *ephemeral* — no edge exists after
//! time `a`). A **journey** is a path whose consecutive edges carry strictly
//! increasing labels; its **arrival time** is the label of its last edge.
//! The **temporal distance** `δ(u, v)` is the minimum arrival time over all
//! `(u, v)`-journeys (the arrival of the *foremost* journey).
//!
//! This crate provides the exact combinatorial layer — random models live in
//! `ephemeral-core`:
//!
//! * [`LabelAssignment`]: CSR storage of per-edge label sets.
//! * [`TemporalNetwork`]: graph + labels + lifetime, with a label-bucketed
//!   time-edge index so journey sweeps run in `O(M + a)` per source, where
//!   `M` is the number of time-edges.
//! * [`foremost`]: earliest-arrival journeys (with reconstruction), and
//!   [`reverse`]: their latest-departure dual.
//! * [`engine`]: the 64-lane lane pass — up to 64 single-source queries
//!   (point queries, or whole rows) packed as lanes of one pass over the
//!   time-edge index, each lane retiring on its own, with arrivals
//!   guaranteed **bit-identical** to per-source scalar `foremost` sweeps
//!   (property tests in `tests/engine_proptests.rs` enforce this; the
//!   scalar sweep stays as the differential-testing oracle). It answers
//!   point queries and the 64-lane `T_reach` and connectivity probes, and
//!   defines [`engine::SweepStats`], the one stats record every pass
//!   returns.
//! * [`wide`]: the wide-frontier closure engine — **all `n` sources in a
//!   single time-ordered pass** (`⌈n/64⌉` frontier words per vertex), with
//!   saturation early-exit, empty-bucket skipping over
//!   [`TemporalNetwork::occupied_times`], and deterministic column-block
//!   sharding for intra-instance parallelism; arrivals bit-identical to
//!   the scalar oracle (`tests/wide_proptests.rs`).
//! * [`sparse`]: the event-driven sparse-frontier engine — sorted
//!   reacher-lists in an append-only arena with region sharing, so the
//!   per-bucket cost tracks the frontiers that actually changed instead
//!   of `n × ⌈n/64⌉`; arrivals bit-identical to the wide engine and the
//!   scalar oracle (`tests/sparse_proptests.rs`).
//!   The engine shards deterministically over contiguous source blocks
//!   (per-worker arena + agenda, shard-ordered folds bit-identical for
//!   any worker count), compacts its arena under relabel churn, and
//!   serves closure bits through a byte-budgeted streaming block cache
//!   plus a pooled `for_each_reach_row` visitor — an `n = 10⁶` closure
//!   never materialises the `n × ⌈n/64⌉` matrix.
//!   [`sparse::EngineChoice`] is the density-aware dispatch every
//!   all-source entry point runs through, and it always runs one of the
//!   two full-width engines: wide below [`wide::WIDE_CROSSOVER`], then
//!   wide for dense/high-degree instances and event-driven for genuinely
//!   sparse ones — with the worker-aware `pick_parallel` crediting the
//!   wide engine's column-block parallelism when entry points fan out.
//! * [`distance`]: single-source temporal distances and the instance
//!   temporal diameter — engine-dispatched through
//!   [`sparse::EngineChoice`].
//! * [`reachability`]: temporal reach sets and the paper's `T_reach`
//!   property ("every static path is matched by a journey", Definition 6) —
//!   engine-dispatched checks with early exit (a 64-lane probe first,
//!   then full-width blocks).
//! * [`closure`]: bit-packed all-pairs reachability computed by whichever
//!   full-width engine the dispatch selects; [`metrics`]: whole-network
//!   summary statistics (temporal efficiency etc.), engine-dispatched the
//!   same way.
//! * [`delta`]: differential closure maintenance — [`delta::DeltaCursor`]
//!   records one all-source sweep (any engine, or dispatched via
//!   [`wide::SweepScratch::record_delta`]) as per-vertex time-ordered
//!   frontier-word logs, and answers [`TemporalNetwork::move_label`]
//!   surgery by retracting only the diverging rows' log suffixes and
//!   replaying buckets from the earlier label onward through a
//!   time-keyed agenda with re-convergence gating; results bit-identical
//!   to cold sweeps after any move sequence, on any recording engine, at
//!   any thread count (`tests/delta_proptests.rs`), and warm applies
//!   allocate nothing (`ephemeral-core`'s allocation regression).
//! * [`session`]: the lane-allocating point-query layer —
//!   [`session::QuerySession`] pins one instance arena-resident and
//!   answers batches of up to 64 point queries (`reaches(u, v, ≤t)`,
//!   `foremost(u, v)`, `distance_row(u, horizon)`) as lanes of a single
//!   [`engine`] pass with per-lane early exit, runs row-shaped queries at
//!   or above the crossover on the density-selected full-width engine,
//!   and serves target queries straight from a live [`delta`] cursor
//!   log; the `T_reach` and connectivity probes share its lane-pass core,
//!   so point and all-pairs code answer from one semantics contract
//!   (`tests/session_proptests.rs`).
//! * In-place reuse: [`LabelAssignment::refill_edge_major`] (one bulk
//!   write of every draw, then a per-edge sort and dedup) /
//!   [`LabelAssignment::refill_with`] redraw labels into existing buffers
//!   and [`TemporalNetwork::replace_assignment`] rebuilds the time-edge
//!   index without reallocating — the zero-allocation per-trial path of the
//!   Monte Carlo estimators in `ephemeral-core`. The static side of
//!   `T_reach` never changes with the labels:
//!   [`reachability::StaticReach`] is built once per substrate and shared
//!   across trials.
//! * [`kernels`]: the single explicit word-kernel layer the sweep
//!   engines route their inner loops through — unrolled-chunk OR/ANDN
//!   accumulate/commit, popcounts, branch-light (and galloping)
//!   sorted-`u32` merges, and the 64-byte-aligned slab types backing
//!   frontier rows and the sparse arena — each kernel pinned
//!   bit-identical to a naive scalar reference
//!   (`tests/kernel_proptests.rs`). The seam a future GPU/ISPC backend
//!   would replace.
//! * Robustness: every engine ([`engine`], [`wide`], [`sparse`], the
//!   [`delta`] cursor) checks an optional `CancelToken` from
//!   `ephemeral-parallel` at each bucket boundary (armed across a whole
//!   scratch bundle by [`wide::SweepScratch::set_cancel_token`]) and
//!   carries the `engine::bucket` failpoint for deterministic fault
//!   injection; the sparse engine **degrades instead of aborting** under
//!   memory pressure — a word budget
//!   ([`sparse::SparseSweeper::set_arena_budget_words`]) forces arena
//!   evacuations and a tight closure byte budget shrinks row blocks,
//!   both counted in [`engine::SweepStats::degraded`] with arrivals
//!   guaranteed unchanged.
//! * [`reference`](mod@reference): the sort-based foremost used for
//!   differential testing.
//!
//! ```
//! use ephemeral_graph::generators;
//! use ephemeral_temporal::{LabelAssignment, TemporalNetwork, foremost};
//!
//! // A 3-path 0—1—2 available as 0—1 at time 1 and 1—2 at time 2.
//! let g = generators::path(3);
//! let labels = LabelAssignment::from_vecs(vec![vec![1], vec![2]]).unwrap();
//! let tn = TemporalNetwork::new(g, labels, 2).unwrap();
//! let run = foremost::foremost(&tn, 0, 0);
//! assert_eq!(run.arrival(2), Some(2));
//! let j = run.journey_to(2).unwrap();
//! assert_eq!(j.hops(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
pub mod closure;
pub mod delta;
pub mod distance;
pub mod engine;
pub mod foremost;
mod journey;
pub mod kernels;
pub mod metrics;
mod network;
pub mod reachability;
pub mod reference;
pub mod reverse;
pub mod session;
pub mod sparse;
pub mod wide;

pub use assignment::LabelAssignment;
pub use journey::{Journey, JourneyError, TimeEdge};
pub use network::{LabelMove, TemporalError, TemporalNetwork};

/// Discrete time label (`1..=lifetime`).
pub type Time = u32;

/// Sentinel arrival time for "no journey".
pub const NEVER: Time = Time::MAX;
