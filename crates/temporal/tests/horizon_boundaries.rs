//! Boundary audit of the horizon/occupied-index plumbing: every engine's
//! horizon sweep (row lanes of the lane pass, wide and sparse
//! `sweep_with_horizon`) must match the scalar
//! `foremost_with_horizon` oracle **lane for lane** at the degenerate
//! corners — `horizon == 0`, `horizon ≤ start_time`, `horizon` beyond the
//! lifetime (including `Time::MAX`), `start_time` at and beyond the
//! lifetime — and `TemporalNetwork::occupied_between` must agree with a
//! brute filter at the same corners. These are the windows the sweep
//! engines derive their bucket walks from; an off-by-one here silently
//! truncates or extends every sweep.

use ephemeral_graph::NodeId;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::engine::{BatchSweeper, Lane};
use ephemeral_temporal::foremost::foremost_with_horizon;
use ephemeral_temporal::sparse::SparseSweeper;
use ephemeral_temporal::wide::{FrontierEngine, WideSweeper};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};

/// A 28-vertex network with two labels per edge over an uneven lifetime,
/// so boundaries land both on occupied and on empty buckets.
fn network(seed: u64, lifetime: Time) -> TemporalNetwork {
    let mut rng = SeedSequence::new(seed).rng(3);
    let g = ephemeral_graph::generators::gnp(28, 0.18, false, &mut rng);
    let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
        vec![rng.range_u32(1, lifetime), rng.range_u32(1, lifetime)]
    })
    .unwrap();
    TemporalNetwork::new(g, labels, lifetime).unwrap()
}

/// All-pairs arrivals of the scalar horizon oracle.
fn oracle(tn: &TemporalNetwork, start: Time, horizon: Time) -> Vec<Time> {
    let n = tn.num_nodes();
    let mut out = Vec::with_capacity(n * n);
    for s in 0..n as NodeId {
        out.extend_from_slice(foremost_with_horizon(tn, s, start, horizon).arrivals());
    }
    out
}

/// All-pairs arrivals of a full-width engine under a horizon.
fn frontier<S: FrontierEngine>(tn: &TemporalNetwork, start: Time, horizon: Time) -> Vec<Time> {
    let n = tn.num_nodes();
    let mut out = vec![NEVER; n * n];
    for s in 0..n {
        out[s * n + s] = start;
    }
    S::default().sweep_with_horizon(tn, 0..n as NodeId, start, horizon, |v, w, mut fresh, t| {
        while fresh != 0 {
            let lane = w * 64 + fresh.trailing_zeros() as usize;
            out[lane * n + v as usize] = t;
            fresh &= fresh - 1;
        }
    });
    out
}

/// One row lane per vertex (the networks here have at most 64 vertices,
/// so one lane pass covers every source).
fn row_lanes(tn: &TemporalNetwork, horizon: Time) -> Vec<Lane> {
    (0..tn.num_nodes() as NodeId)
        .map(|s| Lane::row(s, horizon))
        .collect()
}

/// All-pairs arrivals of one lane pass of row lanes under a horizon.
fn batched(tn: &TemporalNetwork, start: Time, horizon: Time) -> Vec<Time> {
    let n = tn.num_nodes();
    let mut out = vec![NEVER; n * n];
    for s in 0..n {
        out[s * n + s] = start;
    }
    let mut arrivals = vec![NEVER; n];
    let lanes = row_lanes(tn, horizon);
    BatchSweeper::new().sweep_lanes(tn, &lanes, start, &mut arrivals, |v, mut bits, t| {
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            out[lane * n + v as usize] = t;
            bits &= bits - 1;
        }
    });
    out
}

/// The boundary grid every engine is pinned on: (start_time, horizon)
/// pairs covering horizon 0, horizon at/below the start, horizon at both
/// ends of the lifetime, horizon far beyond it, and starts at and beyond
/// the lifetime.
fn boundary_points(lifetime: Time) -> Vec<(Time, Time)> {
    vec![
        (0, 0),                           // horizon == 0: no labels usable at all
        (0, 1),                           // only the first bucket
        (0, lifetime),                    // the full sweep
        (0, lifetime + 7),                // horizon beyond the lifetime: clamps
        (0, Time::MAX),                   // extreme horizon: clamps
        (3, 3),                           // start_time == horizon: empty window
        (5, 3),                           // start_time > horizon: empty window
        (lifetime - 1, lifetime),         // one-bucket window at the end
        (lifetime, lifetime),             // start at the lifetime: nothing left
        (lifetime + 9, Time::MAX),        // start beyond the lifetime
        (Time::MAX, Time::MAX),           // saturating start
        (lifetime / 2, lifetime / 2 + 1), // one mid-lifetime bucket
    ]
}

#[test]
fn engines_match_the_scalar_oracle_at_every_boundary() {
    for (seed, lifetime) in [(1u64, 24u32), (2, 97)] {
        let tn = network(seed, lifetime);
        for &(start, horizon) in &boundary_points(lifetime) {
            let want = oracle(&tn, start, horizon);
            assert_eq!(
                batched(&tn, start, horizon),
                want,
                "batch: lifetime {lifetime} start {start} horizon {horizon}"
            );
            assert_eq!(
                frontier::<WideSweeper>(&tn, start, horizon),
                want,
                "wide: lifetime {lifetime} start {start} horizon {horizon}"
            );
            assert_eq!(
                frontier::<SparseSweeper>(&tn, start, horizon),
                want,
                "sparse: lifetime {lifetime} start {start} horizon {horizon}"
            );
        }
    }
}

#[test]
fn occupied_between_matches_brute_filter_at_the_corners() {
    for (seed, lifetime) in [(3u64, 24u32), (4, 97)] {
        let tn = network(seed, lifetime);
        let brute = |after: Time, upto: Time| -> Vec<Time> {
            (1..=tn.lifetime())
                .filter(|&t| !tn.edges_at(t).is_empty())
                .filter(|&t| t > after && t <= upto.min(tn.lifetime()))
                .collect()
        };
        for &(after, upto) in &[
            (0, 0),
            (0, 1),
            (0, lifetime),
            (0, lifetime + 1),
            (0, Time::MAX),
            (3, 3),
            (5, 3),
            (lifetime - 1, lifetime),
            (lifetime, lifetime),
            (lifetime, Time::MAX),
            (lifetime + 9, Time::MAX),
            (Time::MAX, Time::MAX),
            (Time::MAX, 0),
        ] {
            assert_eq!(
                tn.occupied_between(after, upto),
                brute(after, upto).as_slice(),
                "after {after} upto {upto}"
            );
        }
    }
}

#[test]
fn horizon_zero_and_inverted_windows_report_no_arrivals() {
    // The degenerate windows must leave every off-diagonal pair unreached
    // and visit zero buckets — on all three engines.
    let tn = network(5, 40);
    let n = tn.num_nodes();
    for (start, horizon) in [(0u32, 0u32), (7, 7), (9, 2), (40, 40), (41, 60)] {
        let stats = BatchSweeper::new().sweep_lanes(
            &tn,
            &row_lanes(&tn, horizon),
            start,
            &mut vec![NEVER; n],
            |_, _, _| panic!("batch: no arrivals possible in an empty window"),
        );
        assert_eq!(stats.reached_bits, n, "batch: diagonal only");
        assert_eq!(
            stats.buckets_visited, 0,
            "batch: empty window visits nothing"
        );
        let wide = WideSweeper::new().sweep_with_horizon(
            &tn,
            0..n as NodeId,
            start,
            horizon,
            |_, _, _, _| panic!("wide: no arrivals possible in an empty window"),
        );
        assert_eq!(wide.reached_bits, n);
        assert_eq!(wide.buckets_visited, 0, "wide: empty window visits nothing");
        let sparse = SparseSweeper::new().sweep_with_horizon(
            &tn,
            0..n as NodeId,
            start,
            horizon,
            |_, _, _, _| panic!("sparse: no arrivals possible in an empty window"),
        );
        assert_eq!(sparse.reached_bits, n);
        assert_eq!(sparse.buckets_visited, 0);
    }
}
