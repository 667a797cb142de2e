//! Differential property tests of the point-query layer: every answer a
//! [`QuerySession`] produces — lane passes with per-lane early exit,
//! dispatched full-width rows, cursor-log fast paths, label-move
//! maintenance — must be **bit-identical** to the scalar `foremost`
//! oracle, across ragged batch sizes, shared-endpoint buckets, horizons
//! that expire lanes mid-pass, and engine regimes.

use ephemeral_graph::generators;
use ephemeral_graph::{EdgeId, NodeId};
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::engine::{BatchSweeper, Lane, MAX_LANES};
use ephemeral_temporal::foremost::{foremost, foremost_with_horizon};
use ephemeral_temporal::session::{PointAnswer, PointQuery, QuerySession};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};
use proptest::prelude::*;

fn random_network(
    seed: u64,
    n: usize,
    p: f64,
    directed: bool,
    max_labels: usize,
    lifetime: Time,
) -> TemporalNetwork {
    let mut rng = SeedSequence::new(seed).rng(42);
    let g = generators::gnp(n, p, directed, &mut rng);
    let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
        let k = 1 + rng.bounded_u64(max_labels as u64) as usize;
        (0..k).map(|_| rng.range_u32(1, lifetime)).collect()
    })
    .unwrap();
    TemporalNetwork::new(g, labels, lifetime).unwrap()
}

/// Mixed query batch over a fixed vertex pool, deliberately reusing a
/// few endpoints so several lanes share source/target buckets.
fn mixed_queries(seed: u64, n: usize, lifetime: Time, k: usize) -> Vec<PointQuery> {
    let mut rng = SeedSequence::new(seed).rng(9);
    let pool: Vec<NodeId> = (0..8.min(n)).map(|_| rng.bounded_u32(n as u32)).collect();
    let pick = move |rng: &mut ephemeral_rng::Xoshiro256PlusPlus| {
        if rng.index(2) == 0 && !pool.is_empty() {
            pool[rng.index(pool.len())]
        } else {
            rng.bounded_u32(n as u32)
        }
    };
    (0..k)
        .map(|_| {
            let u = pick(&mut rng);
            let v = pick(&mut rng);
            match rng.index(5) {
                0 => PointQuery::DistanceRow {
                    u,
                    horizon: if rng.index(2) == 0 {
                        NEVER
                    } else {
                        rng.range_u32(1, lifetime)
                    },
                },
                1 | 2 => PointQuery::Reaches {
                    u,
                    v,
                    by: rng.range_u32(1, lifetime),
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
        PointQuery::DistanceRow { u, horizon } => {
            PointAnswer::DistanceRow(foremost_with_horizon(tn, u, 0, horizon).arrivals().to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-lane early exit is pure work avoidance: a lane retired at
    /// time t reports the same foremost arrival as a full lane pass of
    /// targetless row lanes (no early exit) and as the scalar oracle —
    /// including lanes that never complete (horizon answers) and lanes
    /// sharing endpoints in the same bucket.
    #[test]
    fn retired_lanes_report_full_pass_arrivals(
        seed: u64,
        n in 2usize..80,
        p in 0.02f64..0.35,
        directed: bool,
        lanes in 1usize..=MAX_LANES,
        lifetime in 2u32..70,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let mut rng = SeedSequence::new(seed ^ 0x1a7e).rng(3);
        let queries: Vec<Lane> = (0..lanes)
            .map(|_| {
                let source = rng.bounded_u32(n as u32);
                let target = rng.bounded_u32(n as u32);
                let horizon = match rng.index(3) {
                    0 => NEVER,
                    1 => rng.range_u32(1, lifetime),
                    // Horizons past the lifetime clamp to it.
                    _ => lifetime + rng.bounded_u32(5),
                };
                Lane { source, target: Some(target), horizon, saturation: u32::MAX }
            })
            .collect();
        let mut early = vec![0 as Time; lanes];
        BatchSweeper::new().sweep_lanes(&tn, &queries, 0, &mut early, |_, _, _| {});
        // The full pass: same sources, no targets, per-source horizons
        // served by scanning the complete arrival rows afterwards.
        let rows: Vec<Lane> = queries.iter().map(|l| Lane::row(l.source, NEVER)).collect();
        let mut full = vec![NEVER; lanes * n];
        BatchSweeper::new().sweep_lanes(&tn, &rows, 0, &mut vec![NEVER; lanes], |v, mut bits, t| {
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                full[i * n + v as usize] = t;
            }
        });
        for (i, lane) in queries.iter().enumerate() {
            let v = lane.target.unwrap() as usize;
            let unbounded = full[i * n + v];
            let bounded = if unbounded != NEVER && unbounded <= lane.horizon {
                unbounded
            } else if v == lane.source as usize {
                0
            } else {
                NEVER
            };
            prop_assert_eq!(early[i], bounded, "lane {} vs full pass", i);
            let scalar = foremost_with_horizon(&tn, lane.source, 0, lane.horizon)
                .arrival(lane.target.unwrap())
                .unwrap_or(NEVER);
            prop_assert_eq!(early[i], scalar, "lane {} vs scalar", i);
        }
    }

    /// Session batches answer exactly like the scalar oracle, at ragged
    /// sizes around the lane width (1, 63, 64 per batch; 65 queries
    /// split across two batches), with shared endpoints.
    #[test]
    fn session_batches_match_scalar(
        seed: u64,
        n in 2usize..70,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 2u32..60,
        total_idx in 0usize..5,
    ) {
        // Ragged sizes around the lane width: 65 splits across batches.
        let total = [1usize, 2, 63, 64, 65][total_idx];
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let queries = mixed_queries(seed, n, lifetime, total);
        let mut session = QuerySession::new(tn);
        let mut answers = Vec::new();
        for chunk in queries.chunks(MAX_LANES) {
            answers.extend(session.answer_batch(chunk));
        }
        for (q, a) in queries.iter().zip(&answers) {
            prop_assert_eq!(a, &oracle(session.network(), q), "query {:?}", q);
        }
    }

    /// The cursor-resident fast path and the lane-pass path answer
    /// bit-identically, before and after label-move maintenance, and
    /// both equal a cold rebuild of the mutated instance.
    #[test]
    fn cursor_maintenance_matches_cold_rebuild(
        seed: u64,
        n in 2usize..50,
        p in 0.03f64..0.3,
        lifetime in 4u32..50,
        moves in 1usize..20,
    ) {
        let tn = random_network(seed, n, p, false, 2, lifetime);
        if tn.assignment().num_edges() == 0 {
            return; // no edge to move; nothing to maintain
        }
        let queries = mixed_queries(seed ^ 7, n, lifetime, 24);
        let mut session = QuerySession::new(tn);
        session.record_cursor();
        let mut rng = SeedSequence::new(seed ^ 0xd0).rng(1);
        let m = session.network().assignment().num_edges();
        for _ in 0..moves {
            let e = rng.index(m) as EdgeId;
            let labels = session.network().labels(e);
            let from = labels[rng.index(labels.len())];
            let _ = session.move_label(e, from, rng.range_u32(1, lifetime));
        }
        let warm = session.answer_batch(&queries);
        let mut cold = QuerySession::new(session.network().clone());
        prop_assert_eq!(&warm, &cold.answer_batch(&queries));
        for (q, a) in queries.iter().zip(&warm) {
            prop_assert_eq!(a, &oracle(session.network(), q), "query {:?}", q);
        }
    }
}

/// At and above the crossover, row queries dispatch to the density-picked
/// full-width engine while target queries stay on the lane pass — both
/// must match the oracle. One deterministic case (the crossover is too
/// big for per-case proptest networks).
#[test]
fn wide_regime_session_matches_scalar() {
    use ephemeral_temporal::sparse::EngineChoice;
    use ephemeral_temporal::wide::{EngineKind, WIDE_CROSSOVER};
    for (seed, p_scale) in [(1u64, 3.0), (2, 24.0)] {
        let n = WIDE_CROSSOVER + 17;
        let lifetime = 4 * n as Time;
        let tn = random_network(seed, n, p_scale / n as f64, false, 1, lifetime);
        let kind = EngineChoice::pick_for(&tn);
        assert_ne!(
            kind,
            EngineKind::Batch,
            "seed {seed} stayed below the crossover"
        );
        let queries = mixed_queries(seed, n, lifetime, 32);
        let mut session = QuerySession::new(tn);
        let answers = session.answer_batch(&queries);
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, oracle(session.network(), q), "seed {seed} query {q:?}");
        }
        assert!(
            session.stats().dispatched_rows > 0,
            "seed {seed} dispatched no rows"
        );
    }
}
