//! Differential property tests for the event-driven sparse-frontier
//! engine: a sparse sweep must be **bit-identical** to the wide engine
//! and per-source scalar `foremost` sweeps —
//! across random graphs, directedness, label densities (multi-label edges
//! exercise the version memo), sparse lifetimes (mostly-empty buckets),
//! non-multiple-of-64 vertex counts, start times, horizons, and any
//! column-block sharding (the 1/2/8-worker determinism contract of the
//! parallel fold). The scalar sweep is the oracle; the density-aware
//! dispatch of every sparse consumer (closure, diameter, connectivity,
//! metrics) is pinned against it here.

use ephemeral_graph::generators;
use ephemeral_graph::NodeId;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::closure::ReachabilityMatrix;
use ephemeral_temporal::distance::{
    instance_temporal_diameter, instance_temporal_diameter_scratch,
    instance_temporal_diameter_scratch_traced,
};
use ephemeral_temporal::foremost::{foremost, foremost_with_horizon};
use ephemeral_temporal::metrics::temporal_metrics;
use ephemeral_temporal::reachability::{is_temporally_connected, treach_holds};
use ephemeral_temporal::sparse::{EngineChoice, SparseSweeper};
use ephemeral_temporal::wide::{
    source_blocks, EngineKind, FrontierEngine, SweepScratch, WideSweeper, WIDE_CROSSOVER,
};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};
use proptest::prelude::*;

/// A random temporal network: `gnp` topology, `1..=max_labels` uniform
/// labels per edge, arbitrary lifetime — sparse lifetimes (`a ≫` label
/// count) leave most buckets empty, the regime the event-driven engine
/// exists for; `max_labels > 1` relabels edges, the shape the version
/// memo short-circuits.
fn random_network(
    seed: u64,
    n: usize,
    p: f64,
    directed: bool,
    max_labels: usize,
    lifetime: Time,
) -> TemporalNetwork {
    let mut rng = SeedSequence::new(seed).rng(23);
    let g = generators::gnp(n, p, directed, &mut rng);
    let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
        let k = 1 + rng.bounded_u64(max_labels as u64) as usize;
        (0..k).map(|_| rng.range_u32(1, lifetime)).collect()
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

fn sparse_arrivals(tn: &TemporalNetwork, start: Time) -> Vec<Time> {
    let n = tn.num_nodes();
    let mut out = vec![0; n * n];
    SparseSweeper::new().arrivals_into(tn, 0..n as NodeId, start, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core contract: one event-driven pass equals the scalar oracle and
    /// the wide engine, arrival for arrival — including multi-label edges
    /// (the version memo), sparse lifetimes with mostly-empty buckets, and
    /// non-multiple-of-64 n.
    #[test]
    fn sparse_arrivals_are_bit_identical_to_scalar_and_wide(
        seed: u64,
        n in 2usize..150,
        p in 0.01f64..0.3,
        directed: bool,
        max_labels in 1usize..5,
        lifetime in 1u32..600,
        start in 0u32..6,
    ) {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let sparse = sparse_arrivals(&tn, start);
        prop_assert_eq!(&sparse, &scalar_arrivals(&tn, start));
        let mut wide = vec![0; n * n];
        WideSweeper::new().arrivals_into(&tn, 0..n as NodeId, start, &mut wide);
        prop_assert_eq!(&sparse, &wide);
    }

    /// The sharded fold is deterministic: sweeping the column blocks of
    /// 1, 2 or 8 workers and folding in canonical block order reproduces
    /// the full-width pass bit for bit (lanes in different blocks never
    /// interact; the version memo is per-sweep state).
    #[test]
    fn block_sharding_is_deterministic(
        seed: u64,
        n in 2usize..150,
        p in 0.02f64..0.25,
        directed: bool,
        lifetime in 1u32..300,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let full = sparse_arrivals(&tn, 0);
        for threads in [1usize, 2, 8] {
            let mut sweeper = SparseSweeper::new();
            let mut sharded = Vec::with_capacity(n * n);
            for block in source_blocks(n, threads) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                sharded.extend(rows);
            }
            prop_assert_eq!(&sharded, &full, "threads {}", threads);
        }
    }

    /// Stats agree with the wide engine exactly: reached bits, last
    /// arrival and the bucket-visit count (both engines walk the same
    /// occupied window and share the saturation exit).
    #[test]
    fn sparse_stats_match_wide_stats(
        seed: u64,
        n in 2usize..120,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 1u32..400,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let ws = WideSweeper::new().sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let ss = SparseSweeper::new().sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        prop_assert_eq!(ss.lanes, ws.lanes);
        prop_assert_eq!(ss.reached_bits, ws.reached_bits);
        prop_assert_eq!(ss.last_arrival, ws.last_arrival);
        prop_assert_eq!(ss.buckets_visited, ws.buckets_visited);
    }

    /// Horizon-limited sparse sweeps equal the scalar horizon oracle.
    #[test]
    fn sparse_horizon_matches_scalar_horizon(
        seed: u64,
        n in 2usize..80,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 2u32..200,
        horizon_frac in 0.0f64..1.2,
        start in 0u32..5,
    ) {
        let tn = random_network(seed, n, p, directed, 3, lifetime);
        let horizon = ((f64::from(lifetime) * horizon_frac) as Time).max(1);
        let mut got = vec![NEVER; n * n];
        for s in 0..n {
            got[s * n + s] = start;
        }
        SparseSweeper::new().sweep_with_horizon(
            &tn,
            0..n as NodeId,
            start,
            horizon,
            |v, w, mut fresh, t| {
                while fresh != 0 {
                    let lane = w * 64 + fresh.trailing_zeros() as usize;
                    got[lane * n + v as usize] = t;
                    fresh &= fresh - 1;
                }
            },
        );
        let mut expected = Vec::with_capacity(n * n);
        for s in 0..n as NodeId {
            expected.extend_from_slice(foremost_with_horizon(&tn, s, start, horizon).arrivals());
        }
        prop_assert_eq!(got, expected);
    }

    /// The sharded fold stays deterministic under horizons and heavy
    /// relabels: sweeping each worker's column block with the same
    /// horizon and folding in canonical order equals the single-stream
    /// pass and the scalar horizon oracle, for 1, 2 and 8 workers on
    /// ragged n, directed and undirected.
    #[test]
    fn sharded_horizon_sweeps_are_bit_identical(
        seed: u64,
        n in 2usize..130,
        p in 0.02f64..0.25,
        directed: bool,
        max_labels in 1usize..5,
        lifetime in 2u32..300,
        horizon_frac in 0.0f64..1.2,
    ) {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let horizon = ((f64::from(lifetime) * horizon_frac) as Time).max(1);
        let record = |sweeper: &mut SparseSweeper, block: std::ops::Range<NodeId>| {
            let lanes = block.len();
            let lo = block.start as usize;
            let mut rows = vec![NEVER; lanes * n];
            for s in block.clone() {
                rows[(s as usize - lo) * n + s as usize] = 0;
            }
            sweeper.sweep_with_horizon(&tn, block, 0, horizon, |v, w, mut fresh, t| {
                while fresh != 0 {
                    let lane = w * 64 + fresh.trailing_zeros() as usize;
                    rows[lane * n + v as usize] = t;
                    fresh &= fresh - 1;
                }
            });
            rows
        };
        let mut expected = Vec::with_capacity(n * n);
        for s in 0..n as NodeId {
            expected.extend_from_slice(foremost_with_horizon(&tn, s, 0, horizon).arrivals());
        }
        let full = record(&mut SparseSweeper::new(), 0..n as NodeId);
        prop_assert_eq!(&full, &expected);
        for workers in [1usize, 2, 8] {
            let mut sweeper = SparseSweeper::new();
            let mut folded = Vec::with_capacity(n * n);
            for block in source_blocks(n, workers) {
                folded.extend(record(&mut sweeper, block));
            }
            prop_assert_eq!(&folded, &full, "workers {}", workers);
        }
    }

    /// Compaction cycles never change a bit: with the floor forced to a
    /// single word the arena evacuates continuously, sharded or not, and
    /// every fold still equals the unforced single-stream pass.
    #[test]
    fn forced_compaction_keeps_sharded_folds_bit_identical(
        seed: u64,
        n in 2usize..120,
        p in 0.03f64..0.3,
        directed: bool,
        max_labels in 2usize..6,
        lifetime in 2u32..400,
    ) {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let full = sparse_arrivals(&tn, 0);
        for workers in [1usize, 2, 8] {
            let mut sweeper = SparseSweeper::new();
            sweeper.set_compaction_floor(1);
            let mut folded = Vec::with_capacity(n * n);
            for block in source_blocks(n, workers) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                folded.extend(rows);
            }
            prop_assert_eq!(&folded, &full, "workers {}", workers);
        }
    }

    /// The streaming closure answers exactly the reachability the
    /// arrivals imply, even when a one-byte budget forces an eviction on
    /// every cross-block query.
    #[test]
    fn streaming_closure_matches_arrivals_under_tiny_budget(
        seed: u64,
        n in 2usize..120,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 1u32..300,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let arrivals = sparse_arrivals(&tn, 0);
        let mut sweeper = SparseSweeper::new();
        sweeper.set_closure_budget_bytes(1);
        sweeper.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        for v in (0..n).rev() {
            for s in 0..n {
                let bit = sweeper.reach_word(v as NodeId, s / 64) >> (s % 64) & 1 == 1;
                prop_assert_eq!(bit, arrivals[s * n + v] != NEVER, "pair ({}, {})", s, v);
            }
        }
    }

    /// In-place label replacement rebuilds the occupied index exactly as
    /// a fresh construction would, as seen by the sparse engine (its
    /// version memo and summaries must not survive across networks).
    #[test]
    fn replace_assignment_then_sparse_sweep_matches_fresh_network(
        seed: u64,
        n in 2usize..70,
        p in 0.05f64..0.4,
        lifetime in 2u32..300,
    ) {
        let mut tn = random_network(seed, n, p, false, 2, lifetime);
        let mut rng = SeedSequence::new(seed).rng(99);
        let fresh_labels = LabelAssignment::from_fn(tn.graph().num_edges(), |_| {
            vec![rng.range_u32(1, lifetime)]
        })
        .unwrap();
        let fresh =
            TemporalNetwork::new(tn.graph().clone(), fresh_labels.clone(), lifetime).unwrap();
        tn.replace_assignment(fresh_labels).unwrap();
        let mut sweeper = SparseSweeper::new();
        let n_id = n as NodeId;
        let mut a = vec![0; n * n];
        sweeper.arrivals_into(&tn, 0..n_id, 0, &mut a);
        let mut b = vec![0; n * n];
        sweeper.arrivals_into(&fresh, 0..n_id, 0, &mut b);
        prop_assert_eq!(a, b);
    }
}

/// Fixed-seed regression pins, added when the merge inner loops moved
/// into [`ephemeral_temporal::kernels`]: named seeds whose sharded folds
/// must stay bit-identical to the scalar oracle across 1/2/8 workers —
/// both skew regimes of the galloping merge show up in these instances.
#[test]
fn pinned_seeds_stay_bit_identical_across_worker_counts() {
    for (seed, n, p, directed, max_labels, lifetime) in [
        (0x00FE_ED18_u64, 101usize, 0.03f64, false, 1usize, 500u32),
        (0x00FE_ED19, 130, 0.10, true, 3, 80),
        (0x00FE_ED1A, 65, 0.25, false, 2, 30),
    ] {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let oracle = scalar_arrivals(&tn, 0);
        assert_eq!(sparse_arrivals(&tn, 0), oracle, "seed {seed:#x}");
        for workers in [1usize, 2, 8] {
            let mut sweeper = SparseSweeper::new();
            let mut folded = Vec::with_capacity(n * n);
            for block in source_blocks(n, workers) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                folded.extend(rows);
            }
            assert_eq!(folded, oracle, "seed {seed:#x} workers {workers}");
        }
    }
}

proptest! {
    // The dispatching entry points in the sparse regime sweep ≥ 192
    // sources per case against n scalar oracles — fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// In the sparse regime above the crossover the density-aware
    /// dispatch routes every all-source entry point through the
    /// event-driven engine; pin closure, diameter, metrics, connectivity
    /// and T_reach against the scalar oracle and across thread counts.
    #[test]
    fn dispatched_entry_points_match_scalar_in_the_sparse_regime(
        seed: u64,
        extra in 0usize..50,
        avg_degree in 2.0f64..5.0,
        directed: bool,
        lifetime_mult in 1u32..5,
    ) {
        let n = WIDE_CROSSOVER + extra;
        let lifetime = n as Time * lifetime_mult;
        // Aim for ~avg_degree/2 time-edges per vertex either way (directed
        // graphs draw twice the arcs at a given p), safely inside the
        // dispatch's sparse region.
        let p = if directed {
            avg_degree / (2.0 * n as f64)
        } else {
            avg_degree / n as f64
        };
        let tn = random_network(seed, n, p, directed, 1, lifetime);
        // The whole point: these instances dispatch event-driven.
        prop_assert_eq!(EngineChoice::pick_for(&tn), EngineKind::Sparse);

        let closure = ReachabilityMatrix::compute(&tn, 2);
        let mut max_finite: Time = 0;
        let mut missing = 0usize;
        for s in 0..n as NodeId {
            let oracle = foremost(&tn, s, 0);
            for (v, &a) in oracle.arrivals().iter().enumerate() {
                prop_assert_eq!(closure.reaches(s, v as NodeId), a != NEVER);
                if a == NEVER {
                    missing += 1;
                } else if v != s as usize {
                    max_finite = max_finite.max(a);
                }
            }
        }
        let d = instance_temporal_diameter(&tn, 2);
        prop_assert_eq!(d.max_finite, max_finite);
        prop_assert_eq!(d.unreachable_pairs, missing);
        let mut scratch = SweepScratch::new();
        prop_assert_eq!(d, instance_temporal_diameter_scratch(&tn, &mut scratch));
        let (d2, engine) = instance_temporal_diameter_scratch_traced(&tn, &mut scratch);
        prop_assert_eq!(d, d2);
        prop_assert_eq!(engine, EngineKind::Sparse);
        prop_assert_eq!(&temporal_metrics(&tn, 1), &temporal_metrics(&tn, 4));
        for threads in [1usize, 3] {
            prop_assert_eq!(is_temporally_connected(&tn, threads), missing == 0);
            let scalar_treach = (0..n as NodeId).all(|s| {
                use ephemeral_graph::algo::{bfs_distances, UNREACHABLE};
                let stat = bfs_distances(tn.graph(), s)
                    .iter()
                    .filter(|&&dist| dist != UNREACHABLE)
                    .count();
                foremost(&tn, s, 0).reached_count() == stat
            });
            prop_assert_eq!(treach_holds(&tn, threads), scalar_treach);
        }
    }
}
