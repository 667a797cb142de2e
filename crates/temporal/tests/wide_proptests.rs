//! Differential property tests for the wide-frontier engine: a single
//! wide pass must be **bit-identical** to the 64-lane batched engine and
//! to per-source scalar `foremost` sweeps — across random graphs,
//! directedness, label densities, sparse lifetimes (mostly-empty
//! buckets), non-multiple-of-64 vertex counts, start times, horizons, and
//! any column-block sharding (the 1/2/8-worker determinism contract of
//! the parallel fold). The scalar sweep is the oracle; every wide
//! consumer (closure, diameter, connectivity, metrics) is pinned
//! against it here.

use ephemeral_graph::generators;
use ephemeral_graph::NodeId;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::closure::ReachabilityMatrix;
use ephemeral_temporal::distance::{
    instance_temporal_diameter, instance_temporal_diameter_scratch,
};
use ephemeral_temporal::engine::BatchSweeper;
use ephemeral_temporal::foremost::{foremost, foremost_with_horizon};
use ephemeral_temporal::reachability::{is_temporally_connected, treach_holds};
use ephemeral_temporal::sparse::EngineChoice;
use ephemeral_temporal::wide::{
    probe_blocks, source_blocks, EngineKind, SweepScratch, WideSweeper, WIDE_CROSSOVER,
};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};
use proptest::prelude::*;

/// A random temporal network: `gnp` topology, `1..=max_labels` uniform
/// labels per edge, arbitrary lifetime — sparse lifetimes (`a ≫` label
/// count) leave most buckets empty, the regime the occupied-times skip
/// list exists for.
fn random_network(
    seed: u64,
    n: usize,
    p: f64,
    directed: bool,
    max_labels: usize,
    lifetime: Time,
) -> TemporalNetwork {
    let mut rng = SeedSequence::new(seed).rng(17);
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

fn wide_arrivals(tn: &TemporalNetwork, start: Time) -> Vec<Time> {
    let n = tn.num_nodes();
    let mut out = vec![0; n * n];
    WideSweeper::new().arrivals_into(tn, 0..n as NodeId, start, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core contract: one wide pass equals the scalar oracle and the
    /// batched engine, arrival for arrival, including sparse lifetimes
    /// with mostly-empty buckets and non-multiple-of-64 n.
    #[test]
    fn wide_arrivals_are_bit_identical_to_scalar_and_batch(
        seed: u64,
        n in 2usize..150,
        p in 0.01f64..0.3,
        directed: bool,
        max_labels in 1usize..4,
        lifetime in 1u32..600,
        start in 0u32..6,
    ) {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let wide = wide_arrivals(&tn, start);
        prop_assert_eq!(&wide, &scalar_arrivals(&tn, start));
        // Batched engine over the same sources, batch by batch.
        let mut batch = BatchSweeper::new();
        let mut batched = Vec::with_capacity(n * n);
        for b in 0..ephemeral_temporal::engine::batch_count(n) {
            let sources: Vec<NodeId> = ephemeral_temporal::engine::batch_range(n, b).collect();
            let mut chunk = vec![0; sources.len() * n];
            batch.arrivals_into(&tn, &sources, start, &mut chunk);
            batched.extend(chunk);
        }
        prop_assert_eq!(&wide, &batched);
    }

    /// The sharded fold is deterministic: sweeping the column blocks of 1,
    /// 2 or 8 workers and folding in canonical block order reproduces the
    /// full-width pass bit for bit (lanes in different blocks never
    /// interact).
    #[test]
    fn block_sharding_is_deterministic(
        seed: u64,
        n in 2usize..150,
        p in 0.02f64..0.25,
        directed: bool,
        lifetime in 1u32..300,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let full = wide_arrivals(&tn, 0);
        for threads in [1usize, 2, 8] {
            let mut sweeper = WideSweeper::new();
            let mut sharded = Vec::with_capacity(n * n);
            for block in source_blocks(n, threads) {
                let mut rows = vec![0; block.len() * n];
                sweeper.arrivals_into(&tn, block, 0, &mut rows);
                sharded.extend(rows);
            }
            prop_assert_eq!(&sharded, &full, "threads {}", threads);
        }
        // The probe split covers the same ground.
        let (probe, rest) = probe_blocks(n, 3);
        let mut sweeper = WideSweeper::new();
        let mut sharded = Vec::with_capacity(n * n);
        let mut rows = vec![0; probe.len() * n];
        sweeper.arrivals_into(&tn, probe, 0, &mut rows);
        sharded.extend(rows);
        for block in rest {
            let mut rows = vec![0; block.len() * n];
            sweeper.arrivals_into(&tn, block, 0, &mut rows);
            sharded.extend(rows);
        }
        prop_assert_eq!(&sharded, &full);
    }

    /// Stats: reached bits, last arrival and the bucket-visit count agree
    /// with the scalar oracle and the occupied-times index; saturation
    /// never stops the sweep early when pairs remain unreached.
    #[test]
    fn wide_stats_match_scalar_reductions(
        seed: u64,
        n in 2usize..120,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 1u32..400,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let mut sweeper = WideSweeper::new();
        let stats = sweeper.sweep(&tn, 0..n as NodeId, 0, |_, _, _, _| {});
        let mut reached = 0usize;
        let mut last: Time = 0;
        for s in 0..n as NodeId {
            for (v, &a) in foremost(&tn, s, 0).arrivals().iter().enumerate() {
                if a != NEVER {
                    reached += 1;
                    if v != s as usize {
                        last = last.max(a);
                    }
                }
            }
        }
        prop_assert_eq!(stats.reached_bits, reached);
        prop_assert_eq!(stats.last_arrival, last);
        prop_assert_eq!(stats.unreached_pairs(n), n * n - reached);
        let occupied = tn.occupied_times().len();
        prop_assert!(stats.buckets_visited <= occupied);
        if !stats.all_reached(n) {
            // No early exit happened: every occupied bucket was visited.
            prop_assert_eq!(stats.buckets_visited, occupied);
        }
    }

    /// The occupied-times index is exactly the set of non-empty buckets,
    /// and its window queries match a brute filter.
    #[test]
    fn occupied_index_matches_brute_scan(
        seed: u64,
        n in 2usize..60,
        p in 0.01f64..0.3,
        lifetime in 1u32..500,
        after in 0u32..520,
        upto in 0u32..520,
    ) {
        let tn = random_network(seed, n, p, false, 3, lifetime);
        let brute: Vec<Time> = (1..=tn.lifetime())
            .filter(|&t| !tn.edges_at(t).is_empty())
            .collect();
        prop_assert_eq!(tn.occupied_times(), brute.as_slice());
        let window: Vec<Time> = brute
            .iter()
            .copied()
            .filter(|&t| t > after && t <= upto.min(tn.lifetime()))
            .collect();
        prop_assert_eq!(tn.occupied_between(after, upto), window.as_slice());
    }

    /// Horizon-limited wide sweeps equal the scalar horizon oracle.
    #[test]
    fn wide_horizon_matches_scalar_horizon(
        seed: u64,
        n in 2usize..80,
        p in 0.02f64..0.3,
        directed: bool,
        lifetime in 2u32..200,
        horizon_frac in 0.0f64..1.2,
    ) {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let horizon = ((f64::from(lifetime) * horizon_frac) as Time).max(1);
        let mut got = vec![NEVER; n * n];
        for s in 0..n {
            got[s * n + s] = 0;
        }
        WideSweeper::new().sweep_with_horizon(
            &tn,
            0..n as NodeId,
            0,
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
            expected.extend_from_slice(foremost_with_horizon(&tn, s, 0, horizon).arrivals());
        }
        prop_assert_eq!(got, expected);
    }

    /// In-place label replacement rebuilds the occupied index exactly as a
    /// fresh construction would, as seen by the wide engine.
    #[test]
    fn replace_assignment_then_wide_sweep_matches_fresh_network(
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
        prop_assert_eq!(tn.occupied_times(), fresh.occupied_times());
        prop_assert_eq!(wide_arrivals(&tn, 0), wide_arrivals(&fresh, 0));
    }
}

/// Fixed-seed regression pins, added when the engine inner loops moved
/// into [`ephemeral_temporal::kernels`]: named seeds whose sharded folds
/// must stay bit-identical to the scalar oracle across 1/2/8 workers, so
/// a kernel change that shifts one bit fails here deterministically — no
/// proptest shrinking required.
#[test]
fn pinned_seeds_stay_bit_identical_across_worker_counts() {
    for (seed, n, p, directed, lifetime) in [
        (0x00FE_ED08_u64, 97usize, 0.08f64, false, 250u32),
        (0x00FE_ED09, 129, 0.04, true, 600),
        (0x00FE_ED0A, 64, 0.15, false, 40),
    ] {
        let tn = random_network(seed, n, p, directed, 2, lifetime);
        let oracle = scalar_arrivals(&tn, 0);
        assert_eq!(wide_arrivals(&tn, 0), oracle, "seed {seed:#x}");
        for workers in [1usize, 2, 8] {
            let mut sweeper = WideSweeper::new();
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
    // The dispatching entry points above the crossover sweep ≥ 192
    // sources per case against n scalar oracles — fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Above WIDE_CROSSOVER every all-source entry point rides a
    /// full-width engine (wide or sparse, by density); pin closure,
    /// diameter, connectivity and T_reach against the scalar oracle and
    /// across thread counts.
    #[test]
    fn dispatched_entry_points_match_scalar_above_the_crossover(
        seed: u64,
        extra in 0usize..50,
        p in 0.015f64..0.08,
        directed: bool,
        sparse_lifetime: bool,
    ) {
        let n = WIDE_CROSSOVER + extra;
        let lifetime = if sparse_lifetime { 4 * n as Time } else { n as Time };
        let tn = random_network(seed, n, p, directed, 1, lifetime);
        prop_assert_ne!(EngineChoice::pick_for(&tn), EngineKind::Batch);

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
