//! Differential property tests: the 64-lane lane pass must be
//! **bit-identical** to per-source scalar `foremost` sweeps — across
//! random graphs, label densities, lifetimes, directedness, start times and
//! non-multiple-of-64 source counts. The scalar sweep is the oracle; every
//! all-source consumer (closure, distances, diameter, connectivity) is
//! pinned against it here.

use ephemeral_graph::generators;
use ephemeral_graph::NodeId;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::closure::ReachabilityMatrix;
use ephemeral_temporal::distance::{
    instance_temporal_diameter, instance_temporal_diameter_scratch,
};
use ephemeral_temporal::engine::{batch_count, batch_range, BatchSweeper, Lane, MAX_LANES};
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::reachability::is_temporally_connected;
use ephemeral_temporal::wide::SweepScratch;
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time, NEVER};
use proptest::prelude::*;

/// A random temporal network: `gnp` topology, `1..=max_labels` uniform
/// labels per edge, arbitrary lifetime — the whole parameter space the
/// engine claims to cover.
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

/// One lane pass of targetless row lanes from `sources` at `start`, its
/// streamed commits laid out `out[lane · n + v]` — lane for lane the
/// `arrivals()` array of a scalar foremost run.
fn row_lane_arrivals(
    sweeper: &mut BatchSweeper,
    tn: &TemporalNetwork,
    sources: &[NodeId],
    start: Time,
) -> Vec<Time> {
    let n = tn.num_nodes();
    let lanes: Vec<Lane> = sources.iter().map(|&s| Lane::row(s, NEVER)).collect();
    let mut out = vec![NEVER; lanes.len() * n];
    for (lane, &s) in sources.iter().enumerate() {
        out[lane * n + s as usize] = start;
    }
    let mut arrivals = vec![NEVER; lanes.len()];
    sweeper.sweep_lanes(tn, &lanes, start, &mut arrivals, |v, mut bits, t| {
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out[lane * n + v as usize] = t;
        }
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Core contract: per-(source, target) arrivals from one pass of row
    /// lanes equal the scalar oracle's, for arbitrary source subsets (any
    /// count in 1..=64, duplicates included) and arbitrary start times.
    #[test]
    fn batch_arrivals_are_bit_identical_to_scalar(
        seed: u64,
        n in 2usize..90,
        p in 0.01f64..0.4,
        directed: bool,
        max_labels in 1usize..4,
        lifetime in 1u32..80,
        lanes in 1usize..=MAX_LANES,
        start in 0u32..6,
    ) {
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let mut rng = SeedSequence::new(seed).rng(7);
        let sources: Vec<NodeId> = (0..lanes)
            .map(|_| rng.bounded_u32(n as u32))
            .collect();
        let got = row_lane_arrivals(&mut BatchSweeper::new(), &tn, &sources, start);
        for (lane, &s) in sources.iter().enumerate() {
            let oracle = foremost(&tn, s, start);
            prop_assert_eq!(
                &got[lane * n..(lane + 1) * n],
                oracle.arrivals(),
                "lane {} source {}", lane, s
            );
        }
    }

    /// The closure wrapper equals a scalar reachability loop, across word
    /// and batch boundaries.
    #[test]
    fn closure_matches_scalar_reach(
        seed: u64,
        n in 1usize..140,
        p in 0.01f64..0.2,
        directed: bool,
    ) {
        let tn = random_network(seed, n, p, directed, 2, (n as Time).max(2));
        let m = ReachabilityMatrix::compute(&tn, 2);
        for s in 0..n as NodeId {
            let oracle = foremost(&tn, s, 0);
            let mut count = 0;
            for t in 0..n as NodeId {
                prop_assert_eq!(m.reaches(s, t), oracle.reached(t), "({}, {})", s, t);
                count += usize::from(oracle.reached(t));
            }
            prop_assert_eq!(m.out_count(s), count);
        }
    }

    /// The instance diameter (engine stats, no matrix) agrees with a brute
    /// reduction of the scalar sweeps' arrival matrix — including the
    /// parallel and the scratch-reusing sequential paths.
    #[test]
    fn distances_and_diameter_match_scalar(
        seed: u64,
        n in 1usize..100,
        p in 0.02f64..0.3,
        directed: bool,
        max_labels in 1usize..3,
    ) {
        let lifetime = (n as Time).max(3);
        let tn = random_network(seed, n, p, directed, max_labels, lifetime);
        let mut max_finite: Time = 0;
        let mut missing = 0usize;
        for s in 0..n as NodeId {
            let oracle = foremost(&tn, s, 0);
            for (v, &a) in oracle.arrivals().iter().enumerate() {
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
        prop_assert_eq!(
            is_temporally_connected(&tn, 2),
            missing == 0 || n <= 1
        );
    }

    /// Batch bookkeeping: the helpers partition 0..n exactly, with every
    /// batch at most 64 wide and only the last one ragged.
    #[test]
    fn batch_helpers_partition_the_sources(n in 0usize..500) {
        let mut all = Vec::new();
        for b in 0..batch_count(n) {
            let r = batch_range(n, b);
            prop_assert!(r.len() <= MAX_LANES);
            if b + 1 < batch_count(n) {
                prop_assert_eq!(r.len(), MAX_LANES);
            }
            all.extend(r);
        }
        prop_assert_eq!(all, (0..n as NodeId).collect::<Vec<_>>());
    }

    /// In-place label replacement is indistinguishable from fresh
    /// construction as seen by the lane pass.
    #[test]
    fn replace_assignment_then_sweep_matches_fresh_network(
        seed: u64,
        n in 2usize..70,
        p in 0.05f64..0.4,
    ) {
        let lifetime = (n as Time).max(2);
        let mut tn = random_network(seed, n, p, false, 2, lifetime);
        let mut rng = SeedSequence::new(seed ^ 0xABCD).rng(0);
        let fresh_labels = LabelAssignment::from_fn(tn.graph().num_edges(), |_| {
            vec![rng.range_u32(1, lifetime)]
        })
        .unwrap();
        let fresh = TemporalNetwork::new(
            tn.graph().clone(),
            fresh_labels.clone(),
            lifetime,
        )
        .unwrap();
        tn.replace_assignment(fresh_labels).unwrap();
        let mut sweeper = BatchSweeper::new();
        for b in 0..batch_count(n) {
            let sources: Vec<NodeId> = batch_range(n, b).collect();
            let replaced = row_lane_arrivals(&mut sweeper, &tn, &sources, 0);
            let built = row_lane_arrivals(&mut sweeper, &fresh, &sources, 0);
            prop_assert_eq!(replaced, built, "batch {}", b);
        }
    }
}
