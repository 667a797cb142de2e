//! Temporal distances and the instance temporal diameter.
//!
//! The paper's Temporal Diameter (Definition 5) is the **expectation over
//! random instances** of `max_{s,t} δ(s,t)`; this module computes the inner
//! quantity — `max_{s,t} δ(s,t)` of one concrete instance — exactly,
//! through whichever full-width engine the density-aware
//! [`EngineChoice`] selects: the single-pass [`wide`](crate::wide)
//! engine below the crossover and on dense instances above it (all
//! sources at once, saturation early-exit, empty-bucket skipping), the
//! event-driven [`sparse`](crate::sparse) engine on sparse ones. The
//! instance diameter needs no arrival matrix at all — it is the last time
//! any (source, vertex) bit newly sets. The Monte Carlo expectation lives
//! in `ephemeral-core::diameter`; the scalar `foremost` sweep remains the
//! differential oracle for all of this.

use crate::foremost::foremost;
use crate::network::TemporalNetwork;
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{block_schedule, source_blocks, EngineKind, FrontierEngine, SweepScratch};
use crate::Time;
use ephemeral_graph::NodeId;
use ephemeral_parallel::par_map_with;
use std::ops::Range;

/// Temporal distances `δ(source, ·)` (earliest arrivals from start time 0);
/// [`NEVER`](crate::NEVER) marks unreachable vertices, and `δ(s, s) = 0`.
#[must_use]
pub fn temporal_distances(tn: &TemporalNetwork, source: NodeId) -> Vec<Time> {
    foremost(tn, source, 0).arrivals().to_vec()
}

/// `max_{s,t} δ(s,t)` of one instance, with unreachable-pair accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceDiameter {
    /// Largest finite temporal distance observed.
    pub max_finite: Time,
    /// Number of ordered pairs `(s, t)`, `s ≠ t`, with no journey.
    pub unreachable_pairs: usize,
}

impl InstanceDiameter {
    /// The instance temporal diameter, or `None` if any pair is unreachable
    /// (the diameter is then `∞`).
    #[must_use]
    pub const fn value(&self) -> Option<Time> {
        if self.unreachable_pairs == 0 {
            Some(self.max_finite)
        } else {
            None
        }
    }
}

/// Compute the instance temporal diameter, dispatched through the
/// density-aware [`EngineChoice`]: one full-width sweep per column block
/// (parallel over blocks; wide below the crossover and on dense
/// instances, event-driven sparse on sparse ones). No arrival matrix is
/// materialised — the diameter contribution is simply the last time any
/// bit newly set.
#[must_use]
pub fn instance_temporal_diameter(tn: &TemporalNetwork, threads: usize) -> InstanceDiameter {
    struct Diameter<'a> {
        tn: &'a TemporalNetwork,
        threads: usize,
    }
    impl FrontierRun for Diameter<'_> {
        type Out = InstanceDiameter;
        fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
            let blocks = source_blocks(self.tn.num_nodes(), shards);
            reduce_blocks(diameter_blocks::<S>(self.tn, self.threads, &blocks))
        }
    }
    EngineChoice::run(tn, threads, Diameter { tn, threads })
}

/// One full-width stats-only sweep per column block through engine `S`.
fn diameter_blocks<S: FrontierEngine>(
    tn: &TemporalNetwork,
    threads: usize,
    blocks: &[Range<NodeId>],
) -> Vec<(Time, usize)> {
    let n = tn.num_nodes();
    par_map_with(blocks, threads, S::default, |sweeper, _, block| {
        let stats = sweeper.sweep(tn, block.clone(), 0, |_, _, _, _| {});
        (stats.last_arrival, stats.unreached_pairs(n))
    })
}

/// Sequential instance temporal diameter dispatched through the
/// density-aware [`EngineChoice`] — the zero-allocation per-trial path of
/// the Monte Carlo estimators in `ephemeral-core` (locked in by
/// `crates/core/tests/alloc_regression.rs` on both engines): below the
/// crossover and on dense instances one single-pass wide sweep per
/// cache-sized column block out of `scratch.wide` ([`block_schedule`]
/// iterates the schedule without allocating), on sparse ones a single
/// full-width event-driven sweep out of `scratch.sparse`. Both paths
/// report identical numbers.
#[must_use]
pub fn instance_temporal_diameter_scratch(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
) -> InstanceDiameter {
    instance_temporal_diameter_scratch_traced(tn, scratch).0
}

/// [`instance_temporal_diameter_scratch`] that also reports which engine
/// served the instance — the attribution `experiments sweep` rows carry
/// (see `ephemeral-core`'s `Metric`): [`EngineKind::Wide`] or
/// [`EngineKind::Sparse`], exactly as the dispatch ran.
#[must_use]
pub fn instance_temporal_diameter_scratch_traced(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
) -> (InstanceDiameter, EngineKind) {
    struct DiameterScratch<'a> {
        tn: &'a TemporalNetwork,
        scratch: &'a mut SweepScratch,
    }
    impl FrontierRun for DiameterScratch<'_> {
        type Out = (InstanceDiameter, EngineKind);
        fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
            // With `workers = 1` the wide engine shards to exactly its
            // cache schedule; the sparse engine gets the single block
            // `0..n` — its lists are cache-light and column blocking
            // would only multiply the occupied-bucket walk.
            let n = self.tn.num_nodes();
            let sweeper = S::from_scratch(self.scratch);
            let d = reduce_blocks(block_schedule(n, shards).map(|block| {
                let stats = sweeper.sweep(self.tn, block, 0, |_, _, _, _| {});
                (stats.last_arrival, stats.unreached_pairs(n))
            }));
            (d, S::kind())
        }
    }
    EngineChoice::run(tn, 1, DiameterScratch { tn, scratch })
}

fn reduce_blocks(per_block: impl IntoIterator<Item = (Time, usize)>) -> InstanceDiameter {
    let mut max_finite = 0;
    let mut unreachable_pairs = 0;
    for (max, missing) in per_block {
        max_finite = max_finite.max(max);
        unreachable_pairs += missing;
    }
    InstanceDiameter {
        max_finite,
        unreachable_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LabelAssignment, NEVER};
    use ephemeral_graph::generators;

    fn cycle_network() -> TemporalNetwork {
        // 4-cycle, edges 0-1,1-2,2-3,3-0 with labels 1,2,3,4.
        let g = generators::cycle(4);
        TemporalNetwork::new(g, LabelAssignment::single(vec![1, 2, 3, 4]).unwrap(), 4).unwrap()
    }

    #[test]
    fn distances_match_foremost() {
        let tn = cycle_network();
        let d = temporal_distances(&tn, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], 3); // 0-1-2-3 via 1,2,3 beats direct 3-0 (label 4)? direct is 4, path is 3
    }

    #[test]
    fn eccentricity_and_diameter() {
        let tn = cycle_network();
        // From 0: farthest arrival is 3 (see distances_match_foremost).
        assert_eq!(temporal_distances(&tn, 0).into_iter().max(), Some(3));
        // From 3 the labels around the cycle are all in the past once 3's
        // incident edges fire (2-3@3, 3-0@4), so vertex 1 is unreachable
        // and the instance diameter is infinite.
        assert_eq!(temporal_distances(&tn, 3)[1], NEVER);
        let d = instance_temporal_diameter(&tn, 2);
        assert!(d.unreachable_pairs > 0);
        assert_eq!(d.value(), None);
        assert!(d.max_finite >= 3);
    }

    #[test]
    fn unreachable_pairs_are_counted() {
        let tn = cycle_network();
        let d = instance_temporal_diameter(&tn, 1);
        // From 3, vertex 1 is unreachable (all labels around are in the
        // past once 3's edges fire); likewise check consistency for all
        // sources against brute foremost runs.
        let mut expected_missing = 0;
        for s in 0..4u32 {
            let arr = temporal_distances(&tn, s);
            expected_missing += arr.iter().filter(|&&a| a == NEVER).count();
        }
        assert_eq!(d.unreachable_pairs, expected_missing);
        assert!(d.unreachable_pairs > 0);
        assert_eq!(d.value(), None);
    }

    #[test]
    fn fully_available_network_has_finite_diameter() {
        // Every edge available at every time 1..=4: diameter = hop diameter.
        let g = generators::cycle(5);
        let m = g.num_edges();
        let labels = LabelAssignment::from_vecs(vec![vec![1, 2, 3, 4]; m]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 4).unwrap();
        let d = instance_temporal_diameter(&tn, 2);
        assert_eq!(d.unreachable_pairs, 0);
        assert_eq!(d.value(), Some(2)); // hop diameter of C5 is 2
    }

    #[test]
    fn engine_matrix_matches_scalar_sweeps_across_batches() {
        // 130 vertices = 3 frontier words; compare the engine diameter
        // against every row of the scalar oracle (the differential
        // contract of the engine refactor).
        use ephemeral_rng::{RandomSource, SeedSequence};
        let mut rng = SeedSequence::new(77).rng(0);
        let g = generators::gnp(130, 0.05, false, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 64)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 64).unwrap();
        // The diameter agrees between the parallel and scratch paths, and
        // with a brute-force reduction of the scalar arrival matrix.
        let d = instance_temporal_diameter(&tn, 3);
        let mut scratch = crate::wide::SweepScratch::new();
        assert_eq!(d, instance_temporal_diameter_scratch(&tn, &mut scratch));
        let mut max = 0;
        let mut missing = 0;
        for s in 0..130u32 {
            for (t, a) in temporal_distances(&tn, s).into_iter().enumerate() {
                if t == s as usize {
                    continue;
                }
                if a == NEVER {
                    missing += 1;
                } else {
                    max = max.max(a);
                }
            }
        }
        assert_eq!(d.max_finite, max);
        assert_eq!(d.unreachable_pairs, missing);
    }

    #[test]
    fn wide_path_matches_scalar_above_the_crossover() {
        // Above WIDE_CROSSOVER the density dispatch serves the instance
        // diameter; pin it against the scratch dispatch and a brute
        // reduction of the scalar oracle.
        use ephemeral_rng::{RandomSource, SeedSequence};
        let n = crate::wide::WIDE_CROSSOVER + 21;
        let mut rng = SeedSequence::new(5).rng(3);
        let g = generators::gnp(n, 0.04, false, &mut rng);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 96)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 96).unwrap();
        let d = instance_temporal_diameter(&tn, 3);
        let mut scratch = crate::wide::SweepScratch::new();
        assert_eq!(d, instance_temporal_diameter_scratch(&tn, &mut scratch));
        let (mut max, mut missing) = (0, 0);
        for s in 0..n as NodeId {
            for (t, a) in temporal_distances(&tn, s).into_iter().enumerate() {
                if a == NEVER {
                    missing += 1;
                } else if t != s as usize {
                    max = max.max(a);
                }
            }
        }
        assert_eq!((d.max_finite, d.unreachable_pairs), (max, missing));
    }

    #[test]
    fn scratch_dispatch_matches_below_the_crossover() {
        let tn = cycle_network();
        let mut scratch = crate::wide::SweepScratch::new();
        assert_eq!(
            instance_temporal_diameter_scratch(&tn, &mut scratch),
            instance_temporal_diameter(&tn, 1)
        );
    }
}
