//! Whole-network temporal metrics.
//!
//! Summary statistics over all ordered pairs: reachability ratio, average
//! temporal distance, and global **temporal efficiency** — the temporal
//! analogue of static network efficiency,
//! `E = (1/(n(n−1))) · Σ_{s≠t} 1/δ(s,t)` with `1/∞ = 0`, as used in the
//! temporal small-world literature the paper's related-work section
//! surveys. The metrics run through the full-width engine the
//! density-aware [`EngineChoice`] selects — [`wide`](crate::wide) below
//! the crossover and on dense instances, event-driven
//! [`sparse`](crate::sparse) on sparse ones — accumulating each source's
//! row in vertex order and the sources in source order, so every number
//! — including the floating-point sums — is bit-identical to a scalar
//! per-source fold and invariant under the thread count.

use crate::network::TemporalNetwork;
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{source_blocks, FrontierEngine};
use crate::{Time, NEVER};
use ephemeral_graph::NodeId;
use ephemeral_parallel::par_map_with;
use std::ops::Range;

/// All-pairs summary metrics of one temporal network instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalMetrics {
    /// Number of vertices.
    pub n: usize,
    /// Ordered pairs `(s, t)`, `s ≠ t`, connected by a journey.
    pub reachable_pairs: usize,
    /// `reachable_pairs / (n(n−1))` (1.0 for temporally connected nets).
    pub reachability_ratio: f64,
    /// Mean `δ(s,t)` over reachable ordered pairs (0 if none).
    pub avg_temporal_distance: f64,
    /// Largest finite `δ(s,t)` (the instance temporal diameter when
    /// everything is reachable).
    pub max_temporal_distance: u32,
    /// Global temporal efficiency `E ∈ [0, 1]`-ish (unreachable pairs
    /// contribute 0; one-step pairs contribute 1).
    pub temporal_efficiency: f64,
}

/// One full-width `arrivals_into` per column block through engine `S`,
/// each source's row accumulated in vertex order (bit-identical to the
/// scalar fold).
fn metric_blocks<S: FrontierEngine>(
    tn: &TemporalNetwork,
    threads: usize,
    blocks: &[Range<NodeId>],
) -> Vec<(usize, u64, u32, f64)> {
    let n = tn.num_nodes();
    let init = || (S::default(), Vec::new());
    par_map_with(blocks, threads, init, |(sweeper, rows), _, block| {
        rows.clear();
        rows.resize(block.len() * n, NEVER);
        sweeper.arrivals_into(tn, block.clone(), 0, rows);
        block
            .clone()
            .enumerate()
            .map(|(lane, s)| accumulate_row(s as usize, &rows[lane * n..(lane + 1) * n]))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Per-source accumulation of one arrival row, in vertex order — the
/// same fold a scalar per-source loop applies, so the floating-point sums
/// agree with it bit for bit.
fn accumulate_row(s: usize, arrivals: &[Time]) -> (usize, u64, u32, f64) {
    let mut reach = 0usize;
    let mut sum = 0u64;
    let mut max = 0u32;
    let mut eff = 0.0f64;
    for (v, &a) in arrivals.iter().enumerate() {
        if v == s || a == NEVER {
            continue;
        }
        reach += 1;
        sum += u64::from(a);
        max = max.max(a);
        // δ(s,t) ≥ 1 always (labels start at 1), so 1/δ ≤ 1.
        eff += 1.0 / f64::from(a.max(1));
    }
    (reach, sum, max, eff)
}

/// Compute the metrics: full-width sweeps, one per column block, wide or
/// sparse per the density dispatch.
#[must_use]
pub fn temporal_metrics(tn: &TemporalNetwork, threads: usize) -> TemporalMetrics {
    let n = tn.num_nodes();
    if n <= 1 {
        return TemporalMetrics {
            n,
            reachable_pairs: 0,
            reachability_ratio: 1.0,
            avg_temporal_distance: 0.0,
            max_temporal_distance: 0,
            temporal_efficiency: 0.0,
        };
    }
    struct Metrics<'a> {
        tn: &'a TemporalNetwork,
        threads: usize,
    }
    impl FrontierRun for Metrics<'_> {
        type Out = Vec<(usize, u64, u32, f64)>;
        fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
            let blocks = source_blocks(self.tn.num_nodes(), shards);
            metric_blocks::<S>(self.tn, self.threads, &blocks)
        }
    }
    let per_source = EngineChoice::run(tn, threads, Metrics { tn, threads });
    let mut reachable_pairs = 0usize;
    let mut sum = 0u64;
    let mut max = 0u32;
    let mut eff = 0.0f64;
    for (r, s, m, e) in per_source {
        reachable_pairs += r;
        sum += s;
        max = max.max(m);
        eff += e;
    }
    let pairs = n * (n - 1);
    TemporalMetrics {
        n,
        reachable_pairs,
        reachability_ratio: reachable_pairs as f64 / pairs as f64,
        avg_temporal_distance: if reachable_pairs == 0 {
            0.0
        } else {
            sum as f64 / reachable_pairs as f64
        },
        max_temporal_distance: max,
        temporal_efficiency: eff / pairs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelAssignment;
    use ephemeral_graph::{generators, GraphBuilder};

    #[test]
    fn metrics_on_increasing_path() {
        let g = generators::path(3);
        let labels = LabelAssignment::single(vec![1, 2]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let m = temporal_metrics(&tn, 2);
        assert_eq!(m.n, 3);
        // Journeys: 0→1(@1), 0→2(@2), 1→2(@2), 1→0? label 1 only: 1→0 needs
        // label... edge 0-1 has label 1: yes 1→0 @1. 2→1 @2, 2→0 impossible
        // (2→1 arrives at 2, edge 0-1 label 1 < 2).
        assert_eq!(m.reachable_pairs, 5);
        assert!((m.reachability_ratio - 5.0 / 6.0).abs() < 1e-12);
        // Distances: 1,2,2,1,2 → avg 8/5.
        assert!((m.avg_temporal_distance - 1.6).abs() < 1e-12);
        assert_eq!(m.max_temporal_distance, 2);
        // Efficiency: (1 + 0.5 + 0.5 + 1 + 0.5)/6.
        assert!((m.temporal_efficiency - 3.5 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn fully_connected_instant_network_is_maximally_efficient() {
        let g = generators::clique(5, false);
        let labels = LabelAssignment::from_vecs(vec![vec![1]; 10]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        let m = temporal_metrics(&tn, 1);
        assert_eq!(m.reachability_ratio, 1.0);
        assert_eq!(m.avg_temporal_distance, 1.0);
        assert_eq!(m.temporal_efficiency, 1.0);
        assert_eq!(m.max_temporal_distance, 1);
    }

    #[test]
    fn unlabelled_network_has_zero_reach() {
        let g = generators::cycle(4);
        let labels = LabelAssignment::from_vecs(vec![vec![]; 4]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        let m = temporal_metrics(&tn, 1);
        assert_eq!(m.reachable_pairs, 0);
        assert_eq!(m.reachability_ratio, 0.0);
        assert_eq!(m.temporal_efficiency, 0.0);
        assert_eq!(m.avg_temporal_distance, 0.0);
    }

    #[test]
    fn degenerate_networks() {
        let g = GraphBuilder::new_undirected(1).build().unwrap();
        let labels = LabelAssignment::from_vecs(vec![]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        let m = temporal_metrics(&tn, 1);
        assert_eq!(m.n, 1);
        assert_eq!(m.reachability_ratio, 1.0);
    }

    #[test]
    fn thread_invariance() {
        let g = generators::grid(4, 4);
        let labels = LabelAssignment::from_fn(g.num_edges(), |e| vec![1 + e % 7]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 7).unwrap();
        assert_eq!(temporal_metrics(&tn, 1), temporal_metrics(&tn, 4));
    }

    #[test]
    fn wide_path_is_bit_identical_to_the_scalar_fold() {
        // The wide engine serves the metrics below the crossover (n = 40,
        // 130) and on this density above it; every number — floating-point
        // sums included — must match a scalar per-source fold exactly, for
        // any thread count.
        use crate::foremost::foremost;
        use ephemeral_rng::{RandomSource, SeedSequence};
        for n in [40, 130, crate::wide::WIDE_CROSSOVER + 8] {
            let mut rng = SeedSequence::new(3).rng(1);
            let g = generators::gnp(n, 0.05, false, &mut rng);
            let labels =
                LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 50)]).unwrap();
            let tn = TemporalNetwork::new(g, labels, 50).unwrap();
            let wide = temporal_metrics(&tn, 1);
            assert_eq!(wide, temporal_metrics(&tn, 4), "n {n}");
            let mut reach = 0usize;
            let mut sum = 0u64;
            let mut max = 0u32;
            let mut eff = 0.0f64;
            for s in 0..n {
                let (r, su, m, e) = {
                    let run = foremost(&tn, s as u32, 0);
                    super::accumulate_row(s, run.arrivals())
                };
                reach += r;
                sum += su;
                max = max.max(m);
                eff += e;
            }
            assert_eq!(wide.reachable_pairs, reach, "n {n}");
            assert_eq!(wide.max_temporal_distance, max, "n {n}");
            let pairs = (n * (n - 1)) as f64;
            assert_eq!(wide.temporal_efficiency.to_bits(), (eff / pairs).to_bits());
            assert_eq!(
                wide.avg_temporal_distance.to_bits(),
                (sum as f64 / reach as f64).to_bits()
            );
        }
    }
}
