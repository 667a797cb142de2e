//! Compact all-pairs temporal reachability: one bit per ordered pair.
//!
//! For `T_reach`-style analyses over many instances, storing full `n × n`
//! arrival matrices (`4n²` bytes) is wasteful when only reachability is
//! asked. [`ReachabilityMatrix`] packs the closure into `n²/8` bytes of
//! `u64` words and answers pair queries, per-source counts, and the
//! pair-deficit (how many ordered pairs lack a journey) with word-parallel
//! popcounts. The closure is computed by whichever full-width engine the
//! density-aware [`EngineChoice`] selects: the single-pass
//! [`wide`](crate::wide) engine below the crossover and on dense
//! instances above it (saturation early-exit, empty-bucket skipping),
//! the event-driven [`sparse`](crate::sparse) engine on sparse ones —
//! the per-source scalar sweep remains the differential oracle (see this
//! module's tests, `tests/engine_proptests.rs`,
//! `tests/wide_proptests.rs` and `tests/sparse_proptests.rs`).

use crate::kernels;
use crate::network::TemporalNetwork;
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{source_blocks, FrontierEngine};
use ephemeral_graph::NodeId;
use ephemeral_parallel::par_map_with;
use std::ops::Range;

/// Bit-packed `n × n` temporal reachability closure (row = source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl ReachabilityMatrix {
    /// Compute the closure: bit `(s, t)` is set iff a journey `s → t`
    /// exists (diagonal bits are set — a vertex reaches itself). One
    /// full-width sweep per column block (blocks fanned out over
    /// `threads`) through whichever frontier engine the density-aware
    /// [`EngineChoice::pick`] selects. Every path produces identical bits.
    #[must_use]
    pub fn compute(tn: &TemporalNetwork, threads: usize) -> Self {
        let n = tn.num_nodes();
        let words_per_row = n.div_ceil(64);
        struct Closure<'a> {
            tn: &'a TemporalNetwork,
            threads: usize,
        }
        impl FrontierRun for Closure<'_> {
            type Out = Vec<Vec<u64>>;
            fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
                let blocks = source_blocks(self.tn.num_nodes(), shards);
                closure_blocks::<S>(self.tn, self.threads, &blocks)
            }
        }
        let chunks = EngineChoice::run(tn, threads, Closure { tn, threads });
        let mut bits = Vec::with_capacity(n * words_per_row);
        for chunk in chunks {
            bits.extend(chunk);
        }
        Self {
            n,
            words_per_row,
            bits,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Does a journey `s → t` exist? (`true` on the diagonal.)
    #[inline]
    #[must_use]
    pub fn reaches(&self, s: NodeId, t: NodeId) -> bool {
        let idx = s as usize * self.words_per_row + t as usize / 64;
        self.bits[idx] >> (t % 64) & 1 == 1
    }

    /// Number of vertices reachable from `s` (including `s`).
    #[must_use]
    pub fn out_count(&self, s: NodeId) -> usize {
        let row = &self.bits[s as usize * self.words_per_row..][..self.words_per_row];
        kernels::popcount_words(row)
    }

    /// Ordered pairs `(s, t)`, `s ≠ t`, **without** a journey.
    #[must_use]
    pub fn missing_pairs(&self) -> usize {
        let total_set = kernels::popcount_words(&self.bits);
        // Every diagonal bit is set, so reachable ordered off-diagonal pairs
        // are total_set − n.
        self.n * self.n - total_set
    }

    /// Is every ordered pair connected by a journey?
    #[must_use]
    pub fn is_temporally_connected(&self) -> bool {
        self.missing_pairs() == 0
    }
}

/// One full-width sweep per column block through engine `S`, transposing
/// each sweeper's per-vertex lane words into per-source rows of target
/// bits (`O(reached pairs)` single-bit sets). Rows stream through
/// [`FrontierEngine::for_each_reach_row`], so neither engine ever
/// materialises its own `n × ⌈lanes/64⌉` matrix for the transpose — the
/// wide engine lends frontier slices, the sparse engine streams one
/// pooled row at a time out of its reacher lists.
fn closure_blocks<S: FrontierEngine>(
    tn: &TemporalNetwork,
    threads: usize,
    blocks: &[Range<NodeId>],
) -> Vec<Vec<u64>> {
    let n = tn.num_nodes();
    let words_per_row = n.div_ceil(64);
    par_map_with(blocks, threads, S::default, |sweeper, _, block| {
        sweeper.sweep(tn, block.clone(), 0, |_, _, _, _| {});
        let mut rows = vec![0u64; block.len() * words_per_row];
        sweeper.for_each_reach_row(|v, row| {
            let (vw, vb) = (v as usize / 64, v % 64);
            kernels::for_each_set_lane(row, |lane| {
                rows[lane * words_per_row + vw] |= 1 << vb;
            });
        });
        rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::temporal_reach;
    use crate::LabelAssignment;
    use ephemeral_graph::generators;
    use ephemeral_rng::{RandomSource, SeedSequence};

    fn random_network(seed: u64, n: usize) -> TemporalNetwork {
        let mut rng = SeedSequence::new(seed).rng(0);
        let g = generators::gnp(n, 0.3, false, &mut rng);
        let lifetime = n as u32;
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, lifetime)]).unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    #[test]
    fn closure_matches_per_source_reach() {
        for seed in 0..10 {
            let tn = random_network(seed, 37); // crosses a word boundary? n<64: single word
            let m = ReachabilityMatrix::compute(&tn, 2);
            for s in 0..37u32 {
                let reach = temporal_reach(&tn, s);
                for (t, &r) in reach.iter().enumerate() {
                    assert_eq!(m.reaches(s, t as u32), r, "seed {seed} pair ({s},{t})");
                }
                assert_eq!(m.out_count(s), reach.iter().filter(|&&b| b).count());
            }
        }
    }

    #[test]
    fn closure_works_across_word_boundaries() {
        let tn = random_network(42, 130); // 3 words per row
        let m = ReachabilityMatrix::compute(&tn, 2);
        assert_eq!(m.n(), 130);
        for s in [0u32, 63, 64, 65, 127, 128, 129] {
            let reach = temporal_reach(&tn, s);
            for t in [0u32, 63, 64, 65, 127, 128, 129] {
                assert_eq!(m.reaches(s, t), reach[t as usize], "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn diagonal_is_always_set() {
        let tn = random_network(7, 20);
        let m = ReachabilityMatrix::compute(&tn, 1);
        for v in 0..20u32 {
            assert!(m.reaches(v, v));
        }
    }

    #[test]
    fn missing_pairs_matches_bruteforce() {
        let tn = random_network(3, 25);
        let m = ReachabilityMatrix::compute(&tn, 2);
        let mut brute = 0;
        for s in 0..25u32 {
            let reach = temporal_reach(&tn, s);
            brute += reach.iter().filter(|&&b| !b).count();
        }
        assert_eq!(m.missing_pairs(), brute);
    }

    #[test]
    fn clique_closure_is_complete() {
        let g = generators::clique(10, false);
        let mut rng = SeedSequence::new(5).rng(0);
        let labels =
            LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 10)]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 10).unwrap();
        let m = ReachabilityMatrix::compute(&tn, 2);
        assert!(m.is_temporally_connected());
        assert_eq!(m.missing_pairs(), 0);
    }

    #[test]
    fn thread_invariance() {
        let tn = random_network(9, 70);
        assert_eq!(
            ReachabilityMatrix::compute(&tn, 1),
            ReachabilityMatrix::compute(&tn, 4)
        );
    }

    #[test]
    fn wide_path_matches_per_source_reach() {
        // Above the crossover the wide engine serves the closure; pin it
        // against the scalar oracle and the thread-count invariance.
        let n = crate::wide::WIDE_CROSSOVER + 13;
        let tn = random_network(21, n);
        let m = ReachabilityMatrix::compute(&tn, 1);
        assert_eq!(m, ReachabilityMatrix::compute(&tn, 4));
        let mut brute_missing = 0;
        for s in 0..n as u32 {
            let reach = temporal_reach(&tn, s);
            assert_eq!(m.out_count(s), reach.iter().filter(|&&b| b).count());
            brute_missing += reach.iter().filter(|&&b| !b).count();
        }
        assert_eq!(m.missing_pairs(), brute_missing);
    }
}
