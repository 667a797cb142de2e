//! The static side of `T_reach`: [`StaticReach`] must count exactly what a
//! per-source BFS counts, on directed and undirected graphs, connected or
//! not, in any query order — and one oracle shared across many label
//! draws of a substrate must give the answers a fresh per-call check
//! gives.

use ephemeral_graph::algo::{bfs_distances, UNREACHABLE};
use ephemeral_graph::{generators, Graph, NodeId};
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::reachability::{
    treach_holds, treach_holds_scratch_traced, treach_holds_scratch_with, StaticReach,
};
use ephemeral_temporal::wide::{SweepScratch, WIDE_CROSSOVER};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, Time};
use proptest::prelude::*;

fn bfs_count(g: &Graph, s: NodeId) -> usize {
    bfs_distances(g, s)
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-source counts and the pair total equal per-source BFS. Low
    /// edge probabilities leave most graphs disconnected (isolated
    /// vertices included); sources are asked in a random order, each
    /// twice, so memoised and fresh directed counts are both compared.
    #[test]
    fn oracle_counts_equal_per_source_bfs(
        seed: u64,
        n in 1usize..90,
        p in 0.0f64..0.12,
        directed: bool,
    ) {
        let mut rng = SeedSequence::new(seed).rng(7);
        let g = generators::gnp(n, p, directed, &mut rng);
        let oracle = StaticReach::new(&g);
        let want: Vec<usize> = (0..n as NodeId).map(|s| bfs_count(&g, s)).collect();
        for _ in 0..2 * n {
            let s = rng.bounded_u32(n as u32);
            prop_assert_eq!(oracle.reach(&g, s), want[s as usize], "source {}", s);
        }
        prop_assert_eq!(oracle.total(&g), want.iter().sum::<usize>());
        // A fresh oracle's total (every source searched by `total`) agrees.
        prop_assert_eq!(StaticReach::new(&g).total(&g), want.iter().sum::<usize>());
    }
}

#[test]
fn shared_oracle_across_redraws_matches_the_scalar_loop() {
    // One substrate per (regime, directedness); 20 label draws each,
    // sized so both answers occur. The shared oracle must give what a
    // fresh per-call oracle and the scalar foremost-vs-BFS loop give.
    let mut holds_seen = [false; 2];
    for (n, p, directed, r) in [
        (48usize, 0.12, false, 3usize),
        (48, 0.25, true, 6),
        (WIDE_CROSSOVER + 5, 0.1, false, 12),
        (WIDE_CROSSOVER + 5, 0.2, true, 16),
    ] {
        let mut rng = SeedSequence::new(n as u64 ^ u64::from(directed)).rng(3);
        let g = generators::gnp(n, p, directed, &mut rng);
        let static_counts: Vec<usize> = (0..n as NodeId).map(|s| bfs_count(&g, s)).collect();
        let oracle = StaticReach::new(&g);
        let lifetime = n as Time;
        let mut tn = TemporalNetwork::new(
            g.clone(),
            LabelAssignment::from_vecs(vec![vec![1]; g.num_edges()]).unwrap(),
            lifetime,
        )
        .unwrap();
        let mut shared = SweepScratch::new();
        let mut fresh = SweepScratch::new();
        let mut spare = LabelAssignment::default();
        for draw in 0..20 {
            // Vary the label count so some draws hold and some fail.
            let k = 1 + draw % r;
            assert!(spare.refill_edge_major(g.num_edges(), k, |labels| {
                rng.fill_range_u32(1, lifetime, labels);
            }));
            spare = tn.replace_assignment(std::mem::take(&mut spare)).unwrap();
            let scalar = (0..n as NodeId)
                .all(|s| foremost(&tn, s, 0).reached_count() == static_counts[s as usize]);
            let with_shared = treach_holds_scratch_with(&tn, &mut shared, &oracle);
            assert_eq!(
                with_shared.0, scalar,
                "n {n} directed {directed} draw {draw}"
            );
            assert_eq!(
                with_shared,
                treach_holds_scratch_traced(&tn, &mut fresh),
                "engine attribution, n {n} directed {directed} draw {draw}"
            );
            assert_eq!(treach_holds(&tn, 2), scalar, "parallel check, draw {draw}");
            holds_seen[usize::from(scalar)] = true;
        }
    }
    assert!(holds_seen[0] && holds_seen[1], "both answers occur");
}
