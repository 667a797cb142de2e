//! Temporal reachability and the paper's `T_reach` property.
//!
//! Definition 6: an assignment `L` **preserves the reachability** of `G`
//! when for all `u, v`: a `(u, v)`-path exists in `G` **iff** a
//! `(u, v)`-journey exists in `(G, L)`. Journeys are paths, so only the
//! forward implication can fail; the check therefore compares per-source
//! reach *counts* of static BFS and the temporal sweep. The whole-network
//! checks probe the first 64 sources with one lane pass of the
//! bit-parallel [`engine`](crate::engine) (failing instances almost
//! always fail there) and only then sweep the remaining column blocks
//! through the full-width engine the density-aware [`EngineChoice`]
//! selected — [`wide`](crate::wide) below the crossover and on dense
//! instances, event-driven [`sparse`](crate::sparse) on sparse ones. The
//! single-source helpers stay on the scalar `foremost` oracle.

use crate::engine::{BatchSweeper, MAX_LANES};
use crate::foremost::foremost;
use crate::network::TemporalNetwork;
use crate::session::{block_all_reached, reach_counts};
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{probe_blocks, word_blocks, EngineKind, FrontierEngine, SweepScratch};
use crate::{Time, NEVER};
use ephemeral_graph::algo::{bfs_distances, connected_components, Components, UNREACHABLE};
use ephemeral_graph::{Graph, NodeId};
use ephemeral_parallel::par_map_with;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Which vertices admit a journey from `source` (the source included).
#[must_use]
pub fn temporal_reach(tn: &TemporalNetwork, source: NodeId) -> Vec<bool> {
    foremost(tn, source, 0)
        .arrivals()
        .iter()
        .map(|&a| a != NEVER)
        .collect()
}

/// Is every ordered pair `(s, t)` connected by a journey? (The clique with
/// one label per edge trivially satisfies this; most sparse networks do
/// not.) A lane pass over the first 64 sources probes first (a
/// disconnected instance almost always has an unreached pair among any
/// 64+ sources), then the remaining column blocks sweep in parallel
/// through the density-selected full-width engine.
#[must_use]
pub fn is_temporally_connected(tn: &TemporalNetwork, threads: usize) -> bool {
    let n = tn.num_nodes();
    if n <= 1 {
        return true;
    }
    struct Connected<'a> {
        tn: &'a TemporalNetwork,
        threads: usize,
    }
    impl FrontierRun for Connected<'_> {
        type Out = bool;
        fn run<S: FrontierEngine>(self, shards: usize) -> bool {
            let (probe, rest) = probe_blocks(self.tn.num_nodes(), shards);
            frontier_connected::<S>(self.tn, self.threads, probe, &rest)
        }
    }
    EngineChoice::run(tn, threads, Connected { tn, threads })
}

/// Probe-first whole-network connectivity over engine `S`. The 64-lane
/// probe block runs through the shared lane-pass core of
/// [`session`](crate::session) — the same pass that answers point
/// queries — and only the remaining blocks sweep full-width.
fn frontier_connected<S: FrontierEngine>(
    tn: &TemporalNetwork,
    threads: usize,
    probe: std::ops::Range<NodeId>,
    rest: &[std::ops::Range<NodeId>],
) -> bool {
    let n = tn.num_nodes();
    if !block_all_reached(tn, &mut BatchSweeper::new(), probe) {
        return false;
    }
    let failed = AtomicBool::new(false);
    par_map_with(rest, threads, S::default, |sweeper, _, block| {
        if failed.load(Ordering::Relaxed) {
            return;
        }
        let stats = sweeper.sweep(tn, block.clone(), 0, |_, _, _, _| {});
        if !stats.all_reached(n) {
            failed.store(true, Ordering::Relaxed);
        }
    });
    !failed.load(Ordering::Relaxed)
}

/// Per-lane temporal reach counts of one full-width block into `counts`:
/// each source counts itself plus one per newly-reached vertex (integer
/// accumulation, so the commit order cannot affect the result).
fn wide_reach_counts<S: FrontierEngine>(
    tn: &TemporalNetwork,
    sweeper: &mut S,
    block: std::ops::Range<NodeId>,
    counts: &mut Vec<usize>,
) {
    counts.clear();
    counts.resize(block.len(), 1);
    sweeper.sweep(tn, block, 0, |_, w, mut fresh, _: Time| {
        while fresh != 0 {
            counts[w * 64 + fresh.trailing_zeros() as usize] += 1;
            fresh &= fresh - 1;
        }
    });
}

/// The static side of `T_reach` (Definition 6) for one substrate graph:
/// how many vertices each source reaches by a path, itself included.
///
/// Labels never change the graph, so a Monte Carlo call, a minimal-`r`
/// search or a Gibbs chain builds one oracle per substrate and shares it
/// across every trial and worker. Undirected graphs answer from one union–find
/// pass (component size = reach count). Directed graphs run one BFS per
/// source the first time that source is asked for, and keep its count in
/// an atomic slot (0 = not yet searched; a count is never 0, since a
/// source reaches itself). A call therefore never runs more BFS than the
/// per-call oracle it replaces, and the oracle stays `Sync` for the
/// parallel checks.
///
/// Every method takes the graph the oracle was built from; passing
/// another graph is a logic error.
#[derive(Debug)]
pub struct StaticReach {
    components: Option<Components>,
    searched: Box<[AtomicU32]>,
}

impl StaticReach {
    /// The oracle of `graph`: components now when undirected, nothing yet
    /// when directed.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        if graph.is_directed() {
            Self {
                components: None,
                searched: (0..graph.num_nodes()).map(|_| AtomicU32::new(0)).collect(),
            }
        } else {
            Self {
                components: Some(connected_components(graph)),
                searched: Box::default(),
            }
        }
    }

    /// Vertices `s` reaches by a static path in `graph`, `s` included.
    ///
    /// # Panics
    /// If `s` is out of range.
    #[must_use]
    pub fn reach(&self, graph: &Graph, s: NodeId) -> usize {
        if let Some(c) = &self.components {
            return c.sizes[c.labels[s as usize] as usize] as usize;
        }
        debug_assert_eq!(self.searched.len(), graph.num_nodes(), "oracle's own graph");
        // Relaxed suffices: a slot publishes only its own count, and two
        // workers racing on one source store the same value.
        let slot = &self.searched[s as usize];
        match slot.load(Ordering::Relaxed) {
            0 => {
                let count = bfs_distances(graph, s)
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .count();
                slot.store(count as u32, Ordering::Relaxed);
                count
            }
            count => count as usize,
        }
    }

    /// Ordered statically reachable pairs of `graph`, each vertex
    /// reaching itself included — the `reached_bits` total a temporal
    /// closure attains exactly when the assignment satisfies `T_reach`.
    /// Undirected graphs sum squared component sizes; directed graphs
    /// search every source not yet searched.
    #[must_use]
    pub fn total(&self, graph: &Graph) -> usize {
        match &self.components {
            Some(c) => c.sizes.iter().map(|&s| (s as usize) * (s as usize)).sum(),
            None => (0..graph.num_nodes() as NodeId)
                .map(|s| self.reach(graph, s))
                .sum(),
        }
    }

    /// Do the temporal reach counts of lanes `base..base + counts.len()`
    /// match the static ones?
    fn lanes_match(&self, graph: &Graph, base: NodeId, counts: &[usize]) -> bool {
        counts.iter().enumerate().all(|(lane, &count)| {
            let expected = self.reach(graph, base + lane as NodeId);
            debug_assert!(count <= expected, "journeys are paths");
            count == expected
        })
    }
}

/// Does the assignment preserve reachability (`T_reach`, Definition 6)?
///
/// Per source `s`, the set of temporally reachable vertices must equal the
/// set of statically reachable vertices; since journeys are paths, equality
/// of counts suffices. The static counts come from a [`StaticReach`] built
/// for this call; callers that check many assignments of one graph share
/// one through [`treach_holds_scratch_with`] instead.
/// Temporal counts come from a lane pass over the first 64 sources first
/// (a violating instance almost always exposes a short-counted source
/// among any 64), then from the remaining column blocks in parallel
/// through the full-width engine the density-aware [`EngineChoice`]
/// selected.
#[must_use]
pub fn treach_holds(tn: &TemporalNetwork, threads: usize) -> bool {
    let n = tn.num_nodes();
    if n <= 1 {
        return true;
    }
    let oracle = StaticReach::new(tn.graph());
    struct Treach<'a> {
        tn: &'a TemporalNetwork,
        threads: usize,
        oracle: &'a StaticReach,
    }
    impl FrontierRun for Treach<'_> {
        type Out = bool;
        fn run<S: FrontierEngine>(self, shards: usize) -> bool {
            let (probe, rest) = probe_blocks(self.tn.num_nodes(), shards);
            frontier_treach::<S>(self.tn, self.threads, self.oracle, probe, &rest)
        }
    }
    let run = Treach {
        tn,
        threads,
        oracle: &oracle,
    };
    EngineChoice::run(tn, threads, run)
}

/// Probe-first whole-network `T_reach` over engine `S`. As with
/// connectivity, the probe block runs through the shared lane-pass core
/// of [`session`](crate::session); only the remaining blocks sweep
/// full-width.
fn frontier_treach<S: FrontierEngine>(
    tn: &TemporalNetwork,
    threads: usize,
    oracle: &StaticReach,
    probe: std::ops::Range<NodeId>,
    rest: &[std::ops::Range<NodeId>],
) -> bool {
    let (base, width) = (probe.start, probe.len());
    let counts = reach_counts(tn, &mut BatchSweeper::new(), probe);
    if !oracle.lanes_match(tn.graph(), base, &counts[..width]) {
        return false;
    }
    let failed = AtomicBool::new(false);
    let init = || (S::default(), Vec::new());
    par_map_with(rest, threads, init, |(sweeper, counts), _, block| {
        if failed.load(Ordering::Relaxed) {
            return;
        }
        wide_reach_counts(tn, sweeper, block.clone(), counts);
        if !oracle.lanes_match(tn.graph(), block.start, counts) {
            failed.store(true, Ordering::Relaxed);
        }
    });
    !failed.load(Ordering::Relaxed)
}

/// Sequential [`treach_holds`] reusing a caller-owned [`SweepScratch`],
/// which would otherwise rebuild a full-width engine's `n × ⌈n/64⌉`
/// frontier matrices on every call. The static counts come from a
/// [`StaticReach`] built for this call; the Monte Carlo estimators, which
/// check many assignments of one graph, share one oracle per substrate
/// through [`treach_holds_scratch_with`] instead.
/// Same dispatch and early exits as `treach_holds(tn, 1)`, same answer.
#[must_use]
pub fn treach_holds_scratch(tn: &TemporalNetwork, scratch: &mut SweepScratch) -> bool {
    treach_holds_scratch_traced(tn, scratch).0
}

/// [`treach_holds_scratch`] that also reports the engine that **actually
/// answered** — see [`treach_holds_scratch_with`], which this calls with a
/// [`StaticReach`] built for this call.
#[must_use]
pub fn treach_holds_scratch_traced(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
) -> (bool, EngineKind) {
    treach_holds_scratch_with(tn, scratch, &StaticReach::new(tn.graph()))
}

/// Sequential `T_reach` against a caller-owned static oracle — the
/// per-trial path of the Monte Carlo estimators: `oracle` is built once
/// per substrate (`oracle` must be [`StaticReach::new`] of `tn`'s graph)
/// and shared by every trial and worker, and `scratch` keeps the sweep
/// buffers warm, so a warm trial allocates nothing. Also reports the
/// engine that **actually answered** — the attribution `experiments
/// sweep` rows carry. The check probes the first 64 sources with one
/// lane pass before committing to a full-width sweep; when that probe
/// alone decides the answer (the overwhelmingly common case on failing
/// instances, and every case at `n ≤ 64`, where no block remains), the
/// attribution is [`EngineKind::Batch`], not the engine the density
/// dispatch picked for the remaining blocks. Only runs that sweep a
/// full-width block report [`EngineKind::Wide`] / [`EngineKind::Sparse`].
#[must_use]
pub fn treach_holds_scratch_with(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
    oracle: &StaticReach,
) -> (bool, EngineKind) {
    let n = tn.num_nodes();
    if n <= 1 {
        return (true, EngineKind::Batch);
    }
    struct TreachScratch<'a> {
        tn: &'a TemporalNetwork,
        scratch: &'a mut SweepScratch,
        oracle: &'a StaticReach,
    }
    impl FrontierRun for TreachScratch<'_> {
        type Out = (bool, EngineKind);
        fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
            frontier_treach_scratch::<S>(self.tn, self.scratch, self.oracle, shards)
        }
    }
    EngineChoice::run(
        tn,
        1,
        TreachScratch {
            tn,
            scratch,
            oracle,
        },
    )
}

/// Sequential probe-first `T_reach` over engine `S`, reporting whether the
/// 64-lane probe alone answered (attributed as a lane pass) or a
/// full-width block had to sweep. The probe runs through the shared
/// lane-pass core of [`session`](crate::session) on the scratch bundle's
/// lane-pass sweeper, and only the remaining blocks (walked lazily, as
/// [`word_blocks`] yields them) fetch the full-width engine and the
/// scratch bundle's per-lane count buffer — a warm check allocates
/// nothing.
fn frontier_treach_scratch<S: FrontierEngine>(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
    oracle: &StaticReach,
    shards: usize,
) -> (bool, EngineKind) {
    let n = tn.num_nodes();
    let width = n.min(MAX_LANES);
    let counts = reach_counts(tn, &mut scratch.batch, 0..width as NodeId);
    if !oracle.lanes_match(tn.graph(), 0, &counts[..width]) {
        return (false, EngineKind::Batch);
    }
    let mut counts = std::mem::take(&mut scratch.lane_counts);
    let sweeper = S::from_scratch(scratch);
    let mut answer = (true, EngineKind::Batch);
    for block in word_blocks(1, n, shards) {
        let base = block.start;
        wide_reach_counts(tn, sweeper, block, &mut counts);
        answer = (oracle.lanes_match(tn.graph(), base, &counts), S::kind());
        if !answer.0 {
            break;
        }
    }
    scratch.lane_counts = counts;
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelAssignment;
    use crate::Time;
    use ephemeral_graph::generators;
    use ephemeral_graph::GraphBuilder;

    #[test]
    fn reach_on_increasing_path() {
        let g = generators::path(4);
        let labels = LabelAssignment::single(vec![1, 2, 3]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        assert_eq!(temporal_reach(&tn, 0), vec![true; 4]);
        // From the far end the labels all decrease.
        assert_eq!(temporal_reach(&tn, 3), vec![false, false, true, true]);
    }

    #[test]
    fn treach_on_box_labelled_path() {
        // Two labels per edge covering both directions: every edge gets
        // {position+1, …} increasing forward and backward windows wide
        // enough — simplest certificate: all edges available at all times.
        let g = generators::path(5);
        let labels = LabelAssignment::from_vecs(vec![vec![1, 2, 3, 4]; 4]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 4).unwrap();
        assert!(treach_holds(&tn, 2));
        assert!(is_temporally_connected(&tn, 2));
    }

    #[test]
    fn treach_fails_on_one_label_path() {
        // A path with a single label per edge can never serve both
        // directions for n >= 3.
        let g = generators::path(3);
        let labels = LabelAssignment::single(vec![1, 2]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        assert!(!treach_holds(&tn, 1));
        assert!(!is_temporally_connected(&tn, 1));
    }

    #[test]
    fn treach_respects_static_disconnection() {
        // Two disjoint labelled edges: static reachability is also split,
        // so T_reach holds (reachability is *preserved*).
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        let labels = LabelAssignment::single(vec![1, 1]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        assert!(treach_holds(&tn, 1));
        assert!(!is_temporally_connected(&tn, 1));
    }

    #[test]
    fn clique_single_label_always_satisfies_treach() {
        // The paper's observation: K_n satisfies T_reach with any single
        // labelling, because the direct edge is itself a journey.
        let g = generators::clique(7, false);
        let m = g.num_edges();
        let labels: Vec<Time> = (0..m as Time).map(|i| 1 + (i % 7)).collect();
        let tn = TemporalNetwork::new(g, LabelAssignment::single(labels).unwrap(), 7).unwrap();
        assert!(treach_holds(&tn, 2));
        assert!(is_temporally_connected(&tn, 2));
    }

    #[test]
    fn batched_checks_match_scalar_loops_across_batch_boundaries() {
        use ephemeral_rng::{RandomSource, SeedSequence};
        for seed in 0..4u64 {
            let mut rng = SeedSequence::new(seed).rng(9);
            let n = 70; // the probe plus one wide block
            let g = generators::gnp(n, 0.08, false, &mut rng);
            let labels =
                LabelAssignment::from_fn(g.num_edges(), |_| vec![rng.range_u32(1, 32)]).unwrap();
            let tn = TemporalNetwork::new(g, labels, 32).unwrap();
            let scalar_connected =
                (0..n as NodeId).all(|s| foremost(&tn, s, 0).reached_count() == n);
            assert_eq!(
                is_temporally_connected(&tn, 2),
                scalar_connected,
                "seed {seed}"
            );
            let scalar_treach = (0..n as NodeId).all(|s| {
                let stat = bfs_distances(tn.graph(), s)
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .count();
                foremost(&tn, s, 0).reached_count() == stat
            });
            assert_eq!(treach_holds(&tn, 2), scalar_treach, "seed {seed}");
        }
    }

    #[test]
    fn wide_checks_match_scalar_loops_above_the_crossover() {
        use ephemeral_rng::{RandomSource, SeedSequence};
        let n = crate::wide::WIDE_CROSSOVER + 30;
        for (seed, r) in [(1u64, 1usize), (2, 24)] {
            // r = 1 essentially never preserves reachability; r = 24 over a
            // dense-ish gnp usually does — both branches of the probe.
            let mut rng = SeedSequence::new(seed).rng(5);
            let g = generators::gnp(n, 0.08, false, &mut rng);
            let lifetime = n as u32;
            let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
                (0..r).map(|_| rng.range_u32(1, lifetime)).collect()
            })
            .unwrap();
            let tn = TemporalNetwork::new(g, labels, lifetime).unwrap();
            let scalar_connected =
                (0..n as NodeId).all(|s| foremost(&tn, s, 0).reached_count() == n);
            let scalar_treach = (0..n as NodeId).all(|s| {
                let stat = bfs_distances(tn.graph(), s)
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .count();
                foremost(&tn, s, 0).reached_count() == stat
            });
            for threads in [1, 3] {
                assert_eq!(
                    is_temporally_connected(&tn, threads),
                    scalar_connected,
                    "seed {seed} threads {threads}"
                );
                assert_eq!(
                    treach_holds(&tn, threads),
                    scalar_treach,
                    "seed {seed} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn scratch_treach_matches_the_parallel_check_in_both_regimes() {
        use crate::wide::{SweepScratch, WIDE_CROSSOVER};
        use ephemeral_rng::{RandomSource, SeedSequence};
        let mut scratch = SweepScratch::new();
        for (seed, n, r) in [
            (1u64, 48usize, 1usize),     // probe alone, usually failing
            (2, 48, 32),                 // probe alone, usually holding
            (3, WIDE_CROSSOVER + 5, 1),  // probe, then blocks: failing
            (4, WIDE_CROSSOVER + 5, 32), // probe, then blocks: holding
        ] {
            let mut rng = SeedSequence::new(seed).rng(2);
            let g = generators::gnp(n, 0.1, false, &mut rng);
            let lifetime = n as u32;
            let labels = LabelAssignment::from_fn(g.num_edges(), |_| {
                (0..r).map(|_| rng.range_u32(1, lifetime)).collect()
            })
            .unwrap();
            let tn = TemporalNetwork::new(g, labels, lifetime).unwrap();
            assert_eq!(
                treach_holds_scratch(&tn, &mut scratch),
                treach_holds(&tn, 2),
                "seed {seed} n {n} r {r}"
            );
        }
    }

    #[test]
    fn static_pairs_count_components_and_directions() {
        // Two undirected components of sizes 3 and 2: 9 + 4.
        let mut b = GraphBuilder::new_undirected(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build().unwrap();
        let oracle = StaticReach::new(&g);
        assert_eq!(oracle.total(&g), 13);
        assert_eq!((oracle.reach(&g, 0), oracle.reach(&g, 4)), (3, 2));
        // Directed path 0→1→2: sources reach 3, 2, 1 vertices.
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let oracle = StaticReach::new(&g);
        assert_eq!(oracle.reach(&g, 1), 2, "searched on first use");
        assert_eq!(oracle.reach(&g, 1), 2, "memoised");
        assert_eq!(oracle.total(&g), 6);
    }

    #[test]
    fn trivial_networks_are_connected() {
        let g = GraphBuilder::new_undirected(1).build().unwrap();
        let labels = LabelAssignment::from_vecs(vec![]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        assert!(treach_holds(&tn, 1));
        assert!(is_temporally_connected(&tn, 1));
    }

    #[test]
    fn directed_star_out_edges_only() {
        // Directed star: centre -> leaves with label 1. Static reach from a
        // leaf is itself only; temporal matches => T_reach holds.
        let mut b = GraphBuilder::new_directed(4);
        for leaf in 1..4u32 {
            b.add_edge(0, leaf);
        }
        let g = b.build().unwrap();
        let labels = LabelAssignment::single(vec![1, 1, 1]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        assert!(treach_holds(&tn, 1));
        assert!(!is_temporally_connected(&tn, 1));
    }
}
