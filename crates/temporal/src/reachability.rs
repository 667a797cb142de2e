//! Temporal reachability and the paper's `T_reach` property.
//!
//! Definition 6: an assignment `L` **preserves the reachability** of `G`
//! when for all `u, v`: a `(u, v)`-path exists in `G` **iff** a
//! `(u, v)`-journey exists in `(G, L)`. Journeys are paths, so only the
//! forward implication can fail, and no source's temporal reach can
//! exceed its static reach. The checks therefore compare **totals**: a
//! swept block of sources preserves reachability iff its
//! [`SweepStats::reached_bits`](crate::engine::SweepStats::reached_bits)
//! equals the block's static total from [`StaticReach`]. The
//! whole-network checks probe the first 64 sources with one lane pass of
//! the bit-parallel [`engine`](crate::engine) (failing instances almost
//! always fail there) and only then sweep the remaining column blocks
//! through the full-width engine the density-aware [`EngineChoice`]
//! selected — [`wide`](crate::wide) below the crossover and on dense
//! instances, event-driven [`sparse`](crate::sparse) on sparse ones. The
//! single-source helpers stay on the scalar `foremost` oracle.

use crate::engine::{BatchSweeper, MAX_LANES};
use crate::foremost::foremost;
use crate::network::TemporalNetwork;
use crate::session::block_reached_bits;
use crate::sparse::{EngineChoice, FrontierRun};
use crate::wide::{probe_blocks, word_blocks, EngineKind, FrontierEngine, SweepScratch};
use crate::NEVER;
use ephemeral_graph::algo::{bfs_distances, connected_components, Components, UNREACHABLE};
use ephemeral_graph::{Graph, NodeId};
use ephemeral_parallel::par_map_with;
use std::ops::Range;
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
    probe: Range<NodeId>,
    rest: &[Range<NodeId>],
) -> bool {
    let n = tn.num_nodes();
    if block_reached_bits(tn, &mut BatchSweeper::new(), probe.clone()) != probe.len() * n {
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

    /// Ordered statically reachable pairs `(s, v)` with `s` in `block`,
    /// each source reaching itself included — the `reached_bits` total a
    /// temporal sweep of `block` attains exactly when every one of its
    /// sources keeps its static reach.
    ///
    /// # Panics
    /// If `block` reaches past the graph's vertices.
    #[must_use]
    pub fn block_total(&self, graph: &Graph, block: Range<NodeId>) -> usize {
        block.map(|s| self.reach(graph, s)).sum()
    }

    /// [`StaticReach::block_total`] over every source of `graph` — the
    /// `reached_bits` total a temporal closure attains exactly when the
    /// assignment satisfies `T_reach`.
    #[must_use]
    pub fn total(&self, graph: &Graph) -> usize {
        self.block_total(graph, 0..graph.num_nodes() as NodeId)
    }
}

/// The 64-lane probe of every `T_reach` check, on its own: one lane pass
/// over sources `0..min(n, 64)`, whose reached-pair total is compared
/// with their static total. `Some(answer)` when the probe decides the
/// check: its sources fall short (the instance fails), or `n ≤ 64`, where
/// the probe covers every source. `None` when the full-width blocks after
/// it must sweep before the answer is known. `oracle` must be
/// [`StaticReach::new`] of `tn`'s graph; a warm `sweeper` allocates
/// nothing.
#[must_use]
pub fn treach_probe(
    tn: &TemporalNetwork,
    sweeper: &mut BatchSweeper,
    oracle: &StaticReach,
) -> Option<bool> {
    let n = tn.num_nodes();
    let probe = 0..n.min(MAX_LANES) as NodeId;
    let holds = block_holds(
        block_reached_bits(tn, sweeper, probe.clone()),
        oracle.block_total(tn.graph(), probe),
    );
    (!holds || n <= MAX_LANES).then_some(holds)
}

/// Does a swept block's temporal total match its static total? Journeys
/// are paths, so no source reaches more by a journey than by a path, and
/// equal totals mean that every source of the block matches.
fn block_holds(reached_bits: usize, static_total: usize) -> bool {
    debug_assert!(reached_bits <= static_total, "journeys are paths");
    reached_bits == static_total
}

/// Does the assignment preserve reachability (`T_reach`, Definition 6)?
///
/// Per source `s`, the set of temporally reachable vertices must equal the
/// set of statically reachable vertices; since journeys are paths, equal
/// totals over a block of sources suffice. The static totals come from a
/// [`StaticReach`] built for this call; callers that check many
/// assignments of one graph share one through
/// [`treach_holds_scratch_with`] instead. The [`treach_probe`] runs first
/// (a violating instance almost always exposes a short-counted source
/// among any 64), then the remaining column blocks sweep in parallel
/// through the full-width engine the density-aware [`EngineChoice`]
/// selected.
#[must_use]
pub fn treach_holds(tn: &TemporalNetwork, threads: usize) -> bool {
    let oracle = StaticReach::new(tn.graph());
    if let Some(holds) = treach_probe(tn, &mut BatchSweeper::new(), &oracle) {
        return holds;
    }
    struct Treach<'a> {
        tn: &'a TemporalNetwork,
        threads: usize,
        oracle: &'a StaticReach,
    }
    impl FrontierRun for Treach<'_> {
        type Out = bool;
        fn run<S: FrontierEngine>(self, shards: usize) -> bool {
            let (tn, oracle) = (self.tn, self.oracle);
            let rest: Vec<Range<NodeId>> = word_blocks(1, tn.num_nodes(), shards).collect();
            let failed = AtomicBool::new(false);
            par_map_with(&rest, self.threads, S::default, |sweeper, _, block| {
                if failed.load(Ordering::Relaxed) {
                    return;
                }
                let stats = sweeper.sweep(tn, block.clone(), 0, |_, _, _, _| {});
                if !block_holds(
                    stats.reached_bits,
                    oracle.block_total(tn.graph(), block.clone()),
                ) {
                    failed.store(true, Ordering::Relaxed);
                }
            });
            !failed.load(Ordering::Relaxed)
        }
    }
    let run = Treach {
        tn,
        threads,
        oracle: &oracle,
    };
    EngineChoice::run(tn, threads, run)
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
/// sweep` rows carry. The check runs the [`treach_probe`] on the scratch
/// bundle's lane-pass sweeper before committing to a full-width sweep;
/// when that probe alone decides the answer (the overwhelmingly common
/// case on failing instances, and every case at `n ≤ 64`, where no block
/// remains), the attribution is [`EngineKind::Batch`], not the engine the
/// density dispatch picked for the remaining blocks. Only runs that sweep
/// a full-width block report [`EngineKind::Wide`] /
/// [`EngineKind::Sparse`]. Those blocks are walked lazily, one after
/// another on the scratch bundle's engine, so no block list is built.
#[must_use]
pub fn treach_holds_scratch_with(
    tn: &TemporalNetwork,
    scratch: &mut SweepScratch,
    oracle: &StaticReach,
) -> (bool, EngineKind) {
    if let Some(holds) = treach_probe(tn, &mut scratch.batch, oracle) {
        return (holds, EngineKind::Batch);
    }
    struct TreachScratch<'a> {
        tn: &'a TemporalNetwork,
        scratch: &'a mut SweepScratch,
        oracle: &'a StaticReach,
    }
    impl FrontierRun for TreachScratch<'_> {
        type Out = (bool, EngineKind);
        fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
            let (tn, oracle) = (self.tn, self.oracle);
            let sweeper = S::from_scratch(self.scratch);
            let holds = word_blocks(1, tn.num_nodes(), shards).all(|block| {
                let stats = sweeper.sweep(tn, block.clone(), 0, |_, _, _, _| {});
                block_holds(stats.reached_bits, oracle.block_total(tn.graph(), block))
            });
            (holds, S::kind())
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

    /// Two disjoint cliques on `0..n/2` and `n/2..n` with one uniform
    /// label in `1..=n` per edge. `break_last` strips every edge out of
    /// vertex `n − 1` but the one to `n − 2`, which gets the last label:
    /// journeys from `n − 1` then end at `n − 2`, so `T_reach` fails
    /// inside the second clique alone.
    fn two_cliques(n: usize, directed: bool, break_last: bool, seed: u64) -> TemporalNetwork {
        use ephemeral_rng::{RandomSource, SeedSequence};
        let mut b = if directed {
            GraphBuilder::new_directed(n)
        } else {
            GraphBuilder::new_undirected(n)
        };
        let h = (n / 2) as NodeId;
        for (lo, hi) in [(0, h), (h, n as NodeId)] {
            for u in lo..hi {
                for v in lo..hi {
                    if u < v || (directed && u != v) {
                        b.add_edge(u, v);
                    }
                }
            }
        }
        let g = b.build().unwrap();
        let (last, lifetime) = ((n - 1) as NodeId, n as Time);
        let mut rng = SeedSequence::new(seed).rng(4);
        let labels = LabelAssignment::from_fn(g.num_edges(), |e| {
            let (u, v) = g.endpoints(e);
            let leaves_last = u == last || (!directed && v == last);
            match (break_last && leaves_last, u.min(v) == last - 1) {
                (false, _) => vec![rng.range_u32(1, lifetime)],
                (true, true) => vec![lifetime],
                (true, false) => vec![],
            }
        })
        .unwrap();
        TemporalNetwork::new(g, labels, lifetime).unwrap()
    }

    #[test]
    fn totals_check_matches_scalar_when_static_reach_is_incomplete() {
        // Totals fall below n² here, so the check must compare each block
        // with its static total, not with `width · n`. At n = 150 the
        // probe's sources all lie in the first clique, which holds: the
        // block after the probe decides, on either answer.
        for directed in [false, true] {
            for n in [40usize, 150] {
                for break_last in [false, true] {
                    let tn = two_cliques(n, directed, break_last, n as u64);
                    let g = tn.graph();
                    let oracle = StaticReach::new(g);
                    assert_eq!(oracle.total(g), 2 * (n / 2) * (n / 2), "two components");
                    let scalar = (0..n as NodeId).all(|s| {
                        let stat = bfs_distances(g, s)
                            .iter()
                            .filter(|&&d| d != UNREACHABLE)
                            .count();
                        foremost(&tn, s, 0).reached_count() == stat
                    });
                    let tag = format!("n {n} directed {directed} broken {break_last}");
                    assert_eq!(scalar, !break_last, "{tag}");
                    for threads in [1, 2] {
                        assert_eq!(treach_holds(&tn, threads), scalar, "{tag}");
                    }
                    let mut scratch = SweepScratch::new();
                    let (holds, engine) = treach_holds_scratch_with(&tn, &mut scratch, &oracle);
                    assert_eq!(holds, scalar, "{tag}");
                    let swept = if n <= MAX_LANES {
                        EngineKind::Batch
                    } else {
                        EngineKind::Wide
                    };
                    assert_eq!(engine, swept, "{tag}");
                    let probe = treach_probe(&tn, &mut scratch.batch, &oracle);
                    assert_eq!(probe, (n <= MAX_LANES).then_some(scalar), "{tag}");
                }
            }
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
