//! Allocation-count regression test for the Monte Carlo hot loop.
//!
//! The per-trial path — draw a UNI-CASE assignment into scratch (one bulk
//! draw, single- or multi-label), swap it into the network with an
//! in-place bucket rebuild (occupied-times skip list included), run the
//! dispatched wide or sparse engine, or check `T_reach` against the
//! substrate's one shared static oracle, after a redraw or after one cold
//! Gibbs move — is designed to allocate **nothing** once its buffers are
//! warm. A counting global allocator pins that down; a regression here
//! means a `Vec` started being reborn per trial somewhere in the loop.
//!
//! This file deliberately holds a single `#[test]`: the counter is global
//! to the test binary, so concurrent tests would pollute the count.

use ephemeral_core::models::{LabelModel, UniformMulti, UniformSingle};
use ephemeral_core::urtn::resample_single_in_place;
use ephemeral_graph::generators;
use ephemeral_rng::default_rng;
use ephemeral_temporal::distance::instance_temporal_diameter_scratch;
use ephemeral_temporal::wide::{EngineKind, SweepScratch, WideSweeper};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: defers every operation to `System`; the counter increment has no
// safety implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_montecarlo_trials_do_not_allocate() {
    let n = 96; // two frontier words, the second one ragged
    let graph = generators::clique(n, true);
    let lifetime = n as u32;
    let model = UniformSingle { lifetime };
    let mut rng = default_rng(7);

    let placeholder =
        LabelAssignment::single(vec![1; graph.num_edges()]).expect("constant labels are non-zero");
    let mut tn = TemporalNetwork::new(graph, placeholder, lifetime).expect("valid network");
    let mut spare = LabelAssignment::default();
    let mut sweeper = SweepScratch::new();

    // Warm-up: let every buffer reach its steady-state capacity. Below
    // the crossover this is the wide engine's one-block schedule, the
    // path the Monte Carlo loop takes.
    let mut warm_diam = 0u64;
    for _ in 0..3 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let d = instance_temporal_diameter_scratch(&tn, &mut sweeper);
        warm_diam += u64::from(d.max_finite);
    }
    assert!(warm_diam > 0, "clique trials produce finite diameters");

    // Measured window: the full per-trial pipeline, many times over.
    let before = allocations();
    let mut acc = 0u64;
    for _ in 0..20 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let d = instance_temporal_diameter_scratch(&tn, &mut sweeper);
        acc += u64::from(d.max_finite) + d.unreachable_pairs as u64;
    }
    let during = allocations() - before;
    assert!(acc > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm Monte Carlo trials must not allocate (saw {during} allocations in 20 trials)"
    );

    // The scratch draw alone is also allocation-free once warm.
    let before = allocations();
    for _ in 0..50 {
        model.assign_into(tn.graph().num_edges(), &mut rng, &mut spare);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "assign_into must reuse the scratch assignment's buffers"
    );

    // The multi-label draw: one bulk fill of all m·r labels, then the
    // per-edge sort and dedup in place — no per-edge or per-call buffer.
    let multi = UniformMulti { lifetime, r: 4 };
    let mut multi_spare = LabelAssignment::default();
    for _ in 0..3 {
        multi.assign_into(tn.graph().num_edges(), &mut rng, &mut multi_spare);
    }
    let before = allocations();
    let mut labels = 0usize;
    for _ in 0..50 {
        multi.assign_into(tn.graph().num_edges(), &mut rng, &mut multi_spare);
        labels += multi_spare.total_labels();
    }
    let during = allocations() - before;
    assert!(labels > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm UniformMulti draws must not allocate (saw {during} allocations in 50 draws)"
    );

    // A warm `T_reach` trial below and above the crossover: redraw, then
    // check against the substrate's one shared static oracle. The
    // directed clique always holds, so every source's BFS count is
    // memoised by the warm-up and the measured trials only sweep — the
    // 64-lane probe, then the wide blocks after it.
    use ephemeral_core::urtn::placeholder_network;
    use ephemeral_temporal::reachability::{treach_holds_scratch_with, StaticReach};
    for n_treach in [96usize, 224] {
        let graph = generators::clique(n_treach, true);
        let mut tn = placeholder_network(&graph, n_treach as u32);
        let oracle = StaticReach::new(tn.graph());
        let mut trial_scratch = SweepScratch::new();
        for _ in 0..3 {
            resample_single_in_place(&mut tn, &mut spare, &mut rng);
            let (holds, _) = treach_holds_scratch_with(&tn, &mut trial_scratch, &oracle);
            assert!(holds, "a single-label clique preserves reachability");
        }
        let before = allocations();
        let mut held = 0usize;
        for _ in 0..20 {
            resample_single_in_place(&mut tn, &mut spare, &mut rng);
            let (holds, engine) = treach_holds_scratch_with(&tn, &mut trial_scratch, &oracle);
            held += usize::from(holds);
            assert_eq!(
                engine,
                EngineKind::Wide,
                "n = {n_treach}: holding trials sweep the blocks after the probe"
            );
        }
        let during = allocations() - before;
        assert_eq!(held, 20, "keep the loop observable");
        assert_eq!(
            during, 0,
            "warm T_reach trials at n = {n_treach} must not allocate (saw {during} \
             allocations in 20 trials)"
        );
    }

    // Warm cold-chain steps: what a `treachd` chain runs per step once the
    // 64-lane probe has decided its starting state — one label move in
    // the network, then the `T_reach` check against the shared oracle.
    // Each applied move is checked, reverted and checked again, so the
    // measured window visits exactly the states the warm-up sized every
    // buffer for. Near the threshold single moves flip the answer: some
    // states fail at the probe, others hold through the wide block after
    // it.
    use ephemeral_core::scenario::GraphFamily;
    use ephemeral_core::urtn::propose_label_move;
    let mut rng5 = default_rng(0);
    let chain_graph = GraphFamily::Gnp { c: 1.5 }.build(96, &mut rng5);
    let labels = UniformMulti { lifetime: 96, r: 3 }.assign(chain_graph.num_edges(), &mut rng5);
    let mut chain_tn =
        TemporalNetwork::new(chain_graph, labels, 96).expect("model labels fit the lifetime");
    let chain_oracle = StaticReach::new(chain_tn.graph());
    let proposals: Vec<_> = (0..64)
        .map(|_| propose_label_move(&chain_tn, &mut rng5))
        .collect();
    let mut chain_scratch = SweepScratch::new();
    let cold_steps = |scratch: &mut SweepScratch, tn: &mut TemporalNetwork| {
        // (checks answered by the probe, checks that swept the blocks)
        let mut answered = [0usize; 2];
        let mut check = |scratch: &mut SweepScratch, tn: &TemporalNetwork| {
            let (_, engine) = treach_holds_scratch_with(tn, scratch, &chain_oracle);
            answered[usize::from(engine != EngineKind::Batch)] += 1;
        };
        for &(e, from, to) in &proposals {
            if tn.move_label(e, from, to).is_some() {
                check(scratch, tn);
                tn.move_label(e, to, from)
                    .expect("reverting an applied move is always valid");
                check(scratch, tn);
            }
        }
        answered
    };
    let warm_answered = cold_steps(&mut chain_scratch, &mut chain_tn);
    assert!(
        warm_answered[0] > 0 && warm_answered[1] > 0,
        "cold steps both stop at the probe and sweep the blocks, saw {warm_answered:?}"
    );
    let before = allocations();
    let answered = cold_steps(&mut chain_scratch, &mut chain_tn);
    let during = allocations() - before;
    assert_eq!(
        answered, warm_answered,
        "identical pairs answer identically"
    );
    assert_eq!(
        during,
        0,
        "warm cold-chain steps must not allocate (saw {during} allocations \
         over {} move+revert pairs)",
        proposals.len()
    );

    // The wide-engine trial path: same draw-and-swap loop, but the sweep
    // is a single wide pass over the occupied-times index. Covers both
    // the sweeper's n×W frontier matrices and the occupied skip list's
    // in-place rebuild inside replace_assignment.
    let mut wide = WideSweeper::new();
    let n_nodes = tn.num_nodes() as u32;
    let mut warm = 0u64;
    for _ in 0..3 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let stats = wide.sweep(&tn, 0..n_nodes, 0, |_, _, _, _| {});
        warm += u64::from(stats.last_arrival);
    }
    assert!(warm > 0, "clique trials produce arrivals");

    let before = allocations();
    let mut acc = 0u64;
    let mut occupied_seen = 0usize;
    for _ in 0..20 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        occupied_seen += tn.occupied_times().len();
        let stats = wide.sweep(&tn, 0..n_nodes, 0, |_, _, _, _| {});
        acc += u64::from(stats.last_arrival) + stats.reached_bits as u64;
    }
    let during = allocations() - before;
    assert!(acc > 0 && occupied_seen > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm wide-engine trials (occupied-index rebuild included) must \
         not allocate (saw {during} allocations in 20 trials)"
    );

    // The dispatching scratch path above the crossover — what
    // `td_montecarlo_adaptive` and `Scenario::evaluate` actually run per trial at
    // large n: resample in place, then `instance_temporal_diameter_scratch`
    // (wide engine, cache-blocked schedule via the allocation-free
    // `block_schedule` iterator).
    use ephemeral_temporal::sparse::EngineChoice;
    use ephemeral_temporal::wide::WIDE_CROSSOVER;
    let n_wide = WIDE_CROSSOVER + 64;
    let graph = generators::clique(n_wide, true);
    let mut tn = placeholder_network(&graph, n_wide as u32);
    let mut scratch = SweepScratch::new();
    for _ in 0..3 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        assert_eq!(EngineChoice::pick_for(&tn), EngineKind::Wide);
        let _ = instance_temporal_diameter_scratch(&tn, &mut scratch);
    }
    let before = allocations();
    let mut acc = 0u64;
    for _ in 0..10 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let d = instance_temporal_diameter_scratch(&tn, &mut scratch);
        acc += u64::from(d.max_finite) + d.unreachable_pairs as u64;
    }
    let during = allocations() - before;
    assert!(acc > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm wide-dispatch trials above the crossover must not allocate \
         (saw {during} allocations in 10 trials)"
    );

    // The sparse-dispatch scratch path: a near-threshold G(n, p) at
    // lifetime 4n keeps the occupied buckets far below the dense-fill
    // threshold, so `instance_temporal_diameter_scratch` routes every
    // trial through the event-driven engine — frontier matrices,
    // non-zero-word summaries, version memo and per-bucket slab all
    // reused across trials.
    let n_sparse = WIDE_CROSSOVER + 64;
    let mut rng2 = default_rng(11);
    let graph = ephemeral_graph::generators::gnp(n_sparse, 4.0 / n_sparse as f64, false, &mut rng2);
    let mut tn = placeholder_network(&graph, 4 * n_sparse as u32);
    let mut scratch = SweepScratch::new();
    for _ in 0..3 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        assert_eq!(EngineChoice::pick_for(&tn), EngineKind::Sparse);
        let _ = instance_temporal_diameter_scratch(&tn, &mut scratch);
    }
    let before = allocations();
    let mut acc = 0u64;
    for _ in 0..10 {
        resample_single_in_place(&mut tn, &mut spare, &mut rng);
        let d = instance_temporal_diameter_scratch(&tn, &mut scratch);
        acc += u64::from(d.max_finite) + d.unreachable_pairs as u64;
    }
    let during = allocations() - before;
    assert!(acc > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm sparse-dispatch trials above the crossover must not allocate \
         (saw {during} allocations in 10 trials)"
    );

    // Warm sharded sparse sweeps — the parallel fold's per-worker path:
    // each shard runs its own arena and agenda over the shared bucket
    // index. The relabel-heavy multi-label instance churns the region
    // arena (every relabel supersedes reacher lists), and the one-word
    // compaction floor makes the garbage check run after every bucket,
    // so evacuation cycles fire mid-shard — all through pooled scratch:
    // still zero allocations once warm.
    use ephemeral_temporal::sparse::SparseSweeper;
    use ephemeral_temporal::wide::source_blocks;
    let mut rng4 = default_rng(17);
    let n_shard = 192usize;
    let churn_graph = ephemeral_graph::generators::gnp(n_shard, 0.15, false, &mut rng4);
    use ephemeral_rng::RandomSource;
    let churn_labels = LabelAssignment::from_fn(churn_graph.num_edges(), |_| {
        (0..10).map(|_| rng4.range_u32(1, 900)).collect()
    })
    .expect("non-zero labels");
    let churn = TemporalNetwork::new(churn_graph, churn_labels, 900).expect("valid network");
    let mut sharded = SparseSweeper::new();
    sharded.set_compaction_floor(1);
    let blocks = source_blocks(n_shard, 4);
    let sweep_shards = |sweeper: &mut SparseSweeper| {
        let mut acc = 0u64;
        for block in &blocks {
            let stats = sweeper.sweep(&churn, block.clone(), 0, |_, _, _, _| {});
            acc += stats.reached_bits as u64 + stats.compactions as u64;
        }
        acc
    };
    // Compaction swaps the arena with its evacuation buffer, so the two
    // allocations trade roles every cycle: warm both schedules before
    // measuring.
    let warm = sweep_shards(&mut sharded);
    assert_eq!(sweep_shards(&mut sharded), warm, "sharded folds repeat");
    assert!(
        sharded.compactions_total() > 0,
        "the one-word floor must force compaction cycles"
    );
    let before = allocations();
    let acc = sweep_shards(&mut sharded);
    let during = allocations() - before;
    assert_eq!(acc, warm);
    assert_eq!(
        during, 0,
        "warm sharded sweeps with forced compaction must not allocate \
         (saw {during} allocations across 4 shards)"
    );

    // The traced T_reach check on the same sparse instances. This
    // two-argument form builds a fresh static oracle per call, so no
    // allocation count here (the shared-oracle trial is pinned above):
    // the attribution must stay on the probe/batch-sized path or the
    // sparse engine — never the wide engine the old n-only dispatch would
    // have picked.
    use ephemeral_temporal::reachability::treach_holds_scratch_traced;
    let (_, engine) = treach_holds_scratch_traced(&tn, &mut scratch);
    assert!(
        matches!(engine, EngineKind::Batch | EngineKind::Sparse),
        "sparse instances answer at the probe or the sparse engine, got {engine:?}"
    );

    // The differential cursor: record once, then drive warm
    // `apply_label_move` calls. Each proposal is paired with its revert,
    // so the network returns to the recorded state and the measured
    // window replays exactly the buckets the warm-up already sized the
    // row logs, agenda and shadow buffers for — any allocation here
    // means cursor state stopped being pooled.
    let mut rng3 = default_rng(13);
    let proposals: Vec<_> = (0..48)
        .map(|_| propose_label_move(&tn, &mut rng3))
        .collect();
    let (recorded, _) = scratch.record_delta(&tn);
    let drive = |scratch: &mut SweepScratch, tn: &mut _| {
        let mut replayed = 0usize;
        for &(e, from, to) in &proposals {
            if let Some(a) = scratch.delta.apply_label_move(tn, e, from, to) {
                replayed += a.replayed_buckets;
                let back = scratch
                    .delta
                    .apply_label_move(tn, e, to, from)
                    .expect("reverting an applied move is always valid");
                replayed += back.replayed_buckets;
            }
        }
        replayed
    };
    let warm_replayed = drive(&mut scratch, &mut tn);
    assert!(warm_replayed > 0, "the move pairs must replay buckets");
    let before = allocations();
    let replayed = drive(&mut scratch, &mut tn);
    let during = allocations() - before;
    assert_eq!(
        replayed, warm_replayed,
        "identical pairs replay identically"
    );
    assert_eq!(
        during,
        0,
        "warm differential applies must not allocate (saw {during} \
         allocations over {} move+revert pairs)",
        proposals.len()
    );
    assert_eq!(
        scratch.delta.stats().reached_bits,
        recorded.reached_bits,
        "every pair reverted, so the maintained closure is the recorded one"
    );

    // The aligned kernel slabs directly: every engine above already runs
    // on `AlignedSlab` rows and the `AlignedLanes` arena, but pin the
    // primitives too — allocation happens at first sizing only; warm
    // resizes within capacity re-zero and re-derive the aligned offset
    // without touching the allocator, and warm arena refills likewise.
    use ephemeral_temporal::kernels::{AlignedLanes, AlignedSlab, SLAB_ALIGN_BYTES};
    let mut slab = AlignedSlab::new();
    slab.resize_zeroed(4096);
    let mut lanes = AlignedLanes::new();
    lanes.clear();
    lanes.reserve(4096);
    let before = allocations();
    let mut acc = 0usize;
    for round in 0..50 {
        slab.resize_zeroed(4096 - round % 7);
        slab.words_mut()[round] = !0;
        acc += slab.words()[round].count_ones() as usize;
        lanes.clear();
        for lane in 0..1000u32 {
            lanes.push(lane);
        }
        lanes.extend_from_slice(&[7; 64]);
        acc += lanes.len();
        assert_eq!(slab.words().as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
        assert_eq!(lanes.as_ptr() as usize % SLAB_ALIGN_BYTES, 0);
    }
    let during = allocations() - before;
    assert!(acc > 0, "keep the loop observable");
    assert_eq!(
        during, 0,
        "warm aligned-slab resizes and arena refills must not allocate \
         (saw {during} allocations in 50 rounds)"
    );

    // The pooled bisection probes: a minimal-`r` search threads one
    // `ProbePool` of warm trial scratches through every candidate `r`,
    // so only the first probe pays for the scratch (network copy, sweep
    // buffers). The adaptive runner itself allocates per batch (its
    // sample vectors) and each probe builds its static oracle, so the
    // check is comparative rather than zero: probing five candidates from
    // a warm pool must beat five cold probes by at least two scratches'
    // worth of allocations (it saves ~five).
    use ephemeral_core::reachability_whp::{treach_probability_adaptive_pooled, ProbePool};
    use ephemeral_core::scenario::Scratch;
    use ephemeral_parallel::adaptive::AdaptiveConfig;
    let probe_graph = generators::star(64);
    let cfg = AdaptiveConfig::new(0.5)
        .with_min_trials(4)
        .with_batch(4)
        .with_max_trials(4);
    let candidates = [1usize, 2, 3, 5, 8];
    let pool = ProbePool::new();
    // Warm-up run parks the single worker's scratch (and its spare label
    // buffer, sized for the largest candidate) in the shared pool.
    let _ = treach_probability_adaptive_pooled(&probe_graph, 64, 8, &cfg, 5, 1, &pool);
    assert_eq!(pool.idle(), 1, "the lone worker pools its probe state");
    let before = allocations();
    let scratch_build = Scratch::new(&probe_graph, 64);
    let build_cost = allocations() - before;
    drop(scratch_build);
    assert!(build_cost > 0, "building a trial scratch visibly allocates");
    let run_probes = |pooled: bool| {
        let mut estimates = 0.0;
        for r in candidates {
            let p = if pooled {
                treach_probability_adaptive_pooled(
                    &probe_graph,
                    64,
                    r,
                    &cfg,
                    5 ^ r as u64,
                    1,
                    &pool,
                )
            } else {
                treach_probability_adaptive_pooled(
                    &probe_graph,
                    64,
                    r,
                    &cfg,
                    5 ^ r as u64,
                    1,
                    &ProbePool::new(),
                )
            };
            estimates += p.proportion.estimate;
        }
        estimates
    };
    let before = allocations();
    let warm_estimates = run_probes(true);
    let pooled_allocs = allocations() - before;
    let before = allocations();
    let cold_estimates = run_probes(false);
    let cold_allocs = allocations() - before;
    assert_eq!(
        warm_estimates, cold_estimates,
        "pooling never changes numbers"
    );
    assert!(
        pooled_allocs + 2 * build_cost <= cold_allocs,
        "warm pooled probes must skip the per-candidate scratch rebuild \
         (pooled {pooled_allocs}, cold {cold_allocs}, one scratch costs \
         {build_cost} allocations)"
    );
}
