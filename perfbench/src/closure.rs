//! `closure`: whole-instance analyses, one at a time on two threads — the
//! only workload that runs one instance on several threads and the sparse
//! engine above 10^5 vertices.

use crate::stats::{cpu_snapshot, median, peak_rss_mb, Report};
use crate::trace::Tracer;
use crate::Size;
use ephemeral_graph::algo::connected_components;
use ephemeral_graph::NodeId;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_serve::LoadSpec;
use ephemeral_temporal::closure::ReachabilityMatrix;
use ephemeral_temporal::distance::{instance_temporal_diameter, InstanceDiameter};
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::metrics::{temporal_metrics, TemporalMetrics};
use ephemeral_temporal::reachability::treach_holds;
use ephemeral_temporal::sparse::{EngineChoice, FrontierRun, SparseSweeper};
use ephemeral_temporal::wide::{source_blocks, EngineKind, FrontierEngine};
use ephemeral_temporal::{TemporalNetwork, NEVER};
use std::time::Instant;

const THREADS: usize = 2;
/// Set-ups timed before the first round; one more follows every round, so
/// the samples span the host's load over the whole run. `setup_s` is their
/// median.
const SETUPS: usize = 3;
/// Sources per instance whose scalar `foremost` rows are checked.
const ORACLE_SOURCES: usize = 8;

/// Sparse `G(n, avg deg 4)` with `a = 4n` (the service corpus shape).
fn sparse_spec(seed: u64, size: Size) -> LoadSpec {
    let nodes = match size {
        Size::Full => 1 << 18,
        Size::Smoke => 1 << 13,
    };
    LoadSpec::Gnp {
        nodes,
        avg_degree: 4.0,
        directed: false,
        lifetime: 4 * nodes as u32,
        labels_per_edge: 1,
        seed: SeedSequence::new(seed).derive(11),
        label_seed: SeedSequence::new(seed).derive(12),
    }
}

/// Dense `G(n, p = 1.5 ln n / n)` with `a = n`.
fn dense_spec(seed: u64, size: Size) -> LoadSpec {
    let nodes: usize = match size {
        Size::Full => 4096,
        Size::Smoke => 512,
    };
    LoadSpec::Gnp {
        nodes,
        avg_degree: 1.5 * (nodes as f64).ln(),
        directed: false,
        lifetime: nodes as u32,
        labels_per_edge: 1,
        seed: SeedSequence::new(seed).derive(21),
        label_seed: SeedSequence::new(seed).derive(22),
    }
}

struct Instances {
    sparse: TemporalNetwork,
    dense: TemporalNetwork,
}

fn build(seed: u64, size: Size) -> Result<Instances, String> {
    Ok(Instances {
        sparse: sparse_spec(seed, size).build()?,
        dense: dense_spec(seed, size).build()?,
    })
}

#[derive(Debug, Clone, PartialEq)]
struct Results {
    sparse_diameter: InstanceDiameter,
    sparse_treach: bool,
    dense_metrics: TemporalMetrics,
    dense_matrix: ReachabilityMatrix,
    dense_diameter: InstanceDiameter,
}

/// The five calls, names as the per-layer metrics use them.
const CALLS: [&str; 5] = [
    "closure.sparse.diameter",
    "closure.sparse.treach",
    "closure.dense.metrics",
    "closure.dense.matrix",
    "closure.dense.diameter",
];

/// One round of the five analyses on `threads`, each call timed (and
/// recorded as a span when a tracer is given, under `prefix`).
fn round(
    inst: &Instances,
    threads: usize,
    mut tracer: Option<&mut Tracer>,
    prefix: &str,
) -> (Results, [f64; 5]) {
    let mut times = [0.0; 5];
    let mut timed = |k: usize, f: &mut dyn FnMut()| {
        let id = tracer
            .as_deref_mut()
            .map(|t| t.begin(&format!("{prefix}{}", CALLS[k]), None, k as u64));
        let t0 = Instant::now();
        f();
        times[k] = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
            t.end(id);
        }
    };
    let mut sparse_diameter = None;
    let mut sparse_treach = None;
    let mut dense_metrics = None;
    let mut dense_matrix = None;
    let mut dense_diameter = None;
    timed(0, &mut || {
        sparse_diameter = Some(instance_temporal_diameter(&inst.sparse, threads))
    });
    timed(1, &mut || {
        sparse_treach = Some(treach_holds(&inst.sparse, threads))
    });
    timed(2, &mut || {
        dense_metrics = Some(temporal_metrics(&inst.dense, threads))
    });
    timed(3, &mut || {
        dense_matrix = Some(ReachabilityMatrix::compute(&inst.dense, threads))
    });
    timed(4, &mut || {
        dense_diameter = Some(instance_temporal_diameter(&inst.dense, threads))
    });
    let results = Results {
        sparse_diameter: sparse_diameter.expect("ran"),
        sparse_treach: sparse_treach.expect("ran"),
        dense_metrics: dense_metrics.expect("ran"),
        dense_matrix: dense_matrix.expect("ran"),
        dense_diameter: dense_diameter.expect("ran"),
    };
    (results, times)
}

/// Seeded sample of sources.
fn sample_sources(n: usize, seed: u64, stream: u64) -> Vec<NodeId> {
    let mut rng = SeedSequence::new(seed).rng(stream);
    (0..ORACLE_SOURCES)
        .map(|_| rng.index(n) as NodeId)
        .collect()
}

/// Compare the results with scalar `foremost` rows from sampled sources
/// and with each other. Returns (checked, mismatched) and notes failures.
fn oracle_checks(inst: &Instances, r: &Results, seed: u64, notes: &mut Vec<String>) -> (u64, u64) {
    let mut checked = 0u64;
    let mut wrong = 0u64;
    let mut check = |ok: bool, what: String| {
        checked += 1;
        if !ok {
            wrong += 1;
            notes.push(format!("closure check failed: {what}"));
        }
    };

    // Dense: closure rows, distances and the cross-call identities.
    let dn = inst.dense.num_nodes();
    let mut dense_max = 0;
    for s in sample_sources(dn, seed, 31) {
        let run = foremost(&inst.dense, s, 0);
        let row = run.arrivals();
        let agree =
            (0..dn as NodeId).all(|t| r.dense_matrix.reaches(s, t) == (row[t as usize] != NEVER));
        check(agree, format!("dense closure row of source {s}"));
        dense_max = dense_max.max(
            row.iter()
                .copied()
                .filter(|&t| t != NEVER)
                .max()
                .unwrap_or(0),
        );
    }
    let missing = r.dense_matrix.missing_pairs();
    check(
        r.dense_diameter.unreachable_pairs == missing,
        format!(
            "dense unreachable pairs {} vs closure {missing}",
            r.dense_diameter.unreachable_pairs
        ),
    );
    check(
        r.dense_metrics.reachable_pairs == dn * dn - dn - missing,
        format!("dense reachable pairs {}", r.dense_metrics.reachable_pairs),
    );
    check(
        r.dense_metrics.max_temporal_distance == r.dense_diameter.max_finite
            && r.dense_diameter.max_finite >= dense_max,
        format!(
            "dense max distance {} / diameter {} / sampled {dense_max}",
            r.dense_metrics.max_temporal_distance, r.dense_diameter.max_finite
        ),
    );

    // Sparse: sampled rows bound the diameter and decide T_reach.
    let sn = inst.sparse.num_nodes();
    let components = connected_components(inst.sparse.graph());
    let mut sparse_max = 0;
    let mut sampled_missing = 0usize;
    let mut all_match = true;
    for s in sample_sources(sn, seed, 32) {
        let run = foremost(&inst.sparse, s, 0);
        let row = run.arrivals();
        sparse_max = sparse_max.max(
            row.iter()
                .copied()
                .filter(|&t| t != NEVER)
                .max()
                .unwrap_or(0),
        );
        sampled_missing += row.iter().filter(|&&t| t == NEVER).count();
        let static_size = components.sizes[components.labels[s as usize] as usize] as usize;
        all_match &= run.reached_count() == static_size;
    }
    check(
        r.sparse_diameter.max_finite >= sparse_max
            && r.sparse_diameter.unreachable_pairs >= sampled_missing,
        format!(
            "sparse diameter {:?} vs sampled max {sparse_max}, missing {sampled_missing}",
            r.sparse_diameter
        ),
    );
    check(
        all_match || !r.sparse_treach,
        "sparse T_reach holds but a sampled source falls short of its component".to_owned(),
    );
    (checked, wrong)
}

/// The bucket walk of `instance_temporal_diameter` as
/// `EngineChoice::dispatch` runs it: the dispatch picks the engine and the
/// shard count, and each shard sweeps its `source_blocks` column block
/// over all labels, as the diameter's per-block body does. Returns
/// (shards, buckets visited summed over shards, arena high-water words).
struct DiameterWalk<'a> {
    tn: &'a TemporalNetwork,
}

impl FrontierRun for DiameterWalk<'_> {
    type Out = (usize, usize, usize);

    fn run<S: FrontierEngine>(self, shards: usize) -> Self::Out {
        let blocks = source_blocks(self.tn.num_nodes(), shards);
        let mut visits = 0;
        let mut hiwater = 0;
        for block in &blocks {
            let stats = S::default().sweep(self.tn, block.clone(), 0, |_, _, _, _| {});
            visits += stats.buckets_visited;
            hiwater = hiwater.max(stats.arena_hiwater_words);
        }
        (blocks.len(), visits, hiwater)
    }
}

/// Dense parts timed per sparse part: the dense calls are short and
/// noisier, so each round gives them more samples.
const DENSE_REPEATS: usize = 2;

/// Untraced run: repeated set-ups, then rounds of the analyses until
/// `seconds` have passed (each round: the two sparse calls once, the three
/// dense calls `DENSE_REPEATS` times), then the output checks.
pub fn run(seed: u64, seconds: f64, size: Size, report: &mut Report) -> Result<(), String> {
    let cpu = cpu_snapshot();
    let mut setups = Vec::new();
    // A rebuild drops the old instances first, so one copy is resident.
    let mut set_up = |old: Option<Instances>| -> Result<Instances, String> {
        drop(old);
        let t0 = Instant::now();
        let inst = build(seed, size)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok(inst)
    };
    let mut inst = set_up(None)?;
    for _ in 1..SETUPS {
        inst = set_up(Some(inst))?;
    }

    // One untimed round first, so buffers the calls reuse are in place.
    let (warm, _) = round(&inst, THREADS, None, "");
    let started = Instant::now();
    // (results, wall seconds) per timed part.
    let mut sparse: Vec<((InstanceDiameter, bool), f64)> = Vec::new();
    let mut dense: Vec<((TemporalMetrics, ReachabilityMatrix, InstanceDiameter), f64)> = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = (
            instance_temporal_diameter(&inst.sparse, THREADS),
            treach_holds(&inst.sparse, THREADS),
        );
        sparse.push((r, t0.elapsed().as_secs_f64()));
        for _ in 0..DENSE_REPEATS {
            let t0 = Instant::now();
            let r = (
                temporal_metrics(&inst.dense, THREADS),
                ReachabilityMatrix::compute(&inst.dense, THREADS),
                instance_temporal_diameter(&inst.dense, THREADS),
            );
            dense.push((r, t0.elapsed().as_secs_f64()));
        }
        inst = set_up(Some(inst))?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rss = peak_rss_mb("self")?;
    report.note(cpu.steal_note());

    let sparse_ok =
        |r: &(InstanceDiameter, bool)| r.0 == warm.sparse_diameter && r.1 == warm.sparse_treach;
    let dense_ok = |r: &(TemporalMetrics, ReachabilityMatrix, InstanceDiameter)| {
        r.0 == warm.dense_metrics && r.1 == warm.dense_matrix && r.2 == warm.dense_diameter
    };
    let repeat_wrong = sparse.iter().filter(|p| !sparse_ok(&p.0)).count() * 2
        + dense.iter().filter(|p| !dense_ok(&p.0)).count() * 3;
    report.tally(
        (2 * sparse.len() + 3 * dense.len()) as u64,
        repeat_wrong as u64,
    );
    let (single, _) = round(&inst, 1, None, "");
    let t1_ok = single == warm;
    if !t1_ok {
        report.note("closure results on 1 thread differ from 2 threads");
    }
    report.tally(5, if t1_ok { 0 } else { 5 });
    let (checked, wrong) = oracle_checks(&inst, &warm, seed, &mut report.notes);
    report.tally(checked, wrong);

    let sparse_ms: Vec<f64> = sparse.iter().map(|p| p.1 * 1e3).collect();
    let dense_ms: Vec<f64> = dense.iter().map(|p| p.1 * 1e3).collect();
    // The two latency slots carry the two parts: the dense analyses
    // (three calls) and the slower sparse ones (two calls); a unit is one
    // of each.
    let unit_s = (median(&sparse_ms) + median(&dense_ms)) / 1e3;
    report.set("setup_s", median(&setups), "s", setups.len());
    report.set("unit_s", unit_s, "s", sparse.len() + dense.len());
    report.set("p50_ms", median(&dense_ms), "ms", dense.len());
    report.set("p99_ms", median(&sparse_ms), "ms", sparse.len());
    report.set("peak_rss_mb", rss, "MiB", 1);
    report.note(format!(
        "closure: sparse n={} ({} edges), dense n={} ({} edges); {} sparse and {} dense parts; dense_closure_s = p50_ms {:.4} s, sparse_closure_s = p99_ms {:.4} s",
        inst.sparse.num_nodes(),
        inst.sparse.graph().num_edges(),
        inst.dense.num_nodes(),
        inst.dense.graph().num_edges(),
        sparse.len(),
        dense.len(),
        median(&dense_ms) / 1e3,
        median(&sparse_ms) / 1e3
    ));
    Ok(())
}

/// Traced run: an untraced round for reference, a traced round on two
/// threads, the same calls on one thread, and the sparse engine's bucket
/// walk dispatched vs single-stream. Returns (overhead, coverage).
pub fn trace(
    seed: u64,
    size: Size,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let inst = build(seed, size)?;
    let (reference, untraced) = round(&inst, THREADS, None, "");
    let untraced_s: f64 = untraced.iter().sum();
    let (traced_results, traced) = round(&inst, THREADS, Some(tracer), "");
    let (single, t1) = round(&inst, 1, Some(tracer), "t1.");
    let agree = traced_results == reference && single == reference;
    report.tally(15, if agree { 0 } else { 15 });
    let (checked, wrong) = oracle_checks(&inst, &reference, seed, &mut report.notes);
    report.tally(checked, wrong);

    for (k, name) in CALLS.iter().enumerate() {
        report.set(&format!("{name}_s"), traced[k], "s", 1);
    }
    report.set(
        "parallel.sparse.t2_over_t1",
        (traced[0] + traced[1]) / (t1[0] + t1[1]),
        "ratio",
        2,
    );
    report.set(
        "parallel.dense.t2_over_t1",
        (traced[2] + traced[3] + traced[4]) / (t1[2] + t1[3] + t1[4]),
        "ratio",
        3,
    );

    // Bucket walk of the sparse diameter as the program dispatches it on
    // two workers, against one single-stream sweep over all sources.
    let tn = &inst.sparse;
    let n = tn.num_nodes();
    let kind = EngineChoice::pick_for_parallel(tn, THREADS);
    let sharded_id = tracer.begin("sparse.sharded_sweep", None, 0);
    let walk = EngineChoice::dispatch(tn, THREADS, DiameterWalk { tn });
    tracer.end(sharded_id);
    let (shards, sharded_visits, mut hiwater) = walk.unwrap_or((0, 0, 0));
    let single_id = tracer.begin("sparse.single_sweep", None, 0);
    let single_stats = SparseSweeper::new().sweep(tn, 0..n as NodeId, 0, |_, _, _, _| {});
    tracer.end(single_id);
    hiwater = hiwater.max(single_stats.arena_hiwater_words);
    report.set("sparse.bucket_visits", sharded_visits as f64, "count", 1);
    report.set(
        "sparse.bucket_visits_1stream",
        single_stats.buckets_visited as f64,
        "count",
        1,
    );
    report.set(
        "sparse.arena_hiwater_mb",
        hiwater as f64 * 4.0 / (1 << 20) as f64,
        "MiB",
        1,
    );
    report.note(format!(
        "closure trace: 2-worker dispatch picks {} on the sparse instance; its {shards} shards visit {sharded_visits} buckets vs {} single-stream",
        kind.name(),
        single_stats.buckets_visited
    ));
    if kind != EngineKind::Sparse {
        report.note("closure trace: the sparse instance did not dispatch to the sparse engine");
    }

    let traced_s: f64 = traced.iter().sum();
    Ok((traced_s / untraced_s - 1.0, traced_s / untraced_s))
}
