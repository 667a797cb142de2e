//! `grid`: the paper reproduction — a Monte Carlo scenario grid through
//! `run_sweep_with` on two threads.
//!
//! The grid is spelled out here rather than taken from `SweepSpec::full`,
//! so later edits to the program's presets do not change the benchmark.

use crate::stats::{cpu_snapshot, median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use crate::Size;
use ephemeral_bench::sweep::{render_row, run_sweep_with, SweepOptions, SweepSpec};
use ephemeral_core::dissemination::flood;
use ephemeral_core::scenario::{GraphFamily, LabelModelSpec, LifetimeRule, Metric, Scenario};
use ephemeral_graph::algo::{bfs_distances, connected_components, UNREACHABLE};
use ephemeral_graph::EdgeId;
use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_parallel::ThreadPool;
use ephemeral_rng::{RandomSource, SeedSequence};
use ephemeral_temporal::distance::instance_temporal_diameter_scratch_traced;
use ephemeral_temporal::engine::{batch_count, batch_range, Lane};
use ephemeral_temporal::reachability::treach_holds_scratch_traced;
use ephemeral_temporal::wide::{block_schedule, cache_block_count, EngineKind, SweepScratch};
use ephemeral_temporal::{LabelAssignment, TemporalNetwork, NEVER};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads of the sweep (the benchmark machine has two cores).
pub const THREADS: usize = 2;
/// Where the reference rows live, relative to the checkout root.
pub const REFERENCE: &str = "perfbench/reference/grid.tsv";
/// Set-ups timed before the first pass and again after every pass, so the
/// samples span the host's load over the whole run; `setup_s` is their
/// median.
const SETUP_SAMPLES: usize = 25;
/// Trials (or Gibbs steps) of each cell replayed in the traced run.
const REPLAY_TRIALS: usize = 12;
const REPLAY_STEPS: usize = 48;
/// Independent chains per correlated cell (`Scenario::evaluate` uses the
/// adaptive batch knob, clamped to 1..=16).
const CHAINS: usize = 16;

/// The benchmark grid: six substrate families × UNI-CASE single and
/// four-label models × four metrics × three sizes (144 cells); the smoke
/// grid keeps three families and two sizes at a loose CI.
pub fn spec(seed: u64, size: Size) -> SweepSpec {
    let metrics = vec![
        Metric::TemporalDiameter,
        Metric::TreachProbability,
        Metric::TreachCorrelated,
        Metric::FloodTime,
    ];
    let models = vec![
        LabelModelSpec::UniformSingle,
        LabelModelSpec::UniformMulti { r: 4 },
    ];
    match size {
        Size::Full => SweepSpec {
            families: vec![
                GraphFamily::Clique { directed: true },
                GraphFamily::Gnp { c: 1.5 },
                GraphFamily::RandomRegular { degree: 3 },
                GraphFamily::Torus,
                GraphFamily::Star,
                GraphFamily::CompleteBipartite,
            ],
            models,
            lifetimes: vec![LifetimeRule::EqualsN],
            metrics,
            sizes: vec![64, 144, 256],
            adaptive: AdaptiveConfig::new(0.25)
                .with_min_trials(24)
                .with_batch(24)
                .with_max_trials(1_500),
            seed,
        },
        Size::Smoke => SweepSpec {
            families: vec![
                GraphFamily::Clique { directed: true },
                GraphFamily::Gnp { c: 1.5 },
                GraphFamily::Star,
            ],
            models,
            lifetimes: vec![LifetimeRule::EqualsN],
            metrics,
            sizes: vec![36, 224],
            adaptive: AdaptiveConfig::new(1.0)
                .with_min_trials(8)
                .with_batch(8)
                .with_max_trials(48),
            seed,
        },
    }
}

/// One set-up, what `run_sweep_with` does before its first cell: expand
/// the grid, fingerprint it and start the worker pool (which does not wait
/// for its threads). The pool is stopped after the clock.
fn setup_once(seed: u64, size: Size) -> f64 {
    let t0 = Instant::now();
    let spec = spec(seed, size);
    let cells = spec.cells();
    let fingerprint = spec.fingerprint();
    let pool = ThreadPool::new(THREADS);
    let secs = t0.elapsed().as_secs_f64();
    black_box((cells, fingerprint));
    drop(pool);
    secs
}

struct Pass {
    rows: Vec<String>,
    wall_s: f64,
    /// Seconds from the pass start to each row's emission, in grid order.
    row_at_s: Vec<f64>,
}

fn run_pass(spec: &SweepSpec) -> Pass {
    let t0 = Instant::now();
    let mut row_at_s = Vec::new();
    let rows = run_sweep_with(spec, THREADS, &[], SweepOptions::default(), |_| {
        row_at_s.push(t0.elapsed().as_secs_f64());
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        rows,
        wall_s,
        row_at_s,
    }
}

/// The raw text of a scalar field of a sweep row (`"key":value`).
pub fn raw_field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = row.find(&tag)? + tag.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// The compared fields of a row: cell, trials, estimate, half_width, status.
pub fn reference_key(row: &str) -> String {
    ["cell", "trials", "estimate", "half_width", "status"]
        .iter()
        .map(|k| raw_field(row, k).unwrap_or("?"))
        .collect::<Vec<_>>()
        .join("\t")
}

/// Reference rows for `seed` from the checked-in table, if it has them.
fn reference_rows(seed: u64) -> Result<Option<Vec<String>>, String> {
    let text = std::fs::read_to_string(REFERENCE).map_err(|e| format!("read {REFERENCE}: {e}"))?;
    let prefix = format!("{seed}\t");
    let rows: Vec<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix).map(str::to_owned))
        .collect();
    Ok((!rows.is_empty()).then_some(rows))
}

/// Check one pass: every row healthy, identical to the first pass, and —
/// for seeds in the reference table — equal to the reference on the
/// compared fields. Returns (checked, mismatched).
fn check_pass(
    rows: &[String],
    first: &[String],
    reference: Option<&[String]>,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut wrong = 0u64;
    if rows.len() != first.len() {
        notes.push(format!(
            "pass emitted {} rows, expected {}",
            rows.len(),
            first.len()
        ));
        return (first.len() as u64, first.len() as u64);
    }
    if let Some(r) = reference {
        if r.len() != rows.len() {
            notes.push(format!(
                "reference has {} rows, pass {}",
                r.len(),
                rows.len()
            ));
            return (rows.len() as u64, rows.len() as u64);
        }
    }
    for (i, row) in rows.iter().enumerate() {
        let mut bad = raw_field(row, "status") != Some("ok") || *row != first[i];
        if let Some(r) = reference {
            bad |= reference_key(row) != r[i];
        }
        if bad {
            if wrong < 3 {
                notes.push(format!("grid row {i} mismatch: {row}"));
            }
            wrong += 1;
        }
    }
    (rows.len() as u64, wrong)
}

/// Untraced run: repeated set-ups, then whole passes until `seconds` have
/// passed.
pub fn run(seed: u64, seconds: f64, size: Size, report: &mut Report) -> Result<(), String> {
    let cpu = cpu_snapshot();
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES).map(|_| setup_once(seed, size)).collect();
    let spec = spec(seed, size);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(&spec));
        setups.extend((0..SETUP_SAMPLES).map(|_| setup_once(seed, size)));
    }
    let rss = peak_rss_mb("self")?;
    report.note(cpu.steal_note());

    let reference = if size == Size::Full {
        reference_rows(seed)?
    } else {
        None
    };
    report.note(match &reference {
        Some(_) => format!("grid rows checked against {REFERENCE} (seed {seed})"),
        None => {
            format!("seed {seed} has no reference rows: rows checked for status and repeatability")
        }
    });
    let first = passes[0].rows.clone();
    for p in &passes {
        let (checked, wrong) = check_pass(&p.rows, &first, reference.as_deref(), &mut report.notes);
        report.tally(checked, wrong);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Per-pass percentiles, then their median over the passes.
    let row_ms = |p: &Pass| p.row_at_s.iter().map(|t| t * 1e3).collect::<Vec<f64>>();
    let p50: Vec<f64> = passes.iter().map(|p| quantile(&row_ms(p), 0.5)).collect();
    let p99: Vec<f64> = passes.iter().map(|p| quantile(&row_ms(p), 0.99)).collect();
    let rows = passes.iter().map(|p| p.rows.len()).sum();
    let trials: usize = first
        .iter()
        .filter_map(|r| raw_field(r, "trials")?.parse::<usize>().ok())
        .sum();
    report.set("setup_s", median(&setups), "s", setups.len());
    report.set("unit_s", median(&walls), "s", walls.len());
    report.set("p50_ms", median(&p50), "ms", rows);
    report.set("p99_ms", median(&p99), "ms", rows);
    report.set("peak_rss_mb", rss, "MiB", 1);
    report.note(format!(
        "grid: {} cells x {} passes, {} trials per pass; grid_s = unit_s (time until every cell has its row); p50/p99 = time from pass start to a row's emission",
        first.len(),
        passes.len(),
        trials
    ));
    Ok(())
}

/// Write the reference table for `seeds` (one full pass each).
pub fn write_reference(seeds: &[u64]) -> Result<(), String> {
    let mut out = String::new();
    for &seed in seeds {
        let pass = run_pass(&spec(seed, Size::Full));
        for row in &pass.rows {
            if raw_field(row, "status") != Some("ok") {
                return Err(format!("seed {seed}: unhealthy row {row}"));
            }
            out.push_str(&format!("{seed}\t{}\n", reference_key(row)));
        }
        eprintln!(
            "# reference seed {seed}: {} rows in {:.2}s",
            pass.rows.len(),
            pass.wall_s
        );
    }
    std::fs::write(REFERENCE, out).map_err(|e| format!("write {REFERENCE}: {e}"))
}

/// What the traced pass measured per cell.
struct CellRun {
    seconds: f64,
    trials: usize,
    row: String,
}

/// The traced pass: the same cells and seeds as `run_sweep_with`, with a
/// `sweep.cell` span around each `Scenario::evaluate`.
fn traced_pass(spec: &SweepSpec, tracer: &mut Tracer) -> (Vec<CellRun>, f64) {
    let cells = spec.cells();
    let fingerprint = spec.fingerprint();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<CellRun>>> = Mutex::new((0..cells.len()).map(|_| None).collect());
    let t0 = Instant::now();
    let forks: Vec<Tracer> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut tr = tracer.fork();
                let (cells, next, results) = (&cells, &next, &results);
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let (out, seconds) = tr.time("sweep.cell", None, i as u64, || {
                            cell.evaluate(&spec.adaptive, spec.cell_seed(i), 1)
                        });
                        let run = CellRun {
                            seconds,
                            trials: out.trials,
                            row: render_row(fingerprint, cell, &out),
                        };
                        results.lock().expect("cell results lock")[i] = Some(run);
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced grid worker"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    for f in forks {
        tracer.absorb(f);
    }
    let runs = results
        .into_inner()
        .expect("cell results lock")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    (runs, wall)
}

/// Swap a fresh draw from the cell's model into the network.
fn redraw(
    tn: &mut TemporalNetwork,
    spare: &mut LabelAssignment,
    model: &(dyn ephemeral_core::models::LabelModel + Send + Sync),
    rng: &mut dyn RandomSource,
) {
    model.assign_into(tn.graph().num_edges(), rng, spare);
    let drawn = std::mem::take(spare);
    *spare = tn
        .replace_assignment(drawn)
        .expect("model labels fit the lifetime");
}

/// Buckets the diameter sweep of `kind` visits on `tn`, run directly
/// through the engine with the dispatch's sequential block schedule.
fn diameter_buckets(tn: &TemporalNetwork, kind: EngineKind, scratch: &mut SweepScratch) -> usize {
    let n = tn.num_nodes();
    match kind {
        EngineKind::Wide => block_schedule(n, cache_block_count(n).max(1))
            .map(|b| {
                scratch
                    .wide
                    .sweep(tn, b, 0, |_, _, _, _| {})
                    .buckets_visited
            })
            .sum(),
        EngineKind::Sparse => block_schedule(n, 1)
            .map(|b| {
                scratch
                    .sparse
                    .sweep(tn, b, 0, |_, _, _, _| {})
                    .buckets_visited
            })
            .sum(),
        _ => (0..batch_count(n))
            .map(|b| {
                let lanes: Vec<Lane> = batch_range(n, b).map(|s| Lane::row(s, NEVER)).collect();
                let mut arrivals = vec![NEVER; lanes.len()];
                scratch
                    .batch
                    .sweep_lanes(tn, &lanes, 0, &mut arrivals, |_, _, _| {})
                    .buckets_visited
            })
            .sum(),
    }
}

/// The static-reach oracle `treach_holds` consults, recomputed for every
/// source: BFS from each vertex (directed) or one components pass.
fn static_reach(tn: &TemporalNetwork) -> usize {
    let g = tn.graph();
    if g.is_directed() {
        (0..g.num_nodes() as u32)
            .map(|s| {
                bfs_distances(g, s)
                    .iter()
                    .filter(|&&d| d != UNREACHABLE)
                    .count()
            })
            .sum()
    } else {
        connected_components(g).count
    }
}

/// Replay a cell's trial loop with spans around each layer call.
/// Returns the estimated layer time of the whole cell (the replayed mean
/// per trial scaled to the cell's trial count).
fn replay_cell(i: usize, cell: &Scenario, seed: u64, trials: usize, tr: &mut Tracer) -> f64 {
    let graph = cell.build_graph(seed);
    let lifetime = cell.lifetime.lifetime(graph.num_nodes());
    let model = cell.model.instantiate(lifetime);
    let model = model.as_ref();
    let mut rng = SeedSequence::new(seed).child(0xBE7C).rng(0);
    let initial = model.assign(graph.num_edges(), &mut rng);
    let mut tn = TemporalNetwork::new(graph, initial, lifetime).expect("model labels fit");
    let mut spare = LabelAssignment::default();
    let mut scratch = SweepScratch::new();
    let req = i as u64;
    let reps = trials.clamp(1, REPLAY_TRIALS);
    match cell.metric {
        Metric::TemporalDiameter | Metric::TreachProbability => {
            let td = cell.metric == Metric::TemporalDiameter;
            let label = if td { "scenario.td" } else { "scenario.treach" };
            let mut spent = 0.0;
            for _ in 0..reps {
                let trial = tr.begin(label, None, req);
                tr.time("network.redraw", Some(trial), req, || {
                    redraw(&mut tn, &mut spare, model, &mut rng);
                });
                if td {
                    // Only `td` calls count as engine time: `treach_holds`
                    // also runs the graph layer's static-reach oracle.
                    let call = tr.begin("engine", Some(trial), req);
                    let (d, kind) = instance_temporal_diameter_scratch_traced(&tn, &mut scratch);
                    black_box(d);
                    let engine_s = tr.end(call);
                    tr.rename(call, &format!("engine.{}", kind.name()));
                    spent += tr.end(trial);
                    let buckets = diameter_buckets(&tn, kind, &mut scratch);
                    tr.count(
                        &format!("engine.{}.td_buckets", kind.name()),
                        buckets as f64,
                    );
                    tr.count(&format!("engine.{}.td_s", kind.name()), engine_s);
                } else {
                    let (holds, _) = tr.time("reachability.treach", Some(trial), req, || {
                        treach_holds_scratch_traced(&tn, &mut scratch)
                    });
                    black_box(holds);
                    spent += tr.end(trial);
                    let (reach, _) = tr.time("graph.static_reach", None, req, || static_reach(&tn));
                    black_box(reach);
                }
            }
            spent / reps as f64 * trials as f64
        }
        Metric::TreachCorrelated => {
            // One chain of the cell's CHAINS, with a capped number of steps.
            let steps = (trials / CHAINS).saturating_sub(1).max(1);
            let replay_steps = steps.min(REPLAY_STEPS);
            let m = tn.graph().num_edges();
            let chain = tr.begin("scenario.treachd", None, req);
            let (_, redraw_s) = tr.time("network.redraw", Some(chain), req, || {
                redraw(&mut tn, &mut spare, model, &mut rng);
            });
            let (_, record_s) = tr.time("delta.record", Some(chain), req, || {
                black_box(scratch.record_delta(&tn));
            });
            let mut apply_s = 0.0;
            for _ in 0..replay_steps {
                let e = rng.index(m) as EdgeId;
                let labels = tn.labels(e);
                if labels.is_empty() {
                    continue;
                }
                let from = labels[rng.index(labels.len())];
                let to = rng.range_u32(1, lifetime);
                let (applied, s) = tr.time("delta.apply", Some(chain), req, || {
                    scratch.delta.apply_label_move(&mut tn, e, from, to)
                });
                apply_s += s;
                if let Some(a) = applied {
                    tr.count("delta.moves", 1.0);
                    tr.count("delta.replayed_buckets", a.replayed_buckets as f64);
                }
            }
            tr.end(chain);
            CHAINS as f64 * (redraw_s + record_s + apply_s / replay_steps as f64 * steps as f64)
        }
        Metric::FloodTime => {
            let mut spent = 0.0;
            for _ in 0..reps {
                let trial = tr.begin("scenario.flood", None, req);
                tr.time("network.redraw", Some(trial), req, || {
                    redraw(&mut tn, &mut spare, model, &mut rng);
                });
                black_box(flood(&tn, 0));
                spent += tr.end(trial);
            }
            spent / reps as f64 * trials as f64
        }
    }
}

/// Traced run: an untraced pass for reference, the traced pass, then a
/// replay of every cell's trial loop. Fills the grid-layer metrics and
/// returns (overhead fraction, coverage fraction).
pub fn trace(
    seed: u64,
    size: Size,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let spec = spec(seed, size);
    let untraced = run_pass(&spec);
    let (cells, traced_wall) = traced_pass(&spec, tracer);
    let untraced_wall = untraced.wall_s;
    let mut wrong = 0u64;
    for (c, row) in cells.iter().zip(&untraced.rows) {
        if c.row != *row || raw_field(row, "status") != Some("ok") {
            wrong += 1;
        }
    }
    report.tally(cells.len() as u64, wrong);

    let cell_ms: Vec<f64> = cells.iter().map(|c| c.seconds * 1e3).collect();
    let busy: f64 = cells.iter().map(|c| c.seconds).sum();
    report.set("sweep.cell_ms.p50", median(&cell_ms), "ms", cell_ms.len());
    report.set(
        "sweep.cell_ms.max",
        quantile(&cell_ms, 1.0),
        "ms",
        cell_ms.len(),
    );
    report.set(
        "sweep.busy_frac",
        busy / (THREADS as f64 * traced_wall),
        "ratio",
        cells.len(),
    );

    let scenarios = spec.cells();
    let mut per_metric: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for (cell, run) in scenarios.iter().zip(&cells) {
        let e = per_metric.entry(cell.metric.name()).or_insert((0.0, 0));
        e.0 += run.seconds;
        e.1 += run.trials;
    }
    for (metric, name) in [
        ("td", "scenario.td.trial_us"),
        ("treach", "scenario.treach.trial_us"),
        ("treachd", "scenario.treachd.step_us"),
        ("flood", "scenario.flood.trial_us"),
    ] {
        let (s, t) = per_metric.get(metric).copied().unwrap_or((0.0, 0));
        report.set(name, s / t.max(1) as f64 * 1e6, "us", t);
    }
    let trials: usize = cells.iter().map(|c| c.trials).sum();
    report.set("scenario.trials", trials as f64, "count", cells.len());

    let mut layer_time = 0.0;
    for (i, (cell, run)) in scenarios.iter().zip(&cells).enumerate() {
        layer_time += replay_cell(i, cell, spec.cell_seed(i), run.trials, tracer);
    }

    let (redraws, redraw_s) = tracer.total("network.redraw");
    report.set(
        "network.redraw_us",
        redraw_s / redraws.max(1) as f64 * 1e6,
        "us",
        redraws,
    );
    let (reaches, reach_s) = tracer.total("graph.static_reach");
    report.set(
        "graph.static_reach_us",
        reach_s / reaches.max(1) as f64 * 1e6,
        "us",
        reaches,
    );

    let kinds = ["batch", "wide", "sparse"];
    let engine_total: f64 = kinds
        .iter()
        .map(|k| tracer.total(&format!("engine.{k}")).1)
        .sum();
    for k in kinds {
        let (calls, s) = tracer.total(&format!("engine.{k}"));
        report.set(
            &format!("engine.{k}.sweep_us"),
            s / calls.max(1) as f64 * 1e6,
            "us",
            calls,
        );
        report.set(
            &format!("engine.{k}.share"),
            s / engine_total.max(1e-12),
            "ratio",
            calls,
        );
        let buckets = tracer.counter(&format!("engine.{k}.td_buckets"));
        let td_s = tracer.counter(&format!("engine.{k}.td_s"));
        report.set(
            &format!("engine.{k}.ns_per_bucket"),
            td_s * 1e9 / buckets.max(1.0),
            "ns",
            buckets as usize,
        );
    }
    let (records, record_s) = tracer.total("delta.record");
    report.set(
        "delta.record_us",
        record_s / records.max(1) as f64 * 1e6,
        "us",
        records,
    );
    let (applies, apply_s) = tracer.total("delta.apply");
    report.set(
        "delta.apply_us",
        apply_s / applies.max(1) as f64 * 1e6,
        "us",
        applies,
    );
    let moves = tracer.counter("delta.moves");
    report.set(
        "delta.replayed_buckets",
        tracer.counter("delta.replayed_buckets") / moves.max(1.0),
        "count",
        moves as usize,
    );

    // Where a directed-clique T_reach trial at the largest size goes.
    let id_of = |metric: &str| {
        scenarios.iter().position(|c| {
            c.id()
                == format!(
                    "clique/n={}/uni1/a=n/{metric}",
                    spec.sizes[spec.sizes.len() - 1]
                )
        })
    };
    if let (Some(treach), Some(td)) = (id_of("treach"), id_of("td")) {
        let per = |name: &str, i: usize| {
            let (c, s) = tracer.total_req(name, i as u64);
            s / c.max(1) as f64 * 1e3
        };
        let engine_td = ["batch", "wide", "sparse"]
            .iter()
            .map(|k| per(&format!("engine.{k}"), td))
            .sum::<f64>();
        report.note(format!(
            "grid {}: T_reach trial {:.2} ms (static-reach oracle {:.2} ms, label redraw {:.2} ms); its td sweep {:.2} ms",
            scenarios[treach].id(),
            per("scenario.treach", treach),
            per("graph.static_reach", treach),
            per("network.redraw", treach),
            engine_td
        ));
    }

    let overhead = traced_wall / untraced_wall - 1.0;
    let coverage = layer_time / (THREADS as f64 * untraced.wall_s);
    report.note(format!(
        "grid trace: untraced pass {:.3}s, traced pass {:.3}s, {} cells, replayed up to {REPLAY_TRIALS} trials ({REPLAY_STEPS} Gibbs steps) per cell",
        untraced_wall,
        traced_wall,
        cells.len()
    ));
    Ok((overhead, coverage))
}
