//! End-to-end and per-layer benchmark of the ephemeral-networks workspace.
//!
//! ```text
//! perfbench --workload grid|serve-read|serve-write|closure --seed N
//!           --seconds S --trace 0|1 --experiments PATH [--smoke]
//! perfbench reference --seeds 0,1,2        (rewrite the grid reference rows)
//! ```
//!
//! Prints one fact per line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Normally run
//! through `perfbench/run.py`, which builds both binaries first.

mod closure;
mod grid;
mod serve;
mod stats;
mod trace;

use stats::Report;
use std::path::PathBuf;
use trace::Tracer;

/// Input sizes: the benchmark's own, or the reduced smoke sizes used by
/// the harness's self-test and to fill layers a traced workload skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grid,
    ServeRead,
    ServeWrite,
    Closure,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "grid" => Self::Grid,
            "serve-read" => Self::ServeRead,
            "serve-write" => Self::ServeWrite,
            "closure" => Self::Closure,
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    const fn name(self) -> &'static str {
        match self {
            Self::Grid => "grid",
            Self::ServeRead => "serve-read",
            Self::ServeWrite => "serve-write",
            Self::Closure => "closure",
        }
    }
}

/// Every untraced run reports these, whatever the workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Every traced run reports these, whatever the workload.
const PER_LAYER: [(&str, &str); 55] = [
    ("sweep.cell_ms.p50", "ms"),
    ("sweep.cell_ms.max", "ms"),
    ("sweep.busy_frac", "ratio"),
    ("scenario.td.trial_us", "us"),
    ("scenario.treach.trial_us", "us"),
    ("scenario.treachd.step_us", "us"),
    ("scenario.flood.trial_us", "us"),
    ("scenario.trials", "count"),
    ("network.redraw_us", "us"),
    ("graph.static_reach_us", "us"),
    ("engine.batch.sweep_us", "us"),
    ("engine.wide.sweep_us", "us"),
    ("engine.sparse.sweep_us", "us"),
    ("engine.batch.share", "ratio"),
    ("engine.wide.share", "ratio"),
    ("engine.sparse.share", "ratio"),
    ("engine.batch.ns_per_bucket", "ns"),
    ("engine.wide.ns_per_bucket", "ns"),
    ("engine.sparse.ns_per_bucket", "ns"),
    ("delta.record_us", "us"),
    ("delta.apply_us", "us"),
    ("delta.replayed_buckets", "count"),
    ("session.batch_us", "us"),
    ("session.lanes_per_pass", "count"),
    ("session.retired_early_frac", "ratio"),
    ("session.component_skip_frac", "ratio"),
    ("session.buckets_per_pass", "count"),
    ("session.cursor_hit_frac", "ratio"),
    ("session.row_us", "us"),
    ("session.move_us", "us"),
    ("session.record_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("protocol.load_ms.n4096", "ms"),
    ("protocol.load_ms.n8192", "ms"),
    ("protocol.load_ms.n16384", "ms"),
    ("net.request_bytes", "bytes"),
    ("net.response_bytes", "bytes"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MiB"),
    ("serve.lanes_per_batch", "count"),
    ("server.residual_us", "us"),
    ("closure.sparse.diameter_s", "s"),
    ("closure.sparse.treach_s", "s"),
    ("closure.dense.metrics_s", "s"),
    ("closure.dense.matrix_s", "s"),
    ("closure.dense.diameter_s", "s"),
    ("parallel.sparse.t2_over_t1", "ratio"),
    ("parallel.dense.t2_over_t1", "ratio"),
    ("sparse.bucket_visits", "count"),
    ("sparse.bucket_visits_1stream", "count"),
    ("sparse.arena_hiwater_mb", "MiB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    experiments: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut experiments = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => size = Size::Smoke,
            "--experiments" => experiments = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
        experiments: experiments.ok_or("--experiments is required")?,
    })
}

fn untraced(a: &Args, report: &mut Report) -> Result<(), String> {
    match a.workload {
        Workload::Grid => grid::run(a.seed, a.seconds, a.size, report),
        Workload::Closure => closure::run(a.seed, a.seconds, a.size, report),
        Workload::ServeRead => serve::run(
            &a.experiments,
            serve::Mode::Read,
            a.seed,
            a.seconds,
            a.size,
            report,
        ),
        Workload::ServeWrite => serve::run(
            &a.experiments,
            serve::Mode::Write,
            a.seed,
            a.seconds,
            a.size,
            report,
        ),
    }
}

/// The layer groups and which replay fills each: grid layers, service
/// layers, closure layers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    Grid,
    Serve,
    Closure,
}

fn group_of(w: Workload) -> Group {
    match w {
        Workload::Grid => Group::Grid,
        Workload::ServeRead | Workload::ServeWrite => Group::Serve,
        Workload::Closure => Group::Closure,
    }
}

/// Run one traced replay: `w` at `size`. Returns (overhead, coverage).
fn traced_replay(
    a: &Args,
    w: Workload,
    size: Size,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    // The service replays time two sessions, each half as long.
    let serve_seconds = match size {
        Size::Full => (a.seconds / 2.0).max(1.0),
        Size::Smoke => 1.0,
    };
    match w {
        Workload::Grid => grid::trace(a.seed, size, report, tracer),
        Workload::Closure => closure::trace(a.seed, size, report, tracer),
        Workload::ServeRead => serve::trace(
            &a.experiments,
            serve::Mode::Read,
            a.seed,
            serve_seconds,
            size,
            report,
            tracer,
        ),
        Workload::ServeWrite => serve::trace(
            &a.experiments,
            serve::Mode::Write,
            a.seed,
            serve_seconds,
            size,
            report,
            tracer,
        ),
    }
}

/// The traced run: the workload's own layers at its size, then smoke-size
/// replays of the layer groups it does not exercise, so every per-layer
/// metric is defined on every workload.
fn traced(a: &Args, report: &mut Report) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let (overhead, coverage) = traced_replay(a, a.workload, a.size, report, &mut tracer)?;
    for (layer, secs) in &tracer.layer_self_times() {
        report.note(format!(
            "{} layer {layer}: self time {secs:.6} s",
            a.workload.name()
        ));
    }
    report.note(format!(
        "{}: layer self times cover {:.3} of the untraced end-to-end time; tracing overhead {:.4}",
        a.workload.name(),
        coverage,
        overhead
    ));
    let out = PathBuf::from(".bench_out").join(format!(
        "trace-{}-seed{}.jsonl",
        a.workload.name(),
        a.seed
    ));
    tracer
        .write_out(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    report.note(format!("spans written to {}", out.display()));
    report.set("trace.overhead_frac", overhead, "ratio", 1);
    report.set("trace.coverage_frac", coverage, "ratio", 1);

    let own = group_of(a.workload);
    let fillers = [
        (Group::Grid, Workload::Grid),
        (Group::Serve, Workload::ServeWrite),
        (Group::Closure, Workload::Closure),
    ];
    for (group, w) in fillers {
        if group == own {
            continue;
        }
        let mut filler = Report::default();
        let mut t = Tracer::new();
        traced_replay(a, w, Size::Smoke, &mut filler, &mut t)?;
        report.note(format!(
            "{} layers: from a smoke-size {} replay ({} checked, {} failed)",
            match group {
                Group::Grid => "grid",
                Group::Serve => "service",
                Group::Closure => "closure",
            },
            w.name(),
            filler.attempted,
            filler.failed
        ));
        report.tally(filler.attempted, filler.failed);
        report.notes.extend(filler.notes);
        for (name, m) in &filler.metrics {
            if !name.starts_with("trace.") {
                report.set_default(name, m);
            }
        }
    }
    // serve-read's own stream has no rows or moves; its replay probes
    // them on the same instance (see `serve::probe_rows_and_moves`).
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "reference") {
        let seeds: Result<Vec<u64>, _> = args
            .get(2)
            .filter(|_| args.get(1).is_some_and(|f| f == "--seeds"))
            .map(|s| s.split(',').map(str::parse).collect())
            .unwrap_or_else(|| Ok(Vec::new()));
        match seeds {
            Ok(seeds) if !seeds.is_empty() => {
                if let Err(e) = grid::write_reference(&seeds) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            _ => {
                eprintln!("usage: perfbench reference --seeds 0,1,2");
                std::process::exit(2);
            }
        }
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = if a.trace {
        traced(&a, &mut report)
    } else {
        untraced(&a, &mut report)
    };
    let names: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let line = outcome.and_then(|()| stats::result_line(&report, names));
    println!(
        "# workload {} seed {} seconds {} trace {} size {:?}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.size
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in names {
        if let Some(m) = report.metrics.get(*name) {
            println!("metric {name} = {} {unit} (samples {})", m.value, m.samples);
        }
    }
    println!(
        "operations attempted {} failed {}",
        report.attempted, report.failed
    );
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
