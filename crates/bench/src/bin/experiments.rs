//! Regenerate the paper's experiment tables, or run a scenario sweep.
//!
//! ```text
//! cargo run --release -p ephemeral-bench --bin experiments            # all, full fidelity
//! cargo run --release -p ephemeral-bench --bin experiments -- --quick # smoke pass
//! cargo run --release -p ephemeral-bench --bin experiments -- e02 e06 # selected ids
//! cargo run --release -p ephemeral-bench --bin experiments -- --format json --quick
//!
//! # Scenario sweep: adaptive CI-driven grid over families × label models,
//! # streamed as JSON lines (one row per completed cell, canonical order).
//! cargo run --release -p ephemeral-bench --bin experiments -- sweep --quick
//! cargo run --release -p ephemeral-bench --bin experiments -- sweep --out sweep.jsonl
//! # …killed mid-grid? Resume: completed cells are re-emitted verbatim and
//! # only the missing ones are computed — the final file is byte-identical
//! # to an uninterrupted run.
//! cargo run --release -p ephemeral-bench --bin experiments -- \
//!     sweep --resume sweep.jsonl --out sweep.jsonl
//!
//! # Long-lived reachability service: JSON-lines protocol on stdin→stdout
//! # (or --tcp ADDR), instances resident in a sharded byte-budgeted cache.
//! cargo run --release -p ephemeral-bench --bin experiments -- serve
//! cargo run --release -p ephemeral-bench --bin experiments -- \
//!     serve --shards 4 --budget-mb 512 --deadline-ms 2000
//! ```
//!
//! Default output is the markdown that EXPERIMENTS.md embeds;
//! `--format json` (or `--format=json`) emits JSON lines instead — one
//! object per table row (and one per footnote), tagged with the
//! `experiment` id and `table` title, so perf/accuracy trajectories can be
//! tracked by machine across runs. Sweep mode emits JSON lines only.

use ephemeral_bench::sweep::{run_sweep_with, SweepOptions, SweepSpec};
use ephemeral_bench::{all_experiments, ExpConfig};
use ephemeral_serve::server::{run_stdin, serve_listener, ServeConfig};
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Markdown,
    Json,
}

/// Parsed command line: one pass partitions the args into flags and ids,
/// so a value-taking flag can never be mistaken for an experiment id, and
/// an id that names no experiment is an error rather than an empty run.
struct Cli {
    quick: bool,
    format: Format,
    ids: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        format: Format::Markdown,
        ids: Vec::new(),
    };
    fn format_value(value: &str) -> Result<Format, String> {
        match value {
            "markdown" | "md" => Ok(Format::Markdown),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format '{other}' (markdown | json)")),
        }
    }
    let known: Vec<&str> = all_experiments().iter().map(|exp| exp.id).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--quick" {
            cli.quick = true;
        } else if a == "--format" {
            let value = it.next().ok_or("--format needs a value")?;
            cli.format = format_value(value)?;
        } else if let Some(value) = a.strip_prefix("--format=") {
            cli.format = format_value(value)?;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag '{a}'"));
        } else if known.contains(&a.as_str()) {
            cli.ids.push(a.clone());
        } else {
            return Err(format!(
                "unknown experiment id '{a}' (ids: {})",
                known.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// Parsed `sweep` subcommand line.
struct SweepCli {
    quick: bool,
    seed: Option<u64>,
    threads: Option<usize>,
    resume: Option<String>,
    out: Option<String>,
    /// `--cell-timeout <seconds>`: per-attempt wall-clock watchdog,
    /// cooperative (checked at engine bucket boundaries). 0 disables.
    cell_timeout: Option<f64>,
    /// `--max-attempts <k>`: evaluation attempts per cell before the
    /// quarantined `"status":"failed"` row.
    max_attempts: Option<u32>,
}

fn parse_sweep_args(args: &[String]) -> Result<SweepCli, String> {
    let mut cli = SweepCli {
        quick: false,
        seed: None,
        threads: None,
        resume: None,
        out: None,
        cell_timeout: None,
        max_attempts: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--seed" => {
                cli.seed = Some(
                    value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                );
            }
            "--threads" => {
                cli.threads = Some(
                    value_of("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                );
            }
            "--resume" => cli.resume = Some(value_of("--resume")?),
            "--cell-timeout" => {
                cli.cell_timeout = Some(
                    value_of("--cell-timeout")?
                        .parse()
                        .map_err(|e| format!("bad --cell-timeout: {e}"))?,
                );
            }
            "--max-attempts" => {
                let k: u32 = value_of("--max-attempts")?
                    .parse()
                    .map_err(|e| format!("bad --max-attempts: {e}"))?;
                if k == 0 {
                    return Err("--max-attempts must be at least 1".to_owned());
                }
                cli.max_attempts = Some(k);
            }
            "--out" => cli.out = Some(value_of("--out")?),
            "--format" => {
                let v = value_of("--format")?;
                if v != "json" {
                    return Err(format!("sweep emits JSON lines only, not '{v}'"));
                }
            }
            other if other.strip_prefix("--format=").is_some() => {
                if other != "--format=json" {
                    return Err(format!("sweep emits JSON lines only, not '{other}'"));
                }
            }
            other => return Err(format!("unknown sweep argument '{other}'")),
        }
    }
    Ok(cli)
}

fn run_sweep_mode(args: &[String]) -> Result<(), String> {
    let cli = parse_sweep_args(args)?;
    let seed = cli.seed.unwrap_or(ExpConfig::full().seed);
    let threads = cli
        .threads
        .unwrap_or_else(ephemeral_parallel::available_threads);
    let spec = if cli.quick {
        SweepSpec::quick(seed)
    } else {
        SweepSpec::full(seed)
    };
    let resume: Vec<String> = match &cli.resume {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read --resume {path}: {e}"))?
            .lines()
            .map(str::to_owned)
            .collect(),
        None => Vec::new(),
    };
    let cells = spec.cells().len();
    eprintln!(
        "# sweep: mode={}, seed={seed}, threads={threads}, cells={cells}, resumed={}",
        if cli.quick { "quick" } else { "full" },
        resume.len().min(cells)
    );
    let mut opts = SweepOptions::default();
    if let Some(k) = cli.max_attempts {
        opts.max_attempts = k;
    }
    if let Some(secs) = cli.cell_timeout {
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!("bad --cell-timeout: {secs}"));
        }
        opts.cell_timeout = (secs > 0.0).then(|| std::time::Duration::from_secs_f64(secs));
    }
    let started = Instant::now();
    let mut file = match &cli.out {
        Some(path) => Some(
            std::fs::File::create(path).map_err(|e| format!("cannot create --out {path}: {e}"))?,
        ),
        None => None,
    };
    run_sweep_with(&spec, threads, &resume, opts, |row| {
        println!("{row}");
        if let Some(f) = &mut file {
            writeln!(f, "{row}").expect("write --out row");
        }
    });
    eprintln!("# sweep done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

/// `experiments serve`: the long-lived reachability service. Speaks the
/// JSON-lines protocol on stdin→stdout by default, or on a TCP listener
/// with `--tcp ADDR` (one connection at a time; `--connections K` stops
/// after K, for smoke tests).
fn run_serve_mode(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut tcp: Option<String> = None;
    let mut connections: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--shards" => {
                cfg.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if cfg.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--budget-mb" => {
                let mb: usize = value_of("--budget-mb")?
                    .parse()
                    .map_err(|e| format!("bad --budget-mb: {e}"))?;
                cfg.byte_budget = mb.checked_mul(1 << 20).ok_or_else(|| {
                    format!("bad --budget-mb: {mb} MiB overflows the byte budget")
                })?;
            }
            "--deadline-ms" => {
                let ms: u64 = value_of("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("bad --deadline-ms: {e}"))?;
                cfg.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--tcp" => tcp = Some(value_of("--tcp")?),
            "--connections" => {
                connections = Some(
                    value_of("--connections")?
                        .parse()
                        .map_err(|e| format!("bad --connections: {e}"))?,
                );
            }
            other => return Err(format!("unknown serve argument '{other}'")),
        }
    }
    eprintln!(
        "# serve: shards={}, budget={}MiB, deadline={:?}, front={}",
        cfg.shards,
        cfg.byte_budget >> 20,
        cfg.deadline,
        tcp.as_deref().unwrap_or("stdin")
    );
    if let Some(addr) = tcp {
        let listener =
            std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!(
            "# serve: listening on {}",
            listener.local_addr().map_err(|e| e.to_string())?
        );
        serve_listener(&listener, &cfg, connections).map_err(|e| e.to_string())?;
    } else {
        let summary = run_stdin(&cfg).map_err(|e| e.to_string())?;
        eprintln!(
            "# serve: {} requests, {} queries in {} batches, {} failed, hit rate {:.3}",
            summary.requests,
            summary.stats.queries,
            summary.stats.batches,
            summary.stats.failed,
            summary.stats.hits as f64 / (summary.stats.hits + summary.stats.misses).max(1) as f64
        );
    }
    Ok(())
}

fn main() {
    // Deterministic fault injection for CI and soak runs: a malformed
    // spec panics loudly here, before any work runs. The guard pins the
    // schedule for the whole process.
    let _faults = ephemeral_parallel::faults::install_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "sweep") {
        if let Err(e) = run_sweep_mode(&args[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    if args.first().is_some_and(|a| a == "serve") {
        if let Err(e) = run_serve_mode(&args[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let Cli { quick, format, ids } = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig::full()
    };

    eprintln!(
        "# experiments: mode={}, seed={}, threads={}",
        if quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    );

    let total = Instant::now();
    for exp in all_experiments() {
        if !ids.is_empty() && !ids.iter().any(|id| id.as_str() == exp.id) {
            continue;
        }
        eprintln!("## running {} …", exp.id);
        let started = Instant::now();
        let tables = (exp.run)(&cfg);
        match format {
            Format::Markdown => {
                println!("## {}\n", exp.title);
                for t in &tables {
                    print!("{}", t.render());
                }
            }
            Format::Json => {
                // Tag every line with the experiment so a whole run can be
                // concatenated into one trajectory file.
                for t in &tables {
                    for line in t.render_json_lines().lines() {
                        let tagged = format!(
                            "{{\"experiment\":\"{}\",{}",
                            exp.id,
                            line.strip_prefix('{').expect("rows are JSON objects")
                        );
                        println!("{tagged}");
                    }
                }
            }
        }
        eprintln!(
            "## {} done in {:.1}s",
            exp.id,
            started.elapsed().as_secs_f64()
        );
    }
    eprintln!("# all done in {:.1}s", total.elapsed().as_secs_f64());
}
