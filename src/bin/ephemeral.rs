//! `ephemeral` — command-line front end to the library.
//!
//! ```text
//! ephemeral sample   --graph clique:32 --lifetime 32 --seed 7 [--directed] [--dot]
//! ephemeral diameter --graph clique:256 --trials 30 --seed 7 [--lifetime 512]
//! ephemeral flood    --n 1024 --seed 3 [--oracle]
//! ephemeral reach    --graph grid:8x8 --r 16 --trials 100 --seed 5
//! ephemeral por      --graph star:64 --trials 60 --seed 5
//! ephemeral metrics  --graph gnp:100:0.08 --r 4 --seed 9
//! ```
//!
//! Graph specs: `clique:N`, `star:N`, `path:N`, `cycle:N`, `wheel:N`,
//! `grid:RxC`, `torus:RxC`, `hypercube:D`, `tree:N` (random),
//! `gnp:N:P` (Erdős–Rényi).

use ephemeral_networks::core::diameter::td_montecarlo_adaptive;
use ephemeral_networks::core::dissemination::{flood, flood_oracle_clique};
use ephemeral_networks::core::por::por_report;
use ephemeral_networks::core::reachability_whp::treach_probability_adaptive;
use ephemeral_networks::core::urtn::{sample_multi_urtn, sample_urtn};
use ephemeral_networks::graph::{dot, generators, Graph};
use ephemeral_networks::parallel::adaptive::AdaptiveConfig;
use ephemeral_networks::parallel::available_threads;
use ephemeral_networks::rng::default_rng;
use ephemeral_networks::temporal::metrics::temporal_metrics;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs and bare `--switch`es.
struct Args {
    items: Vec<String>,
}

impl Args {
    fn new(items: Vec<String>) -> Self {
        Self { items }
    }

    fn flag(&self, name: &str) -> bool {
        self.items.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.items
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.items.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    /// [`Args::parse`] for a count that must be at least 1.
    fn positive<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + From<u8> + std::fmt::Display,
    {
        let v = self.parse(name, default)?;
        if v < T::from(1) {
            return Err(format!("{name} must be at least 1, got {v}"));
        }
        Ok(v)
    }
}

/// Parse a graph spec like `grid:8x8` (see module docs for the grammar).
fn parse_graph(spec: &str, directed: bool, seed: u64) -> Result<Graph, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let int = |s: &str| -> Result<usize, String> {
        s.parse()
            .map_err(|_| format!("bad size in graph spec: {spec}"))
    };
    // The generators' preconditions, so that a bad size is an error
    // rather than a panic.
    let at_least = |s: &str, min: usize| -> Result<usize, String> {
        let v = int(s)?;
        if v < min {
            return Err(format!("{kind} needs a size of at least {min}, got {v}"));
        }
        Ok(v)
    };
    match kind {
        "clique" => Ok(generators::clique(int(rest)?, directed)),
        "star" => Ok(generators::star(at_least(rest, 1)?)),
        "path" => Ok(generators::path(int(rest)?)),
        "cycle" => Ok(generators::cycle(at_least(rest, 3)?)),
        "wheel" => Ok(generators::wheel(at_least(rest, 4)?)),
        "hypercube" => {
            let dim = int(rest)?;
            if dim >= 31 {
                return Err(format!("hypercube dimension must be below 31, got {dim}"));
            }
            Ok(generators::hypercube(dim as u32))
        }
        "tree" => {
            let mut rng = default_rng(seed ^ 0x7ee);
            Ok(generators::random_tree(at_least(rest, 1)?, &mut rng))
        }
        "grid" | "torus" => {
            let (r, c) = rest
                .split_once('x')
                .ok_or_else(|| format!("{kind} needs RxC, got {rest}"))?;
            if kind == "grid" {
                Ok(generators::grid(int(r)?, int(c)?))
            } else {
                Ok(generators::torus(at_least(r, 3)?, at_least(c, 3)?))
            }
        }
        "gnp" => {
            let (n, p_text) = rest
                .split_once(':')
                .ok_or_else(|| format!("gnp needs N:P, got {rest}"))?;
            let p: f64 = p_text.parse().map_err(|_| format!("bad p: {p_text}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("gnp needs p in [0, 1], got {p_text}"));
            }
            let mut rng = default_rng(seed ^ 0x6e9);
            Ok(generators::gnp(int(n)?, p, directed, &mut rng))
        }
        other => Err(format!("unknown graph kind: {other}")),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ephemeral <sample|diameter|flood|reach|por|metrics> [flags]\n\
         see the binary's module docs (or README.md) for flags and graph specs"
    );
    ExitCode::FAILURE
}

fn run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err("missing subcommand".into());
    }
    let cmd = argv.remove(0);
    let args = Args::new(argv);
    let seed: u64 = args.parse("--seed", 2014)?;
    let threads = available_threads();

    match cmd.as_str() {
        "sample" => {
            let directed = args.flag("--directed");
            let spec = args.value("--graph").unwrap_or("clique:16");
            let g = parse_graph(spec, directed, seed)?;
            let lifetime: u32 = args.positive("--lifetime", g.num_nodes().max(1) as u32)?;
            let mut rng = default_rng(seed);
            let tn = sample_urtn(g, lifetime, &mut rng);
            if args.flag("--dot") {
                let labels = tn.assignment().clone();
                print!(
                    "{}",
                    dot::to_dot_with_labels(tn.graph(), "urtn", |e| {
                        Some(
                            labels
                                .labels(e)
                                .iter()
                                .map(ToString::to_string)
                                .collect::<Vec<_>>()
                                .join(","),
                        )
                    })
                );
            } else {
                println!(
                    "U-RTN over {spec}: n = {}, m = {}, lifetime = {}, time-edges = {}",
                    tn.num_nodes(),
                    tn.graph().num_edges(),
                    tn.lifetime(),
                    tn.num_time_edges()
                );
            }
        }
        "diameter" => {
            let spec = args.value("--graph").unwrap_or("clique:128");
            let g = parse_graph(spec, true, seed)?;
            let lifetime: u32 = args.positive("--lifetime", g.num_nodes().max(1) as u32)?;
            let trials: usize = args.positive("--trials", 20)?;
            let fixed = AdaptiveConfig::fixed(trials);
            let est = td_montecarlo_adaptive(&g, lifetime, &fixed, seed, threads);
            let finite = est.finite;
            // With no finite instance the extremes read 0, not ±∞.
            let (min, max) = if finite.count() == 0 {
                (0.0, 0.0)
            } else {
                (finite.min(), finite.max())
            };
            println!(
                "TD({spec}, a={lifetime}) over {trials} trials: mean {:.2} (sd {:.2}, min {min} max {max}), \
                 TD/ln n = {:.3}, infinite instances: {}",
                finite.mean(),
                finite.sd(),
                est.gamma_ln,
                est.infinite_instances
            );
        }
        "flood" => {
            let n: usize = args.positive("--n", 1024)?;
            if args.flag("--oracle") {
                let mut rng = default_rng(seed);
                let out = flood_oracle_clique(n as u64, n as u32, &mut rng);
                println!(
                    "oracle flood on K_{n}: broadcast at {:?} (ln n = {:.1}), E[messages] ≈ {:.3e}",
                    out.broadcast_time,
                    (n as f64).ln(),
                    out.expected_messages
                );
            } else {
                let mut rng = default_rng(seed);
                let tn =
                    ephemeral_networks::core::urtn::sample_normalized_urt_clique(n, true, &mut rng);
                let out = flood(&tn, 0);
                println!(
                    "flood on K_{n}: broadcast at {:?} (ln n = {:.1}), {} messages of {} arcs",
                    out.broadcast_time,
                    (n as f64).ln(),
                    out.messages,
                    n * (n - 1)
                );
            }
        }
        "reach" => {
            let spec = args.value("--graph").unwrap_or("grid:8x8");
            let g = parse_graph(spec, false, seed)?;
            let r: usize = args.positive("--r", 8)?;
            let trials: usize = args.positive("--trials", 100)?;
            let lifetime = g.num_nodes().max(2) as u32;
            let fixed = AdaptiveConfig::fixed(trials);
            let p = treach_probability_adaptive(&g, lifetime, r, &fixed, seed, threads).proportion;
            println!("P[T_reach]({spec}, r={r}) = {p}");
        }
        "por" => {
            let spec = args.value("--graph").unwrap_or("star:64");
            let g = parse_graph(spec, false, seed)?;
            let trials: usize = args.positive("--trials", 60)?;
            match por_report(&g, spec, trials, seed, threads) {
                Some(rep) => println!(
                    "{spec}: n={} m={} d={} r*={} OPT≤{} ({}) PoR∈[{:.1},{:.1}] Thm8={:.1}",
                    rep.n,
                    rep.m,
                    rep.diameter,
                    rep.r,
                    rep.opt_upper,
                    rep.opt_scheme,
                    rep.por_lower,
                    rep.por_upper,
                    rep.theorem8
                ),
                None => return Err(format!("{spec} is disconnected; PoR undefined")),
            }
        }
        "metrics" => {
            let spec = args.value("--graph").unwrap_or("gnp:100:0.08");
            let g = parse_graph(spec, false, seed)?;
            let r: usize = args.parse("--r", 4)?;
            let lifetime = g.num_nodes().max(2) as u32;
            let mut rng = default_rng(seed);
            let tn = sample_multi_urtn(g, lifetime, r, &mut rng);
            let m = temporal_metrics(&tn, threads);
            println!(
                "{spec} with r={r}: reach {:.3}, avg δ = {:.2}, max δ = {}, efficiency {:.4}",
                m.reachability_ratio,
                m.avg_temporal_distance,
                m.max_temporal_distance,
                m.temporal_efficiency
            );
        }
        _ => return Err(format!("unknown subcommand: {cmd}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_parse() {
        assert_eq!(parse_graph("clique:8", false, 0).unwrap().num_edges(), 28);
        assert_eq!(parse_graph("star:5", false, 0).unwrap().num_edges(), 4);
        assert_eq!(parse_graph("grid:3x4", false, 0).unwrap().num_nodes(), 12);
        assert_eq!(parse_graph("torus:3x3", false, 0).unwrap().num_edges(), 18);
        assert_eq!(
            parse_graph("hypercube:3", false, 0).unwrap().num_edges(),
            12
        );
        assert_eq!(parse_graph("tree:9", false, 1).unwrap().num_edges(), 8);
        let g = parse_graph("gnp:50:0.2", false, 1).unwrap();
        assert_eq!(g.num_nodes(), 50);
    }

    #[test]
    fn bad_specs_error() {
        assert!(parse_graph("blob:4", false, 0).is_err());
        assert!(parse_graph("grid:3", false, 0).is_err());
        assert!(parse_graph("gnp:50", false, 0).is_err());
        assert!(parse_graph("clique:x", false, 0).is_err());
    }

    #[test]
    fn args_parse_flags_and_values() {
        let a = Args::new(vec![
            "--seed".into(),
            "9".into(),
            "--directed".into(),
            "--graph".into(),
            "star:4".into(),
        ]);
        assert!(a.flag("--directed"));
        assert!(!a.flag("--oracle"));
        assert_eq!(a.value("--graph"), Some("star:4"));
        assert_eq!(a.parse("--seed", 0u64).unwrap(), 9);
        assert_eq!(a.parse("--trials", 5usize).unwrap(), 5);
        assert!(a.parse::<u64>("--graph", 0).is_err());
    }
}
