//! Domain scenario: duty-cycled sensor networks.
//!
//! A sensor field wakes its radio links only at agreed random slots to save
//! energy (the paper's "availability comes at a cost"). Nodes know only `n`
//! and the diameter `d` — no topology, no global coordination — so each
//! pair of neighbours buys `r` random slots for its link (§4). How many
//! slots per link until *every* pair of sensors can relay data w.h.p., and
//! what is the Price of Randomness against a centrally planned schedule?
//!
//! Run with: `cargo run --release --example sensor_deployment`

use ephemeral_networks::core::opt;
use ephemeral_networks::core::por::{por_report, theorem7_r};
use ephemeral_networks::core::reachability_whp::{treach_probability_adaptive, whp_target};
use ephemeral_networks::graph::algo::diameter;
use ephemeral_networks::graph::generators;
use ephemeral_networks::parallel::adaptive::AdaptiveConfig;

fn main() {
    // A 12×12 sensor grid: 144 motes, diameter 22.
    let g = generators::grid(12, 12);
    let n = g.num_nodes();
    let d = diameter(&g).expect("grid is connected");
    println!(
        "sensor grid: n = {n}, links = {}, diameter = {d}",
        g.num_edges()
    );
    println!("w.h.p. target: P[all-pairs relay] ≥ {:.4}", whp_target(n));

    // Sweep the per-link slot budget.
    println!("\n r (slots/link) | P[T_reach] (95% Wilson)");
    for r in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let p = treach_probability_adaptive(&g, n as u32, r, &AdaptiveConfig::fixed(60), 99, 4);
        let p = p.proportion;
        println!("{r:>15} | {p}");
    }
    println!(
        "(Theorem 7 sufficient budget: 2·d·ln n = {:.0} slots/link)",
        theorem7_r(n, d)
    );

    // Centrally planned alternative: the best deterministic schedule we can
    // certify, and the resulting Price of Randomness bracket.
    let scheme = opt::best_scheme(&g).expect("grid is connected");
    println!(
        "\ncentral planner: '{}' schedule with {} total slots (lower bound {})",
        scheme.name,
        scheme.total_labels,
        opt::opt_lower_bound(&g)
    );

    let report = por_report(&g, "12x12 grid", 40, 7, 4).expect("grid is connected");
    println!(
        "minimal measured r* = {} (P = {})",
        report.r, report.r_probability
    );
    println!(
        "Price of Randomness bracket: [{:.1}, {:.1}] (Theorem 8 bound {:.1})",
        report.por_lower, report.por_upper, report.theorem8
    );
}
