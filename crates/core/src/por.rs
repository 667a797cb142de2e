//! The Price of Randomness (Definition 8, Theorems 6 & 8).
//!
//! `PoR(G) = m·r(n) / OPT`: how many *random* labels the network must buy
//! per edge (times the number of edges) relative to the cheapest
//! *coordinated* deterministic assignment. The paper proves
//! `PoR = Θ(log n)` for the star and
//! `PoR(G) ≤ (2·d(G)·log n + ε)·m/(n−1)` in general (Theorem 8).

use crate::opt::{best_scheme, opt_lower_bound};
use crate::reachability_whp::{minimal_r_search, probe, whp_target, ProbePool};
use ephemeral_graph::algo::diameter;
use ephemeral_graph::Graph;
use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_parallel::Proportion;
use ephemeral_temporal::Time;

/// Theorem 7's sufficient label count: `2·d(G)·ln n`.
#[must_use]
pub fn theorem7_r(n: usize, d: u32) -> f64 {
    2.0 * f64::from(d) * (n.max(2) as f64).ln()
}

/// Theorem 8's PoR upper bound: `(2·d·ln n)·m/(n−1)`.
#[must_use]
pub fn theorem8_bound(n: usize, m: usize, d: u32) -> f64 {
    theorem7_r(n, d) * m as f64 / (n.max(2) as f64 - 1.0)
}

/// An empirical Price-of-Randomness measurement for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PorReport {
    /// Family/instance name (for tables).
    pub name: String,
    /// Vertices.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// Hop diameter `d(G)`.
    pub diameter: u32,
    /// Empirically minimal `r` meeting the w.h.p. target.
    pub r: usize,
    /// The measured probability at that `r`.
    pub r_probability: Proportion,
    /// The w.h.p. target used (`1 − 1/n`).
    pub target: f64,
    /// Best deterministic scheme's total labels (an upper bound on `OPT`).
    pub opt_upper: usize,
    /// Name of that scheme.
    pub opt_scheme: &'static str,
    /// Universal lower bound `n − 1` on `OPT`.
    pub opt_lower: usize,
    /// `m·r / opt_upper` — a *lower* bound on the true `PoR` (dividing by
    /// an over-estimate of `OPT`).
    pub por_lower: f64,
    /// `m·r / opt_lower` — an *upper* bound on the true `PoR`.
    pub por_upper: f64,
    /// Theorem 8's closed-form bound.
    pub theorem8: f64,
}

/// Measure the PoR bracket of a connected graph. The minimal `r` comes
/// from the doubling-then-bisect search, every probe a fixed count of
/// `trials` at seed `seed ^ (r << 32)`.
///
/// Returns `None` for disconnected graphs (diameter undefined).
///
/// # Panics
/// If `trials == 0`.
#[must_use]
pub fn por_report(
    graph: &Graph,
    name: &str,
    trials: usize,
    seed: u64,
    threads: usize,
) -> Option<PorReport> {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let d = diameter(graph)?;
    let lifetime = n.max(2) as Time;
    let target = whp_target(n);
    let (fixed, pool) = (AdaptiveConfig::fixed(trials), ProbePool::new());
    let probe = probe(graph, lifetime, threads, &pool);
    let min_r = minimal_r_search(target, |r| {
        probe(r, &fixed, seed ^ ((r as u64) << 32)).proportion
    });
    let scheme = best_scheme(graph)?;
    let opt_lower = opt_lower_bound(graph).max(1);
    let opt_upper = scheme.total_labels.max(1);
    let mr = m as f64 * min_r.r as f64;
    Some(PorReport {
        name: name.to_owned(),
        n,
        m,
        diameter: d,
        r: min_r.r,
        r_probability: min_r.probability,
        target,
        opt_upper,
        opt_scheme: scheme.name,
        opt_lower,
        por_lower: mr / opt_upper as f64,
        por_upper: mr / opt_lower as f64,
        theorem8: theorem8_bound(n, m, d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_graph::generators;

    #[test]
    fn theorem_bounds_scale_as_stated() {
        // Doubling the diameter doubles both bounds.
        let a = theorem7_r(100, 2);
        let b = theorem7_r(100, 4);
        assert!((b / a - 2.0).abs() < 1e-12);
        let t8 = theorem8_bound(100, 99, 2);
        assert!((t8 - a * 99.0 / 99.0).abs() < 1e-9);
    }

    #[test]
    fn star_por_bracket_contains_theta_log_n() {
        let n = 64;
        let g = generators::star(n);
        let rep = por_report(&g, "star", 150, 1, 2).unwrap();
        assert_eq!(rep.diameter, 2);
        assert_eq!(rep.m, n - 1);
        // OPT for the star is exactly 2m; our best scheme achieves it.
        assert_eq!(rep.opt_upper, 2 * (n - 1));
        // PoR = m·r/(2m) = r/2 ∈ Θ(log n): sanity band.
        let log2n = (n as f64).log2();
        assert!(rep.por_lower >= 0.5, "por {}", rep.por_lower);
        assert!(rep.por_lower <= 4.0 * log2n, "por {}", rep.por_lower);
        // The bracket is consistent and below Theorem 8's bound.
        assert!(rep.por_lower <= rep.por_upper + 1e-9);
        assert!(rep.por_lower <= rep.theorem8 * 1.01, "t8 {}", rep.theorem8);
    }

    #[test]
    fn clique_por_is_tiny() {
        let g = generators::clique(12, false);
        let rep = por_report(&g, "clique", 60, 2, 2).unwrap();
        assert_eq!(rep.r, 1, "cliques need one label");
        assert_eq!(rep.opt_scheme, "star");
        // PoR bracket: m/(2(n−1)) … m/(n−1).
        assert!((rep.por_lower - rep.m as f64 / (2.0 * 11.0)).abs() < 1e-9);
    }

    #[test]
    fn disconnected_graph_yields_none() {
        let mut b = ephemeral_graph::GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert!(por_report(&g, "broken", 10, 3, 1).is_none());
    }

    #[test]
    fn report_carries_consistent_metadata() {
        let g = generators::cycle(16);
        let rep = por_report(&g, "cycle", 60, 4, 2).unwrap();
        assert_eq!(rep.name, "cycle");
        assert_eq!(rep.n, 16);
        assert_eq!(rep.m, 16);
        assert_eq!(rep.diameter, 8);
        assert!(rep.r_probability.estimate >= rep.target || rep.r == 4096);
        assert!(rep.opt_lower <= rep.opt_upper);
    }
}
