//! Edge-case and failure-injection tests for the paper-level machinery:
//! tiny networks, extreme lifetimes, adversarial labellings.

use ephemeral_core::dissemination::flood;
use ephemeral_core::expansion::{expansion_process, ExpansionParams};
use ephemeral_core::models::{LabelModel, UniformSingle};
use ephemeral_core::reachability_whp::treach_probability_adaptive;
use ephemeral_core::star::{star_treach, EdgeExtremes};
use ephemeral_core::urtn::{sample_urt_clique_with_lifetime, sample_urtn};
use ephemeral_graph::generators;
use ephemeral_parallel::adaptive::AdaptiveConfig;
use ephemeral_rng::default_rng;
use ephemeral_temporal::reachability::treach_holds;
use ephemeral_temporal::{LabelAssignment, TemporalNetwork};

#[test]
fn two_vertex_clique_works_at_every_lifetime() {
    for lifetime in [1u32, 2, 7, 1000] {
        let mut rng = default_rng(u64::from(lifetime));
        let tn = sample_urt_clique_with_lifetime(2, true, lifetime, &mut rng);
        assert!(treach_holds(&tn, 1), "lifetime {lifetime}");
        let out = flood(&tn, 0);
        assert_eq!(out.informed_count, 2);
    }
}

#[test]
fn lifetime_one_collapses_to_a_static_snapshot() {
    // With a = 1 every labelled edge exists only at time 1, so journeys are
    // single hops: temporal reach = closed neighbourhood.
    let mut rng = default_rng(5);
    let g = generators::cycle(8);
    let tn = sample_urtn(g, 1, &mut rng);
    let out = flood(&tn, 0);
    // 0's neighbours are 1 and 7 — exactly they get informed.
    assert_eq!(out.informed_count, 3);
    assert_eq!(out.broadcast_time, None);
}

#[test]
fn adversarial_equal_labels_destroy_sparse_reachability() {
    // All labels equal: multi-hop journeys impossible. The cycle then never
    // satisfies T_reach, no matter how many (identical) labels per edge.
    let g = generators::cycle(6);
    let labels = LabelAssignment::from_vecs(vec![vec![3]; 6]).unwrap();
    let tn = TemporalNetwork::new(g, labels, 6).unwrap();
    assert!(!treach_holds(&tn, 1));
}

#[test]
fn adversarial_decreasing_ring_blocks_full_rotation() {
    // Strictly decreasing labels around a cycle allow clockwise journeys
    // only across the wrap point; reachability is heavily asymmetric.
    let n = 8u32;
    let g = generators::cycle(n as usize);
    // Edge i = {i, i+1} gets label n − i.
    let labels = LabelAssignment::single((0..n).map(|i| n - i).collect()).unwrap();
    let tn = TemporalNetwork::new(g, labels, n).unwrap();
    assert!(!treach_holds(&tn, 1));
    // …yet the static cycle is connected: only the *temporal* layer fails.
    assert!(ephemeral_graph::algo::is_connected(tn.graph()));
}

#[test]
fn expansion_on_minimum_viable_clique() {
    // The smallest clique where practical windows fit at lifetime = n.
    let mut n = 8;
    loop {
        let params = ExpansionParams::practical(n);
        if params.fits(n, n as u32) {
            break;
        }
        n *= 2;
    }
    let mut rng = default_rng(1);
    let tn = sample_urt_clique_with_lifetime(n, true, n as u32, &mut rng);
    // Must run without panicking; success is not guaranteed at tiny n.
    let out = expansion_process(&tn, 0, 1, &ExpansionParams::practical(n));
    assert_eq!(
        out.forward_levels.len(),
        ExpansionParams::practical(n).d + 1
    );
}

#[test]
fn uniform_single_model_is_memoryless_across_edges() {
    // Labels of different edges are independent: the joint distribution of
    // (edge0, edge1) labels over many draws should cover the full grid.
    let model = UniformSingle { lifetime: 4 };
    let mut seen = [[false; 4]; 4];
    let mut rng = default_rng(8);
    for _ in 0..600 {
        let a = model.assign(2, &mut rng);
        seen[(a.labels(0)[0] - 1) as usize][(a.labels(1)[0] - 1) as usize] = true;
    }
    assert!(
        seen.iter().flatten().all(|&s| s),
        "all 16 label combinations should appear"
    );
}

#[test]
fn star_check_extremes_of_extremes() {
    // Identical (min == max) singletons on every edge: any two equal
    // singletons fail immediately (min_u >= max_v).
    let ex = vec![EdgeExtremes { min: 4, max: 4 }; 3];
    assert!(!star_treach(&ex));
    // Strictly nested intervals all sharing no overlap point: u = {5},
    // v = {1..9} works both ways; w = {4,6} also compatible.
    let ex = vec![
        EdgeExtremes { min: 5, max: 5 },
        EdgeExtremes { min: 1, max: 9 },
        EdgeExtremes { min: 4, max: 6 },
    ];
    assert!(star_treach(&ex));
}

#[test]
fn treach_probability_on_trivial_graphs_is_one() {
    // A single edge: one label suffices in both directions (undirected).
    let g = generators::path(2);
    let p = treach_probability_adaptive(&g, 4, 1, &AdaptiveConfig::fixed(30), 3, 1);
    assert_eq!(p.proportion.estimate, 1.0);
}

#[test]
fn huge_lifetime_small_clique_still_connects() {
    // a = 10⁶ on K_8: labels are spread absurdly thin; the direct edge
    // still guarantees T_reach, and flooding still completes (slowly).
    let mut rng = default_rng(9);
    let tn = sample_urt_clique_with_lifetime(8, true, 1_000_000, &mut rng);
    assert!(treach_holds(&tn, 1));
    let out = flood(&tn, 0);
    assert_eq!(out.informed_count, 8);
    assert!(out.broadcast_time.unwrap() <= 1_000_000);
}
