//! Worked instances from the paper and its reference lineage, as
//! executable specifications.

use ephemeral_graph::generators;
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::metrics::temporal_metrics;
use ephemeral_temporal::reachability::treach_holds;
use ephemeral_temporal::reverse::latest_departure;
use ephemeral_temporal::{LabelAssignment, TemporalNetwork};

/// Paper §4.2, Figure 2: the 2-split journey through a star's centre.
/// `e1 = {u1, c}` has a label in `(0, n/2)` and `e2 = {c, u2}` one in
/// `(n/2, n)` — that is exactly what makes `u1 → u2` (and only that
/// direction with these two labels) feasible.
#[test]
fn figure2_two_split_journey() {
    let n = 10u32;
    // Star on 3 vertices: centre 0, leaves 1 and 2; e1 = {1,0} @ 3, e2 = {0,2} @ 8.
    let g = generators::star(3);
    let labels = LabelAssignment::from_vecs(vec![vec![3], vec![8]]).unwrap();
    let tn = TemporalNetwork::new(g, labels, n).unwrap();

    let run = foremost(&tn, 1, 0);
    assert_eq!(
        run.arrival(2),
        Some(8),
        "u1 → u2 arrives with the second window"
    );
    let j = run.journey_to(2).unwrap();
    assert_eq!(j.vertices(), vec![1, 0, 2]);
    assert_eq!(j.departure(), 3);
    assert_eq!(j.arrival(), 8);

    // The reverse direction u2 → u1 would need 8 < 3: impossible.
    assert!(!foremost(&tn, 2, 0).reached(1));
    // Hence this single-label star violates T_reach…
    assert!(!treach_holds(&tn, 1));
    // …which is the (b)-side intuition of Theorem 6: single labels cannot
    // serve both directions of a leaf pair.
}

/// Paper §1/§3: in the clique, the direct edge is always a (one-hop)
/// journey, so one label per edge preserves reachability — and the paper
/// notes K_n is the *only* such graph. We check the clique side and a
/// near-miss (clique minus one edge fails for some labelling).
#[test]
fn clique_is_the_only_single_label_safe_graph() {
    let n = 6;
    let g = generators::clique(n, false);
    let m = g.num_edges();
    // Worst-case-ish labelling: all labels equal — only direct hops work,
    // but in a clique that is enough.
    let labels = LabelAssignment::single(vec![1; m]).unwrap();
    let tn = TemporalNetwork::new(g, labels, 1).unwrap();
    assert!(treach_holds(&tn, 1));

    // Remove edge {0,1} and give every remaining edge the same label: now
    // 0 and 1 cannot reach each other (any 2-hop route needs increasing
    // labels).
    let mut b = ephemeral_graph::GraphBuilder::new_undirected(n);
    for (_, u, v) in generators::clique(n, false).edges() {
        if !(u == 0 && v == 1) {
            b.add_edge(u, v);
        }
    }
    let g2 = b.build().unwrap();
    let labels = LabelAssignment::single(vec![1; g2.num_edges()]).unwrap();
    let tn2 = TemporalNetwork::new(g2, labels, 1).unwrap();
    assert!(!treach_holds(&tn2, 1));
}

/// Bui-Xuan–Ferreira–Jarry: journey optima diverge. On one instance the
/// foremost journey and the latest-departure journey take different
/// routes.
#[test]
fn three_journey_notions_diverge() {
    // 0—1—2 path with an extra direct edge 0—2.
    //   direct 0—2 @ {9}        : 1 hop, departure and arrival 9
    //   0—1 @ {1,6}, 1—2 @ {2,7}: arrival 2 (foremost, depart 1)
    //                             or depart 6 arrive 7
    let mut b = ephemeral_graph::GraphBuilder::new_undirected(3);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 2);
    let g = b.build().unwrap();
    let labels = LabelAssignment::from_vecs(vec![vec![1, 6], vec![2, 7], vec![9]]).unwrap();
    let tn = TemporalNetwork::new(g, labels, 9).unwrap();

    // Foremost: arrival 2 via the two-hop route.
    let run = foremost(&tn, 0, 0);
    assert_eq!(run.arrival(2), Some(2));
    assert_eq!(run.journey_to(2).unwrap().hops(), 2);

    // Latest departure towards 2 by deadline 9: the direct edge.
    let rev = latest_departure(&tn, 2, 9);
    assert_eq!(rev.departure(0), Some(9));
}

/// The paper's ephemerality: *nothing* is available after the lifetime, so
/// raising the deadline beyond it changes nothing.
#[test]
fn ephemerality_is_absolute() {
    let g = generators::path(3);
    let labels = LabelAssignment::from_vecs(vec![vec![2], vec![3]]).unwrap();
    let tn = TemporalNetwork::new(g, labels, 10).unwrap();
    let at_lifetime = latest_departure(&tn, 2, 10);
    let beyond = latest_departure(&tn, 2, u32::MAX - 2);
    for v in 0..3u32 {
        assert_eq!(at_lifetime.departure(v), beyond.departure(v));
    }
    let m = temporal_metrics(&tn, 1);
    assert_eq!(
        m.max_temporal_distance, 3,
        "no journey can end after max label"
    );
}
