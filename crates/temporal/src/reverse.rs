//! Latest-departure journeys: the time-reversed dual of
//! [`crate::foremost`].
//!
//! `latest_departure(tn, target, deadline)` computes, for every vertex `u`,
//! the **largest label** a journey from `u` to `target` can start with while
//! still arriving by `deadline`. This is the "reverse expansion process out
//! of `t`" of the paper's §3.3 in algorithmic form: the sweep walks labels
//! in *decreasing* order and relaxes arcs backwards.

use crate::network::TemporalNetwork;
use crate::Time;
use ephemeral_graph::NodeId;

/// Result of a latest-departure sweep towards a target.
#[derive(Debug, Clone)]
pub struct ReverseRun {
    target: NodeId,
    deadline: Time,
    /// `0` means "no journey from here by the deadline"; the target itself
    /// holds `deadline + 1` (saturating), meaning "already there".
    latest: Vec<Time>,
}

impl ReverseRun {
    /// The target vertex.
    #[must_use]
    pub const fn target(&self) -> NodeId {
        self.target
    }

    /// The deadline used.
    #[must_use]
    pub const fn deadline(&self) -> Time {
        self.deadline
    }

    /// Latest departure label from `u`, or `None` when no journey reaches
    /// the target by the deadline (or `u` is the target itself).
    #[must_use]
    pub fn departure(&self, u: NodeId) -> Option<Time> {
        if u == self.target {
            return None;
        }
        let t = self.latest[u as usize];
        (t != 0).then_some(t)
    }

    /// Can `u` reach the target by the deadline? (The target can, trivially.)
    #[must_use]
    pub fn reaches(&self, u: NodeId) -> bool {
        u == self.target || self.latest[u as usize] != 0
    }
}

/// Latest-departure sweep towards `target` with arrival deadline `deadline`
/// (labels above the deadline are unusable on the final edge, and the whole
/// journey must be strictly increasing as usual).
///
/// ```
/// use ephemeral_graph::generators;
/// use ephemeral_temporal::{reverse::latest_departure, LabelAssignment, TemporalNetwork};
///
/// // 0—1 @{2,4}, 1—2 @5: one can wait at 0 until time 4 and still make it.
/// let tn = TemporalNetwork::new(
///     generators::path(3),
///     LabelAssignment::from_vecs(vec![vec![2, 4], vec![5]]).unwrap(),
///     5,
/// ).unwrap();
/// let run = latest_departure(&tn, 2, 5);
/// assert_eq!(run.departure(0), Some(4));
/// ```
///
/// # Panics
/// If `target` is out of range.
#[must_use]
pub fn latest_departure(tn: &TemporalNetwork, target: NodeId, deadline: Time) -> ReverseRun {
    let n = tn.num_nodes();
    assert!((target as usize) < n, "target {target} out of range");
    let directed = tn.graph().is_directed();
    let mut latest = vec![0 as Time; n];
    // The target can "depart" at any time up to deadline+1 exclusive — the
    // sentinel lets the uniform relaxation `latest[head] >= t + 1` encode
    // "the final edge label may be at most the deadline".
    latest[target as usize] = deadline.saturating_add(1);
    let mut t = deadline.min(tn.lifetime());
    while t >= 1 {
        for &e in tn.edges_at(t) {
            let (u, v) = tn.graph().endpoints(e);
            // Arc u -> v used at t: requires continuing from v strictly
            // after t.
            if latest[v as usize] > t && latest[u as usize] < t && u != target {
                latest[u as usize] = t;
            }
            if !directed && latest[u as usize] > t && latest[v as usize] < t && v != target {
                latest[v as usize] = t;
            }
        }
        t -= 1;
    }
    ReverseRun {
        target,
        deadline,
        latest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foremost::foremost;
    use crate::LabelAssignment;
    use ephemeral_graph::generators;
    use ephemeral_graph::GraphBuilder;

    fn path_network(labels: Vec<Vec<Time>>, lifetime: Time) -> TemporalNetwork {
        let g = generators::path(labels.len() + 1);
        TemporalNetwork::new(g, LabelAssignment::from_vecs(labels).unwrap(), lifetime).unwrap()
    }

    #[test]
    fn latest_departure_on_increasing_path() {
        let tn = path_network(vec![vec![1], vec![2], vec![3]], 3);
        let run = latest_departure(&tn, 3, 3);
        assert_eq!(run.departure(0), Some(1));
        assert_eq!(run.departure(1), Some(2));
        assert_eq!(run.departure(2), Some(3));
        assert_eq!(run.departure(3), None); // target itself
        assert!(run.reaches(3));
    }

    #[test]
    fn deadline_cuts_off_late_edges() {
        let tn = path_network(vec![vec![1], vec![2], vec![3]], 3);
        let run = latest_departure(&tn, 3, 2);
        // The last hop needs label 3 > deadline.
        assert!(!run.reaches(0));
        assert!(!run.reaches(1));
        assert!(!run.reaches(2));
    }

    #[test]
    fn multi_label_picks_latest_viable() {
        // 0—1 at {1, 2, 9}, 1—2 at {5}: latest departure from 0 is 2.
        let tn = path_network(vec![vec![1, 2, 9], vec![5]], 9);
        let run = latest_departure(&tn, 2, 9);
        assert_eq!(run.departure(0), Some(2));
        assert_eq!(run.departure(1), Some(5));
    }

    #[test]
    fn directed_reverse_respects_orientation() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let tn = TemporalNetwork::new(g, LabelAssignment::single(vec![1, 2]).unwrap(), 2).unwrap();
        let run = latest_departure(&tn, 2, 2);
        assert_eq!(run.departure(0), Some(1));
        assert_eq!(run.departure(1), Some(2));
        // Target of the reversed question: node 0 has no incoming journey.
        let run0 = latest_departure(&tn, 0, 2);
        assert!(!run0.reaches(1) && !run0.reaches(2));
    }

    #[test]
    fn agrees_with_foremost_on_reachability() {
        // On an undirected network, u reaches t by the lifetime iff the
        // reverse run from t marks u.
        let g = generators::cycle(7);
        let m = g.num_edges();
        let labels: Vec<Time> = (0..m as Time).map(|i| 1 + (i * 3) % 9).collect();
        let tn = TemporalNetwork::new(g, LabelAssignment::single(labels).unwrap(), 9).unwrap();
        let target = 4u32;
        let rev = latest_departure(&tn, target, 9);
        for u in 0..7u32 {
            let fwd = foremost(&tn, u, 0);
            assert_eq!(
                fwd.reached(target),
                rev.reaches(u),
                "u={u}: forward and reverse disagree"
            );
        }
    }

    #[test]
    fn unreachable_vertex_has_no_departure() {
        let tn = path_network(vec![vec![2], vec![1]], 2);
        // 0 -> 2 needs increasing labels 2 then 1: impossible.
        let run = latest_departure(&tn, 2, 2);
        assert_eq!(run.departure(0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let tn = path_network(vec![vec![1]], 1);
        let _ = latest_departure(&tn, 5, 1);
    }
}
