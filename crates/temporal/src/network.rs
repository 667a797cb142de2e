//! The temporal network type: graph + label assignment + lifetime, with a
//! label-bucketed time-edge index for `O(M + a)` journey sweeps.

use crate::assignment::LabelAssignment;
use crate::Time;
use ephemeral_graph::{EdgeId, Graph};
use std::fmt;

/// Construction-time validation failures for [`TemporalNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalError {
    /// Assignment covers a different number of edges than the graph has.
    EdgeCountMismatch {
        /// Edges in the graph.
        graph_edges: usize,
        /// Edges in the assignment.
        assignment_edges: usize,
    },
    /// A label exceeds the declared lifetime.
    LabelBeyondLifetime {
        /// The offending edge.
        edge: EdgeId,
        /// The offending label.
        label: Time,
        /// The declared lifetime.
        lifetime: Time,
    },
    /// Lifetime must be at least 1.
    ZeroLifetime,
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EdgeCountMismatch {
                graph_edges,
                assignment_edges,
            } => write!(
                f,
                "label assignment covers {assignment_edges} edges but the graph has {graph_edges}"
            ),
            Self::LabelBeyondLifetime {
                edge,
                label,
                lifetime,
            } => write!(
                f,
                "edge {edge} carries label {label} beyond the lifetime {lifetime}"
            ),
            Self::ZeroLifetime => write!(f, "lifetime must be at least 1"),
        }
    }
}

impl std::error::Error for TemporalError {}

/// A single-label move applied by [`TemporalNetwork::move_label`] — the
/// unit of work the differential cursor
/// ([`crate::delta::DeltaCursor::apply_label_move`]) retracts and replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelMove {
    /// The edge whose label moved.
    pub edge: EdgeId,
    /// The label that was removed.
    pub from: Time,
    /// The label that was added.
    pub to: Time,
}

impl LabelMove {
    /// The later of the two affected times — past it the bucket sequence
    /// is identical to the pre-move network again.
    #[must_use]
    pub fn latest(&self) -> Time {
        self.from.max(self.to)
    }
}

/// An ephemeral temporal network `(G, L)` with lifetime `a` (Definition 1).
///
/// Owns a bucket index mapping each time `t ∈ {1, …, a}` to the edges
/// available at `t`; every journey algorithm in this crate sweeps that index
/// instead of sorting time-edges, giving `O(M + a)` per source.
#[derive(Debug, Clone)]
pub struct TemporalNetwork {
    graph: Graph,
    assignment: LabelAssignment,
    lifetime: Time,
    /// CSR bucket index (length `lifetime + 2`): edges available at time `t`
    /// are `bucket_edges[bucket_offsets[t] .. bucket_offsets[t+1]]`.
    bucket_offsets: Vec<u32>,
    bucket_edges: Vec<u32>,
    /// Sorted times with a non-empty bucket — the skip list sparse sweeps
    /// iterate instead of probing all `a` buckets (at most
    /// `min(a, M)` entries).
    occupied: Vec<Time>,
}

impl TemporalNetwork {
    /// Validate and index a temporal network.
    ///
    /// # Errors
    /// See [`TemporalError`].
    pub fn new(
        graph: Graph,
        assignment: LabelAssignment,
        lifetime: Time,
    ) -> Result<Self, TemporalError> {
        validate(&graph, &assignment, lifetime)?;
        let mut tn = Self {
            graph,
            assignment,
            lifetime,
            bucket_offsets: Vec::new(),
            bucket_edges: Vec::new(),
            occupied: Vec::new(),
        };
        tn.rebuild_buckets();
        Ok(tn)
    }

    /// Replace the label assignment in place — the per-trial path of the
    /// Monte Carlo estimators. Validates the incoming assignment, rebuilds
    /// the bucket index **reusing its existing allocations**, and returns
    /// the previous assignment so its buffers can serve as the next draw's
    /// scratch (see [`LabelAssignment::refill_edge_major`]). On error the
    /// network is unchanged and the incoming assignment is dropped.
    ///
    /// # Errors
    /// See [`TemporalError`] (the lifetime stays as constructed).
    pub fn replace_assignment(
        &mut self,
        assignment: LabelAssignment,
    ) -> Result<LabelAssignment, TemporalError> {
        validate(&self.graph, &assignment, self.lifetime)?;
        let old = std::mem::replace(&mut self.assignment, assignment);
        self.rebuild_buckets();
        Ok(old)
    }

    /// Counting sort of (label, edge) pairs into the bucket index, reusing
    /// the index vectors' capacity (no allocation once warm). Both passes
    /// walk the assignment's CSR arrays directly: the count over the flat
    /// label array, the placement edge by edge over its offset windows.
    /// Also rebuilds the occupied-times skip list: `occupied` can never
    /// exceed `min(lifetime, total_labels)` entries, so one up-front
    /// reserve makes every later rebuild allocation-free.
    fn rebuild_buckets(&mut self) {
        let Self {
            assignment,
            lifetime,
            bucket_offsets,
            bucket_edges,
            occupied,
            ..
        } = self;
        let (offsets, labels) = assignment.csr();
        let total = labels.len();
        bucket_offsets.clear();
        bucket_offsets.resize(*lifetime as usize + 2, 0);
        for &l in labels {
            bucket_offsets[l as usize + 1] += 1;
        }
        for i in 1..bucket_offsets.len() {
            bucket_offsets[i] += bucket_offsets[i - 1];
        }
        bucket_edges.clear();
        bucket_edges.resize(total, 0);
        // Place each edge at its bucket's cursor, advancing the cursor in
        // the offsets array itself; every offset then holds its successor's
        // start, so a shift-right restores the index without a scratch copy.
        for (e, window) in offsets.windows(2).enumerate() {
            for &l in &labels[window[0] as usize..window[1] as usize] {
                let slot = bucket_offsets[l as usize] as usize;
                bucket_edges[slot] = e as u32;
                bucket_offsets[l as usize] += 1;
            }
        }
        let len = bucket_offsets.len();
        bucket_offsets.copy_within(0..len - 1, 1);
        bucket_offsets[0] = 0;
        occupied.clear();
        occupied.reserve(total.min(*lifetime as usize));
        for t in 1..=*lifetime as usize {
            if bucket_offsets[t + 1] > bucket_offsets[t] {
                occupied.push(t as Time);
            }
        }
    }

    /// Move one label of edge `e` from `from` to `to`, repairing the
    /// bucket index and the occupied-times skip list **in place** — the
    /// single-label resampling step of the differential closure cursor
    /// (see [`crate::delta`]). Instead of the `O(M + a)` counting-sort
    /// rebuild of [`TemporalNetwork::replace_assignment`], the edge is
    /// pulled to the boundary of its old bucket and the hole is propagated
    /// across the intermediate buckets (each donates one element to its
    /// neighbour), so the cost is `O(|bucket(from)| + |from − to|)` and no
    /// allocation ever happens (`occupied` was reserved to its hard cap at
    /// rebuild time). Bucket contents are preserved as **sets**; the order
    /// of edges within a bucket may differ from a fresh rebuild, which no
    /// sweep result depends on (a whole bucket commits at once).
    ///
    /// Returns `None` and leaves the network unchanged when `e` is out of
    /// range, `to` is zero or beyond the lifetime, edge `e` does not carry
    /// `from`, or it already carries `to` (including `from == to`).
    pub fn move_label(&mut self, e: EdgeId, from: Time, to: Time) -> Option<LabelMove> {
        if to == 0 || to > self.lifetime || (e as usize) >= self.assignment.num_edges() {
            return None;
        }
        if !self.assignment.move_label(e, from, to) {
            return None;
        }
        let lo = self.bucket_offsets[from as usize] as usize;
        let hi = self.bucket_offsets[from as usize + 1] as usize;
        let p = lo
            + self.bucket_edges[lo..hi]
                .iter()
                .position(|&x| x == e)
                .expect("edge is present in its own bucket");
        if from < to {
            // Pull `e` to the top of its bucket, then let each bucket in
            // between donate its last element downward into the hole; the
            // final hole is the first slot of `to`'s bucket once the
            // boundaries shift left.
            let mut hole = hi - 1;
            self.bucket_edges.swap(p, hole);
            for t in (from + 1)..to {
                let last = self.bucket_offsets[t as usize + 1] as usize - 1;
                self.bucket_edges[hole] = self.bucket_edges[last];
                hole = last;
            }
            self.bucket_edges[hole] = e;
            for t in (from + 1)..=to {
                self.bucket_offsets[t as usize] -= 1;
            }
        } else {
            // Mirror image: pull `e` to the bottom of its bucket and
            // propagate the hole downward, shifting boundaries right.
            let mut hole = lo;
            self.bucket_edges.swap(p, hole);
            for t in ((to + 1)..from).rev() {
                let first = self.bucket_offsets[t as usize] as usize;
                self.bucket_edges[hole] = self.bucket_edges[first];
                hole = first;
            }
            self.bucket_edges[hole] = e;
            for t in (to + 1)..=from {
                self.bucket_offsets[t as usize] += 1;
            }
        }
        if self.edges_at(from).is_empty() {
            if let Ok(i) = self.occupied.binary_search(&from) {
                self.occupied.remove(i);
            }
        }
        if let Err(i) = self.occupied.binary_search(&to) {
            self.occupied.insert(i, to);
        }
        Some(LabelMove { edge: e, from, to })
    }

    /// The underlying static graph `G`.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The label assignment `L`.
    #[must_use]
    pub fn assignment(&self) -> &LabelAssignment {
        &self.assignment
    }

    /// Sorted labels of edge `e`.
    #[inline]
    #[must_use]
    pub fn labels(&self, e: EdgeId) -> &[Time] {
        self.assignment.labels(e)
    }

    /// The lifetime `a`.
    #[must_use]
    pub const fn lifetime(&self) -> Time {
        self.lifetime
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of time-edges `M = Σ_e |L_e|` (for undirected networks each
    /// label serves both directions but is counted once, matching the
    /// paper's accounting of labels).
    #[must_use]
    pub fn num_time_edges(&self) -> usize {
        self.assignment.total_labels()
    }

    /// The edges available at time `t` (`1 ≤ t ≤ lifetime`); empty slice
    /// otherwise.
    #[inline]
    #[must_use]
    pub fn edges_at(&self, t: Time) -> &[u32] {
        if t == 0 || t > self.lifetime {
            return &[];
        }
        let lo = self.bucket_offsets[t as usize] as usize;
        let hi = self.bucket_offsets[t as usize + 1] as usize;
        &self.bucket_edges[lo..hi]
    }

    /// Sorted times `t` with at least one edge available at `t` — the skip
    /// list that lets sparse sweeps visit `O(occupied)` buckets instead of
    /// probing all `a` of them (see [`crate::wide::WideSweeper`]). Rebuilt
    /// in place by [`TemporalNetwork::replace_assignment`] without
    /// allocating once warm.
    #[inline]
    #[must_use]
    pub fn occupied_times(&self) -> &[Time] {
        &self.occupied
    }

    /// The occupied times in `(after, upto]` (clamped to the lifetime;
    /// empty when the window is) — the window a sweep with start time
    /// `after` and horizon `upto` visits.
    #[must_use]
    pub fn occupied_between(&self, after: Time, upto: Time) -> &[Time] {
        let upto = upto.min(self.lifetime);
        let lo = self.occupied.partition_point(|&t| t <= after);
        let hi = self.occupied.partition_point(|&t| t <= upto);
        &self.occupied[lo.min(hi)..hi]
    }

    /// Deconstruct into graph and assignment.
    #[must_use]
    pub fn into_parts(self) -> (Graph, LabelAssignment) {
        (self.graph, self.assignment)
    }
}

/// The construction-time checks, shared by [`TemporalNetwork::new`] and
/// [`TemporalNetwork::replace_assignment`].
fn validate(
    graph: &Graph,
    assignment: &LabelAssignment,
    lifetime: Time,
) -> Result<(), TemporalError> {
    if lifetime == 0 {
        return Err(TemporalError::ZeroLifetime);
    }
    if graph.num_edges() != assignment.num_edges() {
        return Err(TemporalError::EdgeCountMismatch {
            graph_edges: graph.num_edges(),
            assignment_edges: assignment.num_edges(),
        });
    }
    // Each edge's labels are sorted, so its last label is its largest.
    let (offsets, labels) = assignment.csr();
    for (e, window) in offsets.windows(2).enumerate() {
        if window[1] > window[0] {
            let label = labels[window[1] as usize - 1];
            if label > lifetime {
                return Err(TemporalError::LabelBeyondLifetime {
                    edge: e as EdgeId,
                    label,
                    lifetime,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_graph::generators;

    fn tiny() -> TemporalNetwork {
        // Path 0—1—2—3 with labels {1,3}, {2}, {3}.
        let g = generators::path(4);
        let a = LabelAssignment::from_vecs(vec![vec![1, 3], vec![2], vec![3]]).unwrap();
        TemporalNetwork::new(g, a, 4).unwrap()
    }

    #[test]
    fn bucket_index_matches_assignment() {
        let tn = tiny();
        assert_eq!(tn.edges_at(1), &[0]);
        assert_eq!(tn.edges_at(2), &[1]);
        {
            let mut at3 = tn.edges_at(3).to_vec();
            at3.sort_unstable();
            assert_eq!(at3, vec![0, 2]);
        }
        assert_eq!(tn.edges_at(4), &[] as &[u32]);
        assert_eq!(tn.edges_at(0), &[] as &[u32]);
        assert_eq!(tn.edges_at(99), &[] as &[u32]);
    }

    #[test]
    fn counts() {
        let tn = tiny();
        assert_eq!(tn.num_nodes(), 4);
        assert_eq!(tn.num_time_edges(), 4);
        assert_eq!(tn.lifetime(), 4);
        assert_eq!(tn.labels(0), &[1, 3]);
    }

    #[test]
    fn rejects_mismatched_edge_count() {
        let g = generators::path(3); // 2 edges
        let a = LabelAssignment::single(vec![1]).unwrap(); // 1 edge
        assert_eq!(
            TemporalNetwork::new(g, a, 3).unwrap_err(),
            TemporalError::EdgeCountMismatch {
                graph_edges: 2,
                assignment_edges: 1
            }
        );
    }

    #[test]
    fn rejects_label_beyond_lifetime() {
        let g = generators::path(3);
        let a = LabelAssignment::from_vecs(vec![vec![1], vec![5]]).unwrap();
        assert_eq!(
            TemporalNetwork::new(g, a, 4).unwrap_err(),
            TemporalError::LabelBeyondLifetime {
                edge: 1,
                label: 5,
                lifetime: 4
            }
        );
    }

    #[test]
    fn rejects_zero_lifetime() {
        let g = generators::path(2);
        let a = LabelAssignment::single(vec![1]).unwrap();
        assert_eq!(
            TemporalNetwork::new(g, a, 0).unwrap_err(),
            TemporalError::ZeroLifetime
        );
    }

    #[test]
    fn empty_label_sets_are_allowed() {
        let g = generators::path(3);
        let a = LabelAssignment::from_vecs(vec![vec![], vec![1]]).unwrap();
        let tn = TemporalNetwork::new(g, a, 2).unwrap();
        assert_eq!(tn.num_time_edges(), 1);
    }

    #[test]
    fn error_display() {
        let e = TemporalError::LabelBeyondLifetime {
            edge: 3,
            label: 9,
            lifetime: 5,
        };
        assert!(e.to_string().contains("label 9"));
        assert!(TemporalError::ZeroLifetime
            .to_string()
            .contains("at least 1"));
        let m = TemporalError::EdgeCountMismatch {
            graph_edges: 2,
            assignment_edges: 1,
        };
        assert!(m.to_string().contains("covers 1"));
    }

    #[test]
    fn replace_assignment_rebuilds_the_bucket_index() {
        let mut tn = tiny();
        let fresh = LabelAssignment::from_vecs(vec![vec![4], vec![1, 4], vec![2]]).unwrap();
        let old = tn.replace_assignment(fresh).unwrap();
        assert_eq!(old.labels(0), &[1, 3], "previous assignment handed back");
        assert_eq!(tn.edges_at(1), &[1]);
        assert_eq!(tn.edges_at(2), &[2]);
        assert_eq!(tn.edges_at(3), &[] as &[u32]);
        {
            let mut at4 = tn.edges_at(4).to_vec();
            at4.sort_unstable();
            assert_eq!(at4, vec![0, 1]);
        }
        // The rebuilt index is indistinguishable from a fresh construction.
        let rebuilt =
            TemporalNetwork::new(tn.graph().clone(), tn.assignment().clone(), tn.lifetime())
                .unwrap();
        for t in 0..=5 {
            assert_eq!(tn.edges_at(t), rebuilt.edges_at(t), "time {t}");
        }
    }

    #[test]
    fn replace_assignment_rejects_invalid_and_keeps_state() {
        let mut tn = tiny();
        let bad = LabelAssignment::from_vecs(vec![vec![9], vec![2], vec![3]]).unwrap();
        assert_eq!(
            tn.replace_assignment(bad).unwrap_err(),
            TemporalError::LabelBeyondLifetime {
                edge: 0,
                label: 9,
                lifetime: 4
            }
        );
        // The original network is untouched.
        assert_eq!(tn.labels(0), &[1, 3]);
        assert_eq!(tn.edges_at(1), &[0]);
        let short = LabelAssignment::single(vec![1]).unwrap();
        assert!(matches!(
            tn.replace_assignment(short).unwrap_err(),
            TemporalError::EdgeCountMismatch { .. }
        ));
    }

    #[test]
    fn replaced_index_equals_a_fresh_construction() {
        use ephemeral_rng::{RandomSource, SeedSequence};
        let mut rng = SeedSequence::new(5).rng(0);
        let g = generators::gnp(40, 0.15, false, &mut rng);
        let m = g.num_edges();
        let lifetime = 23;
        let mut tn = TemporalNetwork::new(
            g.clone(),
            LabelAssignment::from_vecs(vec![vec![1]; m]).unwrap(),
            lifetime,
        )
        .unwrap();
        let mut spare = LabelAssignment::default();
        for r in [1usize, 4, 0, 2, 1, 7] {
            assert!(spare.refill_edge_major(m, r, |labels| {
                rng.fill_range_u32(1, lifetime, labels);
            }));
            spare = tn.replace_assignment(std::mem::take(&mut spare)).unwrap();
            let fresh = TemporalNetwork::new(g.clone(), tn.assignment().clone(), lifetime).unwrap();
            for t in 0..=lifetime + 1 {
                let mut got = tn.edges_at(t).to_vec();
                let mut want = fresh.edges_at(t).to_vec();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "r {r} bucket {t}");
            }
            assert_eq!(tn.occupied_times(), fresh.occupied_times(), "r {r}");
        }
    }

    #[test]
    fn over_lifetime_label_names_the_first_offending_edge() {
        let mut tn = TemporalNetwork::new(
            generators::path(6),
            LabelAssignment::from_vecs(vec![vec![1]; 5]).unwrap(),
            4,
        )
        .unwrap();
        // Edges 2 and 4 both exceed the lifetime; edge 1 is unlabelled.
        let bad =
            LabelAssignment::from_vecs(vec![vec![1, 4], vec![], vec![2, 9], vec![3], vec![7]])
                .unwrap();
        assert_eq!(
            tn.replace_assignment(bad).unwrap_err(),
            TemporalError::LabelBeyondLifetime {
                edge: 2,
                label: 9,
                lifetime: 4
            }
        );
        assert_eq!(tn.occupied_times(), &[1], "network unchanged");
    }

    #[test]
    fn occupied_times_match_nonempty_buckets() {
        let tn = tiny(); // labels {1,3}, {2}, {3}; lifetime 4
        assert_eq!(tn.occupied_times(), &[1, 2, 3]);
        let brute: Vec<Time> = (1..=tn.lifetime())
            .filter(|&t| !tn.edges_at(t).is_empty())
            .collect();
        assert_eq!(tn.occupied_times(), brute.as_slice());
    }

    #[test]
    fn occupied_between_windows() {
        let tn = tiny();
        assert_eq!(tn.occupied_between(0, 4), &[1, 2, 3]);
        assert_eq!(tn.occupied_between(1, 4), &[2, 3]);
        assert_eq!(tn.occupied_between(0, 2), &[1, 2]);
        assert_eq!(tn.occupied_between(2, 2), &[] as &[Time]);
        // The horizon clamps to the lifetime.
        assert_eq!(tn.occupied_between(0, 99), &[1, 2, 3]);
        assert_eq!(tn.occupied_between(3, 99), &[] as &[Time]);
    }

    #[test]
    fn replace_assignment_rebuilds_the_occupied_index() {
        let mut tn = tiny();
        let fresh = LabelAssignment::from_vecs(vec![vec![4], vec![1, 4], vec![2]]).unwrap();
        tn.replace_assignment(fresh).unwrap();
        assert_eq!(tn.occupied_times(), &[1, 2, 4]);
        // An unlabelled replacement empties the index.
        let empty = LabelAssignment::from_vecs(vec![vec![], vec![], vec![]]).unwrap();
        tn.replace_assignment(empty).unwrap();
        assert_eq!(tn.occupied_times(), &[] as &[Time]);
        assert_eq!(tn.occupied_between(0, 4), &[] as &[Time]);
    }

    /// The moved network must be indistinguishable (as bucket *sets* and
    /// occupied times) from a fresh construction over the moved
    /// assignment.
    fn assert_matches_fresh_rebuild(tn: &TemporalNetwork) {
        let rebuilt =
            TemporalNetwork::new(tn.graph().clone(), tn.assignment().clone(), tn.lifetime())
                .unwrap();
        for t in 0..=tn.lifetime() + 1 {
            let mut got = tn.edges_at(t).to_vec();
            let mut want = rebuilt.edges_at(t).to_vec();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "bucket {t}");
        }
        assert_eq!(tn.occupied_times(), rebuilt.occupied_times());
    }

    #[test]
    fn move_label_up_and_down_matches_fresh_rebuild() {
        let mut tn = tiny(); // {1,3}, {2}, {3}, lifetime 4
        let mv = tn.move_label(1, 2, 4).unwrap();
        assert_eq!(
            mv,
            LabelMove {
                edge: 1,
                from: 2,
                to: 4
            }
        );
        assert_eq!(mv.latest(), 4);
        assert_eq!(tn.labels(1), &[4]);
        assert_matches_fresh_rebuild(&tn);
        assert_eq!(tn.occupied_times(), &[1, 3, 4], "bucket 2 emptied");
        // Downward, multi-label edge: move 0's label 3 to 2.
        let mv = tn.move_label(0, 3, 2).unwrap();
        assert_eq!(mv.latest(), 3);
        assert_eq!(tn.labels(0), &[1, 2]);
        assert_matches_fresh_rebuild(&tn);
        // Long-distance hole propagation across empty buckets.
        tn.move_label(0, 1, 4).unwrap();
        assert_matches_fresh_rebuild(&tn);
        tn.move_label(0, 4, 1).unwrap();
        assert_matches_fresh_rebuild(&tn);
    }

    #[test]
    fn move_label_random_sequences_match_fresh_rebuilds() {
        use ephemeral_rng::{RandomSource, SeedSequence};
        let mut rng = SeedSequence::new(99).rng(0);
        let g = generators::gnp(30, 0.2, false, &mut rng);
        let m = g.num_edges();
        let lifetime = 17;
        let a = LabelAssignment::from_fn(m, |_| {
            vec![rng.range_u32(1, lifetime), rng.range_u32(1, lifetime)]
        })
        .unwrap();
        let mut tn = TemporalNetwork::new(g, a, lifetime).unwrap();
        let mut applied = 0;
        for _ in 0..200 {
            let e = rng.index(m) as u32;
            let labels = tn.labels(e);
            let from = labels[rng.index(labels.len())];
            let to = rng.range_u32(1, lifetime);
            if tn.move_label(e, from, to).is_some() {
                applied += 1;
                assert!(tn.labels(e).contains(&to));
            }
        }
        assert!(applied > 100, "most random moves should apply");
        assert_matches_fresh_rebuild(&tn);
    }

    #[test]
    fn move_label_rejects_invalid_moves_unchanged() {
        let mut tn = tiny();
        let before = tn.clone();
        assert!(tn.move_label(0, 1, 0).is_none(), "zero label");
        assert!(tn.move_label(0, 1, 5).is_none(), "beyond lifetime");
        assert!(tn.move_label(9, 1, 2).is_none(), "edge out of range");
        assert!(tn.move_label(0, 2, 4).is_none(), "absent source label");
        assert!(tn.move_label(0, 1, 3).is_none(), "collision");
        assert!(tn.move_label(0, 1, 1).is_none(), "from == to");
        assert_eq!(tn.labels(0), before.labels(0));
        for t in 0..=5 {
            assert_eq!(tn.edges_at(t), before.edges_at(t), "time {t}");
        }
        assert_eq!(tn.occupied_times(), before.occupied_times());
    }

    #[test]
    fn into_parts_roundtrip() {
        let tn = tiny();
        let (g, a) = tn.into_parts();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(a.total_labels(), 4);
    }
}
