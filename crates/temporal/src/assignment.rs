//! CSR storage of per-edge time-label sets.

use crate::Time;

/// The label assignment `L = {L_e : e ∈ E}` of a temporal network, stored
/// as one flat CSR array (offsets per edge, labels sorted ascending and
/// deduplicated within each edge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelAssignment {
    offsets: Vec<u32>,
    labels: Vec<Time>,
}

impl Default for LabelAssignment {
    /// An assignment covering zero edges — the natural scratch seed for the
    /// in-place `refill_*` APIs. Performs **no allocation**, so
    /// `std::mem::take` in a buffer-swap loop is free.
    fn default() -> Self {
        Self {
            offsets: Vec::new(),
            labels: Vec::new(),
        }
    }
}

impl LabelAssignment {
    /// Build from one label vector per edge. Labels are sorted and
    /// deduplicated per edge; zero labels are rejected (`None`) because the
    /// paper's label sets are subsets of `{1, 2, …, a}`. Empty per-edge sets
    /// are allowed (an edge that is never available).
    #[must_use]
    pub fn from_vecs(per_edge: Vec<Vec<Time>>) -> Option<Self> {
        let mut offsets = Vec::with_capacity(per_edge.len() + 1);
        offsets.push(0u32);
        let total: usize = per_edge.iter().map(Vec::len).sum();
        let mut labels = Vec::with_capacity(total);
        for mut edge_labels in per_edge {
            if edge_labels.contains(&0) {
                return None;
            }
            edge_labels.sort_unstable();
            edge_labels.dedup();
            labels.extend_from_slice(&edge_labels);
            offsets.push(labels.len() as u32);
        }
        Some(Self { offsets, labels })
    }

    /// Build from exactly one label per edge (the paper's single-label
    /// model of §3). Rejects zero labels.
    #[must_use]
    pub fn single(labels: Vec<Time>) -> Option<Self> {
        if labels.contains(&0) {
            return None;
        }
        let offsets = (0..=labels.len() as u32).collect();
        Some(Self { offsets, labels })
    }

    /// Build by calling `f(edge_id)` for each of `m` edges.
    #[must_use]
    pub fn from_fn(m: usize, mut f: impl FnMut(u32) -> Vec<Time>) -> Option<Self> {
        Self::from_vecs((0..m as u32).map(&mut f).collect())
    }

    /// Rebuild in place with exactly one label per edge, reusing this
    /// assignment's buffers — the zero-allocation (once warm) per-trial
    /// path of the UNI-CASE Monte Carlo estimators. Returns `false` (and
    /// leaves the assignment empty) if `f` produces a zero label.
    pub fn refill_single(&mut self, m: usize, mut f: impl FnMut(u32) -> Time) -> bool {
        self.offsets.clear();
        self.labels.clear();
        self.offsets.reserve(m + 1);
        self.labels.reserve(m);
        self.offsets.push(0);
        for e in 0..m as u32 {
            let t = f(e);
            if t == 0 {
                self.offsets.truncate(1);
                self.labels.clear();
                return false;
            }
            self.labels.push(t);
            self.offsets.push(e + 1);
        }
        true
    }

    /// Rebuild in place with arbitrary per-edge sets: `f(e, buf)` fills the
    /// (cleared) scratch `buf` with edge `e`'s labels, which are then
    /// sorted, deduplicated and appended — the multi-label analogue of
    /// [`LabelAssignment::refill_single`], sharing one scratch vector
    /// across all edges. Returns `false` (and leaves the assignment empty)
    /// if any label is zero.
    pub fn refill_with(
        &mut self,
        m: usize,
        buf: &mut Vec<Time>,
        mut f: impl FnMut(u32, &mut Vec<Time>),
    ) -> bool {
        self.offsets.clear();
        self.labels.clear();
        self.offsets.reserve(m + 1);
        self.offsets.push(0);
        for e in 0..m as u32 {
            buf.clear();
            f(e, buf);
            if buf.contains(&0) {
                self.offsets.truncate(1);
                self.labels.clear();
                return false;
            }
            buf.sort_unstable();
            buf.dedup();
            self.labels.extend_from_slice(buf);
            self.offsets.push(self.labels.len() as u32);
        }
        true
    }

    /// Number of edges covered.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        // A default-constructed scratch has an empty offsets vector (no
        // allocation); it covers zero edges like `from_vecs(vec![])`.
        self.offsets.len().saturating_sub(1)
    }

    /// The sorted label set of edge `e`.
    ///
    /// # Panics
    /// If `e >= num_edges()`.
    #[inline]
    #[must_use]
    pub fn labels(&self, e: u32) -> &[Time] {
        &self.labels[self.offsets[e as usize] as usize..self.offsets[e as usize + 1] as usize]
    }

    /// Total number of labels `Σ_e |L_e|` — the quantity the paper's `OPT`
    /// and Price of Randomness count.
    #[must_use]
    pub fn total_labels(&self) -> usize {
        self.labels.len()
    }

    /// Largest label anywhere, or `None` if no edge has any label.
    #[must_use]
    pub fn max_label(&self) -> Option<Time> {
        self.labels.iter().copied().max()
    }

    /// Smallest label anywhere, or `None` if no edge has any label.
    #[must_use]
    pub fn min_label(&self) -> Option<Time> {
        self.labels.iter().copied().min()
    }

    /// Move one label of edge `e` from `from` to `to` in place, keeping
    /// the edge's label set sorted — the `O(|L_e|)` surgery under a
    /// single-label resampling step (no other edge's slice moves).
    /// Returns `false` and leaves the assignment unchanged when `from` is
    /// absent, `to` is zero, or `to` is already present (replacing a label
    /// with an existing one would shrink the set; `from == to` is the
    /// degenerate case).
    ///
    /// # Panics
    /// If `e >= num_edges()`.
    pub fn move_label(&mut self, e: u32, from: Time, to: Time) -> bool {
        if to == 0 {
            return false;
        }
        let lo = self.offsets[e as usize] as usize;
        let hi = self.offsets[e as usize + 1] as usize;
        let slice = &mut self.labels[lo..hi];
        let Ok(mut i) = slice.binary_search(&from) else {
            return false;
        };
        if slice.binary_search(&to).is_ok() {
            return false;
        }
        slice[i] = to;
        // Bubble the replaced entry back to its sorted position.
        while i + 1 < slice.len() && slice[i] > slice[i + 1] {
            slice.swap(i, i + 1);
            i += 1;
        }
        while i > 0 && slice[i] < slice[i - 1] {
            slice.swap(i, i - 1);
            i -= 1;
        }
        true
    }

    /// Iterate `(edge, label)` pairs in edge order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Time)> + '_ {
        (0..self.num_edges() as u32).flat_map(move |e| self.labels(e).iter().map(move |&l| (e, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vecs_sorts_and_dedups() {
        let a = LabelAssignment::from_vecs(vec![vec![3, 1, 3], vec![], vec![2]]).unwrap();
        assert_eq!(a.num_edges(), 3);
        assert_eq!(a.labels(0), &[1, 3]);
        assert_eq!(a.labels(1), &[] as &[Time]);
        assert_eq!(a.labels(2), &[2]);
        assert_eq!(a.total_labels(), 3);
    }

    #[test]
    fn zero_labels_are_rejected() {
        assert!(LabelAssignment::from_vecs(vec![vec![0]]).is_none());
        assert!(LabelAssignment::single(vec![1, 0]).is_none());
    }

    #[test]
    fn single_gives_one_label_per_edge() {
        let a = LabelAssignment::single(vec![5, 2, 9]).unwrap();
        assert_eq!(a.num_edges(), 3);
        assert_eq!(a.labels(1), &[2]);
        assert_eq!(a.max_label(), Some(9));
        assert_eq!(a.min_label(), Some(2));
    }

    #[test]
    fn from_fn_builds_by_edge_id() {
        let a = LabelAssignment::from_fn(3, |e| vec![e + 1, e + 10]).unwrap();
        assert_eq!(a.labels(2), &[3, 12]);
        assert_eq!(a.total_labels(), 6);
    }

    #[test]
    fn empty_assignment() {
        let a = LabelAssignment::from_vecs(vec![]).unwrap();
        assert_eq!(a.num_edges(), 0);
        assert_eq!(a.total_labels(), 0);
        assert_eq!(a.max_label(), None);
        assert_eq!(a.min_label(), None);
    }

    #[test]
    fn refill_single_matches_fresh_construction() {
        let mut a = LabelAssignment::default();
        assert_eq!(a.num_edges(), 0);
        assert!(a.refill_single(4, |e| e + 1));
        assert_eq!(a, LabelAssignment::single(vec![1, 2, 3, 4]).unwrap());
        // Shrinking reuse keeps the CSR consistent.
        assert!(a.refill_single(2, |_| 9));
        assert_eq!(a, LabelAssignment::single(vec![9, 9]).unwrap());
        // A zero label empties the assignment and reports failure.
        assert!(!a.refill_single(3, |e| e));
        assert_eq!(a.num_edges(), 0);
        assert_eq!(a.total_labels(), 0);
    }

    #[test]
    fn refill_with_sorts_and_dedups_like_from_vecs() {
        let mut a = LabelAssignment::default();
        let mut buf = Vec::new();
        assert!(a.refill_with(3, &mut buf, |e, b| {
            if e != 1 {
                b.extend_from_slice(&[3, 1, 3]);
            }
        }));
        assert_eq!(
            a,
            LabelAssignment::from_vecs(vec![vec![3, 1, 3], vec![], vec![3, 1, 3]]).unwrap()
        );
        assert!(!a.refill_with(2, &mut buf, |_, b| b.push(0)));
        assert_eq!(a.num_edges(), 0);
    }

    #[test]
    fn move_label_keeps_slices_sorted() {
        let mut a = LabelAssignment::from_vecs(vec![vec![2, 5, 9], vec![4]]).unwrap();
        assert!(a.move_label(0, 5, 7)); // interior, no reorder
        assert_eq!(a.labels(0), &[2, 7, 9]);
        assert!(a.move_label(0, 2, 11)); // bubbles up past both
        assert_eq!(a.labels(0), &[7, 9, 11]);
        assert!(a.move_label(0, 11, 1)); // bubbles down past both
        assert_eq!(a.labels(0), &[1, 7, 9]);
        assert_eq!(a.labels(1), &[4], "other edges untouched");
        assert!(a.move_label(1, 4, 6));
        assert_eq!(a.labels(1), &[6]);
    }

    #[test]
    fn move_label_rejects_bad_moves_unchanged() {
        let mut a = LabelAssignment::from_vecs(vec![vec![2, 5]]).unwrap();
        assert!(!a.move_label(0, 3, 4), "absent source label");
        assert!(!a.move_label(0, 2, 5), "collision with existing label");
        assert!(!a.move_label(0, 2, 2), "degenerate from == to");
        assert!(!a.move_label(0, 2, 0), "zero label");
        assert_eq!(a.labels(0), &[2, 5]);
    }

    #[test]
    fn iter_yields_edge_label_pairs() {
        let a = LabelAssignment::from_vecs(vec![vec![1, 2], vec![7]]).unwrap();
        let pairs: Vec<(u32, Time)> = a.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 7)]);
    }
}
