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

    /// Rebuild in place from `r` draws per edge that the caller writes in
    /// one go: `fill` receives the label buffer sized to `m·r` and writes
    /// it edge-major (edge 0's `r` draws, then edge 1's, …). Each edge's
    /// draws are then sorted and deduplicated in place — a
    /// compare-exchange network for `r ≤ 4` — and the offsets written, so
    /// the result equals [`LabelAssignment::from_vecs`] over the same
    /// per-edge draws. At `r = 1` nothing is sorted and the offsets are
    /// `0..=m`. This is the bulk per-trial path of the uniform label
    /// models: one call fills every label (see
    /// `RandomSource::fill_range_u32`) and, once warm, nothing is
    /// allocated. Returns `false` (and leaves the assignment empty) if any
    /// label is zero.
    ///
    /// # Panics
    /// If `m·r` overflows `usize`.
    pub fn refill_edge_major(
        &mut self,
        m: usize,
        r: usize,
        fill: impl FnOnce(&mut [Time]),
    ) -> bool {
        let total = m.checked_mul(r).expect("m·r labels overflow usize");
        self.offsets.clear();
        self.labels.clear();
        self.labels.resize(total, 0);
        fill(&mut self.labels);
        self.offsets.reserve(m + 1);
        self.offsets.push(0);
        if r == 1 {
            if self.labels.contains(&0) {
                self.labels.clear();
                return false;
            }
            self.offsets.extend(1..=m as u32);
            return true;
        }
        let mut len = 0;
        for start in (0..total).step_by(r.max(1)) {
            let edge = &mut self.labels[start..start + r];
            sort_small(edge);
            if edge[0] == 0 {
                self.offsets.truncate(1);
                self.labels.clear();
                return false;
            }
            // Compact the sorted run down to `len`: the write index never
            // passes the read index, and 0 (never a label) seeds `prev`.
            let mut prev = 0;
            for i in start..start + r {
                let t = self.labels[i];
                self.labels[len] = t;
                len += usize::from(t != prev);
                prev = t;
            }
            self.offsets.push(len as u32);
        }
        // `r = 0`: every edge is unlabelled.
        self.offsets.resize(m + 1, 0);
        self.labels.truncate(len);
        true
    }

    /// Rebuild in place with arbitrary per-edge sets: `f(e, buf)` fills the
    /// (cleared) scratch `buf` with edge `e`'s labels, which are then
    /// sorted, deduplicated and appended, sharing one scratch vector
    /// across all edges — the in-place path of the non-uniform label
    /// models (Zipf, geometric gaps). Returns `false` (and leaves the
    /// assignment empty) if any label is zero.
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

    /// The raw CSR arrays: per-edge offsets (`num_edges() + 1` entries,
    /// none for a default scratch) and the flat label array.
    pub(crate) fn csr(&self) -> (&[u32], &[Time]) {
        (&self.offsets, &self.labels)
    }
}

/// Sort one edge's draws in place: branch-free compare-exchange networks
/// for up to four labels (the uniform models' usual `r`), the standard
/// unstable sort beyond.
#[inline]
fn sort_small(s: &mut [Time]) {
    #[inline(always)]
    fn cx(s: &mut [Time], i: usize, j: usize) {
        let (a, b) = (s[i], s[j]);
        s[i] = a.min(b);
        s[j] = a.max(b);
    }
    match s.len() {
        0 | 1 => {}
        2 => cx(s, 0, 1),
        3 => {
            cx(s, 0, 1);
            cx(s, 1, 2);
            cx(s, 0, 1);
        }
        4 => {
            cx(s, 0, 1);
            cx(s, 2, 3);
            cx(s, 0, 2);
            cx(s, 1, 3);
            cx(s, 1, 2);
        }
        _ => s.sort_unstable(),
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
    fn refill_edge_major_sorts_and_dedups_like_from_vecs() {
        // Every r the sorting networks cover, and one beyond; the draws
        // include duplicates and descending runs.
        let draws: Vec<Time> = (0..60u32).map(|i| 1 + (i * 7 + i / 3) % 5).collect();
        let mut a = LabelAssignment::default();
        for r in 0..=6usize {
            for m in [0usize, 1, 4, 10] {
                let want = LabelAssignment::from_vecs(
                    (0..m).map(|e| draws[e * r..(e + 1) * r].to_vec()).collect(),
                )
                .unwrap();
                assert!(a.refill_edge_major(m, r, |buf| {
                    assert_eq!(buf.len(), m * r);
                    buf.copy_from_slice(&draws[..m * r]);
                }));
                assert_eq!(a, want, "m {m} r {r}");
            }
        }
    }

    #[test]
    fn refill_edge_major_rejects_zero_labels() {
        let mut a = LabelAssignment::default();
        for r in [1usize, 2, 3, 4, 5] {
            assert!(!a.refill_edge_major(3, r, |buf| {
                buf.fill(2);
                buf[buf.len() - 1] = 0;
            }));
            assert_eq!(a.num_edges(), 0, "r {r}");
            assert_eq!(a.total_labels(), 0, "r {r}");
            // The emptied scratch refills normally.
            assert!(a.refill_edge_major(2, r, |buf| buf.fill(3)));
            assert_eq!(a.labels(1), &[3]);
        }
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
