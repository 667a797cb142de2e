//! The immutable CSR graph type.

use crate::{EdgeId, NodeId};

/// An immutable (di)graph in CSR form. Construct via
/// [`crate::GraphBuilder`] or the [`crate::generators`].
///
/// For **undirected** graphs every edge `{u, v}` appears in both adjacency
/// rows with the *same* [`EdgeId`]; in-adjacency accessors alias the
/// out-adjacency. For **directed** graphs each arc `(u, v)` is one edge id
/// and a separate in-adjacency CSR is maintained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    directed: bool,
    num_nodes: u32,
    /// Edge endpoints in insertion order; undirected edges are canonicalized
    /// to `(min, max)`.
    endpoints: Vec<(u32, u32)>,
    // Out-adjacency CSR (for undirected graphs: full adjacency).
    out_offsets: Vec<u32>,
    out_node: Vec<u32>,
    out_edge: Vec<u32>,
    // In-adjacency CSR (directed only; empty when undirected).
    in_offsets: Vec<u32>,
    in_node: Vec<u32>,
    in_edge: Vec<u32>,
}

impl Graph {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        directed: bool,
        num_nodes: u32,
        endpoints: Vec<(u32, u32)>,
        out_offsets: Vec<u32>,
        out_node: Vec<u32>,
        out_edge: Vec<u32>,
        in_offsets: Vec<u32>,
        in_node: Vec<u32>,
        in_edge: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), num_nodes as usize + 1);
        Self {
            directed,
            num_nodes,
            endpoints,
            out_offsets,
            out_node,
            out_edge,
            in_offsets,
            in_node,
            in_edge,
        }
    }

    /// Is this a directed graph?
    #[must_use]
    pub const fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of edges `m` (arcs for directed graphs, undirected edges
    /// otherwise).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Endpoints of edge `e`: `(tail, head)` for arcs, `(min, max)` for
    /// undirected edges.
    ///
    /// # Panics
    /// If `e >= num_edges()`.
    #[inline]
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e as usize]
    }

    /// All edges as `(edge_id, u, v)` in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// All node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes
    }

    #[inline]
    fn out_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.out_offsets[v as usize] as usize..self.out_offsets[v as usize + 1] as usize
    }

    #[inline]
    fn in_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.in_offsets[v as usize] as usize..self.in_offsets[v as usize + 1] as usize
    }

    /// Raw out-adjacency slices `(neighbors, edge_ids)` — the zero-overhead
    /// accessor for hot loops.
    #[inline]
    #[must_use]
    pub fn out_adjacency(&self, v: NodeId) -> (&[u32], &[u32]) {
        let r = self.out_range(v);
        (&self.out_node[r.clone()], &self.out_edge[r])
    }

    /// Raw in-adjacency slices `(neighbors, edge_ids)`. For undirected
    /// graphs this is the full adjacency (same as out).
    #[inline]
    #[must_use]
    pub fn in_adjacency(&self, v: NodeId) -> (&[u32], &[u32]) {
        if self.directed {
            let r = self.in_range(v);
            (&self.in_node[r.clone()], &self.in_edge[r])
        } else {
            self.out_adjacency(v)
        }
    }

    /// Out-degree of `v` (degree for undirected graphs).
    #[inline]
    #[must_use]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_range(v).len()
    }

    /// In-degree of `v` (degree for undirected graphs).
    #[inline]
    #[must_use]
    pub fn in_degree(&self, v: NodeId) -> usize {
        if self.directed {
            self.in_range(v).len()
        } else {
            self.out_degree(v)
        }
    }

    /// Degree of `v`: out-degree + in-degree for directed graphs, plain
    /// degree for undirected ones.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        if self.directed {
            self.out_degree(v) + self.in_degree(v)
        } else {
            self.out_degree(v)
        }
    }

    /// Does the edge/arc `u → v` exist? `O(log deg(u))`.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The edge id of `u → v` if present. `O(log deg(u))`.
    #[must_use]
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u >= self.num_nodes || v >= self.num_nodes {
            return None;
        }
        let (nodes, edges) = self.out_adjacency(u);
        nodes.binary_search(&v).ok().map(|i| edges[i])
    }

    /// Edge density: `m / (n choose 2)` for undirected, `m / (n(n−1))` for
    /// directed. `None` for `n < 2`.
    #[must_use]
    pub fn density(&self) -> Option<f64> {
        let n = self.num_nodes() as f64;
        if self.num_nodes() < 2 {
            return None;
        }
        let pairs = if self.directed {
            n * (n - 1.0)
        } else {
            n * (n - 1.0) / 2.0
        };
        Some(self.num_edges() as f64 / pairs)
    }

    /// The directed graph with every arc reversed (identity on undirected
    /// graphs). Edge ids are preserved: arc `e = (u, v)` becomes `e = (v, u)`.
    #[must_use]
    pub fn reversed(&self) -> Self {
        if !self.directed {
            return self.clone();
        }
        Self {
            directed: true,
            num_nodes: self.num_nodes,
            endpoints: self.endpoints.iter().map(|&(u, v)| (v, u)).collect(),
            out_offsets: self.in_offsets.clone(),
            out_node: self.in_node.clone(),
            out_edge: self.in_edge.clone(),
            in_offsets: self.out_offsets.clone(),
            in_node: self.out_node.clone(),
            in_edge: self.out_edge.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn undirected_edge_ids_are_shared() {
        let mut b = GraphBuilder::new_undirected(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let via_0 = g.find_edge(0, 1).unwrap();
        let via_1 = g.find_edge(1, 0).unwrap();
        assert_eq!(via_0, via_1);
        assert_eq!(g.endpoints(via_0), (0, 1));
    }

    #[test]
    fn directed_adjacency_is_one_way() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        let g = b.build().unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn in_neighbors_of_directed_graph() {
        let mut b = GraphBuilder::new_directed(4);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(3, 2);
        let g = b.build().unwrap();
        assert_eq!(g.in_adjacency(3).0, &[0, 1]);
        assert_eq!(g.out_adjacency(3).0, &[2]);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        let r = g.reversed();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert!(!r.has_edge(0, 1));
        // Edge ids preserved.
        assert_eq!(g.find_edge(0, 1), r.find_edge(1, 0));
        assert_eq!(r.endpoints(g.find_edge(0, 1).unwrap()), (1, 0));
    }

    #[test]
    fn reversed_undirected_is_identity() {
        let g = generators::cycle(5);
        assert_eq!(g.reversed(), g);
    }

    #[test]
    fn density() {
        let g = generators::clique(5, false);
        assert!((g.density().unwrap() - 1.0).abs() < 1e-12);
        let d = generators::clique(5, true);
        assert!((d.density().unwrap() - 1.0).abs() < 1e-12);
        let mut b = GraphBuilder::new_undirected(1);
        let _ = &mut b;
        assert!(b.build().unwrap().density().is_none());
    }

    #[test]
    fn edges_iterator_matches_endpoints() {
        let g = generators::path(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (e, u, v) in edges {
            assert_eq!(g.endpoints(e), (u, v));
        }
    }

    #[test]
    fn find_edge_out_of_range_is_none() {
        let g = generators::path(3);
        assert_eq!(g.find_edge(0, 99), None);
        assert_eq!(g.find_edge(99, 0), None);
    }
}
