//! Spanning trees — substrate for the deterministic OPT label assignments
//! ("at least `n−1` edges must be labelled in order to have a labelled
//! spanning tree", paper §5).

use super::bfs::UNREACHABLE;
use crate::{EdgeId, Graph, NodeId};

/// A rooted spanning tree of (the component of `root` in) a graph.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    /// The root node.
    pub root: NodeId,
    /// `parent[v]` is the parent of `v`, or [`crate::INVALID_NODE`] for the
    /// root and nodes outside the component.
    pub parent: Vec<NodeId>,
    /// `parent_edge[v]` is the edge connecting `v` to its parent, or
    /// `EdgeId::MAX` where there is none.
    pub parent_edge: Vec<EdgeId>,
    /// BFS depth of each node (`u32::MAX` outside the component).
    pub depth: Vec<u32>,
    /// The tree edges, in BFS discovery order (`n_component − 1` of them).
    pub edges: Vec<EdgeId>,
}

impl SpanningTree {
    /// Number of nodes actually spanned (the component size).
    #[must_use]
    pub fn spanned(&self) -> usize {
        self.depth.iter().filter(|&&d| d != UNREACHABLE).count()
    }

    /// Does the tree span the whole graph?
    #[must_use]
    pub fn is_spanning(&self) -> bool {
        self.spanned() == self.depth.len()
    }

    /// Height of the tree (maximum depth over spanned nodes).
    #[must_use]
    pub fn height(&self) -> u32 {
        self.depth
            .iter()
            .filter(|&&d| d != UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// BFS spanning tree rooted at `root`.
///
/// # Panics
/// If `root >= g.num_nodes()`.
#[must_use]
pub fn bfs_tree(g: &Graph, root: NodeId) -> SpanningTree {
    let n = g.num_nodes();
    assert!((root as usize) < n, "root {root} out of range");
    let mut parent = vec![crate::INVALID_NODE; n];
    let mut parent_edge = vec![EdgeId::MAX; n];
    let mut depth = vec![UNREACHABLE; n];
    let mut edges = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let (neighbors, edge_ids) = g.out_adjacency(u);
        for (&v, &e) in neighbors.iter().zip(edge_ids) {
            if depth[v as usize] == UNREACHABLE {
                depth[v as usize] = depth[u as usize] + 1;
                parent[v as usize] = u;
                parent_edge[v as usize] = e;
                edges.push(e);
                queue.push_back(v);
            }
        }
    }
    SpanningTree {
        root,
        parent,
        parent_edge,
        depth,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn spanning_tree_of_connected_graph() {
        let g = generators::grid(4, 4);
        let t = bfs_tree(&g, 0);
        assert!(t.is_spanning());
        assert_eq!(t.edges.len(), 15);
        assert_eq!(t.spanned(), 16);
        assert_eq!(t.height(), 6); // corner-to-corner in a 4x4 grid
    }

    #[test]
    fn tree_of_disconnected_graph_spans_component() {
        let mut b = GraphBuilder::new_undirected(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build().unwrap();
        let t = bfs_tree(&g, 0);
        assert!(!t.is_spanning());
        assert_eq!(t.spanned(), 3);
        assert_eq!(t.edges.len(), 2);
    }

    #[test]
    fn path_to_root_is_monotone_in_depth() {
        let g = generators::binary_tree(15);
        let t = bfs_tree(&g, 0);
        let mut v = 14;
        while v != t.root {
            let p = t.parent[v as usize];
            assert_eq!(t.depth[v as usize], t.depth[p as usize] + 1);
            v = p;
        }
    }

    #[test]
    fn star_tree_height_is_one() {
        let g = generators::star(9);
        let t = bfs_tree(&g, 0);
        assert_eq!(t.height(), 1);
        let from_leaf = bfs_tree(&g, 3);
        assert_eq!(from_leaf.height(), 2);
    }

    #[test]
    fn parent_edges_connect_child_to_parent() {
        let g = generators::cycle(7);
        let t = bfs_tree(&g, 0);
        for v in g.nodes() {
            if v != t.root {
                let e = t.parent_edge[v as usize];
                let (a, b) = g.endpoints(e);
                let p = t.parent[v as usize];
                assert!(
                    (a, b) == (v.min(p), v.max(p)),
                    "edge {e} should join {v} and {p}"
                );
            }
        }
    }
}
