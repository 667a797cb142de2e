//! Connected components.
//!
//! For directed graphs these are the **weak** components (components of the
//! underlying undirected graph) — the notion the Erdős–Rényi threshold
//! arguments of the paper (Theorem 5, §3.4 remark) need.

use super::unionfind::UnionFind;
use crate::Graph;

/// Component labelling of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `labels[v]` is the component id (`0..count`) of node `v`; ids are
    /// assigned in order of first appearance by node id.
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<u32>,
}

/// Compute (weak) connected components via union–find.
#[must_use]
pub fn connected_components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    for (_, u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut next = 0u32;
    for v in 0..n as u32 {
        let root = uf.find(v);
        if labels[root as usize] == u32::MAX {
            labels[root as usize] = next;
            sizes.push(0);
            next += 1;
        }
        let label = labels[root as usize];
        if v != root {
            labels[v as usize] = label;
        }
        sizes[label as usize] += 1;
    }
    Components {
        labels,
        count: next as usize,
        sizes,
    }
}

/// Is the graph (weakly) connected? Vacuously true for `n ≤ 1`.
#[must_use]
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() <= 1 || connected_components(g).count == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn single_component() {
        let g = generators::cycle(6);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert_eq!(c.sizes, vec![6]);
        assert!(is_connected(&g));
    }

    #[test]
    fn two_components_with_sizes() {
        let mut b = GraphBuilder::new_undirected(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build().unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.sizes, vec![3, 2]);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn isolated_nodes_are_components() {
        let g = GraphBuilder::new_undirected(3).build().unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.sizes, vec![1, 1, 1]);
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(is_connected(
            &GraphBuilder::new_undirected(0).build().unwrap()
        ));
        assert!(is_connected(
            &GraphBuilder::new_undirected(1).build().unwrap()
        ));
    }

    #[test]
    fn directed_uses_weak_connectivity() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(2, 1); // no directed path 0 -> 2, but weakly connected
        let g = b.build().unwrap();
        assert!(is_connected(&g));
    }

    #[test]
    fn component_labels_are_dense_and_ordered() {
        let mut b = GraphBuilder::new_undirected(6);
        b.add_edge(4, 5);
        b.add_edge(0, 2);
        let g = b.build().unwrap();
        let c = connected_components(&g);
        // Node 0's component gets label 0, node 1 (isolated) label 1, ...
        assert_eq!(c.labels[0], 0);
        assert_eq!(c.labels[1], 1);
        assert_eq!(c.labels[2], 0);
        assert_eq!(c.labels[3], 2);
        assert_eq!(c.labels[4], 3);
        assert_eq!(c.labels[5], 3);
        assert_eq!(c.count, 4);
    }
}
