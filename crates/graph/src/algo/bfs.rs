//! Breadth-first search.

use crate::{Graph, NodeId};

/// Distance sentinel: node not reached.
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `source` (directed graphs follow out-arcs).
/// Unreached nodes get [`UNREACHABLE`].
///
/// # Panics
/// If `source >= g.num_nodes()`.
#[must_use]
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    multi_source_bfs(g, std::slice::from_ref(&source))
}

/// Hop distances from the nearest of several sources.
///
/// # Panics
/// If any source is out of range.
#[must_use]
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let n = g.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::with_capacity(sources.len());
    for &s in sources {
        assert!((s as usize) < n, "source {s} out of range");
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        let (neighbors, _) = g.out_adjacency(u);
        for &v in neighbors {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn path_distances() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn disconnected_components_are_unreachable() {
        let mut b = GraphBuilder::new_undirected(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build().unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn directed_bfs_respects_orientation() {
        let mut b = GraphBuilder::new_directed(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2]);
        assert_eq!(bfs_distances(&g, 2), vec![UNREACHABLE, UNREACHABLE, 0]);
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = generators::path(7);
        let d = multi_source_bfs(&g, &[0, 6]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_with_duplicate_sources() {
        let g = generators::path(3);
        let d = multi_source_bfs(&g, &[0, 0]);
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        let g = generators::path(3);
        let _ = bfs_distances(&g, 5);
    }
}
