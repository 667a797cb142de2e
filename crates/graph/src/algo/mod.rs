//! Classical graph algorithms on the CSR substrate.

mod bfs;
mod components;
mod diameter;
mod spanning;
mod unionfind;

pub use bfs::{bfs_distances, multi_source_bfs, UNREACHABLE};
pub use components::{connected_components, is_connected, Components};
pub use diameter::{diameter, eccentricity, two_sweep_lower_bound};
pub use spanning::{bfs_tree, SpanningTree};
pub use unionfind::UnionFind;
