//! Graphviz DOT export, used by the examples to visualise small instances.

use crate::Graph;

/// Render a graph in DOT format. Optional per-edge labels (e.g. temporal
/// labels) are attached via the callback; return `None` for no label.
#[must_use]
pub fn to_dot_with_labels<F>(g: &Graph, name: &str, mut edge_label: F) -> String
where
    F: FnMut(crate::EdgeId) -> Option<String>,
{
    let mut out = String::new();
    let (kind, arrow) = if g.is_directed() {
        ("digraph", "->")
    } else {
        ("graph", "--")
    };
    out.push_str(&format!("{kind} {name} {{\n"));
    for v in g.nodes() {
        out.push_str(&format!("  {v};\n"));
    }
    for (e, u, v) in g.edges() {
        match edge_label(e) {
            Some(label) => out.push_str(&format!("  {u} {arrow} {v} [label=\"{label}\"];\n")),
            None => out.push_str(&format!("  {u} {arrow} {v};\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn undirected_dot() {
        let g = generators::path(3);
        let dot = to_dot_with_labels(&g, "p3", |_| None);
        assert!(dot.starts_with("graph p3 {"));
        assert!(dot.contains("0 -- 1;"));
        assert!(dot.contains("1 -- 2;"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn directed_dot_uses_arrows() {
        let mut b = GraphBuilder::new_directed(2);
        b.add_edge(0, 1);
        let dot = to_dot_with_labels(&b.build().unwrap(), "d", |_| None);
        assert!(dot.starts_with("digraph d {"));
        assert!(dot.contains("0 -> 1;"));
    }

    #[test]
    fn labels_are_attached() {
        let g = generators::path(3);
        let dot = to_dot_with_labels(&g, "lbl", |e| Some(format!("t={e}")));
        assert!(dot.contains("[label=\"t=0\"]"));
        assert!(dot.contains("[label=\"t=1\"]"));
    }

    #[test]
    fn isolated_nodes_are_listed() {
        let g = GraphBuilder::new_undirected(2).build().unwrap();
        let dot = to_dot_with_labels(&g, "iso", |_| None);
        assert!(dot.contains("  0;\n"));
        assert!(dot.contains("  1;\n"));
    }
}
