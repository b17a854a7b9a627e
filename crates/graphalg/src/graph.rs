//! Compact undirected graph over schema elements.

use evorec_kb::{FxHashMap, SchemaView, TermId};

/// Node index inside a [`SchemaGraph`] (dense, `u32`).
pub type NodeIx = u32;

/// An undirected graph whose nodes are schema terms (classes).
///
/// Built once per snapshot from a
/// [`SchemaView`](evorec_kb::SchemaView) and consumed by the
/// structural measures (betweenness, bridging centrality) of the paper's
/// §II(c). Node indexes are dense and deterministic (ascending term id),
/// so centrality vectors from two versions of the same knowledge base can
/// be joined by term. Two graphs are equal when they have the same nodes
/// and the same adjacency, so equal graphs have bit-identical
/// centralities.
#[derive(Clone, Debug, Default)]
pub struct SchemaGraph {
    nodes: Vec<TermId>,
    index: FxHashMap<TermId, NodeIx>,
    adj: Vec<Vec<NodeIx>>,
}

impl SchemaGraph {
    /// Build the class graph of a schema view: one node per class, one
    /// undirected edge per subsumption or property connection.
    /// Self-loops are dropped, as in [`from_edges`](SchemaGraph::from_edges):
    /// a reflexive `rdfs:subClassOf` axiom (RDFS rule rdfs10 emits one
    /// per class) adds no edge.
    pub fn from_schema_view(view: &SchemaView) -> SchemaGraph {
        let mut nodes: Vec<TermId> = view.classes().iter().copied().collect();
        nodes.sort_unstable();
        let mut g = SchemaGraph::with_nodes(nodes);
        for u in 0..g.nodes.len() {
            let term = g.nodes[u];
            for neighbour in view.adjacent_classes(term) {
                if neighbour == term {
                    continue;
                }
                if let Some(&v) = g.index.get(&neighbour) {
                    g.adj[u].push(v);
                }
            }
        }
        for list in &mut g.adj {
            list.sort_unstable();
            list.dedup();
        }
        // adjacent_classes is symmetric, so adj is already undirected.
        g
    }

    /// Build from an explicit node set (sorted internally) and edge list.
    /// Edges mentioning unknown terms are ignored; self-loops dropped.
    pub fn from_edges(nodes: Vec<TermId>, edges: &[(TermId, TermId)]) -> SchemaGraph {
        let mut nodes = nodes;
        nodes.sort_unstable();
        nodes.dedup();
        let mut g = SchemaGraph::with_nodes(nodes);
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            let (Some(&u), Some(&v)) = (g.index.get(&a), g.index.get(&b)) else {
                continue;
            };
            g.adj[u as usize].push(v);
            g.adj[v as usize].push(u);
        }
        for list in &mut g.adj {
            list.sort_unstable();
            list.dedup();
        }
        g
    }

    fn with_nodes(nodes: Vec<TermId>) -> SchemaGraph {
        let mut index = FxHashMap::with_capacity_and_hasher(nodes.len(), Default::default());
        for (ix, &term) in nodes.iter().enumerate() {
            index.insert(term, ix as NodeIx);
        }
        let adj = vec![Vec::new(); nodes.len()];
        SchemaGraph { nodes, index, adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The term at node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn term(&self, u: NodeIx) -> TermId {
        self.nodes[u as usize]
    }

    /// The node index of `term`, if present.
    pub fn node_of(&self, term: TermId) -> Option<NodeIx> {
        self.index.get(&term).copied()
    }

    /// Neighbours of node `u` (sorted, deduplicated).
    pub fn neighbours(&self, u: NodeIx) -> &[NodeIx] {
        &self.adj[u as usize]
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: NodeIx) -> usize {
        self.adj[u as usize].len()
    }

    /// All node indexes.
    pub fn node_indexes(&self) -> impl Iterator<Item = NodeIx> {
        0..self.nodes.len() as NodeIx
    }

    /// All node terms in index order.
    pub fn terms(&self) -> &[TermId] {
        &self.nodes
    }

    /// `(min, mean, max)` degree; zeros for the empty graph.
    pub fn degree_stats(&self) -> (usize, f64, usize) {
        if self.nodes.is_empty() {
            return (0, 0.0, 0);
        }
        let degrees: Vec<usize> = self.adj.iter().map(Vec::len).collect();
        let min = degrees.iter().copied().min().unwrap_or(0);
        let max = degrees.iter().copied().max().unwrap_or(0);
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        (min, mean, max)
    }
}

/// Equal nodes and equal adjacency; the term index is derived from the
/// nodes, so it is not compared.
impl PartialEq for SchemaGraph {
    fn eq(&self, other: &SchemaGraph) -> bool {
        self.nodes == other.nodes && self.adj == other.adj
    }
}

impl Eq for SchemaGraph {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    /// Path graph 0-1-2-3 plus isolated node 4.
    pub(crate) fn path_with_isolate() -> SchemaGraph {
        SchemaGraph::from_edges(
            vec![t(0), t(1), t(2), t(3), t(4)],
            &[(t(0), t(1)), (t(1), t(2)), (t(2), t(3))],
        )
    }

    #[test]
    fn from_edges_builds_undirected_adjacency() {
        let g = path_with_isolate();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn duplicate_edges_and_self_loops_dropped() {
        let g = SchemaGraph::from_edges(
            vec![t(0), t(1)],
            &[(t(0), t(1)), (t(1), t(0)), (t(0), t(0))],
        );
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn unknown_endpoints_ignored() {
        let g = SchemaGraph::from_edges(vec![t(0), t(1)], &[(t(0), t(9))]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn node_term_mapping_is_sorted_dense() {
        let g = SchemaGraph::from_edges(vec![t(30), t(10), t(20)], &[(t(10), t(30))]);
        assert_eq!(g.terms(), &[t(10), t(20), t(30)]);
        assert_eq!(g.node_of(t(20)), Some(1));
        assert_eq!(g.term(0), t(10));
        assert_eq!(g.node_of(t(99)), None);
    }

    #[test]
    fn degree_stats_reports_extremes() {
        let g = path_with_isolate();
        let (min, mean, max) = g.degree_stats();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!((mean - 6.0 / 5.0).abs() < 1e-12);
        let empty = SchemaGraph::default();
        assert_eq!(empty.degree_stats(), (0, 0.0, 0));
    }

    #[test]
    fn from_schema_view_mirrors_adjacency() {
        use evorec_kb::{Graph, Triple};
        let mut g = Graph::new();
        let a = g.iri("http://x/A");
        let b = g.iri("http://x/B");
        let c = g.iri("http://x/C");
        let v = *g.vocab();
        g.insert(Triple::new(a, v.rdfs_subclassof, b));
        g.insert(Triple::new(c, v.rdf_type, v.rdfs_class));
        let view = g.schema();
        let sg = SchemaGraph::from_schema_view(&view);
        assert_eq!(sg.node_count(), 3);
        assert_eq!(sg.edge_count(), 1);
        let ua = sg.node_of(a).unwrap();
        let ub = sg.node_of(b).unwrap();
        assert_eq!(sg.neighbours(ua), &[ub]);
        let uc = sg.node_of(c).unwrap();
        assert_eq!(sg.degree(uc), 0);
    }

    #[test]
    fn from_schema_view_drops_reflexive_subclass_axioms() {
        use crate::bridging_coefficient;
        use evorec_kb::{Graph, Triple};
        let mut g = Graph::new();
        let a = g.iri("http://x/A");
        let b = g.iri("http://x/B");
        let v = *g.vocab();
        g.insert(Triple::new(a, v.rdfs_subclassof, b));
        let plain = SchemaGraph::from_schema_view(&g.schema());
        g.insert(Triple::new(a, v.rdfs_subclassof, a));
        let reflexive = SchemaGraph::from_schema_view(&g.schema());
        let ua = reflexive.node_of(a).unwrap();
        assert_eq!(reflexive.degree(ua), 1, "A ⊑ A adds no edge");
        assert_eq!(reflexive, plain);
        assert_eq!(bridging_coefficient(&reflexive), vec![1.0, 1.0]);
    }

    #[test]
    fn equality_compares_nodes_and_adjacency() {
        let g = path_with_isolate();
        assert_eq!(g, path_with_isolate());
        let fewer_edges = SchemaGraph::from_edges(
            vec![t(0), t(1), t(2), t(3), t(4)],
            &[(t(0), t(1)), (t(1), t(2))],
        );
        assert_ne!(g, fewer_edges);
        let other_nodes = SchemaGraph::from_edges(
            vec![t(0), t(1), t(2), t(3), t(5)],
            &[(t(0), t(1)), (t(1), t(2)), (t(2), t(3))],
        );
        assert_ne!(g, other_nodes);
    }
}
