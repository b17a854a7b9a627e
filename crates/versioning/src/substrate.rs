//! Per-version graph substrate: the facts about one committed version
//! that every evolution step starting or ending at it shares.
//!
//! A structural measure scores a step V1 → V2 from each version's class
//! graph and its betweenness and bridging centralities (ICDE'17
//! §II(c)), and a step's fingerprint folds in a content digest of each
//! version's snapshot. None of these depend on the step, only on the
//! version, so [`VersionedStore::substrate`] computes each once per
//! version and every context over that version shares it: an epoch
//! stream served through any number of windows builds one new
//! substrate per epoch, the head's.
//!
//! The centralities depend on the class graph alone, and most epochs of
//! a stream change instances, not the schema. So a substrate holds its
//! class graph and the graph's lazily computed betweenness and bridging
//! as one shared value: a version whose class graph equals its
//! predecessor's (same nodes, same adjacency) holds the predecessor's
//! value, and betweenness runs once per distinct class graph in a run
//! of versions, not once per version. The snapshot digests stay per
//! version.
//!
//! [`VersionedStore::substrate`]: crate::VersionedStore::substrate

use evorec_graph::{betweenness, bridging_centrality_with, SchemaGraph};
use evorec_kb::TripleStore;
use std::sync::{Arc, OnceLock};

/// The end of an evolution step a snapshot digest is taken for. Each
/// end salts its triple hashes differently, so a step and its reverse
/// digest apart.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepEnd {
    /// The earlier version of the step.
    From,
    /// The later version of the step.
    To,
}

impl StepEnd {
    fn salt(self) -> u64 {
        match self {
            StepEnd::From => 0xBEF,
            StepEnd::To => 0xAF7,
        }
    }
}

/// A class graph and its centralities, each computed on first use.
/// Shared by consecutive versions whose class graphs are equal.
struct ClassGraph {
    graph: Arc<SchemaGraph>,
    betweenness: OnceLock<Arc<Vec<f64>>>,
    bridging: OnceLock<Arc<Vec<f64>>>,
}

/// One version's class graph, plus its centralities and snapshot
/// digests, each computed on first use and then shared.
pub struct VersionSubstrate {
    class_graph: Arc<ClassGraph>,
    digests: [OnceLock<u64>; 2],
}

impl VersionSubstrate {
    /// The substrate of a version whose class graph is `graph`. If
    /// `predecessor` (the previous version's substrate) has an equal
    /// class graph, the new substrate shares it and its centralities.
    pub(crate) fn new(
        graph: SchemaGraph,
        predecessor: Option<&VersionSubstrate>,
    ) -> VersionSubstrate {
        let class_graph = match predecessor {
            Some(prev) if *prev.class_graph.graph == graph => Arc::clone(&prev.class_graph),
            _ => Arc::new(ClassGraph {
                graph: Arc::new(graph),
                betweenness: OnceLock::new(),
                bridging: OnceLock::new(),
            }),
        };
        VersionSubstrate {
            class_graph,
            digests: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The version's class graph.
    pub fn graph(&self) -> &Arc<SchemaGraph> {
        &self.class_graph.graph
    }

    /// Betweenness of the class graph, indexed by node (memoised per
    /// distinct class graph).
    pub fn betweenness(&self) -> &Arc<Vec<f64>> {
        self.class_graph
            .betweenness
            .get_or_init(|| Arc::new(betweenness(self.graph())))
    }

    /// Bridging centrality of the class graph, indexed by node
    /// (memoised per distinct class graph; rides on
    /// [`betweenness`](VersionSubstrate::betweenness)).
    pub fn bridging(&self) -> &Arc<Vec<f64>> {
        self.class_graph
            .bridging
            .get_or_init(|| Arc::new(bridging_centrality_with(self.graph(), self.betweenness())))
    }

    /// The salted content digest of `snapshot` — this version's — for
    /// `end` (memoised per end).
    pub(crate) fn digest(&self, end: StepEnd, snapshot: &TripleStore) -> u64 {
        *self.digests[end as usize].get_or_init(|| snapshot.content_digest(end.salt()))
    }
}
