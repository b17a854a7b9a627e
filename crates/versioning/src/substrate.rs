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

/// One version's class graph, plus its centralities and snapshot
/// digests, each computed on first use and then shared.
pub struct VersionSubstrate {
    graph: Arc<SchemaGraph>,
    betweenness: OnceLock<Arc<Vec<f64>>>,
    bridging: OnceLock<Arc<Vec<f64>>>,
    digests: [OnceLock<u64>; 2],
}

impl VersionSubstrate {
    pub(crate) fn new(graph: SchemaGraph) -> VersionSubstrate {
        VersionSubstrate {
            graph: Arc::new(graph),
            betweenness: OnceLock::new(),
            bridging: OnceLock::new(),
            digests: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The version's class graph.
    pub fn graph(&self) -> &Arc<SchemaGraph> {
        &self.graph
    }

    /// Betweenness of the class graph, indexed by node (memoised).
    pub fn betweenness(&self) -> &Arc<Vec<f64>> {
        self.betweenness
            .get_or_init(|| Arc::new(betweenness(&self.graph)))
    }

    /// Bridging centrality of the class graph, indexed by node
    /// (memoised; rides on [`betweenness`](VersionSubstrate::betweenness)).
    pub fn bridging(&self) -> &Arc<Vec<f64>> {
        self.bridging.get_or_init(|| {
            Arc::new(bridging_centrality_with(&self.graph, self.betweenness()))
        })
    }

    /// The salted content digest of `snapshot` — this version's — for
    /// `end` (memoised per end).
    pub(crate) fn digest(&self, end: StepEnd, snapshot: &TripleStore) -> u64 {
        *self.digests[end as usize].get_or_init(|| snapshot.content_digest(end.salt()))
    }
}
