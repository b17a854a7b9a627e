//! Shared evaluation context for one evolution step.

use evorec_graph::SchemaGraph;
use evorec_kb::{FxHashMap, FxHasher, SchemaView, TermId, Vocab};
use evorec_versioning::{
    ChangeSet, LowLevelDelta, StepEnd, VersionId, VersionSubstrate, VersionedStore,
};
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

/// A stable identity for one evolution step: the version pair plus a
/// digest of the delta and the union class graph.
///
/// Two contexts built from the same store state for the same step hash
/// to the same fingerprint, so downstream caches (e.g. the serving
/// layer's report cache) can key amortised work by it. The digest folds
/// in the full triple content of both version snapshots (measures read
/// instance extents and property structure from the schema views, not
/// just the delta) plus the delta and union-graph shape, so a store
/// whose history holds different data under the same version numbers
/// fingerprints differently.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct ContextFingerprint {
    /// The earlier version of the step.
    pub from: VersionId,
    /// The later version of the step.
    pub to: VersionId,
    /// Content digest of the delta and union graph.
    pub digest: u64,
}

impl std::fmt::Display for ContextFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}→{}#{:016x}", self.from, self.to, self.digest)
    }
}

/// Everything a measure needs about one evolution step V_from → V_to,
/// built once and shared.
///
/// Measures are pure functions of this context. What belongs to the
/// step — delta, union class graph, fingerprint — is built here; the
/// per-term change counts δ(n)
/// ([`changes_for_term`](EvolutionContext::changes_for_term)) and the
/// high-level changes ([`changes`](EvolutionContext::changes)) on first
/// read, since no measure reads the latter. What belongs to one version
/// — schema view with its semantic centralities, class graph,
/// betweenness, bridging centrality, snapshot digest — is held as
/// `Arc`s into the store's per-version caches
/// ([`VersionedStore::schema_view`], [`VersionedStore::substrate`]), so
/// every context over a version shares one copy, and a centrality is
/// computed at most once per version however many steps read it — once
/// for a run of consecutive versions with equal class graphs.
pub struct EvolutionContext {
    /// The earlier version.
    pub from: VersionId,
    /// The later version.
    pub to: VersionId,
    /// Low-level delta of the step.
    pub delta: Arc<LowLevelDelta>,
    /// Schema view of the earlier version.
    pub before: Arc<SchemaView>,
    /// Schema view of the later version.
    pub after: Arc<SchemaView>,
    /// Class graph of the earlier version.
    pub graph_before: Arc<SchemaGraph>,
    /// Class graph of the later version.
    pub graph_after: Arc<SchemaGraph>,
    /// Class graph over the union of both versions' classes and
    /// adjacencies — the N_{V1,V2} universe of the paper's §II(b).
    pub graph_union: Arc<SchemaGraph>,
    fingerprint: ContextFingerprint,
    substrate_before: Arc<VersionSubstrate>,
    substrate_after: Arc<VersionSubstrate>,
    vocab: Vocab,
    changes: OnceLock<ChangeSet>,
    change_counts: OnceLock<FxHashMap<TermId, usize>>,
}

impl EvolutionContext {
    /// Build the context for the step `from` → `to` of `store`.
    ///
    /// # Panics
    /// Panics if either version is unknown to `store`.
    pub fn build(store: &VersionedStore, from: VersionId, to: VersionId) -> EvolutionContext {
        EvolutionContext::over_span(store, from, to, store.delta(from, to))
    }

    /// Build the context for the step `from` → `to` of `store` over
    /// `span`, a delta the caller already holds for that step — a live
    /// view's span delta, kept equal to [`LowLevelDelta::compute`] over
    /// the two snapshots by extending and stripping it epoch by epoch.
    /// The context shares `span` instead of asking the store for the
    /// pair, so no snapshot is diffed and the store keeps no copy; the
    /// result is bit-identical to [`build`](EvolutionContext::build)
    /// whenever `span` is that step's delta.
    ///
    /// # Panics
    /// Panics if either version is unknown to `store`.
    pub fn over_span(
        store: &VersionedStore,
        from: VersionId,
        to: VersionId,
        span: Arc<LowLevelDelta>,
    ) -> EvolutionContext {
        let before = store.schema_view(from);
        let after = store.schema_view(to);
        let substrate_before = store.substrate(from);
        let substrate_after = store.substrate(to);
        let graph_union = Arc::new(union_graph(&before, &after));
        let fingerprint = ContextFingerprint {
            from,
            to,
            digest: digest_step(store, from, to, &span, &graph_union),
        };
        EvolutionContext {
            from,
            to,
            delta: span,
            before,
            after,
            graph_before: Arc::clone(substrate_before.graph()),
            graph_after: Arc::clone(substrate_after.graph()),
            graph_union,
            fingerprint,
            substrate_before,
            substrate_after,
            vocab: *store.vocab(),
            changes: OnceLock::new(),
            change_counts: OnceLock::new(),
        }
    }

    /// The high-level changes of the step ([`ChangeSet::detect`] over
    /// the delta and both schema views), detected the first time they
    /// are read.
    pub fn changes(&self) -> &ChangeSet {
        self.changes
            .get_or_init(|| ChangeSet::detect(&self.delta, &self.before, &self.after, &self.vocab))
    }

    /// δ(n): the number of triples of the step's delta, added or
    /// removed, that mention `term` in any position, read from the
    /// delta's [`term_counts`](LowLevelDelta::term_counts), tallied the
    /// first time any term is asked for, so the counting and
    /// neighbourhood measures share one pass per step.
    pub fn changes_for_term(&self, term: TermId) -> usize {
        let counts = self.change_counts.get_or_init(|| self.delta.term_counts());
        counts.get(&term).copied().unwrap_or(0)
    }

    /// Betweenness of the earlier class graph (memoised per version).
    pub fn betweenness_before(&self) -> &Arc<Vec<f64>> {
        self.substrate_before.betweenness()
    }

    /// Betweenness of the later class graph (memoised per version).
    pub fn betweenness_after(&self) -> &Arc<Vec<f64>> {
        self.substrate_after.betweenness()
    }

    /// Bridging centrality of the earlier class graph (memoised per
    /// version).
    pub fn bridging_before(&self) -> &Arc<Vec<f64>> {
        self.substrate_before.bridging()
    }

    /// Bridging centrality of the later class graph (memoised per
    /// version).
    pub fn bridging_after(&self) -> &Arc<Vec<f64>> {
        self.substrate_after.bridging()
    }

    /// Stable identity of this evolution step (version pair + content
    /// digest), suitable as a cache key for per-step derived artefacts.
    pub fn fingerprint(&self) -> ContextFingerprint {
        self.fingerprint
    }

    /// All classes present in either version, ascending by id: the
    /// nodes of [`graph_union`](EvolutionContext::graph_union).
    pub fn all_classes(&self) -> &[TermId] {
        self.graph_union.terms()
    }

    /// All properties present in either version, ascending by id.
    pub fn all_properties(&self) -> Vec<TermId> {
        let mut out: Vec<TermId> = self
            .before
            .properties()
            .iter()
            .chain(self.after.properties().iter())
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Content digest of one evolution step. Triple sets (both full
/// version snapshots and the delta's added/removed sides) are
/// order-independently XOR-folded ([`TripleStore::content_digest`]),
/// so the stores' internal iteration order cannot leak into the
/// fingerprint; the union graph's nodes and adjacency are folded in
/// index order (deterministic: nodes are sorted by term id, adjacency
/// lists are sorted). Hashing the whole snapshots matters: measures
/// read instance extents and property structure from the schema views,
/// and triples shared by both versions appear in neither the delta nor
/// the union class graph. The snapshot folds belong to the versions,
/// so the store memoises them per version and end
/// ([`VersionedStore::snapshot_digest`]).
///
/// [`TripleStore::content_digest`]: evorec_kb::TripleStore::content_digest
fn digest_step(
    store: &VersionedStore,
    from: VersionId,
    to: VersionId,
    delta: &LowLevelDelta,
    union: &SchemaGraph,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(store.snapshot(from).len());
    h.write_usize(store.snapshot(to).len());
    h.write_u64(store.snapshot_digest(from, StepEnd::From));
    h.write_u64(store.snapshot_digest(to, StepEnd::To));
    h.write_usize(delta.added_count());
    h.write_usize(delta.removed_count());
    h.write_u64(delta.added.content_digest(0xADD));
    h.write_u64(delta.removed.content_digest(0xDE1));
    h.write_usize(union.node_count());
    h.write_usize(union.edge_count());
    for u in union.node_indexes() {
        h.write_u32(union.term(u).as_u32());
        for &v in union.neighbours(u) {
            h.write_u32(v);
        }
    }
    h.finish()
}

/// Build the union class graph of two schema views: nodes are the union
/// of class sets, edges the union of class adjacencies.
fn union_graph(before: &SchemaView, after: &SchemaView) -> SchemaGraph {
    let nodes: Vec<TermId> = before
        .classes()
        .iter()
        .chain(after.classes().iter())
        .copied()
        .collect();
    let mut edges: Vec<(TermId, TermId)> = Vec::new();
    for view in [before, after] {
        for &c in view.classes() {
            for n in view.adjacent_classes(c) {
                if c < n {
                    edges.push((c, n));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    SchemaGraph::from_edges(nodes, &edges)
}

impl std::fmt::Debug for EvolutionContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvolutionContext")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("delta_size", &self.delta.size())
            .field("classes_union", &self.graph_union.node_count())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TripleStore, Triple};

    /// Two-version store: V0 has A⊑B; V1 adds C⊑B and an instance edge.
    fn store() -> (VersionedStore, VersionId, VersionId, [TermId; 3]) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        s1.insert(Triple::new(c, v.rdfs_subclassof, b));
        let v1 = vs.commit_snapshot("v1", s1);
        (vs, v0, v1, [a, b, c])
    }

    #[test]
    fn build_populates_all_artifacts() {
        let (vs, v0, v1, [a, b, c]) = store();
        let ctx = EvolutionContext::build(&vs, v0, v1);
        assert_eq!(ctx.delta.added_count(), 1);
        assert_eq!(ctx.delta.removed_count(), 0);
        assert!(ctx.before.is_class(a) && ctx.before.is_class(b));
        assert!(!ctx.before.is_class(c));
        assert!(ctx.after.is_class(c));
        assert_eq!(ctx.graph_before.node_count(), 2);
        assert_eq!(ctx.graph_after.node_count(), 3);
        assert_eq!(ctx.graph_union.node_count(), 3);
        assert_eq!(ctx.changes().len(), 2, "AddClass(C) + AddSubclass(C,B)");
    }

    #[test]
    fn all_classes_unions_versions() {
        let (vs, v0, v1, [a, b, c]) = store();
        let ctx = EvolutionContext::build(&vs, v0, v1);
        assert_eq!(ctx.all_classes(), {
            let mut v = vec![a, b, c];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn centralities_memoise() {
        let (vs, v0, v1, _) = store();
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let b1 = Arc::clone(ctx.betweenness_after());
        let b2 = Arc::clone(ctx.betweenness_after());
        assert!(Arc::ptr_eq(&b1, &b2));
        let br1 = Arc::clone(ctx.bridging_before());
        let br2 = Arc::clone(ctx.bridging_before());
        assert!(Arc::ptr_eq(&br1, &br2));
        assert_eq!(b1.len(), ctx.graph_after.node_count());
    }

    #[test]
    fn contexts_over_one_version_share_its_substrate() {
        let (vs, v0, v1, _) = store();
        let step = EvolutionContext::build(&vs, v0, v1);
        let idle = EvolutionContext::build(&vs, v1, v1);
        let back = EvolutionContext::build(&vs, v1, v0);
        assert!(Arc::ptr_eq(&step.graph_after, &idle.graph_before));
        assert!(Arc::ptr_eq(step.betweenness_after(), idle.betweenness_before()));
        assert!(Arc::ptr_eq(step.bridging_after(), back.bridging_before()));
        assert!(Arc::ptr_eq(step.bridging_before(), back.bridging_after()));
        assert_eq!(vs.substrate_computations(), 2, "one substrate per version");
    }

    #[test]
    fn contexts_over_one_version_share_its_semantic_vectors() {
        let (vs, v0, v1, _) = store();
        let step = EvolutionContext::build(&vs, v0, v1);
        let idle = EvolutionContext::build(&vs, v1, v1);
        let back = EvolutionContext::build(&vs, v1, v0);
        assert!(Arc::ptr_eq(
            step.after.centralities(),
            idle.before.centralities()
        ));
        assert!(Arc::ptr_eq(step.after.relevance(), idle.after.relevance()));
        assert!(Arc::ptr_eq(
            step.before.centralities(),
            back.after.centralities()
        ));
        assert!(Arc::ptr_eq(step.before.relevance(), back.after.relevance()));
    }

    #[test]
    fn fingerprint_is_stable_across_rebuilds() {
        let (vs, v0, v1, _) = store();
        let a = EvolutionContext::build(&vs, v0, v1);
        let b = EvolutionContext::build(&vs, v0, v1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().from, v0);
        assert_eq!(a.fingerprint().to, v1);
    }

    #[test]
    fn over_span_shares_the_span_and_matches_build() {
        let (vs, v0, v1, _) = store();
        let span = Arc::new(LowLevelDelta::compute(vs.snapshot(v0), vs.snapshot(v1)));
        let held = EvolutionContext::over_span(&vs, v0, v1, Arc::clone(&span));
        assert!(Arc::ptr_eq(&held.delta, &span), "the held span, uncopied");
        assert_eq!(vs.delta_computations(), 0, "the store diffed nothing");
        let built = EvolutionContext::build(&vs, v0, v1);
        assert_eq!(held.fingerprint(), built.fingerprint());
        assert_eq!(held.changes().len(), built.changes().len());
    }

    #[test]
    fn fingerprint_distinguishes_steps_and_directions() {
        let (vs, v0, v1, _) = store();
        let forward = EvolutionContext::build(&vs, v0, v1);
        let reverse = EvolutionContext::build(&vs, v1, v0);
        let idle = EvolutionContext::build(&vs, v0, v0);
        assert_ne!(forward.fingerprint(), reverse.fingerprint());
        assert_ne!(forward.fingerprint(), idle.fingerprint());
        // The digest itself reacts to content, not just the id pair: an
        // idle step has an empty delta, a real step does not.
        assert_ne!(forward.fingerprint().digest, idle.fingerprint().digest);
    }

    /// Regression: measures read instance extents from the schema
    /// views, and instances present in *both* versions appear in
    /// neither the delta nor the union class graph — the digest must
    /// still see them, or two stores differing only in unchanged
    /// instance populations would collide in a shared report cache.
    #[test]
    fn fingerprint_sees_unchanged_instance_extents() {
        // Both stores intern the identical term sequence, share the
        // identical class graph and the identical delta; they differ
        // only in an instance triple carried unchanged through the step.
        let build = |with_extra_instance: bool| {
            let mut vs = VersionedStore::new();
            let c = vs.intern_iri("http://x/C");
            let r = vs.intern_iri("http://x/R");
            let i1 = vs.intern_iri("http://x/i1");
            let i2 = vs.intern_iri("http://x/i2");
            let j = vs.intern_iri("http://x/j");
            let v = *vs.vocab();
            let mut s0 = TripleStore::new();
            s0.insert(Triple::new(c, v.rdfs_subclassof, r));
            s0.insert(Triple::new(i1, v.rdf_type, c));
            if with_extra_instance {
                s0.insert(Triple::new(i2, v.rdf_type, c));
            }
            let v0 = vs.commit_snapshot("v0", s0.clone());
            let mut s1 = s0;
            s1.insert(Triple::new(j, v.rdf_type, c));
            let v1 = vs.commit_snapshot("v1", s1);
            let ctx = EvolutionContext::build(&vs, v0, v1);
            ctx.fingerprint()
        };
        let rich = build(true);
        let sparse = build(false);
        assert_eq!(rich.from, sparse.from);
        assert_eq!(rich.to, sparse.to);
        assert_ne!(rich.digest, sparse.digest);
    }

    #[test]
    fn fingerprint_displays_version_pair() {
        let (vs, v0, v1, _) = store();
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let text = ctx.fingerprint().to_string();
        assert!(text.starts_with("V0→V1#"), "{text}");
    }

    #[test]
    fn union_graph_carries_removed_classes() {
        // Reverse direction: the "before" of v1→v0 still contains C.
        let (vs, v0, v1, [_, _, c]) = store();
        let ctx = EvolutionContext::build(&vs, v1, v0);
        assert!(ctx.graph_union.node_of(c).is_some());
        assert_eq!(ctx.delta.removed_count(), 1);
    }
}
