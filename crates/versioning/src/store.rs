//! The versioned knowledge-base store.

use crate::delta::LowLevelDelta;
use crate::substrate::{StepEnd, VersionSubstrate};
use crate::version::{VersionId, VersionInfo};
use evorec_graph::SchemaGraph;
use evorec_kb::{FxHashMap, SchemaView, Term, TermId, TermInterner, TripleStore, Vocab};
use sched::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A linear history of knowledge-base snapshots sharing one interner.
///
/// All versions share a single [`TermInterner`], so [`TermId`]s are stable
/// across the whole history — deltas, schema views, and measure reports
/// from different version pairs are directly comparable. Pairwise deltas,
/// per-version schema views and per-version graph substrates are
/// memoised behind [`RwLock`]s (`sched::sync`), so repeated measure
/// evaluations of the same evolution step share the work, and every step
/// over one version shares that version's class graph and centralities.
pub struct VersionedStore {
    interner: TermInterner,
    vocab: Vocab,
    versions: Vec<VersionInfo>,
    snapshots: Vec<TripleStore>,
    clock: u64,
    delta_cache: RwLock<FxHashMap<(VersionId, VersionId), Arc<LowLevelDelta>>>,
    schema_cache: RwLock<FxHashMap<VersionId, Arc<SchemaView>>>,
    substrate_cache: RwLock<FxHashMap<VersionId, Arc<VersionSubstrate>>>,
    delta_computations: AtomicU64,
    substrate_computations: AtomicU64,
}

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionedStore {
    /// An empty history with the core vocabulary pre-interned.
    pub fn new() -> VersionedStore {
        let mut interner = TermInterner::new();
        let vocab = Vocab::install(&mut interner);
        VersionedStore {
            interner,
            vocab,
            versions: Vec::new(),
            snapshots: Vec::new(),
            clock: 0,
            delta_cache: RwLock::new(FxHashMap::default()),
            schema_cache: RwLock::new(FxHashMap::default()),
            substrate_cache: RwLock::new(FxHashMap::default()),
            delta_computations: AtomicU64::new(0),
            substrate_computations: AtomicU64::new(0),
        }
    }

    /// Intern a term into the shared dictionary.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.interner.intern(term)
    }

    /// Intern an IRI into the shared dictionary.
    pub fn intern_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.interner.intern_iri(iri)
    }

    /// The shared interner.
    pub fn interner(&self) -> &TermInterner {
        &self.interner
    }

    /// Mutable access to the shared interner.
    pub fn interner_mut(&mut self) -> &mut TermInterner {
        &mut self.interner
    }

    /// The pre-interned vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Advance the logical commit clock by `ticks` without committing —
    /// modelling idle wall-clock time a quiet stream spends between
    /// epochs. The next commit's timestamp lands after the gap, so
    /// time-anchored consumers (`Since`, wall-clock sliding bands) see
    /// history age even while no version lands.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.clock = self.clock.saturating_add(ticks);
    }

    /// The logical commit clock (the timestamp the *next* commit will
    /// exceed).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Commit a full snapshot as the next version; returns its id.
    pub fn commit_snapshot(
        &mut self,
        label: impl Into<String>,
        snapshot: TripleStore,
    ) -> VersionId {
        let id = VersionId::from_u32(self.versions.len() as u32);
        self.clock += 1;
        self.versions.push(VersionInfo {
            id,
            label: label.into(),
            timestamp: self.clock,
            parent: id.predecessor(),
            triple_count: snapshot.len(),
        });
        self.snapshots.push(snapshot);
        id
    }

    /// Commit the next version by applying `delta` to the current head
    /// (an empty base if the history is empty); returns the new id.
    /// The handle itself is memoised as the delta `head → new`, so a
    /// caller keeping `delta` shares it with the store, uncopied.
    pub fn commit_delta(
        &mut self,
        label: impl Into<String>,
        delta: Arc<LowLevelDelta>,
    ) -> VersionId {
        let base = match self.head() {
            Some(head) => self.snapshots[head.index()].clone(),
            None => TripleStore::new(),
        };
        let next = delta.apply(base);
        let id = self.commit_snapshot(label, next);
        if let Some(prev) = id.predecessor() {
            self.delta_cache.write().insert((prev, id), delta);
        }
        id
    }

    /// The most recently committed version.
    pub fn head(&self) -> Option<VersionId> {
        self.versions.last().map(|v| v.id)
    }

    /// All version metadata, oldest first.
    pub fn versions(&self) -> &[VersionInfo] {
        &self.versions
    }

    /// Number of committed versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// The snapshot of `version`.
    ///
    /// # Panics
    /// Panics if `version` was not committed to this store.
    pub fn snapshot(&self, version: VersionId) -> &TripleStore {
        &self.snapshots[version.index()]
    }

    /// The snapshot of `version`, or `None` if unknown.
    pub fn try_snapshot(&self, version: VersionId) -> Option<&TripleStore> {
        self.snapshots.get(version.index())
    }

    /// The low-level delta for the evolution `from` → `to`. The idle
    /// step `v → v` is the empty delta, returned without a snapshot
    /// diff. The memo holds two kinds of entries: each epoch's delta,
    /// stored by [`commit_delta`](VersionedStore::commit_delta), and
    /// every pair this method diffed itself. A live view's span delta
    /// is held by the view, never here.
    ///
    /// # Panics
    /// Panics if either version is unknown.
    pub fn delta(&self, from: VersionId, to: VersionId) -> Arc<LowLevelDelta> {
        if from == to {
            assert!(
                self.try_snapshot(from).is_some(),
                "delta of unknown version {from}"
            );
            return Arc::new(LowLevelDelta::new());
        }
        if let Some(hit) = self.delta_cache.read().get(&(from, to)) {
            return Arc::clone(hit);
        }
        self.delta_computations.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(LowLevelDelta::compute(
            self.snapshot(from),
            self.snapshot(to),
        ));
        self.delta_cache
            .write()
            .insert((from, to), Arc::clone(&computed));
        computed
    }

    /// How many deltas have been computed by diffing two snapshots (the
    /// O(|V1| + |V2|) path), as opposed to served from the memo. The
    /// multi-window serving tests and benches watch this counter to
    /// prove that live views advance their span deltas in place and
    /// build their contexts over them instead of re-diffing.
    pub fn delta_computations(&self) -> u64 {
        self.delta_computations.load(Ordering::Relaxed)
    }

    /// The graph substrate of `version` — its class graph, centralities
    /// and snapshot digests — built once and shared by every evolution
    /// step over the version. Concurrent first requests for one version
    /// build it once and receive the same handle.
    ///
    /// # Panics
    /// Panics if `version` is unknown.
    pub fn substrate(&self, version: VersionId) -> Arc<VersionSubstrate> {
        if let Some(hit) = self.substrate_cache.read().get(&version) {
            return Arc::clone(hit);
        }
        let view = self.schema_view(version);
        let mut cache = self.substrate_cache.write();
        let substrate = cache.entry(version).or_insert_with(|| {
            self.substrate_computations.fetch_add(1, Ordering::Relaxed);
            Arc::new(VersionSubstrate::new(SchemaGraph::from_schema_view(&view)))
        });
        Arc::clone(substrate)
    }

    /// How many version substrates have been built (class graphs
    /// extracted) — one per distinct version any context has spanned.
    /// An epoch stream served through any number of windows adds one
    /// per epoch: the new head's.
    pub fn substrate_computations(&self) -> u64 {
        self.substrate_computations.load(Ordering::Relaxed)
    }

    /// The salted content digest of `version`'s snapshot as the `end`
    /// of an evolution step, memoised in the version's
    /// [`substrate`](VersionedStore::substrate).
    ///
    /// # Panics
    /// Panics if `version` is unknown.
    pub fn snapshot_digest(&self, version: VersionId, end: StepEnd) -> u64 {
        self.substrate(version).digest(end, self.snapshot(version))
    }

    /// The schema view of `version` (memoised).
    ///
    /// # Panics
    /// Panics if `version` is unknown.
    pub fn schema_view(&self, version: VersionId) -> Arc<SchemaView> {
        if let Some(hit) = self.schema_cache.read().get(&version) {
            return Arc::clone(hit);
        }
        let computed = Arc::new(SchemaView::extract(self.snapshot(version), &self.vocab));
        self.schema_cache
            .write()
            .insert(version, Arc::clone(&computed));
        computed
    }

    /// Total triples across all snapshots (storage accounting).
    pub fn total_stored_triples(&self) -> usize {
        self.snapshots.iter().map(TripleStore::len).sum()
    }
}

impl std::fmt::Debug for VersionedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedStore")
            .field("versions", &self.versions.len())
            .field("terms", &self.interner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::Triple;

    fn fixture() -> (VersionedStore, TermId, TermId, TermId) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/a");
        let p = vs.intern_iri("http://x/p");
        let b = vs.intern_iri("http://x/b");
        (vs, a, p, b)
    }

    #[test]
    fn commit_snapshot_assigns_dense_ids() {
        let (mut vs, a, p, b) = fixture();
        let v0 = vs.commit_snapshot("empty", TripleStore::new());
        let v1 = vs.commit_snapshot("one", TripleStore::from_triples([Triple::new(a, p, b)]));
        assert_eq!(v0.index(), 0);
        assert_eq!(v1.index(), 1);
        assert_eq!(vs.head(), Some(v1));
        assert_eq!(vs.version_count(), 2);
        assert_eq!(vs.versions()[1].parent, Some(v0));
        assert_eq!(vs.versions()[1].triple_count, 1);
        assert!(vs.versions()[0].timestamp < vs.versions()[1].timestamp);
    }

    #[test]
    fn commit_delta_applies_to_head() {
        let (mut vs, a, p, b) = fixture();
        vs.commit_snapshot("empty", TripleStore::new());
        let d = LowLevelDelta::from_parts([Triple::new(a, p, b)], []);
        let v1 = vs.commit_delta("add one", Arc::new(d));
        assert_eq!(vs.snapshot(v1).len(), 1);
        assert!(vs.snapshot(v1).contains(&Triple::new(a, p, b)));
    }

    #[test]
    fn commit_delta_on_empty_history_starts_from_nothing() {
        let (mut vs, a, p, b) = fixture();
        let d = LowLevelDelta::from_parts([Triple::new(a, p, b)], []);
        let v0 = vs.commit_delta("genesis", Arc::new(d));
        assert_eq!(v0.index(), 0);
        assert_eq!(vs.snapshot(v0).len(), 1);
    }

    #[test]
    fn delta_is_memoised_and_correct() {
        let (mut vs, a, p, b) = fixture();
        let v0 = vs.commit_snapshot("empty", TripleStore::new());
        let v1 = vs.commit_snapshot("one", TripleStore::from_triples([Triple::new(a, p, b)]));
        let d1 = vs.delta(v0, v1);
        let d2 = vs.delta(v0, v1);
        assert!(Arc::ptr_eq(&d1, &d2), "second call must hit the cache");
        assert_eq!(d1.added_count(), 1);
        assert_eq!(d1.removed_count(), 0);
        // Reverse direction computed independently.
        let back = vs.delta(v1, v0);
        assert_eq!(back.removed_count(), 1);
    }

    #[test]
    fn idle_delta_is_empty_without_a_diff() {
        let (mut vs, a, p, b) = fixture();
        let v0 = vs.commit_snapshot("one", TripleStore::from_triples([Triple::new(a, p, b)]));
        assert!(vs.delta(v0, v0).is_empty());
        assert_eq!(vs.delta_computations(), 0, "v → v never diffs");
    }

    #[test]
    #[should_panic(expected = "unknown version")]
    fn idle_delta_of_unknown_version_panics() {
        let (vs, ..) = fixture();
        vs.delta(VersionId::from_u32(0), VersionId::from_u32(0));
    }

    #[test]
    fn substrate_is_memoised_per_version() {
        let (mut vs, a, _p, b) = fixture();
        let vocab = *vs.vocab();
        let v0 = vs.commit_snapshot(
            "schema",
            TripleStore::from_triples([Triple::new(a, vocab.rdfs_subclassof, b)]),
        );
        let v1 = vs.commit_snapshot("empty", TripleStore::new());
        let s1 = vs.substrate(v0);
        let s2 = vs.substrate(v0);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.graph().node_count(), 2);
        assert_eq!(vs.substrate(v1).graph().node_count(), 0);
        assert_eq!(vs.substrate_computations(), 2);
        // The two ends salt their digests apart, and each is stable.
        let from = vs.snapshot_digest(v0, StepEnd::From);
        assert_ne!(from, vs.snapshot_digest(v0, StepEnd::To));
        assert_eq!(from, vs.snapshot_digest(v0, StepEnd::From));
        assert_eq!(vs.substrate_computations(), 2, "digests ride the substrate");
    }

    #[test]
    fn commit_delta_seeds_cache() {
        let (mut vs, a, p, b) = fixture();
        let v0 = vs.commit_snapshot("empty", TripleStore::new());
        let d = Arc::new(LowLevelDelta::from_parts([Triple::new(a, p, b)], []));
        let v1 = vs.commit_delta("add", Arc::clone(&d));
        assert!(Arc::ptr_eq(&vs.delta(v0, v1), &d), "memoised uncopied");
        assert_eq!(vs.delta_computations(), 0);
    }

    #[test]
    fn schema_view_is_memoised() {
        let (mut vs, a, _p, b) = fixture();
        let vocab = *vs.vocab();
        let mut snap = TripleStore::new();
        snap.insert(Triple::new(a, vocab.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("schema", snap);
        let s1 = vs.schema_view(v0);
        let s2 = vs.schema_view(v0);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert!(s1.is_class(a));
        assert!(s1.is_class(b));
    }

    #[test]
    fn try_snapshot_handles_unknown() {
        let (vs, ..) = fixture();
        assert!(vs.try_snapshot(VersionId::from_u32(0)).is_none());
    }

    #[test]
    fn total_stored_triples_sums_snapshots() {
        let (mut vs, a, p, b) = fixture();
        vs.commit_snapshot("one", TripleStore::from_triples([Triple::new(a, p, b)]));
        vs.commit_snapshot(
            "two",
            TripleStore::from_triples([Triple::new(a, p, b), Triple::new(b, p, a)]),
        );
        assert_eq!(vs.total_stored_triples(), 3);
    }
}
