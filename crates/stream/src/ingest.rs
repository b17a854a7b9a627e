//! The ingestor: micro-batches change events into committed epochs.
//!
//! Events accumulate in a pending overlay keyed by triple, where the
//! *last* event for a triple wins (sequential semantics: assert → retract
//! nets to "absent"). [`Ingestor::commit_epoch`] normalises the overlay
//! against the head snapshot into a [`LowLevelDelta`] that equals what
//! [`LowLevelDelta::compute`] would return between the two snapshots —
//! so the version history, its memoised delta cache, and every context
//! fingerprint are indistinguishable from a batch-built history — then
//! commits it as the next version and documents the commit in a
//! [`ProvenanceLedger`].

use crate::event::{ChangeEvent, ChangeOp};
use evorec_kb::{FxHashMap, FxHashSet, Triple, TripleStore};
use evorec_versioning::{
    Justification, LowLevelDelta, ProvenanceLedger, RecordId, VersionId, VersionedStore,
};
use std::sync::Arc;

/// Tunables of an [`Ingestor`].
#[derive(Clone, Debug)]
pub struct IngestorConfig {
    /// Target events per epoch; [`StreamPipeline`](crate::StreamPipeline)
    /// commits once this many are pending (a drained event log also
    /// triggers a commit, so quiet streams still make progress). The
    /// pipeline drains at most this many events per pop and checks
    /// after each pop, so one epoch holds at most `2·max_batch − 1`
    /// events, and a stream of `2·max_batch` or more commits at least
    /// two epochs.
    pub max_batch: usize,
    /// Prefix of generated version labels (`"<prefix>-<n>"`).
    pub label_prefix: String,
    /// Justification recorded for epoch commits.
    pub justification: Justification,
}

impl Default for IngestorConfig {
    fn default() -> Self {
        IngestorConfig {
            max_batch: 256,
            label_prefix: "epoch".into(),
            justification: Justification::Observation,
        }
    }
}

/// Cumulative counters of an [`Ingestor`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events folded into the pending overlay.
    pub events: u64,
    /// Events that overwrote an earlier pending event for the same
    /// triple (coalescing; includes assert/retract cancellations).
    pub coalesced: u64,
    /// Pending entries dropped at commit because they matched the head
    /// snapshot (asserting a present triple, retracting an absent one).
    pub no_ops: u64,
    /// Epochs committed.
    pub epochs: u64,
}

impl evorec_obs::MetricsSource for IngestStats {
    /// `IngestStats` is a `Copy` point-in-time snapshot (the live
    /// [`Ingestor`] is owned by the pipeline's worker thread), so
    /// register one *after* shutdown to fold the final ingest counters
    /// into a unified snapshot.
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_ingest_events_total",
            self.events,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_ingest_coalesced_total",
            self.coalesced,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_ingest_no_ops_total",
            self.no_ops,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_ingest_epochs_total",
            self.epochs,
        ));
    }
}

/// The result of one epoch commit.
#[derive(Clone, Debug)]
pub struct EpochCommit {
    /// The committed version.
    pub version: VersionId,
    /// The normalised delta the epoch applied — exactly the delta
    /// between the previous head and `version`.
    pub delta: Arc<LowLevelDelta>,
    /// Events folded into this epoch (before coalescing).
    pub events: usize,
    /// The provenance record documenting the commit.
    pub record: RecordId,
}

/// Turns a stream of [`ChangeEvent`]s into committed versions of a
/// [`VersionedStore`], with provenance capture.
pub struct Ingestor {
    store: VersionedStore,
    ledger: ProvenanceLedger,
    config: IngestorConfig,
    /// Desired final presence per touched triple (last event wins).
    pending: FxHashMap<Triple, bool>,
    pending_events: usize,
    /// Distinct actors of the pending batch, in first-seen order (the
    /// set mirrors the vec for O(1) dedup on many-producer streams).
    pending_actors: Vec<Arc<str>>,
    pending_actor_set: FxHashSet<Arc<str>>,
    stats: IngestStats,
}

impl Ingestor {
    /// An ingestor over an empty history: the first epoch commit
    /// creates V0 from nothing.
    pub fn new(config: IngestorConfig) -> Ingestor {
        Ingestor::from_store(VersionedStore::new(), config)
    }

    /// Adopt an existing history; epochs extend its head.
    pub fn from_store(store: VersionedStore, config: IngestorConfig) -> Ingestor {
        Ingestor {
            store,
            ledger: ProvenanceLedger::new(),
            config,
            pending: FxHashMap::default(),
            pending_events: 0,
            pending_actors: Vec::new(),
            pending_actor_set: FxHashSet::default(),
            stats: IngestStats::default(),
        }
    }

    /// A fresh history seeded with `base` committed as V0 (documented
    /// in the ledger as a seed import by `actor`).
    pub fn seeded(base: TripleStore, actor: &str, config: IngestorConfig) -> Ingestor {
        let mut ingestor = Ingestor::new(config);
        let delta = Arc::new(LowLevelDelta::from_parts(base.iter(), []));
        let version = ingestor.store.commit_delta("seed", Arc::clone(&delta));
        ingestor.ledger.record_commit(
            actor,
            "seed-import",
            None,
            version,
            &delta,
            Justification::BeliefAdoption,
            "base snapshot adopted at stream start",
        );
        ingestor
    }

    /// Fold one event into the pending overlay (nothing is committed
    /// until [`commit_epoch`](Ingestor::commit_epoch)).
    pub fn ingest(&mut self, event: ChangeEvent) {
        let present = event.op == ChangeOp::Assert;
        if self.pending.insert(event.triple, present).is_some() {
            self.stats.coalesced += 1;
        }
        if self.pending_actor_set.insert(Arc::clone(&event.actor)) {
            self.pending_actors.push(event.actor);
        }
        self.pending_events += 1;
        self.stats.events += 1;
    }

    /// Fold a batch of events, in order.
    pub fn ingest_all(&mut self, events: impl IntoIterator<Item = ChangeEvent>) {
        for event in events {
            self.ingest(event);
        }
    }

    /// Number of events pending (before coalescing).
    pub fn pending_events(&self) -> usize {
        self.pending_events
    }

    /// The delta the next [`commit_epoch`](Ingestor::commit_epoch)
    /// would apply: the pending overlay normalised against the head
    /// snapshot (pending no-ops excluded).
    pub fn pending_delta(&self) -> LowLevelDelta {
        let (delta, _) = self.normalised_pending();
        delta
    }

    /// Split the overlay into (normalised delta, no-op count) against
    /// the current head.
    fn normalised_pending(&self) -> (LowLevelDelta, u64) {
        let empty = TripleStore::new();
        let head = match self.store.head() {
            Some(h) => self.store.snapshot(h),
            None => &empty,
        };
        let mut added = TripleStore::new();
        let mut removed = TripleStore::new();
        let mut no_ops = 0;
        for (&triple, &present) in self.pending.iter() {
            match (present, head.contains(&triple)) {
                (true, false) => {
                    added.insert(triple);
                }
                (false, true) => {
                    removed.insert(triple);
                }
                _ => no_ops += 1,
            }
        }
        (LowLevelDelta { added, removed }, no_ops)
    }

    /// Commit the pending overlay as the next version, record its
    /// provenance, and clear the overlay. Returns `None` — committing
    /// nothing — when the overlay is empty or nets to a no-op against
    /// the head (the overlay is still cleared and counted).
    pub fn commit_epoch(&mut self) -> Option<EpochCommit> {
        if self.pending.is_empty() {
            return None;
        }
        let (delta, no_ops) = self.normalised_pending();
        self.stats.no_ops += no_ops;
        let events = self.pending_events;
        let actors = std::mem::take(&mut self.pending_actors);
        self.pending_actor_set.clear();
        self.pending.clear();
        self.pending_events = 0;
        if delta.is_empty() {
            return None;
        }
        let previous = self.store.head();
        let label = format!("{}-{}", self.config.label_prefix, self.stats.epochs);
        let delta = Arc::new(delta);
        let version = self.store.commit_delta(label, Arc::clone(&delta));
        let actor = match actors.len() {
            0 => "unknown".to_string(),
            1 => actors[0].to_string(),
            n => format!("{} (+{} more)", actors[0], n - 1),
        };
        let record = self.ledger.record_commit(
            actor,
            "stream-epoch",
            previous,
            version,
            &delta,
            self.config.justification,
            format!("micro-batch of {events} events"),
        );
        self.stats.epochs += 1;
        Some(EpochCommit {
            version,
            delta,
            events,
            record,
        })
    }

    /// The versioned store the epochs commit into.
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Advance the store's logical commit clock without committing —
    /// a quiet stream ageing its history (see
    /// [`VersionedStore::advance_clock`]). Time-anchored serving
    /// windows narrow over the gap; epoch-counted ones are unaffected.
    pub fn advance_clock(&mut self, ticks: u64) {
        self.store.advance_clock(ticks);
    }

    /// The provenance ledger documenting every epoch.
    pub fn ledger(&self) -> &ProvenanceLedger {
        &self.ledger
    }

    /// The most recently committed version.
    pub fn head(&self) -> Option<VersionId> {
        self.store.head()
    }

    /// The active configuration.
    pub fn config(&self) -> &IngestorConfig {
        &self.config
    }

    /// Cumulative counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Tear down into the history and ledger.
    pub fn into_parts(self) -> (VersionedStore, ProvenanceLedger) {
        (self.store, self.ledger)
    }
}

impl std::fmt::Debug for Ingestor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingestor")
            .field("head", &self.store.head())
            .field("pending_events", &self.pending_events)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TermId;

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(
            TermId::from_u32(s),
            TermId::from_u32(p),
            TermId::from_u32(o),
        )
    }

    #[test]
    fn first_epoch_creates_v0() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.ingest(ChangeEvent::assert(tr(4, 5, 6), "a"));
        let commit = ing.commit_epoch().expect("non-empty epoch");
        assert_eq!(commit.version.index(), 0);
        assert_eq!(commit.events, 2);
        assert_eq!(ing.store().snapshot(commit.version).len(), 2);
        assert_eq!(ing.stats().epochs, 1);
    }

    #[test]
    fn last_event_wins_per_triple() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        // assert → retract nets to absent…
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.ingest(ChangeEvent::retract(tr(1, 2, 3), "a"));
        // …retract → assert nets to present.
        ing.ingest(ChangeEvent::retract(tr(4, 5, 6), "a"));
        ing.ingest(ChangeEvent::assert(tr(4, 5, 6), "a"));
        assert_eq!(ing.stats().coalesced, 2);
        let commit = ing.commit_epoch().expect("one real addition");
        let snap = ing.store().snapshot(commit.version);
        assert!(!snap.contains(&tr(1, 2, 3)));
        assert!(snap.contains(&tr(4, 5, 6)));
    }

    #[test]
    fn retract_after_redundant_assert_removes() {
        // Sequential semantics that naïve set-coalescing gets wrong:
        // head contains t, events are assert(t) (redundant) then
        // retract(t) — the final state must NOT contain t.
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.commit_epoch().unwrap();
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.ingest(ChangeEvent::retract(tr(1, 2, 3), "a"));
        let commit = ing.commit_epoch().expect("net removal");
        assert!(!ing.store().snapshot(commit.version).contains(&tr(1, 2, 3)));
        assert_eq!(commit.delta.removed_count(), 1);
        assert_eq!(commit.delta.added_count(), 0);
    }

    #[test]
    fn committed_delta_is_normalised_against_head() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.commit_epoch().unwrap();
        // Redundant assert + real addition + phantom retraction.
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.ingest(ChangeEvent::assert(tr(4, 5, 6), "a"));
        ing.ingest(ChangeEvent::retract(tr(7, 8, 9), "a"));
        let commit = ing.commit_epoch().expect("one real change");
        assert_eq!(commit.delta.added_count(), 1);
        assert_eq!(commit.delta.removed_count(), 0);
        assert_eq!(ing.stats().no_ops, 2);
        // The committed delta agrees with a fresh recomputation, and
        // the store memoises the very handle the commit hands out.
        let v0 = VersionId::from_u32(0);
        let recomputed = LowLevelDelta::compute(
            ing.store().snapshot(v0),
            ing.store().snapshot(commit.version),
        );
        assert_eq!(commit.delta.as_ref(), &recomputed);
        assert!(Arc::ptr_eq(&ing.store().delta(v0, commit.version), &commit.delta));
        assert_eq!(ing.store().delta_computations(), 0);
    }

    #[test]
    fn all_no_op_epoch_commits_nothing() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.commit_epoch().unwrap();
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        ing.ingest(ChangeEvent::retract(tr(9, 9, 9), "a"));
        assert!(ing.commit_epoch().is_none());
        assert_eq!(ing.store().version_count(), 1);
        assert_eq!(ing.pending_events(), 0, "overlay cleared regardless");
        // Empty overlay: also None, and nothing counted.
        assert!(ing.commit_epoch().is_none());
    }

    #[test]
    fn seeded_ingestor_starts_from_base() {
        let base = TripleStore::from_triples([tr(1, 2, 3), tr(4, 5, 6)]);
        let mut ing = Ingestor::seeded(base, "loader", IngestorConfig::default());
        assert_eq!(ing.store().version_count(), 1);
        assert_eq!(ing.store().snapshot(VersionId::from_u32(0)).len(), 2);
        assert_eq!(ing.ledger().records().len(), 1);
        ing.ingest(ChangeEvent::retract(tr(1, 2, 3), "curator"));
        let commit = ing.commit_epoch().unwrap();
        assert_eq!(ing.store().snapshot(commit.version).len(), 1);
    }

    #[test]
    fn provenance_names_actors_and_counts() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "alice"));
        ing.ingest(ChangeEvent::assert(tr(4, 5, 6), "bob"));
        ing.ingest(ChangeEvent::assert(tr(7, 8, 9), "alice"));
        let commit = ing.commit_epoch().unwrap();
        let records = ing.ledger().history_of_version(commit.version);
        assert_eq!(records.len(), 1);
        let record = records[0];
        assert_eq!(record.actor, "alice (+1 more)");
        assert_eq!(record.added_count, 3);
        assert_eq!(record.activity, "stream-epoch");
        assert!(record.note.contains("3 events"));
    }

    #[test]
    fn pending_delta_previews_without_committing() {
        let mut ing = Ingestor::new(IngestorConfig::default());
        ing.ingest(ChangeEvent::assert(tr(1, 2, 3), "a"));
        let preview = ing.pending_delta();
        assert_eq!(preview.added_count(), 1);
        assert_eq!(ing.store().version_count(), 0, "nothing committed");
        assert_eq!(ing.pending_events(), 1);
    }
}
