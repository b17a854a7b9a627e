//! Provenance capture for the transparency perspective (ICDE'17 §III(b)).
//!
//! Every commit is documented by a [`ProvenanceRecord`] answering the
//! paper's transparency questions — *who created this data item and when,
//! by whom was it modified, what process was used* — together with the
//! paper's three justification sources (*observation, inference, belief
//! adoption*). The [`ProvenanceLedger`] indexes records by version, actor,
//! and touched term so explanations can cite them in O(1) lookups.

use crate::delta::LowLevelDelta;
use crate::version::VersionId;
use evorec_kb::{FxHashMap, TermId};

/// Why a change is believed correct — the paper's three sources for
/// assessing correctness and reliability of provenance data.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Justification {
    /// Direct observation (e.g. new experimental evidence).
    Observation,
    /// Derived by inference from other data.
    Inference,
    /// Adopted from a trusted third party.
    BeliefAdoption,
}

impl std::fmt::Display for Justification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Justification::Observation => "observation",
            Justification::Inference => "inference",
            Justification::BeliefAdoption => "belief adoption",
        };
        f.write_str(s)
    }
}

/// Identifier of one provenance record within its ledger.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RecordId(pub u64);

/// One documented change activity.
#[derive(Clone, Debug)]
pub struct ProvenanceRecord {
    /// Ledger-local identifier.
    pub id: RecordId,
    /// Who performed the activity (curator, pipeline, sensor feed…).
    pub actor: String,
    /// What kind of activity it was (e.g. `"commit"`, `"import"`).
    pub activity: String,
    /// Logical timestamp (monotone per ledger).
    pub timestamp: u64,
    /// The version this activity generated.
    pub generated_version: VersionId,
    /// The version the activity consumed (its parent), if any.
    pub used_version: Option<VersionId>,
    /// How many triples the activity asserted.
    pub added_count: usize,
    /// How many triples the activity retracted.
    pub removed_count: usize,
    /// Why the change is believed correct.
    pub justification: Justification,
    /// Free-text note.
    pub note: String,
}

/// Append-only, indexed store of provenance records.
#[derive(Default, Clone, Debug)]
pub struct ProvenanceLedger {
    records: Vec<ProvenanceRecord>,
    by_version: FxHashMap<VersionId, Vec<usize>>,
    by_actor: FxHashMap<String, Vec<usize>>,
    by_term: FxHashMap<TermId, Vec<usize>>,
    clock: u64,
}

impl ProvenanceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a commit: `actor` performed `activity`, consuming
    /// `used_version` and generating `generated_version` with the given
    /// `delta`. Terms mentioned by the delta are indexed so
    /// [`ProvenanceLedger::history_of_term`] can answer "who changed X?".
    #[allow(clippy::too_many_arguments)]
    pub fn record_commit(
        &mut self,
        actor: impl Into<String>,
        activity: impl Into<String>,
        used_version: Option<VersionId>,
        generated_version: VersionId,
        delta: &LowLevelDelta,
        justification: Justification,
        note: impl Into<String>,
    ) -> RecordId {
        let id = RecordId(self.records.len() as u64);
        self.clock += 1;
        let record = ProvenanceRecord {
            id,
            actor: actor.into(),
            activity: activity.into(),
            timestamp: self.clock,
            generated_version,
            used_version,
            added_count: delta.added_count(),
            removed_count: delta.removed_count(),
            justification,
            note: note.into(),
        };
        let ix = self.records.len();
        self.by_version
            .entry(generated_version)
            .or_default()
            .push(ix);
        self.by_actor
            .entry(record.actor.clone())
            .or_default()
            .push(ix);
        let mut touched: Vec<TermId> = Vec::new();
        for t in delta.added.iter().chain(delta.removed.iter()) {
            touched.push(t.s);
            touched.push(t.p);
            touched.push(t.o);
        }
        touched.sort_unstable();
        touched.dedup();
        for term in touched {
            self.by_term.entry(term).or_default().push(ix);
        }
        self.records.push(record);
        id
    }

    /// Fetch a record by id.
    pub fn record(&self, id: RecordId) -> Option<&ProvenanceRecord> {
        self.records.get(id.0 as usize)
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[ProvenanceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records that generated `version`.
    pub fn history_of_version(&self, version: VersionId) -> Vec<&ProvenanceRecord> {
        self.lookup(&self.by_version, &version)
    }

    /// Records authored by `actor`.
    pub fn history_of_actor(&self, actor: &str) -> Vec<&ProvenanceRecord> {
        self.by_actor
            .get(actor)
            .map(|ixs| ixs.iter().map(|&ix| &self.records[ix]).collect())
            .unwrap_or_default()
    }

    /// Records whose delta touched `term`, oldest first — the paper's
    /// "by whom was the data item modified and when".
    pub fn history_of_term(&self, term: TermId) -> Vec<&ProvenanceRecord> {
        self.lookup(&self.by_term, &term)
    }

    /// The most recent record touching `term`, if any.
    pub fn last_touch(&self, term: TermId) -> Option<&ProvenanceRecord> {
        self.history_of_term(term).into_iter().next_back()
    }

    /// Histogram of justifications across all records.
    pub fn justification_histogram(&self) -> FxHashMap<Justification, usize> {
        let mut out = FxHashMap::default();
        for r in &self.records {
            *out.entry(r.justification).or_insert(0) += 1;
        }
        out
    }

    /// Approximate in-memory footprint of the ledger payload in bytes
    /// (records + index entries); used by the E9 overhead accounting.
    pub fn approx_bytes(&self) -> usize {
        let record_bytes: usize = self
            .records
            .iter()
            .map(|r| std::mem::size_of::<ProvenanceRecord>() + r.actor.len() + r.activity.len() + r.note.len())
            .sum();
        let index_entries: usize = self.by_version.values().map(Vec::len).sum::<usize>()
            + self.by_actor.values().map(Vec::len).sum::<usize>()
            + self.by_term.values().map(Vec::len).sum::<usize>();
        record_bytes + index_entries * std::mem::size_of::<usize>()
    }

    fn lookup<K: std::hash::Hash + Eq>(
        &self,
        index: &FxHashMap<K, Vec<usize>>,
        key: &K,
    ) -> Vec<&ProvenanceRecord> {
        index
            .get(key)
            .map(|ixs| ixs.iter().map(|&ix| &self.records[ix]).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TermId, Triple};

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(t(s), t(p), t(o))
    }

    fn ledger_with_two_commits() -> ProvenanceLedger {
        let mut ledger = ProvenanceLedger::new();
        let d1 = LowLevelDelta::from_parts([tr(1, 2, 3)], []);
        let d2 = LowLevelDelta::from_parts([tr(4, 5, 6)], [tr(1, 2, 3)]);
        ledger.record_commit(
            "alice",
            "import",
            None,
            VersionId::from_u32(0),
            &d1,
            Justification::Observation,
            "initial load",
        );
        ledger.record_commit(
            "bob",
            "curation",
            Some(VersionId::from_u32(0)),
            VersionId::from_u32(1),
            &d2,
            Justification::Inference,
            "cleanup",
        );
        ledger
    }

    #[test]
    fn records_are_timestamped_monotonically() {
        let ledger = ledger_with_two_commits();
        assert_eq!(ledger.len(), 2);
        assert!(ledger.records()[0].timestamp < ledger.records()[1].timestamp);
    }

    #[test]
    fn version_history_answers_who_and_when() {
        let ledger = ledger_with_two_commits();
        let h = ledger.history_of_version(VersionId::from_u32(1));
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].actor, "bob");
        assert_eq!(h[0].used_version, Some(VersionId::from_u32(0)));
        assert_eq!(h[0].added_count, 1);
        assert_eq!(h[0].removed_count, 1);
    }

    #[test]
    fn actor_history_filters() {
        let ledger = ledger_with_two_commits();
        assert_eq!(ledger.history_of_actor("alice").len(), 1);
        assert_eq!(ledger.history_of_actor("bob").len(), 1);
        assert!(ledger.history_of_actor("mallory").is_empty());
    }

    #[test]
    fn term_history_tracks_touches_in_order() {
        let ledger = ledger_with_two_commits();
        // Term 1 touched by both commits (added then removed).
        let h = ledger.history_of_term(t(1));
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].actor, "alice");
        assert_eq!(h[1].actor, "bob");
        assert_eq!(ledger.last_touch(t(1)).unwrap().actor, "bob");
        // Term 4 only in the second commit.
        assert_eq!(ledger.history_of_term(t(4)).len(), 1);
        // Untouched term.
        assert!(ledger.history_of_term(t(99)).is_empty());
        assert!(ledger.last_touch(t(99)).is_none());
    }

    #[test]
    fn justification_histogram_counts() {
        let ledger = ledger_with_two_commits();
        let h = ledger.justification_histogram();
        assert_eq!(h[&Justification::Observation], 1);
        assert_eq!(h[&Justification::Inference], 1);
        assert_eq!(h.get(&Justification::BeliefAdoption), None);
    }

    #[test]
    fn record_lookup_by_id() {
        let ledger = ledger_with_two_commits();
        let r = ledger.record(RecordId(0)).unwrap();
        assert_eq!(r.activity, "import");
        assert!(ledger.record(RecordId(9)).is_none());
    }

    #[test]
    fn approx_bytes_grows_with_records() {
        let empty = ProvenanceLedger::new();
        let full = ledger_with_two_commits();
        assert!(full.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    fn justification_display() {
        assert_eq!(Justification::Observation.to_string(), "observation");
        assert_eq!(Justification::BeliefAdoption.to_string(), "belief adoption");
    }
}
