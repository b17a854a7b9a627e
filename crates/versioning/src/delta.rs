//! Low-level deltas: the added / removed triple sets between two versions.
//!
//! Implements the δ of ICDE'17 §II(a): for an evolution V1 → V2,
//! `added` is δ⁺(V1,V2), `removed` is δ⁻(V1,V2), the delta size is
//! |δ| = |δ⁺| + |δ⁻|, and the per-class/property restriction δ(n) is
//! tallied for every term at once by [`LowLevelDelta::term_counts`].
//! [`LowLevelDelta::changes_for_term`] computes one term's δ(n) by
//! scanning both sides: the reference the tally is checked against.

use evorec_kb::{FxHashMap, TermId, Triple, TripleStore};

/// The added/removed triple sets of one evolution step.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct LowLevelDelta {
    /// Triples present in V2 but not V1 (δ⁺).
    pub added: TripleStore,
    /// Triples present in V1 but not V2 (δ⁻).
    pub removed: TripleStore,
}

impl LowLevelDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compute the delta between two snapshots (`v1` → `v2`).
    pub fn compute(v1: &TripleStore, v2: &TripleStore) -> LowLevelDelta {
        LowLevelDelta {
            added: v2.difference(v1).collect(),
            removed: v1.difference(v2).collect(),
        }
    }

    /// Build from explicit added/removed collections.
    pub fn from_parts(
        added: impl IntoIterator<Item = Triple>,
        removed: impl IntoIterator<Item = Triple>,
    ) -> LowLevelDelta {
        LowLevelDelta {
            added: added.into_iter().collect(),
            removed: removed.into_iter().collect(),
        }
    }

    /// |δ| = |δ⁺| + |δ⁻|.
    pub fn size(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// |δ⁺|.
    pub fn added_count(&self) -> usize {
        self.added.len()
    }

    /// |δ⁻|.
    pub fn removed_count(&self) -> usize {
        self.removed.len()
    }

    /// `true` if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// δ(n): the number of changed triples in which `term` appears
    /// (in any position, added or removed), by a scan of both sides.
    /// This is the per-term reference; a reader of δ(n) for many terms
    /// reads [`term_counts`](LowLevelDelta::term_counts) once instead.
    pub fn changes_for_term(&self, term: TermId) -> usize {
        self.added.mention_count(term) + self.removed.mention_count(term)
    }

    /// δ(n) of every term the delta mentions, tallied in one pass: each
    /// changed triple counts once for each distinct term it mentions, as
    /// [`changes_for_term`](LowLevelDelta::changes_for_term) counts it.
    /// A term absent from the table has δ(n) = 0.
    pub fn term_counts(&self) -> FxHashMap<TermId, usize> {
        let mut counts = FxHashMap::default();
        for t in self.added.iter().chain(self.removed.iter()) {
            *counts.entry(t.s).or_insert(0) += 1;
            if t.p != t.s {
                *counts.entry(t.p).or_insert(0) += 1;
            }
            if t.o != t.s && t.o != t.p {
                *counts.entry(t.o).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The changed triples mentioning `term`, tagged with whether each was
    /// added (`true`) or removed (`false`).
    pub fn triples_for_term(&self, term: TermId) -> Vec<(Triple, bool)> {
        let mut out: Vec<(Triple, bool)> = self
            .added
            .mentioning(term)
            .into_iter()
            .map(|t| (t, true))
            .chain(self.removed.mentioning(term).into_iter().map(|t| (t, false)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Apply this delta to `base`, producing the successor snapshot.
    /// `base` is taken by value and edited in place, so a caller that
    /// keeps the predecessor pays for the one copy it asks for.
    ///
    /// Removals are applied before additions so a triple present in both
    /// sets ends up present (matching set semantics of `compute`, which
    /// never produces overlapping sets).
    pub fn apply(&self, mut base: TripleStore) -> TripleStore {
        for t in self.removed.iter() {
            base.remove(&t);
        }
        base.extend(self.added.iter());
        base
    }

    /// The inverse delta (swapped added/removed): applying `d.invert()`
    /// after `d` restores the original snapshot.
    pub fn invert(&self) -> LowLevelDelta {
        LowLevelDelta {
            added: self.removed.clone(),
            removed: self.added.clone(),
        }
    }

    /// Extend this span delta by the step that follows it, in place:
    /// if `self` is `compute(S_a, S_b)` and `later` is
    /// `compute(S_b, S_c)`, `self` becomes `compute(S_a, S_c)`.
    ///
    /// Each triple of `later` either cancels its opposite entry here (a
    /// triple removed over the span and re-added by `later`, or added
    /// and then removed, is back to its state at `S_a`) or joins the
    /// matching side. Both deltas must be exact diffs, as `compute` and
    /// committed epoch deltas are; that makes membership in `self` the
    /// only test needed, so the cost is O(|later|) set operations
    /// however long the span. Serving windows and the pipeline's
    /// landmark span advance this way on every epoch.
    pub fn extend_by(&mut self, later: &LowLevelDelta) {
        self.toggle(&later.added, &later.removed);
    }

    /// Strip the step at the front of this span delta, in place: if
    /// `self` is `compute(S_a, S_c)` and `earliest` is
    /// `compute(S_a, S_b)`, `self` becomes `compute(S_b, S_c)`. This is
    /// a sliding window evicting its oldest epoch, in O(|earliest|).
    ///
    /// Stripping a leading step is extending the span backwards by the
    /// step's inverse, so the same membership rule applies with the
    /// step's sides swapped.
    pub fn strip_front(&mut self, earliest: &LowLevelDelta) {
        self.toggle(&earliest.removed, &earliest.added);
    }

    /// Fold one exact step into the span: each triple the step adds
    /// cancels a span removal or becomes a span addition, and each
    /// triple it removes cancels a span addition or becomes a span
    /// removal.
    fn toggle(&mut self, added: &TripleStore, removed: &TripleStore) {
        for t in added.iter() {
            if !self.removed.remove(&t) {
                self.added.insert(t);
            }
        }
        for t in removed.iter() {
            if !self.added.remove(&t) {
                self.removed.insert(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TermId;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(t(s), t(p), t(o))
    }

    fn snapshots() -> (TripleStore, TripleStore) {
        let v1 = TripleStore::from_triples([tr(1, 10, 2), tr(2, 10, 3), tr(3, 11, 4)]);
        let v2 = TripleStore::from_triples([tr(1, 10, 2), tr(2, 10, 5), tr(6, 12, 7)]);
        (v1, v2)
    }

    #[test]
    fn compute_splits_added_and_removed() {
        let (v1, v2) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v2);
        assert_eq!(d.added_count(), 2);
        assert_eq!(d.removed_count(), 2);
        assert_eq!(d.size(), 4);
        assert!(d.added.contains(&tr(2, 10, 5)));
        assert!(d.added.contains(&tr(6, 12, 7)));
        assert!(d.removed.contains(&tr(2, 10, 3)));
        assert!(d.removed.contains(&tr(3, 11, 4)));
    }

    #[test]
    fn identical_snapshots_give_empty_delta() {
        let (v1, _) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v1);
        assert!(d.is_empty());
        assert_eq!(d.size(), 0);
    }

    #[test]
    fn apply_reconstructs_successor() {
        let (v1, v2) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v2);
        assert_eq!(d.apply(v1.clone()), v2);
    }

    #[test]
    fn invert_roundtrips() {
        let (v1, v2) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v2);
        assert_eq!(d.invert().apply(v2), v1);
        assert_eq!(d.invert().invert(), d);
    }

    #[test]
    fn changes_for_term_counts_mentions_on_both_sides() {
        let (v1, v2) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v2);
        // term 2: removed (2,10,3), added (2,10,5) → 2 changes.
        assert_eq!(d.changes_for_term(t(2)), 2);
        // term 10 (predicate): same two triples.
        assert_eq!(d.changes_for_term(t(10)), 2);
        // untouched term 1: (1,10,2) unchanged → 0.
        assert_eq!(d.changes_for_term(t(1)), 0);
        // term never present.
        assert_eq!(d.changes_for_term(t(99)), 0);
    }

    #[test]
    fn term_counts_tally_what_changes_for_term_scans() {
        let (v1, v2) = snapshots();
        let mut d = LowLevelDelta::compute(&v1, &v2);
        // A reflexive triple mentions its one term once.
        d.added.insert(tr(8, 8, 8));
        let counts = d.term_counts();
        assert_eq!(counts.get(&t(8)), Some(&1));
        assert!(!counts.contains_key(&t(1)), "unchanged terms are absent");
        for term in (0..12).map(t) {
            let tallied = counts.get(&term).copied().unwrap_or(0);
            assert_eq!(tallied, d.changes_for_term(term), "{term:?}");
        }
    }

    #[test]
    fn triples_for_term_tags_direction() {
        let (v1, v2) = snapshots();
        let d = LowLevelDelta::compute(&v1, &v2);
        let got = d.triples_for_term(t(2));
        assert_eq!(got, vec![(tr(2, 10, 3), false), (tr(2, 10, 5), true)]);
    }

    #[test]
    fn extend_by_matches_sequential_application() {
        let (v1, v2) = snapshots();
        let v3 = TripleStore::from_triples([tr(1, 10, 2), tr(6, 12, 7), tr(8, 13, 9)]);
        let mut span = LowLevelDelta::compute(&v1, &v2);
        span.extend_by(&LowLevelDelta::compute(&v2, &v3));
        assert_eq!(span.apply(v1.clone()), v3);
        // The extended span stays exact: added/removed are disjoint.
        for triple in span.added.iter() {
            assert!(!span.removed.contains(&triple));
        }
        assert_eq!(span, LowLevelDelta::compute(&v1, &v3));
    }

    #[test]
    fn extend_by_add_then_remove_nets_to_nothing() {
        // A triple absent at both ends of the span — added by one step,
        // removed by the next — leaves no trace in either direction.
        let s0 = TripleStore::from_triples([tr(4, 5, 6)]);
        let s1 = TripleStore::from_triples([tr(1, 2, 3), tr(4, 5, 6)]);
        let mut span = LowLevelDelta::compute(&s0, &s1);
        span.extend_by(&LowLevelDelta::compute(&s1, &s0));
        assert!(span.is_empty());
        assert_eq!(span.apply(s0.clone()), s0);
    }

    #[test]
    fn extend_by_equals_direct_compute() {
        // S0 → S1 removes (1,2,3); S1 → S2 re-adds it. The span's
        // endpoints both contain it, so the extended span must not
        // carry it at all.
        let s0 = TripleStore::from_triples([tr(1, 2, 3), tr(4, 5, 6)]);
        let s1 = TripleStore::from_triples([tr(4, 5, 6)]);
        let s2 = TripleStore::from_triples([tr(1, 2, 3), tr(7, 8, 9)]);
        let mut span = LowLevelDelta::compute(&s0, &s1);
        span.extend_by(&LowLevelDelta::compute(&s1, &s2));
        assert!(!span.added.contains(&tr(1, 2, 3)));
        assert_eq!(span, LowLevelDelta::compute(&s0, &s2));
        // Extending by the idle step is the identity.
        let direct = LowLevelDelta::compute(&s0, &s2);
        let mut idle = direct.clone();
        idle.extend_by(&LowLevelDelta::new());
        assert_eq!(idle, direct);
    }

    #[test]
    fn strip_front_strips_cleanly_for_sliding_windows() {
        // The sliding-window advance: stripping the evicted epoch d01
        // off d02 yields exactly compute(S1, S2).
        let s0 = TripleStore::from_triples([tr(1, 2, 3), tr(4, 5, 6)]);
        let s1 = TripleStore::from_triples([tr(4, 5, 6), tr(7, 8, 9)]);
        let s2 = TripleStore::from_triples([tr(1, 2, 3), tr(7, 8, 9)]);
        let d01 = LowLevelDelta::compute(&s0, &s1);
        let mut span = d01.clone();
        span.extend_by(&LowLevelDelta::compute(&s1, &s2));
        assert_eq!(span, LowLevelDelta::compute(&s0, &s2));
        span.strip_front(&d01);
        assert_eq!(span, LowLevelDelta::compute(&s1, &s2));
        // Stripping the only step leaves the idle span.
        let mut single = d01.clone();
        single.strip_front(&d01);
        assert!(single.is_empty());
    }

    #[test]
    fn from_parts_collapses_duplicates() {
        let d = LowLevelDelta::from_parts([tr(1, 2, 3), tr(1, 2, 3)], []);
        assert_eq!(d.added_count(), 1);
    }
}
