//! Triple store: one ordered set of triples.

use crate::fxhash::FxHasher;
use crate::term::TermId;
use crate::triple::{Triple, TriplePattern};
use std::collections::BTreeSet;
use std::hash::Hasher;

/// An in-memory triple store: one B-tree set of triples in SPO order.
///
/// A read with a bound subject is a range scan; any other read filters
/// the whole set:
///
/// | bound              | read                          |
/// |--------------------|-------------------------------|
/// | s / s,o            | range (s), then filter on o   |
/// | s,p / s,p,o        | range (s,p) / (s,p,o)         |
/// | no subject         | filtered scan of every triple |
///
/// The store is the snapshot, delta and span representation of the
/// versioning layer, which clones, edits and diffs stores on every
/// epoch and reads a pattern without a subject rarely, so one set is
/// kept rather than one per access order. Ordered iteration makes
/// snapshot diffing a linear merge.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct TripleStore {
    spo: BTreeSet<Triple>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an iterator of triples (duplicates collapse).
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        TripleStore {
            spo: triples.into_iter().collect(),
        }
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.spo.insert(t)
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        self.spo.remove(t)
    }

    /// Insert every triple from `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) {
        self.spo.extend(iter);
    }

    /// `true` if the exact triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(t)
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// `true` if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterate all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().copied()
    }

    /// Iterate triples matching `pattern`, in SPO order: a range scan
    /// when the subject is bound, a filtered scan otherwise.
    pub fn match_pattern(&self, pattern: TriplePattern) -> Box<dyn Iterator<Item = Triple> + '_> {
        let Some(s) = pattern.s else {
            return Box::new(self.iter().filter(move |t| pattern.matches(t)));
        };
        let (lo, hi) = match pattern.p {
            Some(p) => (
                Triple::new(s, p, pattern.o.unwrap_or(TermId::MIN)),
                Triple::new(s, p, pattern.o.unwrap_or(TermId::MAX)),
            ),
            None => (
                Triple::new(s, TermId::MIN, TermId::MIN),
                Triple::new(s, TermId::MAX, TermId::MAX),
            ),
        };
        Box::new(
            self.spo
                .range(lo..=hi)
                .copied()
                .filter(move |t| pattern.matches(t)),
        )
    }

    /// All triples whose predicate is `p`, ordered by (object, subject).
    /// A filtered scan, sorted so that callers which fill hash maps or
    /// change lists in this order get the same maps and lists whatever
    /// the store's own order.
    pub fn with_predicate(&self, p: TermId) -> impl Iterator<Item = Triple> {
        let mut out: Vec<Triple> = self.iter().filter(|t| t.p == p).collect();
        out.sort_unstable_by_key(|t| (t.o, t.s));
        out.into_iter()
    }

    /// Triples mentioning `term` in any position, each once, in SPO
    /// order (a filtered scan). This realises the δ(n) restriction of
    /// ICDE'17 §II(a) when applied to delta stores.
    pub fn mentioning(&self, term: TermId) -> Vec<Triple> {
        self.iter().filter(|t| t.mentions(term)).collect()
    }

    /// Number of triples mentioning `term` in any position, each counted
    /// once however many positions it holds `term` in.
    pub fn mention_count(&self, term: TermId) -> usize {
        self.iter().filter(|t| t.mentions(term)).count()
    }

    /// Order-independent content digest: the XOR of every triple's
    /// FxHash salted by `salt`, so the stores' iteration order cannot
    /// leak into it and different salts keep the digests of different
    /// roles (e.g. the two ends of an evolution step) apart.
    pub fn content_digest(&self, salt: u64) -> u64 {
        self.spo.iter().fold(0u64, |acc, t| {
            let mut h = FxHasher::default();
            h.write_u64(salt);
            h.write_u32(t.s.as_u32());
            h.write_u32(t.p.as_u32());
            h.write_u32(t.o.as_u32());
            acc ^ h.finish()
        })
    }

    /// Triples present in `self` but not in `other` (a set difference in
    /// SPO order; the building block of low-level deltas).
    pub fn difference<'a>(&'a self, other: &'a TripleStore) -> impl Iterator<Item = Triple> + 'a {
        self.spo.difference(&other.spo).copied()
    }
}

impl std::fmt::Debug for TripleStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripleStore")
            .field("len", &self.len())
            .finish()
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        TripleStore::from_triples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(t(s), t(p), t(o))
    }

    fn sample() -> TripleStore {
        TripleStore::from_triples([
            tr(1, 10, 2),
            tr(1, 10, 3),
            tr(1, 11, 2),
            tr(2, 10, 3),
            tr(3, 12, 1),
        ])
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = TripleStore::new();
        assert!(s.insert(tr(1, 2, 3)));
        assert!(!s.insert(tr(1, 2, 3)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.match_pattern(TriplePattern::with_predicate(t(2))).count(), 1);
        assert_eq!(s.match_pattern(TriplePattern::with_object(t(3))).count(), 1);
    }

    #[test]
    fn remove_is_seen_by_every_read() {
        let mut s = sample();
        assert!(s.remove(&tr(1, 10, 2)));
        assert!(!s.remove(&tr(1, 10, 2)));
        assert!(!s.contains(&tr(1, 10, 2)));
        assert_eq!(s.match_pattern(TriplePattern::with_subject(t(1))).count(), 2);
        assert_eq!(s.match_pattern(TriplePattern::with_object(t(2))).count(), 1);
    }

    #[test]
    fn pattern_all_positions() {
        let s = sample();
        assert_eq!(s.match_pattern(TriplePattern::ANY).count(), 5);
        assert_eq!(s.match_pattern(TriplePattern::with_subject(t(1))).count(), 3);
        assert_eq!(s.match_pattern(TriplePattern::with_predicate(t(10))).count(), 3);
        assert_eq!(s.match_pattern(TriplePattern::with_object(t(3))).count(), 2);
    }

    #[test]
    fn pattern_two_bound() {
        let s = sample();
        let sp = TriplePattern::new(Some(t(1)), Some(t(10)), None);
        assert_eq!(s.match_pattern(sp).count(), 2);
        let po = TriplePattern::new(None, Some(t(10)), Some(t(3)));
        let got: Vec<_> = s.match_pattern(po).collect();
        assert_eq!(got, vec![tr(1, 10, 3), tr(2, 10, 3)]);
        let so = TriplePattern::new(Some(t(1)), None, Some(t(2)));
        assert_eq!(s.match_pattern(so).count(), 2);
    }

    #[test]
    fn pattern_fully_bound() {
        let s = sample();
        let hit = TriplePattern::new(Some(t(3)), Some(t(12)), Some(t(1)));
        assert_eq!(s.match_pattern(hit).count(), 1);
        let miss = TriplePattern::new(Some(t(3)), Some(t(12)), Some(t(2)));
        assert_eq!(s.match_pattern(miss).count(), 0);
    }

    #[test]
    fn pattern_results_satisfy_pattern() {
        let s = sample();
        for pat in [
            TriplePattern::with_subject(t(1)),
            TriplePattern::with_predicate(t(10)),
            TriplePattern::with_object(t(2)),
            TriplePattern::new(Some(t(1)), None, Some(t(3))),
        ] {
            for got in s.match_pattern(pat) {
                assert!(pat.matches(&got), "{got:?} should match {pat:?}");
            }
        }
    }

    #[test]
    fn with_predicate_orders_by_object_then_subject() {
        let s = TripleStore::from_triples([tr(1, 10, 3), tr(2, 10, 2), tr(3, 10, 2), tr(2, 11, 1)]);
        let got: Vec<_> = s.with_predicate(t(10)).collect();
        assert_eq!(got, vec![tr(2, 10, 2), tr(3, 10, 2), tr(1, 10, 3)]);
    }

    #[test]
    fn mentioning_deduplicates_multi_position_terms() {
        // Term 1 appears as subject (three triples) and object (one).
        let s = sample();
        let m = s.mentioning(t(1));
        assert_eq!(m.len(), 4);
        assert_eq!(s.mention_count(t(1)), 4);
        // Reflexive statement counted once.
        let mut s2 = TripleStore::new();
        s2.insert(tr(5, 5, 5));
        assert_eq!(s2.mention_count(t(5)), 1);
    }

    #[test]
    fn difference_is_asymmetric() {
        let a = sample();
        let mut b = sample();
        b.remove(&tr(1, 11, 2));
        b.insert(tr(9, 9, 9));
        let a_minus_b: Vec<_> = a.difference(&b).collect();
        assert_eq!(a_minus_b, vec![tr(1, 11, 2)]);
        let b_minus_a: Vec<_> = b.difference(&a).collect();
        assert_eq!(b_minus_a, vec![tr(9, 9, 9)]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let forward = sample();
        let mut reversed: Vec<_> = forward.iter().collect();
        reversed.reverse();
        assert_eq!(forward, TripleStore::from_triples(reversed));
    }

    #[test]
    fn empty_store_behaviour() {
        let s = TripleStore::new();
        assert!(s.is_empty());
        assert_eq!(s.match_pattern(TriplePattern::ANY).count(), 0);
    }
}
