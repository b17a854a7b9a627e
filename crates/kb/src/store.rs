//! Indexed triple store.

use crate::fxhash::FxHasher;
use crate::term::TermId;
use crate::triple::{Triple, TriplePattern};
use std::collections::BTreeSet;
use std::hash::Hasher;
use std::ops::Bound;

type Key = (TermId, TermId, TermId);

/// An in-memory triple store with three covering indexes (SPO, POS, OSP).
///
/// Every access pattern with at least one bound position resolves to a
/// contiguous range scan over one of the indexes:
///
/// | bound      | index | range prefix |
/// |------------|-------|--------------|
/// | s / s,p    | SPO   | (s) / (s,p)  |
/// | p / p,o    | POS   | (p) / (p,o)  |
/// | o / o,s    | OSP   | (o) / (o,s)  |
/// | s,p,o      | SPO   | membership   |
///
/// The store is the snapshot representation used by the versioning layer;
/// ordered iteration (SPO order) makes snapshot diffing a linear merge.
#[derive(Default, Clone)]
pub struct TripleStore {
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an iterator of triples (duplicates collapse).
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> Self {
        let mut store = TripleStore::new();
        store.extend(triples);
        store
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        let fresh = self.spo.insert((t.s, t.p, t.o));
        if fresh {
            self.pos.insert((t.p, t.o, t.s));
            self.osp.insert((t.o, t.s, t.p));
        }
        fresh
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: &Triple) -> bool {
        let had = self.spo.remove(&(t.s, t.p, t.o));
        if had {
            self.pos.remove(&(t.p, t.o, t.s));
            self.osp.remove(&(t.o, t.s, t.p));
        }
        had
    }

    /// Insert every triple from `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) {
        for t in iter {
            self.insert(t);
        }
    }

    /// `true` if the exact triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(&(t.s, t.p, t.o))
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
        self.spo.iter().map(|&(s, p, o)| Triple::new(s, p, o))
    }

    /// Iterate triples matching `pattern`, using the best covering index.
    pub fn match_pattern(&self, pattern: TriplePattern) -> Box<dyn Iterator<Item = Triple> + '_> {
        fn range(
            set: &BTreeSet<Key>,
            first: TermId,
            second: Option<TermId>,
        ) -> impl Iterator<Item = Key> + '_ {
            let (lo, hi) = match second {
                Some(second) => (
                    (first, second, TermId::MIN),
                    (first, second, TermId::MAX),
                ),
                None => (
                    (first, TermId::MIN, TermId::MIN),
                    (first, TermId::MAX, TermId::MAX),
                ),
            };
            set.range((Bound::Included(lo), Bound::Included(hi))).copied()
        }

        match (pattern.s, pattern.p, pattern.o) {
            (Some(s), Some(p), Some(o)) => {
                let t = Triple::new(s, p, o);
                if self.contains(&t) {
                    Box::new(std::iter::once(t))
                } else {
                    Box::new(std::iter::empty())
                }
            }
            (Some(s), p, None) => {
                Box::new(range(&self.spo, s, p).map(|(s, p, o)| Triple::new(s, p, o)))
            }
            (None, Some(p), o) => {
                Box::new(range(&self.pos, p, o).map(|(p, o, s)| Triple::new(s, p, o)))
            }
            (s, None, Some(o)) => {
                Box::new(range(&self.osp, o, s).map(|(o, s, p)| Triple::new(s, p, o)))
            }
            (None, None, None) => Box::new(self.iter()),
        }
    }

    /// All objects `o` of triples `(s, p, o)`.
    pub fn objects_of(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        range2(&self.spo, s, p).map(|(_, _, o)| o)
    }

    /// All subjects `s` of triples `(s, p, o)`.
    pub fn subjects_of(&self, p: TermId, o: TermId) -> impl Iterator<Item = TermId> + '_ {
        range2(&self.pos, p, o).map(|(_, _, s)| s)
    }

    /// All triples whose predicate is `p`.
    pub fn with_predicate(&self, p: TermId) -> impl Iterator<Item = Triple> + '_ {
        range1(&self.pos, p).map(|(p, o, s)| Triple::new(s, p, o))
    }

    /// All triples whose subject is `s`.
    pub fn with_subject(&self, s: TermId) -> impl Iterator<Item = Triple> + '_ {
        range1(&self.spo, s).map(|(s, p, o)| Triple::new(s, p, o))
    }

    /// All triples whose object is `o`.
    pub fn with_object(&self, o: TermId) -> impl Iterator<Item = Triple> + '_ {
        range1(&self.osp, o).map(|(o, s, p)| Triple::new(s, p, o))
    }

    /// Triples mentioning `term` in any position, deduplicated, in SPO
    /// order. This realises the δ(n) restriction of ICDE'17 §II(a) when
    /// applied to delta stores.
    pub fn mentioning(&self, term: TermId) -> Vec<Triple> {
        let mut out: Vec<Triple> = self
            .with_subject(term)
            .chain(self.with_predicate(term))
            .chain(self.with_object(term))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of triples mentioning `term` in any position.
    pub fn mention_count(&self, term: TermId) -> usize {
        // Count each position then correct for triples where the term
        // occupies several positions (rare but possible, e.g. reflexive
        // statements).
        self.mentioning(term).len()
    }

    /// Distinct predicates, in ascending id order.
    pub fn distinct_predicates(&self) -> Vec<TermId> {
        distinct_firsts(&self.pos)
    }

    /// Distinct subjects, in ascending id order.
    pub fn distinct_subjects(&self) -> Vec<TermId> {
        distinct_firsts(&self.spo)
    }

    /// Distinct objects, in ascending id order.
    pub fn distinct_objects(&self) -> Vec<TermId> {
        distinct_firsts(&self.osp)
    }

    /// Order-independent content digest: the XOR of every triple's
    /// FxHash salted by `salt`, so the stores' iteration order cannot
    /// leak into it and different salts keep the digests of different
    /// roles (e.g. the two ends of an evolution step) apart.
    pub fn content_digest(&self, salt: u64) -> u64 {
        self.spo.iter().fold(0u64, |acc, &(s, p, o)| {
            let mut h = FxHasher::default();
            h.write_u64(salt);
            h.write_u32(s.as_u32());
            h.write_u32(p.as_u32());
            h.write_u32(o.as_u32());
            acc ^ h.finish()
        })
    }

    /// Triples present in `self` but not in `other` (a set difference in
    /// SPO order; the building block of low-level deltas).
    pub fn difference<'a>(&'a self, other: &'a TripleStore) -> impl Iterator<Item = Triple> + 'a {
        self.spo
            .difference(&other.spo)
            .map(|&(s, p, o)| Triple::new(s, p, o))
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

impl PartialEq for TripleStore {
    fn eq(&self, other: &Self) -> bool {
        self.spo == other.spo
    }
}

impl Eq for TripleStore {}

fn range1(set: &BTreeSet<Key>, first: TermId) -> impl Iterator<Item = Key> + '_ {
    set.range((
        Bound::Included((first, TermId::MIN, TermId::MIN)),
        Bound::Included((first, TermId::MAX, TermId::MAX)),
    ))
    .copied()
}

fn range2(set: &BTreeSet<Key>, first: TermId, second: TermId) -> impl Iterator<Item = Key> + '_ {
    set.range((
        Bound::Included((first, second, TermId::MIN)),
        Bound::Included((first, second, TermId::MAX)),
    ))
    .copied()
}

fn distinct_firsts(set: &BTreeSet<Key>) -> Vec<TermId> {
    let mut out = Vec::new();
    let mut cursor = TermId::MIN;
    loop {
        let next = set
            .range((
                Bound::Included((cursor, TermId::MIN, TermId::MIN)),
                Bound::Unbounded,
            ))
            .next();
        match next {
            Some(&(first, _, _)) => {
                out.push(first);
                if first == TermId::MAX {
                    break;
                }
                cursor = TermId::from_u32(first.as_u32() + 1);
            }
            None => break,
        }
    }
    out
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
    fn insert_is_idempotent_across_indexes() {
        let mut s = TripleStore::new();
        assert!(s.insert(tr(1, 2, 3)));
        assert!(!s.insert(tr(1, 2, 3)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.match_pattern(TriplePattern::with_predicate(t(2))).count(), 1);
        assert_eq!(s.match_pattern(TriplePattern::with_object(t(3))).count(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
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
    fn objects_and_subjects_of() {
        let s = sample();
        let objs: Vec<_> = s.objects_of(t(1), t(10)).collect();
        assert_eq!(objs, vec![t(2), t(3)]);
        let subs: Vec<_> = s.subjects_of(t(10), t(3)).collect();
        assert_eq!(subs, vec![t(1), t(2)]);
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
    fn distinct_terms_per_position() {
        let s = sample();
        assert_eq!(s.distinct_subjects(), vec![t(1), t(2), t(3)]);
        assert_eq!(s.distinct_predicates(), vec![t(10), t(11), t(12)]);
        assert_eq!(s.distinct_objects(), vec![t(1), t(2), t(3)]);
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
        assert_eq!(s.distinct_subjects(), Vec::<TermId>::new());
    }
}
