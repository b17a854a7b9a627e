//! Triples over interned terms and match patterns over them.

use crate::term::TermId;
use std::fmt;

/// A subject–predicate–object statement over interned terms.
///
/// Twelve bytes, `Copy`, totally ordered — the unit of storage, diffing,
/// and change counting throughout the workspace. The derived order
/// compares subject, then predicate, then object: the SPO order a
/// [`TripleStore`](crate::TripleStore) keeps and range-scans.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject term.
    pub s: TermId,
    /// Predicate term.
    pub p: TermId,
    /// Object term.
    pub o: TermId,
}

impl Triple {
    /// Construct a triple.
    #[inline]
    pub const fn new(s: TermId, p: TermId, o: TermId) -> Triple {
        Triple { s, p, o }
    }

    /// `true` if `term` appears in any position.
    #[inline]
    pub fn mentions(&self, term: TermId) -> bool {
        self.s == term || self.p == term || self.o == term
    }

    /// The triple as an `(s, p, o)` tuple.
    #[inline]
    pub const fn as_tuple(&self) -> (TermId, TermId, TermId) {
        (self.s, self.p, self.o)
    }
}

impl From<(TermId, TermId, TermId)> for Triple {
    fn from((s, p, o): (TermId, TermId, TermId)) -> Self {
        Triple::new(s, p, o)
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?} {:?} {:?})", self.s, self.p, self.o)
    }
}

/// A triple pattern with optionally-bound positions.
///
/// `None` positions act as wildcards; see
/// [`TripleStore::match_pattern`](crate::TripleStore::match_pattern).
#[derive(Copy, Clone, PartialEq, Eq, Default, Debug)]
pub struct TriplePattern {
    /// Bound subject, or wildcard.
    pub s: Option<TermId>,
    /// Bound predicate, or wildcard.
    pub p: Option<TermId>,
    /// Bound object, or wildcard.
    pub o: Option<TermId>,
}

impl TriplePattern {
    /// The all-wildcard pattern matching every triple.
    pub const ANY: TriplePattern = TriplePattern {
        s: None,
        p: None,
        o: None,
    };

    /// Construct a pattern from optional positions.
    pub const fn new(s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Self {
        TriplePattern { s, p, o }
    }

    /// Pattern binding only the subject.
    pub const fn with_subject(s: TermId) -> Self {
        TriplePattern {
            s: Some(s),
            p: None,
            o: None,
        }
    }

    /// Pattern binding only the predicate.
    pub const fn with_predicate(p: TermId) -> Self {
        TriplePattern {
            s: None,
            p: Some(p),
            o: None,
        }
    }

    /// Pattern binding only the object.
    pub const fn with_object(o: TermId) -> Self {
        TriplePattern {
            s: None,
            p: None,
            o: Some(o),
        }
    }

    /// `true` if `triple` satisfies every bound position.
    #[inline]
    pub fn matches(&self, triple: &Triple) -> bool {
        self.s.is_none_or(|s| s == triple.s)
            && self.p.is_none_or(|p| p == triple.p)
            && self.o.is_none_or(|o| o == triple.o)
    }

    /// Number of bound positions (0–3); used for index selection.
    pub fn bound_count(&self) -> u8 {
        self.s.is_some() as u8 + self.p.is_some() as u8 + self.o.is_some() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    #[test]
    fn mentions_checks_all_positions() {
        let tr = Triple::new(t(1), t(2), t(3));
        assert!(tr.mentions(t(1)));
        assert!(tr.mentions(t(2)));
        assert!(tr.mentions(t(3)));
        assert!(!tr.mentions(t(4)));
    }

    #[test]
    fn tuple_conversions() {
        let tr: Triple = (t(1), t(2), t(3)).into();
        assert_eq!(tr.as_tuple(), (t(1), t(2), t(3)));
    }

    #[test]
    fn ordering_is_spo_lexicographic() {
        let a = Triple::new(t(1), t(5), t(9));
        let b = Triple::new(t(1), t(6), t(0));
        let c = Triple::new(t(2), t(0), t(0));
        assert!(a < b && b < c);
    }

    #[test]
    fn any_pattern_matches_everything() {
        assert!(TriplePattern::ANY.matches(&Triple::new(t(9), t(8), t(7))));
        assert_eq!(TriplePattern::ANY.bound_count(), 0);
    }

    #[test]
    fn bound_positions_filter() {
        let tr = Triple::new(t(1), t(2), t(3));
        assert!(TriplePattern::with_subject(t(1)).matches(&tr));
        assert!(!TriplePattern::with_subject(t(2)).matches(&tr));
        assert!(TriplePattern::with_predicate(t(2)).matches(&tr));
        assert!(TriplePattern::with_object(t(3)).matches(&tr));
        let full = TriplePattern::new(Some(t(1)), Some(t(2)), Some(t(3)));
        assert!(full.matches(&tr));
        assert_eq!(full.bound_count(), 3);
        let off = TriplePattern::new(Some(t(1)), Some(t(2)), Some(t(4)));
        assert!(!off.matches(&tr));
    }
}
