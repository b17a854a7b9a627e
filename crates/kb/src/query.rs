//! Basic-graph-pattern (BGP) queries with joins.
//!
//! §III(a) frames the user problem as "exploring the contents of a
//! knowledge base"; this module provides the conjunctive-pattern queries
//! that exploration needs: a [`Query`] is a set of triple patterns over
//! shared [`Var`]iables, evaluated by a selectivity-ordered backtracking
//! join over [`TripleStore::match_pattern`]: a range scan where a
//! pattern's subject is bound, a filtered scan otherwise.
//!
//! ```
//! use evorec_kb::{Graph, Term};
//! use evorec_kb::query::{Query, Var};
//!
//! let mut g = Graph::new();
//! let teaches = g.iri("http://x/teaches");
//! let attends = g.iri("http://x/attends");
//! let alice = g.iri("http://x/alice");
//! let bob = g.iri("http://x/bob");
//! let course = g.iri("http://x/algo");
//! g.insert_terms(Term::iri("http://x/alice"), Term::iri("http://x/teaches"), Term::iri("http://x/algo"));
//! g.insert_terms(Term::iri("http://x/bob"), Term::iri("http://x/attends"), Term::iri("http://x/algo"));
//!
//! // Who teaches a course that ?student attends?
//! let (t, s, c) = (Var(0), Var(1), Var(2));
//! let query = Query::new()
//!     .pattern(t, teaches, c)
//!     .pattern(s, attends, c);
//! let rows = query.evaluate(g.store());
//! assert_eq!(rows, vec![vec![alice, bob, course]]);
//! ```

use crate::store::TripleStore;
use crate::term::TermId;
use crate::triple::TriplePattern;

/// A query variable, identified by a small index. Reusing the same index
/// across patterns expresses a join.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Var(pub u16);

/// One position of a query pattern: a constant or a variable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum QueryTerm {
    /// A fixed term that must match exactly.
    Bound(TermId),
    /// A variable to be bound by evaluation.
    Variable(Var),
}

impl From<TermId> for QueryTerm {
    fn from(id: TermId) -> Self {
        QueryTerm::Bound(id)
    }
}

impl From<Var> for QueryTerm {
    fn from(v: Var) -> Self {
        QueryTerm::Variable(v)
    }
}

/// One triple pattern of a query.
#[derive(Copy, Clone, Debug)]
pub struct Pattern {
    /// Subject position.
    pub s: QueryTerm,
    /// Predicate position.
    pub p: QueryTerm,
    /// Object position.
    pub o: QueryTerm,
}

/// A conjunctive basic graph pattern.
#[derive(Clone, Debug, Default)]
pub struct Query {
    patterns: Vec<Pattern>,
}

impl Query {
    /// An empty query (matches one empty row).
    pub fn new() -> Query {
        Query::default()
    }

    /// Add a pattern; positions accept [`TermId`] constants or [`Var`]s.
    pub fn pattern(
        mut self,
        s: impl Into<QueryTerm>,
        p: impl Into<QueryTerm>,
        o: impl Into<QueryTerm>,
    ) -> Query {
        self.patterns.push(Pattern {
            s: s.into(),
            p: p.into(),
            o: o.into(),
        });
        self
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` for the empty query.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Highest variable index used, plus one (the row width).
    pub fn variable_count(&self) -> usize {
        let mut max: Option<u16> = None;
        for pat in &self.patterns {
            for qt in [pat.s, pat.p, pat.o] {
                if let QueryTerm::Variable(Var(ix)) = qt {
                    max = Some(max.map_or(ix, |m: u16| m.max(ix)));
                }
            }
        }
        max.map_or(0, |m| m as usize + 1)
    }

    /// Evaluate against `store`. Each result row binds every variable
    /// (columns ordered by variable index); rows are deduplicated and
    /// sorted for determinism.
    ///
    /// # Panics
    /// Panics if a variable index is used in the query but some lower
    /// index is never bound by any pattern (a disconnected variable
    /// numbering — always a query-construction bug).
    pub fn evaluate(&self, store: &TripleStore) -> Vec<Vec<TermId>> {
        let width = self.variable_count();
        let mut bindings: Vec<Option<TermId>> = vec![None; width];
        let mut used = vec![false; self.patterns.len()];
        let mut rows = Vec::new();
        self.join(store, &mut bindings, &mut used, &mut rows);
        for row in &rows {
            assert!(
                row.iter().all(Option::is_some),
                "every variable must appear in some pattern"
            );
        }
        // The assertion above guarantees every binding is `Some`;
        // `flatten` drops nothing.
        let mut out: Vec<Vec<TermId>> = rows
            .into_iter()
            .map(|row| row.into_iter().flatten().collect())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `true` if the query has at least one result.
    pub fn matches(&self, store: &TripleStore) -> bool {
        // Cheap existence check: reuse evaluate (result sets in this
        // workspace are small); a dedicated early-exit would only matter
        // for very large result sets.
        !self.evaluate(store).is_empty()
    }

    fn join(
        &self,
        store: &TripleStore,
        bindings: &mut Vec<Option<TermId>>,
        used: &mut Vec<bool>,
        rows: &mut Vec<Vec<Option<TermId>>>,
    ) {
        // Pick the most selective unused pattern under current bindings.
        let next = (0..self.patterns.len())
            .filter(|&ix| !used[ix])
            .max_by_key(|&ix| self.bound_count(ix, bindings));
        let Some(ix) = next else {
            rows.push(bindings.clone());
            return;
        };
        used[ix] = true;
        let pat = self.patterns[ix];
        let resolve = |qt: QueryTerm, bindings: &[Option<TermId>]| match qt {
            QueryTerm::Bound(id) => Some(id),
            QueryTerm::Variable(Var(v)) => bindings[v as usize],
        };
        let store_pattern = TriplePattern::new(
            resolve(pat.s, bindings),
            resolve(pat.p, bindings),
            resolve(pat.o, bindings),
        );
        let candidates: Vec<crate::Triple> = store.match_pattern(store_pattern).collect();
        for triple in candidates {
            // Bind the free variables of this pattern, respecting
            // repeated variables within one pattern (e.g. (?x, p, ?x)).
            let mut newly_bound: Vec<u16> = Vec::new();
            let mut ok = true;
            for (qt, value) in [(pat.s, triple.s), (pat.p, triple.p), (pat.o, triple.o)] {
                if let QueryTerm::Variable(Var(v)) = qt {
                    match bindings[v as usize] {
                        Some(existing) if existing != value => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bindings[v as usize] = Some(value);
                            newly_bound.push(v);
                        }
                    }
                }
            }
            if ok {
                self.join(store, bindings, used, rows);
            }
            for v in newly_bound {
                bindings[v as usize] = None;
            }
        }
        used[ix] = false;
    }

    fn bound_count(&self, ix: usize, bindings: &[Option<TermId>]) -> u8 {
        let pat = self.patterns[ix];
        let is_bound = |qt: QueryTerm| match qt {
            QueryTerm::Bound(_) => true,
            QueryTerm::Variable(Var(v)) => bindings[v as usize].is_some(),
        };
        is_bound(pat.s) as u8 + is_bound(pat.p) as u8 + is_bound(pat.o) as u8
    }
}

/// Failure modes of [`parse_query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryParseError {
    /// A pattern did not have exactly three tokens.
    BadArity(String),
    /// A token was neither `?var`, `<iri>`, nor `"literal"`.
    BadToken(String),
    /// An IRI/literal is not present in the interner (so the query could
    /// never match; surfaced as an error for explicitness).
    UnknownTerm(String),
    /// The query text contained no patterns.
    Empty,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryParseError::BadArity(p) => write!(f, "pattern needs 3 terms: {p:?}"),
            QueryParseError::BadToken(t) => write!(f, "cannot parse term {t:?}"),
            QueryParseError::UnknownTerm(t) => write!(f, "term not in knowledge base: {t}"),
            QueryParseError::Empty => write!(f, "empty query"),
        }
    }
}

impl std::error::Error for QueryParseError {}

/// A parsed query plus the names of its variables (column order of the
/// result rows).
#[derive(Clone, Debug)]
pub struct ParsedQuery {
    /// The executable query.
    pub query: Query,
    /// Variable names in column order (`?x` stored as `"x"`).
    pub variables: Vec<String>,
}

/// Parse a SPARQL-flavoured conjunctive query:
///
/// ```text
/// ?teacher <http://x/teaches> ?course . ?student <http://x/attends> ?course
/// ```
///
/// Tokens are `?name` variables, `<iri>` constants, or `"literal"`
/// constants (plain literals only); patterns separate on `.`. Variables
/// are numbered in order of first appearance, so result columns follow
/// the query text left to right.
pub fn parse_query(
    text: &str,
    interner: &crate::TermInterner,
) -> Result<ParsedQuery, QueryParseError> {
    let mut query = Query::new();
    let mut variables: Vec<String> = Vec::new();
    let mut any = false;
    for raw_pattern in text.split('.') {
        let tokens: Vec<&str> = raw_pattern.split_whitespace().collect();
        if tokens.is_empty() {
            continue; // tolerate trailing '.' and blank segments
        }
        if tokens.len() != 3 {
            return Err(QueryParseError::BadArity(raw_pattern.trim().to_string()));
        }
        let mut terms: Vec<QueryTerm> = Vec::with_capacity(3);
        for token in tokens {
            terms.push(parse_token(token, interner, &mut variables)?);
        }
        query = query.pattern(terms[0], terms[1], terms[2]);
        any = true;
    }
    if !any {
        return Err(QueryParseError::Empty);
    }
    Ok(ParsedQuery { query, variables })
}

fn parse_token(
    token: &str,
    interner: &crate::TermInterner,
    variables: &mut Vec<String>,
) -> Result<QueryTerm, QueryParseError> {
    if let Some(name) = token.strip_prefix('?') {
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(QueryParseError::BadToken(token.to_string()));
        }
        let ix = match variables.iter().position(|v| v == name) {
            Some(ix) => ix,
            None => {
                variables.push(name.to_string());
                variables.len() - 1
            }
        };
        return Ok(QueryTerm::Variable(Var(ix as u16)));
    }
    let term = if let Some(rest) = token.strip_prefix('<') {
        let iri = rest
            .strip_suffix('>')
            .ok_or_else(|| QueryParseError::BadToken(token.to_string()))?;
        crate::Term::iri(iri)
    } else if let Some(rest) = token.strip_prefix('"') {
        let lex = rest
            .strip_suffix('"')
            .ok_or_else(|| QueryParseError::BadToken(token.to_string()))?;
        crate::Term::literal(lex)
    } else {
        return Err(QueryParseError::BadToken(token.to_string()));
    };
    interner
        .lookup(&term)
        .map(QueryTerm::Bound)
        .ok_or_else(|| QueryParseError::UnknownTerm(token.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermId;
    use crate::triple::Triple;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(t(s), t(p), t(o))
    }

    /// knows: 1→2, 2→3, 1→3; likes: 1→9, 3→9.
    fn store() -> TripleStore {
        TripleStore::from_triples([
            tr(1, 100, 2),
            tr(2, 100, 3),
            tr(1, 100, 3),
            tr(1, 101, 9),
            tr(3, 101, 9),
        ])
    }

    #[test]
    fn single_pattern_single_var() {
        let rows = Query::new()
            .pattern(t(1), t(100), Var(0))
            .evaluate(&store());
        assert_eq!(rows, vec![vec![t(2)], vec![t(3)]]);
    }

    #[test]
    fn join_on_shared_variable() {
        // ?x knows ?y, ?y knows ?z → transitive pairs.
        let rows = Query::new()
            .pattern(Var(0), t(100), Var(1))
            .pattern(Var(1), t(100), Var(2))
            .evaluate(&store());
        assert_eq!(rows, vec![vec![t(1), t(2), t(3)]]);
    }

    #[test]
    fn star_join() {
        // ?x knows 3 AND ?x likes 9 → x = 1 (knows 3 via 1→3, likes 9).
        let rows = Query::new()
            .pattern(Var(0), t(100), t(3))
            .pattern(Var(0), t(101), t(9))
            .evaluate(&store());
        assert_eq!(rows, vec![vec![t(1)]]);
    }

    #[test]
    fn variable_predicate() {
        // All relations from node 3.
        let rows = Query::new()
            .pattern(t(3), Var(0), Var(1))
            .evaluate(&store());
        assert_eq!(rows, vec![vec![t(101), t(9)]]);
    }

    #[test]
    fn no_results_is_empty() {
        let rows = Query::new()
            .pattern(t(9), t(100), Var(0))
            .evaluate(&store());
        assert!(rows.is_empty());
        assert!(!Query::new().pattern(t(9), t(100), Var(0)).matches(&store()));
    }

    #[test]
    fn empty_query_matches_once() {
        let rows = Query::new().evaluate(&store());
        assert_eq!(rows, vec![Vec::<TermId>::new()]);
        assert!(Query::new().matches(&store()));
    }

    #[test]
    fn repeated_variable_within_pattern() {
        let mut s = store();
        s.insert(tr(7, 100, 7)); // reflexive edge
        // ?x knows ?x → only node 7.
        let rows = Query::new().pattern(Var(0), t(100), Var(0)).evaluate(&s);
        assert_eq!(rows, vec![vec![t(7)]]);
    }

    #[test]
    fn cross_product_when_disconnected() {
        // Two independent patterns: each "likes 9" subject × each
        // "knows 2" subject.
        let rows = Query::new()
            .pattern(Var(0), t(101), t(9))
            .pattern(Var(1), t(100), t(2))
            .evaluate(&store());
        assert_eq!(rows, vec![vec![t(1), t(1)], vec![t(3), t(1)]]);
    }

    #[test]
    fn triangle_query() {
        let mut s = TripleStore::new();
        // Triangle 1-2-3 plus a dangling edge.
        s.insert(tr(1, 5, 2));
        s.insert(tr(2, 5, 3));
        s.insert(tr(3, 5, 1));
        s.insert(tr(3, 5, 4));
        let rows = Query::new()
            .pattern(Var(0), t(5), Var(1))
            .pattern(Var(1), t(5), Var(2))
            .pattern(Var(2), t(5), Var(0))
            .evaluate(&s);
        // Three rotations of the triangle.
        assert_eq!(rows.len(), 3);
        for row in &rows {
            let set: std::collections::BTreeSet<_> = row.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let rows = Query::new()
            .pattern(Var(0), t(100), Var(1))
            .evaluate(&store());
        let mut sorted = rows.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(rows, sorted);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn selectivity_ordering_does_not_change_results() {
        // Same query written in both pattern orders.
        let a = Query::new()
            .pattern(Var(0), t(100), Var(1))
            .pattern(Var(0), t(101), t(9))
            .evaluate(&store());
        let b = Query::new()
            .pattern(Var(0), t(101), t(9))
            .pattern(Var(0), t(100), Var(1))
            .evaluate(&store());
        assert_eq!(a, b);
    }

    #[test]
    fn variable_count_is_max_index_plus_one() {
        let q = Query::new().pattern(Var(2), t(1), Var(0));
        assert_eq!(q.variable_count(), 3);
        assert_eq!(Query::new().variable_count(), 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    mod parse {
        use super::*;
        use crate::{Graph, Term};

        fn graph() -> Graph {
            let mut g = Graph::new();
            g.insert_terms(
                Term::iri("http://x/alice"),
                Term::iri("http://x/teaches"),
                Term::iri("http://x/algo"),
            );
            g.insert_terms(
                Term::iri("http://x/bob"),
                Term::iri("http://x/attends"),
                Term::iri("http://x/algo"),
            );
            g.insert_terms(
                Term::iri("http://x/algo"),
                Term::iri("http://x/title"),
                Term::literal("Algorithms"),
            );
            g
        }

        #[test]
        fn parses_and_evaluates_join() {
            let g = graph();
            let parsed = parse_query(
                "?t <http://x/teaches> ?c . ?s <http://x/attends> ?c",
                g.interner(),
            )
            .unwrap();
            assert_eq!(parsed.variables, vec!["t", "c", "s"]);
            let rows = parsed.query.evaluate(g.store());
            assert_eq!(rows.len(), 1);
            let alice = g.interner().lookup_iri("http://x/alice").unwrap();
            let bob = g.interner().lookup_iri("http://x/bob").unwrap();
            let algo = g.interner().lookup_iri("http://x/algo").unwrap();
            // Columns follow first-appearance order: t, c, s.
            assert_eq!(rows[0], vec![alice, algo, bob]);
        }

        #[test]
        fn parses_literal_constant() {
            let g = graph();
            let parsed =
                parse_query("?what <http://x/title> \"Algorithms\"", g.interner()).unwrap();
            let rows = parsed.query.evaluate(g.store());
            assert_eq!(rows.len(), 1);
        }

        #[test]
        fn tolerates_trailing_dot_and_whitespace() {
            let g = graph();
            let parsed = parse_query(
                "  ?t <http://x/teaches> ?c .  ",
                g.interner(),
            )
            .unwrap();
            assert_eq!(parsed.variables, vec!["t", "c"]);
            assert_eq!(parsed.query.len(), 1);
        }

        #[test]
        fn rejects_malformed_queries() {
            let g = graph();
            assert!(matches!(
                parse_query("?a ?b", g.interner()),
                Err(QueryParseError::BadArity(_))
            ));
            assert!(matches!(
                parse_query("?a <http://x/teaches> junk", g.interner()),
                Err(QueryParseError::BadToken(_))
            ));
            assert!(matches!(
                parse_query("?a <http://x/teaches ?b", g.interner()),
                Err(QueryParseError::BadToken(_))
            ));
            assert!(matches!(
                parse_query("? <http://x/teaches> ?b", g.interner()),
                Err(QueryParseError::BadToken(_))
            ));
            assert!(matches!(
                parse_query("", g.interner()),
                Err(QueryParseError::Empty)
            ));
            assert!(matches!(
                parse_query("?a <http://x/nonexistent> ?b", g.interner()),
                Err(QueryParseError::UnknownTerm(_))
            ));
        }

        #[test]
        fn error_display_is_informative() {
            assert!(QueryParseError::BadArity("x y".into())
                .to_string()
                .contains("3 terms"));
            assert!(QueryParseError::UnknownTerm("<x>".into())
                .to_string()
                .contains("not in knowledge base"));
        }
    }
}
