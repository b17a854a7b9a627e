//! Snapshot validation: the curator-facing quality gate.
//!
//! The paper's §I motivates evolution partly by "the correction of
//! erroneous conceptualizations" — which presupposes a way to *find*
//! them. [`validate_snapshot`] audits one version for the structural
//! defects curators fix: subsumption cycles, malformed statements
//! (literal subjects/predicates), undeclared properties in use, and
//! properties lacking domain/range declarations. Comparing issue counts
//! across versions turns the validator into a quality-drift signal.

use evorec_kb::{FxHashMap, FxHashSet, SchemaView, TermId, TermInterner, Triple, TripleStore, Vocab};

/// One defect found in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationIssue {
    /// The subsumption hierarchy contains a cycle through these classes
    /// (in traversal order, first repeated class omitted).
    SubsumptionCycle(Vec<TermId>),
    /// A literal term appears in subject position.
    LiteralSubject(Triple),
    /// A literal term appears in predicate position.
    LiteralPredicate(Triple),
    /// A predicate is used in statements but never declared as a
    /// property (and has no domain/range).
    UndeclaredProperty(TermId),
    /// A declared property has no `rdfs:domain`.
    MissingDomain(TermId),
    /// A declared property has no `rdfs:range`.
    MissingRange(TermId),
    /// A class subsumes itself directly (`c ⊑ c`).
    ReflexiveSubclass(TermId),
}

impl ValidationIssue {
    /// Render a one-line description.
    pub fn describe(&self, interner: &TermInterner) -> String {
        let name = |id: TermId| interner.label(id);
        match self {
            ValidationIssue::SubsumptionCycle(cycle) => format!(
                "subsumption cycle: {}",
                cycle
                    .iter()
                    .map(|&c| name(c))
                    .collect::<Vec<_>>()
                    .join(" ⊑ ")
            ),
            ValidationIssue::LiteralSubject(t) => {
                format!("literal used as subject in ({} {} {})", name(t.s), name(t.p), name(t.o))
            }
            ValidationIssue::LiteralPredicate(t) => {
                format!("literal used as predicate in ({} {} {})", name(t.s), name(t.p), name(t.o))
            }
            ValidationIssue::UndeclaredProperty(p) => {
                format!("predicate {} used but never declared", name(*p))
            }
            ValidationIssue::MissingDomain(p) => format!("property {} has no domain", name(*p)),
            ValidationIssue::MissingRange(p) => format!("property {} has no range", name(*p)),
            ValidationIssue::ReflexiveSubclass(c) => {
                format!("class {} subsumes itself", name(*c))
            }
        }
    }

    /// Coarse severity: cycles and malformed statements are errors,
    /// missing declarations are warnings.
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            ValidationIssue::SubsumptionCycle(_)
                | ValidationIssue::LiteralSubject(_)
                | ValidationIssue::LiteralPredicate(_)
                | ValidationIssue::ReflexiveSubclass(_)
        )
    }
}

/// Audit one snapshot. Deterministic: issues are sorted by kind then
/// term order.
pub fn validate_snapshot(
    store: &TripleStore,
    view: &SchemaView,
    vocab: &Vocab,
    interner: &TermInterner,
) -> Vec<ValidationIssue> {
    let mut issues = Vec::new();

    // Malformed statements: literals in subject/predicate position.
    for triple in store.iter() {
        if interner
            .try_resolve(triple.s)
            .is_some_and(evorec_kb::Term::is_literal)
        {
            issues.push(ValidationIssue::LiteralSubject(triple));
        }
        if interner
            .try_resolve(triple.p)
            .is_some_and(evorec_kb::Term::is_literal)
        {
            issues.push(ValidationIssue::LiteralPredicate(triple));
        }
    }

    // Reflexive subsumption and cycles.
    let mut children_of: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
    for &(child, parent) in view.subclass_edges() {
        if child == parent {
            issues.push(ValidationIssue::ReflexiveSubclass(child));
        } else {
            children_of.entry(parent).or_default().push(child);
        }
    }
    issues.extend(find_cycles(view));

    // Property declarations.
    let mut props: Vec<TermId> = view.properties().iter().copied().collect();
    props.sort_unstable();
    for p in props {
        let declared = store
            .match_pattern(evorec_kb::TriplePattern::new(
                Some(p),
                Some(vocab.rdf_type),
                None,
            ))
            .next()
            .is_some()
            || !view.domains_of(p).is_empty()
            || !view.ranges_of(p).is_empty();
        if !declared {
            issues.push(ValidationIssue::UndeclaredProperty(p));
            continue;
        }
        if view.domains_of(p).is_empty() {
            issues.push(ValidationIssue::MissingDomain(p));
        }
        if view.ranges_of(p).is_empty() {
            issues.push(ValidationIssue::MissingRange(p));
        }
    }

    issues
}

/// Cycle detection over the subsumption graph (child → parent edges),
/// iterative colouring DFS.
fn find_cycles(view: &SchemaView) -> Vec<ValidationIssue> {
    #[derive(Copy, Clone, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut classes: Vec<TermId> = view.classes().iter().copied().collect();
    classes.sort_unstable();
    let mut colour: FxHashMap<TermId, Colour> =
        classes.iter().map(|&c| (c, Colour::White)).collect();
    let mut issues = Vec::new();
    let mut reported: FxHashSet<TermId> = FxHashSet::default();

    for &start in &classes {
        if colour[&start] != Colour::White {
            continue;
        }
        // Iterative DFS along parent edges with an explicit path stack.
        let mut path: Vec<(TermId, usize)> = vec![(start, 0)];
        *colour.get_mut(&start).expect("known class") = Colour::Grey;
        while let Some(&mut (node, ref mut next_ix)) = path.last_mut() {
            let parents = view.parents_of(node);
            if *next_ix >= parents.len() {
                *colour.get_mut(&node).expect("known class") = Colour::Black;
                path.pop();
                continue;
            }
            let parent = parents[*next_ix];
            *next_ix += 1;
            if parent == node {
                continue; // reported as ReflexiveSubclass elsewhere
            }
            match colour.get(&parent).copied().unwrap_or(Colour::Black) {
                Colour::White => {
                    *colour.get_mut(&parent).expect("known class") = Colour::Grey;
                    path.push((parent, 0));
                }
                Colour::Grey => {
                    // Found a back edge: extract the cycle from the path.
                    let pos = path
                        .iter()
                        .position(|&(n, _)| n == parent)
                        .expect("grey node is on the path");
                    let cycle: Vec<TermId> = path[pos..].iter().map(|&(n, _)| n).collect();
                    if reported.insert(cycle[0]) {
                        issues.push(ValidationIssue::SubsumptionCycle(cycle));
                    }
                }
                Colour::Black => {}
            }
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Graph, Term};

    fn clean_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.iri("http://x/A");
        let b = g.iri("http://x/B");
        let p = g.iri("http://x/p");
        let v = *g.vocab();
        g.insert(Triple::new(a, v.rdfs_subclassof, b));
        g.insert(Triple::new(p, v.rdf_type, v.owl_object_property));
        g.insert(Triple::new(p, v.rdfs_domain, a));
        g.insert(Triple::new(p, v.rdfs_range, b));
        g
    }

    fn validate(g: &Graph) -> Vec<ValidationIssue> {
        validate_snapshot(g.store(), &g.schema(), g.vocab(), g.interner())
    }

    #[test]
    fn clean_snapshot_has_no_issues() {
        let g = clean_graph();
        assert!(validate(&g).is_empty(), "{:?}", validate(&g));
    }

    #[test]
    fn detects_subsumption_cycle() {
        let mut g = clean_graph();
        let a = g.iri("http://x/A");
        let b = g.iri("http://x/B");
        let c = g.iri("http://x/C");
        let v = *g.vocab();
        g.insert(Triple::new(b, v.rdfs_subclassof, c));
        g.insert(Triple::new(c, v.rdfs_subclassof, a));
        let issues = validate(&g);
        let cycle = issues
            .iter()
            .find(|i| matches!(i, ValidationIssue::SubsumptionCycle(_)))
            .expect("cycle found");
        assert!(cycle.is_error());
        if let ValidationIssue::SubsumptionCycle(nodes) = cycle {
            assert_eq!(nodes.len(), 3);
        }
        assert!(cycle.describe(g.interner()).contains('⊑'));
    }

    #[test]
    fn detects_reflexive_subclass() {
        let mut g = clean_graph();
        let a = g.iri("http://x/A");
        let v = *g.vocab();
        g.insert(Triple::new(a, v.rdfs_subclassof, a));
        let issues = validate(&g);
        assert!(issues.contains(&ValidationIssue::ReflexiveSubclass(a)));
        // The reflexive edge must not be double-reported as a cycle.
        assert!(
            !issues
                .iter()
                .any(|i| matches!(i, ValidationIssue::SubsumptionCycle(_))),
            "{issues:?}"
        );
    }

    #[test]
    fn detects_literal_misuse() {
        let mut g = clean_graph();
        let lit = g.interner_mut().intern(Term::literal("oops"));
        let a = g.iri("http://x/A");
        let p = g.iri("http://x/p");
        g.insert(Triple::new(lit, p, a));
        g.insert(Triple::new(a, lit, a));
        let issues = validate(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::LiteralSubject(_))));
        assert!(issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::LiteralPredicate(_))));
    }

    #[test]
    fn detects_missing_domain_and_range() {
        let mut g = clean_graph();
        let q = g.iri("http://x/q");
        let v = *g.vocab();
        g.insert(Triple::new(q, v.rdf_type, v.owl_object_property));
        let issues = validate(&g);
        assert!(issues.contains(&ValidationIssue::MissingDomain(q)));
        assert!(issues.contains(&ValidationIssue::MissingRange(q)));
        assert!(!ValidationIssue::MissingDomain(q).is_error(), "warning only");
    }

    #[test]
    fn detects_undeclared_property_in_use() {
        let mut g = clean_graph();
        let a = g.iri("http://x/A");
        let b = g.iri("http://x/B");
        let v = *g.vocab();
        // Type two instances and connect them with an undeclared
        // predicate; SchemaView adopts it, the validator flags it.
        let x = g.iri("http://x/x");
        let y = g.iri("http://x/y");
        g.insert(Triple::new(x, v.rdf_type, a));
        g.insert(Triple::new(y, v.rdf_type, b));
        let mystery = g.iri("http://x/mystery");
        g.insert(Triple::new(x, mystery, y));
        let issues = validate(&g);
        assert!(issues.contains(&ValidationIssue::UndeclaredProperty(mystery)));
    }

    #[test]
    fn quality_drift_is_measurable_across_versions() {
        // The curator story: count issues before and after a bad edit.
        let g0 = clean_graph();
        let mut g1 = g0.clone();
        let a = g1.iri("http://x/A");
        let b = g1.iri("http://x/B");
        let v = *g1.vocab();
        g1.insert(Triple::new(b, v.rdfs_subclassof, a)); // A ⊑ B ⊑ A cycle
        let before = validate(&g0).len();
        let after = validate(&g1).len();
        assert!(after > before, "bad edit must raise the issue count");
    }

    #[test]
    fn descriptions_render_for_all_kinds() {
        let g = clean_graph();
        let a = g.interner().lookup_iri("http://x/A").unwrap();
        for issue in [
            ValidationIssue::SubsumptionCycle(vec![a]),
            ValidationIssue::UndeclaredProperty(a),
            ValidationIssue::MissingDomain(a),
            ValidationIssue::MissingRange(a),
            ValidationIssue::ReflexiveSubclass(a),
        ] {
            assert!(!issue.describe(g.interner()).is_empty());
        }
    }
}
