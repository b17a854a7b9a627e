//! High-level change detection over low-level deltas.
//!
//! Low-level deltas list raw triple additions/removals; following the
//! change-language approach of Roussakis et al. (ISWC 2015) — reference
//! [11] of the paper — this module groups them into semantically
//! meaningful [`Change`]s (class/property lifecycle, subsumption edits,
//! domain/range retargeting, instance churn, relabelling). High-level
//! changes feed the recommender's explanations and the E1 statistics.

use crate::delta::LowLevelDelta;
use evorec_kb::{FxHashMap, SchemaView, TermId, TermInterner, Triple, Vocab};

/// The category of a high-level change (for aggregation and stats).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ChangeKind {
    /// A class came into existence.
    AddClass,
    /// A class disappeared.
    DeleteClass,
    /// A property came into existence.
    AddProperty,
    /// A property disappeared.
    DeleteProperty,
    /// A subsumption edge was added.
    AddSubclass,
    /// A subsumption edge was removed.
    DeleteSubclass,
    /// A class moved to a different parent (paired delete+add).
    MoveClass,
    /// A property's `rdfs:domain` changed.
    ChangeDomain,
    /// A property's `rdfs:range` changed.
    ChangeRange,
    /// A sub-property edge was added or removed.
    SubpropertyEdit,
    /// An instance gained a type.
    AddTypeInstance,
    /// An instance lost a type.
    DeleteTypeInstance,
    /// An instance-level property statement was added.
    AddPropertyInstance,
    /// An instance-level property statement was removed.
    DeletePropertyInstance,
    /// An `rdfs:label` changed.
    Relabel,
    /// An `rdfs:comment` changed.
    ChangeComment,
    /// A raw change not matching any pattern above.
    Generic,
}

impl ChangeKind {
    /// All kinds, for exhaustive reporting.
    pub const ALL: [ChangeKind; 17] = [
        ChangeKind::AddClass,
        ChangeKind::DeleteClass,
        ChangeKind::AddProperty,
        ChangeKind::DeleteProperty,
        ChangeKind::AddSubclass,
        ChangeKind::DeleteSubclass,
        ChangeKind::MoveClass,
        ChangeKind::ChangeDomain,
        ChangeKind::ChangeRange,
        ChangeKind::SubpropertyEdit,
        ChangeKind::AddTypeInstance,
        ChangeKind::DeleteTypeInstance,
        ChangeKind::AddPropertyInstance,
        ChangeKind::DeletePropertyInstance,
        ChangeKind::Relabel,
        ChangeKind::ChangeComment,
        ChangeKind::Generic,
    ];

    /// `true` for kinds that edit the schema (vs instance data).
    pub fn is_schema_level(self) -> bool {
        matches!(
            self,
            ChangeKind::AddClass
                | ChangeKind::DeleteClass
                | ChangeKind::AddProperty
                | ChangeKind::DeleteProperty
                | ChangeKind::AddSubclass
                | ChangeKind::DeleteSubclass
                | ChangeKind::MoveClass
                | ChangeKind::ChangeDomain
                | ChangeKind::ChangeRange
                | ChangeKind::SubpropertyEdit
        )
    }
}

/// One semantically grouped change between two versions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Change {
    /// Class `0` came into existence.
    AddClass(TermId),
    /// Class `0` disappeared.
    DeleteClass(TermId),
    /// Property `0` came into existence.
    AddProperty(TermId),
    /// Property `0` disappeared.
    DeleteProperty(TermId),
    /// `child rdfs:subClassOf parent` was asserted.
    AddSubclass {
        /// The subclass.
        child: TermId,
        /// The superclass.
        parent: TermId,
    },
    /// `child rdfs:subClassOf parent` was retracted.
    DeleteSubclass {
        /// The subclass.
        child: TermId,
        /// The superclass.
        parent: TermId,
    },
    /// `class` was re-parented `from` → `to` (paired retract+assert).
    MoveClass {
        /// The re-parented class.
        class: TermId,
        /// Previous parent.
        from: TermId,
        /// New parent.
        to: TermId,
    },
    /// `property`'s domain changed.
    ChangeDomain {
        /// The property whose domain changed.
        property: TermId,
        /// Previous domain (if any was retracted).
        from: Option<TermId>,
        /// New domain (if any was asserted).
        to: Option<TermId>,
    },
    /// `property`'s range changed.
    ChangeRange {
        /// The property whose range changed.
        property: TermId,
        /// Previous range (if any was retracted).
        from: Option<TermId>,
        /// New range (if any was asserted).
        to: Option<TermId>,
    },
    /// A sub-property edge was asserted (`added = true`) or retracted.
    SubpropertyEdit {
        /// The subproperty.
        child: TermId,
        /// The superproperty.
        parent: TermId,
        /// `true` if the edge was asserted.
        added: bool,
    },
    /// `instance rdf:type class` was asserted.
    AddTypeInstance {
        /// The typed instance.
        instance: TermId,
        /// The asserted class.
        class: TermId,
    },
    /// `instance rdf:type class` was retracted.
    DeleteTypeInstance {
        /// The untyped instance.
        instance: TermId,
        /// The retracted class.
        class: TermId,
    },
    /// An instance-level statement was asserted.
    AddPropertyInstance(Triple),
    /// An instance-level statement was retracted.
    DeletePropertyInstance(Triple),
    /// `term`'s `rdfs:label` changed.
    Relabel {
        /// The relabelled term.
        term: TermId,
        /// Previous label literal (if retracted).
        from: Option<TermId>,
        /// New label literal (if asserted).
        to: Option<TermId>,
    },
    /// `term`'s `rdfs:comment` changed.
    ChangeComment {
        /// The term whose comment changed.
        term: TermId,
        /// Previous comment literal (if retracted).
        from: Option<TermId>,
        /// New comment literal (if asserted).
        to: Option<TermId>,
    },
    /// Unclassified raw change.
    Generic {
        /// The raw triple.
        triple: Triple,
        /// `true` if asserted, `false` if retracted.
        added: bool,
    },
}

impl Change {
    /// The category of this change.
    pub fn kind(&self) -> ChangeKind {
        match self {
            Change::AddClass(_) => ChangeKind::AddClass,
            Change::DeleteClass(_) => ChangeKind::DeleteClass,
            Change::AddProperty(_) => ChangeKind::AddProperty,
            Change::DeleteProperty(_) => ChangeKind::DeleteProperty,
            Change::AddSubclass { .. } => ChangeKind::AddSubclass,
            Change::DeleteSubclass { .. } => ChangeKind::DeleteSubclass,
            Change::MoveClass { .. } => ChangeKind::MoveClass,
            Change::ChangeDomain { .. } => ChangeKind::ChangeDomain,
            Change::ChangeRange { .. } => ChangeKind::ChangeRange,
            Change::SubpropertyEdit { .. } => ChangeKind::SubpropertyEdit,
            Change::AddTypeInstance { .. } => ChangeKind::AddTypeInstance,
            Change::DeleteTypeInstance { .. } => ChangeKind::DeleteTypeInstance,
            Change::AddPropertyInstance(_) => ChangeKind::AddPropertyInstance,
            Change::DeletePropertyInstance(_) => ChangeKind::DeletePropertyInstance,
            Change::Relabel { .. } => ChangeKind::Relabel,
            Change::ChangeComment { .. } => ChangeKind::ChangeComment,
            Change::Generic { .. } => ChangeKind::Generic,
        }
    }

    /// The schema element this change is primarily *about* — the term a
    /// curator would attribute it to.
    pub fn primary_term(&self) -> TermId {
        match *self {
            Change::AddClass(c) | Change::DeleteClass(c) => c,
            Change::AddProperty(p) | Change::DeleteProperty(p) => p,
            Change::AddSubclass { child, .. } | Change::DeleteSubclass { child, .. } => child,
            Change::MoveClass { class, .. } => class,
            Change::ChangeDomain { property, .. } | Change::ChangeRange { property, .. } => {
                property
            }
            Change::SubpropertyEdit { child, .. } => child,
            Change::AddTypeInstance { class, .. } | Change::DeleteTypeInstance { class, .. } => {
                class
            }
            Change::AddPropertyInstance(t) | Change::DeletePropertyInstance(t) => t.p,
            Change::Relabel { term, .. } | Change::ChangeComment { term, .. } => term,
            Change::Generic { triple, .. } => triple.s,
        }
    }

    /// Render a one-line human-readable description.
    pub fn describe(&self, interner: &TermInterner) -> String {
        let name = |id: TermId| interner.label(id);
        let opt = |id: Option<TermId>| id.map_or_else(|| "∅".to_string(), name);
        match *self {
            Change::AddClass(c) => format!("class {} added", name(c)),
            Change::DeleteClass(c) => format!("class {} deleted", name(c)),
            Change::AddProperty(p) => format!("property {} added", name(p)),
            Change::DeleteProperty(p) => format!("property {} deleted", name(p)),
            Change::AddSubclass { child, parent } => {
                format!("{} ⊑ {} asserted", name(child), name(parent))
            }
            Change::DeleteSubclass { child, parent } => {
                format!("{} ⊑ {} retracted", name(child), name(parent))
            }
            Change::MoveClass { class, from, to } => format!(
                "class {} moved from {} to {}",
                name(class),
                name(from),
                name(to)
            ),
            Change::ChangeDomain { property, from, to } => format!(
                "domain of {} changed {} → {}",
                name(property),
                opt(from),
                opt(to)
            ),
            Change::ChangeRange { property, from, to } => format!(
                "range of {} changed {} → {}",
                name(property),
                opt(from),
                opt(to)
            ),
            Change::SubpropertyEdit {
                child,
                parent,
                added,
            } => format!(
                "{} ⊑ₚ {} {}",
                name(child),
                name(parent),
                if added { "asserted" } else { "retracted" }
            ),
            Change::AddTypeInstance { instance, class } => {
                format!("{} typed as {}", name(instance), name(class))
            }
            Change::DeleteTypeInstance { instance, class } => {
                format!("{} no longer typed as {}", name(instance), name(class))
            }
            Change::AddPropertyInstance(t) => format!(
                "statement ({} {} {}) asserted",
                name(t.s),
                name(t.p),
                name(t.o)
            ),
            Change::DeletePropertyInstance(t) => format!(
                "statement ({} {} {}) retracted",
                name(t.s),
                name(t.p),
                name(t.o)
            ),
            Change::Relabel { term, from, to } => {
                format!("label of {} changed {} → {}", name(term), opt(from), opt(to))
            }
            Change::ChangeComment { term, .. } => format!("comment of {} changed", name(term)),
            Change::Generic { triple, added } => format!(
                "raw {} of ({} {} {})",
                if added { "assertion" } else { "retraction" },
                name(triple.s),
                name(triple.p),
                name(triple.o)
            ),
        }
    }
}

/// The detected high-level changes of one evolution step.
#[derive(Clone, Debug, Default)]
pub struct ChangeSet {
    changes: Vec<Change>,
}

impl ChangeSet {
    /// Detect high-level changes from a low-level delta and the schema
    /// views of both endpoint versions.
    pub fn detect(
        delta: &LowLevelDelta,
        before: &SchemaView,
        after: &SchemaView,
        vocab: &Vocab,
    ) -> ChangeSet {
        let mut changes = Vec::new();

        // Class / property lifecycle from the schema-view set difference.
        for &c in after.classes() {
            if !before.is_class(c) {
                changes.push(Change::AddClass(c));
            }
        }
        for &c in before.classes() {
            if !after.is_class(c) {
                changes.push(Change::DeleteClass(c));
            }
        }
        for &p in after.properties() {
            if !before.is_property(p) {
                changes.push(Change::AddProperty(p));
            }
        }
        for &p in before.properties() {
            if !after.is_property(p) {
                changes.push(Change::DeleteProperty(p));
            }
        }

        // Subsumption edits, pairing single retract+assert into MoveClass.
        let added_sub: Vec<Triple> = delta.added.with_predicate(vocab.rdfs_subclassof).collect();
        let removed_sub: Vec<Triple> = delta
            .removed
            .with_predicate(vocab.rdfs_subclassof)
            .collect();
        let mut added_by_child: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        for t in &added_sub {
            added_by_child.entry(t.s).or_default().push(t.o);
        }
        let mut removed_by_child: FxHashMap<TermId, Vec<TermId>> = FxHashMap::default();
        for t in &removed_sub {
            removed_by_child.entry(t.s).or_default().push(t.o);
        }
        let mut moved: Vec<TermId> = Vec::new();
        for (&child, removed_parents) in &removed_by_child {
            if let Some(added_parents) = added_by_child.get(&child) {
                if removed_parents.len() == 1 && added_parents.len() == 1 {
                    changes.push(Change::MoveClass {
                        class: child,
                        from: removed_parents[0],
                        to: added_parents[0],
                    });
                    moved.push(child);
                }
            }
        }
        for t in &added_sub {
            if !moved.contains(&t.s) {
                changes.push(Change::AddSubclass {
                    child: t.s,
                    parent: t.o,
                });
            }
        }
        for t in &removed_sub {
            if !moved.contains(&t.s) {
                changes.push(Change::DeleteSubclass {
                    child: t.s,
                    parent: t.o,
                });
            }
        }

        // Domain / range retargeting.
        for (pred, make) in [
            (
                vocab.rdfs_domain,
                (|property, from, to| Change::ChangeDomain { property, from, to })
                    as fn(TermId, Option<TermId>, Option<TermId>) -> Change,
            ),
            (vocab.rdfs_range, |property, from, to| Change::ChangeRange {
                property,
                from,
                to,
            }),
        ] {
            let mut by_prop: FxHashMap<TermId, (Option<TermId>, Option<TermId>)> =
                FxHashMap::default();
            for t in delta.removed.with_predicate(pred) {
                by_prop.entry(t.s).or_default().0 = Some(t.o);
            }
            for t in delta.added.with_predicate(pred) {
                by_prop.entry(t.s).or_default().1 = Some(t.o);
            }
            let mut props: Vec<_> = by_prop.into_iter().collect();
            props.sort_unstable_by_key(|(p, _)| *p);
            for (property, (from, to)) in props {
                changes.push(make(property, from, to));
            }
        }

        // Label / comment edits.
        for (pred, is_label) in [(vocab.rdfs_label, true), (vocab.rdfs_comment, false)] {
            let mut by_term: FxHashMap<TermId, (Option<TermId>, Option<TermId>)> =
                FxHashMap::default();
            for t in delta.removed.with_predicate(pred) {
                by_term.entry(t.s).or_default().0 = Some(t.o);
            }
            for t in delta.added.with_predicate(pred) {
                by_term.entry(t.s).or_default().1 = Some(t.o);
            }
            let mut terms: Vec<_> = by_term.into_iter().collect();
            terms.sort_unstable_by_key(|(t, _)| *t);
            for (term, (from, to)) in terms {
                changes.push(if is_label {
                    Change::Relabel { term, from, to }
                } else {
                    Change::ChangeComment { term, from, to }
                });
            }
        }

        // Sub-property edits.
        for t in delta.added.with_predicate(vocab.rdfs_subpropertyof) {
            changes.push(Change::SubpropertyEdit {
                child: t.s,
                parent: t.o,
                added: true,
            });
        }
        for t in delta.removed.with_predicate(vocab.rdfs_subpropertyof) {
            changes.push(Change::SubpropertyEdit {
                child: t.s,
                parent: t.o,
                added: false,
            });
        }

        // Typing and instance-level statements; anything with a schema
        // predicate already handled above is skipped here.
        for (store, added) in [(&delta.added, true), (&delta.removed, false)] {
            for t in store.iter() {
                if t.p == vocab.rdf_type {
                    if vocab.is_class_type(t.o) || vocab.is_property_type(t.o) {
                        // Declaration-level typing is reflected in the
                        // class/property lifecycle changes already.
                        continue;
                    }
                    changes.push(if added {
                        Change::AddTypeInstance {
                            instance: t.s,
                            class: t.o,
                        }
                    } else {
                        Change::DeleteTypeInstance {
                            instance: t.s,
                            class: t.o,
                        }
                    });
                } else if !vocab.is_schema_predicate(t.p) {
                    let is_instance_stmt = before.is_property(t.p) || after.is_property(t.p);
                    changes.push(if is_instance_stmt {
                        if added {
                            Change::AddPropertyInstance(t)
                        } else {
                            Change::DeletePropertyInstance(t)
                        }
                    } else {
                        Change::Generic { triple: t, added }
                    });
                }
            }
        }

        ChangeSet { changes }
    }

    /// The detected changes.
    pub fn changes(&self) -> &[Change] {
        &self.changes
    }

    /// Number of high-level changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// `true` if no changes were detected.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Histogram of change kinds.
    pub fn counts_by_kind(&self) -> FxHashMap<ChangeKind, usize> {
        let mut out = FxHashMap::default();
        for c in &self.changes {
            *out.entry(c.kind()).or_insert(0) += 1;
        }
        out
    }

    /// Number of schema-level changes (see [`ChangeKind::is_schema_level`]).
    pub fn schema_change_count(&self) -> usize {
        self.changes
            .iter()
            .filter(|c| c.kind().is_schema_level())
            .count()
    }

    /// Changes attributed to `term` (primary term match).
    pub fn changes_about(&self, term: TermId) -> impl Iterator<Item = &Change> {
        self.changes.iter().filter(move |c| c.primary_term() == term)
    }
}

/// Convenience: render every change in a set.
pub fn describe_all(set: &ChangeSet, interner: &TermInterner) -> Vec<String> {
    set.changes().iter().map(|c| c.describe(interner)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Graph, SchemaView, Term};

    struct World {
        g1: Graph,
        g2: Graph,
    }

    impl World {
        /// Two versions of a tiny KB built over a *shared* interner: the
        /// second graph is a clone of the first, mutated.
        fn new() -> (World, Ids) {
            let mut g1 = Graph::new();
            let person = g1.iri("http://x/Person");
            let student = g1.iri("http://x/Student");
            let staff = g1.iri("http://x/Staff");
            let dept = g1.iri("http://x/Department");
            let works_in = g1.iri("http://x/worksIn");
            let alice = g1.iri("http://x/alice");
            let d1 = g1.iri("http://x/cs");
            let v = *g1.vocab();

            let class = v.rdfs_class;
            for c in [person, student, staff, dept] {
                g1.insert(Triple::new(c, v.rdf_type, class));
            }
            g1.insert(Triple::new(student, v.rdfs_subclassof, person));
            g1.insert(Triple::new(staff, v.rdfs_subclassof, person));
            g1.insert(Triple::new(works_in, v.rdf_type, v.owl_object_property));
            g1.insert(Triple::new(works_in, v.rdfs_domain, staff));
            g1.insert(Triple::new(works_in, v.rdfs_range, dept));
            g1.insert(Triple::new(alice, v.rdf_type, staff));
            g1.insert(Triple::new(d1, v.rdf_type, dept));
            g1.insert(Triple::new(alice, works_in, d1));

            let g2 = g1.clone();
            (
                World { g1, g2 },
                Ids {
                    person,
                    student,
                    staff,
                    dept,
                    works_in,
                    alice,
                    d1,
                },
            )
        }

        fn detect(&self) -> ChangeSet {
            let v = self.g1.vocab();
            let before = SchemaView::extract(self.g1.store(), v);
            let after = SchemaView::extract(self.g2.store(), v);
            let delta = LowLevelDelta::compute(self.g1.store(), self.g2.store());
            ChangeSet::detect(&delta, &before, &after, v)
        }
    }

    struct Ids {
        person: TermId,
        student: TermId,
        staff: TermId,
        dept: TermId,
        works_in: TermId,
        alice: TermId,
        d1: TermId,
    }

    #[test]
    fn no_change_no_output() {
        let (w, _) = World::new();
        let set = w.detect();
        assert!(set.is_empty());
    }

    #[test]
    fn add_class_detected() {
        let (mut w, _) = World::new();
        let course = w.g2.iri("http://x/Course");
        let v = *w.g2.vocab();
        w.g2.insert(Triple::new(course, v.rdf_type, v.rdfs_class));
        let set = w.detect();
        assert!(set.changes().contains(&Change::AddClass(course)));
        assert_eq!(set.counts_by_kind()[&ChangeKind::AddClass], 1);
        assert_eq!(set.schema_change_count(), 1);
    }

    #[test]
    fn delete_class_detected() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        // Remove every triple mentioning Student.
        let doomed = w.g2.store().mentioning(ids.student);
        for t in doomed {
            w.g2.store_mut().remove(&t);
        }
        let _ = v;
        let set = w.detect();
        assert!(set.changes().contains(&Change::DeleteClass(ids.student)));
    }

    #[test]
    fn move_class_pairs_retract_and_assert() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        w.g2
            .store_mut()
            .remove(&Triple::new(ids.student, v.rdfs_subclassof, ids.person));
        w.g2
            .insert(Triple::new(ids.student, v.rdfs_subclassof, ids.staff));
        let set = w.detect();
        assert!(set.changes().contains(&Change::MoveClass {
            class: ids.student,
            from: ids.person,
            to: ids.staff,
        }));
        // The paired edits must not also surface individually.
        assert_eq!(set.counts_by_kind().get(&ChangeKind::AddSubclass), None);
        assert_eq!(set.counts_by_kind().get(&ChangeKind::DeleteSubclass), None);
    }

    #[test]
    fn plain_subclass_add_not_promoted_to_move() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        w.g2
            .insert(Triple::new(ids.dept, v.rdfs_subclassof, ids.person));
        let set = w.detect();
        assert!(set.changes().contains(&Change::AddSubclass {
            child: ids.dept,
            parent: ids.person,
        }));
    }

    #[test]
    fn domain_change_detected_with_both_sides() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        w.g2
            .store_mut()
            .remove(&Triple::new(ids.works_in, v.rdfs_domain, ids.staff));
        w.g2
            .insert(Triple::new(ids.works_in, v.rdfs_domain, ids.person));
        let set = w.detect();
        assert!(set.changes().contains(&Change::ChangeDomain {
            property: ids.works_in,
            from: Some(ids.staff),
            to: Some(ids.person),
        }));
    }

    #[test]
    fn range_only_added_has_empty_from() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        let extra = w.g2.iri("http://x/Org");
        w.g2.insert(Triple::new(extra, v.rdf_type, v.rdfs_class));
        w.g2.insert(Triple::new(ids.works_in, v.rdfs_range, extra));
        let set = w.detect();
        assert!(set.changes().contains(&Change::ChangeRange {
            property: ids.works_in,
            from: None,
            to: Some(extra),
        }));
    }

    #[test]
    fn instance_churn_detected() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        let bob = w.g2.iri("http://x/bob");
        w.g2.insert(Triple::new(bob, v.rdf_type, ids.student));
        w.g2
            .store_mut()
            .remove(&Triple::new(ids.alice, ids.works_in, ids.d1));
        let set = w.detect();
        assert!(set.changes().contains(&Change::AddTypeInstance {
            instance: bob,
            class: ids.student,
        }));
        assert!(set
            .changes()
            .contains(&Change::DeletePropertyInstance(Triple::new(
                ids.alice,
                ids.works_in,
                ids.d1
            ))));
        assert_eq!(set.schema_change_count(), 0);
    }

    #[test]
    fn relabel_detected() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        // Intern both literals into the *shared* id space before cloning
        // the version, so both graphs agree on identifiers.
        let old = w.g1.interner_mut().intern(Term::literal("Staff"));
        let new = w.g1.interner_mut().intern(Term::literal("Employees"));
        w.g1.insert(Triple::new(ids.staff, v.rdfs_label, old));
        w.g2 = w.g1.clone();
        w.g2
            .store_mut()
            .remove(&Triple::new(ids.staff, v.rdfs_label, old));
        w.g2.insert(Triple::new(ids.staff, v.rdfs_label, new));
        let set = w.detect();
        assert!(set.changes().contains(&Change::Relabel {
            term: ids.staff,
            from: Some(old),
            to: Some(new),
        }));
    }

    #[test]
    fn changes_about_filters_by_primary_term() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        let bob = w.g2.iri("http://x/bob");
        w.g2.insert(Triple::new(bob, v.rdf_type, ids.student));
        let set = w.detect();
        assert_eq!(set.changes_about(ids.student).count(), 1);
        assert_eq!(set.changes_about(ids.dept).count(), 0);
    }

    #[test]
    fn describe_is_humane() {
        let (mut w, ids) = World::new();
        let v = *w.g2.vocab();
        w.g2
            .store_mut()
            .remove(&Triple::new(ids.student, v.rdfs_subclassof, ids.person));
        w.g2
            .insert(Triple::new(ids.student, v.rdfs_subclassof, ids.staff));
        let set = w.detect();
        let lines = describe_all(&set, w.g1.interner());
        assert!(lines.iter().any(|l| l.contains("Student") && l.contains("moved")));
    }
}
