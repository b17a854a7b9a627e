//! Schema-level view extraction over a triple store.
//!
//! [`SchemaView`] digests one knowledge-base snapshot into the structures
//! the evolution measures of ICDE'17 §II consume: the class and property
//! sets, the subsumption hierarchy, domain/range declarations, per-class
//! instance extents, and instance-level property connection counts (the
//! inputs to *relative cardinality*), plus the §II(d) semantic
//! importance of every class derived from them. Following Troullinou et
//! al. ("Ontology understanding without tears", the paper's reference
//! [15]):
//!
//! - the **relative cardinality** RC of a property between two classes is
//!   the number of instance connections between them divided by the total
//!   connections of the two classes' instances
//!   ([`SchemaView::relative_cardinality`]);
//! - the **in/out-centrality** of a class is the sum of relative
//!   cardinalities of its incoming/outgoing properties
//!   ([`SchemaView::centralities`]);
//! - the **relevance** of a class combines its own centrality, its
//!   neighbours' centralities, and its instance extent
//!   ([`SchemaView::relevance`]):
//!   `rel(n) = c(n) + mean_{m ∈ N(n)} c(m)` with
//!   `c(x) = (Cin(x) + Cout(x)) · ln(1 + |instances(x)|)`.
//!
//! Centralities and relevance belong to the version, not to an
//! evolution step, so a view computes each on first use and every step
//! reading the view shares it.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::store::TripleStore;
use crate::term::TermId;
use crate::vocab::Vocab;
use std::sync::{Arc, OnceLock};

/// An immutable schema-level digest of one snapshot.
#[derive(Default, Clone, Debug)]
pub struct SchemaView {
    classes: FxHashSet<TermId>,
    properties: FxHashSet<TermId>,
    subclass_edges: Vec<(TermId, TermId)>,
    parents: FxHashMap<TermId, Vec<TermId>>,
    children: FxHashMap<TermId, Vec<TermId>>,
    domains: FxHashMap<TermId, Vec<TermId>>,
    ranges: FxHashMap<TermId, Vec<TermId>>,
    instances_of: FxHashMap<TermId, Vec<TermId>>,
    types_of: FxHashMap<TermId, Vec<TermId>>,
    /// property → (subject class, object class) → number of instance links.
    property_links: FxHashMap<TermId, FxHashMap<(TermId, TermId), u64>>,
    /// class → total instance connections its instances participate in.
    connection_totals: FxHashMap<TermId, u64>,
    /// class ↔ class adjacency via subsumption or property connection.
    class_adj: FxHashMap<TermId, FxHashSet<TermId>>,
    /// Memo of [`SchemaView::centralities`].
    centralities: OnceLock<Arc<CentralityVectors>>,
    /// Memo of [`SchemaView::relevance`].
    relevance: OnceLock<Arc<FxHashMap<TermId, f64>>>,
}

impl SchemaView {
    /// Extract a schema view from `store`.
    ///
    /// Extraction is a three-pass scan: (1) declarations (class/property
    /// types, subsumption, domain/range), (2) instance typing, (3)
    /// instance-level property links. Undeclared predicates encountered in
    /// pass 3 are adopted as properties, matching the tolerant reading real
    /// Linked Data requires.
    pub fn extract(store: &TripleStore, vocab: &Vocab) -> SchemaView {
        let mut view = SchemaView::default();

        // Pass 1: declarations.
        for triple in store.iter() {
            if triple.p == vocab.rdf_type {
                if vocab.is_class_type(triple.o) {
                    view.classes.insert(triple.s);
                } else if vocab.is_property_type(triple.o) {
                    view.properties.insert(triple.s);
                }
            } else if triple.p == vocab.rdfs_subclassof {
                view.classes.insert(triple.s);
                view.classes.insert(triple.o);
                view.subclass_edges.push((triple.s, triple.o));
            } else if triple.p == vocab.rdfs_domain {
                view.properties.insert(triple.s);
                view.classes.insert(triple.o);
                view.domains.entry(triple.s).or_default().push(triple.o);
            } else if triple.p == vocab.rdfs_range {
                view.properties.insert(triple.s);
                view.classes.insert(triple.o);
                view.ranges.entry(triple.s).or_default().push(triple.o);
            }
        }
        view.subclass_edges.sort_unstable();
        view.subclass_edges.dedup();
        for &(child, parent) in &view.subclass_edges {
            view.parents.entry(child).or_default().push(parent);
            view.children.entry(parent).or_default().push(child);
        }

        // Pass 2: instance typing. An rdf:type whose object is neither a
        // meta-type nor a declared property types an instance; its object
        // is adopted as a class if not yet declared.
        for triple in store.with_predicate(vocab.rdf_type) {
            if vocab.is_class_type(triple.o) || vocab.is_property_type(triple.o) {
                continue;
            }
            if view.classes.contains(&triple.s) || view.properties.contains(&triple.s) {
                continue;
            }
            view.classes.insert(triple.o);
            view.instances_of.entry(triple.o).or_default().push(triple.s);
            view.types_of.entry(triple.s).or_default().push(triple.o);
        }
        for list in view.instances_of.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        for list in view.types_of.values_mut() {
            list.sort_unstable();
            list.dedup();
        }

        // Pass 3: instance-level property links.
        for triple in store.iter() {
            if vocab.is_schema_predicate(triple.p) {
                continue;
            }
            let (Some(s_types), Some(o_types)) =
                (view.types_of.get(&triple.s), view.types_of.get(&triple.o))
            else {
                continue;
            };
            view.properties.insert(triple.p);
            // Clone the small type vectors to appease the borrow checker;
            // instances carry one or two types in practice.
            let s_types = s_types.clone();
            let o_types = o_types.clone();
            let links = view.property_links.entry(triple.p).or_default();
            for &cs in &s_types {
                for &co in &o_types {
                    *links.entry((cs, co)).or_insert(0) += 1;
                }
            }
            for &cs in &s_types {
                *view.connection_totals.entry(cs).or_insert(0) += 1;
            }
            for &co in &o_types {
                *view.connection_totals.entry(co).or_insert(0) += 1;
            }
        }

        // Adjacency: subsumption edges plus property-connected class pairs
        // (observed instance links and declared domain/range products).
        for &(child, parent) in &view.subclass_edges {
            view.class_adj.entry(child).or_default().insert(parent);
            view.class_adj.entry(parent).or_default().insert(child);
        }
        for links in view.property_links.values() {
            for &(cs, co) in links.keys() {
                if cs != co {
                    view.class_adj.entry(cs).or_default().insert(co);
                    view.class_adj.entry(co).or_default().insert(cs);
                }
            }
        }
        let declared_pairs: Vec<(TermId, TermId)> = view
            .properties
            .iter()
            .flat_map(|p| {
                let ds = view.domains.get(p).cloned().unwrap_or_default();
                let rs = view.ranges.get(p).cloned().unwrap_or_default();
                ds.into_iter()
                    .flat_map(move |d| rs.clone().into_iter().map(move |r| (d, r)))
            })
            .collect();
        for (d, r) in declared_pairs {
            if d != r {
                view.class_adj.entry(d).or_default().insert(r);
                view.class_adj.entry(r).or_default().insert(d);
            }
        }

        view
    }

    /// The set of classes (declared or induced by typing).
    pub fn classes(&self) -> &FxHashSet<TermId> {
        &self.classes
    }

    /// The set of properties (declared or observed as predicates).
    pub fn properties(&self) -> &FxHashSet<TermId> {
        &self.properties
    }

    /// `true` if `id` is a known class.
    pub fn is_class(&self, id: TermId) -> bool {
        self.classes.contains(&id)
    }

    /// `true` if `id` is a known property.
    pub fn is_property(&self, id: TermId) -> bool {
        self.properties.contains(&id)
    }

    /// All `(child, parent)` subsumption edges, sorted, deduplicated.
    pub fn subclass_edges(&self) -> &[(TermId, TermId)] {
        &self.subclass_edges
    }

    /// Direct superclasses of `class`.
    pub fn parents_of(&self, class: TermId) -> &[TermId] {
        self.parents.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Direct subclasses of `class`.
    pub fn children_of(&self, class: TermId) -> &[TermId] {
        self.children.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Declared domains of `property`.
    pub fn domains_of(&self, property: TermId) -> &[TermId] {
        self.domains.get(&property).map_or(&[], Vec::as_slice)
    }

    /// Declared ranges of `property`.
    pub fn ranges_of(&self, property: TermId) -> &[TermId] {
        self.ranges.get(&property).map_or(&[], Vec::as_slice)
    }

    /// Direct instances of `class` (sorted by id).
    pub fn instances_of(&self, class: TermId) -> &[TermId] {
        self.instances_of.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Number of direct instances of `class`.
    pub fn instance_count(&self, class: TermId) -> usize {
        self.instances_of(class).len()
    }

    /// Direct types of `instance` (sorted by id).
    pub fn types_of(&self, instance: TermId) -> &[TermId] {
        self.types_of.get(&instance).map_or(&[], Vec::as_slice)
    }

    /// Number of instance links via `property` between `(subject_class,
    /// object_class)` instances.
    pub fn property_link_count(&self, property: TermId, sc: TermId, oc: TermId) -> u64 {
        self.property_links
            .get(&property)
            .and_then(|m| m.get(&(sc, oc)))
            .copied()
            .unwrap_or(0)
    }

    /// Iterate `((subject_class, object_class), count)` pairs for `property`.
    pub fn property_pairs(
        &self,
        property: TermId,
    ) -> impl Iterator<Item = ((TermId, TermId), u64)> + '_ {
        self.property_links
            .get(&property)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&pair, &count)| (pair, count)))
    }

    /// Total instance connections the instances of `class` participate in
    /// (the denominator contribution for relative cardinality).
    pub fn connection_total(&self, class: TermId) -> u64 {
        self.connection_totals.get(&class).copied().unwrap_or(0)
    }

    /// Relative cardinality RC of `property` between `subject_class` and
    /// `object_class` — the paper's §II(d) quantity: the number of instance
    /// connections between the two classes via this property divided by the
    /// total connections the two classes' instances have.
    pub fn relative_cardinality(&self, property: TermId, sc: TermId, oc: TermId) -> f64 {
        let links = self.property_link_count(property, sc, oc);
        if links == 0 {
            return 0.0;
        }
        let denom = self.connection_total(sc) + self.connection_total(oc);
        if denom == 0 {
            0.0
        } else {
            links as f64 / denom as f64
        }
    }

    /// The per-class in- and out-centralities of this view, computed on
    /// first use and shared by every later reader.
    pub fn centralities(&self) -> &Arc<CentralityVectors> {
        self.centralities
            .get_or_init(|| Arc::new(CentralityVectors::compute(self)))
    }

    /// The relevance of every class of this view (see the module docs
    /// for the formula), computed on first use and shared by every later
    /// reader.
    pub fn relevance(&self) -> &Arc<FxHashMap<TermId, f64>> {
        self.relevance.get_or_init(|| {
            let centrality = self.centralities();
            let weighted = |class: TermId| {
                centrality.combined(class) * (1.0 + self.instance_count(class) as f64).ln()
            };
            let mut out = FxHashMap::default();
            for &class in self.classes() {
                let own = weighted(class);
                let mut neighbours: Vec<TermId> = self.adjacent_classes(class).collect();
                // Adjacency streams out of a hash set; sum in a fixed order.
                neighbours.sort_unstable();
                let neighbour_mean = if neighbours.is_empty() {
                    0.0
                } else {
                    neighbours.iter().map(|&m| weighted(m)).sum::<f64>() / neighbours.len() as f64
                };
                out.insert(class, own + neighbour_mean);
            }
            Arc::new(out)
        })
    }

    /// Classes adjacent to `class` via a subsumption edge or a property
    /// connection (declared or observed) — the per-snapshot half of the
    /// paper's §II(b) neighbourhood.
    pub fn adjacent_classes(&self, class: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.class_adj
            .get(&class)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Degree of `class` in the class-adjacency structure.
    pub fn class_degree(&self, class: TermId) -> usize {
        self.class_adj.get(&class).map_or(0, FxHashSet::len)
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of properties.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }
}

/// Per-class in- and out-centrality vectors of one schema view
/// ([`SchemaView::centralities`]).
#[derive(Default, Clone, Debug)]
pub struct CentralityVectors {
    /// Sum of RC over incoming property connections, per class.
    pub in_centrality: FxHashMap<TermId, f64>,
    /// Sum of RC over outgoing property connections, per class.
    pub out_centrality: FxHashMap<TermId, f64>,
}

impl CentralityVectors {
    /// Compute both vectors in one pass over the view's property links.
    fn compute(view: &SchemaView) -> CentralityVectors {
        // Properties and pairs stream out of hash sets; accumulate the
        // contributions in a fixed order so the float sums are
        // bit-identical across runs.
        let mut contributions: Vec<(TermId, TermId, f64)> = Vec::new();
        for &p in view.properties() {
            for ((cs, co), _count) in view.property_pairs(p) {
                let rc = view.relative_cardinality(p, cs, co);
                contributions.push((cs, co, rc));
            }
        }
        contributions
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        let mut vectors = CentralityVectors::default();
        for (cs, co, rc) in contributions {
            *vectors.out_centrality.entry(cs).or_insert(0.0) += rc;
            *vectors.in_centrality.entry(co).or_insert(0.0) += rc;
        }
        vectors
    }

    /// In-centrality of `class` (0 if unconnected).
    pub fn cin(&self, class: TermId) -> f64 {
        self.in_centrality.get(&class).copied().unwrap_or(0.0)
    }

    /// Out-centrality of `class` (0 if unconnected).
    pub fn cout(&self, class: TermId) -> f64 {
        self.out_centrality.get(&class).copied().unwrap_or(0.0)
    }

    /// Combined centrality Cin + Cout.
    pub fn combined(&self, class: TermId) -> f64 {
        self.cin(class) + self.cout(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::TermInterner;
    use crate::term::Term;
    use crate::triple::Triple;

    struct Fixture {
        interner: TermInterner,
        vocab: Vocab,
        store: TripleStore,
    }

    impl Fixture {
        fn new() -> Self {
            let mut interner = TermInterner::new();
            let vocab = Vocab::install(&mut interner);
            Fixture {
                interner,
                vocab,
                store: TripleStore::new(),
            }
        }

        fn iri(&mut self, name: &str) -> TermId {
            self.interner.intern(Term::iri(format!("http://x/{name}")))
        }

        fn add(&mut self, s: TermId, p: TermId, o: TermId) {
            self.store.insert(Triple::new(s, p, o));
        }

        fn view(&self) -> SchemaView {
            SchemaView::extract(&self.store, &self.vocab)
        }
    }

    /// Small university-style schema: Person ⊒ Student, teaches links
    /// Teacher→Course, with a handful of instances.
    fn university() -> (Fixture, [TermId; 8]) {
        let mut f = Fixture::new();
        let person = f.iri("Person");
        let student = f.iri("Student");
        let teacher = f.iri("Teacher");
        let course = f.iri("Course");
        let teaches = f.iri("teaches");
        let alice = f.iri("alice");
        let bob = f.iri("bob");
        let algo = f.iri("algorithms");

        let rdf_type = f.vocab.rdf_type;
        let subclass = f.vocab.rdfs_subclassof;
        let rdfs_class = f.vocab.rdfs_class;
        let obj_prop = f.vocab.owl_object_property;
        let domain = f.vocab.rdfs_domain;
        let range = f.vocab.rdfs_range;

        for c in [person, student, teacher, course] {
            f.add(c, rdf_type, rdfs_class);
        }
        f.add(student, subclass, person);
        f.add(teacher, subclass, person);
        f.add(teaches, rdf_type, obj_prop);
        f.add(teaches, domain, teacher);
        f.add(teaches, range, course);

        f.add(alice, rdf_type, teacher);
        f.add(bob, rdf_type, student);
        f.add(algo, rdf_type, course);
        f.add(alice, teaches, algo);

        (
            f,
            [person, student, teacher, course, teaches, alice, bob, algo],
        )
    }

    #[test]
    fn declared_classes_and_properties_found() {
        let (f, [person, student, teacher, course, teaches, ..]) = university();
        let v = f.view();
        for c in [person, student, teacher, course] {
            assert!(v.is_class(c));
        }
        assert!(v.is_property(teaches));
        assert!(!v.is_class(teaches));
        assert_eq!(v.class_count(), 4);
        assert_eq!(v.property_count(), 1);
    }

    #[test]
    fn subsumption_hierarchy_extracted() {
        let (f, [person, student, teacher, ..]) = university();
        let v = f.view();
        assert_eq!(v.parents_of(student), &[person]);
        assert_eq!(v.parents_of(teacher), &[person]);
        let mut kids = v.children_of(person).to_vec();
        kids.sort_unstable();
        let mut expect = vec![student, teacher];
        expect.sort_unstable();
        assert_eq!(kids, expect);
        assert_eq!(v.subclass_edges().len(), 2);
    }

    #[test]
    fn domain_range_extracted() {
        let (f, [_, _, teacher, course, teaches, ..]) = university();
        let v = f.view();
        assert_eq!(v.domains_of(teaches), &[teacher]);
        assert_eq!(v.ranges_of(teaches), &[course]);
    }

    #[test]
    fn instances_and_types() {
        let (f, [_, student, teacher, course, _, alice, bob, algo]) = university();
        let v = f.view();
        assert_eq!(v.instances_of(teacher), &[alice]);
        assert_eq!(v.instances_of(student), &[bob]);
        assert_eq!(v.instances_of(course), &[algo]);
        assert_eq!(v.instance_count(teacher), 1);
        assert_eq!(v.types_of(alice), &[teacher]);
        assert_eq!(v.types_of(bob), &[student]);
    }

    #[test]
    fn property_links_counted_per_class_pair() {
        let (f, [_, _, teacher, course, teaches, ..]) = university();
        let v = f.view();
        assert_eq!(v.property_link_count(teaches, teacher, course), 1);
        assert_eq!(v.property_link_count(teaches, course, teacher), 0);
        let pairs: Vec<_> = v.property_pairs(teaches).collect();
        assert_eq!(pairs, vec![((teacher, course), 1)]);
    }

    #[test]
    fn relative_cardinality_matches_definition() {
        let (f, [_, _, teacher, course, teaches, ..]) = university();
        let v = f.view();
        // One link; teacher participates once, course participates once.
        assert_eq!(v.connection_total(teacher), 1);
        assert_eq!(v.connection_total(course), 1);
        let rc = v.relative_cardinality(teaches, teacher, course);
        assert!((rc - 0.5).abs() < 1e-12, "rc = {rc}");
        // Absent pair → 0, no division by zero.
        assert_eq!(v.relative_cardinality(teaches, course, teacher), 0.0);
    }

    #[test]
    fn adjacency_unions_subsumption_and_properties() {
        let (f, [person, student, teacher, course, ..]) = university();
        let v = f.view();
        let mut adj: Vec<_> = v.adjacent_classes(teacher).collect();
        adj.sort_unstable();
        let mut expect = vec![person, course];
        expect.sort_unstable();
        assert_eq!(adj, expect, "teacher ~ person (subclass), course (teaches)");
        let person_adj: Vec<_> = v.adjacent_classes(person).collect();
        assert_eq!(person_adj.len(), 2);
        assert!(person_adj.contains(&student));
        assert_eq!(v.class_degree(teacher), 2);
        assert_eq!(v.class_degree(course), 1);
    }

    #[test]
    fn undeclared_predicate_adopted_as_property() {
        let (mut f, [_, _, teacher, course, _, alice, _, algo]) = university();
        let likes = f.iri("likes");
        f.add(alice, likes, algo);
        let v = f.view();
        assert!(v.is_property(likes));
        assert_eq!(v.property_link_count(likes, teacher, course), 1);
    }

    #[test]
    fn untyped_endpoints_do_not_produce_links() {
        let (mut f, [.., algo]) = university();
        let mystery = f.iri("mystery");
        let relates = f.iri("relates");
        f.add(mystery, relates, algo);
        let v = f.view();
        // `mystery` has no type, so no class-pair link is recorded and the
        // predicate stays unadopted (it never connects typed instances).
        assert!(v.property_pairs(relates).next().is_none());
    }

    #[test]
    fn empty_store_yields_empty_view() {
        let f = Fixture::new();
        let v = f.view();
        assert_eq!(v.class_count(), 0);
        assert_eq!(v.property_count(), 0);
        assert!(v.subclass_edges().is_empty());
    }

    #[test]
    fn multi_typed_instances_count_for_all_pairs() {
        let mut f = Fixture::new();
        let a = f.iri("A");
        let b = f.iri("B");
        let c = f.iri("C");
        let p = f.iri("p");
        let x = f.iri("x");
        let y = f.iri("y");
        let rdf_type = f.vocab.rdf_type;
        let rdfs_class = f.vocab.rdfs_class;
        for class in [a, b, c] {
            f.add(class, rdf_type, rdfs_class);
        }
        f.add(x, rdf_type, a);
        f.add(x, rdf_type, b);
        f.add(y, rdf_type, c);
        f.add(x, p, y);
        let v = f.view();
        assert_eq!(v.property_link_count(p, a, c), 1);
        assert_eq!(v.property_link_count(p, b, c), 1);
        // y has one connection regardless of how many types x carries.
        assert_eq!(v.connection_total(c), 1);
    }
}
