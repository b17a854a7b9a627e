//! Quickstart: two versions of a tiny knowledge base, the full measure
//! catalogue, and one personalised recommendation with explanations.
//!
//! Run with: `cargo run --example quickstart`

use evorec::core::{Explainer, Recommender, UserId, UserProfile};
use evorec::kb::{ntriples, Triple, TripleStore};
use evorec::measures::{EvolutionContext, MeasureRegistry};
use evorec::versioning::{Justification, ProvenanceLedger, VersionedStore};

/// Version 1: a small university ontology.
const V1: &str = r#"
<http://uni.example/Student> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://uni.example/Person> .
<http://uni.example/Teacher> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://uni.example/Person> .
<http://uni.example/teaches> <http://www.w3.org/2000/01/rdf-schema#domain> <http://uni.example/Teacher> .
<http://uni.example/teaches> <http://www.w3.org/2000/01/rdf-schema#range> <http://uni.example/Course> .
<http://uni.example/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/Teacher> .
<http://uni.example/algo> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/Course> .
<http://uni.example/alice> <http://uni.example/teaches> <http://uni.example/algo> .
"#;

/// Version 2: the curriculum grows — new courses, students, and a new
/// `PhDStudent` class wedged into the hierarchy.
const V2_EXTRA: &str = r#"
<http://uni.example/PhDStudent> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://uni.example/Student> .
<http://uni.example/db> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/Course> .
<http://uni.example/ml> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/Course> .
<http://uni.example/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/PhDStudent> .
<http://uni.example/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://uni.example/Student> .
<http://uni.example/alice> <http://uni.example/teaches> <http://uni.example/db> .
"#;

fn parse_into(store: &mut VersionedStore, doc: &str, base: TripleStore) -> TripleStore {
    let mut snapshot = base;
    for (s, p, o) in ntriples::parse_document(doc).expect("fixture parses") {
        let triple = Triple::new(store.intern(s), store.intern(p), store.intern(o));
        snapshot.insert(triple);
    }
    snapshot
}

fn main() {
    // 1. Build a two-version history (one shared interner).
    let mut store = VersionedStore::new();
    let s1 = parse_into(&mut store, V1, TripleStore::new());
    let v1 = store.commit_snapshot("2016-spring", s1.clone());
    let s2 = parse_into(&mut store, V2_EXTRA, s1);
    let v2 = store.commit_snapshot("2016-fall", s2);

    // Record who made the change (transparency, §III(b)).
    let mut ledger = ProvenanceLedger::new();
    ledger.record_commit(
        "registrar",
        "semester-import",
        Some(v1),
        v2,
        &store.delta(v1, v2),
        Justification::Observation,
        "fall semester curriculum load",
    );

    // 2. Evaluate the full §II measure catalogue over the evolution step.
    let ctx = EvolutionContext::build(&store, v1, v2);
    let registry = MeasureRegistry::standard();
    println!("=== Evolution {} -> {} ===", v1, v2);
    println!(
        "delta: +{} / -{} triples, {} high-level changes\n",
        ctx.delta.added_count(),
        ctx.delta.removed_count(),
        ctx.changes().len()
    );
    println!("Top finding of every measure:");
    for report in registry.compute_all(&ctx) {
        if let Some(&(term, score)) = report.scores().first() {
            println!(
                "  {:32} [{}] -> {} (score {:.3})",
                report.measure.to_string(),
                report.category,
                store.interner().label(term),
                score
            );
        }
    }

    // 3. Recommend for a curator who cares about the Student subtree.
    let student = store
        .interner()
        .lookup_iri("http://uni.example/Student")
        .expect("Student is interned");
    let curator = UserProfile::new(UserId(0), "curator").with_interest(student, 1.0);
    let recommender = Recommender::with_defaults(registry);

    // Title-level operation: which evolution MEASURES suit this curator?
    println!("\n=== Measures recommended for '{}' ===", curator.name);
    for (measure, score) in recommender.recommend_measures(&ctx, &curator, 4) {
        println!("  {measure:32} score {score:.3}");
    }

    let recommendation = recommender.recommend(&ctx, &curator);

    println!("\n=== Recommended for '{}' ===", curator.name);
    let explainer =
        Explainer::new(&ctx, recommender.registry(), store.interner()).with_ledger(&ledger);
    for scored in &recommendation.items {
        println!("{}", explainer.explain(scored).render());
    }
}
