//! Criterion micro-benchmarks for the §II measure catalogue (E2's
//! per-measure cost, measured precisely).
//!
//! Betweenness and bridging are memoised per version in the
//! `VersionedStore`'s substrate, so a context rebuilt over one
//! long-lived store hands the structural measures centralities that the
//! warm-up or an earlier sample already paid for. Each timed iteration
//! therefore computes over a context built, untimed, on a fresh
//! two-version store holding the evolved KB's base and head snapshots.
//! Consecutive versions with equal class graphs share one betweenness,
//! so the bench also panics unless the step changes the class graph:
//! `betweenness-shift` and `bridging-shift` then time two betweenness
//! computations, one per version.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_kb::TripleStore;
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_synth::{GeneratedKb, Scenario, SchemaConfig};
use evorec_versioning::VersionedStore;
use std::hint::black_box;

fn evolved(classes: usize) -> GeneratedKb {
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes,
        properties: (classes / 5).max(2),
        instances: classes * 5,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 88,
    });
    kb.evolve(
        &Scenario::Hotspot {
            focus_classes: 3,
            rate: 0.15,
            concentration: 0.9,
        },
        89,
    );
    kb
}

/// The base and head snapshots of one evolution step, committed into a
/// store of their own for every context.
struct Step {
    base: TripleStore,
    head: TripleStore,
}

impl Step {
    fn new(kb: &GeneratedKb) -> Step {
        let head = kb.store.head().expect("the evolved KB has a head version");
        let step = Step {
            base: kb.store.snapshot(kb.base_version).clone(),
            head: kb.store.snapshot(head).clone(),
        };
        let fresh = step.context();
        assert_eq!(
            fresh.fingerprint(),
            EvolutionContext::build(&kb.store, kb.base_version, head).fingerprint(),
            "the fresh store must describe the evolved KB's step"
        );
        assert!(
            *fresh.graph_before != *fresh.graph_after,
            "the step must change the class graph, or its two versions share one \
             betweenness and the structural measures time one computation, not two"
        );
        step
    }

    /// A context whose store has computed no centrality yet.
    fn context(&self) -> EvolutionContext {
        let mut store = VersionedStore::new();
        let from = store.commit_snapshot("base", self.base.clone());
        let to = store.commit_snapshot("head", self.head.clone());
        EvolutionContext::build(&store, from, to)
    }
}

fn bench_each_measure(c: &mut Criterion) {
    let step = Step::new(&evolved(300));
    let registry = MeasureRegistry::standard();
    let mut group = c.benchmark_group("measure");
    group.sample_size(10);
    for measure in registry.all() {
        group.bench_function(measure.id().as_str(), |b| {
            b.iter_batched(
                || step.context(),
                |ctx| black_box(measure.compute(&ctx)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn bench_catalogue(c: &mut Criterion) {
    let kb = evolved(300);
    let head = kb.store.head().unwrap();
    let step = Step::new(&kb);
    let registry = MeasureRegistry::standard();
    let mut group = c.benchmark_group("catalogue");
    group.sample_size(10);
    group.bench_function("compute_all_300c", |b| {
        b.iter_batched(
            || step.context(),
            |ctx| black_box(registry.compute_all(&ctx)),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("context_build_300c", |b| {
        b.iter(|| black_box(EvolutionContext::build(&kb.store, kb.base_version, head)))
    });
    group.finish();
}

criterion_group!(benches, bench_each_measure, bench_catalogue);
criterion_main!(benches);
