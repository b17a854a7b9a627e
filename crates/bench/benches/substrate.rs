//! Criterion micro-benchmarks for the storage / delta / graph substrate.
//!
//! Backs the E2 feasibility claim at the component level: pattern
//! queries, snapshot cloning and diffing, the delta wire codec, and
//! Brandes betweenness. A `TripleStore` is one B-tree set in SPO order,
//! so `store/match_predicate_400c` and `store/mentioning_400c` time
//! filtered scans of the whole snapshot (no read without a bound
//! subject has an index), while the clone, `delta/apply` and
//! `codec/decode` cases time the writes and copies that one set makes
//! cheap.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_graph::{betweenness, SchemaGraph};
use evorec_kb::{TriplePattern, TripleStore};
use evorec_synth::{GeneratedKb, Scenario, SchemaConfig};
use evorec_versioning::{decode_delta, encode_delta, LowLevelDelta};
use std::hint::black_box;

fn generated(classes: usize) -> GeneratedKb {
    GeneratedKb::generate(SchemaConfig {
        classes,
        properties: (classes / 5).max(2),
        instances: classes * 5,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 77,
    })
}

fn bench_store(c: &mut Criterion) {
    let kb = generated(400);
    let snapshot = kb.store.snapshot(kb.base_version);
    let rdf_type = kb.store.vocab().rdf_type;
    c.bench_function("store/match_predicate_400c", |b| {
        b.iter(|| {
            black_box(
                snapshot
                    .match_pattern(TriplePattern::with_predicate(black_box(rdf_type)))
                    .count(),
            )
        })
    });
    c.bench_function("store/mentioning_400c", |b| {
        let probe = kb.classes[1];
        b.iter(|| black_box(snapshot.mention_count(black_box(probe))))
    });
    c.bench_function("store/clone_insert_remove_400c", |b| {
        let triple = snapshot.iter().next().unwrap();
        b.iter_batched(
            || snapshot.clone(),
            |mut s: TripleStore| {
                s.remove(&triple);
                s.insert(triple);
                black_box(s.len())
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_delta(c: &mut Criterion) {
    let mut kb = generated(400);
    let outcome = kb.evolve(&Scenario::UniformChurn { rate: 0.1 }, 78);
    let v1 = kb.store.snapshot(kb.base_version).clone();
    let v2 = kb.store.snapshot(outcome.version).clone();
    c.bench_function("delta/compute_400c", |b| {
        b.iter(|| black_box(LowLevelDelta::compute(black_box(&v1), black_box(&v2))))
    });
    let delta = LowLevelDelta::compute(&v1, &v2);
    c.bench_function("delta/apply_400c", |b| {
        b.iter(|| black_box(delta.apply(black_box(&v1).clone())))
    });
    c.bench_function("codec/encode_400c", |b| {
        b.iter(|| black_box(encode_delta(black_box(&delta))))
    });
    let wire = encode_delta(&delta);
    c.bench_function("codec/decode_400c", |b| {
        b.iter(|| black_box(decode_delta(black_box(&wire)).unwrap()))
    });
}

fn bench_betweenness(c: &mut Criterion) {
    let kb = generated(600);
    let view = kb.store.schema_view(kb.base_version);
    let graph = SchemaGraph::from_schema_view(&view);
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    group.bench_function("serial_600c", |b| {
        b.iter(|| black_box(betweenness(black_box(&graph))))
    });
    group.finish();
}

criterion_group!(benches, bench_store, bench_delta, bench_betweenness);
criterion_main!(benches);
