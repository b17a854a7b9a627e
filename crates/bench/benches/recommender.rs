//! Criterion micro-benchmarks for the §III recommender pipeline:
//! single-user and group recommendation, diversity selection, the
//! k-anonymiser, and the amortised serving layer (report cache cold vs
//! warm).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_core::{
    anonymity::anonymise, item_relatedness, relatedness::expansion_config, select_mmr,
    DistanceMatrix, DistanceWeights, ExpandedProfile, Recommender, RecommenderConfig,
    ReportCache, UserProfile, UserId,
};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_synth::workload::{clinical, curated_kb};
use std::hint::black_box;
use std::sync::Arc;

fn bench_recommend(c: &mut Criterion) {
    let world = curated_kb(200, 55);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let profile = world.population.profiles[0].clone();
    // Warm the context's memoised centralities once so the bench
    // isolates the recommendation pipeline itself.
    let _ = recommender.recommend(&ctx, &profile);

    let mut group = c.benchmark_group("recommend");
    group.sample_size(20);
    group.bench_function("single_user_200c", |b| {
        b.iter(|| black_box(recommender.recommend(black_box(&ctx), black_box(&profile))))
    });
    let team: Vec<UserProfile> = world.population.profiles[..8].to_vec();
    group.bench_function("group8_200c", |b| {
        b.iter(|| black_box(recommender.recommend_for_group(black_box(&ctx), black_box(&team))))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let world = curated_kb(200, 56);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let (items, reports) = recommender.candidates(&ctx);
    let profile = UserProfile::new(UserId(0), "u").with_interest(world.kb.classes[1], 1.0);
    let expanded = ExpandedProfile::expand(&profile, &ctx.graph_union, expansion_config());
    let relevance: Vec<f64> = items.iter().map(|it| item_relatedness(&expanded, it)).collect();

    let mut group = c.benchmark_group("selection");
    group.bench_function("distance_matrix", |b| {
        b.iter(|| {
            black_box(DistanceMatrix::compute(
                black_box(&items),
                black_box(&reports),
                20,
                DistanceWeights::default(),
            ))
        })
    });
    let distances = DistanceMatrix::compute(&items, &reports, 20, DistanceWeights::default());
    group.bench_function("mmr_k5", |b| {
        b.iter(|| black_box(select_mmr(black_box(&relevance), black_box(&distances), 5, 0.7)))
    });
    group.finish();
}

/// Cold vs warm serving over the same evolution step. Both sides
/// rebuild the `EvolutionContext` per request (outside the timed
/// region), so the cold/warm delta isolates exactly what the report
/// cache amortises: the full measure-catalogue evaluation and the
/// profile's PageRank interest expansion. The warm case panics if any
/// of its requests expanded the profile anew.
fn bench_cache(c: &mut Criterion) {
    let world = curated_kb(200, 58);
    let store = &world.kb.store;
    let (base, head) = (world.base(), world.head());
    let cache = Arc::new(ReportCache::new());
    let recommender = Recommender::with_cache(
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
        Arc::clone(&cache),
    );
    let profile = world.population.profiles[0].clone();

    let mut group = c.benchmark_group("cache");
    group.sample_size(10);
    group.bench_function("recommend_cold_200c", |b| {
        b.iter_batched(
            || {
                cache.clear();
                EvolutionContext::build(store, base, head)
            },
            |ctx| black_box(recommender.recommend(&ctx, &profile)),
            BatchSize::PerIteration,
        )
    });
    // Prime once; from here every rebuilt context fingerprints onto the
    // same entries: the full catalogue and the profile's interest
    // expansion are served from the cache.
    cache.clear();
    let primed = EvolutionContext::build(store, base, head);
    let _ = recommender.recommend(&primed, &profile);
    let primed_stats = cache.stats();
    group.bench_function("recommend_warm_200c", |b| {
        b.iter_batched(
            || EvolutionContext::build(store, base, head),
            |ctx| black_box(recommender.recommend(&ctx, &profile)),
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let warm_stats = cache.stats();
    assert_eq!(
        warm_stats.expansion_misses, primed_stats.expansion_misses,
        "a warm recommend re-ran the profile's PageRank expansion"
    );
    assert!(
        warm_stats.expansion_hits > primed_stats.expansion_hits,
        "the warm recommends never read the expansion memo"
    );
}

fn bench_anonymise(c: &mut Criterion) {
    let world = clinical(150, 57);
    let parents = world.kb.parent_terms();
    let mut group = c.benchmark_group("anonymise");
    for k in [2usize, 8, 32] {
        group.bench_function(format!("k{k}_48users"), |b| {
            b.iter(|| black_box(anonymise(black_box(&world.feeds), black_box(&parents), k)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_recommend,
    bench_selection,
    bench_cache,
    bench_anonymise
);
criterion_main!(benches);
