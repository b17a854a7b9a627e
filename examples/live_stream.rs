//! Live streaming serving loop: change events in, warm recommendations
//! out, with readers never blocking on epoch rebuilds.
//!
//! A producer replays the curated-KB workload's evolution history as
//! triple-level events into the streaming pipeline; the pipeline
//! micro-batches them into committed epochs, publishes a freshly
//! fingerprinted `EvolutionContext` after each commit, and pre-warms
//! the measure catalogue into a shared `ReportCache`. A curator watches
//! the live context and gets recommendations against whatever epoch is
//! current — served warm, because publication warmed the cache first.
//!
//! Run with: `cargo run --release --example live_stream`

use evorec::core::{Recommender, RecommenderConfig, ReportCache};
use evorec::measures::MeasureRegistry;
use evorec::obs::{MetricsRegistry, MetricsSource, Tracer};
use evorec::stream::{IngestorConfig, PipelineOptions, StreamPipeline};
use evorec::synth::workload::curated_kb;
use evorec::synth::workload::streamed::{replay, seeded_ingestor};
use evorec::versioning::VersionId;
use std::sync::Arc;

fn main() {
    // A synthetic evolving KB: V0 base, then uniform churn, then a
    // planted hotspot. We stream its history instead of batch-loading.
    let world = curated_kb(150, 42);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());

    let ingestor = seeded_ingestor(
        &world,
        IngestorConfig {
            max_batch: 64,
            ..Default::default()
        },
    );
    // Unified observability: the cache, the live context, and the
    // pipeline's span tracer all report through one registry.
    let metrics = MetricsRegistry::new();
    let tracer = Arc::new(Tracer::monotonic());
    metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
    metrics.register_source(Arc::clone(&tracer) as Arc<dyn MetricsSource>);
    let pipeline = StreamPipeline::spawn(
        ingestor,
        PipelineOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        },
    );
    let live = Arc::clone(pipeline.live());
    metrics.register_source(Arc::clone(&live) as Arc<dyn MetricsSource>);
    println!(
        "pipeline up: origin {}, epoch {}",
        live.current().from,
        live.epoch()
    );

    // The consumer side: a cache-backed recommender serving a curator
    // interested in one of the hotspot classes.
    let recommender = Recommender::with_cache(
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
        Arc::clone(&cache),
    );
    let curator = world.population.profiles[0].clone();

    // Producer: replay the workload's steps as event streams. After
    // each step is committed and published, serve against the live
    // context.
    for (step, events) in replay(&world).into_iter().enumerate() {
        let count = events.len();
        for event in events {
            pipeline.send(event).expect("pipeline running");
        }
        // Wait until the published context has absorbed this step:
        // once it has, its delta (origin → head) equals the batch
        // history's delta up to the same step — a content comparison,
        // immune to the pipeline splitting a step into several epochs.
        let step_version = VersionId::from_u32(world.base().as_u32() + step as u32 + 1);
        let expected = world.kb.store.delta(world.base(), step_version);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while *live.current().delta != *expected {
            assert!(
                std::time::Instant::now() < deadline,
                "pipeline failed to publish step {step} within 30s"
            );
            std::thread::yield_now();
        }
        let ctx = live.current();
        let recommendation = recommender.recommend(&ctx, &curator);
        println!(
            "\nstep {step}: {count} events -> live context {} (epoch {})",
            ctx.fingerprint(),
            live.epoch()
        );
        for scored in recommendation.items.iter().take(3) {
            println!(
                "  {:36} focus {:?}  objective {:.3}",
                scored.item.measure.to_string(),
                scored.item.focus,
                scored.objective
            );
        }
        let stats = cache.stats();
        println!(
            "  cache: {} hits / {} misses / {} invalidated (hit rate {:.0}%)",
            stats.hits,
            stats.misses,
            stats.invalidations,
            stats.hit_rate() * 100.0
        );
    }

    let ingestor = pipeline.shutdown();
    // Fold the final ingest counters in (the live ingestor belonged to
    // the worker thread) and render the whole run as one unified
    // snapshot instead of ad-hoc Debug prints.
    metrics.register_source(Arc::new(ingestor.stats()) as Arc<dyn MetricsSource>);
    println!("\nfinal metrics snapshot (JSON):");
    println!("{}", metrics.snapshot().render_json());
    let head = ingestor.head().expect("epochs committed");
    assert_eq!(
        ingestor.store().snapshot(head),
        world.kb.store.snapshot(world.head()),
        "streamed history converged on the batch-built head snapshot"
    );
    println!("verified: streamed head snapshot == batch-built head snapshot");
}
