//! Curator dashboard over *live* multi-window temporal serving.
//!
//! The paper's human-aware premise: different curators care about
//! change over different horizons. This dashboard streams a synthetic
//! curated knowledge base (with a planted hotspot) through the
//! ingestion pipeline while a `WindowManager` maintains four concurrent
//! views from the same epoch stream — last epoch, a sliding band, a
//! since-timestamp view, and everything since release — all sharing
//! one report cache under per-window lineages. It then serves a
//! personalised recommendation per window and a cross-window trend
//! diff showing which measures rise or fall as the horizon widens.
//!
//! Run with: `cargo run --release --example curator_dashboard`

use evorec::core::{RecommenderConfig, ReportCache, UserId, UserProfile};
use evorec::measures::MeasureRegistry;
use evorec::obs::{trace_tree, MetricsRegistry, MetricsSource, Tracer};
use evorec::stream::{EpochSink, IngestorConfig, PipelineOptions, StreamPipeline};
use evorec::synth::workload::curated_kb;
use evorec::synth::workload::streamed::{replay, seeded_ingestor, stream_into};
use evorec::windows::{
    TrendDirection, WindowDef, WindowManager, WindowManagerOptions, WindowSpec,
    WindowedRecommender,
};
use std::sync::Arc;

fn main() {
    let world = curated_kb(120, 7);
    let total_events: usize = replay(&world).iter().map(Vec::len).sum();

    // -- 1. One epoch stream, four live windows, one shared cache.
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let ingestor = seeded_ingestor(&world, IngestorConfig {
        max_batch: 128,
        ..Default::default()
    });
    let origin = ingestor.head().expect("seeded history");
    let manager = Arc::new(WindowManager::new(
        ingestor.store(),
        origin,
        vec![
            WindowDef::new("last-epoch", WindowSpec::LastEpoch),
            WindowDef::new("band-of-3", WindowSpec::SlidingEpochs(3)),
            WindowDef::new("since-t2", WindowSpec::Since(2)),
            WindowDef::new("since-release", WindowSpec::Landmark),
        ],
        WindowManagerOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            ..Default::default()
        },
    ));
    // The unified observability layer: every stats-bearing component
    // registers as a pull-model metrics source, and the pipeline runs
    // with span tracing enabled end-to-end.
    let metrics = MetricsRegistry::new();
    let tracer = Arc::new(Tracer::monotonic());
    metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
    metrics.register_source(Arc::clone(&manager) as Arc<dyn MetricsSource>);
    metrics.register_source(Arc::clone(&tracer) as Arc<dyn MetricsSource>);
    let pipeline = StreamPipeline::spawn(
        ingestor,
        PipelineOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            sinks: vec![Arc::clone(&manager) as Arc<dyn EpochSink>],
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        },
    );
    metrics.register_source(Arc::clone(pipeline.live()) as Arc<dyn MetricsSource>);
    println!(
        "=== {} : {} classes, streaming {} events ===",
        world.name,
        world.classes(),
        total_events
    );
    stream_into(&world, pipeline.log());
    let ingestor = pipeline.shutdown();
    let mstats = manager.stats();
    println!(
        "pipeline committed {} epochs; window manager published {} contexts \
         ({} snapshot diffs by the store — window spans advance in place)",
        mstats.epochs,
        mstats.publishes,
        ingestor.store().delta_computations()
    );

    // -- 2. What each horizon sees.
    println!("\nlive windows (one epoch stream, four horizons):");
    for (name, spec, live) in manager.windows() {
        let ctx = live.current();
        println!(
            "  {:14} [{:18}] {}→{}  |δ| = {:4} (+{} / -{})",
            name,
            spec.to_string(),
            ctx.from,
            ctx.to,
            ctx.delta.size(),
            ctx.delta.added_count(),
            ctx.delta.removed_count()
        );
    }

    // -- 3. A curator watching the planted hotspot, served per window.
    let store = ingestor.store();
    let hotspot = world.outcomes[1].focus_classes[0];
    println!("\nplanted hotspot: {}", store.interner().label(hotspot));
    let curator = UserProfile::new(UserId(1), "hotspot-curator").with_interest(hotspot, 1.0);
    let served = WindowedRecommender::new(
        Arc::clone(&manager),
        MeasureRegistry::standard(),
        RecommenderConfig {
            top_k: 3,
            mmr_lambda: 0.6,
            ..Default::default()
        },
    );
    for (window, recommendation) in served.recommend_all(&curator) {
        println!(
            "\n  {window} ({} candidates considered):",
            recommendation.candidates_considered
        );
        for scored in &recommendation.items {
            println!(
                "    {:32} focus {:12} relevance {:.3} intensity {:.2}",
                scored.item.measure.to_string(),
                store.interner().label(scored.item.focus),
                scored.relevance,
                scored.item.intensity
            );
        }
    }

    // -- 4. The cross-window trend diff: which measures rise or fall
    //       as the horizon widens from the last epoch to the release.
    let diff = served.trend_diff(&curator);
    println!(
        "\ntrend diff across horizons (narrow → wide: {}):",
        diff.windows.join(" → ")
    );
    for (direction, tag) in [
        (TrendDirection::Rising, "rising (persistent signal)"),
        (TrendDirection::Falling, "falling (recent burst)"),
    ] {
        let trends: Vec<String> = diff
            .with_direction(direction)
            .take(3)
            .map(|t| format!("{} ({:+.3})", t.measure, t.shift))
            .collect();
        if !trends.is_empty() {
            println!("  {tag:28} {}", trends.join(", "));
        }
    }

    // -- 5. The unified snapshot: one registry pull covers the cache
    //       (per-lineage counters included), the window manager, the
    //       live context, and the tracer's per-stage latency summaries
    //       — rendered in Prometheus text exposition format.
    let snapshot = metrics.snapshot();
    println!("\nmetrics snapshot (Prometheus exposition):");
    for line in snapshot.render_prometheus().lines() {
        println!("  {line}");
    }

    // -- 6. The last committed epoch, as a span tree: where the time
    //       went between ingest, commit, publish and window advance.
    println!("\nlast epoch trace:");
    for line in trace_tree(&tracer.last_trace()).lines() {
        println!("  {line}");
    }

    // The same snapshot renders as JSON for machine consumers — CI
    // uploads this as an artifact.
    if std::env::args().any(|a| a == "--json") {
        println!("\n{}", snapshot.render_json());
    }
}
