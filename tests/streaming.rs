//! Property tests for the streaming ingestion subsystem.
//!
//! The load-bearing claim: a history built by streaming triple-level
//! events through the `Ingestor` is indistinguishable from the batch
//! build — same snapshots, same deltas, same context fingerprints, and
//! therefore same measure reports and recommendations. Plus the
//! warm-pass contract: every report a `LiveContext` publish warms into
//! the cache equals computing it over the published context.

use evorec::core::ReportCache;
use evorec::kb::{TermId, Triple, TripleStore};
use evorec::measures::{EvolutionContext, MeasureRegistry};
use evorec::stream::{ChangeEvent, Ingestor, IngestorConfig, LiveContext};
use evorec::synth::workload::streamed::{replay, seeded_ingestor, step_events};
use evorec::synth::workload::{clinical, curated_kb, sensor_stream, social_feed};
use evorec::versioning::{VersionId, VersionedStore};
use proptest::prelude::*;
use std::sync::Arc;

fn t(n: u32) -> TermId {
    TermId::from_u32(n)
}

/// A random three-version store: subclass edges in V0, one instance
/// churn batch landing in V1, a second (possibly overlapping, possibly
/// removing) batch plus instance-level property links landing in V2.
/// The links change class adjacency in the union graph, which the
/// neighbourhood measures read.
fn random_world(
    edges: &[(u32, u32)],
    churn1: &[(u32, u32)],
    churn2: &[(u32, u32, bool)],
    links2: &[(u32, u32, u32, bool)],
) -> (VersionedStore, [VersionId; 3]) {
    let mut vs = VersionedStore::new();
    let v = *vs.vocab();
    let classes: Vec<TermId> = (0..20)
        .map(|i| vs.intern_iri(format!("http://x/C{i}")))
        .collect();
    let insts: Vec<TermId> = (0..40)
        .map(|i| vs.intern_iri(format!("http://x/i{i}")))
        .collect();
    let props: Vec<TermId> = (0..4)
        .map(|i| vs.intern_iri(format!("http://x/p{i}")))
        .collect();
    let mut s0 = TripleStore::new();
    for &(a, b) in edges {
        let (a, b) = ((a % 20) as usize, (b % 20) as usize);
        if a != b {
            s0.insert(Triple::new(classes[a], v.rdfs_subclassof, classes[b]));
        }
    }
    let v0 = vs.commit_snapshot("v0", s0.clone());
    let mut s1 = s0;
    for &(i, class) in churn1 {
        s1.insert(Triple::new(
            insts[(i % 40) as usize],
            v.rdf_type,
            classes[(class % 20) as usize],
        ));
    }
    let v1 = vs.commit_snapshot("v1", s1.clone());
    let mut s2 = s1;
    for &(i, class, add) in churn2 {
        let triple = Triple::new(
            insts[(i % 40) as usize],
            v.rdf_type,
            classes[(class % 20) as usize],
        );
        if add {
            s2.insert(triple);
        } else {
            s2.remove(&triple);
        }
    }
    for &(i, j, p, add) in links2 {
        let triple = Triple::new(
            insts[(i % 40) as usize],
            props[(p % 4) as usize],
            insts[(j % 40) as usize],
        );
        if add {
            s2.insert(triple);
        } else {
            s2.remove(&triple);
        }
    }
    let v2 = vs.commit_snapshot("v2", s2);
    (vs, [v0, v1, v2])
}

/// Stream a batch-built history's steps through a fresh ingestor
/// (seeded with the V0 snapshot) and return the resulting store.
fn restream(vs: &VersionedStore, versions: &[VersionId]) -> Ingestor {
    let mut ingestor = Ingestor::seeded(
        vs.snapshot(versions[0]).clone(),
        "restream",
        IngestorConfig::default(),
    );
    for pair in versions.windows(2) {
        ingestor.ingest_all(step_events(vs, pair[0], pair[1], "restream"));
        ingestor.commit_epoch();
    }
    ingestor
}

proptest! {
    /// Streaming a random history's changes reproduces its snapshots,
    /// fingerprints, and full measure catalogue exactly.
    #[test]
    fn streamed_history_matches_batch_build(
        edges in prop::collection::vec((0u32..20, 0u32..20), 0..30),
        churn1 in prop::collection::vec((0u32..40, 0u32..20), 1..25),
        churn2 in prop::collection::vec((0u32..40, 0u32..20, any::<bool>()), 1..25),
        links2 in prop::collection::vec((0u32..40, 0u32..40, 0u32..4, any::<bool>()), 0..15),
    ) {
        let (vs, versions) = random_world(&edges, &churn1, &churn2, &links2);
        // The ingestor deliberately skips net-zero epochs, while a
        // batch history can still contain an idle step (churn2 may
        // cancel to nothing) — step-for-step equivalence is only
        // claimed when every step nets changes.
        if !vs.delta(versions[1], versions[2]).is_empty() {
            let ingestor = restream(&vs, &versions);
            let streamed = ingestor.store();
            prop_assert_eq!(streamed.version_count(), vs.version_count());
            for &version in &versions {
                prop_assert_eq!(streamed.snapshot(version), vs.snapshot(version));
            }
            let batch_ctx = EvolutionContext::build(&vs, versions[0], versions[2]);
            let stream_ctx = EvolutionContext::build(streamed, versions[0], versions[2]);
            prop_assert_eq!(batch_ctx.fingerprint(), stream_ctx.fingerprint());
            let registry = MeasureRegistry::standard();
            let batch_reports = registry.compute_all(&batch_ctx);
            let stream_reports = registry.compute_all(&stream_ctx);
            for (b, s) in batch_reports.iter().zip(&stream_reports) {
                prop_assert_eq!(&b.measure, &s.measure);
                prop_assert_eq!(b.scores(), s.scores());
            }
        }
    }

    /// The ingestor's last-event-wins overlay has sequential semantics:
    /// committing a random event soup equals applying the events to the
    /// head snapshot one by one.
    #[test]
    fn ingestor_overlay_is_sequentially_consistent(
        base in prop::collection::vec((0u32..10, 0u32..4, 0u32..10), 0..15),
        events in prop::collection::vec((0u32..10, 0u32..4, 0u32..10, any::<bool>()), 1..40),
    ) {
        let base: TripleStore = base
            .iter()
            .map(|&(s, p, o)| Triple::new(t(s), t(p + 100), t(o)))
            .collect();
        let mut expected = base.clone();
        let mut ingestor = Ingestor::seeded(base, "seed", IngestorConfig::default());
        for &(s, p, o, add) in &events {
            let triple = Triple::new(t(s), t(p + 100), t(o));
            if add {
                expected.insert(triple);
                ingestor.ingest(ChangeEvent::assert(triple, "prop"));
            } else {
                expected.remove(&triple);
                ingestor.ingest(ChangeEvent::retract(triple, "prop"));
            }
        }
        ingestor.commit_epoch();
        let head = ingestor.head().expect("seeded");
        prop_assert_eq!(ingestor.store().snapshot(head), &expected);
    }

    /// A publish warms exactly what `compute` returns: publishing the
    /// v0→v2 window over a cache warm for v0→v1 caches every extended
    /// measure under the new fingerprint, and each cached report equals
    /// computing over the new window from scratch.
    #[test]
    fn publish_warms_what_compute_returns(
        edges in prop::collection::vec((0u32..20, 0u32..20), 0..30),
        churn1 in prop::collection::vec((0u32..40, 0u32..20), 1..25),
        churn2 in prop::collection::vec((0u32..40, 0u32..20, any::<bool>()), 1..25),
        links2 in prop::collection::vec((0u32..40, 0u32..40, 0u32..4, any::<bool>()), 0..15),
    ) {
        let (vs, [v0, v1, v2]) = random_world(&edges, &churn1, &churn2, &links2);
        let registry = Arc::new(MeasureRegistry::extended());
        let cache = Arc::new(ReportCache::new());
        let prev_ctx = Arc::new(EvolutionContext::build(&vs, v0, v1));
        let next_ctx = Arc::new(EvolutionContext::build(&vs, v0, v2));
        let _ = cache.reports_for(&registry, &prev_ctx);
        let live = LiveContext::with_serving(
            prev_ctx,
            Arc::clone(&registry),
            Arc::clone(&cache),
            "warm",
        );
        live.publish(Arc::clone(&next_ctx));
        for measure in registry.all() {
            let warmed = cache.get(&measure.id(), next_ctx.fingerprint());
            prop_assert!(warmed.is_some(), "publish warmed {}", measure.id());
            let (warmed, fresh) = (warmed.unwrap(), measure.compute(&next_ctx));
            prop_assert_eq!(&warmed.measure, &fresh.measure);
            prop_assert_eq!(warmed.scores(), fresh.scores(), "{}", &fresh.measure);
        }
    }
}

/// The named synth workloads, streamed end to end: every preset's
/// replay reproduces the batch-built context — fingerprint, catalogue,
/// and recommendations included.
#[test]
fn all_four_workloads_replay_equivalently() {
    use evorec::core::{Recommender, UserId, UserProfile};

    let worlds = [
        curated_kb(40, 11),
        social_feed(32, 12),
        sensor_stream(36, 13),
        clinical(30, 14),
    ];
    for world in &worlds {
        let mut ingestor = seeded_ingestor(world, IngestorConfig::default());
        for batch in replay(world) {
            ingestor.ingest_all(batch);
            ingestor.commit_epoch();
        }
        let (base, head) = (world.base(), world.head());
        let batch_ctx = EvolutionContext::build(&world.kb.store, base, head);
        let stream_ctx = EvolutionContext::build(ingestor.store(), base, head);
        assert_eq!(
            batch_ctx.fingerprint(),
            stream_ctx.fingerprint(),
            "{} fingerprints diverge",
            world.name
        );
        // And the fingerprint equality is not vacuous: the pipelines
        // produce identical recommendations for a real profile.
        let recommender = Recommender::with_defaults(MeasureRegistry::standard());
        let profile = world
            .population
            .profiles
            .first()
            .cloned()
            .unwrap_or_else(|| UserProfile::new(UserId(0), "fallback"));
        let keys = |ctx: &EvolutionContext| {
            recommender
                .recommend(ctx, &profile)
                .items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&batch_ctx), keys(&stream_ctx), "{}", world.name);
        // Provenance documented one record per committed epoch plus the
        // seed import.
        assert_eq!(
            ingestor.ledger().len() as u64,
            ingestor.stats().epochs + 1,
            "{}",
            world.name
        );
    }
}

/// The pipeline's landmark context rebuild rides the epoch deltas:
/// however many epochs commit, the store never diffs two snapshots —
/// the spawn-time build is the idle step, which needs no diff, and each
/// publish seeds the span's delta from the running in-place span,
/// exactly like the window manager's advances.
#[test]
fn pipeline_landmark_rebuilds_never_rediff_snapshots() {
    use evorec::stream::{PipelineOptions, StreamPipeline};
    use evorec::synth::workload::streamed::stream_into;

    let world = curated_kb(40, 16);
    let ingestor = seeded_ingestor(&world, IngestorConfig {
        // Small micro-batches: the stream commits many epochs, each of
        // which republishes the widening origin → head landmark. An
        // epoch holds at most 2·max_batch − 1 events, so the 50-event
        // stream commits at least two whatever the thread timing.
        max_batch: 16,
        ..Default::default()
    });
    let origin = ingestor.head().expect("seeded");
    let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions::default());
    stream_into(&world, pipeline.log());
    let live = std::sync::Arc::clone(pipeline.live());
    let ingestor = pipeline.shutdown();
    assert!(
        ingestor.stats().epochs >= 2,
        "workload must stream several epochs, got {}",
        ingestor.stats().epochs
    );
    assert_eq!(
        ingestor.store().delta_computations(),
        0,
        "neither the spawn-time idle build nor any epoch's landmark \
         rebuild may diff snapshots"
    );
    // And the seeded composition is the real thing: the final context
    // equals a batch build over an independent store.
    let head = ingestor.head().expect("epochs committed");
    let mut batch = VersionedStore::new();
    for info in ingestor.store().versions() {
        batch.commit_snapshot(info.label.clone(), ingestor.store().snapshot(info.id).clone());
    }
    let direct = EvolutionContext::build(&batch, origin, head);
    assert_eq!(live.current().fingerprint(), direct.fingerprint());
    assert_eq!(live.current().delta.as_ref(), direct.delta.as_ref());
}

/// End to end through the threaded pipeline with serving attached:
/// events in, warm cache out, readers never observe a stale epoch after
/// shutdown.
#[test]
fn pipeline_serves_streamed_workload_warm() {
    use evorec::stream::{PipelineOptions, StreamPipeline};
    use evorec::synth::workload::streamed::stream_into;

    let world = curated_kb(40, 15);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let ingestor = seeded_ingestor(&world, IngestorConfig::default());
    let origin = ingestor.head().expect("seeded");
    let pipeline = StreamPipeline::spawn(
        ingestor,
        PipelineOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            ..Default::default()
        },
    );
    let pushed = stream_into(&world, pipeline.log());
    assert!(pushed > 0);
    let live = Arc::clone(pipeline.live());
    let ingestor = pipeline.shutdown();

    // The final published context matches a fresh batch build over the
    // streamed store, and its entire catalogue is already warm.
    let ctx = live.current();
    let head = ingestor.head().expect("epochs committed");
    let batch = EvolutionContext::build(ingestor.store(), origin, head);
    assert_eq!(ctx.fingerprint(), batch.fingerprint());
    cache.reset_stats();
    let _ = cache.reports_for(&registry, &ctx);
    assert_eq!(cache.stats().misses, 0, "publish pre-warmed the catalogue");
    // Superseded epochs were invalidated: only the live fingerprint's
    // report entries remain resident.
    assert_eq!(cache.len(), registry.len());
}
