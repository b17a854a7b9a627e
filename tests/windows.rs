//! Property and acceptance tests for multi-window temporal serving.
//!
//! The load-bearing claims, per the window algebra:
//! - every window's served context — sliding, landmark, last-epoch or
//!   since-timestamp, including empty-window and single-epoch
//!   boundaries — is **bit-identical** (fingerprints, reports) to a
//!   batch build over the same epoch span on an independent store;
//! - advancing windows composes per-epoch deltas and never re-diffs
//!   snapshots (the store's `delta_computations` counter stays flat);
//! - windows share one report cache, each claiming the step it serves,
//!   so one window's epoch swap leaves the derived artefacts another
//!   window still serves resident.

use evorec::core::{
    RecommenderConfig, Recommender, ReportCache, UserId, UserProfile,
};
use evorec::kb::{TermId, Triple, TripleStore};
use evorec::measures::{EvolutionContext, MeasureRegistry};
use evorec::stream::{ChangeEvent, Ingestor, IngestorConfig, PipelineOptions, StreamPipeline};
use evorec::synth::workload::curated_kb;
use evorec::synth::workload::streamed::{seeded_ingestor, stream_into};
use evorec::versioning::VersionedStore;
use evorec::windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The canonical four-window dashboard the acceptance criteria name.
fn four_windows(since: u64) -> Vec<WindowDef> {
    vec![
        WindowDef::new("last", WindowSpec::LastEpoch),
        WindowDef::new("band", WindowSpec::SlidingEpochs(3)),
        WindowDef::new("recent", WindowSpec::Since(since)),
        WindowDef::new("release", WindowSpec::Landmark),
    ]
}

/// Rebuild a streamed history into an independent store (same version
/// ids, labels, timestamps, snapshots) whose delta cache holds nothing
/// the window manager seeded — so batch-built contexts over it really
/// diff snapshots.
fn independent_rebuild(store: &VersionedStore) -> VersionedStore {
    let mut batch = VersionedStore::new();
    for info in store.versions() {
        batch.commit_snapshot(info.label.clone(), store.snapshot(info.id).clone());
    }
    batch
}

/// Assert one window's served context equals the batch build of its
/// span on an independent store: fingerprint, delta sets, and the full
/// standard measure catalogue, bitwise.
fn assert_window_matches_batch(
    name: &str,
    served: &EvolutionContext,
    batch_store: &VersionedStore,
) {
    let direct = EvolutionContext::build(batch_store, served.from, served.to);
    assert_eq!(
        served.fingerprint(),
        direct.fingerprint(),
        "window {name}: fingerprint diverged from batch build"
    );
    assert_eq!(
        served.delta.as_ref(),
        direct.delta.as_ref(),
        "window {name}: delta diverged"
    );
    let registry = MeasureRegistry::standard();
    let from_served = registry.compute_all(served);
    let from_batch = registry.compute_all(&direct);
    for (s, b) in from_served.iter().zip(&from_batch) {
        assert_eq!(s.measure, b.measure);
        assert_eq!(s.scores(), b.scores(), "window {name}: {} diverged", s.measure);
    }
}

proptest! {
    /// Window algebra over random event streams: after every epoch,
    /// each of the four windows (plus the degenerate empty and the
    /// single-epoch slider) serves a context bit-identical to a batch
    /// build over its span — composed deltas, warm-path reports and
    /// all. `since_clock` may land before, inside, or after the
    /// streamed clock range, covering frozen, mid-freeze and
    /// still-empty anchors.
    #[test]
    fn windowed_contexts_match_batch_builds(
        edges in prop::collection::vec((0u32..10, 0u32..10), 1..12),
        epochs in prop::collection::vec(
            prop::collection::vec((0u32..16, 0u32..10, 0u32..3, any::<bool>()), 1..8),
            1..6,
        ),
        since_clock in 0u64..10,
    ) {
        // Seed: a base snapshot of subclass edges plus a few typings.
        let mut vs = VersionedStore::new();
        let v = *vs.vocab();
        let classes: Vec<TermId> = (0..10)
            .map(|i| vs.intern_iri(format!("http://x/C{i}")))
            .collect();
        let insts: Vec<TermId> = (0..16)
            .map(|i| vs.intern_iri(format!("http://x/i{i}")))
            .collect();
        let prop_term = vs.intern_iri("http://x/p");
        let mut base = TripleStore::new();
        for &(a, b) in &edges {
            let (a, b) = ((a % 10) as usize, (b % 10) as usize);
            if a != b {
                base.insert(Triple::new(classes[a], v.rdfs_subclassof, classes[b]));
            }
        }
        base.insert(Triple::new(insts[0], v.rdf_type, classes[0]));

        let mut ingestor = Ingestor::seeded(base, "prop", IngestorConfig::default());
        let origin = ingestor.head().unwrap();
        let mut defs = four_windows(since_clock);
        defs.push(WindowDef::new("single", WindowSpec::SlidingEpochs(1)));
        defs.push(WindowDef::new("empty", WindowSpec::SlidingEpochs(0)));
        // Wall-clock bands: zero-width (always empty), a narrow band,
        // and one whose width lands before/inside/after the streamed
        // clock range depending on `since_clock`.
        defs.push(WindowDef::new("band-t0", WindowSpec::SlidingTime(0)));
        defs.push(WindowDef::new("band-t2", WindowSpec::SlidingTime(2)));
        defs.push(WindowDef::new("band-tv", WindowSpec::SlidingTime(since_clock)));
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs,
            WindowManagerOptions::default(),
        );

        for batch in &epochs {
            for &(i, c, p, add) in batch {
                // Mix typing churn with instance links so epochs change
                // both δ-counts and union-graph adjacency.
                let triple = if p == 0 {
                    Triple::new(
                        insts[(i % 16) as usize],
                        prop_term,
                        insts[((i + c) % 16) as usize],
                    )
                } else {
                    Triple::new(insts[(i % 16) as usize], v.rdf_type, classes[(c % 10) as usize])
                };
                let event = if add {
                    ChangeEvent::assert(triple, "prop")
                } else {
                    ChangeEvent::retract(triple, "prop")
                };
                ingestor.ingest(event);
            }
            if let Some(commit) = ingestor.commit_epoch() {
                manager.advance(ingestor.store(), &commit);
            }
        }

        let batch_store = independent_rebuild(ingestor.store());
        for (name, _, live) in manager.windows() {
            let served = live.current();
            let (from, to) = manager.span(name).unwrap();
            prop_assert_eq!((served.from, served.to), (from, to));
            assert_window_matches_batch(name, &served, &batch_store);
        }
        prop_assert_eq!(manager.stats().ring_fallbacks, 0);
    }
}

/// Direct-drive over a real synth workload, re-chunked into many small
/// epochs: window advances must not add a single snapshot diff beyond
/// construction.
#[test]
fn window_advances_compose_epoch_deltas_without_rediffing() {
    use evorec::synth::workload::streamed::committed_epochs;
    // Micro-batch the workload into many small epochs so the sliding
    // window actually slides, then replay them through a manager
    // anchored at the seed head.
    let world = curated_kb(80, 21);
    let (ingestor, commits) = committed_epochs(&world, IngestorConfig {
        max_batch: 40,
        ..Default::default()
    });
    let epochs = commits.len() as u64;
    assert!(epochs >= 4, "workload streams several epochs, got {epochs}");
    let store = ingestor.store();
    let seed = evorec::versioning::VersionId::from_u32(0);
    let manager = WindowManager::new(store, seed, four_windows(3), WindowManagerOptions {
        head: Some(seed),
        ..Default::default()
    });
    let baseline = store.delta_computations();
    for commit in &commits {
        manager.advance(store, commit);
    }
    assert_eq!(
        store.delta_computations(),
        baseline,
        "every window advance must be served by delta composition"
    );
    let stats = manager.stats();
    assert_eq!(stats.epochs, epochs);
    assert_eq!(stats.publishes, 4 * epochs);
    assert_eq!(stats.ring_fallbacks, 0);
}

/// The k=4 acceptance run: a streamed synth workload through the
/// threaded pipeline with the window manager attached as an epoch
/// sink, all five live views (pipeline + four windows) sharing one
/// report cache. Every window's served context equals its batch build,
/// and every window's catalogue is warm.
#[test]
fn four_window_pipeline_serves_batch_identical_contexts_warm() {
    let world = curated_kb(40, 22);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let ingestor = seeded_ingestor(&world, IngestorConfig::default());
    let origin = ingestor.head().expect("seeded");
    let manager = Arc::new(WindowManager::new(
        ingestor.store(),
        origin,
        four_windows(4),
        WindowManagerOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            ..Default::default()
        },
    ));
    let pipeline = StreamPipeline::spawn(
        ingestor,
        PipelineOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            sinks: vec![Arc::clone(&manager) as Arc<dyn evorec::stream::EpochSink>],
            ..Default::default()
        },
    );
    let pushed = stream_into(&world, pipeline.log());
    assert!(pushed > 0);
    let pipeline_live = Arc::clone(pipeline.live());
    let ingestor = pipeline.shutdown();
    assert!(manager.stats().epochs >= 1);

    // Bit-identical to batch builds on an independent store.
    let batch_store = independent_rebuild(ingestor.store());
    for (name, _, live) in manager.windows() {
        assert_window_matches_batch(name, &live.current(), &batch_store);
    }

    // Every window is served entirely warm: pre-warmed by its own
    // publishes.
    cache.reset_stats();
    for (_, _, live) in manager.windows() {
        let _ = cache.reports_for(&registry, &live.current());
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 0, "all windows pre-warmed: {stats:?}");
    // Only live steps stay resident: every superseded step lost its
    // last claim and was dropped, whichever view moved off it last.
    let live_steps: std::collections::HashSet<_> = manager
        .windows()
        .map(|(_, _, live)| live.current().fingerprint())
        .chain([pipeline_live.current().fingerprint()])
        .collect();
    assert_eq!(cache.len(), registry.len() * live_steps.len());

    // The facade serves per-window answers and a trend diff from the
    // same warm cache.
    let served = WindowedRecommender::new(
        Arc::clone(&manager),
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
    );
    let profile = world
        .population
        .profiles
        .first()
        .cloned()
        .unwrap_or_else(|| UserProfile::new(UserId(0), "fallback"));
    let per_window = served.recommend_all(&profile);
    assert_eq!(per_window.len(), 4);
    let diff = served.trend_diff(&profile);
    assert_eq!(diff.windows.len(), 4);
    assert_eq!(diff.trends.len(), served.recommender().registry().len());
    assert_eq!(
        cache.stats().misses,
        0,
        "serving and trend diff stayed on the warm path"
    );
}

/// Shared-cache isolation: two managers (think: two dashboards on
/// different refresh cadences) serve the same landmark span from one
/// cache. When the first swaps to a fresh epoch, the derived artefacts
/// of the span the second still serves stay resident; only when the
/// second releases the span too is it evicted.
#[test]
fn window_swap_leaves_other_windows_derived_artefacts_resident() {
    let mut vs = VersionedStore::new();
    let v = *vs.vocab();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let typing: Vec<Triple> = (0..3)
        .map(|i| {
            let inst = vs.intern_iri(format!("http://x/i{i}"));
            Triple::new(inst, v.rdf_type, a)
        })
        .collect();
    let base = TripleStore::from_triples([Triple::new(a, v.rdfs_subclassof, b)]);
    let mut ingestor = Ingestor::seeded(base, "fixture", IngestorConfig::default());
    // One committed epoch so the landmark span is non-trivial; the
    // managers are built over it, so their initial contexts share it.
    ingestor.ingest(ChangeEvent::assert(typing[0], "c"));
    ingestor.commit_epoch().unwrap();

    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let origin = evorec::versioning::VersionId::from_u32(0);
    let options = || WindowManagerOptions {
        serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
        ..Default::default()
    };
    let fast = WindowManager::new(
        ingestor.store(),
        origin,
        vec![WindowDef::new("fast", WindowSpec::Landmark)],
        options(),
    );
    let slow = WindowManager::new(
        ingestor.store(),
        origin,
        vec![WindowDef::new("slow", WindowSpec::Landmark)],
        options(),
    );
    let shared = fast.window("fast").unwrap().current();
    assert_eq!(
        shared.fingerprint(),
        slow.window("slow").unwrap().current().fingerprint(),
        "both dashboards serve the same span"
    );

    // Warm derived artefacts for the shared span.
    let recommender = Recommender::with_cache(
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
        Arc::clone(&cache),
    );
    let profile = UserProfile::new(UserId(1), "curator").with_interest(a, 1.0);
    let _ = recommender.recommend(&shared, &profile);
    assert_eq!(cache.derived_len(), 1);
    let resident_reports = cache.len();

    // Only the fast dashboard sees the next epoch: the slow one still
    // claims the shared fingerprint, so nothing of it may be evicted.
    ingestor.ingest(ChangeEvent::assert(typing[1], "c"));
    let second = ingestor.commit_epoch().unwrap();
    fast.advance(ingestor.store(), &second);
    assert_eq!(
        cache.derived_len(),
        1,
        "fast swap must not evict the slow dashboard's derived artefacts"
    );
    cache.reset_stats();
    let _ = cache.reports_for(&registry, &shared);
    assert_eq!(cache.stats().misses, 0, "slow dashboard still fully warm");
    assert!(cache.len() > resident_reports, "fresh epoch warmed alongside");

    // The slow dashboard catches up: now the old span is unclaimed and
    // its entries (derived included) are dropped.
    slow.advance(ingestor.store(), &second);
    assert_eq!(cache.derived_len(), 0);
    cache.reset_stats();
    let _ = cache.reports_for(&registry, &shared);
    assert!(
        cache.stats().misses > 0,
        "released span was invalidated once unclaimed"
    );
}

/// Boundary sweep kept out of proptest for readability: empty windows
/// (head == anchor), a single-epoch history, and `Since` anchors on
/// both sides of the stream clock all serve batch-identical contexts.
#[test]
fn boundary_windows_match_batch_builds() {
    let mut vs = VersionedStore::new();
    let v = *vs.vocab();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let inst = vs.intern_iri("http://x/i");
    let base = TripleStore::from_triples([Triple::new(a, v.rdfs_subclassof, b)]);
    let mut ingestor = Ingestor::seeded(base, "fixture", IngestorConfig::default());
    let origin = ingestor.head().unwrap();
    let manager = WindowManager::new(
        ingestor.store(),
        origin,
        vec![
            WindowDef::new("empty", WindowSpec::SlidingEpochs(0)),
            WindowDef::new("one", WindowSpec::SlidingEpochs(1)),
            WindowDef::new("future", WindowSpec::Since(u64::MAX)),
            WindowDef::new("past", WindowSpec::Since(0)),
            WindowDef::new("band-wide", WindowSpec::SlidingTime(u64::MAX)),
            WindowDef::new("band-nil", WindowSpec::SlidingTime(0)),
        ],
        WindowManagerOptions::default(),
    );
    // Pre-stream: every window serves the idle (or full) span.
    for (name, _, live) in manager.windows() {
        let ctx = live.current();
        assert_eq!(ctx.to, origin, "window {name}");
    }
    // One single-epoch history.
    ingestor.ingest(ChangeEvent::assert(Triple::new(inst, v.rdf_type, a), "c"));
    let commit = ingestor.commit_epoch().unwrap();
    manager.advance(ingestor.store(), &commit);

    let batch_store = independent_rebuild(ingestor.store());
    for (name, _, live) in manager.windows() {
        assert_window_matches_batch(name, &live.current(), &batch_store);
    }
    // `future` trails the head (still empty); `past` froze at origin.
    let head = ingestor.head().unwrap();
    assert_eq!(manager.span("future"), Some((head, head)));
    assert_eq!(manager.span("past"), Some((origin, head)));
    assert_eq!(manager.span("one"), Some((origin, head)));
    assert_eq!(manager.span("empty"), Some((head, head)));
    // A band wider than any history covers it all; a zero-width band
    // never covers anything.
    assert_eq!(manager.span("band-wide"), Some((origin, head)));
    assert_eq!(manager.span("band-nil"), Some((head, head)));
}
