//! Benchmarks for multi-window temporal serving: per-epoch
//! window-advance latency and k-window fan-out throughput, without and
//! with the serving pair whose warm passes compute the measures.
//!
//! The advance path is the acceptance-critical one: every window moves
//! its span delta in place (`extend_by` each new epoch, `strip_front`
//! each evicted one, with the delta the store memoised at its commit),
//! and every window's context shares the store's per-version
//! substrates. Each iteration replays the commit stream into a freshly
//! built store, so its delta, schema and substrate caches start cold
//! and the time is what a new epoch costs; building the stream is
//! set-up and is not timed. After the benches the harness panics
//! unless one replay diffed no snapshot pair (no window ever re-diffs
//! two snapshots), prints that count, the substrate count (one per
//! epoch plus the seed's, whatever the window count) and the number of
//! distinct class graphs among them (consecutive versions with equal
//! class graphs share one, and its betweenness and bridging), and
//! panics unless a served replay left every window's live step warm for
//! every measure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_core::ReportCache;
use evorec_measures::MeasureRegistry;
use evorec_stream::{EpochCommit, IngestorConfig};
use evorec_synth::workload::streamed::committed_epochs;
use evorec_synth::workload::{curated_kb, Workload};
use evorec_versioning::{VersionId, VersionedStore};
use evorec_windows::{WindowDef, WindowManager, WindowManagerOptions, WindowSpec};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// Micro-batch size the workload is replayed at (events per epoch).
const MAX_BATCH: usize = 16;

/// Replay `world` as many small epochs (micro-batched at `MAX_BATCH`
/// events), returning the full store and the commit sequence; managers
/// replay it from the seed head, version 0.
fn commit_stream(world: &Workload) -> (VersionedStore, Vec<EpochCommit>) {
    let (ingestor, commits) = committed_epochs(world, IngestorConfig {
        max_batch: MAX_BATCH,
        ..Default::default()
    });
    let (store, _ledger) = ingestor.into_parts();
    (store, commits)
}

/// A registry and report cache for one served replay.
type Serving = (Arc<MeasureRegistry>, Arc<ReportCache>);

/// Replay `commits` through a manager over `defs` anchored at the seed
/// head, with `serving` attached to every window if given.
fn replay(
    store: &VersionedStore,
    commits: &[EpochCommit],
    defs: Vec<WindowDef>,
    serving: Option<Serving>,
) -> WindowManager {
    let seed_head = VersionId::from_u32(0);
    let manager = WindowManager::new(store, seed_head, defs, WindowManagerOptions {
        serving,
        head: Some(seed_head),
    });
    for commit in commits {
        manager.advance(store, commit);
    }
    manager
}

/// The canonical curator set: last epoch, sliding band, since-clock,
/// landmark.
fn four_windows() -> Vec<WindowDef> {
    vec![
        WindowDef::new("last", WindowSpec::LastEpoch),
        WindowDef::new("band", WindowSpec::SlidingEpochs(3)),
        WindowDef::new("recent", WindowSpec::Since(4)),
        WindowDef::new("release", WindowSpec::Landmark),
    ]
}

/// Window-advance latency: replay the whole commit stream through a
/// four-window manager; per-epoch cost is the reported time divided by
/// the epoch count in the bench id.
fn bench_window_advance(c: &mut Criterion) {
    let world = curated_kb(120, 71);
    let epochs = commit_stream(&world).1.len();
    let mut group = c.benchmark_group("windows");
    group.sample_size(10);
    group.bench_function(format!("advance_4w_{epochs}epochs"), |b| {
        b.iter_batched(
            || commit_stream(&world),
            |(store, commits)| black_box(replay(&store, &commits, four_windows(), None)),
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let (store, commits) = commit_stream(&world);
    replay(&store, &commits, four_windows(), None);
    let diffs = store.delta_computations();
    assert_eq!(
        diffs, 0,
        "a four-window replay diffed {diffs} snapshot pairs: some window advance \
         rebuilt its span instead of moving it in place"
    );
    let substrates = store.substrate_computations();
    let class_graphs: HashSet<_> = store
        .versions()
        .iter()
        .map(|info| Arc::as_ptr(store.substrate(info.id).graph()))
        .collect();
    println!(
        "windows: {diffs} snapshot diffs, {substrates} substrates and {} distinct class \
         graphs over one {epochs}-epoch four-window replay (spans advance in place; one \
         substrate per version, one betweenness per distinct class graph)",
        class_graphs.len()
    );
}

/// `k` windows of mixed horizon: landmark, last epoch, sliding bands
/// and since-clock windows in turn.
fn mixed_windows(k: usize) -> Vec<WindowDef> {
    (0..k)
        .map(|i| {
            let spec = match i % 4 {
                0 => WindowSpec::Landmark,
                1 => WindowSpec::LastEpoch,
                2 => WindowSpec::SlidingEpochs(1 + i),
                _ => WindowSpec::Since(3 + i as u64),
            };
            WindowDef::new(format!("w{i}"), spec)
        })
        .collect()
}

/// Fan-out throughput: the same epoch stream feeding 1, 4, and 8
/// concurrent windows of mixed horizon.
fn bench_window_fanout(c: &mut Criterion) {
    let world = curated_kb(120, 71);
    let epochs = commit_stream(&world).1.len();
    let mut group = c.benchmark_group("windows");
    group.sample_size(10);
    for k in [1usize, 4, 8] {
        let defs = mixed_windows(k);
        group.bench_function(format!("fanout_{k}w_{epochs}epochs"), |b| {
            b.iter_batched(
                || commit_stream(&world),
                |(store, commits)| black_box(replay(&store, &commits, defs.clone(), None)),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

/// A fresh standard registry and an empty report cache.
fn serving() -> Serving {
    (
        Arc::new(MeasureRegistry::standard()),
        Arc::new(ReportCache::new()),
    )
}

/// The eight-window fan-out with the serving pair attached, so every
/// publish also warms the standard catalogue for its window: the
/// measure work of the data path. Each iteration gets a fresh registry
/// and cache besides the fresh store, set up untimed. The bench panics
/// unless one replay leaves every window's live step cached for every
/// measure, so it cannot time advances whose warm passes did nothing.
fn bench_window_fanout_served(c: &mut Criterion) {
    let world = curated_kb(120, 71);
    let epochs = commit_stream(&world).1.len();
    let defs = mixed_windows(8);
    let mut group = c.benchmark_group("windows");
    group.sample_size(10);
    group.bench_function(format!("fanout_8w_served_{epochs}epochs"), |b| {
        b.iter_batched(
            || (commit_stream(&world), serving()),
            |((store, commits), pair)| {
                black_box(replay(&store, &commits, defs.clone(), Some(pair)))
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
    let (store, commits) = commit_stream(&world);
    let (registry, cache) = serving();
    let pair = (Arc::clone(&registry), Arc::clone(&cache));
    let manager = replay(&store, &commits, defs, Some(pair));
    let mut warm = 0;
    for (name, _, live) in manager.windows() {
        let fingerprint = live.current().fingerprint();
        for id in registry.ids() {
            assert!(
                cache.contains(&id, fingerprint),
                "window {name}: {id} is not cached for its live step {fingerprint}"
            );
            warm += 1;
        }
    }
    println!("windows: {warm} (window, measure) reports cached after one served 8-window replay");
}

criterion_group!(
    benches,
    bench_window_advance,
    bench_window_fanout,
    bench_window_fanout_served
);
criterion_main!(benches);
