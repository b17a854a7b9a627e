//! Benchmarks for the streaming ingestion subsystem: event-log and
//! ingestor throughput, epoch publication cost, and — the serving
//! guarantee — reader latency on `LiveContext::current` while epochs
//! are being committed and swapped underneath it.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_core::ReportCache;
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_stream::{ChangeEvent, EventLog, IngestorConfig, LiveContext};
use evorec_synth::workload::streamed::{replay, seeded_ingestor};
use evorec_synth::workload::curated_kb;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Timed context reads during the publisher's swaps: enough that the
/// timed group spans several epoch rebuilds (the harness stops a group
/// at its time budget first).
const SWAP_SAMPLES: usize = 1_000_000;
/// Epoch swaps the publisher must complete while the reads are timed.
const MIN_SWAPS: u64 = 2;

/// Event-log throughput: push + drain through the bounded queue.
fn bench_event_log(c: &mut Criterion) {
    let world = curated_kb(120, 61);
    let events: Vec<ChangeEvent> = replay(&world).into_iter().flatten().collect();
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    group.bench_function(format!("log_roundtrip_{}ev", events.len()), |b| {
        b.iter(|| {
            let log = EventLog::bounded(events.len());
            for event in &events {
                log.push(event.clone()).unwrap();
            }
            let mut drained = 0;
            while drained < events.len() {
                drained += log.try_pop_batch(256).len();
            }
            black_box(drained)
        })
    });
    group.finish();
}

/// Ingest throughput: fold a workload's full event stream into epochs.
fn bench_ingest_throughput(c: &mut Criterion) {
    let world = curated_kb(120, 62);
    let steps = replay(&world);
    let total: usize = steps.iter().map(Vec::len).sum();
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.bench_function(format!("events_to_epochs_{total}ev"), |b| {
        b.iter_batched(
            || (seeded_ingestor(&world, IngestorConfig::default()), steps.clone()),
            |(mut ingestor, steps)| {
                for batch in steps {
                    ingestor.ingest_all(batch);
                    ingestor.commit_epoch();
                }
                black_box(ingestor.stats().epochs)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// Swap latency, the acceptance-critical number: a reader cloning the
/// live context while a publisher thread continuously rebuilds and
/// swaps fresh contexts (with pre-warm + invalidation running against
/// a shared report cache). Readers must see only pointer-swap cost —
/// nanoseconds, not the milliseconds an epoch rebuild takes.
///
/// The bench times nothing until the publisher has swapped once, and
/// panics unless it swapped at least [`MIN_SWAPS`] times while the
/// reads were timed: a number measured between swaps would claim a
/// guarantee it never exercised.
fn bench_swap_latency(c: &mut Criterion) {
    let world = curated_kb(120, 63);
    let store = &world.kb.store;
    let (base, head) = (world.base(), world.head());
    let mid = evorec_versioning_mid(base, head);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let live = Arc::new(LiveContext::with_serving(
        Arc::new(EvolutionContext::build(store, base, head)),
        Arc::clone(&registry),
        Arc::clone(&cache),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let live = Arc::clone(&live);
        let stop = Arc::clone(&stop);
        let a = Arc::new(EvolutionContext::build(store, base, mid));
        let b = Arc::new(EvolutionContext::build(store, base, head));
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                // Alternate between two epochs; each publish pre-warms
                // the full catalogue and invalidates the other epoch.
                let next = if flip { &a } else { &b };
                live.publish(Arc::clone(next));
                flip = !flip;
            }
        })
    };
    while live.epoch() == 0 {
        assert!(!publisher.is_finished(), "the publisher exited before swapping");
        std::hint::spin_loop();
    }
    let before = live.epoch();

    let mut group = c.benchmark_group("swap");
    group.sample_size(SWAP_SAMPLES);
    group.bench_function("reader_current_during_commits", |b| {
        b.iter(|| black_box(live.current().fingerprint()))
    });
    group.finish();
    let during = live.epoch() - before;
    stop.store(true, Ordering::Relaxed);
    publisher.join().expect("publisher thread");
    println!(
        "swap: publisher completed {during} epoch swaps while readers ran; cache stats {:?}",
        cache.stats()
    );
    assert!(
        during >= MIN_SWAPS,
        "the publisher completed {during} epoch swaps while readers ran \
         (want >= {MIN_SWAPS}): the reads were timed between swaps"
    );
}

/// Midpoint version of a (base, head) pair, for a second distinct epoch.
fn evorec_versioning_mid(
    base: evorec_versioning::VersionId,
    head: evorec_versioning::VersionId,
) -> evorec_versioning::VersionId {
    evorec_versioning::VersionId::from_u32((base.as_u32() + head.as_u32()).div_ceil(2))
}

criterion_group!(benches, bench_event_log, bench_ingest_throughput, bench_swap_latency);
criterion_main!(benches);
