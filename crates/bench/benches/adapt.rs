//! Benchmarks for the online adaptation subsystem: feedback-stream
//! throughput through the worker into the live profile store, and —
//! the serving guarantee — profile-read latency while feedback is
//! being folded in underneath the readers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use evorec_adapt::{AdaptWorker, BanditBook, FeedbackEvent, ProfileStore, Reaction};
use evorec_core::{Item, UserId, UserProfile};
use evorec_kb::TermId;
use evorec_measures::{MeasureCategory, MeasureId};
use evorec_stream::BoundedLog;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const USERS: u32 = 64;
const MEASURES: u32 = 8;
/// Timed profile reads under the update storm: enough that the timed
/// group spans many reactions, not the few a 50-sample run overlaps.
const STORM_SAMPLES: usize = 20_000;
/// Reactions the storm must apply while the reads are timed.
const MIN_STORM_REACTIONS: u64 = 100;

/// A deterministic soup of curator reactions across users and measures.
fn feedback_soup(events: usize) -> Vec<FeedbackEvent> {
    (0..events)
        .map(|i| {
            let i = i as u32;
            let item = Item::new(
                MeasureId::new(format!("measure-{}", i % MEASURES)),
                MeasureCategory::ChangeCounting,
                TermId::from_u32(i % 97),
                f64::from(i % 100) / 100.0,
            );
            let reaction = match i % 4 {
                0 => Reaction::Accept,
                1 => Reaction::Dwell,
                2 => Reaction::Dismiss,
                _ => Reaction::Reject,
            };
            FeedbackEvent::new(UserId(i % USERS), item, reaction)
                .in_session(u64::from(i / 100))
                .from_window("bench")
        })
        .collect()
}

fn seeded_store() -> Arc<ProfileStore> {
    let store = Arc::new(ProfileStore::with_defaults());
    store.seed((0..USERS).map(|u| UserProfile::new(UserId(u), format!("u{u}"))));
    store
}

/// Feedback throughput: push a reaction soup through the bounded log,
/// the micro-batching worker, the profile store and the bandit ledger,
/// measured to full application (flush).
fn bench_feedback_throughput(c: &mut Criterion) {
    let events = feedback_soup(4096);
    let mut group = c.benchmark_group("adapt");
    group.sample_size(10);
    group.bench_function(format!("feedback_applied_{}ev", events.len()), |b| {
        b.iter_batched(
            || {
                let log = Arc::new(BoundedLog::bounded(events.len()));
                let store = seeded_store();
                let book = Arc::new(BanditBook::new());
                let worker =
                    AdaptWorker::spawn(Arc::clone(&log), store, Arc::clone(&book), 128, None);
                (log, worker, events.clone())
            },
            |(log, worker, events)| {
                for event in events {
                    log.push(event).unwrap();
                }
                worker.flush();
                black_box(worker.stats().events)
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// Profile-read latency while an update storm runs underneath: readers
/// must only ever pay an `Arc` clone under a briefly held read lock —
/// the copy-on-write profile rebuilds happen off the read path.
///
/// The bench times nothing until the updater has applied a reaction,
/// and panics unless the storm applied at least [`MIN_STORM_REACTIONS`]
/// while the readers were timed: a number measured without contention
/// would claim a guarantee it never exercised.
fn bench_read_latency_under_updates(c: &mut Criterion) {
    let store = seeded_store();
    let stop = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));
    let updater = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let applied = Arc::clone(&applied);
        let soup = feedback_soup(10_000);
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let event = &soup[i % soup.len()];
                store.react(event.user, &event.item, event.reaction);
                i += 1;
                applied.store(i as u64, Ordering::Relaxed);
            }
        })
    };
    while applied.load(Ordering::Relaxed) == 0 {
        assert!(!updater.is_finished(), "the updater exited before reacting");
        std::hint::spin_loop();
    }
    let before = applied.load(Ordering::Relaxed);

    let mut group = c.benchmark_group("adapt");
    group.sample_size(STORM_SAMPLES);
    group.bench_function("profile_read_during_update_storm", |b| {
        let mut user = 0u32;
        b.iter(|| {
            user = (user + 1) % USERS;
            black_box(store.get(UserId(user)).map(|p| p.interest_count()))
        })
    });
    group.finish();
    let during = applied.load(Ordering::Relaxed) - before;
    stop.store(true, Ordering::Relaxed);
    updater.join().expect("updater thread");
    println!(
        "adapt: updater applied {during} reactions while readers ran; store {:?}",
        store.stats()
    );
    assert!(
        during >= MIN_STORM_REACTIONS,
        "the updater applied {during} reactions while readers ran \
         (want >= {MIN_STORM_REACTIONS}): the reads were timed without contention"
    );
}

criterion_group!(
    benches,
    bench_feedback_throughput,
    bench_read_latency_under_updates
);
criterion_main!(benches);
