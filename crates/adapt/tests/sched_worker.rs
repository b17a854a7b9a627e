//! Interleaving model of the [`AdaptWorker`] flush barrier: under
//! `--cfg evorec_sched` the `sched` harness enumerates bounded
//! schedules of the producer, the worker thread, and the flusher,
//! proving `flush()` returns only after every previously enqueued
//! event is fully applied to the store and the bandit ledger.

use evorec_adapt::{AdaptWorker, BanditBook, FeedbackEvent, FeedbackLog, ProfileStore, Reaction};
use evorec_core::{Item, UserId};
use evorec_kb::TermId;
use evorec_measures::{MeasureCategory, MeasureId};
use evorec_stream::BoundedLog;
use std::sync::Arc;

fn event(n: u32) -> FeedbackEvent {
    let item = Item::new(
        MeasureId::new("m"),
        MeasureCategory::ChangeCounting,
        TermId::from_u32(n),
        1.0,
    );
    FeedbackEvent::new(UserId(1), item, Reaction::Accept)
}

/// The flush barrier: after `flush()` returns, both enqueued events
/// are visible in the profile store *and* the bandit book — whichever
/// way the worker's micro-batching and the flusher's condvar waits
/// interleave.
#[test]
fn flush_waits_for_every_prior_event() {
    // Worker + flusher + main weave through two condvars; bounding
    // preemptions keeps the exploration fast while still covering the
    // wakeup races.
    let builder = sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    };
    let report = builder.explore(|| {
        let log: Arc<FeedbackLog> = Arc::new(BoundedLog::bounded(4));
        let store = Arc::new(ProfileStore::with_defaults());
        let book = Arc::new(BanditBook::new());
        let worker = AdaptWorker::spawn(
            Arc::clone(&log),
            Arc::clone(&store),
            Arc::clone(&book),
            2,
            None,
        );
        log.push(event(1)).unwrap();
        log.push(event(2)).unwrap();
        worker.flush();
        // The barrier: everything enqueued before flush is applied.
        assert_eq!(store.stats().updates, 2, "store saw both events");
        assert_eq!(book.observations(), 2, "ledger saw both events");
        assert_eq!(
            store.get(UserId(1)).map(|p| p.seen_count()),
            Some(2),
            "the profile folded both items in"
        );
        let stats = worker.shutdown();
        assert_eq!(stats.events, 2);
        assert_eq!(stats.accepts, 2);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
