//! The adaptation worker: drains the feedback stream in micro-batches
//! and folds it into the live profile store and the bandit ledger.
//!
//! Mirrors the ingestion pipeline's shape — producers push
//! [`FeedbackEvent`]s into a bounded [`BoundedLog`] (blocking under
//! backpressure), one worker thread drains micro-batches and applies
//! them — so a storm of curator reactions throttles its sources instead
//! of growing an unbounded queue, and serving threads never pay the
//! profile-update cost inline.

use crate::bandit::BanditBook;
use crate::event::FeedbackEvent;
use crate::store::ProfileStore;
use evorec_core::{FeedbackSignal, Item, UserId};
use evorec_kb::FxHashMap;
use evorec_obs::{span, SpanHandle, Tracer};
use evorec_stream::BoundedLog;
use sched::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sched::sync::{Condvar, Mutex};
use sched::thread::JoinHandle;
use std::sync::Arc;

/// The bounded MPSC feedback stream feeding an [`AdaptWorker`].
pub type FeedbackLog = BoundedLog<FeedbackEvent>;

/// Cumulative counters of an [`AdaptWorker`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AdaptStats {
    /// Feedback events applied.
    pub events: u64,
    /// Micro-batches drained.
    pub batches: u64,
    /// Explicit accepts seen.
    pub accepts: u64,
    /// Dwells seen.
    pub dwells: u64,
    /// Dismissals seen.
    pub dismisses: u64,
    /// Explicit rejects seen.
    pub rejects: u64,
}

#[derive(Default)]
struct Progress {
    /// Events fully applied (store + bandit), under the flush mutex so
    /// waiters can sleep on the condvar.
    applied: Mutex<u64>,
    cond: Condvar,
    /// Set (under the `applied` lock) when the worker thread exits —
    /// normally or by panic — so flushers never wait on a dead thread.
    finished: AtomicBool,
}

struct Counters {
    batches: AtomicU64,
    accepts: AtomicU64,
    dwells: AtomicU64,
    dismisses: AtomicU64,
    rejects: AtomicU64,
}

/// A running feedback-application worker. Dropping it closes the log,
/// drains what is queued, and joins the thread.
pub struct AdaptWorker {
    log: Arc<FeedbackLog>,
    progress: Arc<Progress>,
    counters: Arc<Counters>,
    handle: Option<JoinHandle<()>>,
}

impl AdaptWorker {
    /// Start a worker draining `log` in micro-batches of up to
    /// `max_batch` (clamped to ≥ 1), applying each event to `store`
    /// (profile update) and `book` (bandit ledger). With a `tracer`,
    /// each applied micro-batch is timed as one `feedback_apply` root
    /// span; `None` is the zero-cost disabled mode.
    pub fn spawn(
        log: Arc<FeedbackLog>,
        store: Arc<ProfileStore>,
        book: Arc<BanditBook>,
        max_batch: usize,
        tracer: Option<Arc<Tracer>>,
    ) -> AdaptWorker {
        let max_batch = max_batch.max(1);
        let progress = Arc::new(Progress::default());
        let counters = Arc::new(Counters {
            batches: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            dwells: AtomicU64::new(0),
            dismisses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        });
        let handle = {
            let log = Arc::clone(&log);
            let progress = Arc::clone(&progress);
            let counters = Arc::clone(&counters);
            sched::thread::spawn(move || {
                // Runs on every exit path — a panic in the apply loop
                // included — so flushers wake instead of waiting on a
                // dead thread.
                struct FinishGuard(Arc<Progress>);
                impl Drop for FinishGuard {
                    fn drop(&mut self) {
                        let _lock = self.0.applied.lock();
                        self.0.finished.store(true, Ordering::Release);
                        self.0.cond.notify_all();
                    }
                }
                let _finish = FinishGuard(Arc::clone(&progress));
                loop {
                    let batch = log.pop_batch(max_batch);
                    if batch.is_empty() {
                        // Closed and drained: the guard wakes flushers.
                        return;
                    }
                    counters.batches.fetch_add(1, Ordering::Relaxed);
                    let apply_span = span(tracer.as_deref(), "feedback_apply", SpanHandle::NONE);
                    let applied = batch.len() as u64;
                    // One copy-on-write pass per user per micro-batch:
                    // the ledger and tallies are folded per event, the
                    // profile clone + swap is paid once per user. Per-
                    // user event order is preserved, and profiles only
                    // depend on their own user's events, so this equals
                    // the event-at-a-time replay exactly.
                    let mut per_user: FxHashMap<UserId, Vec<(Item, FeedbackSignal)>> =
                        FxHashMap::default();
                    for event in batch {
                        use crate::event::Reaction;
                        match event.reaction {
                            Reaction::Accept => &counters.accepts,
                            Reaction::Dwell => &counters.dwells,
                            Reaction::Dismiss => &counters.dismisses,
                            Reaction::Reject => &counters.rejects,
                        }
                        .fetch_add(1, Ordering::Relaxed);
                        book.observe(&event.item.measure, event.reaction);
                        per_user
                            .entry(event.user)
                            .or_default()
                            .push((event.item, event.reaction.signal()));
                    }
                    for (user, events) in per_user {
                        store.apply_batch(user, events.iter().map(|(i, s)| (i, *s)));
                    }
                    apply_span.finish();
                    let mut done = progress.applied.lock();
                    *done += applied;
                    progress.cond.notify_all();
                }
            })
        };
        AdaptWorker {
            log,
            progress,
            counters,
            handle: Some(handle),
        }
    }

    /// The feedback log this worker drains.
    pub fn log(&self) -> &Arc<FeedbackLog> {
        &self.log
    }

    /// Block until every event enqueued *before this call* has been
    /// applied — the serve-observe-update loop's synchronisation point.
    /// Events enqueued concurrently with the flush are not waited for.
    ///
    /// Termination: every accepted push is eventually popped (closing
    /// the log drains the remainder) and counted into `applied`, so the
    /// wait never depends on the log staying open. The timeout only
    /// guards against a missed wakeup.
    ///
    /// # Panics
    /// Panics if the worker thread died (panicked) before applying
    /// everything — waiting would otherwise hang forever, and
    /// returning would silently break the all-applied guarantee.
    pub fn flush(&self) {
        let target = self.log.stats().enqueued;
        let mut done = self.progress.applied.lock();
        while *done < target {
            assert!(
                !self.progress.finished.load(Ordering::Acquire),
                "adapt worker terminated with {} of {} events applied",
                *done,
                target
            );
            let (guard, _timed_out) = self
                .progress
                .cond
                .wait_timeout(done, std::time::Duration::from_millis(50));
            done = guard;
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> AdaptStats {
        AdaptStats {
            events: *self.progress.applied.lock(),
            batches: self.counters.batches.load(Ordering::Relaxed),
            accepts: self.counters.accepts.load(Ordering::Relaxed),
            dwells: self.counters.dwells.load(Ordering::Relaxed),
            dismisses: self.counters.dismisses.load(Ordering::Relaxed),
            rejects: self.counters.rejects.load(Ordering::Relaxed),
        }
    }

    /// Close the log, drain every queued event, and join the worker.
    ///
    /// # Panics
    /// Panics if the worker thread panicked.
    pub fn shutdown(mut self) -> AdaptStats {
        if let Err(panic) = self.join() {
            std::panic::resume_unwind(panic);
        }
        self.stats()
    }

    fn join(&mut self) -> std::thread::Result<()> {
        self.log.close();
        match self.handle.take() {
            Some(handle) => handle.join(),
            None => Ok(()),
        }
    }
}

impl Drop for AdaptWorker {
    fn drop(&mut self) {
        // Swallow a worker panic here: panicking during an unwind
        // (the normal test-failure path) would abort the process and
        // mask the original panic. `shutdown` surfaces it.
        let _ = self.join();
    }
}

impl std::fmt::Debug for AdaptWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptWorker")
            .field("log", &self.log)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Reaction;
    use evorec_core::{Item, UserId, UserProfile};
    use evorec_kb::TermId;
    use evorec_measures::{MeasureCategory, MeasureId};

    fn item(measure: &str, focus: u32) -> Item {
        Item::new(
            MeasureId::new(measure),
            MeasureCategory::ChangeCounting,
            TermId::from_u32(focus),
            1.0,
        )
    }

    #[test]
    fn worker_applies_stream_to_store_and_book() {
        let log: Arc<FeedbackLog> = Arc::new(BoundedLog::bounded(64));
        let store = Arc::new(ProfileStore::with_defaults());
        store.insert(UserProfile::new(UserId(1), "a"));
        let book = Arc::new(BanditBook::new());
        let worker = AdaptWorker::spawn(
            Arc::clone(&log),
            Arc::clone(&store),
            Arc::clone(&book),
            8,
            None,
        );
        for i in 0..20 {
            let reaction = if i % 2 == 0 {
                Reaction::Accept
            } else {
                Reaction::Reject
            };
            log.push(FeedbackEvent::new(UserId(1), item("m", i), reaction))
                .unwrap();
        }
        worker.flush();
        let stats = worker.stats();
        assert_eq!(stats.events, 20);
        assert_eq!(stats.accepts, 10);
        assert_eq!(stats.rejects, 10);
        assert!(stats.batches >= 1);
        assert_eq!(book.measure(&MeasureId::new("m")).exposures, 20);
        let profile = store.get(UserId(1)).unwrap();
        assert_eq!(profile.seen_count(), 20);
        let final_stats = worker.shutdown();
        assert_eq!(final_stats.events, 20);
    }

    #[test]
    fn flush_on_idle_and_closed_logs_returns() {
        let log: Arc<FeedbackLog> = Arc::new(BoundedLog::bounded(4));
        let store = Arc::new(ProfileStore::with_defaults());
        let book = Arc::new(BanditBook::new());
        let worker = AdaptWorker::spawn(Arc::clone(&log), store, book, 4, None);
        worker.flush(); // nothing enqueued: immediate
        log.push(FeedbackEvent::new(
            UserId(2),
            item("m", 1),
            Reaction::Dwell,
        ))
        .unwrap();
        let stats = worker.shutdown();
        assert_eq!(stats.events, 1, "shutdown drains the queue");
        assert_eq!(stats.dwells, 1);
    }

    #[test]
    fn concurrent_producers_all_land() {
        let log: Arc<FeedbackLog> = Arc::new(BoundedLog::bounded(8));
        let store = Arc::new(ProfileStore::with_defaults());
        let book = Arc::new(BanditBook::new());
        let worker = AdaptWorker::spawn(
            Arc::clone(&log),
            Arc::clone(&store),
            Arc::clone(&book),
            16,
            None,
        );
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        log.push(FeedbackEvent::new(
                            UserId(p),
                            item("m", i),
                            Reaction::Accept,
                        ))
                        .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let stats = worker.shutdown();
        assert_eq!(stats.events, 200);
        assert_eq!(store.len(), 4, "one auto-created profile per producer");
        assert_eq!(book.observations(), 200);
    }
}
