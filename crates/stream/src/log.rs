//! The bounded, multi-producer log feeding stream consumers.
//!
//! A classic bounded queue built on `sched::sync::{Mutex, Condvar}`
//! (plain `std` primitives normally; deterministic scheduling points
//! under the `cfg(evorec_sched)` race harness — see `crates/shims/sched`):
//! producers [`push`](BoundedLog::push) and *block* when the log is full
//! (backpressure — a slow consumer throttles its sources instead of the
//! log growing without bound), or [`try_push`](BoundedLog::try_push) and
//! get the entry back; consumers drain micro-batches with
//! [`pop_batch`](BoundedLog::pop_batch). Several consumers may pop at
//! once — each entry goes to exactly one of them. Closing the log wakes
//! everyone: pushes start failing, pops drain what is left and then
//! return empty.
//!
//! The queue is generic over its payload: [`EventLog`] (over
//! [`ChangeEvent`]) feeds the ingestor; the online adaptation subsystem
//! reuses the same [`BoundedLog`] for its curator-feedback stream, and
//! the serving edge for the connections its workers pop.

use crate::event::ChangeEvent;
use sched::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;

/// Error returned by [`BoundedLog::push`] on a closed log; carries the
/// rejected payload back to the producer.
#[derive(Debug)]
pub struct LogClosed<T>(pub T);

impl<T> std::fmt::Display for LogClosed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("log is closed")
    }
}

impl<T: std::fmt::Debug> std::error::Error for LogClosed<T> {}

/// Error returned by [`BoundedLog::try_push`]; carries the rejected
/// payload.
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The log is at capacity; retry later or use the blocking
    /// [`BoundedLog::push`].
    Full(T),
    /// The log is closed; the payload can never be delivered.
    Closed(T),
}

impl<T> std::fmt::Display for TryPushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TryPushError::Full(_) => "log is full",
            TryPushError::Closed(_) => "log is closed",
        })
    }
}

impl<T: std::fmt::Debug> std::error::Error for TryPushError<T> {}

/// Cumulative counters of a [`BoundedLog`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Events accepted into the log.
    pub enqueued: u64,
    /// Events handed to the consumer.
    pub dequeued: u64,
    /// Largest queue depth observed.
    pub high_water: usize,
    /// Times a producer blocked on a full log (backpressure events).
    pub producer_waits: u64,
    /// Times the consumer blocked on an empty log.
    pub consumer_waits: u64,
}

struct LogState<T> {
    queue: VecDeque<T>,
    closed: bool,
    stats: LogStats,
}

/// A bounded, thread-safe, multi-producer queue; several consumers
/// may pop, as the serving edge's workers do.
pub struct BoundedLog<T> {
    state: Mutex<LogState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

/// The change-event log feeding the ingestor.
pub type EventLog = BoundedLog<ChangeEvent>;

impl<T> BoundedLog<T> {
    /// A log holding at most `capacity` undelivered entries (clamped to
    /// at least 1).
    pub fn bounded(capacity: usize) -> BoundedLog<T> {
        BoundedLog {
            state: Mutex::new(LogState {
                queue: VecDeque::new(),
                closed: false,
                stats: LogStats::default(),
            }),
            capacity: capacity.max(1),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState<T>> {
        self.state.lock()
    }

    /// Append an entry, blocking while the log is full (backpressure).
    /// Fails only on a closed log, handing the entry back.
    pub fn push(&self, event: T) -> Result<(), LogClosed<T>> {
        let mut state = self.lock();
        while state.queue.len() >= self.capacity && !state.closed {
            state.stats.producer_waits += 1;
            state = self.not_full.wait(state);
        }
        if state.closed {
            return Err(LogClosed(event));
        }
        state.queue.push_back(event);
        state.stats.enqueued += 1;
        state.stats.high_water = state.stats.high_water.max(state.queue.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Append an entry without blocking; fails on a full or closed log,
    /// handing the entry back either way.
    pub fn try_push(&self, event: T) -> Result<(), TryPushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TryPushError::Closed(event));
        }
        if state.queue.len() >= self.capacity {
            return Err(TryPushError::Full(event));
        }
        state.queue.push_back(event);
        state.stats.enqueued += 1;
        state.stats.high_water = state.stats.high_water.max(state.queue.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Remove up to `max` entries (at least one), blocking while the log
    /// is empty and open. Returns an empty batch only once the log is
    /// closed *and* drained — the consumer's termination signal.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut state = self.lock();
        while state.queue.is_empty() && !state.closed {
            state.stats.consumer_waits += 1;
            state = self.not_empty.wait(state);
        }
        let take = state.queue.len().min(max);
        let batch: Vec<T> = state.queue.drain(..take).collect();
        state.stats.dequeued += batch.len() as u64;
        drop(state);
        if !batch.is_empty() {
            self.not_full.notify_all();
        }
        batch
    }

    /// Remove up to `max` entries without blocking (empty when none are
    /// queued).
    pub fn try_pop_batch(&self, max: usize) -> Vec<T> {
        let mut state = self.lock();
        let take = state.queue.len().min(max);
        let batch: Vec<T> = state.queue.drain(..take).collect();
        state.stats.dequeued += batch.len() as u64;
        drop(state);
        if !batch.is_empty() {
            self.not_full.notify_all();
        }
        batch
    }

    /// Close the log: subsequent pushes fail, pops drain the remainder.
    /// Wakes every blocked producer and consumer. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// `true` once [`close`](BoundedLog::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Number of undelivered entries.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.lock().queue.is_empty()
    }

    /// The maximum number of undelivered entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative counters.
    pub fn stats(&self) -> LogStats {
        self.lock().stats
    }
}

impl<T: Send> evorec_obs::MetricsSource for BoundedLog<T> {
    /// Pull-model metrics: counters are sampled from [`LogStats`] at
    /// snapshot time, so registering a log with a
    /// [`MetricsRegistry`](evorec_obs::MetricsRegistry) adds no work to
    /// the push/pop hot path.
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        let stats = self.stats();
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_log_enqueued_total",
            stats.enqueued,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_log_dequeued_total",
            stats.dequeued,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_log_producer_waits_total",
            stats.producer_waits,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_log_consumer_waits_total",
            stats.consumer_waits,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_stream_log_high_water",
            stats.high_water as u64,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_stream_log_depth",
            self.len() as u64,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_stream_log_capacity",
            self.capacity as u64,
        ));
    }
}

impl<T> std::fmt::Debug for BoundedLog<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("BoundedLog")
            .field("capacity", &self.capacity)
            .field("queued", &state.queue.len())
            .field("closed", &state.closed)
            .field("stats", &state.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TermId, Triple};
    use std::sync::Arc;

    fn ev(n: u32) -> ChangeEvent {
        let t = TermId::from_u32(n);
        ChangeEvent::assert(Triple::new(t, t, t), "test")
    }

    #[test]
    fn push_pop_roundtrip_in_order() {
        let log = EventLog::bounded(8);
        for n in 0..5 {
            log.push(ev(n)).unwrap();
        }
        assert_eq!(log.len(), 5);
        let batch = log.pop_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], ev(0));
        assert_eq!(batch[2], ev(2));
        assert_eq!(log.pop_batch(10), vec![ev(3), ev(4)]);
        let stats = log.stats();
        assert_eq!(stats.enqueued, 5);
        assert_eq!(stats.dequeued, 5);
        assert_eq!(stats.high_water, 5);
    }

    #[test]
    fn try_push_reports_full_and_closed() {
        let log = EventLog::bounded(1);
        log.try_push(ev(1)).unwrap();
        match log.try_push(ev(2)) {
            Err(TryPushError::Full(e)) => assert_eq!(e, ev(2)),
            other => panic!("expected Full, got {other:?}"),
        }
        log.close();
        match log.try_push(ev(3)) {
            Err(TryPushError::Closed(e)) => assert_eq!(e, ev(3)),
            other => panic!("expected Closed, got {other:?}"),
        }
        // The queued event is still drainable after close.
        assert_eq!(log.pop_batch(4), vec![ev(1)]);
        assert!(log.pop_batch(4).is_empty(), "closed + drained = empty");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        assert_eq!(EventLog::bounded(0).capacity(), 1);
    }

    #[test]
    fn blocked_producer_resumes_when_consumer_drains() {
        let log = Arc::new(EventLog::bounded(2));
        log.push(ev(0)).unwrap();
        log.push(ev(1)).unwrap();
        let producer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                // Blocks until the consumer below makes room.
                log.push(ev(2)).unwrap();
            })
        };
        // Wait until the producer is observably blocked (no sleeps —
        // the stats counter ticks before the condvar wait), then
        // drain; otherwise a fast drain could make room before the
        // producer ever has to wait.
        while log.stats().producer_waits == 0 {
            std::thread::yield_now();
        }
        let mut drained = Vec::new();
        while drained.len() < 3 {
            drained.extend(log.pop_batch(1));
        }
        producer.join().unwrap();
        assert_eq!(drained, vec![ev(0), ev(1), ev(2)]);
        assert!(log.stats().producer_waits >= 1, "backpressure engaged");
    }

    #[test]
    fn close_unblocks_waiting_producer_with_error() {
        let log = Arc::new(EventLog::bounded(1));
        log.push(ev(0)).unwrap();
        let producer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.push(ev(1)))
        };
        // Wait until the producer is observably blocked (no sleeps —
        // the stats counter ticks before the condvar wait), then close
        // without draining.
        while log.stats().producer_waits == 0 {
            std::thread::yield_now();
        }
        log.close();
        let result = producer.join().unwrap();
        assert!(result.is_err(), "push on closed log fails");
        assert_eq!(log.len(), 1, "only the first event made it in");
    }

    #[test]
    fn close_unblocks_waiting_consumer() {
        let log = Arc::new(EventLog::bounded(4));
        let consumer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || log.pop_batch(4))
        };
        // Wait until the consumer is observably parked, then close.
        while log.stats().consumer_waits == 0 {
            std::thread::yield_now();
        }
        log.close();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let log = Arc::new(EventLog::bounded(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for n in 0..50 {
                        log.push(ev(p * 100 + n)).unwrap();
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        while seen.len() < 200 {
            seen.extend(log.pop_batch(16));
        }
        for p in producers {
            p.join().unwrap();
        }
        seen.sort_unstable_by_key(|e| e.triple.s);
        let expected: Vec<u32> = (0..4).flat_map(|p| (0..50).map(move |n| p * 100 + n)).collect();
        let got: Vec<u32> = seen.iter().map(|e| e.triple.s.as_u32()).collect();
        assert_eq!(got, {
            let mut e = expected;
            e.sort_unstable();
            e
        });
    }
}
