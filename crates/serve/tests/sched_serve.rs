//! Interleaving models of the serving edge's concurrency structure:
//! the acceptor→worker dispatch queue (a `BoundedLog` of connections,
//! modelled here over integers) racing shutdown's drain, and
//! the admission controller's in-flight accounting under concurrent
//! admits and releases. Under `--cfg evorec_sched` the `sched`
//! harness enumerates bounded schedules exhaustively; on a default
//! build the closures run once as concurrency smoke tests.

use evorec_obs::LogicalClock;
use evorec_serve::admission::{AdmissionController, AdmissionDecision, AdmissionOptions};
use evorec_stream::{BoundedLog, TryPushError};
use std::sync::Arc;

/// Worker-pool dispatch vs shutdown drain: a connection the acceptor
/// managed to enqueue is *always* served (popped), in every
/// interleaving of push / close / pop — the graceful-drain guarantee.
#[test]
fn enqueued_connection_is_never_dropped_by_shutdown() {
    // Three threads × condvar hand-offs: bound preemptions to keep the
    // exploration exhaustive-within-bound yet tractable.
    let builder = sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    };
    let report = builder.explore(|| {
        let queue = Arc::new(BoundedLog::<u32>::bounded(2));
        let acceptor = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || queue.try_push(7).is_ok())
        };
        let shutdown = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || queue.close())
        };
        let worker = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || {
                let mut served = Vec::new();
                while let Some(conn) = queue.pop_batch(1).pop() {
                    served.push(conn);
                }
                served
            })
        };
        let accepted = acceptor.join().unwrap();
        shutdown.join().unwrap();
        let served = worker.join().unwrap();
        if accepted {
            assert_eq!(served, vec![7], "enqueued connection must drain");
        } else {
            assert!(served.is_empty(), "rejected push leaves nothing queued");
        }
        assert_eq!(queue.pop_batch(1).pop(), None, "closed + drained = terminal");
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1, "the race has multiple interleavings");
    }
}

/// Two workers draining one closing queue: every accepted item is
/// served exactly once (no duplication, no loss), and both workers
/// terminate — no interleaving leaves a worker parked forever on the
/// condvar after close.
#[test]
fn competing_workers_drain_exactly_once_and_terminate() {
    // Two workers + a closer around one condvar: bound preemptions as
    // above — the drain invariant still holds across every bounded
    // schedule.
    let builder = sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    };
    let report = builder.explore(|| {
        let queue = Arc::new(BoundedLog::<u32>::bounded(4));
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        let worker = |queue: &Arc<BoundedLog<u32>>| {
            let queue = Arc::clone(queue);
            sched::thread::spawn(move || {
                let mut served = Vec::new();
                while let Some(conn) = queue.pop_batch(1).pop() {
                    served.push(conn);
                }
                served
            })
        };
        let w1 = worker(&queue);
        let w2 = worker(&queue);
        let closer = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || queue.close())
        };
        closer.join().unwrap();
        let mut all = w1.join().unwrap();
        all.extend(w2.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, vec![1, 2], "each connection served exactly once");
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}

/// Admission counter under racing admits: with a cap of 1, two
/// concurrent requests admit at most one at a time, the loser is
/// counted as saturated OR admitted after the winner's release —
/// and the in-flight count always returns to zero (no leaked slot in
/// any interleaving).
#[test]
fn in_flight_slots_never_leak_under_racing_admits() {
    let report = sched::model(|| {
        let controller = AdmissionController::new(
            AdmissionOptions {
                max_in_flight: 1,
                ..Default::default()
            },
            Arc::new(LogicalClock::new()),
        );
        let admit = |controller: &Arc<AdmissionController>| {
            let controller = Arc::clone(controller);
            sched::thread::spawn(move || match controller.admit("t") {
                AdmissionDecision::Admitted(permit) => {
                    // Serve, then release.
                    drop(permit);
                    true
                }
                _ => false,
            })
        };
        let a = admit(&controller);
        let b = admit(&controller);
        let got_a = a.join().unwrap();
        let got_b = b.join().unwrap();
        let counters = controller.counters();
        assert!(got_a || got_b, "someone always gets the slot");
        assert_eq!(counters.in_flight, 0, "every permit released its slot");
        let admitted = u64::from(got_a) + u64::from(got_b);
        assert_eq!(
            counters.rejected_saturated,
            2 - admitted,
            "every loser is counted"
        );
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}

/// Queue-full shedding vs worker pop: when the queue is at capacity,
/// a racing pop may or may not open a slot before the acceptor's
/// push — but in every interleaving the connection is either queued
/// or handed back (`Full`), never silently gone.
#[test]
fn full_queue_hands_the_connection_back_or_queues_it() {
    let report = sched::model(|| {
        let queue = Arc::new(BoundedLog::<u32>::bounded(1));
        queue.try_push(1).unwrap();
        let worker = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || queue.pop_batch(1).pop())
        };
        let acceptor = {
            let queue = Arc::clone(&queue);
            sched::thread::spawn(move || queue.try_push(2))
        };
        let popped = worker.join().unwrap();
        let pushed = acceptor.join().unwrap();
        assert!(popped.is_some(), "worker always gets an item");
        match pushed {
            Ok(()) => {}
            Err(TryPushError::Full(conn)) => assert_eq!(conn, 2, "shed hands the conn back"),
            Err(TryPushError::Closed(_)) => panic!("queue was never closed"),
        }
        // Conservation: items in = items out, nothing vanished.
        let drained = std::iter::from_fn(|| {
            if queue.is_empty() {
                None
            } else {
                queue.pop_batch(1).pop()
            }
        })
        .count();
        let total_in = 1 + usize::from(pushed.is_ok());
        assert_eq!(
            usize::from(popped.is_some()) + drained,
            total_in,
            "no connection lost"
        );
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
