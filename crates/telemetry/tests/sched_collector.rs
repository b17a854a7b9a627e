//! Interleaving models of the collector ring: a scraping writer
//! racing a rendering reader, and flight-recorder appends racing a
//! dump. Under `--cfg evorec_sched` the harness enumerates bounded
//! schedules; under the default build the same closures run once as
//! concurrency smoke tests.
//!
//! The collector's state sits behind one `sched::sync::Mutex` and the
//! recorder behind another, taken strictly in state → recorder order
//! (never nested) — the models prove a reader can never observe a
//! torn scrape: it sees the series either before or after a whole
//! scrape, and the diagnostic dump is well-formed at every
//! interleaving point.

use evorec_obs::{Clock, LogicalClock, MetricsRegistry, MetricsSource, Sample};
use evorec_telemetry::{CollectorConfig, FlightRecorder, TelemetryCollector};
use sched::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const KEY: &str = "evorec_model_ticks_total";

/// The model's one series, a counter read at scrape time. It counts
/// with a `sched` atomic, so every add is a scheduling point.
#[derive(Default)]
struct Ticks(AtomicU64);

impl Ticks {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
}

impl MetricsSource for Ticks {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample::counter(KEY, self.0.load(Ordering::Relaxed)));
    }
}

fn bounded() -> sched::Builder {
    sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
}

/// A scrape (writer) racing a render (reader): the reader sees the
/// series at the pre-scrape or post-scrape value, never in between,
/// and the dump is a well-formed bundle either way. Quiescently the
/// second scrape is fully visible.
#[test]
fn scrape_racing_render_is_never_torn() {
    let report = bounded().explore(|| {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = Arc::new(Ticks::default());
        registry.register_source(Arc::clone(&counter) as Arc<dyn MetricsSource>);
        let clock = Arc::new(LogicalClock::new());
        let collector = Arc::new(TelemetryCollector::new(
            Arc::clone(&registry),
            Arc::clone(&clock) as Arc<dyn Clock>,
            CollectorConfig::for_cadence(10),
        ));
        counter.add(1);
        clock.tick(10);
        let _ = collector.scrape_once();
        let writer = {
            let counter = Arc::clone(&counter);
            let clock = Arc::clone(&clock);
            let collector = Arc::clone(&collector);
            sched::thread::spawn(move || {
                counter.add(2);
                clock.tick(10);
                let _ = collector.scrape_once();
            })
        };
        let reader = {
            let collector = Arc::clone(&collector);
            sched::thread::spawn(move || (collector.latest(KEY), collector.dump_json()))
        };
        let (mid_latest, mid_dump) = reader.join().unwrap();
        writer.join().unwrap();
        let mid = mid_latest.expect("the seed scrape is already retained").value;
        assert!(
            mid == 1.0 || mid == 3.0,
            "reader saw a torn scrape: {mid}"
        );
        assert!(mid_dump.starts_with("{\"generated_at\":"));
        assert!(mid_dump.ends_with('}'));
        let end = collector.latest(KEY).expect("series retained");
        assert_eq!(end.value, 3.0);
        assert_eq!(end.t_nanos, 20);
        assert_eq!(collector.scrapes(), 2);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1, "the race has multiple interleavings");
    }
}

/// A flight-recorder append racing a dump: the dump always renders a
/// complete bundle containing the already-quiescent prefix, and after
/// the writer joins nothing is lost or reordered.
#[test]
fn recorder_append_racing_dump_is_coherent() {
    let report = bounded().explore(|| {
        let recorder = Arc::new(FlightRecorder::with_capacity(8, 2));
        recorder.note(1, "pre");
        let writer = {
            let recorder = Arc::clone(&recorder);
            sched::thread::spawn(move || recorder.note(2, "mid"))
        };
        let reader = {
            let recorder = Arc::clone(&recorder);
            sched::thread::spawn(move || recorder.dump_json())
        };
        let mid_dump = reader.join().unwrap();
        writer.join().unwrap();
        assert!(mid_dump.contains("\"text\":\"pre\""), "prefix must be visible");
        assert!(mid_dump.starts_with("{\"events\":["));
        assert!(mid_dump.ends_with("\"traces_dropped\":0}"));
        let events = recorder.events();
        assert_eq!(events.len(), 2, "no append may be lost");
        let full = recorder.dump_json();
        let pre = full.find("\"pre\"").expect("pre retained");
        let mid = full.find("\"mid\"").expect("mid retained");
        assert!(pre < mid, "append order preserved in the dump");
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
