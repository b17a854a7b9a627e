//! The background telemetry collector and its driver thread.
//!
//! [`TelemetryCollector::scrape_once`] is one pull of the whole obs
//! plane: snapshot the registry, diff against the previous scrape,
//! retain every series (plus derived `rate(…)` series for monotonic
//! counters) in the ring TSDB, evaluate the SLO health engine, and
//! append the interesting moments — scrape marks, counter
//! regressions, watermark advances, health transitions, fresh span
//! trees — to the flight recorder.
//!
//! Time comes from the pluggable obs [`Clock`], never from the OS
//! directly: drive a collector from a `LogicalClock` and the whole
//! pipeline — bucket boundaries, burn-rate windows, flight timeline —
//! replays bit-identically.
//!
//! # Locking
//!
//! The collector is itself a [`MetricsSource`] (it exposes
//! `evorec_telemetry_*` meta-metrics), and collecting those needs the
//! state lock. `scrape_once` therefore reads the clock and takes the
//! registry snapshot *before* locking state — taking them under the
//! lock would self-deadlock the moment the collector is registered on
//! the registry it scrapes. Flight events are staged in a local
//! buffer and appended after the state lock drops, so the collector
//! never holds two locks at once.

use crate::health::{HealthEngine, HealthReport, HealthTransition, SloRule};
use crate::recorder::{FlightEvent, FlightRecorder};
use crate::tsdb::{RawPoint, Rollup, SeriesStore, TsdbConfig};
use evorec_obs::render::escape_json;
use evorec_obs::{Clock, MetricsRegistry, MetricsSnapshot, MetricsSource, Sample, Tracer};
use sched::sync::{Condvar, Mutex};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// How a collector scrapes and what it retains.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Intended scrape cadence (informs default retention shape and
    /// SLO windows; the driver converts it to a wall timeout).
    pub cadence_nanos: u64,
    /// Retention shape for the ring TSDB.
    pub tsdb: TsdbConfig,
    /// SLO rules evaluated after every scrape.
    pub rules: Vec<SloRule>,
    /// Capture the tracer's most recent span tree each scrape.
    pub record_traces: bool,
}

impl CollectorConfig {
    /// A config scraping every `cadence_nanos` with matching
    /// retention, no rules, and trace capture on.
    pub fn for_cadence(cadence_nanos: u64) -> CollectorConfig {
        CollectorConfig {
            cadence_nanos: cadence_nanos.max(1),
            tsdb: TsdbConfig::for_cadence(cadence_nanos),
            rules: Vec::new(),
            record_traces: true,
        }
    }

    /// Replace the rule set.
    pub fn with_rules(mut self, rules: Vec<SloRule>) -> CollectorConfig {
        self.rules = rules;
        self
    }
}

impl Default for CollectorConfig {
    /// One-second cadence, default retention, no rules.
    fn default() -> CollectorConfig {
        CollectorConfig::for_cadence(1_000_000_000)
    }
}

/// What one scrape observed, returned by
/// [`TelemetryCollector::scrape_once`].
#[derive(Clone, Debug)]
pub struct ScrapeOutcome {
    /// Clock reading of the scrape.
    pub at_nanos: u64,
    /// Samples in the registry snapshot.
    pub samples: usize,
    /// Counter regressions flagged by the snapshot diff.
    pub regressions: usize,
    /// The health report of this evaluation.
    pub report: HealthReport,
    /// Status changes relative to the previous evaluation.
    pub transitions: Vec<HealthTransition>,
}

struct CollectorState {
    store: SeriesStore,
    engine: HealthEngine,
    previous: Option<MetricsSnapshot>,
    last_scrape_nanos: Option<u64>,
    last_report: Option<HealthReport>,
    last_epochs: Option<u64>,
    last_trace_root: Option<u64>,
    scrapes: u64,
    regressions_total: u64,
}

/// The periodic scraper: registry snapshots in, ring TSDB + health
/// reports + flight events out. Share it by `Arc`; scraping and all
/// accessors take `&self`.
pub struct TelemetryCollector {
    registry: Arc<MetricsRegistry>,
    clock: Arc<dyn Clock>,
    tracer: Option<Arc<Tracer>>,
    recorder: Arc<FlightRecorder>,
    config: CollectorConfig,
    state: Mutex<CollectorState>,
}

impl TelemetryCollector {
    /// A collector scraping `registry` on `clock` with `config`.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        clock: Arc<dyn Clock>,
        config: CollectorConfig,
    ) -> TelemetryCollector {
        let store = SeriesStore::new(config.tsdb.clone());
        let engine = HealthEngine::new(config.rules.clone());
        TelemetryCollector {
            registry,
            clock,
            tracer: None,
            recorder: Arc::new(FlightRecorder::new()),
            config,
            state: Mutex::new(CollectorState {
                store,
                engine,
                previous: None,
                last_scrape_nanos: None,
                last_report: None,
                last_epochs: None,
                last_trace_root: None,
                scrapes: 0,
                regressions_total: 0,
            }),
        }
    }

    /// Capture span trees from `tracer` on each scrape.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> TelemetryCollector {
        self.tracer = Some(tracer);
        self
    }

    /// Use `recorder` instead of a private one (to share a ring, or
    /// to install the panic hook on it before attaching).
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> TelemetryCollector {
        self.recorder = recorder;
        self
    }

    /// The collector's configuration.
    pub fn config(&self) -> &CollectorConfig {
        &self.config
    }

    /// The flight recorder this collector appends to.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Scrape now: snapshot → diff → retain → evaluate → record.
    pub fn scrape_once(&self) -> ScrapeOutcome {
        // Clock, snapshot, and trace are read BEFORE the state lock —
        // see the module docs on locking.
        let now = self.clock.now_nanos();
        let snapshot = self.registry.snapshot();
        let trace = match (&self.tracer, self.config.record_traces) {
            (Some(tracer), true) => tracer.last_trace(),
            _ => Vec::new(),
        };

        let mut events: Vec<FlightEvent> = Vec::new();
        let mut trace_to_keep: Option<Vec<evorec_obs::FinishedSpan>> = None;

        let mut state = self.state.lock();
        let dt_nanos = state.last_scrape_nanos.map(|prev| now.saturating_sub(prev));

        // Diff against the previous scrape: derived rate() series for
        // monotonic counters, regression flags for the rest.
        let mut regressions = 0usize;
        if let Some(previous) = &state.previous {
            let diff = snapshot.diff(previous);
            regressions = diff.regressions.len();
            let mut rates: Vec<(String, f64)> = Vec::new();
            if let Some(dt) = dt_nanos {
                if dt > 0 {
                    for delta in &diff.deltas {
                        if delta.monotonic {
                            let per_second = delta.delta() * 1e9 / dt as f64;
                            rates.push((format!("rate({})", delta.key), per_second));
                        }
                    }
                }
            }
            for (key, value) in rates {
                state.store.record(&key, now, value);
            }
            for regression in &diff.regressions {
                events.push(FlightEvent::Regression {
                    at_nanos: now,
                    key: regression.key.clone(),
                    previous: regression.previous,
                    current: regression.current,
                });
            }
        }

        // Retain every scraped series under its series key.
        for sample in &snapshot.samples {
            let key = sample.series_key();
            let value = sample.value.as_f64();
            state.store.record(&key, now, value);
        }

        // Ingest watermark: the stream plane's committed-epoch
        // frontier (window-manager epochs as a fallback when no
        // pipeline is attached), noted only when it advances.
        let epochs = snapshot
            .value(crate::defaults::STREAM_EPOCHS_SERIES)
            .or_else(|| snapshot.value(crate::defaults::WINDOWS_EPOCHS_SERIES));
        if let Some(epochs) = epochs {
            if state.last_epochs != Some(epochs) {
                let head_version = snapshot
                    .value(crate::defaults::STREAM_HEAD_SERIES)
                    .unwrap_or(0);
                events.push(FlightEvent::Watermark {
                    at_nanos: now,
                    epochs,
                    head_version,
                });
                state.last_epochs = Some(epochs);
            }
        }

        // Evaluate health over the freshly-extended store.
        let CollectorState { store, engine, .. } = &mut *state;
        let (report, transitions) = engine.evaluate(store, now);
        for transition in &transitions {
            events.push(FlightEvent::Transition {
                at_nanos: transition.at_nanos,
                component: transition.component.clone(),
                from: transition.from,
                to: transition.to,
                reasons: transition.reasons.clone(),
            });
        }

        // A fresh span tree (root id unseen) is worth retaining.
        if !trace.is_empty() {
            let root_id = trace
                .iter()
                .find(|s| s.parent == 0)
                .map(|s| s.id)
                .or_else(|| trace.first().map(|s| s.id));
            if root_id.is_some() && state.last_trace_root != root_id {
                state.last_trace_root = root_id;
                trace_to_keep = Some(trace);
            }
        }

        events.insert(
            0,
            FlightEvent::Scrape {
                at_nanos: now,
                samples: snapshot.samples.len() as u64,
                series: state.store.len() as u64,
                regressions: regressions as u64,
            },
        );

        state.scrapes += 1;
        state.regressions_total += regressions as u64;
        state.previous = Some(snapshot);
        state.last_scrape_nanos = Some(now);
        state.last_report = Some(report.clone());
        let samples = state
            .previous
            .as_ref()
            .map(|s| s.samples.len())
            .unwrap_or(0);
        drop(state);

        // Recorder appends happen outside the state lock.
        self.recorder.extend(events);
        if let Some(trace) = trace_to_keep {
            self.recorder.record_trace(trace);
        }

        ScrapeOutcome {
            at_nanos: now,
            samples,
            regressions,
            report,
            transitions,
        }
    }

    /// Scrapes performed so far.
    pub fn scrapes(&self) -> u64 {
        self.state.lock().scrapes
    }

    /// The retained series keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.state
            .lock()
            .store
            .keys()
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// The raw retained points of `key`, oldest first.
    pub fn raw_points(&self, key: &str) -> Vec<RawPoint> {
        self.state
            .lock()
            .store
            .get(key)
            .map(|buf| buf.raw_points())
            .unwrap_or_default()
    }

    /// The rollups of `key` at resolution `level`, oldest first
    /// (sealed buckets then the open one).
    pub fn rollups(&self, key: &str, level: usize) -> Vec<Rollup> {
        self.state
            .lock()
            .store
            .get(key)
            .map(|buf| buf.rollups(level))
            .unwrap_or_default()
    }

    /// The newest retained point of `key`.
    pub fn latest(&self, key: &str) -> Option<RawPoint> {
        self.state.lock().store.get(key).and_then(|buf| buf.latest())
    }

    /// The health report of the most recent scrape.
    pub fn last_report(&self) -> Option<HealthReport> {
        self.state.lock().last_report.clone()
    }

    /// The full diagnostic bundle as one JSON object: generation
    /// time, per-component health, every retained series (latest
    /// value + raw points), and the flight-recorder dump.
    pub fn dump_json(&self) -> String {
        let state = self.state.lock();
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"generated_at\":{},\"scrapes\":{}",
            state.last_scrape_nanos.unwrap_or(0),
            state.scrapes,
        );
        out.push_str(",\"health\":");
        match &state.last_report {
            Some(report) => out.push_str(&report.render_json()),
            None => out.push_str("{\"overall\":\"ok\",\"components\":{}}"),
        }
        out.push_str(",\"series\":{");
        for (i, (key, buf)) in state.store.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(key, &mut out);
            out.push_str("\":[");
            for (j, point) in buf.raw_points().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{},{}]", point.t_nanos, point.value);
            }
            out.push(']');
        }
        out.push('}');
        drop(state);
        let _ = write!(out, ",\"flight\":{}}}", self.recorder.dump_json());
        out
    }
}

impl MetricsSource for TelemetryCollector {
    /// The collector's own meta-metrics (`evorec_telemetry_*`).
    fn collect(&self, out: &mut Vec<Sample>) {
        let state = self.state.lock();
        out.push(Sample::counter(
            "evorec_telemetry_scrapes_total",
            state.scrapes,
        ));
        out.push(Sample::gauge(
            "evorec_telemetry_series",
            state.store.len() as u64,
        ));
        out.push(Sample::counter(
            "evorec_telemetry_counter_regressions_total",
            state.regressions_total,
        ));
        out.push(Sample::counter(
            "evorec_telemetry_dropped_series_total",
            state.store.dropped_series(),
        ));
        if let Some(report) = &state.last_report {
            for (component, health) in &report.components {
                out.push(
                    Sample::gauge("evorec_telemetry_health_status", health.status.severity())
                        .with_label("component", component),
                );
            }
        }
    }
}

struct DriverShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A background thread scraping a collector on a fixed wall cadence.
/// Stop it with [`shutdown`](TelemetryDriver::shutdown); dropping it
/// stops it too.
pub struct TelemetryDriver {
    shared: Arc<DriverShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryDriver {
    /// Start scraping `collector` every `interval` (first scrape one
    /// interval in). The wait is a condvar timeout, not a sleep, so
    /// shutdown never blocks for a full interval.
    pub fn start(collector: Arc<TelemetryCollector>, interval: Duration) -> TelemetryDriver {
        let shared = Arc::new(DriverShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::spawn(move || loop {
            let mut stopped = thread_shared.stop.lock();
            loop {
                if *stopped {
                    return;
                }
                let (guard, timed_out) = thread_shared.wake.wait_timeout(stopped, interval);
                stopped = guard;
                if timed_out {
                    break;
                }
            }
            if *stopped {
                return;
            }
            drop(stopped);
            let _ = collector.scrape_once();
        });
        TelemetryDriver {
            shared,
            handle: Some(handle),
        }
    }

    /// Stop the scrape loop and join the thread.
    pub fn shutdown(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}
