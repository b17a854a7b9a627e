//! The always-on flight recorder.
//!
//! A bounded ring of the recent *interesting moments* — scrapes,
//! health transitions, ingest watermarks, counter regressions,
//! free-form notes — plus a bounded ring of recent span trees, all
//! dumpable on demand as one JSON diagnostic bundle. The recorder is
//! cheap enough to leave on in production (two small rings behind one
//! mutex, touched once per scrape), which is the point: when
//! something goes wrong, the last minutes of context are already in
//! memory, and the panic hook prints them on the way down.
//!
//! Everything in the bundle is rendered with the same hand-rolled
//! escaping as the obs JSON exposition, so output is
//! byte-deterministic for a given recorder state.

use crate::health::HealthStatus;
use evorec_obs::render::escape_json;
use evorec_obs::FinishedSpan;
use sched::sync::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

/// One retained moment.
#[derive(Clone, Debug)]
pub enum FlightEvent {
    /// A collector scrape completed.
    Scrape {
        /// Clock reading of the scrape.
        at_nanos: u64,
        /// Samples in the snapshot.
        samples: u64,
        /// Series admitted in the TSDB after the scrape.
        series: u64,
        /// Counter regressions flagged in this scrape.
        regressions: u64,
    },
    /// A component's health status changed.
    Transition {
        /// Evaluation clock reading.
        at_nanos: u64,
        /// The component that moved.
        component: String,
        /// Status before.
        from: HealthStatus,
        /// Status after.
        to: HealthStatus,
        /// Active reasons after the move.
        reasons: Vec<String>,
    },
    /// The ingest frontier advanced.
    Watermark {
        /// Clock reading of the observing scrape.
        at_nanos: u64,
        /// Committed epochs observed.
        epochs: u64,
        /// Live head version observed.
        head_version: u64,
    },
    /// A monotonic series decreased (see
    /// [`CounterRegression`](evorec_obs::CounterRegression)).
    Regression {
        /// Clock reading of the observing scrape.
        at_nanos: u64,
        /// The offending series key.
        key: String,
        /// The older (larger) reading.
        previous: u64,
        /// The newer (smaller) reading.
        current: u64,
    },
    /// A free-form operator note.
    Note {
        /// Clock reading when noted.
        at_nanos: u64,
        /// The note text.
        text: String,
    },
}

struct RecorderState {
    events: VecDeque<FlightEvent>,
    event_capacity: usize,
    events_dropped: u64,
    traces: VecDeque<Vec<FinishedSpan>>,
    trace_capacity: usize,
    traces_dropped: u64,
}

/// The bounded event/trace retainer. Cloneable by `Arc`; all methods
/// take `&self`.
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// Default retained events.
    pub const DEFAULT_EVENTS: usize = 256;
    /// Default retained span trees.
    pub const DEFAULT_TRACES: usize = 16;

    /// A recorder with the default ring capacities.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(Self::DEFAULT_EVENTS, Self::DEFAULT_TRACES)
    }

    /// A recorder retaining at most `events` moments and `traces`
    /// span trees.
    pub fn with_capacity(events: usize, traces: usize) -> FlightRecorder {
        FlightRecorder {
            state: Mutex::new(RecorderState {
                events: VecDeque::new(),
                event_capacity: events.max(1),
                events_dropped: 0,
                traces: VecDeque::new(),
                trace_capacity: traces.max(1),
                traces_dropped: 0,
            }),
        }
    }

    /// Append one moment, evicting the oldest at capacity.
    pub fn append(&self, event: FlightEvent) {
        let mut state = self.state.lock();
        if state.events.len() == state.event_capacity {
            state.events.pop_front();
            state.events_dropped += 1;
        }
        state.events.push_back(event);
    }

    /// Append several moments in order.
    pub fn extend(&self, events: impl IntoIterator<Item = FlightEvent>) {
        for event in events {
            self.append(event);
        }
    }

    /// Record a free-form note at clock reading `at_nanos`.
    pub fn note(&self, at_nanos: u64, text: &str) {
        self.append(FlightEvent::Note {
            at_nanos,
            text: text.to_string(),
        });
    }

    /// Retain a finished span tree (as returned by
    /// `Tracer::last_trace`), evicting the oldest at capacity. Empty
    /// trees are ignored.
    pub fn record_trace(&self, spans: Vec<FinishedSpan>) {
        if spans.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        if state.traces.len() == state.trace_capacity {
            state.traces.pop_front();
            state.traces_dropped += 1;
        }
        state.traces.push_back(spans);
    }

    /// The retained moments, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.state.lock().events.iter().cloned().collect()
    }

    /// Moments evicted so far.
    pub fn events_dropped(&self) -> u64 {
        self.state.lock().events_dropped
    }

    /// The retained span trees, oldest first.
    pub fn traces(&self) -> Vec<Vec<FinishedSpan>> {
        self.state.lock().traces.iter().cloned().collect()
    }

    /// Render the recorder contents as one JSON object:
    /// `{"events":[…],"events_dropped":N,"traces":[[…]],"traces_dropped":N}`.
    pub fn dump_json(&self) -> String {
        let state = self.state.lock();
        let mut out = String::from("{\"events\":[");
        for (i, event) in state.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_event(event, &mut out);
        }
        let _ = write!(out, "],\"events_dropped\":{}", state.events_dropped);
        out.push_str(",\"traces\":[");
        for (i, trace) in state.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, span) in trace.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                // Span names are static workspace identifiers; escape
                // anyway for robustness.
                out.push_str("{\"name\":\"");
                escape_json(span.name, &mut out);
                let _ = write!(
                    out,
                    "\",\"id\":{},\"parent\":{},\"start\":{},\"end\":{}}}",
                    span.id, span.parent, span.start_nanos, span.end_nanos,
                );
            }
            out.push(']');
        }
        let _ = write!(out, "],\"traces_dropped\":{}}}", state.traces_dropped);
        out
    }

    /// Install a process-wide panic hook that prints this recorder's
    /// [`dump_json`](FlightRecorder::dump_json) to stderr (after the
    /// default hook) — the crash bundle. Installing chains, so
    /// calling it more than once prints more than one bundle; install
    /// once at startup.
    pub fn install_panic_hook(recorder: Arc<FlightRecorder>) {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            previous(info);
            eprintln!("flight-recorder bundle: {}", recorder.dump_json());
        }));
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

fn render_event(event: &FlightEvent, out: &mut String) {
    match event {
        FlightEvent::Scrape {
            at_nanos,
            samples,
            series,
            regressions,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"scrape\",\"at\":{at_nanos},\"samples\":{samples},\
                 \"series\":{series},\"regressions\":{regressions}}}",
            );
        }
        FlightEvent::Transition {
            at_nanos,
            component,
            from,
            to,
            reasons,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"transition\",\"at\":{at_nanos},\"component\":\""
            );
            escape_json(component, out);
            let _ = write!(
                out,
                "\",\"from\":\"{}\",\"to\":\"{}\",\"reasons\":[",
                from.label(),
                to.label(),
            );
            for (i, reason) in reasons.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(reason, out);
                out.push('"');
            }
            out.push_str("]}");
        }
        FlightEvent::Watermark {
            at_nanos,
            epochs,
            head_version,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"watermark\",\"at\":{at_nanos},\"epochs\":{epochs},\
                 \"head\":{head_version}}}",
            );
        }
        FlightEvent::Regression {
            at_nanos,
            key,
            previous,
            current,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"regression\",\"at\":{at_nanos},\"series\":\""
            );
            escape_json(key, out);
            let _ = write!(out, "\",\"previous\":{previous},\"current\":{current}}}");
        }
        FlightEvent::Note { at_nanos, text } => {
            let _ = write!(out, "{{\"kind\":\"note\",\"at\":{at_nanos},\"text\":\"");
            escape_json(text, out);
            out.push_str("\"}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let recorder = FlightRecorder::with_capacity(3, 2);
        for i in 0..5u64 {
            recorder.note(i, &format!("n{i}"));
        }
        let events = recorder.events();
        assert_eq!(events.len(), 3);
        assert_eq!(recorder.events_dropped(), 2);
        match &events[0] {
            FlightEvent::Note { at_nanos, .. } => assert_eq!(*at_nanos, 2),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn trace_ring_is_bounded_and_skips_empties() {
        let recorder = FlightRecorder::with_capacity(4, 2);
        recorder.record_trace(Vec::new());
        assert!(recorder.traces().is_empty());
        for id in 1..=3u64 {
            recorder.record_trace(vec![FinishedSpan {
                id,
                parent: 0,
                name: "serve",
                start_nanos: 0,
                end_nanos: 1,
            }]);
        }
        let traces = recorder.traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0][0].id, 2, "oldest trace evicted");
    }

    #[test]
    fn dump_is_valid_shaped_json_with_escaping() {
        let recorder = FlightRecorder::new();
        recorder.note(5, "say \"hi\"\n");
        recorder.append(FlightEvent::Transition {
            at_nanos: 6,
            component: "stream".to_string(),
            from: HealthStatus::Ok,
            to: HealthStatus::Critical,
            reasons: vec!["queue-saturation: above critical".to_string()],
        });
        recorder.append(FlightEvent::Watermark {
            at_nanos: 7,
            epochs: 3,
            head_version: 9,
        });
        let dump = recorder.dump_json();
        assert!(dump.starts_with("{\"events\":["));
        assert!(dump.contains("\"text\":\"say \\\"hi\\\"\\n\""));
        assert!(dump.contains("\"from\":\"ok\",\"to\":\"critical\""));
        assert!(dump.contains("\"kind\":\"watermark\",\"at\":7,\"epochs\":3,\"head\":9"));
        assert!(dump.ends_with("\"traces_dropped\":0}"));
        // Deterministic for fixed contents.
        assert_eq!(dump, recorder.dump_json());
    }
}
