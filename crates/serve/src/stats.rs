//! `ServerStats` — the serving edge's [`MetricsSource`].
//!
//! One fixed-shape table of atomics and histograms: request counts by
//! (endpoint, status class), per-endpoint latency summaries, admission
//! rejection counters, connection tallies, and live gauges for queue
//! depth and in-flight requests. Pull-model like every other source in
//! the workspace: `collect` reads the atomics, and the dispatch queue
//! itself, at snapshot time, so the request path never touches the
//! registry.

use crate::admission::AdmissionController;
use evorec_obs::{push_summary, Histogram, MetricsSource, Sample};
use evorec_stream::BoundedLog;
use sched::sync::atomic::{AtomicU64, Ordering};
use std::net::TcpStream;
use std::sync::Arc;

/// The edge's route set (plus a catch-all for 404/405 traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/recommend`.
    Recommend,
    /// `POST /v1/recommend/bulk`.
    Bulk,
    /// `POST /v1/feedback`.
    Feedback,
    /// `GET /health`.
    Health,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/trace/last`.
    Trace,
    /// Anything else (unknown path or method).
    Other,
}

impl Endpoint {
    /// All endpoints, in exposition order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Recommend,
        Endpoint::Bulk,
        Endpoint::Feedback,
        Endpoint::Health,
        Endpoint::Metrics,
        Endpoint::Trace,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Recommend => "recommend",
            Endpoint::Bulk => "bulk",
            Endpoint::Feedback => "feedback",
            Endpoint::Health => "health",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Recommend => 0,
            Endpoint::Bulk => 1,
            Endpoint::Feedback => 2,
            Endpoint::Health => 3,
            Endpoint::Metrics => 4,
            Endpoint::Trace => 5,
            Endpoint::Other => 6,
        }
    }
}

const CLASSES: [&str; 3] = ["2xx", "4xx", "5xx"];

fn class_index(status: u16) -> usize {
    match status {
        200..=299 => 0,
        500..=599 => 2,
        _ => 1,
    }
}

#[derive(Default)]
struct EndpointCell {
    by_class: [AtomicU64; 3],
}

/// The counter table. Constructed once per server; every worker
/// records through `&self`.
pub struct ServerStats {
    requests: [EndpointCell; 7],
    latency: [Histogram; 7],
    connections_accepted: AtomicU64,
    queue_rejected: AtomicU64,
    drained_on_shutdown: AtomicU64,
    admission: Arc<AdmissionController>,
    queue: Arc<BoundedLog<TcpStream>>,
}

impl ServerStats {
    /// A zeroed table reporting `admission`'s counters and the dispatch
    /// `queue`'s depth and capacity alongside its own.
    pub fn new(
        admission: Arc<AdmissionController>,
        queue: Arc<BoundedLog<TcpStream>>,
    ) -> ServerStats {
        ServerStats {
            requests: Default::default(),
            latency: std::array::from_fn(|_| Histogram::default()),
            connections_accepted: AtomicU64::new(0),
            queue_rejected: AtomicU64::new(0),
            drained_on_shutdown: AtomicU64::new(0),
            admission,
            queue,
        }
    }

    /// Record one finished request.
    pub fn record(&self, endpoint: Endpoint, status: u16, nanos: u64) {
        let i = endpoint.index();
        if let Some(cell) = self.requests.get(i) {
            if let Some(c) = cell.by_class.get(class_index(status)) {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(h) = self.latency.get(i) {
            h.record(nanos);
        }
    }

    /// One accepted TCP connection.
    pub fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection refused because the dispatch queue was full.
    pub fn queue_rejected(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One queued connection served after shutdown began (the drain
    /// guarantee, made countable).
    pub fn drained_on_shutdown(&self) {
        self.drained_on_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests recorded for `endpoint` with the given status
    /// class index implied by `status`.
    pub fn requests_for(&self, endpoint: Endpoint, status: u16) -> u64 {
        self.requests
            .get(endpoint.index())
            .and_then(|cell| cell.by_class.get(class_index(status)))
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Total requests across every endpoint and class.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .flat_map(|cell| cell.by_class.iter())
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

impl MetricsSource for ServerStats {
    fn collect(&self, out: &mut Vec<Sample>) {
        for endpoint in Endpoint::ALL {
            let i = endpoint.index();
            let Some(cell) = self.requests.get(i) else { continue };
            for (class, counter) in CLASSES.iter().zip(cell.by_class.iter()) {
                let n = counter.load(Ordering::Relaxed);
                if n > 0 {
                    out.push(
                        Sample::counter("evorec_serve_requests_total", n)
                            .with_label("class", class)
                            .with_label("endpoint", endpoint.label()),
                    );
                }
            }
            if let Some(h) = self.latency.get(i) {
                let snap = h.snapshot();
                if snap.count > 0 {
                    push_summary(
                        out,
                        "evorec_serve_request_nanos",
                        &[("endpoint".to_string(), endpoint.label().to_string())],
                        &snap,
                    );
                }
            }
        }
        let admission = self.admission.counters();
        out.push(Sample::counter(
            "evorec_serve_connections_total",
            self.connections_accepted.load(Ordering::Relaxed),
        ));
        for (reason, n) in [
            ("saturated", admission.rejected_saturated),
            ("rate", admission.rejected_rate_limited),
            ("queue", self.queue_rejected.load(Ordering::Relaxed)),
        ] {
            out.push(
                Sample::counter("evorec_serve_admission_rejections_total", n)
                    .with_label("reason", reason),
            );
        }
        out.push(Sample::gauge("evorec_serve_in_flight", admission.in_flight));
        out.push(Sample::gauge("evorec_serve_queue_depth", self.queue.len() as u64));
        out.push(Sample::gauge(
            "evorec_serve_queue_capacity",
            self.queue.capacity() as u64,
        ));
        out.push(Sample::counter(
            "evorec_serve_drained_total",
            self.drained_on_shutdown.load(Ordering::Relaxed),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionOptions;
    use evorec_obs::{LogicalClock, MetricsRegistry};
    use std::net::TcpListener;

    fn stats(queue: Arc<BoundedLog<TcpStream>>) -> Arc<ServerStats> {
        let admission =
            AdmissionController::new(AdmissionOptions::default(), Arc::new(LogicalClock::new()));
        Arc::new(ServerStats::new(admission, queue))
    }

    #[test]
    fn records_by_endpoint_and_class() {
        let s = stats(Arc::new(BoundedLog::bounded(64)));
        s.record(Endpoint::Recommend, 200, 1_000);
        s.record(Endpoint::Recommend, 200, 2_000);
        s.record(Endpoint::Recommend, 404, 500);
        s.record(Endpoint::Feedback, 503, 100);
        assert_eq!(s.requests_for(Endpoint::Recommend, 200), 2);
        assert_eq!(s.requests_for(Endpoint::Recommend, 400), 1);
        assert_eq!(s.requests_for(Endpoint::Feedback, 500), 1);
        assert_eq!(s.total_requests(), 4);
    }

    #[test]
    fn renders_through_the_registry() {
        let queue = Arc::new(BoundedLog::bounded(64));
        let s = stats(Arc::clone(&queue));
        s.record(Endpoint::Bulk, 200, 5_000);
        // Three connections waiting for a worker.
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        for _ in 0..3 {
            let conn = TcpStream::connect(addr).expect("connects");
            queue.try_push(conn).expect("queue has room");
        }
        s.connection_accepted();
        let reg = MetricsRegistry::new();
        reg.register_source(s);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains(
            "evorec_serve_requests_total{class=\"2xx\",endpoint=\"bulk\"} 1"
        ));
        assert!(text.contains("evorec_serve_request_nanos_count{endpoint=\"bulk\"} 1"));
        assert!(text.contains("evorec_serve_queue_depth 3"));
        assert!(text.contains("evorec_serve_connections_total 1"));
        assert!(text
            .contains("evorec_serve_admission_rejections_total{reason=\"queue\"} 0"));
    }
}
