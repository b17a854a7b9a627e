//! The serving edge proper: a blocking acceptor, a worker pool over a
//! [`BoundedLog`] of connections, and the route table fronting an
//! [`AdaptiveRecommender`].
//!
//! Request lifecycle:
//!
//! 1. The acceptor blocks in `accept()` and `try_push`es each
//!    connection onto the bounded dispatch queue — a full queue
//!    answers 429 immediately (load-shedding at the door, never an
//!    unbounded backlog).
//! 2. A worker pops the connection and serves requests off it
//!    (keep-alive) until the peer hangs up, an error closes it, or
//!    shutdown begins.
//! 3. Each `/v1/*` POST passes the [`AdmissionController`] (global
//!    in-flight cap, then the tenant's token bucket, keyed on
//!    `X-Evorec-Tenant`) before any engine work; rejections carry
//!    `Retry-After`.
//! 4. Every request opens an `http_request` span (when a tracer is
//!    wired) that parents the engine's own `serve` span, and answers
//!    with an `X-Evorec-Timing` header.
//!
//! Every connection the edge closes is half-closed first, so a client
//! whose request was refused unread (a 429 at the door, a 413) reads
//! the answer to EOF instead of a reset.
//!
//! Shutdown is a drain, not a drop: the acceptor is woken by one
//! connection to its own address and stops, the queue closes, workers
//! finish queued and in-flight requests, and the adapt worker is
//! flushed with [`AdaptiveRecommender::sync`] so feedback accepted
//! before the stop is applied before the stop returns.

use crate::admission::{AdmissionController, AdmissionDecision, AdmissionOptions};
use crate::http::{ConnReader, ReadError, Request, Response};
use crate::json;
use crate::stats::{Endpoint, ServerStats};
use crate::wire;
use evorec_adapt::AdaptiveRecommender;
use evorec_obs::{span, trace_json, Clock, MetricsRegistry, MonotonicClock, SpanHandle, Tracer};
use evorec_stream::{BoundedLog, TryPushError};
use evorec_telemetry::{HealthStatus, TelemetryCollector};
use sched::sync::atomic::{AtomicBool, Ordering};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration. `Default` binds an ephemeral loopback port
/// with a small pool and permissive admission.
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Dispatch-queue capacity (connections waiting for a worker).
    pub queue_capacity: usize,
    /// Admission limits.
    pub admission: AdmissionOptions,
    /// Socket read timeout — also the poll cadence for idle
    /// keep-alive connections, so it bounds how long shutdown waits
    /// for an idle one.
    pub read_timeout: Duration,
    /// Time source for latencies, timing headers, and token buckets.
    /// `None` = a fresh [`MonotonicClock`].
    pub clock: Option<Arc<dyn Clock>>,
    /// Span tracer for per-request breakdowns (`/v1/trace/last`).
    pub tracer: Option<Arc<Tracer>>,
    /// Health source for `/health`.
    pub collector: Option<Arc<TelemetryCollector>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            admission: AdmissionOptions::default(),
            read_timeout: Duration::from_millis(25),
            clock: None,
            tracer: None,
            collector: None,
        }
    }
}

/// How long shutdown's wake connection may take to reach the acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The acceptor's pause after an accept error other than `Interrupted`
/// (descriptor or buffer exhaustion), so a persistent error cannot
/// spin a core. Shutdown waits out at most one.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

struct EdgeCore {
    adaptive: Arc<AdaptiveRecommender>,
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    collector: Option<Arc<TelemetryCollector>>,
    clock: Arc<dyn Clock>,
    admission: Arc<AdmissionController>,
    stats: Arc<ServerStats>,
    queue: Arc<BoundedLog<TcpStream>>,
    stopping: AtomicBool,
    read_timeout: Duration,
}

impl EdgeCore {
    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }
}

/// The running server. Bind with [`start`](HttpServer::start), stop
/// with [`shutdown`](HttpServer::shutdown) (dropping it also shuts
/// down, quietly).
pub struct HttpServer {
    core: Arc<EdgeCore>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl HttpServer {
    /// Bind, register the edge's [`ServerStats`] on `registry`, and
    /// spawn the acceptor + worker pool.
    pub fn start(
        adaptive: Arc<AdaptiveRecommender>,
        registry: Arc<MetricsRegistry>,
        options: ServeOptions,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(&options.addr)?;
        let addr = listener.local_addr()?;
        let clock: Arc<dyn Clock> = match options.clock {
            Some(c) => c,
            None => Arc::new(MonotonicClock::new()),
        };
        let admission = AdmissionController::new(options.admission, Arc::clone(&clock));
        let queue = Arc::new(BoundedLog::bounded(options.queue_capacity));
        let stats = Arc::new(ServerStats::new(Arc::clone(&admission), Arc::clone(&queue)));
        registry.register_source(Arc::clone(&stats) as Arc<dyn evorec_obs::MetricsSource>);
        let core = Arc::new(EdgeCore {
            adaptive,
            registry,
            tracer: options.tracer,
            collector: options.collector,
            clock,
            admission,
            stats,
            queue,
            stopping: AtomicBool::new(false),
            read_timeout: options.read_timeout,
        });
        let acceptor = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || accept_loop(&core, listener))
        };
        let workers = (0..options.workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        Ok(HttpServer { core, acceptor: Some(acceptor), workers, addr })
    }

    /// The bound address (with the real port when `addr` asked for an
    /// ephemeral one).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The edge's metrics source (already registered on the registry
    /// passed to [`start`](HttpServer::start)).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.core.stats)
    }

    /// Graceful stop: no new connections, queued and in-flight
    /// requests finish, the adapt worker is flushed.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.core.stopping.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is blocked in accept(): one connection to
            // its own address wakes it to see `stopping`.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
            let _ = acceptor.join();
        }
        self.core.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Feedback accepted before the stop is in the profiles after it.
        self.core.adaptive.sync();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(core: &EdgeCore, listener: TcpListener) {
    while !core.is_stopping() {
        match listener.accept() {
            // Checked before counting or queueing, so shutdown's wake
            // connection is never counted or served.
            Ok(_) if core.is_stopping() => break,
            Ok((stream, _peer)) => {
                core.stats.connection_accepted();
                let _ = stream.set_read_timeout(Some(core.read_timeout));
                let _ = stream.set_nodelay(true);
                match core.queue.try_push(stream) {
                    Ok(()) => {}
                    Err(TryPushError::Full(stream)) => {
                        core.stats.queue_rejected();
                        shed(core, stream);
                    }
                    Err(TryPushError::Closed(_)) => break,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::park_timeout(ACCEPT_BACKOFF),
        }
    }
}

/// Answer a connection the queue would not take: one 429 and close.
/// Counted as an admission rejection, never a 5xx — overload is the
/// client's signal to back off, not a server error.
fn shed(core: &EdgeCore, mut stream: TcpStream) {
    let resp = Response::error(429, "dispatch queue full")
        .with_header("Retry-After", "1");
    let _ = resp.write_to(&mut stream, false);
    // Half-close: the request is still unread, and a plain close would
    // reset the connection under the client's read of this answer.
    let _ = stream.shutdown(Shutdown::Write);
    core.stats.record(Endpoint::Other, 429, 0);
}

fn worker_loop(core: &EdgeCore) {
    while let Some(mut stream) = core.queue.pop_batch(1).pop() {
        if core.is_stopping() {
            core.stats.drained_on_shutdown();
        }
        serve_connection(core, &mut stream);
        // As in `shed`: an error answer may leave the request unread.
        let _ = stream.shutdown(Shutdown::Write);
    }
}

fn serve_connection(core: &EdgeCore, stream: &mut TcpStream) {
    let mut reader = ConnReader::new();
    loop {
        match reader.read_request(stream) {
            Ok(req) => {
                let keep = req.keep_alive() && !core.is_stopping();
                let resp = respond(core, &req);
                if resp.write_to(stream, keep).is_err() || !keep {
                    break;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => break,
            Err(ReadError::Idle) => {
                if core.is_stopping() {
                    break;
                }
            }
            Err(ReadError::Stalled) => {
                answer_read_error(core, stream, 408, "request timed out");
                break;
            }
            Err(ReadError::TooLarge(what)) => {
                let status = if what == "request body" { 413 } else { 431 };
                answer_read_error(core, stream, status, what);
                break;
            }
            Err(ReadError::Malformed(what)) => {
                answer_read_error(core, stream, 400, what);
                break;
            }
        }
    }
}

fn answer_read_error(core: &EdgeCore, stream: &mut TcpStream, status: u16, message: &str) {
    let _ = Response::error(status, message).write_to(stream, false);
    core.stats.record(Endpoint::Other, status, 0);
}

fn classify(req: &Request) -> (Endpoint, bool) {
    // (endpoint, method_matches)
    match req.path.as_str() {
        "/v1/recommend" => (Endpoint::Recommend, req.method == "POST"),
        "/v1/recommend/bulk" => (Endpoint::Bulk, req.method == "POST"),
        "/v1/feedback" => (Endpoint::Feedback, req.method == "POST"),
        "/health" => (Endpoint::Health, req.method == "GET"),
        "/metrics" => (Endpoint::Metrics, req.method == "GET"),
        "/v1/trace/last" => (Endpoint::Trace, req.method == "GET"),
        _ => (Endpoint::Other, false),
    }
}

fn respond(core: &EdgeCore, req: &Request) -> Response {
    let started = core.clock.now_nanos();
    let tracer = core.tracer.as_deref();
    let root = span(tracer, "http_request", SpanHandle::NONE);
    let (endpoint, method_ok) = classify(req);
    let resp = if endpoint == Endpoint::Other {
        Response::error(404, "no such endpoint")
    } else if !method_ok {
        let allow = if endpoint == Endpoint::Health
            || endpoint == Endpoint::Metrics
            || endpoint == Endpoint::Trace
        {
            "GET"
        } else {
            "POST"
        };
        Response::error(405, "method not allowed").with_header("Allow", allow)
    } else {
        dispatch(core, req, endpoint, root.handle())
    };
    root.finish();
    let total = core.clock.now_nanos().saturating_sub(started);
    core.stats.record(endpoint, resp.status, total);
    resp.with_header(
        "X-Evorec-Timing",
        format!("endpoint={};total={}ns", endpoint.label(), total),
    )
}

fn dispatch(core: &EdgeCore, req: &Request, endpoint: Endpoint, parent: SpanHandle) -> Response {
    match endpoint {
        // Ops endpoints bypass admission: they must answer *because*
        // the edge is overloaded, not only when it is idle.
        Endpoint::Health => handle_health(core),
        Endpoint::Metrics => handle_metrics(core),
        Endpoint::Trace => handle_trace(core),
        _ => {
            let tenant = req.header("x-evorec-tenant").unwrap_or("anon");
            match core.admission.admit(tenant) {
                AdmissionDecision::Saturated => Response::error(429, "in-flight cap reached")
                    .with_header("Retry-After", "1"),
                AdmissionDecision::RateLimited { retry_after_secs } => {
                    Response::error(429, "tenant rate limit exceeded")
                        .with_header("Retry-After", retry_after_secs.to_string())
                }
                AdmissionDecision::Admitted(_permit) => match endpoint {
                    Endpoint::Recommend => handle_recommend(core, &req.body, parent),
                    Endpoint::Bulk => handle_bulk(core, &req.body, parent),
                    Endpoint::Feedback => handle_feedback(core, &req.body, parent),
                    // classify() never sends ops endpoints here.
                    _ => Response::error(404, "no such endpoint"),
                },
            }
        }
    }
}

fn parse_body(core: &EdgeCore, body: &[u8], parent: SpanHandle) -> Result<json::Json, Response> {
    let tracer = core.tracer.as_deref();
    let guard = span(tracer, "http_parse", parent);
    let doc = json::parse(body)
        .map_err(|e| Response::error(400, &format!("malformed json: {e}")));
    guard.finish();
    doc
}

fn handle_recommend(core: &EdgeCore, body: &[u8], parent: SpanHandle) -> Response {
    let doc = match parse_body(core, body, parent) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let req = match wire::decode_recommend(&doc) {
        Ok(req) => req,
        Err(e) => return Response::error(400, &format!("invalid request: {e}")),
    };
    match core.adaptive.serve_with_parent(&req.window, req.user, parent) {
        Some(rec) => {
            let mut body = String::new();
            wire::encode_recommendation(req.user, &req.window, &rec, &mut body);
            Response::json(200, body)
        }
        None => Response::error(404, &format!("unknown window '{}'", req.window)),
    }
}

fn handle_bulk(core: &EdgeCore, body: &[u8], parent: SpanHandle) -> Response {
    let doc = match parse_body(core, body, parent) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let req = match wire::decode_bulk(&doc) {
        Ok(req) => req,
        Err(e) => return Response::error(400, &format!("invalid request: {e}")),
    };
    let windowed = core.adaptive.windowed();
    let Some(ctx) = windowed.context(&req.window) else {
        return Response::error(404, &format!("unknown window '{}'", req.window));
    };
    // Each row is answered as `recommend` answers its user alone, on
    // this worker thread: the one context read above, the profile
    // resolved by the single-serve rule, no exploration boost.
    let recommender = windowed.recommender();
    let store = core.adaptive.store();
    let tracer = core.tracer.as_deref();
    let guard = span(tracer, "bulk_fanout", parent);
    let rows = guard.handle();
    let answers: Vec<_> = req
        .rows
        .iter()
        .map(|row| {
            row.as_ref().map(|&user| {
                let profile = store.get_or_blank(user);
                (user, recommender.recommend_observed(&ctx, &profile, None, tracer, rows))
            })
        })
        .collect();
    guard.finish();
    let mut out = String::from("{\"window\":");
    json::push_str_lit(&req.window, &mut out);
    out.push_str(",\"results\":[");
    for (i, answer) in answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match answer {
            Ok((user, rec)) => wire::encode_recommendation(*user, &req.window, rec, &mut out),
            Err(e) => wire::encode_row_error(e, &mut out),
        }
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn handle_feedback(core: &EdgeCore, body: &[u8], parent: SpanHandle) -> Response {
    let doc = match parse_body(core, body, parent) {
        Ok(doc) => doc,
        Err(resp) => return resp,
    };
    let events = match wire::decode_feedback(&doc) {
        Ok(events) => events,
        Err(e) => return Response::error(400, &format!("invalid request: {e}")),
    };
    let tracer = core.tracer.as_deref();
    let guard = span(tracer, "feedback_ingest", parent);
    let total = events.len();
    let mut accepted = 0usize;
    let mut outcome = None;
    for event in events {
        match core.adaptive.try_observe(event) {
            Ok(()) => accepted += 1,
            Err(TryPushError::Full(_)) => {
                // Backpressure: report how far we got and ask the
                // client to retry the rest.
                outcome = Some(
                    Response::json(
                        429,
                        format!(
                            "{{\"accepted\":{accepted},\"rejected\":{},\"error\":\"feedback log full\"}}",
                            total - accepted
                        ),
                    )
                    .with_header("Retry-After", "1"),
                );
                break;
            }
            Err(TryPushError::Closed(_)) => {
                outcome = Some(Response::error(503, "feedback log closed"));
                break;
            }
        }
    }
    guard.finish();
    match outcome {
        Some(resp) => resp,
        None => Response::json(200, format!("{{\"accepted\":{accepted}}}")),
    }
}

fn handle_health(core: &EdgeCore) -> Response {
    match core.collector.as_ref().and_then(|c| c.last_report()) {
        Some(report) => {
            let status = if report.overall() == HealthStatus::Critical {
                503
            } else {
                200
            };
            Response::json(status, report.render_json())
        }
        None => Response::json(200, "{\"overall\":\"ok\",\"components\":{}}"),
    }
}

fn handle_metrics(core: &EdgeCore) -> Response {
    Response::text(200, core.registry.snapshot().render_prometheus())
}

fn handle_trace(core: &EdgeCore) -> Response {
    match core.tracer.as_ref() {
        Some(tracer) => Response::json(200, trace_json(&tracer.last_trace())),
        None => Response::json(200, "{\"spans\":[]}"),
    }
}
