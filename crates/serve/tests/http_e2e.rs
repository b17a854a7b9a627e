//! End-to-end tests over real sockets: the served answer must be the
//! in-process answer, byte for byte where it counts (`f64::to_bits`),
//! and the edge's operational behaviour — admission 429s, health
//! flips, graceful drain — must be observable from the client side.

use evorec_adapt::{AdaptiveOptions, AdaptiveRecommender};
use evorec_core::{RecommenderConfig, ReportCache, UserId, UserProfile};
use evorec_measures::MeasureRegistry;
use evorec_obs::{Clock, LogicalClock, MetricsRegistry, MetricsSource, Tracer};
use evorec_serve::admission::AdmissionOptions;
use evorec_serve::json::{self, Json};
use evorec_serve::server::{HttpServer, ServeOptions};
use evorec_serve::wire;
use evorec_stream::{BoundedLog, EpochSink, EventLog, IngestorConfig};
use evorec_synth::workload::streamed::{replay, seeded_ingestor};
use evorec_synth::workload::{curated_kb, Workload};
use evorec_telemetry::{
    defaults::standard_rules, CollectorConfig, HealthStatus, TelemetryCollector,
};
use evorec_windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const CADENCE: u64 = 1_000;

/// The full serving stack plus a running edge.
struct Stack {
    world: Workload,
    adaptive: Arc<AdaptiveRecommender>,
    windowed: Arc<WindowedRecommender>,
    metrics: Arc<MetricsRegistry>,
    collector: Arc<TelemetryCollector>,
    tracer: Arc<Tracer>,
    clock: Arc<LogicalClock>,
    log: Arc<EventLog>,
    server: Option<HttpServer>,
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    fn scrape(&self) {
        self.clock.tick(CADENCE);
        self.collector.scrape_once();
    }
}

fn stack(tweak: impl FnOnce(&mut ServeOptions)) -> Stack {
    let world = curated_kb(40, 7);
    let (tracer, clock) = Tracer::logical();
    let tracer = Arc::new(tracer);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let mut ingestor = seeded_ingestor(&world, IngestorConfig::default());
    let origin = ingestor.head().expect("seeded history");
    let manager = Arc::new(WindowManager::new(
        ingestor.store(),
        origin,
        vec![WindowDef::new("all", WindowSpec::Landmark)],
        WindowManagerOptions {
            serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
            ..Default::default()
        },
    ));
    for batch in replay(&world) {
        ingestor.ingest_all(batch);
        if let Some(commit) = ingestor.commit_epoch() {
            manager.on_epoch(ingestor.store(), &commit);
        }
    }
    let log: Arc<EventLog> = Arc::new(BoundedLog::bounded(16));
    let metrics = Arc::new(MetricsRegistry::new());
    metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
    metrics.register_source(Arc::clone(&manager) as Arc<dyn MetricsSource>);
    metrics.register_source(Arc::clone(&log) as Arc<dyn MetricsSource>);
    let mut rules = standard_rules(CADENCE);
    rules.extend(evorec_serve::slo::edge_rules(CADENCE));
    let collector = Arc::new(TelemetryCollector::new(
        Arc::clone(&metrics),
        Arc::clone(&clock) as Arc<dyn Clock>,
        CollectorConfig::for_cadence(CADENCE).with_rules(rules),
    ));
    let windowed = Arc::new(WindowedRecommender::new(
        Arc::clone(&manager),
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
    ));
    let profiles: Vec<UserProfile> = world.population.profiles[..4].to_vec();
    let adaptive = Arc::new(AdaptiveRecommender::new(
        Arc::clone(&windowed),
        profiles,
        AdaptiveOptions {
            tracer: Some(Arc::clone(&tracer)),
            feedback_capacity: 8,
            ..Default::default()
        },
    ));
    let mut options = ServeOptions {
        tracer: Some(Arc::clone(&tracer)),
        collector: Some(Arc::clone(&collector)),
        workers: 2,
        ..Default::default()
    };
    tweak(&mut options);
    let server = HttpServer::start(
        Arc::clone(&adaptive),
        Arc::clone(&metrics),
        options,
    )
    .expect("server binds");
    Stack {
        world,
        adaptive,
        windowed,
        metrics,
        collector,
        tracer,
        clock,
        log,
        server: Some(server),
    }
}

/// A parsed response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        json::parse(self.body.as_bytes()).expect("response body is json")
    }
}

/// One request over a fresh connection (`Connection: close`).
fn call(addr: SocketAddr, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout set");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response reads");
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Reply {
    let text = std::str::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply { status, headers, body: body.to_string() }
}

fn bits(items: &[evorec_core::ScoredItem]) -> Vec<(String, u32, u64, u64, u64, u64)> {
    items
        .iter()
        .map(|s| {
            (
                s.item.measure.0.clone(),
                s.item.focus.as_u32(),
                s.item.intensity.to_bits(),
                s.relevance.to_bits(),
                s.novelty.to_bits(),
                s.objective.to_bits(),
            )
        })
        .collect()
}

#[test]
fn recommend_over_socket_is_bit_identical() {
    let stack = stack(|_| {});
    let user = stack.world.population.profiles[0].id;
    let reply = call(
        stack.addr(),
        "POST",
        "/v1/recommend",
        &[],
        &format!(r#"{{"user": {}, "window": "all"}}"#, user.0),
    );
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert!(reply.header("x-evorec-timing").is_some());
    let doc = reply.json();
    let served = wire::decode_items(&doc).expect("items decode");

    // In-process twin: NoExploration serving is the plain windowed
    // recommender over the stored profile.
    let profile = stack.adaptive.profile(user).expect("seeded profile");
    let local = stack
        .windowed
        .recommend("all", &profile)
        .expect("window exists");
    assert!(!local.items.is_empty(), "world must produce items");
    assert_eq!(bits(&served), bits(&local.items));
    assert_eq!(
        doc.get("candidates_considered").and_then(Json::as_u64),
        Some(local.candidates_considered as u64)
    );
}

#[test]
fn bulk_over_socket_matches_in_process_batch_with_per_row_status() {
    let stack = stack(|_| {});
    let users: Vec<UserId> = stack.world.population.profiles[..3]
        .iter()
        .map(|p| p.id)
        .collect();
    // Row 2 is malformed, row 4 is an unseeded user (blank profile).
    let body = format!(
        r#"{{"window": "all", "users": [{}, "bad", {{"user": {}}}, {}, 900001]}}"#,
        users[0].0, users[1].0, users[2].0
    );
    let reply = call(stack.addr(), "POST", "/v1/recommend/bulk", &[], &body);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let doc = reply.json();
    let rows = doc.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[1].get("status").and_then(Json::as_str), Some("error"));
    for ix in [0usize, 2, 3, 4] {
        assert_eq!(
            rows[ix].get("status").and_then(Json::as_str),
            Some("ok"),
            "row {ix}"
        );
    }

    // In-process twin: one `recommend` per good row against the one
    // context, profiles resolved by the single-serve rule.
    let ctx = stack.windowed.context("all").expect("window exists");
    let good = [users[0], users[1], users[2], UserId(900_001)];
    for (row, user) in [0usize, 2, 3, 4].into_iter().zip(good) {
        let profile = stack.adaptive.store().get_or_blank(user);
        let local = stack.windowed.recommender().recommend(&ctx, &profile);
        let served = wire::decode_items(&rows[row]).expect("row items");
        assert_eq!(bits(&served), bits(&local.items), "row {row}");
    }
}

#[test]
fn feedback_round_trips_into_the_profile_store() {
    let stack = stack(|_| {});
    let newcomer = UserId(424_242);
    assert!(stack.adaptive.store().get(newcomer).is_none());
    let body = r#"{"events": [
        {"user": 424242, "measure": "m:e2e", "category": "counting",
         "focus": 3, "intensity": 0.8, "reaction": "accept",
         "session": 1, "window": "all"}
    ]}"#;
    let reply = call(stack.addr(), "POST", "/v1/feedback", &[], body);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(reply.json().get("accepted").and_then(Json::as_u64), Some(1));
    // The worker applies asynchronously; sync() flushes it through.
    stack.adaptive.sync();
    let profile = stack
        .adaptive
        .store()
        .get(newcomer)
        .expect("feedback created the profile");
    assert_eq!(profile.id, newcomer);
}

#[test]
fn feedback_backpressure_answers_429_with_partial_accept() {
    let stack = stack(|_| {});
    // Fill the capacity-8 feedback log directly so the edge's pushes
    // meet a full queue (the worker may drain some; eventually the
    // strict batch cannot fully land).
    let mk = |i: u32| {
        format!(
            r#"{{"user": {i}, "measure": "m:bp", "category": "counting",
                "focus": 1, "intensity": 0.1, "reaction": "dwell"}}"#
        )
    };
    // One oversized batch: 64 events against a capacity-8 log. The
    // worker drains micro-batches, but the strict bound is the log
    // capacity, so either the batch lands (drained fast) or we see a
    // 429 with partial accept — loop until the 429 shows up.
    let mut saw_backpressure = false;
    for _ in 0..50 {
        let events: Vec<String> = (0..64).map(mk).collect();
        let body = format!(r#"{{"events": [{}]}}"#, events.join(","));
        let reply = call(stack.addr(), "POST", "/v1/feedback", &[], &body);
        match reply.status {
            200 => continue,
            429 => {
                assert_eq!(reply.header("retry-after"), Some("1"));
                let doc = reply.json();
                let accepted = doc.get("accepted").and_then(Json::as_u64).expect("accepted");
                let rejected = doc.get("rejected").and_then(Json::as_u64).expect("rejected");
                assert_eq!(accepted + rejected, 64);
                assert!(rejected > 0);
                saw_backpressure = true;
                break;
            }
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert!(saw_backpressure, "capacity-8 log never pushed back on 64-event batches");
}

#[test]
fn tenant_rate_limit_answers_429_with_retry_after() {
    // Logical server clock: buckets only refill when we tick.
    let clock = Arc::new(LogicalClock::new());
    let clock2 = Arc::<LogicalClock>::clone(&clock);
    let stack = stack(move |o| {
        o.admission = AdmissionOptions {
            max_in_flight: 64,
            rate_per_sec: 1.0,
            burst: 2.0,
        };
        o.clock = Some(clock2);
    });
    let user = stack.world.population.profiles[0].id;
    let body = format!(r#"{{"user": {}, "window": "all"}}"#, user.0);
    let tenant: [(&str, &str); 1] = [("X-Evorec-Tenant", "acme")];
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &tenant, &body).status, 200);
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &tenant, &body).status, 200);
    let limited = call(stack.addr(), "POST", "/v1/recommend", &tenant, &body);
    assert_eq!(limited.status, 429);
    assert!(limited.header("retry-after").is_some());
    // Another tenant still gets through.
    let other: [(&str, &str); 1] = [("X-Evorec-Tenant", "zenith")];
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &other, &body).status, 200);
    // Refill restores service for the limited tenant.
    clock.tick(2_000_000_000);
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &tenant, &body).status, 200);
    // Ops endpoints bypass admission even when a tenant is limited.
    assert_eq!(call(stack.addr(), "GET", "/health", &tenant, "").status, 200);
}

#[test]
fn saturated_in_flight_cap_answers_429() {
    let stack = stack(|o| {
        o.admission = AdmissionOptions {
            max_in_flight: 0,
            ..Default::default()
        };
    });
    let reply = call(
        stack.addr(),
        "POST",
        "/v1/recommend",
        &[],
        r#"{"user": 1, "window": "all"}"#,
    );
    assert_eq!(reply.status, 429);
    assert_eq!(reply.header("retry-after"), Some("1"));
    // But /metrics still answers, and reports the rejection.
    let metrics = call(stack.addr(), "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("evorec_serve_admission_rejections_total{reason=\"saturated\"} 1"));
}

/// Overload at the door answers 429, never a transport error. The one
/// worker is held on a keep-alive connection it has already answered
/// and the one queue slot is taken, so the next connection is shed —
/// deterministically, since the acceptor takes connections in order
/// and the held worker never pops.
#[test]
fn full_dispatch_queue_sheds_with_429_at_the_door() {
    let stack = stack(|o| {
        o.workers = 1;
        o.queue_capacity = 1;
    });
    let addr = stack.addr();
    let health = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut held = TcpStream::connect(addr).expect("connects");
    held.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    held.write_all(health).expect("writes");
    assert_eq!(read_keep_alive_reply(&mut held).status, 200);

    let mut queued = TcpStream::connect(addr).expect("connects");
    queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    queued
        .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("writes");

    let shed = call(addr, "GET", "/health", &[], "");
    assert_eq!(shed.status, 429, "body: {}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));

    held.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("writes");
    let metrics = read_keep_alive_reply(&mut held);
    assert!(
        metrics
            .body
            .contains("evorec_serve_admission_rejections_total{reason=\"queue\"} 1"),
        "{}",
        metrics.body
    );

    // Closing the held connection frees the worker for the queued one.
    drop(held);
    let mut raw = Vec::new();
    queued.read_to_end(&mut raw).expect("queued reply reads");
    assert_eq!(parse_reply(&raw).status, 200);
}

#[test]
fn health_flips_200_503_200_across_queue_saturation() {
    let stack = stack(|_| {});
    // Warm: a few clean scrapes.
    for _ in 0..3 {
        stack.scrape();
    }
    let ok = call(stack.addr(), "GET", "/health", &[], "");
    assert_eq!(ok.status, 200);
    assert_eq!(ok.json().get("overall").and_then(Json::as_str), Some("ok"));

    // Saturate the ingest queue and burn both SLO windows.
    let events: Vec<_> = replay(&stack.world).into_iter().flatten().collect();
    for _ in 0..16 {
        let _ = stack.log.push(events[0].clone());
    }
    for _ in 0..13 {
        stack.scrape();
    }
    assert_eq!(
        stack.collector.last_report().expect("scraped").overall(),
        HealthStatus::Critical
    );
    let sick = call(stack.addr(), "GET", "/health", &[], "");
    assert_eq!(sick.status, 503, "body: {}", sick.body);
    let doc = sick.json();
    assert_eq!(doc.get("overall").and_then(Json::as_str), Some("critical"));

    // Drain and recover (clear_after = 2 hysteresis).
    let _ = stack.log.pop_batch(16);
    for _ in 0..13 {
        stack.scrape();
    }
    let healed = call(stack.addr(), "GET", "/health", &[], "");
    assert_eq!(healed.status, 200, "body: {}", healed.body);
}

#[test]
fn malformed_requests_get_4xx_never_5xx() {
    let stack = stack(|_| {});
    let addr = stack.addr();
    for (body, want) in [
        ("", 400),
        ("{", 400),
        ("[1,2", 400),
        (r#"{"user": "seven", "window": "all"}"#, 400),
        (r#"{"user": 7}"#, 400),
        (r#"{"user": 7, "window": "nope"}"#, 404),
    ] {
        let reply = call(addr, "POST", "/v1/recommend", &[], body);
        assert_eq!(reply.status, want, "body {body:?} → {}", reply.body);
    }
    assert_eq!(call(addr, "GET", "/v1/recommend", &[], "").status, 405);
    assert_eq!(call(addr, "POST", "/health", &[], "").status, 405);
    assert_eq!(call(addr, "GET", "/nope", &[], "").status, 404);
    // Raw garbage on the socket: clean 400, no hang, no panic.
    let mut raw = TcpStream::connect(addr).expect("connects");
    raw.write_all(b"NOT HTTP AT ALL\r\n\r\n").expect("writes");
    let mut out = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    raw.read_to_end(&mut out).expect("reads");
    assert_eq!(parse_reply(&out).status, 400);
}

/// A body over the cap is refused unread; the 413 must still read
/// cleanly to EOF rather than end in a connection reset.
#[test]
fn oversized_body_answers_413_readably() {
    let stack = stack(|_| {});
    let mut stream = TcpStream::connect(stack.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // Head plus the first 16 KiB of a declared 2 MB body, in one write,
    // so the edge has bytes left unread when it answers.
    let mut req =
        b"POST /v1/recommend HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n".to_vec();
    req.extend(std::iter::repeat_n(b'x', 16 * 1024));
    stream.write_all(&req).expect("writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("413 reads to EOF");
    assert_eq!(parse_reply(&raw).status, 413);
}

#[test]
fn trace_endpoint_exposes_the_request_span_tree() {
    let stack = stack(|_| {});
    let user = stack.world.population.profiles[0].id;
    let body = format!(r#"{{"user": {}, "window": "all"}}"#, user.0);
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &[], &body).status, 200);
    let reply = call(stack.addr(), "GET", "/v1/trace/last", &[], "");
    assert_eq!(reply.status, 200);
    let names: Vec<String> = reply
        .json()
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert!(names.contains(&"http_request".to_string()), "names: {names:?}");
    assert!(names.contains(&"serve".to_string()), "names: {names:?}");
    // The engine's serve span is *nested* under the request span.
    let spans = reply.json();
    let spans = spans.get("spans").and_then(Json::as_arr).expect("spans").to_vec();
    let root_id = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("http_request"))
        .and_then(|s| s.get("id").and_then(Json::as_u64))
        .expect("root id");
    let serve_parent = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("serve"))
        .and_then(|s| s.get("parent").and_then(Json::as_u64))
        .expect("serve parent");
    assert_eq!(serve_parent, root_id);
    let _ = &stack.tracer;
}

#[test]
fn metrics_endpoint_carries_edge_series() {
    let stack = stack(|_| {});
    let user = stack.world.population.profiles[0].id;
    let body = format!(r#"{{"user": {}, "window": "all"}}"#, user.0);
    assert_eq!(call(stack.addr(), "POST", "/v1/recommend", &[], &body).status, 200);
    let reply = call(stack.addr(), "GET", "/metrics", &[], "");
    assert_eq!(reply.status, 200);
    for series in [
        "evorec_serve_requests_total{class=\"2xx\",endpoint=\"recommend\"} 1",
        "evorec_serve_request_nanos_count{endpoint=\"recommend\"} 1",
        "evorec_serve_queue_capacity 64",
        "evorec_serve_in_flight",
        "evorec_cache_",
    ] {
        assert!(reply.body.contains(series), "missing {series} in:\n{}", reply.body);
    }
    let _ = &stack.metrics;
}

/// `queue_capacity: 0` is clamped to a one-slot queue, and the
/// capacity gauge must say so: the edge's saturation SLO divides depth
/// by it.
#[test]
fn clamped_queue_capacity_is_what_metrics_report() {
    let stack = stack(|o| o.queue_capacity = 0);
    let reply = call(stack.addr(), "GET", "/metrics", &[], "");
    assert_eq!(reply.status, 200);
    assert!(
        reply.body.contains("evorec_serve_queue_capacity 1\n"),
        "{}",
        reply.body
    );
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let stack = stack(|_| {});
    let user = stack.world.population.profiles[0].id;
    let mut stream = TcpStream::connect(stack.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let body = format!(r#"{{"user": {}, "window": "all"}}"#, user.0);
    let mut first_body = None;
    for round in 0..3 {
        let req = format!(
            "POST /v1/recommend HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("writes");
        let reply = read_keep_alive_reply(&mut stream);
        assert_eq!(reply.status, 200, "round {round}");
        match &first_body {
            None => first_body = Some(reply.body),
            // Deterministic engine + same profile → byte-identical.
            Some(prev) => assert_eq!(&reply.body, prev, "round {round}"),
        }
    }
}

/// Read one `Content-Length`-framed response off a keep-alive stream.
fn read_keep_alive_reply(stream: &mut TcpStream) -> Reply {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("reads");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf8 head");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .expect("content-length header");
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk).expect("reads");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    parse_reply(&buf[..total])
}

#[test]
fn graceful_shutdown_drains_and_flushes_feedback() {
    let mut stack = stack(|_| {});
    let newcomer = UserId(777_777);
    let body = r#"{"events": [
        {"user": 777777, "measure": "m:drain", "category": "counting",
         "focus": 2, "intensity": 0.4, "reaction": "accept"}
    ]}"#;
    let addr = stack.addr();
    assert_eq!(call(addr, "POST", "/v1/feedback", &[], body).status, 200);
    let server = stack.server.take().expect("running");
    server.shutdown();
    // Shutdown flushed the adapt worker: the feedback is applied
    // without any explicit sync() here.
    let profile = stack
        .adaptive
        .store()
        .get(newcomer)
        .expect("feedback applied during shutdown");
    assert_eq!(profile.id, newcomer);
    // The port no longer accepts new work.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(refused.is_err(), "listener must be gone after shutdown");
    // Shutdown's wake connection was neither counted nor served.
    let snapshot = stack.metrics.snapshot();
    assert_eq!(snapshot.value("evorec_serve_connections_total"), Some(1));
}
