//! Closed-loop load generator for the HTTP serving edge.
//!
//! Boots the full stack (ingestion → windows → adaptive engine) behind
//! a real `HttpServer` on an ephemeral loopback port, then drives it
//! with N closed-loop client threads issuing a deterministic mix of
//! recommend / bulk / feedback traffic (one request in flight per
//! client; the next request starts when the previous response lands).
//! The traffic mix is drawn from a seeded generator, so two runs with
//! the same flags issue the same request sequence.
//!
//! Two phases:
//!
//! 1. **steady** — permissive admission; everything should answer 2xx
//!    (feedback may see occasional 429 backpressure, which is correct
//!    behaviour, not an error).
//! 2. **overload** — a second edge over the same engine with a tight
//!    shared-tenant token bucket; the generator hammers it and expects
//!    admission-controlled 429s with `Retry-After`, and **zero 5xx**.
//!
//! Prints a per-endpoint latency/status table (p50/p99/throughput),
//! the steady phase's interest-expansion memo hits and misses, and one
//! machine-readable JSON summary line, then exits non-zero if
//! any 5xx was observed or the overload phase produced no 429s.
//!
//! Run with: `cargo run --release --example load_gen`
//! Flags: `--clients N` (threads, default 4),
//!        `--requests M` (requests per client per phase, default 60),
//!        `--seed S` (traffic-mix seed, default 7).

use evorec::adapt::{AdaptiveOptions, AdaptiveRecommender};
use evorec::core::{RecommenderConfig, ReportCache, UserId, UserProfile};
use evorec::measures::MeasureRegistry;
use evorec::obs::{MetricsRegistry, MetricsSource};
use evorec::serve::{AdmissionOptions, HttpServer, ServeOptions};
use evorec::stream::{EpochSink, IngestorConfig};
use evorec::synth::workload::streamed::{replay, seeded_ingestor};
use evorec::synth::workload::{curated_kb, Workload};
use evorec::windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished request, as the client saw it.
struct Outcome {
    endpoint: &'static str,
    status: u16,
    nanos: u64,
}

/// Aggregated per-endpoint row of the report table.
#[derive(Default)]
struct Row {
    count: u64,
    ok_2xx: u64,
    other_4xx: u64,
    throttled_429: u64,
    failed_5xx: u64,
    latencies: Vec<u64>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[ix.min(sorted.len() - 1)]
}

/// Issue one request on a fresh connection and read the whole reply
/// (`Connection: close` framing), returning the status code.
fn request(addr: SocketAddr, path: &str, tenant: &str, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("edge accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout set");
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\
         X-Evorec-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response reads");
    let text = std::str::from_utf8(&raw).expect("utf8 response");
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in reply")
}

/// The deterministic per-client traffic mix for the steady phase.
fn steady_request(rng: &mut StdRng, world: &Workload, addr: SocketAddr, tenant: &str) -> Outcome {
    let profiles = &world.population.profiles;
    let pick = |rng: &mut StdRng| profiles[rng.gen_range(0..profiles.len())].id.0;
    let roll = rng.gen_range(0u32..100);
    let (endpoint, path, body) = if roll < 60 {
        (
            "recommend",
            "/v1/recommend",
            format!(r#"{{"user": {}, "window": "all"}}"#, pick(rng)),
        )
    } else if roll < 85 {
        let users: Vec<String> = (0..4).map(|_| pick(rng).to_string()).collect();
        (
            "bulk",
            "/v1/recommend/bulk",
            format!(r#"{{"window": "all", "users": [{}]}}"#, users.join(",")),
        )
    } else {
        let event = |rng: &mut StdRng| {
            format!(
                r#"{{"user": {}, "measure": "m:load", "category": "counting",
                    "focus": {}, "intensity": 0.5, "reaction": "dwell"}}"#,
                pick(rng),
                rng.gen_range(1u32..5)
            )
        };
        let events = [event(rng), event(rng)];
        (
            "feedback",
            "/v1/feedback",
            format!(r#"{{"events": [{}]}}"#, events.join(",")),
        )
    };
    let started = Instant::now();
    let status = request(addr, path, tenant, &body);
    Outcome {
        endpoint,
        status,
        nanos: started.elapsed().as_nanos() as u64,
    }
}

/// Run `clients` closed-loop threads for `requests` rounds each and
/// collect every outcome.
fn run_phase(
    clients: usize,
    requests: usize,
    seed: u64,
    world: &Arc<Workload>,
    addr: SocketAddr,
    overload: bool,
) -> (Vec<Outcome>, Duration) {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let world = Arc::clone(world);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000).wrapping_add(client as u64));
                let mut outcomes = Vec::with_capacity(requests);
                for _ in 0..requests {
                    if overload {
                        // Every client shares one tenant so the storm
                        // drains a single token bucket.
                        let user = world.population.profiles
                            [rng.gen_range(0..world.population.profiles.len())]
                        .id
                        .0;
                        let body = format!(r#"{{"user": {user}, "window": "all"}}"#);
                        let started = Instant::now();
                        let status = request(addr, "/v1/recommend", "storm", &body);
                        outcomes.push(Outcome {
                            endpoint: "recommend",
                            status,
                            nanos: started.elapsed().as_nanos() as u64,
                        });
                    } else {
                        outcomes.push(steady_request(
                            &mut rng,
                            &world,
                            addr,
                            &format!("tenant-{client}"),
                        ));
                    }
                }
                outcomes
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        all.extend(handle.join().expect("client thread"));
    }
    (all, started.elapsed())
}

/// Fold raw outcomes into the table rows, keyed by endpoint.
fn tabulate(outcomes: &[Outcome]) -> Vec<(&'static str, Row)> {
    let mut rows: Vec<(&'static str, Row)> = Vec::new();
    for o in outcomes {
        let row = match rows.iter_mut().find(|(name, _)| *name == o.endpoint) {
            Some((_, row)) => row,
            None => {
                rows.push((o.endpoint, Row::default()));
                &mut rows.last_mut().expect("just pushed").1
            }
        };
        row.count += 1;
        match o.status {
            200..=299 => row.ok_2xx += 1,
            429 => row.throttled_429 += 1,
            500..=599 => row.failed_5xx += 1,
            _ => row.other_4xx += 1,
        }
        row.latencies.push(o.nanos);
    }
    for (_, row) in rows.iter_mut() {
        row.latencies.sort_unstable();
    }
    rows
}

fn print_phase(name: &str, rows: &[(&'static str, Row)], elapsed: Duration) {
    let total: u64 = rows.iter().map(|(_, r)| r.count).sum();
    let throughput = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("\nphase: {name}  ({total} requests in {elapsed:.2?}, {throughput:.0} req/s)");
    println!(
        "{:<10} {:>8} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "endpoint", "requests", "2xx", "4xx", "429", "5xx", "p50", "p99"
    );
    for (endpoint, row) in rows {
        println!(
            "{:<10} {:>8} {:>6} {:>6} {:>6} {:>6} {:>9.1}us {:>9.1}us",
            endpoint,
            row.count,
            row.ok_2xx,
            row.other_4xx,
            row.throttled_429,
            row.failed_5xx,
            percentile(&row.latencies, 0.50) as f64 / 1_000.0,
            percentile(&row.latencies, 0.99) as f64 / 1_000.0,
        );
    }
}

fn class_totals(rows: &[(&'static str, Row)]) -> (u64, u64, u64, u64, u64) {
    rows.iter().fold((0, 0, 0, 0, 0), |acc, (_, r)| {
        (
            acc.0 + r.count,
            acc.1 + r.ok_2xx,
            acc.2 + r.other_4xx,
            acc.3 + r.throttled_429,
            acc.4 + r.failed_5xx,
        )
    })
}

fn main() {
    let mut clients = 4usize;
    let mut requests = 60usize;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |target: &mut usize| {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                *target = v;
            }
        };
        match arg.as_str() {
            "--clients" => take(&mut clients),
            "--requests" => take(&mut requests),
            "--seed" => {
                if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                    seed = v;
                }
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    clients = clients.max(1);
    requests = requests.max(1);

    // -- The engine: ingest the synthetic history, warm one landmark
    //    window, wrap it in the adaptive layer.
    let world = Arc::new(curated_kb(40, 7));
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
    let metrics = Arc::new(MetricsRegistry::new());
    metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
    let windowed = Arc::new(WindowedRecommender::new(
        Arc::clone(&manager),
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
    ));
    let profiles: Vec<UserProfile> = world.population.profiles[..8.min(world.population.profiles.len())].to_vec();
    let adaptive = Arc::new(AdaptiveRecommender::new(
        Arc::clone(&windowed),
        profiles,
        AdaptiveOptions::default(),
    ));
    let _ = UserId(0); // anchor the core types in the example's imports

    println!(
        "=== load_gen: {clients} clients x {requests} requests per phase, seed {seed} ==="
    );

    // -- Phase 1: steady traffic against a permissive edge.
    let steady_edge = HttpServer::start(
        Arc::clone(&adaptive),
        Arc::clone(&metrics),
        ServeOptions::default(),
    )
    .expect("steady edge binds");
    let before = cache.stats();
    let (steady, steady_elapsed) =
        run_phase(clients, requests, seed, &world, steady_edge.local_addr(), false);
    let steady_rows = tabulate(&steady);
    print_phase("steady", &steady_rows, steady_elapsed);
    steady_edge.shutdown();
    // Each (user, step) pair should expand its interests once; repeats
    // are memo hits.
    let after = cache.stats();
    println!(
        "expansion memo (steady): {} hits, {} misses",
        after.expansion_hits - before.expansion_hits,
        after.expansion_misses - before.expansion_misses
    );

    // -- Phase 2: overload — a tight shared token bucket (10 req/s,
    //    burst 2, every client the same tenant) meets a closed-loop
    //    storm. Expected: admission 429s, zero 5xx.
    let overload_edge = HttpServer::start(
        Arc::clone(&adaptive),
        Arc::clone(&metrics),
        ServeOptions {
            workers: 2,
            admission: AdmissionOptions {
                max_in_flight: 64,
                rate_per_sec: 10.0,
                burst: 2.0,
            },
            ..Default::default()
        },
    )
    .expect("overload edge binds");
    let (storm, storm_elapsed) = run_phase(
        clients * 2,
        requests,
        seed,
        &world,
        overload_edge.local_addr(),
        true,
    );
    let storm_rows = tabulate(&storm);
    print_phase("overload", &storm_rows, storm_elapsed);
    overload_edge.shutdown();

    // -- Verdict + machine-readable summary.
    let (s_total, s_ok, s_4xx, s_429, s_5xx) = class_totals(&steady_rows);
    let (o_total, o_ok, o_4xx, o_429, o_5xx) = class_totals(&storm_rows);
    println!(
        "\n{{\"steady\": {{\"requests\": {s_total}, \"2xx\": {s_ok}, \"4xx\": {s_4xx}, \
         \"429\": {s_429}, \"5xx\": {s_5xx}}}, \
         \"overload\": {{\"requests\": {o_total}, \"2xx\": {o_ok}, \"4xx\": {o_4xx}, \
         \"429\": {o_429}, \"5xx\": {o_5xx}}}}}"
    );
    let mut failed = false;
    if s_5xx + o_5xx > 0 {
        eprintln!("FAIL: observed {} 5xx responses (want zero)", s_5xx + o_5xx);
        failed = true;
    }
    if s_4xx + o_4xx > 0 {
        eprintln!("FAIL: observed {} non-429 4xx responses (want zero)", s_4xx + o_4xx);
        failed = true;
    }
    if o_429 == 0 {
        eprintln!("FAIL: the overload phase produced no admission 429s");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: zero 5xx across both phases; overload shed {o_429} requests with 429");
}
