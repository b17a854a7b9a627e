//! One pass over a fresh stack: set-up, the workload's rounds, and the
//! output checks.
//!
//! A pass runs the plan's rounds, each a paced part, then a burst, then
//! a request slice on the quiescent stack. Interleaving spreads every
//! kind of measurement over the whole run, so a slow spell of the host
//! moves one slice rather than a whole metric.

use crate::client::{self, ClientSpec, Outcome};
use crate::stack::{self, SinkCounts, Stack};
use crate::trace::Spans;
use crate::util::{median, sample, wait_until};
use crate::workload::{Plan, BATCH, CLIENTS, ROUNDS};
use evorec_core::{CacheStats, ScoredItem, UserId};
use evorec_measures::EvolutionContext;
use evorec_obs::{Clock, MonotonicClock, Tracer};
use evorec_serve::{json, wire};
use evorec_stream::{EventLog, LogStats};
use evorec_versioning::VersionedStore;
use evorec_windows::WindowManagerStats;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans the traced pass retains: enough for every span of a run.
const RING_CAPACITY: usize = 4_000_000;
/// Longest wait for a pushed batch to become servable.
const LAND_TIMEOUT: Duration = Duration::from_secs(60);
/// Users × windows compared over the socket against in-process serving.
const CHECK_USERS: usize = 8;
const CHECK_WINDOWS: usize = 2;

/// Counters read at both ends of a request slice.
struct RequestSnapshot {
    cache: CacheStats,
    applied: u64,
    connections: u64,
    requests: u64,
    epochs: u64,
}

impl RequestSnapshot {
    fn take(stack: &Stack) -> RequestSnapshot {
        stack.adaptive.sync();
        let server = stack.server().stats();
        RequestSnapshot {
            cache: stack.cache.stats(),
            applied: stack.adaptive.stats().worker.events,
            connections: sample(&*server, "evorec_serve_connections_total"),
            requests: server.total_requests(),
            epochs: stack.sink.counts().epochs,
        }
    }
}

/// Request-path counters summed over the request slices.
#[derive(Default)]
pub struct RequestCounters {
    pub hits: u64,
    pub lookups: u64,
    pub derived_hits: u64,
    pub derived_misses: u64,
    pub invalidations: u64,
    /// Feedback events the adapt worker applied (after `sync()`).
    pub applied: u64,
    pub connections: u64,
    pub requests: u64,
    /// Epochs committed while clients ran (none, on a quiescent stack).
    pub swaps: u64,
}

impl RequestCounters {
    fn add(&mut self, before: &RequestSnapshot, after: &RequestSnapshot) {
        let (b, a) = (&before.cache, &after.cache);
        self.hits += a.hits - b.hits;
        self.lookups += a.lookups() - b.lookups();
        self.derived_hits += a.derived_hits - b.derived_hits;
        self.derived_misses += a.derived_misses - b.derived_misses;
        self.invalidations += a.invalidations - b.invalidations;
        self.applied += after.applied - before.applied;
        self.connections += after.connections - before.connections;
        self.requests += after.requests - before.requests;
        self.swaps += after.epochs - before.epochs;
    }

    /// `(hits, lookups)` over both cache levels.
    pub fn cache_totals(&self) -> (u64, u64) {
        (
            self.hits + self.derived_hits,
            self.lookups + self.derived_hits + self.derived_misses,
        )
    }
}

/// Counters read at both ends of the pass's data phases.
pub struct DataSnapshot {
    pub sink: SinkCounts,
    pub log: LogStats,
    pub windows: WindowManagerStats,
}

impl DataSnapshot {
    fn take(stack: &Stack, log: &EventLog) -> DataSnapshot {
        DataSnapshot {
            sink: stack.sink.counts(),
            log: log.stats(),
            windows: stack.manager.stats(),
        }
    }
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub outcomes: Vec<Outcome>,
    /// `[from, to]` clock nanos of each request slice.
    pub request_slices: Vec<(u64, u64)>,
    pub req: RequestCounters,
    pub queue_depth_max: u64,
    /// `(scheduled send, servable in every window)` per paced batch.
    pub paced: Vec<(u64, u64)>,
    pub lags_ns: Vec<u64>,
    /// `(events, nanos from push to servable)` of each round's burst.
    pub bursts: Vec<(f64, f64)>,
    /// `[from, to]` of each round's paced part and burst.
    pub data_slices: Vec<(u64, u64)>,
    pub data_before: DataSnapshot,
    pub data_after: DataSnapshot,
    pub delta_growth: u64,
    pub retained_versions: usize,
    pub retained_triples: usize,
    /// `VmHWM` once the measured phases end, before the checks.
    pub peak_rss_mb: Option<f64>,
    pub batches: usize,
    pub spans: Option<Spans>,
    pub errors: Vec<String>,
}

impl Pass {
    /// Events the workload needs from the stream.
    pub fn events_needed(plan: &Plan, seconds: f64) -> usize {
        (plan.paced_batches(seconds) + ROUNDS * plan.burst_batches) * BATCH
    }

    /// Burst events per second until servable: the median over the
    /// rounds' bursts, so one slow spell of the host moves one burst.
    pub fn drain_events_per_s(&self) -> Option<f64> {
        let mut rates: Vec<f64> = self.bursts.iter().map(|&(e, n)| e / (n / 1e9)).collect();
        median(&mut rates)
    }
}

/// Push batches `first..first + count` of the stream, the k-th due at
/// `start + k × interval` (`interval` 0: as fast as backpressure
/// allows). Returns each batch's due time and how late it was pushed.
#[allow(clippy::too_many_arguments)]
fn produce(
    stack: &Stack,
    log: &EventLog,
    clock: &MonotonicClock,
    first: usize,
    count: usize,
    start: u64,
    interval: u64,
    poll: Option<&dyn Fn()>,
) -> (Vec<u64>, Vec<u64>) {
    let mut dues = Vec::with_capacity(count);
    let mut lags = Vec::with_capacity(count);
    for k in 0..count {
        let due = start + k as u64 * interval;
        wait_until(clock, due, poll);
        lags.push(clock.now_nanos().saturating_sub(due));
        dues.push(due);
        let id = first + k;
        let batch = &stack.world.stream[id * BATCH..(id + 1) * BATCH];
        stack.sink.expect(id, stack.world.markers[id]);
        for event in batch {
            log.push(event.clone())
                .expect("the pipeline runs until the pass ends");
        }
    }
    (dues, lags)
}

/// Run the clients until `end` while `main` runs on this thread.
fn run_clients(spec: &ClientSpec<'_>, end: u64, main: impl FnOnce()) -> Vec<Outcome> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| scope.spawn(move || client::run(spec, id, end)))
            .collect();
        main();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run_pass(plan: &Plan, seed: u64, seconds: f64, traced: bool, reps: usize) -> Pass {
    let clock = Arc::new(MonotonicClock::new());
    // The inputs, generated once; `setup_s` times the system alone.
    let world = Arc::new(stack::world(seed, Pass::events_needed(plan, seconds)));
    let mut setup_s = Vec::with_capacity(reps);
    let mut built: Option<Stack> = None;
    for _ in 0..reps {
        drop(built.take());
        let tracer = traced.then(|| {
            Arc::new(
                Tracer::new(Arc::clone(&clock) as Arc<dyn Clock>).with_ring_capacity(RING_CAPACITY),
            )
        });
        let started = Instant::now();
        let stack = Stack::build(plan, &world, &clock, tracer);
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some(stack);
    }
    let mut stack = built.expect("at least one set-up");
    let mut errors = Vec::new();
    let users = stack.users.clone();
    let spec = ClientSpec {
        addr: stack.server().local_addr(),
        users: &users,
        windows: plan.served,
        seed,
        clock: &clock,
    };
    let log = Arc::clone(stack.pipeline().log());
    let server_stats = stack.server().stats();
    let queue_depth_max = Cell::new(0u64);
    let poll_depth = || {
        let depth = sample(&*server_stats, "evorec_serve_queue_depth");
        queue_depth_max.set(queue_depth_max.get().max(depth));
    };
    let poll: Option<&dyn Fn()> = if traced { Some(&poll_depth) } else { None };
    let per_round = |share: f64| (share * seconds * 1e9 / ROUNDS as f64) as u64;
    let paced_n = plan.paced_batches(seconds);
    let interval = plan.batch_interval_ns();

    let data_before = DataSnapshot::take(&stack, &log);
    let mut outcomes = Vec::new();
    let mut req = RequestCounters::default();
    let (mut request_slices, mut data_slices) = (Vec::new(), Vec::new());
    let (mut paced_ids, mut dues, mut lags_ns, mut bursts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    for round in 0..ROUNDS {
        let count = paced_n * (round + 1) / ROUNDS - paced_n * round / ROUNDS;
        let start = clock.now_nanos();
        let (round_dues, round_lags) =
            produce(&stack, &log, &clock, next, count, start, interval, poll);
        paced_ids.extend(next..next + count);
        dues.extend(round_dues);
        lags_ns.extend(round_lags);
        next += count;

        // Burst: a fixed number of batches as fast as backpressure
        // allows, timed until the last is servable in every window.
        let burst_start = clock.now_nanos();
        produce(
            &stack,
            &log,
            &clock,
            next,
            plan.burst_batches,
            burst_start,
            0,
            None,
        );
        next += plan.burst_batches;
        let Some(landed) = stack.sink.wait_for(next, LAND_TIMEOUT) else {
            errors.push(format!("batches not servable within {LAND_TIMEOUT:?}"));
            break;
        };
        let burst_end = landed[next - 1].1;
        let burst_events = (plan.burst_batches * BATCH) as f64;
        bursts.push((burst_events, (burst_end - burst_start) as f64));
        data_slices.push((start, burst_end));

        // Request slice on the quiescent stack, every served window warm.
        for window in plan.served {
            stack.adaptive.serve(window, users[0]);
        }
        let before = RequestSnapshot::take(&stack);
        let start = clock.now_nanos();
        let end = start + per_round(plan.request_share);
        outcomes.extend(run_clients(&spec, end, || wait_until(&*clock, end, poll)));
        req.add(&before, &RequestSnapshot::take(&stack));
        request_slices.push((start, end));
    }
    let data_after = DataSnapshot::take(&stack, &log);
    let landed = stack
        .sink
        .wait_for(next, Duration::ZERO)
        .unwrap_or_default();
    let paced = paced_ids
        .iter()
        .zip(&dues)
        .filter_map(|(&id, &due)| landed.get(id).map(|&(_, at)| (due, at)))
        .collect();
    let peak_rss_mb = crate::util::peak_rss_mb();

    // Output checks, on the quiescent stack.
    errors.extend(check_statuses(&outcomes));
    errors.extend(check_socket_matches_in_process(&stack, plan, &users));
    errors.extend(stack.sink.errors());
    let spans = stack.tracer.as_ref().map(|t| t.finished());
    if spans.as_ref().is_some_and(|s| s.len() >= RING_CAPACITY) {
        errors.push("the tracer ring overflowed; spans were lost".to_string());
    }
    let pushed = next * BATCH;
    let ingestor = stack.stop();
    let store = ingestor.store();
    let ingested = ingestor.stats().events;
    if ingested != stack.seeded_events + pushed as u64 {
        errors.push(format!(
            "IngestStats.events is {ingested}, but {} events were seeded and {pushed} pushed",
            stack.seeded_events
        ));
    }
    let head = store.head().expect("a history");
    if store.snapshot(head) != &stack.reference_head(pushed) {
        errors.push("the streamed head snapshot differs from the batch replay".to_string());
    }
    errors.extend(check_windows_match_batch(&stack, store));
    Pass {
        setup_s,
        outcomes,
        request_slices,
        req,
        queue_depth_max: queue_depth_max.get(),
        paced,
        lags_ns,
        bursts,
        data_slices,
        data_before,
        data_after,
        delta_growth: store.delta_computations() - stack.delta_baseline,
        retained_versions: store.version_count(),
        retained_triples: store.total_stored_triples(),
        peak_rss_mb,
        batches: next,
        spans: spans.map(Spans::new),
        errors,
    }
}

/// Any 5xx, or any 4xx other than 429, fails the run.
fn check_statuses(outcomes: &[Outcome]) -> Option<String> {
    let bad = outcomes
        .iter()
        .filter(|o| o.status >= 500 || (o.status >= 400 && o.status != 429))
        .count();
    (bad > 0).then(|| format!("{bad} responses were 5xx or non-429 4xx"))
}

fn bits(items: &[ScoredItem]) -> Vec<(String, u32, [u64; 4])> {
    items
        .iter()
        .map(|s| {
            (
                s.item.measure.0.clone(),
                s.item.focus.as_u32(),
                [
                    s.item.intensity.to_bits(),
                    s.relevance.to_bits(),
                    s.novelty.to_bits(),
                    s.objective.to_bits(),
                ],
            )
        })
        .collect()
}

/// Recommendations over the socket equal in-process serving, bit for
/// bit, for a sample of users.
fn check_socket_matches_in_process(stack: &Stack, plan: &Plan, users: &[UserId]) -> Vec<String> {
    let mut errors = Vec::new();
    let addr = stack.server().local_addr();
    for window in plan.served.iter().take(CHECK_WINDOWS) {
        for user in users.iter().take(CHECK_USERS) {
            let body = format!(r#"{{"user": {}, "window": "{window}"}}"#, user.0);
            let served = match client::call(addr, "POST", "/v1/recommend", "check", &body) {
                Ok(reply) if reply.status == 200 => json::parse(&reply.body)
                    .ok()
                    .and_then(|doc| wire::decode_items(&doc).ok()),
                Ok(reply) => {
                    errors.push(format!(
                        "check request for user {} answered {}",
                        user.0, reply.status
                    ));
                    continue;
                }
                Err(e) => {
                    errors.push(format!("check request for user {} failed: {e}", user.0));
                    continue;
                }
            };
            match (served, stack.adaptive.serve(window, *user)) {
                (Some(served), Some(local)) if bits(&served) == bits(&local.items) => {}
                _ => errors.push(format!(
                    "window {window}, user {}: the socket answer differs from in-process serving",
                    user.0
                )),
            }
        }
    }
    errors
}

/// Every window's live fingerprint equals a batch
/// `EvolutionContext::build` over its span, on an independent store.
fn check_windows_match_batch(stack: &Stack, store: &VersionedStore) -> Vec<String> {
    let mut batch = VersionedStore::new();
    for info in store.versions() {
        batch.commit_snapshot(info.label.clone(), store.snapshot(info.id).clone());
    }
    let mut errors = Vec::new();
    for (name, _, live) in stack.manager.windows() {
        let Some((from, to)) = stack.manager.span(name) else {
            continue;
        };
        if live.current().fingerprint() != EvolutionContext::build(&batch, from, to).fingerprint() {
            errors.push(format!(
                "window {name}: fingerprint differs from a batch build of {from}→{to}"
            ));
        }
    }
    errors
}
