//! From a pass to named metrics: the end-to-end set, the per-layer set
//! with its two layer tables, and the preconditions a run must meet
//! before it may print either.

use crate::client::{Route, GOODPUT_LIMIT_NS};
use crate::run::Pass;
use crate::trace::{self, inside, Table};
use crate::util::{mean, median, nearest_rank, percentile, NS_PER_MS, NS_PER_US};
use crate::workload::Plan;

/// Share of cache probes the quiescent request slices must hit.
const MIN_HIT_RATIO: f64 = 0.99;
/// How late the open-loop producer may run, as a share of its batch
/// interval, before the run no longer measures an open loop: a batch
/// pushed after the next one fell due means the producer fell behind.
/// A shorter stall of the host delays one push, and freshness, timed
/// from the scheduled send, already charges it.
const MAX_LAG_SHARE: f64 = 1.0;

/// One metric: name, value, unit and the sample count behind it
/// (`None` for counts and ratios).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// Collects metrics, turning an unsupported percentile into an error.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.put_or(name, Some(value), unit, None);
    }

    fn put_or(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        match value {
            Some(value) => self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
            }),
            None => self.errors.push(format!("{name}: no samples")),
        }
    }

    /// Percentile `q` of `values` (ns), in units of `per` ns.
    fn pct(
        &mut self,
        name: &'static str,
        mut values: Vec<f64>,
        q: f64,
        per: f64,
        unit: &'static str,
    ) {
        let samples = values.len();
        match percentile(&mut values, q) {
            Some(v) => self.metrics.push(Metric {
                name,
                value: v / per,
                unit,
                samples: Some(samples),
            }),
            None => self.errors.push(format!(
                "{name}: {samples} samples leave fewer than 10 beyond the percentile"
            )),
        }
    }

    /// Client latency percentile `q` of `route`, in ms: the median over
    /// the request slices of each slice's percentile, so one slow spell
    /// of the host moves one slice, not the figure. The run's pooled
    /// samples must leave at least 10 beyond the percentile.
    fn request_pct(&mut self, name: &'static str, pass: &Pass, route: Route, q: f64) {
        let mut per_slice = Vec::with_capacity(pass.request_slices.len());
        for &slice in &pass.request_slices {
            let mut slice_ns: Vec<f64> = pass
                .outcomes
                .iter()
                .filter(|o| o.route == route && o.ok() && inside(o.start, &[slice]))
                .map(|o| o.latency_ns() as f64)
                .collect();
            per_slice.extend(nearest_rank(&mut slice_ns, q));
        }
        let mut pooled = latencies(pass, route);
        let samples = pooled.len();
        if percentile(&mut pooled, q).is_none() || per_slice.len() < pass.request_slices.len() {
            self.errors.push(format!(
                "{name}: {samples} samples leave fewer than 10 beyond the percentile"
            ));
            return;
        }
        self.put_or(
            name,
            median(&mut per_slice).map(|v| v / NS_PER_MS),
            "ms",
            Some(samples),
        );
    }
}

fn latencies(pass: &Pass, route: Route) -> Vec<f64> {
    pass.outcomes
        .iter()
        .filter(|o| o.route == route && o.ok())
        .map(|o| o.latency_ns() as f64)
        .collect()
}

fn freshness(pass: &Pass) -> Vec<f64> {
    pass.paced
        .iter()
        .map(|&(due, at)| at.saturating_sub(due) as f64)
        .collect()
}

pub fn end_to_end(pass: &Pass) -> Report {
    let mut r = Report::default();
    r.put_or(
        "setup_s",
        median(&mut pass.setup_s.clone()),
        "s",
        Some(pass.setup_s.len()),
    );
    r.request_pct("recommend_p50_ms", pass, Route::Recommend, 0.50);
    r.request_pct("bulk_p50_ms", pass, Route::Bulk, 0.50);
    r.request_pct("feedback_p50_ms", pass, Route::Feedback, 0.50);
    let good = pass
        .outcomes
        .iter()
        .filter(|o| o.route != Route::Metrics && o.ok() && o.latency_ns() <= GOODPUT_LIMIT_NS)
        .count();
    let request_ns: u64 = pass.request_slices.iter().map(|(from, to)| to - from).sum();
    r.put(
        "goodput_rps",
        good as f64 / (request_ns.max(1) as f64 / 1e9),
        "1/s",
    );
    r.pct("freshness_p50_ms", freshness(pass), 0.50, NS_PER_MS, "ms");
    // The mean, not a high percentile, stands for the tail: a batch the
    // ingest worker splits over two epochs (it commits whenever the log
    // runs dry mid-push) lands about one epoch later, so the top decile
    // mixes two populations and its edge moves with the split rate.
    let fresh = freshness(pass);
    r.put_or(
        "freshness_mean_ms",
        (!fresh.is_empty()).then(|| mean(&fresh) / NS_PER_MS),
        "ms",
        Some(fresh.len()),
    );
    r.put_or(
        "drain_events_per_s",
        pass.drain_events_per_s(),
        "1/s",
        Some(pass.bursts.len()),
    );
    r.put_or("peak_rss_mb", pass.peak_rss_mb, "MiB", None);
    r
}

/// The per-layer metrics of the traced pass (`baseline`: the untraced
/// pass, for the overhead ratios), and its two layer tables.
pub fn per_layer(pass: &Pass, baseline: &Pass) -> (Report, Vec<Table>) {
    let mut r = Report::default();
    let Some(spans) = &pass.spans else {
        r.errors
            .push("the traced pass recorded no spans".to_string());
        return (r, Vec::new());
    };
    let req = &pass.request_slices[..];
    let data = &pass.data_slices[..];
    let all = &[(0, u64::MAX)][..];
    let counts = &pass.req;

    // serve
    let unattributed: Vec<f64> = pass
        .outcomes
        .iter()
        .filter_map(|o| o.server_ns.map(|s| o.latency_ns().saturating_sub(s) as f64))
        .collect();
    r.pct(
        "serve.unattributed_ms.p50",
        unattributed,
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "serve.http_request_ms.p50",
        spans.durations("http_request", req),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "serve.http_parse_us.p50",
        spans.durations("http_parse", req),
        0.5,
        NS_PER_US,
        "us",
    );
    r.pct(
        "serve.bulk_fanout_ms.p50",
        spans.durations("bulk_fanout", req),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.put(
        "serve.connections_per_request",
        counts.connections as f64 / counts.requests.max(1) as f64,
        "ratio",
    );
    r.put(
        "serve.queue_depth.max",
        pass.queue_depth_max as f64,
        "count",
    );
    let throttled = pass.outcomes.iter().filter(|o| o.status == 429).count();
    r.put("serve.rejected_429", throttled as f64, "count");
    let failed = pass.outcomes.iter().filter(|o| !o.ok()).count();
    r.put(
        "failed_ratio",
        failed as f64 / pass.outcomes.len().max(1) as f64,
        "ratio",
    );

    // adapt
    r.pct(
        "adapt.serve_ms.p50",
        spans.durations("serve", req),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "adapt.feedback_apply_us.p50",
        spans.durations("feedback_apply", all),
        0.5,
        NS_PER_US,
        "us",
    );
    let accepted: u64 = pass.outcomes.iter().map(|o| o.accepted).sum();
    r.put(
        "adapt.feedback_applied_ratio",
        counts.applied as f64 / accepted.max(1) as f64,
        "ratio",
    );

    // core
    r.pct(
        "core.cache_probe_us.p50",
        spans.self_times("cache_probe", req),
        0.5,
        NS_PER_US,
        "us",
    );
    r.pct(
        "core.measure_compute_ms.p50",
        spans.durations("measure_compute", all),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.put(
        "core.measure_compute_builds",
        counts.derived_misses as f64,
        "count",
    );
    r.pct(
        "core.mmr_boost_us.p50",
        spans.durations("mmr_boost", req),
        0.5,
        NS_PER_US,
        "us",
    );
    let (hits, lookups) = counts.cache_totals();
    r.put(
        "core.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    r.put("core.cache_lookups", lookups as f64, "count");
    let derived_lookups = counts.derived_hits + counts.derived_misses;
    r.put(
        "core.derived_hit_ratio",
        counts.derived_hits as f64 / derived_lookups.max(1) as f64,
        "ratio",
    );
    r.put("core.derived_lookups", derived_lookups as f64, "count");
    r.put(
        "core.cache_invalidations",
        counts.invalidations as f64,
        "count",
    );

    // stream
    let (d0, d1) = (&pass.data_before, &pass.data_after);
    r.pct(
        "stream.ingest_ms.p50",
        spans.durations("ingest", data),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "stream.epoch_commit_ms.p50",
        spans.durations("epoch_commit", data),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "stream.epoch_commit_ms.p90",
        spans.durations("epoch_commit", data),
        0.9,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "stream.publish_ms.p50",
        spans.durations("publish", data),
        0.5,
        NS_PER_MS,
        "ms",
    );
    let epochs = d1.sink.epochs - d0.sink.epochs;
    r.put("stream.epochs", epochs as f64, "count");
    r.put(
        "stream.events_per_epoch",
        (d1.sink.events - d0.sink.events) as f64 / epochs.max(1) as f64,
        "count",
    );
    r.put(
        "stream.producer_waits",
        (d1.log.producer_waits - d0.log.producer_waits) as f64,
        "count",
    );
    let worst_lag = pass.lags_ns.iter().copied().max().unwrap_or(0);
    r.put(
        "stream.schedule_lag_ms.max",
        worst_lag as f64 / NS_PER_MS,
        "ms",
    );

    // windows
    r.pct(
        "windows.advance_ms.p50",
        spans.durations("window_advance", data),
        0.5,
        NS_PER_MS,
        "ms",
    );
    r.pct(
        "windows.advance_ms.p90",
        spans.durations("window_advance", data),
        0.9,
        NS_PER_MS,
        "ms",
    );
    r.put(
        "windows.ring_fallbacks",
        (d1.windows.ring_fallbacks - d0.windows.ring_fallbacks) as f64,
        "count",
    );

    // versioning
    r.put(
        "versioning.delta_computations",
        pass.delta_growth as f64,
        "count",
    );
    r.put(
        "versioning.retained_versions",
        pass.retained_versions as f64,
        "count",
    );
    r.put(
        "versioning.retained_triples",
        pass.retained_triples as f64,
        "count",
    );

    // obs
    r.pct(
        "obs.metrics_scrape_ms.p50",
        latencies(pass, Route::Metrics),
        0.5,
        NS_PER_MS,
        "ms",
    );
    let ratio = |mut traced: Vec<f64>, mut plain: Vec<f64>| {
        Some(median(&mut traced)? / median(&mut plain)?)
    };
    let recommend = ratio(
        latencies(pass, Route::Recommend),
        latencies(baseline, Route::Recommend),
    );
    r.put_or(
        "obs.trace_overhead_ratio.recommend_p50",
        recommend,
        "ratio",
        None,
    );
    let fresh = ratio(freshness(pass), freshness(baseline));
    r.put_or(
        "obs.trace_overhead_ratio.freshness_p50",
        fresh,
        "ratio",
        None,
    );

    // The two layer tables; their residual rows are metrics too.
    let client_ns: Vec<f64> = pass
        .outcomes
        .iter()
        .filter(|o| o.status != 0)
        .map(|o| o.latency_ns() as f64)
        .collect();
    let tables = vec![
        trace::request_table(spans, &client_ns, req),
        trace::data_table(spans, &pass.paced, data),
    ];
    r.put(
        "serve.unattributed_ms.mean",
        tables[0].unattributed_ms(),
        "ms",
    );
    r.put(
        "stream.unattributed_ms.mean",
        tables[1].unattributed_ms(),
        "ms",
    );
    // Unbounded tails, from the untraced pass: each moves with the
    // host's scheduling more than any allowed bound.
    r.request_pct("recommend_p99_ms", baseline, Route::Recommend, 0.99);
    r.pct(
        "freshness_p90_ms",
        freshness(baseline),
        0.90,
        NS_PER_MS,
        "ms",
    );
    r.request_pct("bulk_p99_ms", baseline, Route::Bulk, 0.99);
    (r, tables)
}

/// Preconditions: a run that did not exercise what its workload claims
/// fails instead of printing a number.
pub fn preconditions(plan: &Plan, pass: &Pass) -> Vec<String> {
    let mut errors = Vec::new();
    let swaps = pass.req.swaps;
    if swaps > 0 {
        errors.push(format!(
            "{swaps} epochs committed while clients ran (want 0)"
        ));
    }
    let (hits, lookups) = pass.req.cache_totals();
    if lookups == 0 || (hits as f64) < MIN_HIT_RATIO * lookups as f64 {
        errors.push(format!(
            "cache hit ratio {hits}/{lookups} while clients ran is below {MIN_HIT_RATIO}"
        ));
    }
    let worst = pass.lags_ns.iter().copied().max().unwrap_or(0);
    let interval = plan.batch_interval_ns();
    if worst as f64 > MAX_LAG_SHARE * interval as f64 {
        errors.push(format!(
            "the producer ran {:.2} ms late, over {MAX_LAG_SHARE} of its {:.2} ms batch interval",
            worst as f64 / NS_PER_MS,
            interval as f64 / NS_PER_MS
        ));
    }
    if pass.delta_growth > 0 {
        errors.push(format!(
            "{} snapshot re-diffs during the run (want 0)",
            pass.delta_growth
        ));
    }
    errors
}
