//! Unified observability for the evorec serving stack.
//!
//! Every subsystem so far kept its own ad-hoc counters — `CacheStats`
//! hits and invalidations, `LogStats` queue depths, the bandit ledger,
//! window-manager publish tallies — with no common registry, no
//! latency distributions, and no export format. This crate is the one
//! place they all meet:
//!
//! * [`MetricsRegistry`] — the list of [`MetricsSource`]s, sampled at
//!   scrape time: existing stats structs plug in without changing how
//!   they count. Latency distributions are log-bucketed
//!   [`Histogram`]s (p50/p90/p99/max out of a fixed bucket array,
//!   lock-free record path) owned by the sources that record them.
//! * [`Tracer`] — span-based timing with *explicit* parent handles (no
//!   thread-local magic), producing per-request breakdowns across
//!   ingest → epoch commit → window advance → cache probe → measure
//!   compute → MMR/boost → feedback apply. Disabled mode is
//!   `Option<&Tracer>` = `None`: no allocation, no atomics, no clock
//!   reads.
//! * [`render`] — Prometheus text exposition and a JSON snapshot, so a
//!   future HTTP serving edge just serves bytes.
//! * [`Clock`] — pluggable time. Production uses [`MonotonicClock`];
//!   tests and `--cfg evorec_sched` interleaving models use
//!   [`LogicalClock`] so instrumentation never perturbs bit-identical
//!   replay or the deterministic race harness.
//!
//! # Metric naming grammar
//!
//! `evorec_<subsystem>_<noun>[_<unit>][_total]` — `_total` marks
//! monotonic counters, units are spelled out (`_nanos`, `_bytes`),
//! and high-cardinality dimensions (window, measure, span) ride in
//! labels, never in the family name.
//!
//! The grammar extends to *series keys* — the per-series identity
//! used by [`MetricsSnapshot::diff`] and the telemetry TSDB: the full
//! exposition name plus the key-sorted label set in Prometheus
//! selector syntax, `name{k1="v1",k2="v2"}` (no braces for a bare
//! series). Derived series wrap the key in a function, e.g.
//! `rate(evorec_cache_hits_total)` for a per-second counter rate —
//! parentheses cannot appear in a raw key, so derived keys never
//! collide with scraped ones.
//!
//! Like every crate in this workspace, it is dependency-free apart from
//! the vendored shims (`sched` for harness-schedulable atomics).

#![warn(missing_docs)]

mod clock;
mod diff;
mod metrics;
pub mod render;
mod source;
mod trace;

pub use clock::{Clock, LogicalClock, MonotonicClock};
pub use diff::{CounterRegression, SeriesDelta, SnapshotDiff};
pub use metrics::{
    bucket_bounds, bucket_index, push_summary, Histogram, HistogramSnapshot, MetricsRegistry,
    HISTOGRAM_BUCKETS,
};
pub use render::{trace_json, trace_tree};
pub use source::{MetricsSnapshot, MetricsSource, Sample, SampleKind, SampleValue};
pub use trace::{span, FinishedSpan, SpanGuard, SpanHandle, Tracer};
