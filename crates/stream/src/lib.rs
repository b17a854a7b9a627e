//! # evorec-stream — streaming ingestion with epoch-swapped serving
//!
//! The paper's premise is that knowledge bases "are rarely static" and
//! that curators want to *observe change trends as they happen* — yet a
//! batch pipeline rebuilds its [`EvolutionContext`] from whole
//! snapshots. This crate closes that gap with an event-driven ingestion
//! path feeding the serving layer of `evorec-core` without ever
//! blocking readers:
//!
//! | Stage | Type | Role |
//! |-------|------|------|
//! | events | [`ChangeEvent`] | triple-level assert/retract with actor provenance |
//! | queue | [`EventLog`] | a bounded [`BoundedLog`] with blocking backpressure; several consumers may pop |
//! | batching | [`Ingestor`] | last-event-wins overlay → normalised [`LowLevelDelta`] → epoch commit + provenance record |
//! | serving | [`LiveContext`] | atomic `Arc` swap of freshly built contexts; pre-warms reports into the `ReportCache`, invalidates superseded fingerprints |
//! | glue | [`StreamPipeline`] | the worker thread wiring the four together |
//!
//! The committed history is bit-for-bit the one a batch loader would
//! have produced for the same net changes — same snapshots, same
//! (normalised) deltas, same context fingerprints — so every
//! fingerprint-keyed cache in the serving layer works unchanged, and a
//! streamed replay of a workload is *provably* equivalent to its batch
//! build (the workspace's replay-equivalence property tests).
//!
//! [`EvolutionContext`]: evorec_measures::EvolutionContext
//! [`LowLevelDelta`]: evorec_versioning::LowLevelDelta

#![warn(missing_docs)]

mod event;
mod ingest;
mod live;
mod log;
mod pipeline;
pub mod slo;

pub use event::{ChangeEvent, ChangeOp};
pub use ingest::{EpochCommit, IngestStats, Ingestor, IngestorConfig};
pub use live::LiveContext;
pub use log::{BoundedLog, EventLog, LogClosed, LogStats, TryPushError};
pub use pipeline::{EpochSink, PipelineOptions, StreamPipeline};
