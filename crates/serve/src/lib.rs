//! The HTTP serving edge for the evorec stack.
//!
//! Everything below this crate is a library; this is the process
//! boundary — a hand-rolled, dependency-free HTTP/1.1 server (no
//! async runtime: a blocking acceptor plus a worker pool over a
//! [`BoundedLog`](evorec_stream::BoundedLog) of connections) fronting an
//! [`AdaptiveRecommender`](evorec_adapt::AdaptiveRecommender):
//!
//! | Route | Verb | Does |
//! |-------|------|------|
//! | `/v1/recommend` | POST | one user, one window → scored items |
//! | `/v1/recommend/bulk` | POST | many users, one window, each row served as a single recommend; per-row status |
//! | `/v1/feedback` | POST | curator reactions into the adapt feedback log (full log → 429) |
//! | `/health` | GET | telemetry SLO health; `Critical` answers 503 |
//! | `/metrics` | GET | Prometheus exposition of the shared registry |
//! | `/v1/trace/last` | GET | the most recent request's span tree, as JSON |
//!
//! Cross-cutting: an [`AdmissionController`] (global in-flight cap +
//! per-tenant token buckets keyed on `X-Evorec-Tenant`, rejections
//! carry `Retry-After`), per-request spans parenting the engine's own
//! `serve` span, an `X-Evorec-Timing` response header, graceful
//! drain-then-flush shutdown, and a [`ServerStats`] metrics source.
//!
//! The wire format is hand-rolled JSON ([`json`], [`wire`]) with
//! shortest-round-trip `f64` scores, so a recommendation served over
//! a socket is **bit-identical** to the in-process call — the e2e
//! tests compare `to_bits`.

#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod json;
pub mod server;
pub mod slo;
pub mod stats;
pub mod wire;

pub use admission::{
    AdmissionController, AdmissionCounters, AdmissionDecision, AdmissionOptions, InFlightPermit,
};
pub use http::{ConnReader, ReadError, Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES};
pub use json::{Json, JsonError};
pub use server::{HttpServer, ServeOptions};
pub use stats::{Endpoint, ServerStats};
pub use wire::{BulkRequest, RecommendRequest, WireError};
