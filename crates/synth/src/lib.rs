//! # evorec-synth — synthetic workload generation
//!
//! Deterministic stand-ins for the evolving knowledge bases (DBpedia,
//! Freebase, YAGO) and human populations the paper motivates with.
//! Provides:
//!
//! - [`GeneratedKb`] / [`SchemaConfig`] — preferential-attachment class
//!   trees, domain/range-typed properties, Zipf-skewed instance extents;
//! - [`Scenario`] — evolution steps (uniform churn, hotspots, growth,
//!   drift, schema refactors, the E4 count-vs-impact contrast), each
//!   returning its ground truth;
//! - [`generate_population`] / [`generate_groups`] /
//!   [`generate_feeds`] — planted-topic user profiles, homogeneous /
//!   heterogeneous groups, private change feeds;
//! - [`workload`] — named end-to-end presets (`curated-kb`,
//!   `social-feed`, `sensor-stream`, `clinical`);
//! - [`replay_sessions`] — session-replay evaluation of the online
//!   adaptation loop against a static-profile baseline;
//! - [`Zipf`] — the rank sampler underneath it all.
//!
//! Every generator is fully deterministic given its seed.

#![warn(missing_docs)]

mod evolution_gen;
mod profile_gen;
pub mod replay;
mod schema_gen;
pub mod workload;
mod zipf;

pub use evolution_gen::{Scenario, ScenarioOutcome};
pub use replay::{replay_sessions, ReplayConfig, ReplayReport, ReplayRound};
pub use profile_gen::{
    generate_feeds, generate_groups, generate_population, Population, PopulationConfig,
};
pub use schema_gen::{GeneratedKb, SchemaConfig};
pub use workload::Workload;
pub use zipf::Zipf;
