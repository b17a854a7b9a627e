//! # evorec — human-aware recommendation of evolution measures
//!
//! A from-scratch reproduction of **"On Recommending Evolution Measures:
//! A Human-aware Approach"** (Stefanidis, Kondylakis, Troullinou —
//! ICDE 2017): a recommender that, instead of burying curators in raw
//! deltas, suggests the *evolution measures* (and knowledge-base regions)
//! that best summarise how the data they care about is changing —
//! honouring the paper's five human-aware perspectives: relatedness,
//! transparency, diversity, fairness, and anonymity.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`kb`] | `evorec-kb` | RDF terms, triple store, N-Triples, schema views |
//! | [`versioning`] | `evorec-versioning` | snapshots, deltas, change detection, provenance, archiving |
//! | [`graph`] | `evorec-graph` | betweenness, bridging centrality, PPR |
//! | [`measures`] | `evorec-measures` | the §II evolution-measure catalogue |
//! | [`obs`] | `evorec-obs` | unified metrics registry + span tracing across the stack |
//! | [`core`] | `evorec-core` | the §III recommender (this paper's contribution) |
//! | [`stream`] | `evorec-stream` | streaming ingestion: event log, micro-batch epochs, live contexts |
//! | [`windows`] | `evorec-windows` | multi-window temporal serving: one epoch stream, many live views |
//! | [`adapt`] | `evorec-adapt` | online adaptation: feedback streams, live profiles, bandit-blended serving |
//! | [`telemetry`] | `evorec-telemetry` | telemetry history: ring TSDB, SLO health engine, flight recorder |
//! | [`serve`] | `evorec-serve` | hand-rolled HTTP serving edge: single and bulk recommend, feedback ingest, admission control |
//! | [`synth`] | `evorec-synth` | synthetic KB / evolution / population workloads |
//!
//! ## Quickstart
//!
//! ```
//! use evorec::core::{Recommender, UserId, UserProfile};
//! use evorec::measures::{EvolutionContext, MeasureRegistry};
//! use evorec::synth::workload::curated_kb;
//!
//! // A synthetic evolving knowledge base with a planted hotspot.
//! let world = curated_kb(60, 42);
//! let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
//!
//! // A curator interested in one of the hotspot classes.
//! let focus = world.outcomes[1].focus_classes[0];
//! let curator = UserProfile::new(UserId(0), "curator").with_interest(focus, 1.0);
//!
//! let recommender = Recommender::with_defaults(MeasureRegistry::standard());
//! let recommendation = recommender.recommend(&ctx, &curator);
//! assert!(!recommendation.items.is_empty());
//! ```

#![warn(missing_docs)]

pub use evorec_adapt as adapt;
pub use evorec_core as core;
pub use evorec_graph as graph;
pub use evorec_kb as kb;
pub use evorec_measures as measures;
pub use evorec_obs as obs;
pub use evorec_serve as serve;
pub use evorec_stream as stream;
pub use evorec_synth as synth;
pub use evorec_telemetry as telemetry;
pub use evorec_versioning as versioning;
pub use evorec_windows as windows;
