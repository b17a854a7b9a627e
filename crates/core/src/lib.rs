//! # evorec-core — the human-aware evolution-measure recommender
//!
//! The primary contribution of ICDE'17 "On Recommending Evolution
//! Measures: A Human-aware Approach", built on the substrate crates
//! (`evorec-kb`, `evorec-versioning`, `evorec-graph`, `evorec-measures`).
//!
//! The paper's §III perspectives map to modules:
//!
//! | Perspective | Module | Mechanism |
//! |-------------|--------|-----------|
//! | Relatedness | [`relatedness`] | interest profiles spread over the class graph via personalised PageRank, multiplied with evolution intensity |
//! | Transparency | [`transparency`] | per-item explanations citing high-level changes, raw delta triples, and provenance records |
//! | Diversity | [`diversity`] | set-level MMR + swap refinement over a blended content/semantic/focus distance |
//! | Fairness | [`fairness`] | group aggregation strategies incl. a min-satisfaction-maximising greedy, with Jain/envy diagnostics |
//! | Anonymity | [`anonymity`] | k-anonymous change-feed aggregation with hierarchy roll-up and suppression |
//!
//! [`Recommender`] wires the pipeline together; [`FeedbackLoop`] closes
//! the loop by folding user reactions back into profiles. The serving
//! layer amortises the expensive half of the pipeline: [`ReportCache`]
//! memoises measure reports by `(measure, context fingerprint)` across
//! requests, and each curator's PageRank interest expansion by step,
//! configuration and seeds.

#![warn(missing_docs)]

pub mod anonymity;
pub mod cache;
pub mod diversity;
mod engine;
pub mod fairness;
mod feedback;
mod item;
mod profile;
pub mod relatedness;
pub mod session;
pub mod slo;
pub mod transparency;

pub use anonymity::{anonymise, AnonymisedCell, AnonymisedReport, UserFeed};
pub use cache::{CacheStats, DerivedArtefacts, ReportCache};
pub use diversity::{
    category_coverage, intra_set_distance, select_mmr, set_objective, swap_refine,
    DistanceMatrix, DistanceWeights,
};
pub use engine::{GroupRecommendation, Recommendation, Recommender, RecommenderConfig, ScoreBoost};
pub use fairness::{
    fairness_report, select_for_group, FairnessReport, GroupAggregation, RelevanceMatrix,
};
pub use feedback::{FeedbackLoop, FeedbackSignal};
pub use item::{Item, ScoredItem};
pub use profile::{Group, SeenItem, UserId, UserProfile};
pub use relatedness::{item_relatedness, report_relatedness, ExpandedProfile};
pub use session::{simulate_session, SessionRound, SessionTrace};
pub use transparency::{Explainer, Explanation, ProvenanceLine};
