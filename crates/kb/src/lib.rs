//! # evorec-kb — RDF knowledge-base substrate
//!
//! The storage layer under the *evolution-measure recommender* workspace
//! (a from-scratch reproduction of ICDE'17 "On Recommending Evolution
//! Measures: A Human-aware Approach").
//!
//! Provides:
//! - [`Term`] / [`TermId`] — RDF terms and their interned identifiers;
//! - [`TermInterner`] — the shared bidirectional dictionary;
//! - [`Triple`] / [`TriplePattern`] / [`TripleStore`] — an in-memory
//!   store holding one ordered set of triples (SPO order);
//! - [`ntriples`] — N-Triples parsing and canonical serialisation;
//! - [`Vocab`] — pre-interned RDF/RDFS/OWL vocabulary;
//! - [`SchemaView`] — the schema digest (classes, subsumption,
//!   domain/range, instance extents, property-link counts) that the
//!   evolution measures consume, with its per-class
//!   [`CentralityVectors`] and relevance memoised on first use;
//! - [`query`] — conjunctive basic-graph-pattern queries with joins;
//! - [`Graph`] — a single-snapshot convenience bundle.
//!
//! Everything downstream (versioning, measures, the recommender) works on
//! `TermId`s; term text is only touched at the I/O boundary.

#![warn(missing_docs)]

pub mod fxhash;
mod graph;
mod interner;
pub mod ntriples;
pub mod query;
mod schema;
mod store;
mod term;
mod triple;
pub mod vocab;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use graph::Graph;
pub use interner::TermInterner;
pub use ntriples::ParseError;
pub use schema::{CentralityVectors, SchemaView};
pub use store::TripleStore;
pub use term::{Term, TermId};
pub use triple::{Triple, TriplePattern};
pub use vocab::Vocab;
