//! # evorec-measures — evolution measures over versioned knowledge bases
//!
//! Implements Section II of ICDE'17 "On Recommending Evolution Measures":
//! a catalogue of measures quantifying "the intensity of the changes that
//! a piece of a knowledge base underwent", all behind one
//! [`EvolutionMeasure`] trait evaluated against a shared
//! [`EvolutionContext`]:
//!
//! | §  | Measure | Type |
//! |----|---------|------|
//! | II(a) | [`ClassChangeCount`], [`PropertyChangeCount`] | counting |
//! | II(b) | [`NeighbourhoodChangeCount`] (any radius) | neighbourhood |
//! | II(c) | [`BetweennessShift`], [`BridgingShift`], [`DegreeShift`] | structural |
//! | II(d) | [`InCentralityShift`], [`OutCentralityShift`], [`RelevanceShift`] | semantic |
//!
//! [`MeasureRegistry::standard`] bundles the full catalogue; the
//! [`similarity`] module provides the rank-distances (Kendall τ,
//! Spearman ρ, Jaccard@k) that the recommender's diversity dimension and
//! the E3 complementarity experiment are built on.

#![warn(missing_docs)]

mod change_count;
mod context;
mod extensions;
mod measure;
mod neighbourhood;
mod registry;
mod report;
mod semantic;
pub mod similarity;
mod structural;

pub use change_count::{ClassChangeCount, PropertyChangeCount};
pub use context::{ContextFingerprint, EvolutionContext};
pub use extensions::{
    InstanceEntropyShift, PropertyImportanceShift, PropertyNeighbourhoodChangeCount,
};
pub use measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
pub use neighbourhood::NeighbourhoodChangeCount;
pub use registry::MeasureRegistry;
pub use report::MeasureReport;
pub use semantic::{InCentralityShift, OutCentralityShift, RelevanceShift};
pub use structural::{BetweennessShift, BridgingShift, DegreeShift};
