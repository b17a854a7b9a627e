//! # evorec-versioning — versioned knowledge bases, deltas, provenance
//!
//! The dynamicity substrate under the evolution-measure recommender
//! (ICDE'17 reproduction). Provides:
//!
//! - [`VersionedStore`] — a linear snapshot history over one shared
//!   interner, with memoised pairwise deltas, schema views and
//!   per-version graph substrates; each commit memoises its epoch's
//!   delta, which sliding serving windows strip their evicted epochs
//!   with instead of re-diffing snapshots;
//! - [`VersionSubstrate`] — one version's class graph, betweenness,
//!   bridging centrality and snapshot digests, computed once and shared
//!   by every evolution step over the version; consecutive versions
//!   with equal class graphs share one graph and its centralities;
//! - [`LowLevelDelta`] — δ⁺/δ⁻ triple sets with apply/invert, in-place
//!   span extension and stripping, and the per-term restriction δ(n) of
//!   the paper's §II(a);
//! - [`ChangeSet`] / [`Change`] — high-level change detection after
//!   Roussakis et al. (ISWC 2015), the paper's reference \[11\];
//! - [`ProvenanceLedger`] — who/when/why capture for the transparency
//!   perspective (§III(b));
//! - [`Archive`] / [`ArchivePolicy`] — archiving policies after
//!   Stefanidis et al. (ER 2014), the paper's reference \[13\];
//! - [`Timeline`] / [`Trend`] — per-term change series over whole
//!   histories ("observe changes trends", §I);
//! - [`codec`] — a compact delta wire format after Cloran & Irwin,
//!   the paper's reference \[2\].

#![warn(missing_docs)]

mod archive;
mod changes;
pub mod codec;
mod delta;
mod provenance;
mod store;
mod substrate;
mod timeline;
mod validate;
mod version;

pub use archive::{Archive, ArchivePolicy, ArchiveStats};
pub use changes::{describe_all, Change, ChangeKind, ChangeSet};
pub use codec::{decode_delta, encode_delta, CodecError};
pub use delta::LowLevelDelta;
pub use provenance::{Justification, ProvenanceLedger, ProvenanceRecord, RecordId};
pub use store::VersionedStore;
pub use substrate::{StepEnd, VersionSubstrate};
pub use timeline::{classify_trend, Timeline, Trend};
pub use validate::{validate_snapshot, ValidationIssue};
pub use version::{VersionId, VersionInfo};
