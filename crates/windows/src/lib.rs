//! # evorec-windows — multi-window temporal serving
//!
//! One epoch stream, many live evolution views. The paper frames
//! evolution-measure recommendation as *human-aware*: different
//! curators care about change over different horizons, yet a single
//! streaming pipeline publishes one context per origin. This crate
//! fans one stream of committed epochs out into any number of
//! concurrently served temporal windows:
//!
//! | Piece | Role |
//! |-------|------|
//! | [`WindowSpec`] / [`WindowDef`] | the horizon vocabulary: last epoch, sliding band, landmark, since-timestamp |
//! | [`WindowManager`] | subscribes to epoch commits ([`EpochSink`]), advances each window's span delta in place, publishes one [`LiveContext`] per window |
//! | [`WindowedRecommender`] | per-window recommendations plus the cross-window [`TrendDiff`] |
//!
//! The load-bearing property: a sliding window advances its span delta
//! in place in O(|evicted ε| + |new ε|) set work
//! ([`LowLevelDelta::extend_by`] with the new epoch,
//! [`LowLevelDelta::strip_front`] with the evicted one, whose delta the
//! store memoised when it committed) — never by re-diffing snapshots — yet
//! every published context is bit-identical, fingerprint included, to a
//! batch build over the same span. Every window's context shares the
//! store's per-version substrates ([`VersionedStore::substrate`]), so
//! an epoch builds the new head's class graph and centralities once,
//! whatever the window count. All windows share one [`ReportCache`]
//! under per-window *lineages*, so one window's epoch swap never evicts
//! reports or derived artefacts another window still serves.
//!
//! [`EpochSink`]: evorec_stream::EpochSink
//! [`LiveContext`]: evorec_stream::LiveContext
//! [`LowLevelDelta::extend_by`]: evorec_versioning::LowLevelDelta::extend_by
//! [`LowLevelDelta::strip_front`]: evorec_versioning::LowLevelDelta::strip_front
//! [`VersionedStore::substrate`]: evorec_versioning::VersionedStore::substrate
//! [`ReportCache`]: evorec_core::ReportCache

#![warn(missing_docs)]

mod manager;
mod recommender;
mod spec;
pub mod slo;

pub use manager::{WindowManager, WindowManagerOptions, WindowManagerStats};
pub use recommender::{
    MeasureTrend, TrendDiff, TrendDirection, WindowedRecommender,
};
pub use spec::{WindowDef, WindowSpec};
