//! The temporal-window vocabulary: which slice of the epoch stream a
//! live view covers.

use evorec_versioning::{VersionId, VersionedStore};

/// The horizon of one serving window over a linear epoch stream.
///
/// Every variant fixes how the window's `from` bound moves as epochs
/// commit; the `to` bound is always the stream head. The paper's
/// human-aware reading is that *different curators care about change
/// over different horizons* — a triage dashboard watches the last
/// epoch, a weekly review a sliding band, a release manager everything
/// since the landmark.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WindowSpec {
    /// Exactly the most recent committed epoch (`head − 1 → head`).
    LastEpoch,
    /// The last `k` committed epochs, advancing one epoch at a time.
    /// `SlidingEpochs(1)` equals [`LastEpoch`](WindowSpec::LastEpoch);
    /// `SlidingEpochs(0)` is the degenerate always-empty window.
    SlidingEpochs(usize),
    /// Everything committed within the last `Δt` ticks of the store's
    /// logical clock: the window is anchored at the latest version whose
    /// timestamp is at or before `head_timestamp − Δt` (the manager's
    /// origin while no version is that old). Unlike
    /// [`SlidingEpochs`](WindowSpec::SlidingEpochs), the span is
    /// time-anchored, not count-anchored: idle clock ticks
    /// ([`VersionedStore::advance_clock`] — a stream going quiet) age
    /// epochs out of the band without a commit, so after a gap the
    /// band narrows while an epoch-counted window would still span its
    /// `k`. On a history whose clock only ever ticks at commits, the
    /// two coincide. `SlidingTime(0)` is the degenerate always-empty
    /// window.
    SlidingTime(u64),
    /// Everything since the manager's origin version ("since release").
    Landmark,
    /// Everything after the store's logical commit timestamp `t`: the
    /// window is anchored at the latest version committed at-or-before
    /// `t` (the manager's origin while no such version exists, the
    /// advancing head while the stream has not yet passed `t`).
    Since(u64),
}

impl WindowSpec {
    /// Short human-readable form for dashboards and logs.
    pub fn label(&self) -> String {
        match self {
            WindowSpec::LastEpoch => "last-epoch".into(),
            WindowSpec::SlidingEpochs(k) => format!("sliding-{k}-epochs"),
            WindowSpec::SlidingTime(dt) => format!("sliding-t{dt}"),
            WindowSpec::Landmark => "landmark".into(),
            WindowSpec::Since(t) => format!("since-t{t}"),
        }
    }

    /// The anchor version a [`Since`](WindowSpec::Since) or
    /// [`SlidingTime`](WindowSpec::SlidingTime) window uses over the
    /// history up to `head`: the latest version (≤ `head`) whose
    /// timestamp is at or before `t`, or `origin` when that whole
    /// prefix is newer. Timestamps are strictly increasing (the
    /// store's commit clock), so this is a binary search — it runs
    /// once per commit per time-anchored window, and a linear scan
    /// would make long streams quadratic.
    pub(crate) fn since_anchor(
        store: &VersionedStore,
        t: u64,
        origin: VersionId,
        head: VersionId,
    ) -> VersionId {
        let versions = store.versions();
        let prefix = (head.index() + 1).min(versions.len());
        let newer = versions[..prefix].partition_point(|info| info.timestamp <= t);
        match newer {
            0 => origin,
            at_or_before => versions[at_or_before - 1].id,
        }
    }
}

impl std::fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A named window: the handle curators address recommendations by.
#[derive(Clone, Debug)]
pub struct WindowDef {
    /// Unique name within one manager.
    pub name: String,
    /// The horizon this window maintains.
    pub spec: WindowSpec,
}

impl WindowDef {
    /// Name a window.
    pub fn new(name: impl Into<String>, spec: WindowSpec) -> WindowDef {
        WindowDef {
            name: name.into(),
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::TripleStore;

    #[test]
    fn labels_are_distinct_and_displayed() {
        let labels = [
            WindowSpec::LastEpoch.label(),
            WindowSpec::SlidingEpochs(4).label(),
            WindowSpec::SlidingTime(4).label(),
            WindowSpec::Landmark.label(),
            WindowSpec::Since(7).label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
        assert_eq!(WindowSpec::SlidingEpochs(4).to_string(), "sliding-4-epochs");
        assert_eq!(WindowSpec::SlidingTime(4).to_string(), "sliding-t4");
    }

    #[test]
    fn since_anchor_picks_latest_at_or_before() {
        let mut vs = VersionedStore::new();
        // Timestamps are the store's logical clock: 1, 2, 3.
        let v0 = vs.commit_snapshot("v0", TripleStore::new());
        let v1 = vs.commit_snapshot("v1", TripleStore::new());
        let v2 = vs.commit_snapshot("v2", TripleStore::new());
        let anchor = |t, head| WindowSpec::since_anchor(&vs, t, v0, head);
        assert_eq!(anchor(0, v2), v0, "history all newer");
        assert_eq!(anchor(1, v2), v0);
        assert_eq!(anchor(2, v2), v1);
        assert_eq!(anchor(99, v2), v2);
        // A historical head bounds the scan: versions past it are
        // invisible to a manager anchored before them.
        assert_eq!(anchor(99, v1), v1);
    }
}
