//! Snapshot-to-snapshot differencing with a counter-monotonicity
//! check.
//!
//! A scrape loop that derives rates from two successive
//! [`MetricsSnapshot`]s needs two guarantees the raw sample lists do
//! not give it: a stable per-series identity (the
//! [`series_key`](Sample::series_key) — name plus sorted label set)
//! and the assurance that a counter never went *down* between the two
//! snapshots. A decreasing counter is always a defect somewhere — a
//! source re-registering from zero, a wrapping subtraction, a stats
//! struct resetting under a consumer — and silently deriving a
//! negative (or hugely wrapped) rate from it would poison every
//! rollup downstream. [`MetricsSnapshot::diff`] therefore surfaces
//! every decrease on a monotonic series as an explicit
//! [`CounterRegression`] instead of a delta, so the caller can skip
//! the rate, count the defect, and keep going.

use crate::source::{MetricsSnapshot, Sample, SampleKind, SampleValue};
use std::collections::BTreeMap;

/// One series present in both snapshots, with its two readings.
#[derive(Clone, Debug)]
pub struct SeriesDelta {
    /// The series key (see [`Sample::series_key`]).
    pub key: String,
    /// The family kind (shared by both readings).
    pub kind: SampleKind,
    /// True for counter-like series (see [`Sample::is_monotonic`]).
    pub monotonic: bool,
    /// The older reading.
    pub previous: SampleValue,
    /// The newer reading.
    pub current: SampleValue,
}

impl SeriesDelta {
    /// `current - previous` as a float (negative for decreases).
    pub fn delta(&self) -> f64 {
        self.current.as_f64() - self.previous.as_f64()
    }
}

/// A monotonic series that *decreased* between the two snapshots —
/// always a defect in the emitting source, never a valid rate input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterRegression {
    /// The offending series key.
    pub key: String,
    /// The older (larger) reading.
    pub previous: u64,
    /// The newer (smaller) reading.
    pub current: u64,
}

/// The difference between two snapshots of the same registry.
#[derive(Clone, Debug, Default)]
pub struct SnapshotDiff {
    /// Series present in both snapshots, key-sorted. Monotonic series
    /// that regressed are *not* listed here (see
    /// [`regressions`](SnapshotDiff::regressions)).
    pub deltas: Vec<SeriesDelta>,
    /// Series keys present only in the newer snapshot (new sources or
    /// first-touch registrations), key-sorted.
    pub appeared: Vec<String>,
    /// Series keys present only in the older snapshot (a source
    /// dropped out), key-sorted.
    pub vanished: Vec<String>,
    /// Monotonic series that decreased — flagged so rate derivation
    /// can never go negative silently, key-sorted.
    pub regressions: Vec<CounterRegression>,
}

impl MetricsSnapshot {
    /// Diff this (newer) snapshot against `previous` (older), keyed by
    /// [`Sample::series_key`].
    ///
    /// Monotonic series (counters and summary `_sum`/`_count` parts)
    /// that decreased are routed into
    /// [`regressions`](SnapshotDiff::regressions) instead of
    /// [`deltas`](SnapshotDiff::deltas); gauges and quantiles may move
    /// in either direction and always produce a delta. If a key
    /// somehow appears more than once in a snapshot, the last
    /// occurrence wins (snapshots are sorted, so this is
    /// deterministic).
    pub fn diff(&self, previous: &MetricsSnapshot) -> SnapshotDiff {
        let mut old: BTreeMap<String, &Sample> = BTreeMap::new();
        for s in &previous.samples {
            old.insert(s.series_key(), s);
        }
        let mut new_keys: BTreeMap<String, ()> = BTreeMap::new();
        let mut diff = SnapshotDiff::default();
        for s in &self.samples {
            let key = s.series_key();
            new_keys.insert(key.clone(), ());
            let Some(prev) = old.get(&key) else {
                diff.appeared.push(key);
                continue;
            };
            let monotonic = s.is_monotonic();
            if monotonic && s.value.as_u64() < prev.value.as_u64() {
                diff.regressions.push(CounterRegression {
                    key,
                    previous: prev.value.as_u64(),
                    current: s.value.as_u64(),
                });
                continue;
            }
            diff.deltas.push(SeriesDelta {
                key,
                kind: s.kind,
                monotonic,
                previous: prev.value,
                current: s.value,
            });
        }
        for key in old.keys() {
            if !new_keys.contains_key(key) {
                diff.vanished.push(key.clone());
            }
        }
        // Snapshots are `(family, suffix, labels)`-sorted, which is not
        // byte order of the rendered key; re-sort for the documented
        // key-sorted contract.
        diff.deltas.sort_by(|a, b| a.key.cmp(&b.key));
        diff.appeared.sort();
        diff.regressions.sort_by(|a, b| a.key.cmp(&b.key));
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FixedSource;
    use crate::MetricsRegistry;
    use std::sync::Arc;

    fn snap_of(samples: Vec<Sample>) -> MetricsSnapshot {
        MetricsSnapshot { samples }
    }

    #[test]
    fn series_key_is_name_plus_sorted_labels() {
        let bare = Sample::counter("evorec_x_total", 1);
        assert_eq!(bare.series_key(), "evorec_x_total");
        let labelled = Sample::gauge("evorec_depth", 3)
            .with_label("window", "band")
            .with_label("lineage", "a\"b");
        assert_eq!(
            labelled.series_key(),
            "evorec_depth{lineage=\"a\\\"b\",window=\"band\"}"
        );
    }

    #[test]
    fn increasing_counter_yields_delta() {
        let old = snap_of(vec![Sample::counter("evorec_hits_total", 10)]);
        let new = snap_of(vec![Sample::counter("evorec_hits_total", 25)]);
        let diff = new.diff(&old);
        assert_eq!(diff.deltas.len(), 1);
        assert!(diff.deltas[0].monotonic);
        assert_eq!(diff.deltas[0].delta(), 15.0);
        assert!(diff.regressions.is_empty());
    }

    #[test]
    fn decreasing_counter_is_flagged_not_dated() {
        let old = snap_of(vec![Sample::counter("evorec_hits_total", 25)]);
        let new = snap_of(vec![Sample::counter("evorec_hits_total", 10)]);
        let diff = new.diff(&old);
        assert!(diff.deltas.is_empty(), "regression must not masquerade as a delta");
        assert_eq!(
            diff.regressions,
            vec![CounterRegression {
                key: "evorec_hits_total".to_string(),
                previous: 25,
                current: 10,
            }]
        );
    }

    #[test]
    fn summary_count_is_monotonic_quantile_is_not() {
        let old = snap_of(vec![
            Sample::summary_part("evorec_nanos", "_count", 9),
            Sample::summary_quantile("evorec_nanos", "0.99", 100),
        ]);
        let new = snap_of(vec![
            Sample::summary_part("evorec_nanos", "_count", 4),
            Sample::summary_quantile("evorec_nanos", "0.99", 50),
        ]);
        let diff = new.diff(&old);
        // The decreasing _count regresses; the falling quantile is a
        // legitimate movement.
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].key, "evorec_nanos_count");
        assert_eq!(diff.deltas.len(), 1);
        assert!(!diff.deltas[0].monotonic);
        assert_eq!(diff.deltas[0].delta(), -50.0);
    }

    #[test]
    fn gauges_move_freely_and_membership_changes_are_reported() {
        let old = snap_of(vec![
            Sample::gauge("evorec_depth", 8),
            Sample::counter("evorec_gone_total", 1),
        ]);
        let new = snap_of(vec![
            Sample::gauge("evorec_depth", 3),
            Sample::counter("evorec_new_total", 1),
        ]);
        let diff = new.diff(&old);
        assert_eq!(diff.deltas.len(), 1);
        assert_eq!(diff.deltas[0].delta(), -5.0);
        assert_eq!(diff.appeared, vec!["evorec_new_total".to_string()]);
        assert_eq!(diff.vanished, vec!["evorec_gone_total".to_string()]);
        assert!(diff.regressions.is_empty());
    }

    #[test]
    fn registry_snapshots_roundtrip_through_diff() {
        let reg = MetricsRegistry::new();
        let source = Arc::new(FixedSource::new(vec![
            Sample::counter("evorec_events_total", 5),
            Sample::gauge("evorec_live", 2),
        ]));
        reg.register_source(Arc::clone(&source) as Arc<dyn crate::MetricsSource>);
        let old = reg.snapshot();
        source.set(vec![
            Sample::counter("evorec_events_total", 12),
            Sample::gauge("evorec_live", 1),
        ]);
        let new = reg.snapshot();
        let diff = new.diff(&old);
        assert_eq!(diff.deltas.len(), 2);
        let events = diff
            .deltas
            .iter()
            .find(|d| d.key == "evorec_events_total")
            .expect("counter present");
        assert_eq!(events.delta(), 7.0);
        assert!(diff.regressions.is_empty());
        // Identical snapshots diff to all-zero deltas.
        let same = new.diff(&new);
        assert!(same.deltas.iter().all(|d| d.delta() == 0.0));
        assert!(same.appeared.is_empty() && same.vanished.is_empty());
    }
}
