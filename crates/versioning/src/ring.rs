//! A bounded ring of per-epoch deltas — what sliding serving windows
//! strip their evicted epochs from.
//!
//! The streaming layer commits one normalised [`LowLevelDelta`] per
//! epoch. A serving window spanning several epochs never needs to
//! re-diff snapshots: its span delta advances in place, in
//! O(|evicted ε| + |new ε|), by extending it with the newest epoch
//! ([`LowLevelDelta::extend_by`]) and stripping the oldest epoch off
//! its front ([`LowLevelDelta::strip_front`]). The ring keeps the
//! recent epochs those strips draw from, bounded so an unbounded
//! stream cannot grow it without limit.

use crate::delta::LowLevelDelta;
use crate::version::VersionId;
use std::collections::VecDeque;
use std::sync::Arc;

/// One committed epoch: the step `from → to` and its normalised delta,
/// stamped with the store's logical commit timestamp.
#[derive(Clone, Debug)]
pub struct EpochEntry {
    /// The head before the epoch committed.
    pub from: VersionId,
    /// The version the epoch committed.
    pub to: VersionId,
    /// The epoch's delta — exactly `compute(snapshot(from), snapshot(to))`.
    pub delta: Arc<LowLevelDelta>,
    /// The store's logical timestamp of `to`.
    pub timestamp: u64,
}

/// A bounded FIFO of consecutive [`EpochEntry`]s, oldest first.
#[derive(Debug)]
pub struct EpochRing {
    entries: VecDeque<EpochEntry>,
    capacity: usize,
}

impl EpochRing {
    /// A ring retaining at most `capacity` epochs (clamped to ≥ 1).
    pub fn new(capacity: usize) -> EpochRing {
        EpochRing {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Append the next epoch, evicting the oldest once over capacity.
    /// Returns the evicted entry, if any.
    ///
    /// # Panics
    /// Panics if `entry` does not extend the newest retained epoch
    /// (`entry.from` must equal the newest entry's `to`): the ring
    /// models one linear epoch stream, and composing across a gap
    /// would silently produce a wrong window delta.
    pub fn push(&mut self, entry: EpochEntry) -> Option<EpochEntry> {
        if let Some(newest) = self.entries.back() {
            assert_eq!(
                newest.to, entry.from,
                "epoch {} → {} does not extend the ring head {}",
                entry.from, entry.to, newest.to
            );
        }
        self.entries.push_back(entry);
        if self.entries.len() > self.capacity {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Number of retained epochs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no epoch is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained epochs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &EpochEntry> {
        self.entries.iter()
    }

    /// The oldest retained epoch.
    pub fn oldest(&self) -> Option<&EpochEntry> {
        self.entries.front()
    }

    /// The newest retained epoch.
    pub fn newest(&self) -> Option<&EpochEntry> {
        self.entries.back()
    }

    /// The retained epoch that begins at `from`, if any. A sliding
    /// window finds its evicted oldest epoch through this lookup and
    /// strips it off its span delta with
    /// [`LowLevelDelta::strip_front`].
    pub fn entry_starting_at(&self, from: VersionId) -> Option<&EpochEntry> {
        // Entries are consecutive: binary-search by start version.
        let ix = self
            .entries
            .binary_search_by(|e| e.from.cmp(&from))
            .ok()?;
        Some(&self.entries[ix])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TermId, Triple};

    fn tr(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(
            TermId::from_u32(s),
            TermId::from_u32(p),
            TermId::from_u32(o),
        )
    }

    fn v(n: u32) -> VersionId {
        VersionId::from_u32(n)
    }

    /// A chain of single-triple epochs V0 → V1 → …, each adding one
    /// fresh triple.
    fn chain(epochs: u32) -> EpochRing {
        let mut ring = EpochRing::new(usize::MAX >> 1);
        for i in 0..epochs {
            ring.push(EpochEntry {
                from: v(i),
                to: v(i + 1),
                delta: Arc::new(LowLevelDelta::from_parts([tr(i, 100, i + 1)], [])),
                timestamp: u64::from(i) + 1,
            });
        }
        ring
    }

    #[test]
    fn push_evicts_fifo_at_capacity() {
        let mut ring = EpochRing::new(2);
        let mk = |i: u32| EpochEntry {
            from: v(i),
            to: v(i + 1),
            delta: Arc::new(LowLevelDelta::new()),
            timestamp: u64::from(i),
        };
        assert!(ring.push(mk(0)).is_none());
        assert!(ring.push(mk(1)).is_none());
        let evicted = ring.push(mk(2)).expect("over capacity");
        assert_eq!(evicted.from, v(0));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.oldest().unwrap().from, v(1));
        assert_eq!(ring.newest().unwrap().to, v(3));
        assert!(!ring.is_empty());
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "does not extend")]
    fn push_rejects_gaps() {
        let mut ring = EpochRing::new(4);
        let mk = |from: u32, to: u32| EpochEntry {
            from: v(from),
            to: v(to),
            delta: Arc::new(LowLevelDelta::new()),
            timestamp: 0,
        };
        ring.push(mk(0, 1));
        ring.push(mk(2, 3));
    }

    #[test]
    fn entry_lookup_by_start() {
        let ring = chain(4);
        assert_eq!(ring.entry_starting_at(v(2)).unwrap().to, v(3));
        assert!(ring.entry_starting_at(v(9)).is_none());
        assert_eq!(ring.iter().count(), 4);
        assert_eq!(ring.oldest().unwrap().from, v(0));
        assert_eq!(ring.newest().unwrap().to, v(4));
    }
}
