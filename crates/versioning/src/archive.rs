//! Archiving policies for version histories.
//!
//! Realises the archiving-policy design space of Stefanidis et al.
//! (ER 2014) — reference [13] of the paper — which the paper cites as the
//! substrate for "accessing previous versions of a dataset to support
//! historical or cross-snapshot queries". Three policies trade storage
//! for reconstruction cost:
//!
//! - [`ArchivePolicy::FullSnapshots`] stores every version materialised:
//!   maximal storage, zero reconstruction work.
//! - [`ArchivePolicy::DeltaChain`] stores the first version plus deltas:
//!   minimal storage, reconstruction replays the chain.
//! - [`ArchivePolicy::Hybrid`] checkpoints a full snapshot every `k`
//!   versions: bounded replay length.

use crate::delta::LowLevelDelta;
use crate::store::VersionedStore;
use crate::version::VersionId;
use evorec_kb::TripleStore;

/// How a version history is persisted.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ArchivePolicy {
    /// Materialise every version.
    FullSnapshots,
    /// Materialise the first version; store deltas for the rest.
    DeltaChain,
    /// Materialise every `full_every`-th version; deltas in between.
    Hybrid {
        /// Checkpoint period (must be ≥ 1).
        full_every: usize,
    },
}

impl ArchivePolicy {
    /// Short policy name for report tables.
    pub fn name(self) -> String {
        match self {
            ArchivePolicy::FullSnapshots => "full".into(),
            ArchivePolicy::DeltaChain => "delta".into(),
            ArchivePolicy::Hybrid { full_every } => format!("hybrid({full_every})"),
        }
    }
}

enum Entry {
    Snapshot(TripleStore),
    Delta(LowLevelDelta),
}

/// A version history persisted under a given [`ArchivePolicy`], with cost
/// accounting.
pub struct Archive {
    policy: ArchivePolicy,
    entries: Vec<Entry>,
}

/// Storage/retrieval cost summary of an [`Archive`].
#[derive(Clone, Debug, PartialEq)]
pub struct ArchiveStats {
    /// The policy the archive was built under.
    pub policy_name: String,
    /// Total triples stored across snapshots.
    pub snapshot_triples: usize,
    /// Total triples stored across deltas (added + removed).
    pub delta_triples: usize,
    /// Number of materialised snapshots.
    pub snapshots: usize,
    /// Number of stored deltas.
    pub deltas: usize,
    /// Mean number of delta applications to materialise a version,
    /// averaged over all versions.
    pub mean_reconstruction_steps: f64,
}

impl ArchiveStats {
    /// Total stored triples (snapshot + delta payloads) — the storage-cost
    /// axis of the E9 ablation.
    pub fn total_stored_triples(&self) -> usize {
        self.snapshot_triples + self.delta_triples
    }
}

impl Archive {
    /// Persist the full history of `store` under `policy`.
    ///
    /// # Panics
    /// Panics if `policy` is `Hybrid { full_every: 0 }`.
    pub fn build(store: &VersionedStore, policy: ArchivePolicy) -> Archive {
        if let ArchivePolicy::Hybrid { full_every } = policy {
            assert!(full_every >= 1, "hybrid checkpoint period must be >= 1");
        }
        let mut entries = Vec::with_capacity(store.version_count());
        for v in store.versions() {
            let ix = v.id.index();
            let materialise = match policy {
                ArchivePolicy::FullSnapshots => true,
                ArchivePolicy::DeltaChain => ix == 0,
                ArchivePolicy::Hybrid { full_every } => ix % full_every == 0,
            };
            if materialise {
                entries.push(Entry::Snapshot(store.snapshot(v.id).clone()));
            } else {
                let prev = VersionId::from_u32(v.id.as_u32() - 1);
                entries.push(Entry::Delta(store.delta(prev, v.id).as_ref().clone()));
            }
        }
        Archive { policy, entries }
    }

    /// The policy this archive was built under.
    pub fn policy(&self) -> ArchivePolicy {
        self.policy
    }

    /// Number of archived versions.
    pub fn version_count(&self) -> usize {
        self.entries.len()
    }

    /// Reconstruct the snapshot of `version`, replaying deltas from the
    /// nearest earlier checkpoint. Returns the snapshot and the number of
    /// delta applications performed.
    pub fn materialize(&self, version: VersionId) -> Option<(TripleStore, usize)> {
        let target = version.index();
        if target >= self.entries.len() {
            return None;
        }
        // Find nearest checkpoint at or before target.
        let base = (0..=target).rev().find(|&ix| matches!(self.entries[ix], Entry::Snapshot(_)))?;
        let mut current = match &self.entries[base] {
            Entry::Snapshot(s) => s.clone(),
            Entry::Delta(_) => unreachable!("base index points at a snapshot"),
        };
        let mut steps = 0;
        for entry in &self.entries[base + 1..=target] {
            match entry {
                Entry::Delta(d) => {
                    current = d.apply(current);
                    steps += 1;
                }
                Entry::Snapshot(s) => {
                    current = s.clone();
                }
            }
        }
        Some((current, steps))
    }

    /// Cost summary over the whole archive.
    pub fn stats(&self) -> ArchiveStats {
        let mut snapshot_triples = 0;
        let mut delta_triples = 0;
        let mut snapshots = 0;
        let mut deltas = 0;
        for e in &self.entries {
            match e {
                Entry::Snapshot(s) => {
                    snapshot_triples += s.len();
                    snapshots += 1;
                }
                Entry::Delta(d) => {
                    delta_triples += d.size();
                    deltas += 1;
                }
            }
        }
        let total_steps: usize = (0..self.entries.len())
            .map(|ix| {
                let base = (0..=ix)
                    .rev()
                    .find(|&j| matches!(self.entries[j], Entry::Snapshot(_)))
                    .unwrap_or(0);
                ix - base
            })
            .sum();
        let mean_reconstruction_steps = if self.entries.is_empty() {
            0.0
        } else {
            total_steps as f64 / self.entries.len() as f64
        };
        ArchiveStats {
            policy_name: self.policy.name(),
            snapshot_triples,
            delta_triples,
            snapshots,
            deltas,
            mean_reconstruction_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VersionedStore;
    use evorec_kb::{Term, Triple};

    /// A five-version history where each version adds one instance triple
    /// and version 3 also retracts one.
    fn history() -> VersionedStore {
        let mut vs = VersionedStore::new();
        let p = vs.intern(Term::iri("http://x/p"));
        let mut triples = Vec::new();
        for i in 0..5u32 {
            let s = vs.intern(Term::iri(format!("http://x/s{i}")));
            let o = vs.intern(Term::iri(format!("http://x/o{i}")));
            triples.push(Triple::new(s, p, o));
            let mut snap: Vec<Triple> = triples.clone();
            if i >= 3 {
                snap.remove(0);
            }
            vs.commit_snapshot(format!("v{i}"), snap.into_iter().collect());
        }
        vs
    }

    #[test]
    fn all_policies_materialise_identically() {
        let vs = history();
        for policy in [
            ArchivePolicy::FullSnapshots,
            ArchivePolicy::DeltaChain,
            ArchivePolicy::Hybrid { full_every: 2 },
        ] {
            let archive = Archive::build(&vs, policy);
            for v in vs.versions() {
                let (got, _) = archive.materialize(v.id).unwrap();
                assert_eq!(
                    &got,
                    vs.snapshot(v.id),
                    "{} at {}",
                    policy.name(),
                    v.id
                );
            }
        }
    }

    #[test]
    fn full_snapshots_need_no_replay() {
        let vs = history();
        let archive = Archive::build(&vs, ArchivePolicy::FullSnapshots);
        for v in vs.versions() {
            let (_, steps) = archive.materialize(v.id).unwrap();
            assert_eq!(steps, 0);
        }
        let stats = archive.stats();
        assert_eq!(stats.deltas, 0);
        assert_eq!(stats.snapshots, 5);
        assert_eq!(stats.mean_reconstruction_steps, 0.0);
    }

    #[test]
    fn delta_chain_replays_proportionally() {
        let vs = history();
        let archive = Archive::build(&vs, ArchivePolicy::DeltaChain);
        let (_, steps) = archive.materialize(VersionId::from_u32(4)).unwrap();
        assert_eq!(steps, 4);
        let stats = archive.stats();
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.deltas, 4);
        // Storage strictly below full snapshots for this growing history.
        let full = Archive::build(&vs, ArchivePolicy::FullSnapshots).stats();
        assert!(stats.total_stored_triples() < full.total_stored_triples());
    }

    #[test]
    fn hybrid_bounds_replay_length() {
        let vs = history();
        let archive = Archive::build(&vs, ArchivePolicy::Hybrid { full_every: 2 });
        for v in vs.versions() {
            let (_, steps) = archive.materialize(v.id).unwrap();
            assert!(steps < 2, "{:?} took {steps} steps", v.id);
        }
    }

    #[test]
    fn materialize_out_of_range_is_none() {
        let vs = history();
        let archive = Archive::build(&vs, ArchivePolicy::DeltaChain);
        assert!(archive.materialize(VersionId::from_u32(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "checkpoint period")]
    fn hybrid_zero_rejected() {
        let vs = history();
        let _ = Archive::build(&vs, ArchivePolicy::Hybrid { full_every: 0 });
    }

    #[test]
    fn policy_names() {
        assert_eq!(ArchivePolicy::FullSnapshots.name(), "full");
        assert_eq!(ArchivePolicy::DeltaChain.name(), "delta");
        assert_eq!(ArchivePolicy::Hybrid { full_every: 3 }.name(), "hybrid(3)");
    }
}
