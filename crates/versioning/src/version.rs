//! Version identifiers and metadata.

use std::fmt;

/// Identifier of one version (snapshot) in a linear history.
///
/// Versions are numbered densely from zero in commit order, so a
/// `VersionId` doubles as an index into the history.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(u32);

impl VersionId {
    /// Construct from a raw index.
    #[inline]
    pub const fn from_u32(raw: u32) -> Self {
        VersionId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// As a `usize` index into history storage.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The immediately preceding version, if any.
    pub fn predecessor(self) -> Option<VersionId> {
        self.0.checked_sub(1).map(VersionId)
    }
}

impl fmt::Debug for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

impl fmt::Display for VersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.0)
    }
}

/// Metadata describing one committed version.
#[derive(Clone, Debug)]
pub struct VersionInfo {
    /// The version's identifier.
    pub id: VersionId,
    /// Human-readable label (e.g. `"2016-04 release"`).
    pub label: String,
    /// Logical commit timestamp (monotonically increasing).
    pub timestamp: u64,
    /// The version this one evolved from (`None` for the initial commit).
    pub parent: Option<VersionId>,
    /// Number of triples in the snapshot at commit time.
    pub triple_count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_by_commit_index() {
        assert!(VersionId::from_u32(0) < VersionId::from_u32(1));
        assert_eq!(VersionId::from_u32(4).index(), 4);
        assert_eq!(VersionId::from_u32(4).as_u32(), 4);
    }

    #[test]
    fn predecessor_walks_back_to_none() {
        assert_eq!(
            VersionId::from_u32(2).predecessor(),
            Some(VersionId::from_u32(1))
        );
        assert_eq!(VersionId::from_u32(0).predecessor(), None);
    }

    #[test]
    fn display_is_v_prefixed() {
        assert_eq!(VersionId::from_u32(3).to_string(), "V3");
        assert_eq!(format!("{:?}", VersionId::from_u32(3)), "V3");
    }
}
