//! User profiles: interests, interaction history, sensitivity.
//!
//! §III of the paper puts "humans in the loop": profiles capture what a
//! curator / editor / end user cares about (interest weights over schema
//! terms), what they have already been shown (novelty history), and
//! whether their change feed is sensitive (anonymity). Profiles are the
//! input to relatedness scoring and the state mutated by feedback.

use evorec_kb::{FxHashMap, FxHashSet, TermId};
use evorec_measures::MeasureId;

/// Identifier of a human in the loop.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u32);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A `(measure, focus)` pair a user has already been shown.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SeenItem {
    /// The measure of the shown item.
    pub measure: MeasureId,
    /// The focus term of the shown item.
    pub focus: TermId,
}

/// One human's interaction state.
#[derive(Clone, Debug)]
pub struct UserProfile {
    /// The user's identifier.
    pub id: UserId,
    /// Display name.
    pub name: String,
    interests: FxHashMap<TermId, f64>,
    seen: FxHashSet<SeenItem>,
    /// `true` if this user's change feed must only ever be disclosed
    /// through the k-anonymous aggregation path (§III(e)).
    pub sensitive: bool,
}

impl UserProfile {
    /// A fresh profile with no interests.
    pub fn new(id: UserId, name: impl Into<String>) -> UserProfile {
        UserProfile {
            id,
            name: name.into(),
            interests: FxHashMap::default(),
            seen: FxHashSet::default(),
            sensitive: false,
        }
    }

    /// Builder-style: set an interest weight (negative weights clamp
    /// to 0).
    pub fn with_interest(mut self, term: TermId, weight: f64) -> UserProfile {
        self.set_interest(term, weight);
        self
    }

    /// Builder-style: mark the profile sensitive.
    pub fn with_sensitive(mut self) -> UserProfile {
        self.sensitive = true;
        self
    }

    /// Set the interest weight of `term` (clamped to ≥ 0; a weight of 0
    /// removes the entry).
    pub fn set_interest(&mut self, term: TermId, weight: f64) {
        let weight = weight.max(0.0);
        if weight == 0.0 {
            self.interests.remove(&term);
        } else {
            self.interests.insert(term, weight);
        }
    }

    /// Additively adjust the interest in `term` (result clamped to ≥ 0).
    pub fn nudge_interest(&mut self, term: TermId, delta: f64) {
        let current = self.interest(term);
        self.set_interest(term, current + delta);
    }

    /// The interest weight of `term` (0 when absent).
    pub fn interest(&self, term: TermId) -> f64 {
        self.interests.get(&term).copied().unwrap_or(0.0)
    }

    /// All `(term, weight)` interests, unordered.
    pub fn interests(&self) -> impl Iterator<Item = (TermId, f64)> + '_ {
        self.interests.iter().map(|(&t, &w)| (t, w))
    }

    /// Number of distinct interest terms.
    pub fn interest_count(&self) -> usize {
        self.interests.len()
    }

    /// Total interest mass.
    pub fn interest_mass(&self) -> f64 {
        self.interests.values().sum()
    }

    /// The `k` strongest interests, descending weight (ties by term id).
    pub fn top_interests(&self, k: usize) -> Vec<(TermId, f64)> {
        let mut all: Vec<(TermId, f64)> = self.interests().collect();
        all.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Record that `(measure, focus)` was shown to this user.
    pub fn record_seen(&mut self, measure: MeasureId, focus: TermId) {
        self.seen.insert(SeenItem { measure, focus });
    }

    /// `true` if `(measure, focus)` was shown before — the novelty signal
    /// of §III(c) ("items that contain new information when compared to
    /// what was previously presented").
    pub fn has_seen(&self, measure: &MeasureId, focus: TermId) -> bool {
        self.seen.contains(&SeenItem {
            measure: measure.clone(),
            focus,
        })
    }

    /// Number of recorded impressions.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }
}

/// A named group of users (§III(d): e.g. "the curators' team of a
/// knowledge base").
#[derive(Clone, Debug)]
pub struct Group {
    /// Group name.
    pub name: String,
    /// Member user ids.
    pub members: Vec<UserId>,
}

impl Group {
    /// Build a group.
    pub fn new(name: impl Into<String>, members: Vec<UserId>) -> Group {
        Group {
            name: name.into(),
            members,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    #[test]
    fn interests_clamp_and_remove() {
        let mut p = UserProfile::new(UserId(1), "alice");
        p.set_interest(t(1), 0.8);
        assert_eq!(p.interest(t(1)), 0.8);
        p.set_interest(t(1), -3.0);
        assert_eq!(p.interest(t(1)), 0.0);
        assert_eq!(p.interest_count(), 0, "zero weight removes the entry");
    }

    #[test]
    fn nudge_accumulates_and_floors() {
        let mut p = UserProfile::new(UserId(1), "alice");
        p.nudge_interest(t(1), 0.5);
        p.nudge_interest(t(1), 0.25);
        assert!((p.interest(t(1)) - 0.75).abs() < 1e-12);
        p.nudge_interest(t(1), -2.0);
        assert_eq!(p.interest(t(1)), 0.0);
    }

    #[test]
    fn top_interests_order_deterministic() {
        let p = UserProfile::new(UserId(1), "a")
            .with_interest(t(3), 0.5)
            .with_interest(t(1), 0.9)
            .with_interest(t(2), 0.5);
        let top = p.top_interests(2);
        assert_eq!(top, vec![(t(1), 0.9), (t(2), 0.5)]);
        assert_eq!(p.interest_mass(), 1.9);
    }

    #[test]
    fn seen_tracking() {
        let mut p = UserProfile::new(UserId(1), "a");
        let m = MeasureId::new("class-change-count");
        assert!(!p.has_seen(&m, t(5)));
        p.record_seen(m.clone(), t(5));
        assert!(p.has_seen(&m, t(5)));
        assert!(!p.has_seen(&m, t(6)));
        assert!(!p.has_seen(&MeasureId::new("other"), t(5)));
        p.record_seen(m.clone(), t(5));
        assert_eq!(p.seen_count(), 1, "idempotent");
    }

    #[test]
    fn sensitivity_flag() {
        let p = UserProfile::new(UserId(2), "bob").with_sensitive();
        assert!(p.sensitive);
        assert!(!UserProfile::new(UserId(3), "eve").sensitive);
    }

    #[test]
    fn group_basics() {
        let g = Group::new("curators", vec![UserId(1), UserId(2)]);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert!(Group::new("empty", vec![]).is_empty());
    }
}
