//! The feedback loop: recommendations adjust profiles, profiles adjust
//! future recommendations.
//!
//! The paper's processing model has humans both *generate* and *consume*
//! the data; closing the loop means their reactions to recommended
//! measures flow back into their interest profiles. Accepting an item
//! strengthens interest in its focus (scaled by the item's intensity);
//! rejecting weakens it; any reaction marks the item seen so the novelty
//! dimension stops re-surfacing it.

use crate::item::Item;
use crate::profile::UserProfile;

/// A user's reaction to one recommended item.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FeedbackSignal {
    /// The user opened / used the recommendation.
    Accepted,
    /// The user dismissed it.
    Rejected,
    /// The user scrolled past.
    Ignored,
}

/// Profile-update policy.
#[derive(Clone, Copy, Debug)]
pub struct FeedbackLoop {
    /// Step size of interest updates.
    pub learning_rate: f64,
    /// Fraction of the step applied on `Ignored` (as a weak negative).
    pub ignore_discount: f64,
}

impl Default for FeedbackLoop {
    fn default() -> Self {
        FeedbackLoop {
            learning_rate: 0.1,
            ignore_discount: 0.1,
        }
    }
}

impl FeedbackLoop {
    /// Apply one feedback event to `profile`. Returns the interest delta
    /// applied to the item's focus.
    pub fn apply(
        &self,
        profile: &mut UserProfile,
        item: &Item,
        signal: FeedbackSignal,
    ) -> f64 {
        // Strong signals move interest proportionally to how intense the
        // evolution evidence was: accepting a weak signal says less than
        // accepting a screaming one.
        let magnitude = self.learning_rate * (0.5 + item.intensity / 2.0);
        let delta = match signal {
            FeedbackSignal::Accepted => magnitude,
            FeedbackSignal::Rejected => -magnitude,
            FeedbackSignal::Ignored => -magnitude * self.ignore_discount,
        };
        profile.nudge_interest(item.focus, delta);
        profile.record_seen(item.measure.clone(), item.focus);
        delta
    }

    /// Apply a batch of `(item, signal)` events.
    pub fn apply_all<'a>(
        &self,
        profile: &mut UserProfile,
        events: impl IntoIterator<Item = (&'a Item, FeedbackSignal)>,
    ) {
        for (item, signal) in events {
            self.apply(profile, item, signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::UserId;
    use evorec_kb::TermId;
    use evorec_measures::{MeasureCategory, MeasureId};

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn item(focus: u32, intensity: f64) -> Item {
        Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(focus),
            intensity,
        )
    }

    #[test]
    fn accept_strengthens_interest() {
        let mut p = UserProfile::new(UserId(1), "a").with_interest(t(1), 0.5);
        let delta = FeedbackLoop::default().apply(&mut p, &item(1, 1.0), FeedbackSignal::Accepted);
        assert!(delta > 0.0);
        assert!((p.interest(t(1)) - 0.6).abs() < 1e-12, "0.5 + 0.1·(0.5+0.5)");
    }

    #[test]
    fn reject_weakens_interest_with_floor() {
        let mut p = UserProfile::new(UserId(1), "a").with_interest(t(1), 0.05);
        FeedbackLoop::default().apply(&mut p, &item(1, 1.0), FeedbackSignal::Rejected);
        assert_eq!(p.interest(t(1)), 0.0, "clamped at zero");
    }

    #[test]
    fn intensity_scales_update() {
        let loop_ = FeedbackLoop::default();
        let mut weak = UserProfile::new(UserId(1), "a");
        let mut strong = UserProfile::new(UserId(2), "b");
        let d_weak = loop_.apply(&mut weak, &item(1, 0.0), FeedbackSignal::Accepted);
        let d_strong = loop_.apply(&mut strong, &item(1, 1.0), FeedbackSignal::Accepted);
        assert!(d_strong > d_weak);
        assert!((d_strong / d_weak - 2.0).abs() < 1e-12, "0.1·1.0 vs 0.1·0.5");
    }

    #[test]
    fn ignore_is_a_weak_negative() {
        let loop_ = FeedbackLoop::default();
        let mut p = UserProfile::new(UserId(1), "a").with_interest(t(1), 0.5);
        let delta = loop_.apply(&mut p, &item(1, 1.0), FeedbackSignal::Ignored);
        assert!(delta < 0.0);
        assert!(delta.abs() < loop_.learning_rate * 0.5);
    }

    #[test]
    fn every_signal_marks_seen() {
        for signal in [
            FeedbackSignal::Accepted,
            FeedbackSignal::Rejected,
            FeedbackSignal::Ignored,
        ] {
            let mut p = UserProfile::new(UserId(1), "a");
            let it = item(7, 0.5);
            FeedbackLoop::default().apply(&mut p, &it, signal);
            assert!(p.has_seen(&it.measure, t(7)), "{signal:?}");
        }
    }

    #[test]
    fn batch_application() {
        let mut p = UserProfile::new(UserId(1), "a");
        let items = [item(1, 1.0), item(2, 1.0)];
        FeedbackLoop::default().apply_all(
            &mut p,
            [
                (&items[0], FeedbackSignal::Accepted),
                (&items[1], FeedbackSignal::Accepted),
            ],
        );
        assert!(p.interest(t(1)) > 0.0);
        assert!(p.interest(t(2)) > 0.0);
        assert_eq!(p.seen_count(), 2);
    }

    #[test]
    fn closed_loop_converges_interest_upwards() {
        // Repeated acceptance grows interest monotonically.
        let loop_ = FeedbackLoop::default();
        let mut p = UserProfile::new(UserId(1), "a");
        let it = item(3, 0.8);
        let mut last = 0.0;
        for _ in 0..10 {
            loop_.apply(&mut p, &it, FeedbackSignal::Accepted);
            let now = p.interest(t(3));
            assert!(now > last);
            last = now;
        }
    }
}
