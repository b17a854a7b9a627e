//! Multi-round recommendation sessions: the closed loop in motion.
//!
//! The paper's processing model is iterative — humans receive measure
//! recommendations, react, and their reactions reshape what they see
//! next. [`simulate_session`] runs that loop against a *reaction oracle*
//! (in experiments: "accept iff the item's focus lies in the user's
//! planted ground-truth region"), recording per-round acceptance so
//! convergence is measurable (experiment E11).

use crate::engine::Recommender;
use crate::feedback::{FeedbackLoop, FeedbackSignal};
use crate::item::Item;
use crate::profile::UserProfile;
use evorec_measures::EvolutionContext;

/// One round of a simulated session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRound {
    /// Round index (0-based).
    pub round: usize,
    /// Items shown this round.
    pub shown: usize,
    /// Items the oracle accepted.
    pub accepted: usize,
    /// Items never shown to this user before this round.
    pub fresh: usize,
    /// accepted / shown (0 when nothing was shown).
    pub acceptance_rate: f64,
    /// The user's total interest mass after the round's feedback.
    pub interest_mass: f64,
}

/// The full trace of a simulated session.
#[derive(Clone, Debug, Default)]
pub struct SessionTrace {
    /// Per-round statistics, in order.
    pub rounds: Vec<SessionRound>,
}

impl SessionTrace {
    /// Mean acceptance rate over all rounds.
    pub fn mean_acceptance(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.acceptance_rate).sum::<f64>() / self.rounds.len() as f64
    }

    /// Acceptance rate of the final round (0 when empty).
    pub fn final_acceptance(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.acceptance_rate)
    }

    /// Total distinct impressions across the session.
    pub fn total_shown(&self) -> usize {
        self.rounds.iter().map(|r| r.shown).sum()
    }
}

/// Run `rounds` recommend→react→update cycles. `oracle` models the
/// human: `true` accepts an item, `false` rejects it. The profile is
/// mutated in place (interests via [`FeedbackLoop`], novelty history via
/// `record_seen`), so later rounds see the learned state.
pub fn simulate_session(
    recommender: &Recommender,
    ctx: &EvolutionContext,
    profile: &mut UserProfile,
    oracle: impl Fn(&Item) -> bool,
    feedback: &FeedbackLoop,
    rounds: usize,
) -> SessionTrace {
    let mut trace = SessionTrace::default();
    for round in 0..rounds {
        let recommendation = recommender.recommend(ctx, profile);
        let mut accepted = 0;
        let mut fresh = 0;
        let shown = recommendation.items.len();
        for scored in &recommendation.items {
            if scored.novelty > 0.0 {
                fresh += 1;
            }
            let signal = if oracle(&scored.item) {
                accepted += 1;
                FeedbackSignal::Accepted
            } else {
                FeedbackSignal::Rejected
            };
            feedback.apply(profile, &scored.item, signal);
        }
        trace.rounds.push(SessionRound {
            round,
            shown,
            accepted,
            fresh,
            acceptance_rate: if shown > 0 {
                accepted as f64 / shown as f64
            } else {
                0.0
            },
            interest_mass: profile.interest_mass(),
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RecommenderConfig;
    use crate::profile::UserId;
    use evorec_kb::{TermId, Triple, TripleStore};
    use evorec_measures::MeasureRegistry;
    use evorec_versioning::VersionedStore;

    /// Two-branch world with churn in both branches.
    fn world() -> (VersionedStore, EvolutionContext, Vec<TermId>, Vec<TermId>) {
        let mut vs = VersionedStore::new();
        let root = vs.intern_iri("http://x/Root");
        let mut left = Vec::new();
        let mut right = Vec::new();
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        for i in 0..4 {
            let l = vs.intern_iri(format!("http://x/L{i}"));
            let r = vs.intern_iri(format!("http://x/R{i}"));
            s0.insert(Triple::new(l, v.rdfs_subclassof, if i == 0 { root } else { left[i - 1] }));
            s0.insert(Triple::new(r, v.rdfs_subclassof, if i == 0 { root } else { right[i - 1] }));
            left.push(l);
            right.push(r);
        }
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        for (ix, (&l, &r)) in left.iter().zip(&right).enumerate() {
            for j in 0..2 {
                let i1 = vs.intern_iri(format!("http://x/il{ix}_{j}"));
                let i2 = vs.intern_iri(format!("http://x/ir{ix}_{j}"));
                s1.insert(Triple::new(i1, v.rdf_type, l));
                s1.insert(Triple::new(i2, v.rdf_type, r));
            }
        }
        let v1 = vs.commit_snapshot("v1", s1);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        (vs, ctx, left, right)
    }

    #[test]
    fn session_learns_the_oracles_taste() {
        let (_vs, ctx, left, _right) = world();
        let recommender = Recommender::new(
            MeasureRegistry::standard(),
            RecommenderConfig {
                top_k: 4,
                novelty_weight: 0.0, // allow repeats so learning is visible
                ..Default::default()
            },
        );
        let mut profile = UserProfile::new(UserId(0), "learner");
        let oracle = |item: &Item| left.contains(&item.focus);
        let trace = simulate_session(
            &recommender,
            &ctx,
            &mut profile,
            oracle,
            &FeedbackLoop::default(),
            6,
        );
        assert_eq!(trace.rounds.len(), 6);
        // Interest mass concentrates on the accepted branch...
        let left_mass: f64 = left.iter().map(|&c| profile.interest(c)).sum();
        assert!(left_mass > 0.0);
        // ...and late-session acceptance is at least as good as round 0
        // (the cold start shows unpersonalised items).
        let first = trace.rounds.first().unwrap().acceptance_rate;
        let last = trace.final_acceptance();
        assert!(
            last >= first,
            "acceptance must not degrade: {first} → {last} ({trace:?})"
        );
    }

    #[test]
    fn novelty_exhausts_the_candidate_pool() {
        let (_vs, ctx, _left, _right) = world();
        let recommender = Recommender::new(
            MeasureRegistry::standard(),
            RecommenderConfig {
                top_k: 4,
                novelty_weight: 1.0, // hard penalty on repeats
                ..Default::default()
            },
        );
        let mut profile = UserProfile::new(UserId(1), "novelty");
        let trace = simulate_session(
            &recommender,
            &ctx,
            &mut profile,
            |_| true,
            &FeedbackLoop::default(),
            4,
        );
        // Fresh impressions can only shrink round over round.
        for pair in trace.rounds.windows(2) {
            assert!(pair[1].fresh <= pair[0].fresh + 4, "{trace:?}");
        }
        assert!(profile.seen_count() > 0);
        assert!(trace.total_shown() >= trace.rounds[0].shown);
    }

    #[test]
    fn rejecting_everything_floors_interest() {
        let (_vs, ctx, ..) = world();
        let recommender = Recommender::with_defaults(MeasureRegistry::standard());
        let mut profile = UserProfile::new(UserId(2), "grump");
        let trace = simulate_session(
            &recommender,
            &ctx,
            &mut profile,
            |_| false,
            &FeedbackLoop::default(),
            3,
        );
        assert_eq!(trace.mean_acceptance(), 0.0);
        assert_eq!(profile.interest_mass(), 0.0, "rejections clamp at zero");
    }

    #[test]
    fn zero_rounds_is_empty_trace() {
        let (_vs, ctx, ..) = world();
        let recommender = Recommender::with_defaults(MeasureRegistry::standard());
        let mut profile = UserProfile::new(UserId(3), "noop");
        let trace = simulate_session(
            &recommender,
            &ctx,
            &mut profile,
            |_| true,
            &FeedbackLoop::default(),
            0,
        );
        assert!(trace.rounds.is_empty());
        assert_eq!(trace.final_acceptance(), 0.0);
    }
}
