//! Per-measure exposure/acceptance accounting and the exploration
//! policies that blend it into ranking.
//!
//! Every served item is a pull of its *measure*'s arm; the curator's
//! reaction is the reward. The [`BanditBook`] accumulates those pulls;
//! an [`ExplorationPolicy`] turns the ledger into per-measure bonuses
//! for one serving, and an [`ExplorationBoost`] (the [`ScoreBoost`]
//! implementation) blends the bonuses into the MMR objective. All
//! policies are deterministic functions of their seed and the serve
//! counter — replaying a session replays its explorations exactly.

use evorec_core::{Item, ScoreBoost};
use evorec_kb::FxHashMap;
use evorec_measures::MeasureId;
use sched::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::event::Reaction;

/// One measure's cumulative exposure/acceptance ledger.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MeasureStats {
    /// Items of this measure reacted to (arm pulls).
    pub exposures: u64,
    /// Cumulative reward mass ([`Reaction::reward`] per pull).
    pub reward: f64,
    /// Explicit accepts.
    pub accepts: u64,
    /// Explicit rejects.
    pub rejects: u64,
}

impl MeasureStats {
    /// Mean reward per exposure (0 while unexposed).
    pub fn acceptance(&self) -> f64 {
        if self.exposures == 0 {
            0.0
        } else {
            self.reward / self.exposures as f64
        }
    }
}

/// The shared exposure/acceptance ledger, keyed by measure.
#[derive(Default)]
pub struct BanditBook {
    stats: RwLock<FxHashMap<MeasureId, MeasureStats>>,
    observations: AtomicU64,
}

impl BanditBook {
    /// An empty ledger.
    pub fn new() -> BanditBook {
        BanditBook::default()
    }

    /// Record one reaction to an item of `measure`.
    pub fn observe(&self, measure: &MeasureId, reaction: Reaction) {
        self.observations.fetch_add(1, Ordering::Relaxed);
        let mut stats = self.stats.write();
        let entry = stats.entry(measure.clone()).or_default();
        entry.exposures += 1;
        entry.reward += reaction.reward();
        match reaction {
            Reaction::Accept => entry.accepts += 1,
            Reaction::Reject => entry.rejects += 1,
            _ => {}
        }
    }

    /// The ledger of one measure (zeros while unexposed).
    pub fn measure(&self, measure: &MeasureId) -> MeasureStats {
        self.stats.read().get(measure).copied().unwrap_or_default()
    }

    /// A snapshot of the whole ledger (cloned; use
    /// [`with_stats`](BanditBook::with_stats) on hot paths).
    pub fn snapshot(&self) -> FxHashMap<MeasureId, MeasureStats> {
        self.stats.read().clone()
    }

    /// Run `f` over the ledger under its read lock — the allocation-free
    /// accessor the serving path uses (a policy's bonus pass is a brief
    /// read; cloning the id-keyed map per serve is not).
    pub fn with_stats<R>(&self, f: impl FnOnce(&FxHashMap<MeasureId, MeasureStats>) -> R) -> R {
        f(&self.stats.read())
    }

    /// Total reactions recorded.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BanditBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BanditBook")
            .field("measures", &self.stats.read().len())
            .field("observations", &self.observations())
            .finish()
    }
}

/// SplitMix64 finaliser: the deterministic hash underneath every
/// policy's "randomness".
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash (top 53 bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic 64-bit digest of a measure id.
fn measure_digest(measure: &MeasureId) -> u64 {
    measure
        .as_str()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| mix(h ^ u64::from(b)))
}

/// Turns the bandit ledger into per-measure exploration bonuses for one
/// serving.
///
/// Implementations must be pure functions of `(stats, catalogue,
/// serve_ix)` and their own configuration — determinism is what lets a
/// replayed session reproduce its explorations, and what the
/// exploration-off bit-identity guarantee rests on.
pub trait ExplorationPolicy: Send + Sync {
    /// `false` when serving must bypass boosting entirely (the
    /// bit-identical path).
    fn is_active(&self) -> bool {
        true
    }

    /// Per-measure bonuses in `[0, 1]` for serve number `serve_ix`.
    /// Measures absent from the map get no bonus.
    fn bonuses(
        &self,
        stats: &FxHashMap<MeasureId, MeasureStats>,
        catalogue: &[MeasureId],
        serve_ix: u64,
    ) -> FxHashMap<MeasureId, f64>;
}

/// The no-op policy: serving is bit-identical to the plain recommender.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoExploration;

impl ExplorationPolicy for NoExploration {
    fn is_active(&self) -> bool {
        false
    }

    fn bonuses(
        &self,
        _stats: &FxHashMap<MeasureId, MeasureStats>,
        _catalogue: &[MeasureId],
        _serve_ix: u64,
    ) -> FxHashMap<MeasureId, f64> {
        FxHashMap::default()
    }
}

/// ε-greedy over measures: with probability `epsilon` one serving
/// boosts a (seed-deterministically) random measure to full bonus —
/// forcing its regions into contention regardless of history —
/// otherwise each measure is boosted by its empirical mean reward
/// (exploit what curators demonstrably engage with).
#[derive(Copy, Clone, Debug)]
pub struct EpsilonGreedy {
    /// Exploration probability per serving, in `[0, 1]`.
    pub epsilon: f64,
    /// Seed of the deterministic explore/exploit draw.
    pub seed: u64,
}

impl EpsilonGreedy {
    /// A policy exploring an `epsilon` fraction of servings.
    pub fn new(epsilon: f64, seed: u64) -> EpsilonGreedy {
        EpsilonGreedy {
            epsilon: epsilon.clamp(0.0, 1.0),
            seed,
        }
    }
}

impl ExplorationPolicy for EpsilonGreedy {
    fn bonuses(
        &self,
        stats: &FxHashMap<MeasureId, MeasureStats>,
        catalogue: &[MeasureId],
        serve_ix: u64,
    ) -> FxHashMap<MeasureId, f64> {
        let mut bonuses = FxHashMap::default();
        if catalogue.is_empty() {
            return bonuses;
        }
        let draw = mix(self.seed ^ mix(serve_ix));
        if unit(draw) < self.epsilon {
            // Explore: one uniformly drawn measure gets the full bonus.
            let pick = (mix(draw) % catalogue.len() as u64) as usize;
            bonuses.insert(catalogue[pick].clone(), 1.0);
        } else {
            // Exploit: boost by demonstrated engagement.
            for measure in catalogue {
                let acceptance = stats.get(measure).map_or(0.0, MeasureStats::acceptance);
                if acceptance > 0.0 {
                    bonuses.insert(measure.clone(), acceptance);
                }
            }
        }
        bonuses
    }
}

/// Thompson-style per-measure beta scoring: each measure's bonus is a
/// deterministic draw from (an approximation of) its Beta posterior —
/// `Beta(α₀ + reward, β₀ + failures)` — taken as `mean + z·σ` with `z`
/// hashed uniformly from `[-1, 1]`. Barely-exposed measures have wide
/// posteriors and swing into contention; well-understood measures
/// converge to their empirical mean. Optimism scales `σ`'s contribution.
#[derive(Copy, Clone, Debug)]
pub struct ThompsonBeta {
    /// Prior pseudo-successes (α₀ > 0).
    pub prior_alpha: f64,
    /// Prior pseudo-failures (β₀ > 0).
    pub prior_beta: f64,
    /// Scale of the posterior-width term (1 = plain draw).
    pub optimism: f64,
    /// Seed of the deterministic posterior draws.
    pub seed: u64,
}

impl ThompsonBeta {
    /// A policy with the uniform `Beta(1, 1)` prior.
    pub fn new(seed: u64) -> ThompsonBeta {
        ThompsonBeta {
            prior_alpha: 1.0,
            prior_beta: 1.0,
            optimism: 1.0,
            seed,
        }
    }
}

impl ExplorationPolicy for ThompsonBeta {
    fn bonuses(
        &self,
        stats: &FxHashMap<MeasureId, MeasureStats>,
        catalogue: &[MeasureId],
        serve_ix: u64,
    ) -> FxHashMap<MeasureId, f64> {
        let mut bonuses = FxHashMap::default();
        for measure in catalogue {
            let ledger = stats.get(measure).copied().unwrap_or_default();
            let alpha = self.prior_alpha.max(f64::MIN_POSITIVE) + ledger.reward;
            let beta = self.prior_beta.max(f64::MIN_POSITIVE)
                + (ledger.exposures as f64 - ledger.reward).max(0.0);
            let total = alpha + beta;
            let mean = alpha / total;
            let std = (alpha * beta / (total * total * (total + 1.0))).sqrt();
            let z = 2.0 * unit(mix(self.seed ^ mix(serve_ix) ^ measure_digest(measure))) - 1.0;
            bonuses.insert(
                measure.clone(),
                (mean + self.optimism * z * std).clamp(0.0, 1.0),
            );
        }
        bonuses
    }
}

/// The [`ScoreBoost`] blending one serving's exploration bonuses into
/// the MMR objective: `effective + weight · bonus(measure)`. Raw
/// relevance and novelty are untouched — only the selection objective
/// moves, and only by the blend weight.
pub struct ExplorationBoost {
    bonuses: FxHashMap<MeasureId, f64>,
    weight: f64,
}

impl ExplorationBoost {
    /// Blend `bonuses` at `weight`.
    pub fn new(bonuses: FxHashMap<MeasureId, f64>, weight: f64) -> ExplorationBoost {
        ExplorationBoost { bonuses, weight }
    }
}

impl ScoreBoost for ExplorationBoost {
    fn boost(&self, item: &Item, effective: f64) -> f64 {
        match self.bonuses.get(&item.measure) {
            Some(bonus) => effective + self.weight * bonus,
            None => effective,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> MeasureId {
        MeasureId::new(name)
    }

    fn catalogue() -> Vec<MeasureId> {
        vec![m("a"), m("b"), m("c")]
    }

    #[test]
    fn book_accumulates_rewards() {
        let book = BanditBook::new();
        book.observe(&m("a"), Reaction::Accept);
        book.observe(&m("a"), Reaction::Reject);
        book.observe(&m("b"), Reaction::Dwell);
        let a = book.measure(&m("a"));
        assert_eq!(a.exposures, 2);
        assert_eq!(a.accepts, 1);
        assert_eq!(a.rejects, 1);
        assert!((a.acceptance() - 0.5).abs() < 1e-12);
        assert!((book.measure(&m("b")).acceptance() - 0.6).abs() < 1e-12);
        assert_eq!(book.measure(&m("zzz")), MeasureStats::default());
        assert_eq!(book.observations(), 3);
        assert_eq!(book.snapshot().len(), 2);
    }

    #[test]
    fn epsilon_greedy_splits_explore_and_exploit() {
        let policy = EpsilonGreedy::new(0.3, 42);
        let mut stats = FxHashMap::default();
        stats.insert(
            m("a"),
            MeasureStats {
                exposures: 10,
                reward: 8.0,
                accepts: 8,
                rejects: 2,
            },
        );
        let catalogue = catalogue();
        let mut explored = 0;
        for serve in 0..200 {
            let bonuses = policy.bonuses(&stats, &catalogue, serve);
            // Identical inputs → identical bonuses (determinism).
            assert_eq!(bonuses, policy.bonuses(&stats, &catalogue, serve));
            if bonuses.values().any(|&b| b == 1.0) {
                explored += 1;
            } else {
                // Exploit rounds boost only the measured arm.
                assert_eq!(bonuses.len(), 1);
                assert!((bonuses[&m("a")] - 0.8).abs() < 1e-12);
            }
        }
        assert!(
            (30..=90).contains(&explored),
            "ε=0.3 over 200 serves explored {explored}"
        );
        // Degenerate inputs.
        assert!(policy.bonuses(&stats, &[], 0).is_empty());
        assert!(EpsilonGreedy::new(0.0, 1).bonuses(&FxHashMap::default(), &catalogue, 7).is_empty());
    }

    #[test]
    fn thompson_posteriors_tighten_with_evidence() {
        let policy = ThompsonBeta::new(7);
        let catalogue = catalogue();
        let mut stats = FxHashMap::default();
        stats.insert(
            m("a"),
            MeasureStats {
                exposures: 1000,
                reward: 900.0,
                accepts: 900,
                rejects: 100,
            },
        );
        // The well-understood arm stays near its mean across serves;
        // the unexposed arms swing widely around 0.5.
        let (mut a_min, mut a_max) = (1.0f64, 0.0f64);
        let (mut b_min, mut b_max) = (1.0f64, 0.0f64);
        for serve in 0..100 {
            let bonuses = policy.bonuses(&stats, &catalogue, serve);
            assert_eq!(bonuses, policy.bonuses(&stats, &catalogue, serve));
            for (id, bonus) in &bonuses {
                assert!((0.0..=1.0).contains(bonus), "{id}: {bonus}");
            }
            a_min = a_min.min(bonuses[&m("a")]);
            a_max = a_max.max(bonuses[&m("a")]);
            b_min = b_min.min(bonuses[&m("b")]);
            b_max = b_max.max(bonuses[&m("b")]);
        }
        assert!(a_max - a_min < 0.1, "tight posterior: [{a_min}, {a_max}]");
        assert!(b_max - b_min > 0.2, "wide posterior: [{b_min}, {b_max}]");
        assert!(a_min > 0.8, "proven arm scores near its mean");
    }

    #[test]
    fn boost_blends_only_listed_measures() {
        use evorec_kb::TermId;
        use evorec_measures::MeasureCategory;
        let mut bonuses = FxHashMap::default();
        bonuses.insert(m("a"), 0.5);
        let boost = ExplorationBoost::new(bonuses, 0.2);
        let item = |id: &str| {
            Item::new(
                m(id),
                MeasureCategory::ChangeCounting,
                TermId::from_u32(1),
                1.0,
            )
        };
        assert!((boost.boost(&item("a"), 0.3) - 0.4).abs() < 1e-12);
        assert_eq!(boost.boost(&item("b"), 0.3), 0.3);
    }
}
