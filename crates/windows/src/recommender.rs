//! Per-window recommendation serving and the cross-window trend diff.

use crate::manager::WindowManager;
use evorec_core::{Recommendation, Recommender, RecommenderConfig, UserProfile};
use evorec_measures::{EvolutionContext, MeasureId, MeasureRegistry};
use std::sync::Arc;

/// Where a measure's relevance is heading as the horizon widens.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TrendDirection {
    /// Scores grow from the narrowest to the widest window: the signal
    /// is persistent, not a blip.
    Rising,
    /// Scores shrink as the horizon widens: a recent burst.
    Falling,
    /// No meaningful change across horizons.
    Steady,
}

/// One measure's trajectory across every window, narrow → wide.
#[derive(Clone, Debug)]
pub struct MeasureTrend {
    /// The measure.
    pub measure: MeasureId,
    /// Relatedness score per window, aligned with
    /// [`TrendDiff::windows`].
    pub scores: Vec<f64>,
    /// Widest-horizon score minus narrowest-horizon score.
    pub shift: f64,
    /// Classification of `shift`.
    pub direction: TrendDirection,
}

/// The cross-window view a curator dashboard renders: which measures
/// rise and which fall as the horizon widens from the last epoch
/// towards the landmark.
#[derive(Clone, Debug)]
pub struct TrendDiff {
    /// Window names ordered by current span, narrowest first (ties keep
    /// definition order).
    pub windows: Vec<String>,
    /// One trend per catalogue measure, strongest |shift| first.
    pub trends: Vec<MeasureTrend>,
}

impl TrendDiff {
    /// The trends classified `direction`, strongest first.
    pub fn with_direction(
        &self,
        direction: TrendDirection,
    ) -> impl Iterator<Item = &MeasureTrend> {
        self.trends.iter().filter(move |t| t.direction == direction)
    }
}

/// Shifts within this magnitude count as [`TrendDirection::Steady`]
/// (scores are min-max-normalised relatednesses, so this is far below
/// any meaningful signal).
const STEADY_EPSILON: f64 = 1e-9;

/// Serves recommendations against every live window of a
/// [`WindowManager`] — the curator-dashboard facade.
///
/// One [`Recommender`] answers for all windows; when the manager has a
/// serving pair, the recommender shares its [`ReportCache`], so
/// per-window requests land on the reports each window's publishes
/// pre-warmed.
///
/// [`ReportCache`]: evorec_core::ReportCache
pub struct WindowedRecommender {
    manager: Arc<WindowManager>,
    recommender: Recommender,
}

impl WindowedRecommender {
    /// Build over `manager` with an explicit catalogue/configuration,
    /// sharing the manager's report cache when it has one.
    pub fn new(
        manager: Arc<WindowManager>,
        registry: MeasureRegistry,
        config: RecommenderConfig,
    ) -> WindowedRecommender {
        let recommender = match manager.serving() {
            Some((_, cache)) => Recommender::with_cache(registry, config, Arc::clone(cache)),
            None => Recommender::new(registry, config),
        };
        WindowedRecommender {
            manager,
            recommender,
        }
    }

    /// The window manager served from.
    pub fn manager(&self) -> &Arc<WindowManager> {
        &self.manager
    }

    /// The underlying recommender.
    pub fn recommender(&self) -> &Recommender {
        &self.recommender
    }

    /// The current context of the window called `name`.
    pub fn context(&self, name: &str) -> Option<Arc<EvolutionContext>> {
        self.manager.window(name).map(|live| live.current())
    }

    /// Recommend against one window's current context.
    pub fn recommend(&self, window: &str, profile: &UserProfile) -> Option<Recommendation> {
        let ctx = self.context(window)?;
        Some(self.recommender.recommend(&ctx, profile))
    }

    /// Recommend against every window, definition order. Each answer is
    /// what [`recommend`](WindowedRecommender::recommend) would return
    /// for that window alone.
    pub fn recommend_all(&self, profile: &UserProfile) -> Vec<(String, Recommendation)> {
        self.manager
            .windows()
            .map(|(name, _, live)| {
                let ctx = live.current();
                (name.to_string(), self.recommender.recommend(&ctx, profile))
            })
            .collect()
    }

    /// Score every catalogue measure against every window and diff the
    /// trajectories: a measure whose relatedness grows with the horizon
    /// is a persistent signal for this curator, one that shrinks is a
    /// recent burst the wider windows dilute.
    ///
    /// Windows are ordered narrow → wide by their current version span;
    /// trends come back strongest absolute shift first.
    pub fn trend_diff(&self, profile: &UserProfile) -> TrendDiff {
        let mut ordered: Vec<(String, Arc<EvolutionContext>, u32)> = self
            .manager
            .windows()
            .map(|(name, _, live)| {
                let ctx = live.current();
                let span = ctx.to.as_u32().saturating_sub(ctx.from.as_u32());
                (name.to_string(), ctx, span)
            })
            .collect();
        ordered.sort_by_key(|&(_, _, span)| span);

        let catalogue = self.recommender.registry().len();
        let per_window: Vec<Vec<(MeasureId, f64)>> = ordered
            .iter()
            .map(|(_, ctx, _)| self.recommender.recommend_measures(ctx, profile, catalogue))
            .collect();
        let mut trends: Vec<MeasureTrend> = self
            .recommender
            .registry()
            .ids()
            .into_iter()
            .map(|measure| {
                let scores: Vec<f64> = per_window
                    .iter()
                    .map(|ranked| {
                        ranked
                            .iter()
                            .find(|(id, _)| *id == measure)
                            .map_or(0.0, |&(_, score)| score)
                    })
                    .collect();
                let shift = match (scores.first(), scores.last()) {
                    (Some(first), Some(last)) => last - first,
                    _ => 0.0,
                };
                let direction = if shift > STEADY_EPSILON {
                    TrendDirection::Rising
                } else if shift < -STEADY_EPSILON {
                    TrendDirection::Falling
                } else {
                    TrendDirection::Steady
                };
                MeasureTrend {
                    measure,
                    scores,
                    shift,
                    direction,
                }
            })
            .collect();
        trends.sort_by(|a, b| {
            b.shift
                .abs()
                .total_cmp(&a.shift.abs())
                .then_with(|| a.measure.as_str().cmp(b.measure.as_str()))
        });
        TrendDiff {
            windows: ordered.into_iter().map(|(name, _, _)| name).collect(),
            trends,
        }
    }
}

impl std::fmt::Debug for WindowedRecommender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedRecommender")
            .field("manager", &self.manager)
            .field("catalogue", &self.recommender.registry().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::WindowManagerOptions;
    use crate::spec::{WindowDef, WindowSpec};
    use evorec_core::{ReportCache, UserId};
    use evorec_kb::{Triple, TripleStore};
    use evorec_stream::{ChangeEvent, Ingestor, IngestorConfig};
    use evorec_versioning::VersionedStore;

    /// A two-branch world streamed as epochs: early churn on branch A,
    /// late churn on branch B — so narrow windows favour B's measures
    /// region while wide windows still see A.
    fn world() -> (Ingestor, Vec<ChangeEvent>, [evorec_kb::TermId; 2]) {
        let mut vs = VersionedStore::new();
        let v = *vs.vocab();
        let root = vs.intern_iri("http://x/Root");
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let base = TripleStore::from_triples([
            Triple::new(a, v.rdfs_subclassof, root),
            Triple::new(b, v.rdfs_subclassof, root),
        ]);
        let mut events = Vec::new();
        for i in 0..4 {
            let inst = vs.intern_iri(format!("http://x/ea{i}"));
            events.push(ChangeEvent::assert(Triple::new(inst, v.rdf_type, a), "w"));
        }
        for i in 0..4 {
            let inst = vs.intern_iri(format!("http://x/lb{i}"));
            events.push(ChangeEvent::assert(Triple::new(inst, v.rdf_type, b), "w"));
        }
        let ingestor = Ingestor::seeded(base, "fixture", IngestorConfig::default());
        (ingestor, events, [a, b])
    }

    fn drive(manager: &WindowManager, ingestor: &mut Ingestor, events: Vec<ChangeEvent>) {
        for event in events {
            ingestor.ingest(event);
            let commit = ingestor.commit_epoch().expect("non-empty epoch");
            manager.advance(ingestor.store(), &commit);
        }
    }

    #[test]
    fn per_window_recommendations_reflect_horizons() {
        let (mut ingestor, events, [a, _b]) = world();
        let origin = ingestor.head().unwrap();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let manager = Arc::new(WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("last", WindowSpec::LastEpoch),
                WindowDef::new("release", WindowSpec::Landmark),
            ],
            WindowManagerOptions {
                serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
                ..Default::default()
            },
        ));
        drive(&manager, &mut ingestor, events);
        // The publishes themselves probe the cache for previous-epoch
        // reports (missing on cold windows); zero the counters so the
        // serving assertions below see only request traffic.
        cache.reset_stats();

        let served = WindowedRecommender::new(
            Arc::clone(&manager),
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
        );
        let profile = UserProfile::new(UserId(1), "curator").with_interest(a, 1.0);
        let per_window = served.recommend_all(&profile);
        assert_eq!(per_window.len(), 2);
        let release = served.recommend("release", &profile).unwrap();
        assert!(!release.items.is_empty());
        // The landmark window sees A's (early) churn; the last-epoch
        // window only holds the final B typing, so its pool is thinner.
        let last = served.recommend("last", &profile).unwrap();
        assert!(release.candidates_considered >= last.candidates_considered);
        assert!(served.recommend("nope", &profile).is_none());

        // Served warm: the windows pre-warmed their catalogues, so
        // these requests recomputed nothing.
        let stats = cache.stats();
        assert_eq!(
            stats.misses, 0,
            "window publishes pre-warmed every report: {stats:?}"
        );
    }

    #[test]
    fn trend_diff_orders_windows_and_classifies() {
        let (mut ingestor, events, [a, _b]) = world();
        let origin = ingestor.head().unwrap();
        let manager = Arc::new(WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("release", WindowSpec::Landmark),
                WindowDef::new("band", WindowSpec::SlidingEpochs(2)),
                WindowDef::new("last", WindowSpec::LastEpoch),
            ],
            WindowManagerOptions::default(),
        ));
        drive(&manager, &mut ingestor, events);

        let served = WindowedRecommender::new(
            Arc::clone(&manager),
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
        );
        let profile = UserProfile::new(UserId(1), "curator").with_interest(a, 1.0);
        let diff = served.trend_diff(&profile);
        // Narrow → wide by span: last (1) < band (2) < release (8).
        assert_eq!(diff.windows, ["last", "band", "release"]);
        assert_eq!(diff.trends.len(), served.recommender().registry().len());
        for trend in &diff.trends {
            assert_eq!(trend.scores.len(), 3);
            assert!(trend.scores.iter().all(|s| s.is_finite()));
        }
        // Sorted by |shift| descending.
        for pair in diff.trends.windows(2) {
            assert!(pair[0].shift.abs() >= pair[1].shift.abs() - 1e-12);
        }
        // The curator's interest is in the *early* churn branch: at
        // least one measure reads stronger over the landmark horizon
        // than over the last epoch.
        assert!(
            diff.with_direction(TrendDirection::Rising).count() > 0,
            "{diff:?}"
        );
    }
}
