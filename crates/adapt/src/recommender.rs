//! The adaptive serving facade: one serve-observe-update loop.
//!
//! [`AdaptiveRecommender`] wires the live pieces together: profiles are
//! read from the [`ProfileStore`] (atomic snapshots, never blocking on
//! an update), recommendations are served through a
//! [`WindowedRecommender`] with the active [`ExplorationPolicy`]'s
//! bonuses blended into the MMR objective, and curator reactions flow
//! back through a bounded feedback log that an [`AdaptWorker`] folds
//! into the store and the bandit ledger. Hang the facade off a
//! [`StreamPipeline`](evorec_stream::StreamPipeline) as an epoch sink
//! and profile interests decay on the same epoch clock the contexts
//! advance on.

use crate::bandit::{BanditBook, ExplorationBoost, ExplorationPolicy, NoExploration};
use crate::event::FeedbackEvent;
use crate::store::{ProfileStore, ProfileStoreOptions, ProfileStoreStats};
use crate::worker::{AdaptStats, AdaptWorker, FeedbackLog};
use evorec_core::{Recommendation, UserId, UserProfile};
use evorec_measures::MeasureId;
use evorec_obs::{span, SpanHandle, Tracer};
use evorec_stream::{BoundedLog, EpochCommit, EpochSink, LogClosed};
use evorec_versioning::VersionedStore;
use evorec_windows::WindowedRecommender;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction options of an [`AdaptiveRecommender`].
#[derive(Clone)]
pub struct AdaptiveOptions {
    /// Capacity of the bounded feedback log (backpressure bound).
    pub feedback_capacity: usize,
    /// Micro-batch size of the adaptation worker.
    pub max_batch: usize,
    /// The exploration policy blended into serving.
    /// [`NoExploration`] (the default) keeps every serving bit-identical
    /// to the underlying [`WindowedRecommender`].
    pub policy: Arc<dyn ExplorationPolicy>,
    /// Weight of the exploration bonus in the selection objective.
    /// `0.0` also disables boosting entirely.
    pub exploration_weight: f64,
    /// Profile-store shape (shards, feedback loop, decay).
    pub store: ProfileStoreOptions,
    /// Span tracer threaded through the whole serve-observe-update
    /// loop: each serving becomes a `serve` root span with the engine's
    /// `cache_probe`/`measure_compute`/`mmr_boost` stages beneath it,
    /// and the worker times its `feedback_apply` batches. Tracing
    /// observes timing only — servings are bit-identical with the
    /// tracer on or off. `None` (the default) is the zero-cost
    /// disabled mode.
    pub tracer: Option<Arc<Tracer>>,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            feedback_capacity: 1024,
            max_batch: 64,
            policy: Arc::new(NoExploration),
            exploration_weight: 0.25,
            store: ProfileStoreOptions::default(),
            tracer: None,
        }
    }
}

/// A point-in-time view of the whole subsystem's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct AdaptiveStats {
    /// Recommendations served.
    pub serves: u64,
    /// Servings that blended an exploration bonus.
    pub explored_serves: u64,
    /// Worker counters (events, batches, per-reaction tallies).
    pub worker: AdaptStats,
    /// Profile-store counters.
    pub store: ProfileStoreStats,
    /// Bandit observations recorded.
    pub observations: u64,
}

/// Serve → observe → update, online.
pub struct AdaptiveRecommender {
    served: Arc<WindowedRecommender>,
    store: Arc<ProfileStore>,
    book: Arc<BanditBook>,
    log: Arc<FeedbackLog>,
    worker: AdaptWorker,
    policy: Arc<dyn ExplorationPolicy>,
    weight: f64,
    catalogue: Vec<MeasureId>,
    tracer: Option<Arc<Tracer>>,
    serves: AtomicU64,
    explored: AtomicU64,
}

impl AdaptiveRecommender {
    /// Build over `served`, seeding the profile store with `profiles`
    /// and starting the adaptation worker.
    pub fn new(
        served: Arc<WindowedRecommender>,
        profiles: impl IntoIterator<Item = UserProfile>,
        options: AdaptiveOptions,
    ) -> AdaptiveRecommender {
        let store = Arc::new(ProfileStore::new(options.store));
        store.seed(profiles);
        let book = Arc::new(BanditBook::new());
        let log: Arc<FeedbackLog> = Arc::new(BoundedLog::bounded(options.feedback_capacity));
        let worker = AdaptWorker::spawn(
            Arc::clone(&log),
            Arc::clone(&store),
            Arc::clone(&book),
            options.max_batch,
            options.tracer.clone(),
        );
        let catalogue = served.recommender().registry().ids();
        AdaptiveRecommender {
            served,
            store,
            book,
            log,
            worker,
            policy: options.policy,
            weight: options.exploration_weight.max(0.0),
            catalogue,
            tracer: options.tracer,
            serves: AtomicU64::new(0),
            explored: AtomicU64::new(0),
        }
    }

    /// Serve one recommendation for `user` against `window`'s current
    /// context. The profile snapshot is whatever the store has already
    /// published — in-flight feedback lands on later servings (call
    /// [`sync`](AdaptiveRecommender::sync) first to force it in).
    ///
    /// With exploration off ([`NoExploration`] or a zero weight) the
    /// answer is bit-identical to
    /// [`WindowedRecommender::recommend`] over the same profile.
    pub fn serve(&self, window: &str, user: UserId) -> Option<Recommendation> {
        self.serve_with_parent(window, user, SpanHandle::NONE)
    }

    /// [`serve`](AdaptiveRecommender::serve) with span context: the
    /// `serve` span (and the engine stages beneath it) is parented
    /// under `parent` instead of opening a new root — the hook the
    /// HTTP serving edge uses to nest a serving inside its
    /// per-request span. Identical output either way.
    pub fn serve_with_parent(
        &self,
        window: &str,
        user: UserId,
        parent: SpanHandle,
    ) -> Option<Recommendation> {
        // Unknown windows answer nothing — and leave no trace: no
        // serve counted, no phantom profile created.
        let ctx = self.served.context(window)?;
        // Serving is read-only: an unseeded user is answered from a
        // transient blank profile and only enters the store once
        // feedback arrives.
        let profile = self.store.get_or_blank(user);
        let serve_ix = self.serves.fetch_add(1, Ordering::Relaxed);
        let recommender = self.served.recommender();
        let tracer = self.tracer.as_deref();
        let serve_span = span(tracer, "serve", parent);
        let serve_handle = serve_span.handle();
        if self.weight == 0.0 || !self.policy.is_active() {
            return Some(recommender.recommend_observed(&ctx, &profile, None, tracer, serve_handle));
        }
        let bonuses = self
            .book
            .with_stats(|stats| self.policy.bonuses(stats, &self.catalogue, serve_ix));
        if bonuses.is_empty() {
            // Nothing to blend (e.g. an exploit round over a cold
            // ledger): take — and count — the plain path.
            return Some(recommender.recommend_observed(&ctx, &profile, None, tracer, serve_handle));
        }
        self.explored.fetch_add(1, Ordering::Relaxed);
        let boost = ExplorationBoost::new(bonuses, self.weight);
        Some(recommender.recommend_observed(&ctx, &profile, Some(&boost), tracer, serve_handle))
    }

    /// Enqueue one curator reaction (blocking under backpressure). The
    /// worker applies it asynchronously; the event is handed back if
    /// the subsystem is already shut down.
    pub fn observe(&self, event: FeedbackEvent) -> Result<(), LogClosed<FeedbackEvent>> {
        self.log.push(event)
    }

    /// Enqueue one curator reaction without ever blocking: a full log
    /// hands the event straight back as
    /// [`TryPushError::Full`](evorec_stream::TryPushError) instead of
    /// applying backpressure to the caller's thread. The serving
    /// edge's feedback-ingest endpoint maps that onto `429`.
    pub fn try_observe(
        &self,
        event: FeedbackEvent,
    ) -> Result<(), evorec_stream::TryPushError<FeedbackEvent>> {
        self.log.try_push(event)
    }

    /// Enqueue a batch of reactions, in order.
    pub fn observe_all(
        &self,
        events: impl IntoIterator<Item = FeedbackEvent>,
    ) -> Result<(), LogClosed<FeedbackEvent>> {
        for event in events {
            self.observe(event)?;
        }
        Ok(())
    }

    /// Block until every reaction observed before this call is folded
    /// into the profile store and the bandit ledger.
    pub fn sync(&self) {
        self.worker.flush();
    }

    /// Advance the profile store's epoch clock (interest decay). Wired
    /// automatically when the facade is attached as an
    /// [`EpochSink`].
    pub fn advance_epoch(&self) {
        self.store.decay_epoch();
    }

    /// The current snapshot of `user`'s profile.
    pub fn profile(&self, user: UserId) -> Option<Arc<UserProfile>> {
        self.store.get(user)
    }

    /// The live profile store.
    pub fn store(&self) -> &Arc<ProfileStore> {
        &self.store
    }

    /// The bandit ledger.
    pub fn book(&self) -> &Arc<BanditBook> {
        &self.book
    }

    /// The windowed recommender served through.
    pub fn windowed(&self) -> &Arc<WindowedRecommender> {
        &self.served
    }

    /// The catalogue the exploration policies score over.
    pub fn catalogue(&self) -> &[MeasureId] {
        &self.catalogue
    }

    /// Counters across the whole subsystem.
    pub fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            serves: self.serves.load(Ordering::Relaxed),
            explored_serves: self.explored.load(Ordering::Relaxed),
            worker: self.worker.stats(),
            store: self.store.stats(),
            observations: self.book.observations(),
        }
    }

    /// Close the feedback log, drain it, join the worker, and hand the
    /// final counters back.
    pub fn shutdown(self) -> AdaptiveStats {
        let serves = self.serves.load(Ordering::Relaxed);
        let explored = self.explored.load(Ordering::Relaxed);
        let store = Arc::clone(&self.store);
        let book = Arc::clone(&self.book);
        let worker_stats = self.worker.shutdown();
        AdaptiveStats {
            serves,
            explored_serves: explored,
            worker: worker_stats,
            store: store.stats(),
            observations: book.observations(),
        }
    }
}

/// Epoch commits tick the profile store's decay clock: attach the
/// facade to [`PipelineOptions::sinks`](evorec_stream::PipelineOptions)
/// and interests fade in lock-step with the contexts advancing.
impl EpochSink for AdaptiveRecommender {
    fn on_epoch(&self, _store: &VersionedStore, _commit: &EpochCommit) {
        self.advance_epoch();
    }
}

impl evorec_obs::MetricsSource for AdaptiveRecommender {
    /// Pull-model metrics: the whole subsystem's counters sampled at
    /// snapshot time, with per-measure bandit arms broken out under a
    /// `measure` label.
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        let stats = self.stats();
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_serves_total",
            stats.serves,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_explored_serves_total",
            stats.explored_serves,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_feedback_events_total",
            stats.worker.events,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_feedback_batches_total",
            stats.worker.batches,
        ));
        for (name, count) in [
            ("accept", stats.worker.accepts),
            ("dwell", stats.worker.dwells),
            ("dismiss", stats.worker.dismisses),
            ("reject", stats.worker.rejects),
        ] {
            out.push(
                evorec_obs::Sample::counter("evorec_adapt_reactions_total", count)
                    .with_label("reaction", name),
            );
        }
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_profile_updates_total",
            stats.store.updates,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_profile_decay_epochs_total",
            stats.store.decay_epochs,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_profiles_auto_created_total",
            stats.store.auto_created,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_adapt_profiles",
            self.store.len() as u64,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_adapt_bandit_observations_total",
            stats.observations,
        ));
        self.book.with_stats(|arms| {
            let mut ordered: Vec<_> = arms.iter().collect();
            ordered.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
            for (measure, arm) in ordered {
                out.push(
                    evorec_obs::Sample::counter("evorec_adapt_arm_exposures_total", arm.exposures)
                        .with_label("measure", measure.as_str()),
                );
                out.push(
                    evorec_obs::Sample::gauge_f64("evorec_adapt_arm_reward", arm.reward)
                        .with_label("measure", measure.as_str()),
                );
                out.push(
                    evorec_obs::Sample::counter("evorec_adapt_arm_accepts_total", arm.accepts)
                        .with_label("measure", measure.as_str()),
                );
                out.push(
                    evorec_obs::Sample::counter("evorec_adapt_arm_rejects_total", arm.rejects)
                        .with_label("measure", measure.as_str()),
                );
            }
        });
    }
}

impl std::fmt::Debug for AdaptiveRecommender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRecommender")
            .field("store", &self.store)
            .field("book", &self.book)
            .field("exploring", &self.policy.is_active())
            .field("weight", &self.weight)
            .field("stats", &self.stats())
            .finish()
    }
}
