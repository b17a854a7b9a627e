//! The window manager: one epoch stream in, k live evolution views out.

use crate::spec::{WindowDef, WindowSpec};
use evorec_core::ReportCache;
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_obs::{span, SpanHandle, Tracer};
use evorec_stream::{EpochCommit, EpochSink, LiveContext};
use evorec_versioning::{LowLevelDelta, VersionId, VersionedStore};
use sched::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction options of a [`WindowManager`].
#[derive(Clone, Default)]
pub struct WindowManagerOptions {
    /// Serving pair shared by every window: each window's live context
    /// claims the step it serves in the cache, so one window's epoch
    /// swap never evicts derived artefacts another window still
    /// serves.
    pub serving: Option<(Arc<MeasureRegistry>, Arc<ReportCache>)>,
    /// Treat this version as the stream head at construction instead
    /// of the store's current head: a manager anchored at a historical
    /// point can then be replayed forward over already-committed
    /// epochs (backfill, or benchmarking the advance path against a
    /// pre-built commit stream).
    pub head: Option<VersionId>,
}

/// Cumulative counters of a [`WindowManager`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowManagerStats {
    /// Epochs observed from the stream.
    pub epochs: u64,
    /// Window contexts published (≤ `epochs × window count`).
    pub publishes: u64,
    /// Always 0: sliding windows strip evicted epochs with the store's
    /// memoised epoch deltas, which every commit seeds, so nothing can
    /// miss. Kept so existing readers of the field still compile.
    pub ring_fallbacks: u64,
}

/// Mutable per-window bookkeeping (all guarded by the manager lock).
struct WindowState {
    from: VersionId,
    to: VersionId,
    /// The span delta `from → to`, always equal to
    /// [`LowLevelDelta::compute`] over the two snapshots: each epoch
    /// extends it in place and each eviction strips its front, in
    /// O(|ε|). Shared with the published context, so the next in-place
    /// edit copies it first ([`Arc::make_mut`]).
    span: Arc<LowLevelDelta>,
    /// Epochs currently inside the window (sliding bookkeeping).
    epochs: usize,
}

impl WindowState {
    /// Strip the window's oldest covered epoch off the front of its
    /// span delta and advance its `from` bound by one version. The
    /// epoch's delta is the one the store memoised when it committed,
    /// so this never re-diffs snapshots.
    fn strip_oldest_epoch(&mut self, store: &VersionedStore) {
        let next = VersionId::from_u32(self.from.as_u32() + 1);
        Arc::make_mut(&mut self.span).strip_front(&store.delta(self.from, next));
        self.from = next;
        self.epochs = self.epochs.saturating_sub(1);
    }
}

/// One managed window: its definition and the live handle readers
/// serve from.
struct Window {
    def: WindowDef,
    live: Arc<LiveContext>,
}

/// Everything the epoch callback mutates, in one lock: each window's
/// span state plus the stream head.
struct ManagerState {
    windows: Vec<WindowState>,
    /// The stream head as of the last observed epoch (construction
    /// head initially); `advance` asserts each commit extends it.
    head: VersionId,
}

/// Maintains any number of live temporal views over one epoch stream.
///
/// Subscribe it to a [`StreamPipeline`] via
/// [`PipelineOptions::sinks`]: on every committed epoch the manager
/// advances each window's span delta *in place* — a landmark window
/// extends it by the new epoch ([`LowLevelDelta::extend_by`]), a
/// sliding window additionally strips its evicted oldest epoch off the
/// front ([`LowLevelDelta::strip_front`]) with the delta the store
/// memoised when that epoch committed, in O(|evicted ε| + |new ε|) set
/// work — then builds the window's [`EvolutionContext`] over that span
/// ([`EvolutionContext::over_span`]). The window holds its span;
/// nothing is stored for it in the store's delta memo. No window
/// advance ever re-diffs two snapshots (watch
/// [`VersionedStore::delta_computations`]), yet the published context
/// is bit-identical — fingerprint included — to a batch build over the
/// same span, so every fingerprint-keyed cache works unchanged. The
/// contexts of all windows share the store's per-version substrates
/// ([`VersionedStore::substrate`]), so an epoch builds one class graph
/// and at most one set of centralities — the new head's — whatever the
/// window count.
///
/// Each window publishes through its own [`LiveContext`]; with a
/// serving pair attached, all windows share one [`ReportCache`], each
/// claiming the step it serves, and each publish warms its window
/// inline before the advance returns. A warm pass computes only what
/// the cache lacks under the window's fresh fingerprint, and its
/// measures read the per-version inputs (schema views with their
/// semantic centralities, substrates) every window shares and the
/// per-step change counts its own context builds once.
///
/// [`StreamPipeline`]: evorec_stream::StreamPipeline
/// [`PipelineOptions::sinks`]: evorec_stream::PipelineOptions
pub struct WindowManager {
    windows: Vec<Window>,
    origin: VersionId,
    serving: Option<(Arc<MeasureRegistry>, Arc<ReportCache>)>,
    state: Mutex<ManagerState>,
    epochs: AtomicU64,
    publishes: AtomicU64,
}

impl WindowManager {
    /// Build a manager over `store`'s current history. `origin` is the
    /// landmark anchor ("since release"); every window's initial
    /// context spans its spec's bounds over the existing history, so a
    /// manager attached mid-stream starts consistent.
    ///
    /// # Panics
    /// Panics if the history is empty, `origin` is unknown, or two
    /// windows share a name.
    pub fn new(
        store: &VersionedStore,
        origin: VersionId,
        defs: Vec<WindowDef>,
        options: WindowManagerOptions,
    ) -> WindowManager {
        // An empty history leaves `head` at version 0, which the
        // seeding assertion below rejects — same documented panic, one
        // diagnostic site.
        let head = options
            .head
            .or_else(|| store.head())
            .unwrap_or(VersionId::from_u32(0));
        assert!(
            store.try_snapshot(head).is_some(),
            "head {head} is not a committed version — seed the history \
             before attaching a window manager"
        );
        assert!(
            store.try_snapshot(origin).is_some(),
            "origin {origin} is not a committed version"
        );
        assert!(origin <= head, "origin {origin} is after the head {head}");
        for (ix, def) in defs.iter().enumerate() {
            assert!(
                defs[..ix].iter().all(|d| d.name != def.name),
                "duplicate window name {:?}",
                def.name
            );
        }
        let mut windows = Vec::with_capacity(defs.len());
        let mut states = Vec::with_capacity(defs.len());
        for def in defs {
            // Epoch-counted windows attached mid-stream treat each
            // committed version of the existing history as one epoch,
            // so their initial span already covers their spec's bounds
            // (a manager over a fresh seed starts at the idle span).
            let from = match def.spec {
                WindowSpec::Landmark => origin,
                WindowSpec::LastEpoch => head.predecessor().unwrap_or(head),
                WindowSpec::SlidingEpochs(k) => VersionId::from_u32(
                    head.as_u32()
                        .saturating_sub(u32::try_from(k).unwrap_or(u32::MAX)),
                ),
                WindowSpec::SlidingTime(dt) => {
                    let head_ts = store.versions()[head.index()].timestamp;
                    WindowSpec::since_anchor(store, head_ts.saturating_sub(dt), origin, head)
                }
                WindowSpec::Since(t) => WindowSpec::since_anchor(store, t, origin, head),
            };
            let span = store.delta(from, head);
            let initial = Arc::new(EvolutionContext::over_span(
                store,
                from,
                head,
                Arc::clone(&span),
            ));
            let live = match &options.serving {
                Some((registry, cache)) => {
                    LiveContext::with_serving(initial, Arc::clone(registry), Arc::clone(cache))
                }
                None => LiveContext::new(initial),
            };
            states.push(WindowState {
                from,
                to: head,
                span,
                // One pre-attach version = one epoch, so sliding
                // eviction starts from the correct occupancy.
                epochs: (head.as_u32() - from.as_u32()) as usize,
            });
            windows.push(Window {
                def,
                live: Arc::new(live),
            });
        }
        WindowManager {
            windows,
            origin,
            serving: options.serving,
            state: Mutex::new(ManagerState {
                windows: states,
                head,
            }),
            epochs: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
        }
    }

    /// The landmark origin every `Landmark` window anchors at.
    pub fn origin(&self) -> VersionId {
        self.origin
    }

    /// The serving pair shared by every window, if one was attached.
    pub fn serving(&self) -> Option<&(Arc<MeasureRegistry>, Arc<ReportCache>)> {
        self.serving.as_ref()
    }

    /// The live handle of the window called `name`.
    pub fn window(&self, name: &str) -> Option<&Arc<LiveContext>> {
        self.windows
            .iter()
            .find(|w| w.def.name == name)
            .map(|w| &w.live)
    }

    /// Every window as `(name, spec, live handle)`, definition order.
    pub fn windows(&self) -> impl Iterator<Item = (&str, WindowSpec, &Arc<LiveContext>)> {
        self.windows
            .iter()
            .map(|w| (w.def.name.as_str(), w.def.spec, &w.live))
    }

    /// Window names, definition order.
    pub fn names(&self) -> Vec<&str> {
        self.windows.iter().map(|w| w.def.name.as_str()).collect()
    }

    /// The current `(from, to)` span of the window called `name`.
    pub fn span(&self, name: &str) -> Option<(VersionId, VersionId)> {
        let ix = self.windows.iter().position(|w| w.def.name == name)?;
        let state = self.state.lock();
        Some((state.windows[ix].from, state.windows[ix].to))
    }

    /// Cumulative counters.
    pub fn stats(&self) -> WindowManagerStats {
        WindowManagerStats {
            epochs: self.epochs.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            ring_fallbacks: 0,
        }
    }

    /// Advance every window for one committed epoch. Called by the
    /// pipeline via [`EpochSink`]; callable directly when driving an
    /// [`Ingestor`](evorec_stream::Ingestor) by hand.
    ///
    /// # Panics
    /// Panics if `commit` does not extend the stream head the manager
    /// last observed (epochs must arrive gap-free, in commit order,
    /// starting right after the history the manager was built over).
    pub fn advance(&self, store: &VersionedStore, commit: &EpochCommit) {
        self.advance_observed(store, commit, None, SpanHandle::NONE);
    }

    /// [`advance`](WindowManager::advance) with span context: the whole
    /// multi-window advance is timed as one `window_advance` span,
    /// nested under `parent` (the pipeline's `epoch_commit` span when
    /// driven as a sink). `tracer: None` is the zero-cost disabled
    /// mode.
    pub fn advance_observed(
        &self,
        store: &VersionedStore,
        commit: &EpochCommit,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) {
        let advance_span = span(tracer, "window_advance", parent);
        assert!(
            commit.version.as_u32() > 0,
            "epoch commit {} does not extend a seeded history",
            commit.version
        );
        let epoch_from = VersionId::from_u32(commit.version.as_u32() - 1);
        let timestamp = store.versions()[commit.version.index()].timestamp;
        self.epochs.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.state.lock();
        assert_eq!(
            guard.head, epoch_from,
            "epoch {} → {} does not extend the manager's head {}",
            epoch_from, commit.version, guard.head
        );
        guard.head = commit.version;
        for (window, state) in self.windows.iter().zip(guard.windows.iter_mut()) {
            self.advance_window(window, state, store, commit, epoch_from, timestamp);
            self.publish_window(window, state, store);
        }
        advance_span.finish();
    }

    /// Move one window's bounds and span delta for the new epoch.
    fn advance_window(
        &self,
        window: &Window,
        state: &mut WindowState,
        store: &VersionedStore,
        commit: &EpochCommit,
        epoch_from: VersionId,
        timestamp: u64,
    ) {
        state.to = commit.version;
        match window.def.spec {
            WindowSpec::Landmark => {
                Arc::make_mut(&mut state.span).extend_by(&commit.delta);
                state.epochs += 1;
            }
            WindowSpec::LastEpoch => {
                state.from = epoch_from;
                state.span = Arc::clone(&commit.delta);
                state.epochs = 1;
            }
            WindowSpec::SlidingEpochs(k) => {
                Arc::make_mut(&mut state.span).extend_by(&commit.delta);
                state.epochs += 1;
                while state.epochs > k {
                    state.strip_oldest_epoch(store);
                }
            }
            WindowSpec::SlidingTime(dt) => {
                Arc::make_mut(&mut state.span).extend_by(&commit.delta);
                state.epochs += 1;
                // The wall-clock anchor slides with the head's
                // timestamp: strip every epoch that fell off the back
                // of the `Δt`-wide band.
                let target = WindowSpec::since_anchor(
                    store,
                    timestamp.saturating_sub(dt),
                    self.origin,
                    commit.version,
                );
                while state.from < target {
                    state.strip_oldest_epoch(store);
                }
            }
            WindowSpec::Since(t) => {
                if timestamp <= t {
                    // The stream has not passed the anchor time yet:
                    // the window trails the head, empty.
                    state.from = commit.version;
                    state.span = Arc::default();
                    state.epochs = 0;
                } else {
                    Arc::make_mut(&mut state.span).extend_by(&commit.delta);
                    state.epochs += 1;
                }
            }
        }
    }

    /// Publish a context built over the window's span delta through
    /// its live handle.
    fn publish_window(&self, window: &Window, state: &WindowState, store: &VersionedStore) {
        let ctx = Arc::new(EvolutionContext::over_span(
            store,
            state.from,
            state.to,
            Arc::clone(&state.span),
        ));
        window.live.publish(ctx);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }
}

impl EpochSink for WindowManager {
    fn on_epoch(&self, store: &VersionedStore, commit: &EpochCommit) {
        self.advance(store, commit);
    }

    fn on_epoch_observed(
        &self,
        store: &VersionedStore,
        commit: &EpochCommit,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) {
        self.advance_observed(store, commit, tracer, parent);
    }
}

impl evorec_obs::MetricsSource for WindowManager {
    /// Pull-model metrics: [`WindowManagerStats`] plus each window's
    /// current span bounds, sampled at snapshot time.
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        let stats = self.stats();
        out.push(evorec_obs::Sample::counter(
            "evorec_windows_epochs_total",
            stats.epochs,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_windows_publishes_total",
            stats.publishes,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_windows_managed",
            self.windows.len() as u64,
        ));
        let state = self.state.lock();
        for (window, ws) in self.windows.iter().zip(state.windows.iter()) {
            out.push(
                evorec_obs::Sample::gauge(
                    "evorec_windows_span_epochs",
                    (ws.to.as_u32() - ws.from.as_u32()) as u64,
                )
                .with_label("window", &window.def.name),
            );
        }
    }
}

impl std::fmt::Debug for WindowManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        let spans: Vec<String> = self
            .windows
            .iter()
            .zip(state.windows.iter())
            .map(|(w, s)| format!("{}: {}→{}", w.def.name, s.from, s.to))
            .collect();
        f.debug_struct("WindowManager")
            .field("origin", &self.origin)
            .field("windows", &spans)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_stream::{ChangeEvent, Ingestor, IngestorConfig};

    /// A seeded ingestor over one subclass edge, plus interned terms
    /// for instance churn.
    fn seeded() -> (Ingestor, Vec<Triple>) {
        let mut vs = VersionedStore::new();
        let v = *vs.vocab();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let typings: Vec<Triple> = (0..6)
            .map(|i| {
                let inst = vs.intern_iri(format!("http://x/i{i}"));
                Triple::new(inst, v.rdf_type, if i % 2 == 0 { a } else { b })
            })
            .collect();
        let base = TripleStore::from_triples([Triple::new(a, v.rdfs_subclassof, b)]);
        let ingestor = Ingestor::seeded(base, "fixture", IngestorConfig::default());
        (ingestor, typings)
    }

    fn defs() -> Vec<WindowDef> {
        vec![
            WindowDef::new("last", WindowSpec::LastEpoch),
            WindowDef::new("band", WindowSpec::SlidingEpochs(2)),
            WindowDef::new("release", WindowSpec::Landmark),
            WindowDef::new("recent", WindowSpec::Since(3)),
        ]
    }

    /// Drive `n` single-event epochs through the manager by hand.
    fn run_epochs(
        ingestor: &mut Ingestor,
        manager: &WindowManager,
        typings: &[Triple],
    ) {
        for &t in typings {
            ingestor.ingest(ChangeEvent::assert(t, "curator"));
            let commit = ingestor.commit_epoch().expect("non-empty epoch");
            manager.advance(ingestor.store(), &commit);
        }
    }

    #[test]
    fn windows_track_their_specs() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs(),
            WindowManagerOptions::default(),
        );
        assert_eq!(manager.names(), ["last", "band", "release", "recent"]);
        // Initially every window is the idle/landmark span over V0.
        assert_eq!(manager.span("last"), Some((origin, origin)));
        assert_eq!(manager.span("release"), Some((origin, origin)));

        run_epochs(&mut ingestor, &manager, &typings[..4]);
        let head = ingestor.head().unwrap();
        assert_eq!(head.as_u32(), 4);
        assert_eq!(manager.span("last"), Some((VersionId::from_u32(3), head)));
        assert_eq!(manager.span("band"), Some((VersionId::from_u32(2), head)));
        assert_eq!(manager.span("release"), Some((origin, head)));
        // Store timestamps are 1 (seed) + one per epoch: the anchor of
        // `Since(3)` freezes at the version committed at clock 3 = V2.
        assert_eq!(manager.span("recent"), Some((VersionId::from_u32(2), head)));
        let stats = manager.stats();
        assert_eq!(stats.epochs, 4);
        assert_eq!(stats.publishes, 16);
        assert_eq!(stats.ring_fallbacks, 0);
    }

    #[test]
    fn published_contexts_match_batch_builds() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs(),
            WindowManagerOptions::default(),
        );
        run_epochs(&mut ingestor, &manager, &typings);
        // Rebuild the history into an independent store so the batch
        // contexts diff their own snapshots.
        let store = ingestor.store();
        let mut batch = VersionedStore::new();
        for info in store.versions() {
            batch.commit_snapshot(info.label.clone(), store.snapshot(info.id).clone());
        }
        for (name, _, live) in manager.windows() {
            let (from, to) = manager.span(name).unwrap();
            let served = live.current();
            let direct = EvolutionContext::build(&batch, from, to);
            assert_eq!(
                served.fingerprint(),
                direct.fingerprint(),
                "window {name} diverged from its batch build"
            );
        }
    }

    #[test]
    fn sliding_advance_never_rediffs_snapshots() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs(),
            WindowManagerOptions::default(),
        );
        // Warm-up: the first epochs establish each window's span.
        run_epochs(&mut ingestor, &manager, &typings[..2]);
        let before = ingestor.store().delta_computations();
        run_epochs(&mut ingestor, &manager, &typings[2..]);
        assert_eq!(
            ingestor.store().delta_computations(),
            before,
            "window advances must compose epoch deltas, not re-diff"
        );
        assert_eq!(manager.stats().ring_fallbacks, 0);
    }

    #[test]
    fn a_window_span_is_held_by_its_state_and_its_context_alone() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs(),
            WindowManagerOptions {
                serving: Some((registry, cache)),
                ..Default::default()
            },
        );
        run_epochs(&mut ingestor, &manager, &typings[..4]);
        let state = manager.state.lock();
        let mut checked = 0;
        for (window, ws) in manager.windows.iter().zip(state.windows.iter()) {
            if !matches!(
                window.def.spec,
                WindowSpec::Landmark | WindowSpec::SlidingEpochs(_)
            ) {
                continue;
            }
            let name = &window.def.name;
            assert!(Arc::ptr_eq(&window.live.current().delta, &ws.span), "{name}");
            assert_eq!(Arc::strong_count(&ws.span), 2, "{name}: state + context");
            checked += 1;
        }
        assert_eq!(checked, 2, "the landmark and the sliding band");
    }

    #[test]
    fn every_epoch_builds_one_substrate_whatever_the_window_count() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("last", WindowSpec::LastEpoch),
                WindowDef::new("band", WindowSpec::SlidingEpochs(2)),
                WindowDef::new("release", WindowSpec::Landmark),
                WindowDef::new("recent", WindowSpec::Since(3)),
                WindowDef::new("ticks", WindowSpec::SlidingTime(2)),
            ],
            WindowManagerOptions::default(),
        );
        assert_eq!(ingestor.store().substrate_computations(), 1, "the seed's");
        for (epoch, &t) in typings.iter().enumerate() {
            ingestor.ingest(ChangeEvent::assert(t, "curator"));
            let commit = ingestor.commit_epoch().expect("non-empty epoch");
            manager.advance(ingestor.store(), &commit);
            assert_eq!(
                ingestor.store().substrate_computations(),
                epoch as u64 + 2,
                "epoch {epoch}: five windows, one new substrate (the head's)"
            );
        }
        assert_eq!(manager.stats().publishes, 5 * typings.len() as u64);
    }

    #[test]
    fn mid_stream_attach_spans_existing_history() {
        // Build four epochs first, then attach: epoch-counted windows
        // must cover the existing history, not start empty.
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        for &t in &typings[..4] {
            ingestor.ingest(ChangeEvent::assert(t, "curator"));
            ingestor.commit_epoch().expect("non-empty epoch");
        }
        let head = ingestor.head().unwrap();
        assert_eq!(head.as_u32(), 4);
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            defs(),
            WindowManagerOptions::default(),
        );
        assert_eq!(manager.span("last"), Some((VersionId::from_u32(3), head)));
        assert_eq!(manager.span("band"), Some((VersionId::from_u32(2), head)));
        assert_eq!(manager.span("release"), Some((origin, head)));
        assert!(!manager.window("last").unwrap().current().delta.is_empty());

        // The next epochs slide correctly from the attached occupancy,
        // matching a manager that watched the stream from the start.
        let reference = {
            let (mut ingestor, typings) = seeded();
            let origin = ingestor.head().unwrap();
            let manager = WindowManager::new(
                ingestor.store(),
                origin,
                defs(),
                WindowManagerOptions::default(),
            );
            run_epochs(&mut ingestor, &manager, &typings);
            let spans: Vec<_> = manager
                .names()
                .iter()
                .map(|n| manager.span(n).unwrap())
                .collect();
            spans
        };
        run_epochs(&mut ingestor, &manager, &typings[4..]);
        let spans: Vec<_> = manager
            .names()
            .iter()
            .map(|n| manager.span(n).unwrap())
            .collect();
        assert_eq!(spans, reference, "mid-stream attach converges");
    }

    #[test]
    fn sliding_time_band_breathes_with_the_clock() {
        // Timestamps are the store's logical clock: while every tick is
        // a commit, a `SlidingTime(2)` band coincides with
        // `SlidingEpochs(2)`; once the clock advances over an idle gap,
        // the band ages epochs out while the epoch-counted window
        // doesn't.
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("t2", WindowSpec::SlidingTime(2)),
                WindowDef::new("e2", WindowSpec::SlidingEpochs(2)),
                WindowDef::new("t0", WindowSpec::SlidingTime(0)),
            ],
            WindowManagerOptions::default(),
        );
        assert_eq!(manager.span("t2"), Some((origin, origin)));
        run_epochs(&mut ingestor, &manager, &typings[..4]);
        let head = ingestor.head().unwrap();
        assert_eq!(manager.span("t2"), manager.span("e2"));
        assert_eq!(
            manager.span("t2"),
            Some((VersionId::from_u32(head.as_u32() - 2), head))
        );
        assert_eq!(manager.span("t0"), Some((head, head)), "zero-width band");
        assert!(manager.window("t0").unwrap().current().delta.is_empty());
        // The band's context equals the sliding-epoch twin's, bitwise.
        assert_eq!(
            manager.window("t2").unwrap().current().fingerprint(),
            manager.window("e2").unwrap().current().fingerprint()
        );

        // The stream goes quiet for three ticks: the next epoch lands
        // past the gap, so the 2-tick band holds only that epoch while
        // the epoch-counted window still spans two.
        ingestor.advance_clock(3);
        run_epochs(&mut ingestor, &manager, &typings[4..5]);
        let head = ingestor.head().unwrap();
        assert_eq!(
            manager.span("t2"),
            Some((VersionId::from_u32(head.as_u32() - 1), head)),
            "idle ticks aged the older epochs out of the band"
        );
        assert_eq!(
            manager.span("e2"),
            Some((VersionId::from_u32(head.as_u32() - 2), head)),
            "the epoch-counted window is blind to the gap"
        );
    }

    #[test]
    fn degenerate_sliding_zero_stays_empty() {
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            vec![WindowDef::new("empty", WindowSpec::SlidingEpochs(0))],
            WindowManagerOptions::default(),
        );
        run_epochs(&mut ingestor, &manager, &typings[..3]);
        let head = ingestor.head().unwrap();
        assert_eq!(manager.span("empty"), Some((head, head)));
        let ctx = manager.window("empty").unwrap().current();
        assert!(ctx.delta.is_empty());
        assert_eq!(ctx.from, ctx.to);
    }

    #[test]
    fn huge_sliding_span_behaves_like_a_landmark() {
        // A band wider than any history never strips: it tracks the
        // landmark window beside it, and building the manager with it
        // must not overflow.
        let (mut ingestor, typings) = seeded();
        let origin = ingestor.head().unwrap();
        let manager = WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("huge", WindowSpec::SlidingEpochs(usize::MAX)),
                WindowDef::new("release", WindowSpec::Landmark),
            ],
            WindowManagerOptions::default(),
        );
        run_epochs(&mut ingestor, &manager, &typings[..1]);
        let head = ingestor.head().unwrap();
        assert_eq!(manager.span("huge"), Some((origin, head)));
        assert_eq!(manager.span("huge"), manager.span("release"));
    }

    #[test]
    #[should_panic(expected = "duplicate window name")]
    fn duplicate_names_are_rejected() {
        let (ingestor, _) = seeded();
        let origin = ingestor.head().unwrap();
        WindowManager::new(
            ingestor.store(),
            origin,
            vec![
                WindowDef::new("w", WindowSpec::Landmark),
                WindowDef::new("w", WindowSpec::LastEpoch),
            ],
            WindowManagerOptions::default(),
        );
    }
}
