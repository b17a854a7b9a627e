//! The end-to-end streaming pipeline: event log → ingestor → live
//! context, on a dedicated worker thread.
//!
//! Producers push [`ChangeEvent`]s into the pipeline's bounded
//! [`EventLog`] (blocking when the ingestor falls behind —
//! backpressure, not unbounded queueing). The worker drains
//! micro-batches, folds them into the [`Ingestor`], and commits an
//! epoch whenever `max_batch` events are pending or the log runs dry;
//! each committed epoch rebuilds the [`EvolutionContext`] spanning
//! `origin → head` and publishes it through the [`LiveContext`], so
//! readers always see a complete, fingerprinted context and never wait
//! on a rebuild.

use crate::event::ChangeEvent;
use crate::ingest::{EpochCommit, Ingestor};
use crate::live::LiveContext;
use crate::log::EventLog;
use evorec_core::ReportCache;
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_obs::{span, SpanHandle, Tracer};
use evorec_versioning::{LowLevelDelta, VersionId, VersionedStore};
use std::sync::Arc;
use std::thread::JoinHandle;

/// An observer of committed epochs, called by the ingest worker right
/// after each commit is published to the pipeline's own
/// [`LiveContext`].
///
/// This is the fan-out point multi-view serving hangs off: a sink sees
/// the ingestor's store (already holding the fresh version) and the
/// [`EpochCommit`] (including its normalised delta), so it can maintain
/// any number of derived live views — e.g. the window manager of
/// `evorec-windows`, which advances one context per temporal window by
/// extending and stripping its span delta epoch by epoch.
///
/// Sinks run **on the ingest worker thread**: a slow sink delays the
/// next micro-batch (that is backpressure, not a bug — readers of every
/// published context stay lock-light regardless). Panics in a sink
/// poison the pipeline worker.
pub trait EpochSink: Send + Sync {
    /// Called once per committed epoch, in commit order.
    fn on_epoch(&self, store: &VersionedStore, commit: &EpochCommit);

    /// [`on_epoch`](EpochSink::on_epoch) with span context: `parent`
    /// is the pipeline's `epoch_commit` span, so a sink that times its
    /// own stages (e.g. the window manager's `window_advance`) can
    /// attach them to the per-epoch breakdown. The default forwards to
    /// `on_epoch`, ignoring the tracer — existing sinks keep working
    /// unchanged.
    fn on_epoch_observed(
        &self,
        store: &VersionedStore,
        commit: &EpochCommit,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) {
        let _ = (tracer, parent);
        self.on_epoch(store, commit);
    }
}

/// Options of [`StreamPipeline::spawn`].
#[derive(Clone, Default)]
pub struct PipelineOptions {
    /// Context origin: published contexts span `origin → head`.
    /// Defaults to the ingestor's head at spawn time (so the first
    /// published context is the idle step `head → head`).
    pub origin: Option<VersionId>,
    /// Serving pair handed to the [`LiveContext`]: publishes pre-warm
    /// this registry into this cache and invalidate superseded epochs.
    /// The pipeline's live context claims the step it serves in the
    /// cache, so its swaps never evict a step another live view (e.g.
    /// a serving window sharing the cache) still claims.
    pub serving: Option<(Arc<MeasureRegistry>, Arc<ReportCache>)>,
    /// Epoch observers, called after every commit in commit order.
    pub sinks: Vec<Arc<dyn EpochSink>>,
    /// Span tracer for the ingest worker: `ingest` and `epoch_commit`
    /// spans per micro-batch, `publish` under the commit, and the
    /// sinks' own stages beneath that. `None` (the default) is the
    /// zero-cost disabled mode.
    pub tracer: Option<Arc<Tracer>>,
}

/// A running ingestion pipeline. Dropping it without
/// [`shutdown`](StreamPipeline::shutdown) closes the log and joins the
/// worker.
pub struct StreamPipeline {
    log: Arc<EventLog>,
    live: Arc<LiveContext>,
    worker: Option<JoinHandle<Ingestor>>,
}

impl StreamPipeline {
    /// Start the worker thread over `ingestor`, whose store must
    /// already hold at least one version (seed it via
    /// [`Ingestor::seeded`] or commit a first epoch by hand) — the
    /// initial live context is built from it before any event flows.
    ///
    /// # Panics
    /// Panics if the ingestor's history is empty, or if
    /// `options.origin` names an unknown version.
    pub fn spawn(ingestor: Ingestor, options: PipelineOptions) -> StreamPipeline {
        // An empty history leaves `head` pointing at version 0, which
        // the seeding assertion below rejects — same documented panic,
        // one diagnostic site.
        let head = ingestor.head().unwrap_or(VersionId::from_u32(0));
        let origin = options.origin.unwrap_or(head);
        assert!(
            ingestor.store().try_snapshot(origin).is_some(),
            "origin {origin} is not a committed version — seed the ingestor's \
             history before spawning the pipeline"
        );
        let max_batch = ingestor.config().max_batch.max(1);
        // The landmark span delta `origin → head`: empty for the default
        // idle origin, memoised otherwise. The worker extends it in
        // place by each commit's epoch delta.
        let landmark = ingestor.store().delta(origin, head);
        let initial = Arc::new(EvolutionContext::over_span(
            ingestor.store(),
            origin,
            head,
            Arc::clone(&landmark),
        ));
        let live = Arc::new(match options.serving {
            Some((registry, cache)) => LiveContext::with_serving(initial, registry, cache),
            None => LiveContext::new(initial),
        });
        // Room for four micro-batches: producers block once the worker
        // falls that far behind.
        let log = Arc::new(EventLog::bounded(4 * max_batch));
        let worker = {
            let log = Arc::clone(&log);
            let live = Arc::clone(&live);
            let sinks = options.sinks;
            let tracer = options.tracer;
            std::thread::spawn(move || {
                ingest_loop(
                    ingestor,
                    &log,
                    &live,
                    origin,
                    landmark,
                    max_batch,
                    &sinks,
                    tracer.as_deref(),
                )
            })
        };
        StreamPipeline {
            log,
            live,
            worker: Some(worker),
        }
    }

    /// The pipeline's event log; clone the `Arc` into every producer.
    pub fn log(&self) -> &Arc<EventLog> {
        &self.log
    }

    /// The live context handle readers serve from.
    pub fn live(&self) -> &Arc<LiveContext> {
        &self.live
    }

    /// Push one event (convenience for single-producer callers);
    /// blocks under backpressure, fails once the pipeline is shut down.
    pub fn send(&self, event: ChangeEvent) -> Result<(), crate::log::LogClosed<ChangeEvent>> {
        self.log.push(event)
    }

    /// Close the log, drain every queued event into final epochs, join
    /// the worker, and hand back the ingestor (history + ledger).
    pub fn shutdown(mut self) -> Ingestor {
        self.log.close();
        match self.worker.take() {
            Some(worker) => match worker.join() {
                Ok(ingestor) => ingestor,
                Err(panic) => std::panic::resume_unwind(panic),
            },
            // The handle is vacated only here and in `Drop`, and
            // `shutdown` consumes the pipeline before `Drop` can run.
            None => unreachable!("shutdown runs at most once per pipeline"),
        }
    }
}

impl Drop for StreamPipeline {
    fn drop(&mut self) {
        self.log.close();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The worker body: drain → ingest → commit/publish until the log is
/// closed and empty, then flush whatever is still pending. `landmark`
/// is the span delta `origin → head` of the last published context,
/// extended in place by each commit's epoch delta so rebuilding the
/// published context never re-diffs the origin and head snapshots
/// (the same span algebra serving windows ride).
#[allow(clippy::too_many_arguments)]
fn ingest_loop(
    mut ingestor: Ingestor,
    log: &EventLog,
    live: &LiveContext,
    origin: VersionId,
    mut landmark: Arc<LowLevelDelta>,
    max_batch: usize,
    sinks: &[Arc<dyn EpochSink>],
    tracer: Option<&Tracer>,
) -> Ingestor {
    loop {
        let batch = log.pop_batch(max_batch);
        let drained = batch.is_empty();
        if !batch.is_empty() {
            let ingest = span(tracer, "ingest", SpanHandle::NONE);
            ingestor.ingest_all(batch);
            ingest.finish();
        }
        if drained || ingestor.pending_events() >= max_batch || log.is_empty() {
            commit_and_publish(&mut ingestor, live, origin, &mut landmark, sinks, tracer);
        }
        if drained {
            return ingestor;
        }
    }
}

fn commit_and_publish(
    ingestor: &mut Ingestor,
    live: &LiveContext,
    origin: VersionId,
    landmark: &mut Arc<LowLevelDelta>,
    sinks: &[Arc<dyn EpochSink>],
    tracer: Option<&Tracer>,
) {
    if let Some(commit) = ingestor.commit_epoch() {
        let commit_span = span(tracer, "epoch_commit", SpanHandle::NONE);
        let commit_handle = commit_span.handle();
        // The published context shares the span, so this in-place
        // extension copies it once first.
        Arc::make_mut(landmark).extend_by(&commit.delta);
        let ctx = Arc::new(EvolutionContext::over_span(
            ingestor.store(),
            origin,
            commit.version,
            Arc::clone(landmark),
        ));
        let publish = span(tracer, "publish", commit_handle);
        live.publish(ctx);
        publish.finish();
        for sink in sinks {
            sink.on_epoch_observed(ingestor.store(), &commit, tracer, commit_handle);
        }
        commit_span.finish();
    }
}

impl std::fmt::Debug for StreamPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamPipeline")
            .field("log", &self.log)
            .field("live", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestorConfig;
    use evorec_kb::{Triple, TripleStore};

    /// Seed a store whose base has one subclass edge, interned so the
    /// vocab ids line up with hand-rolled triples.
    fn seeded() -> (Ingestor, Triple, Triple) {
        let mut vs = VersionedStoreFixture::new();
        let edge = vs.subclass_edge("A", "B");
        let typing = vs.typing("i", "A");
        let base = TripleStore::from_triples([edge]);
        let ingestor = Ingestor::seeded(base, "fixture", IngestorConfig {
            max_batch: 4,
            ..Default::default()
        });
        (ingestor, edge, typing)
    }

    /// Tiny helper interning IRIs through a scratch store so tests can
    /// mint vocabulary-consistent triples.
    struct VersionedStoreFixture {
        store: evorec_versioning::VersionedStore,
    }

    impl VersionedStoreFixture {
        fn new() -> Self {
            VersionedStoreFixture {
                store: evorec_versioning::VersionedStore::new(),
            }
        }

        fn subclass_edge(&mut self, a: &str, b: &str) -> Triple {
            let s = self.store.intern_iri(format!("http://x/{a}"));
            let o = self.store.intern_iri(format!("http://x/{b}"));
            Triple::new(s, self.store.vocab().rdfs_subclassof, o)
        }

        fn typing(&mut self, inst: &str, class: &str) -> Triple {
            let s = self.store.intern_iri(format!("http://x/{inst}"));
            let o = self.store.intern_iri(format!("http://x/{class}"));
            Triple::new(s, self.store.vocab().rdf_type, o)
        }
    }

    #[test]
    fn events_flow_to_published_contexts() {
        let (ingestor, _edge, typing) = seeded();
        let origin = ingestor.head().unwrap();
        let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions::default());
        assert_eq!(pipeline.live().current().from, origin);
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        let ingestor = pipeline.shutdown();
        assert_eq!(ingestor.store().version_count(), 2);
        assert!(ingestor
            .store()
            .snapshot(ingestor.head().unwrap())
            .contains(&typing));
        assert_eq!(ingestor.stats().epochs, 1);
    }

    #[test]
    fn live_context_advances_with_epochs() {
        let (ingestor, _edge, typing) = seeded();
        let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions::default());
        let live = Arc::clone(pipeline.live());
        let before = live.epoch();
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        // Wait for the publish (bounded spin; the worker commits as
        // soon as the log runs dry).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while live.epoch() == before && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(live.epoch() > before, "epoch advanced while running");
        let ctx = live.current();
        assert!(ctx.delta.added.contains(&typing));
        drop(pipeline);
    }

    #[test]
    fn the_published_context_alone_holds_the_final_span() {
        let (ingestor, edge, typing) = seeded();
        let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions::default());
        let live = Arc::clone(pipeline.live());
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        pipeline.send(ChangeEvent::retract(edge, "curator")).unwrap();
        let ingestor = pipeline.shutdown();
        assert!(ingestor.stats().epochs >= 1);
        let ctx = live.current();
        assert_eq!(ctx.delta.size(), 2);
        // Neither the store's delta memo nor the stopped worker keeps
        // a copy of the landmark span.
        assert_eq!(Arc::strong_count(&ctx.delta), 1);
    }

    #[test]
    fn shutdown_flushes_partial_batches() {
        let (mut ingestor, _edge, typing) = seeded();
        ingestor = {
            // max_batch 1000: nothing would commit on size alone.
            let (store, _ledger) = ingestor.into_parts();
            Ingestor::from_store(store, IngestorConfig {
                max_batch: 1000,
                ..Default::default()
            })
        };
        let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions::default());
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        let ingestor = pipeline.shutdown();
        assert!(ingestor
            .store()
            .snapshot(ingestor.head().unwrap())
            .contains(&typing), "pending events flushed at shutdown");
    }

    #[test]
    fn sinks_observe_every_commit_in_order() {
        use std::sync::Mutex;

        struct Recorder(Mutex<Vec<(VersionId, usize)>>);
        impl EpochSink for Recorder {
            fn on_epoch(&self, store: &VersionedStore, commit: &crate::EpochCommit) {
                // The store already holds the committed version.
                assert!(store.try_snapshot(commit.version).is_some());
                self.0
                    .lock()
                    .unwrap()
                    .push((commit.version, commit.delta.size()));
            }
        }

        let (ingestor, _edge, typing) = seeded();
        let recorder = Arc::new(Recorder(Mutex::new(Vec::new())));
        let pipeline = StreamPipeline::spawn(ingestor, PipelineOptions {
            sinks: vec![Arc::clone(&recorder) as Arc<dyn EpochSink>],
            ..Default::default()
        });
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        let ingestor = pipeline.shutdown();
        let seen = recorder.0.lock().unwrap().clone();
        assert_eq!(seen.len() as u64, ingestor.stats().epochs);
        assert_eq!(seen[0].0, ingestor.head().unwrap());
        assert_eq!(seen[0].1, 1, "one added triple in the epoch delta");
    }

    #[test]
    fn tracer_breaks_down_epochs_into_stages() {
        let (ingestor, _edge, typing) = seeded();
        let (tracer, _clock) = evorec_obs::Tracer::logical();
        let tracer = Arc::new(tracer);
        let pipeline = StreamPipeline::spawn(
            ingestor,
            PipelineOptions {
                tracer: Some(Arc::clone(&tracer)),
                ..Default::default()
            },
        );
        pipeline.send(ChangeEvent::assert(typing, "curator")).unwrap();
        let ingestor = pipeline.shutdown();
        let epochs = ingestor.stats().epochs;
        assert!(epochs >= 1);
        // Every committed epoch produced matched commit + publish
        // spans; the ingest span fired for the non-empty batch.
        let commit = tracer.stage("epoch_commit").expect("commit stage recorded");
        assert_eq!(commit.snapshot().count, epochs);
        let publish = tracer.stage("publish").expect("publish stage recorded");
        assert_eq!(publish.snapshot().count, epochs);
        let ingest = tracer.stage("ingest").expect("ingest stage recorded");
        assert!(ingest.snapshot().count >= 1);
        // The publish span nests under its epoch's commit span.
        let trace = tracer.last_trace();
        let root = trace.first().expect("a root span");
        assert_eq!(root.name, "epoch_commit");
        assert!(trace.iter().any(|s| s.name == "publish" && s.parent == root.id));
    }

    #[test]
    fn spawn_rejects_empty_history() {
        let result = std::panic::catch_unwind(|| {
            StreamPipeline::spawn(
                Ingestor::new(IngestorConfig::default()),
                PipelineOptions::default(),
            )
        });
        assert!(result.is_err());
    }
}
