//! The system under test, built from the workload seed the way a
//! deployment wires it: a synthetic world, the streaming pipeline, the
//! window manager, the adaptive facade and the HTTP edge.

use crate::util::Rng;
use crate::workload::{Plan, BATCH};
use evorec_adapt::{AdaptiveOptions, AdaptiveRecommender};
use evorec_core::{RecommenderConfig, ReportCache, UserId};
use evorec_kb::{Triple, TripleStore};
use evorec_measures::MeasureRegistry;
use evorec_obs::{Clock, MetricsRegistry, MetricsSource, MonotonicClock, Tracer};
use evorec_serve::{HttpServer, ServeOptions};
use evorec_stream::{
    ChangeEvent, EpochCommit, EpochSink, Ingestor, IngestorConfig, PipelineOptions, StreamPipeline,
};
use evorec_synth::workload::streamed::{seeded_ingestor, step_events};
use evorec_synth::workload::{curated_kb, Workload};
use evorec_synth::Scenario;
use evorec_versioning::{VersionId, VersionedStore};
use evorec_windows::{WindowManager, WindowManagerOptions, WindowedRecommender};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Classes of the curated world.
const CLASSES: usize = 200;
/// The world's shape (schema, instances, users) is fixed and `--seed`
/// draws the change stream and the traffic over it: the shapes of
/// different world seeds differ enough to move drain rate and memory
/// by a quarter, which would hide a regression of that size.
const WORLD_SEED: u64 = 1;
/// Evolution steps generated beyond the world's own, at least.
const MIN_STEPS: u64 = 60;

/// The world and the change stream the producer replays.
pub struct World {
    pub workload: Workload,
    /// The world's own history, replayed before the stack attaches.
    pub seed_head: VersionId,
    /// Alternating churn and hotspot steps after `seed_head`, as
    /// triple-level events (each step's net delta, in order).
    pub stream: Vec<ChangeEvent>,
    /// Per producer batch of `stream`, the event the sink checks once
    /// the batch has landed (see [`markers`]).
    pub markers: Vec<Option<Marker>>,
}

/// A triple and whether a batch leaves it present.
#[derive(Clone, Copy)]
pub struct Marker {
    pub triple: Triple,
    pub present: bool,
}

/// The curated world of 200 classes evolved through at least 60
/// alternating churn and hotspot steps drawn from `seed`, enough to
/// supply `events_needed` events. Built once per pass, outside the
/// timed set-up: it is the workload's input, not the system's work.
pub fn world(seed: u64, events_needed: usize) -> World {
    let mut workload = curated_kb(CLASSES, WORLD_SEED);
    let seed_head = workload.head();
    let mut seeds = Rng::new(seed ^ 0x5EED);
    let mut stream = Vec::new();
    let mut step = 0u64;
    while step < MIN_STEPS || stream.len() < events_needed {
        let scenario = if step.is_multiple_of(2) {
            Scenario::UniformChurn { rate: 0.05 }
        } else {
            Scenario::Hotspot {
                focus_classes: 3,
                rate: 0.15,
                concentration: 0.9,
            }
        };
        let from = workload.head();
        workload.kb.evolve(&scenario, seeds.next_u64());
        stream.extend(step_events(
            &workload.kb.store,
            from,
            workload.head(),
            "curators",
        ));
        step += 1;
        assert!(step < 10_000, "evolution steps produce no events");
    }
    let markers = markers(&stream);
    World {
        workload,
        seed_head,
        stream,
        markers,
    }
}

/// Each batch's marker: its last event whose triple no other event
/// touches from the batch's start through the two batches after it,
/// if there is one. The ingest worker commits at most `2 × BATCH - 1`
/// events per epoch, so the epoch a batch's last event lands in ends
/// within those two batches, and its snapshot must show the marker.
fn markers(stream: &[ChangeEvent]) -> Vec<Option<Marker>> {
    (0..stream.len() / BATCH)
        .map(|k| {
            let reach = &stream[k * BATCH..((k + 3) * BATCH).min(stream.len())];
            let mut touches: HashMap<Triple, u32> = HashMap::new();
            for event in reach {
                *touches.entry(event.triple).or_default() += 1;
            }
            reach[..BATCH]
                .iter()
                .rev()
                .find(|e| touches[&e.triple] == 1)
                .map(|e| Marker {
                    triple: e.triple,
                    present: e.is_assert(),
                })
        })
        .collect()
}

/// A producer batch the sink is waiting to see servable.
struct Expected {
    id: usize,
    /// Pipeline events committed once the batch has landed.
    end: u64,
    marker: Option<Marker>,
}

#[derive(Default)]
struct SinkState {
    expected: VecDeque<Expected>,
    /// `(batch id, clock nanos when servable in every window)`.
    servable: Vec<(usize, u64)>,
    epochs: u64,
    events: u64,
    errors: Vec<String>,
}

/// The benchmark's epoch sink, registered after every other sink: when
/// it runs, every window has published (and pre-warmed) the epoch. A
/// batch is servable once the epochs committed so far cover its last
/// event; the committed snapshot must then show the batch's marker.
pub struct FreshnessSink {
    clock: Arc<MonotonicClock>,
    manager: Arc<WindowManager>,
    state: Mutex<SinkState>,
    landed: Condvar,
}

/// What the sink has counted so far.
#[derive(Clone, Copy, Default)]
pub struct SinkCounts {
    pub epochs: u64,
    pub events: u64,
}

impl FreshnessSink {
    fn new(clock: Arc<MonotonicClock>, manager: Arc<WindowManager>) -> FreshnessSink {
        FreshnessSink {
            clock,
            manager,
            state: Mutex::new(SinkState::default()),
            landed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().expect("sink state poisoned")
    }

    /// Register batch `id` of the stream before its events are pushed.
    pub fn expect(&self, id: usize, marker: Option<Marker>) {
        self.lock().expected.push_back(Expected {
            id,
            end: ((id + 1) * BATCH) as u64,
            marker,
        });
    }

    /// Block until `count` batches are servable; the servable times,
    /// or `None` after `timeout`.
    pub fn wait_for(&self, count: usize, timeout: Duration) -> Option<Vec<(usize, u64)>> {
        let state = self.lock();
        let (state, _) = self
            .landed
            .wait_timeout_while(state, timeout, |s| s.servable.len() < count)
            .expect("sink state poisoned");
        (state.servable.len() >= count).then(|| state.servable.clone())
    }

    pub fn counts(&self) -> SinkCounts {
        let state = self.lock();
        SinkCounts {
            epochs: state.epochs,
            events: state.events,
        }
    }

    pub fn errors(&self) -> Vec<String> {
        self.lock().errors.clone()
    }
}

impl EpochSink for FreshnessSink {
    fn on_epoch(&self, store: &VersionedStore, commit: &EpochCommit) {
        let now = self.clock.now_nanos();
        let stale: Vec<String> = self
            .manager
            .windows()
            .filter(|(_, _, live)| live.current().to != commit.version)
            .map(|(name, _, _)| name.to_string())
            .collect();
        let snapshot = store.snapshot(commit.version);
        let mut state = self.lock();
        state.epochs += 1;
        state.events += commit.events as u64;
        if !stale.is_empty() {
            state.errors.push(format!(
                "epoch {}: windows {stale:?} had not published it when the last sink ran",
                commit.version
            ));
        }
        while let Some(front) = state.expected.front() {
            if front.end > state.events {
                break;
            }
            let (id, marker) = (front.id, front.marker);
            state.expected.pop_front();
            if let Some(m) = marker {
                if snapshot.contains(&m.triple) != m.present {
                    state.errors.push(format!(
                        "epoch {}: batch {id} landed but its marker is not in the snapshot",
                        commit.version
                    ));
                }
            }
            state.servable.push((id, now));
        }
        drop(state);
        self.landed.notify_all();
    }
}

/// The running stack.
pub struct Stack {
    pub world: Arc<World>,
    pub cache: Arc<ReportCache>,
    pub manager: Arc<WindowManager>,
    pub adaptive: Arc<AdaptiveRecommender>,
    pub sink: Arc<FreshnessSink>,
    pub pipeline: Option<StreamPipeline>,
    pub server: Option<HttpServer>,
    pub tracer: Option<Arc<Tracer>>,
    pub users: Vec<UserId>,
    /// Events ingested by hand before the pipeline started.
    pub seeded_events: u64,
    /// `delta_computations` of the store when the pipeline started.
    pub delta_baseline: u64,
}

impl Stack {
    /// Replay the world's own history, attach the windows, start the
    /// pipeline and the edge, and serve each window once so the first
    /// request finds a warm context.
    pub fn build(
        plan: &Plan,
        world: &Arc<World>,
        clock: &Arc<MonotonicClock>,
        tracer: Option<Arc<Tracer>>,
    ) -> Stack {
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let mut ingestor = seeded_ingestor(
            &world.workload,
            IngestorConfig {
                max_batch: BATCH,
                ..Default::default()
            },
        );
        let origin = ingestor.head().expect("seeded history");
        let mut seeded_events = 0u64;
        let store = &world.workload.kb.store;
        for v in origin.as_u32() + 1..=world.seed_head.as_u32() {
            let events = step_events(
                store,
                VersionId::from_u32(v - 1),
                VersionId::from_u32(v),
                "seed",
            );
            seeded_events += events.len() as u64;
            ingestor.ingest_all(events);
            ingestor.commit_epoch();
        }
        let manager = Arc::new(WindowManager::new(
            ingestor.store(),
            origin,
            (plan.windows)(ingestor.store().clock()),
            WindowManagerOptions {
                serving: Some((Arc::clone(&registry), Arc::clone(&cache))),
                ..Default::default()
            },
        ));
        let windowed = Arc::new(WindowedRecommender::new(
            Arc::clone(&manager),
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
        ));
        let users: Vec<UserId> = world
            .workload
            .population
            .profiles
            .iter()
            .map(|p| p.id)
            .collect();
        let adaptive = Arc::new(AdaptiveRecommender::new(
            Arc::clone(&windowed),
            world.workload.population.profiles.clone(),
            AdaptiveOptions {
                tracer: tracer.clone(),
                ..Default::default()
            },
        ));
        let sink = Arc::new(FreshnessSink::new(Arc::clone(clock), Arc::clone(&manager)));
        let delta_baseline = ingestor.store().delta_computations();
        let pipeline = StreamPipeline::spawn(
            ingestor,
            PipelineOptions {
                origin: Some(origin),
                serving: Some((registry, Arc::clone(&cache))),
                sinks: vec![
                    Arc::clone(&manager) as Arc<dyn EpochSink>,
                    Arc::clone(&adaptive) as Arc<dyn EpochSink>,
                    Arc::clone(&sink) as Arc<dyn EpochSink>,
                ],
                tracer: tracer.clone(),
                ..Default::default()
            },
        );
        for name in manager.names() {
            adaptive.serve(name, users[0]);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.register_source(Arc::clone(&cache) as Arc<dyn MetricsSource>);
        metrics.register_source(Arc::clone(&manager) as Arc<dyn MetricsSource>);
        metrics.register_source(Arc::clone(&adaptive) as Arc<dyn MetricsSource>);
        metrics.register_source(Arc::clone(pipeline.log()) as Arc<dyn MetricsSource>);
        metrics.register_source(Arc::clone(pipeline.live()) as Arc<dyn MetricsSource>);
        if let Some(tracer) = &tracer {
            metrics.register_source(Arc::clone(tracer) as Arc<dyn MetricsSource>);
        }
        let server = HttpServer::start(
            Arc::clone(&adaptive),
            metrics,
            ServeOptions {
                tracer: tracer.clone(),
                ..Default::default()
            },
        )
        .expect("the edge binds a loopback port");
        Stack {
            world: Arc::clone(world),
            cache,
            manager,
            adaptive,
            sink,
            pipeline: Some(pipeline),
            server: Some(server),
            tracer,
            users,
            seeded_events,
            delta_baseline,
        }
    }

    pub fn server(&self) -> &HttpServer {
        self.server.as_ref().expect("edge running")
    }

    pub fn pipeline(&self) -> &StreamPipeline {
        self.pipeline.as_ref().expect("pipeline running")
    }

    /// Drain the edge (flushing accepted feedback) and the pipeline;
    /// hands back the ingestor with the whole history.
    pub fn stop(&mut self) -> Ingestor {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.pipeline.take().expect("pipeline running").shutdown()
    }

    /// The world's snapshot after its own history plus the first
    /// `events` stream events, applied one by one: the batch reference
    /// the streamed head must equal.
    pub fn reference_head(&self, events: usize) -> TripleStore {
        let mut head = self
            .world
            .workload
            .kb
            .store
            .snapshot(self.world.seed_head)
            .clone();
        for event in &self.world.stream[..events] {
            if event.is_assert() {
                head.insert(event.triple);
            } else {
                head.remove(&event.triple);
            }
        }
        head
    }
}
