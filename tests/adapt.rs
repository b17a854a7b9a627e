//! Property and acceptance tests for the online adaptation subsystem.
//!
//! The load-bearing claims:
//! - folding a feedback stream through the live [`ProfileStore`] —
//!   interleaved reads, decay boundaries and all — leaves every profile
//!   **bit-identical** to replaying the same events over plain profiles
//!   in batch with [`FeedbackLoop`] + [`decay_interests`];
//! - with exploration disabled, [`AdaptiveRecommender`] serves answers
//!   bit-identical to the underlying [`WindowedRecommender`];
//! - the session-replay harness measures a real engagement lift for the
//!   adaptive path over the static-profile baseline on multiple synth
//!   workloads.

use evorec::adapt::{
    decay_interests, AdaptiveOptions, AdaptiveRecommender, EpsilonGreedy, FeedbackEvent,
    NoExploration, ProfileStore, ProfileStoreOptions, Reaction, ThompsonBeta,
};
use evorec::core::{
    FeedbackLoop, FeedbackSignal, Item, Recommendation, RecommenderConfig, ReportCache, UserId,
    UserProfile,
};
use evorec::kb::TermId;
use evorec::measures::{MeasureCategory, MeasureId, MeasureRegistry};
use evorec::synth::workload::{curated_kb, sensor_stream};
use evorec::synth::{replay_sessions, ReplayConfig};
use evorec::windows::{
    WindowDef, WindowManager, WindowManagerOptions, WindowSpec, WindowedRecommender,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn item(measure: u8, focus: u8, intensity: u8) -> Item {
    Item::new(
        MeasureId::new(format!("measure-{measure}")),
        MeasureCategory::ChangeCounting,
        TermId::from_u32(u32::from(focus)),
        f64::from(intensity) / 100.0,
    )
}

proptest! {
    /// Online == batch replay: any interleaving of feedback events,
    /// decay epochs, and concurrent-style reads over the sharded store
    /// produces exactly the profiles a plain batch fold produces —
    /// including the all-reject, all-ignore, empty-session and
    /// decay-at-the-boundary cases the generator covers, and including
    /// the reads observing the intermediate states bit-exactly.
    #[test]
    fn profile_store_online_equals_batch_replay(
        // (user, measure, focus, intensity, op): op % 5 picks accept /
        // reject / ignore / decay-epoch / read.
        ops in prop::collection::vec(
            (0u8..4, 0u8..3, 0u8..6, 0u8..101, 0u8..5),
            0..60,
        ),
        decay_pick in 0u8..4,
    ) {
        let decay = [1.0, 0.9, 0.5, 0.0][decay_pick as usize];
        let store = ProfileStore::new(ProfileStoreOptions {
            shards: 3, // force multi-user shards
            decay,
            ..Default::default()
        });
        let feedback = FeedbackLoop::default();
        let mut batch: HashMap<UserId, UserProfile> = HashMap::new();
        for user in 0..4u32 {
            let profile = UserProfile::new(UserId(user), format!("u{user}"))
                .with_interest(TermId::from_u32(user), 0.5);
            store.insert(profile.clone());
            batch.insert(UserId(user), profile);
        }

        for &(user, measure, focus, intensity, op) in &ops {
            let user = UserId(u32::from(user));
            match op {
                0..=2 => {
                    let signal = [
                        FeedbackSignal::Accepted,
                        FeedbackSignal::Rejected,
                        FeedbackSignal::Ignored,
                    ][op as usize];
                    let it = item(measure, focus, intensity);
                    let online = store.apply(user, &it, signal);
                    let offline =
                        feedback.apply(batch.get_mut(&user).unwrap(), &it, signal);
                    prop_assert_eq!(online, offline, "update deltas diverge");
                }
                3 => {
                    store.decay_epoch();
                    for profile in batch.values_mut() {
                        decay_interests(profile, decay);
                    }
                }
                _ => {
                    // A read mid-stream observes exactly the batch
                    // state — and perturbs nothing.
                    let snapshot = store.get(user).expect("seeded");
                    let expected = &batch[&user];
                    prop_assert_eq!(
                        snapshot.interest_count(),
                        expected.interest_count()
                    );
                    for (term, weight) in expected.interests() {
                        prop_assert_eq!(snapshot.interest(term), weight);
                    }
                }
            }
        }

        // Final states are bit-identical profile for profile.
        for (user, expected) in &batch {
            let online = store.get(*user).expect("seeded");
            prop_assert_eq!(online.interest_count(), expected.interest_count());
            prop_assert_eq!(online.interest_mass(), expected.interest_mass());
            for (term, weight) in expected.interests() {
                prop_assert_eq!(
                    online.interest(term),
                    weight,
                    "user {} term {:?}",
                    user,
                    term
                );
            }
            prop_assert_eq!(online.seen_count(), expected.seen_count());
        }
    }
}

/// The canonical serving stack for the determinism tests: two windows
/// over a streamed-in-batch curated world, shared cache.
fn serving_stack(seed: u64) -> (Arc<WindowedRecommender>, Vec<UserProfile>) {
    let world = curated_kb(40, seed);
    let registry = Arc::new(MeasureRegistry::standard());
    let cache = Arc::new(ReportCache::new());
    let manager = Arc::new(WindowManager::new(
        &world.kb.store,
        world.base(),
        vec![
            WindowDef::new("all", WindowSpec::Landmark),
            WindowDef::new("last", WindowSpec::LastEpoch),
        ],
        WindowManagerOptions {
            serving: Some((registry, cache)),
            ..Default::default()
        },
    ));
    let served = Arc::new(WindowedRecommender::new(
        manager,
        MeasureRegistry::standard(),
        RecommenderConfig::default(),
    ));
    let profiles: Vec<UserProfile> = world.population.profiles[..6].to_vec();
    (served, profiles)
}

fn detail(rec: &Recommendation) -> Vec<(String, TermId, f64, f64, f64)> {
    rec.items
        .iter()
        .map(|s| {
            (
                s.item.measure.as_str().to_string(),
                s.item.focus,
                s.relevance,
                s.novelty,
                s.objective,
            )
        })
        .collect()
}

/// With exploration off, the adaptive facade is a bit-identical skin
/// over the windowed recommender — before feedback, and after feedback
/// has moved the profiles.
#[test]
fn exploration_off_serves_bit_identical_to_windowed() {
    let (served, profiles) = serving_stack(23);
    let users: Vec<UserId> = profiles.iter().map(|p| p.id).collect();
    let adaptive = AdaptiveRecommender::new(
        Arc::clone(&served),
        profiles,
        AdaptiveOptions {
            policy: Arc::new(NoExploration),
            ..Default::default()
        },
    );
    for window in ["all", "last"] {
        for &user in &users {
            let profile = adaptive.profile(user).expect("seeded");
            let direct = served.recommend(window, &profile).expect("window exists");
            let adapted = adaptive.serve(window, user).expect("window exists");
            assert_eq!(detail(&direct), detail(&adapted), "{window}/{user}");
            assert_eq!(direct.candidates_considered, adapted.candidates_considered);
        }
    }
    // Feed reactions in, then re-check: the serve path must follow the
    // *updated* snapshot and still match the plain recommender.
    let first = adaptive.serve("all", users[0]).unwrap();
    for scored in &first.items {
        adaptive
            .observe(FeedbackEvent::new(
                users[0],
                scored.item.clone(),
                Reaction::Accept,
            ))
            .unwrap();
    }
    adaptive.sync();
    let learned = adaptive.profile(users[0]).expect("updated");
    assert!(learned.seen_count() > 0, "feedback landed");
    let direct = served.recommend("all", &learned).unwrap();
    let adapted = adaptive.serve("all", users[0]).unwrap();
    assert_eq!(detail(&direct), detail(&adapted));
    let stats = adaptive.shutdown();
    assert_eq!(stats.explored_serves, 0, "exploration stayed off");
    assert_eq!(stats.worker.events, first.items.len() as u64);
}

/// Acceptance: a fully enabled tracer observes timing only. With
/// exploration off, every traced serving is bit-identical to the
/// untraced [`WindowedRecommender`] answer — while the tracer really
/// is recording the whole serve → cache probe → measure compute →
/// MMR breakdown.
#[test]
fn tracing_enabled_serving_stays_bit_identical() {
    let (served, profiles) = serving_stack(23);
    let users: Vec<UserId> = profiles.iter().map(|p| p.id).collect();
    let (tracer, _clock) = evorec::obs::Tracer::logical();
    let tracer = Arc::new(tracer);
    let adaptive = AdaptiveRecommender::new(
        Arc::clone(&served),
        profiles,
        AdaptiveOptions {
            policy: Arc::new(NoExploration),
            tracer: Some(Arc::clone(&tracer)),
            ..Default::default()
        },
    );
    let mut serves = 0u64;
    for window in ["all", "last"] {
        for &user in &users {
            let profile = adaptive.profile(user).expect("seeded");
            let direct = served.recommend(window, &profile).expect("window exists");
            let traced = adaptive.serve(window, user).expect("window exists");
            serves += 1;
            assert_eq!(detail(&direct), detail(&traced), "{window}/{user}");
            assert_eq!(direct.candidates_considered, traced.candidates_considered);
        }
    }
    // The tracer observed every serving and its engine stages …
    let serve_stage = tracer.stage("serve").expect("serve spans recorded");
    assert_eq!(serve_stage.snapshot().count, serves);
    let probes = tracer.stage("cache_probe").expect("probe spans recorded");
    assert_eq!(probes.snapshot().count, serves);
    assert!(tracer.stage("mmr_boost").is_some(), "selection stage timed");
    // … and the per-request breakdown nests under the serve root.
    let trace = tracer.last_trace();
    let root = trace.first().expect("a root span");
    assert_eq!(root.name, "serve");
    assert!(trace
        .iter()
        .any(|s| s.name == "cache_probe" && s.parent == root.id));
    // The worker's feedback_apply stage is traced too.
    let first = adaptive.serve("all", users[0]).unwrap();
    for scored in &first.items {
        adaptive
            .observe(FeedbackEvent::new(
                users[0],
                scored.item.clone(),
                Reaction::Accept,
            ))
            .unwrap();
    }
    adaptive.sync();
    let applies = tracer.stage("feedback_apply").expect("apply spans");
    assert!(applies.snapshot().count >= 1);
    let stats = adaptive.shutdown();
    assert_eq!(stats.explored_serves, 0, "exploration stayed off");
}

/// Exploration steers: an ε-greedy policy at ε = 1 boosts one measure
/// per serving, and the boosted serving differs from the plain one
/// while staying deterministic serve-for-serve.
#[test]
fn exploration_on_is_deterministic_and_diverges() {
    let (served, profiles) = serving_stack(24);
    let user = profiles[0].id;
    let build = |policy_seed: u64| {
        AdaptiveRecommender::new(
            Arc::clone(&served),
            profiles.clone(),
            AdaptiveOptions {
                policy: Arc::new(EpsilonGreedy::new(1.0, policy_seed)),
                exploration_weight: 5.0, // overwhelm relevance: forced exploration
                ..Default::default()
            },
        )
    };
    let a = build(9);
    let b = build(9);
    let first_a = a.serve("all", user).unwrap();
    let first_b = b.serve("all", user).unwrap();
    assert_eq!(
        detail(&first_a),
        detail(&first_b),
        "same seed, same serve index → same exploration"
    );
    let plain = served
        .recommend("all", &a.profile(user).unwrap())
        .unwrap();
    let keys = |rec: &Recommendation| {
        rec.items
            .iter()
            .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
            .collect::<Vec<_>>()
    };
    // Across a handful of servings, a full-strength forced exploration
    // must reorder at least one answer relative to the plain path.
    let mut diverged = keys(&first_a) != keys(&plain);
    for _ in 0..5 {
        let rec = a.serve("all", user).unwrap();
        diverged |= keys(&rec) != keys(&plain);
    }
    assert!(diverged, "forced exploration never changed a serving");
    assert!(a.stats().explored_serves >= 6);
    let thompson = AdaptiveRecommender::new(
        Arc::clone(&served),
        profiles.clone(),
        AdaptiveOptions {
            policy: Arc::new(ThompsonBeta::new(4)),
            ..Default::default()
        },
    );
    assert!(thompson.serve("all", user).is_some());
    // Unknown windows answer nothing and leave no trace: no phantom
    // profile, no serve counted.
    let before = (thompson.store().len(), thompson.stats().serves);
    assert!(thompson.serve("nope", UserId(9999)).is_none(), "unknown window");
    assert_eq!(
        (thompson.store().len(), thompson.stats().serves),
        before,
        "failed serves must not pollute the store or the counters"
    );
}

/// The acceptance criterion: on at least two synth workloads the
/// adaptive path shows a measurable engagement lift over the static
/// baseline — both in the session mean and in the converged final
/// round.
#[test]
fn session_replay_shows_acceptance_lift_on_two_workloads() {
    let config = ReplayConfig::default();
    for world in [curated_kb(60, 11), sensor_stream(50, 13)] {
        let report = replay_sessions(&world, &config);
        assert!(
            report.lift() > 0.02,
            "{}: adaptive {:.3} vs baseline {:.3}",
            report.workload,
            report.adaptive_mean(),
            report.baseline_mean()
        );
        assert!(
            report.final_lift() > 0.02,
            "{}: final round shows no convergence ({:?})",
            report.workload,
            report.adaptive
        );
        // The baseline really is static: flat round over round.
        for pair in report.baseline.windows(2) {
            assert_eq!(pair[0].rate, pair[1].rate, "{}", report.workload);
        }
    }
}

/// The epoch-clock wiring: attached as a pipeline sink, the facade
/// decays profile interests once per committed epoch.
#[test]
fn epoch_sink_ticks_profile_decay_with_the_stream() {
    use evorec::stream::{EpochSink, IngestorConfig, PipelineOptions, StreamPipeline};
    use evorec::synth::workload::streamed::{seeded_ingestor, stream_into};

    let world = curated_kb(40, 25);
    let (served, _) = serving_stack(25);
    let adaptive = Arc::new(AdaptiveRecommender::new(
        served,
        [UserProfile::new(UserId(0), "curator")
            .with_interest(TermId::from_u32(1), 1.0)],
        AdaptiveOptions {
            store: ProfileStoreOptions {
                decay: 0.5,
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    let ingestor = seeded_ingestor(&world, IngestorConfig {
        // An epoch holds at most 2·max_batch − 1 events, so the
        // 78-event stream commits at least two whatever the thread
        // timing.
        max_batch: 16,
        ..Default::default()
    });
    let pipeline = StreamPipeline::spawn(
        ingestor,
        PipelineOptions {
            sinks: vec![Arc::clone(&adaptive) as Arc<dyn EpochSink>],
            ..Default::default()
        },
    );
    stream_into(&world, pipeline.log());
    let ingestor = pipeline.shutdown();
    let epochs = ingestor.stats().epochs;
    assert!(epochs >= 2);
    let stats = adaptive.stats();
    assert_eq!(
        stats.store.decay_epochs, epochs,
        "one decay tick per committed epoch"
    );
    let faded = adaptive.profile(UserId(0)).unwrap();
    let expected = 0.5f64.powi(epochs as i32);
    assert!(
        (faded.interest(TermId::from_u32(1)) - expected).abs() < 1e-12,
        "interest decayed {} times: {}",
        epochs,
        faded.interest(TermId::from_u32(1))
    );
}
