//! End-to-end integration: generate → evolve → measure → recommend →
//! explain, across every workload preset.

use evorec::core::{
    anonymity::anonymise, Explainer, FeedbackLoop, FeedbackSignal, GroupAggregation,
    Recommender, RecommenderConfig, UserId, UserProfile,
};
use evorec::kb::FxHasher;
use evorec::measures::{EvolutionContext, MeasureCategory, MeasureRegistry};
use evorec::synth::workload::{clinical, curated_kb, sensor_stream, social_feed, Workload};
use evorec::synth::Scenario;
use evorec::versioning::{
    describe_all, Archive, ArchivePolicy, Justification, ProvenanceLedger, VersionId,
};
use std::hash::Hasher;

#[test]
fn every_workload_supports_the_full_pipeline() {
    for world in [
        curated_kb(50, 1),
        social_feed(50, 2),
        sensor_stream(50, 3),
        clinical(50, 4),
    ] {
        let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
        assert!(ctx.delta.size() > 0, "{}: evolution changed something", world.name);

        let registry = MeasureRegistry::standard();
        let reports = registry.compute_all(&ctx);
        assert_eq!(reports.len(), registry.len(), "{}", world.name);
        for report in &reports {
            for &(_, score) in report.scores() {
                assert!(score.is_finite() && score >= 0.0, "{}", world.name);
            }
        }

        let profile = &world.population.profiles[0];
        let recommender = Recommender::with_defaults(registry);
        let rec = recommender.recommend(&ctx, profile);
        assert!(
            !rec.items.is_empty(),
            "{}: pipeline must produce recommendations",
            world.name
        );
        for scored in &rec.items {
            assert!((0.0..=1.0).contains(&scored.item.intensity));
            assert!(scored.relevance >= 0.0);
        }

        // Explanations render for every recommended item.
        let explainer =
            Explainer::new(&ctx, recommender.registry(), world.kb.store.interner());
        for scored in &rec.items {
            let text = explainer.explain(scored).render();
            assert!(text.contains("Recommended:"), "{}", world.name);
        }
    }
}

#[test]
fn hotspot_recommendation_finds_the_planted_region() {
    let world = curated_kb(100, 11);
    let hotspot = world.outcomes[1].focus_classes[0];
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let curator = UserProfile::new(UserId(0), "curator").with_interest(hotspot, 1.0);
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let rec = recommender.recommend(&ctx, &curator);
    // The planted hotspot region (or the hotspot itself) must surface.
    let hit = rec.items.iter().any(|s| s.item.focus == hotspot);
    assert!(
        hit,
        "hotspot {hotspot:?} missing from {:?}",
        rec.items
            .iter()
            .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
            .collect::<Vec<_>>()
    );
}

#[test]
fn recommendation_package_is_diverse_across_categories() {
    let world = curated_kb(80, 5);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let profile = &world.population.profiles[0];
    let config = RecommenderConfig {
        top_k: 6,
        mmr_lambda: 0.4, // lean on diversity
        ..Default::default()
    };
    let recommender = Recommender::new(MeasureRegistry::standard(), config);
    let rec = recommender.recommend(&ctx, profile);
    let categories: std::collections::HashSet<MeasureCategory> =
        rec.items.iter().map(|s| s.item.category).collect();
    assert!(
        categories.len() >= 2,
        "diversity-leaning config must span categories, got {categories:?}"
    );
}

#[test]
fn feedback_loop_shifts_future_recommendations() {
    let world = curated_kb(80, 17);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let mut profile = UserProfile::new(UserId(3), "learner");
    let first = recommender.recommend(&ctx, &profile);
    assert!(!first.items.is_empty());

    // Accept the last item repeatedly; its focus becomes an interest.
    let target = first.items.last().unwrap().item.clone();
    let fb = FeedbackLoop::default();
    for _ in 0..5 {
        fb.apply(&mut profile, &target, FeedbackSignal::Accepted);
    }
    assert!(profile.interest(target.focus) > 0.0);
    // The profile now has history: the exact item was seen.
    assert!(profile.has_seen(&target.measure, target.focus));

    let second = recommender.recommend(&ctx, &profile);
    // Relevance at the accepted focus must now be strictly positive for
    // any item focused there.
    for scored in &second.items {
        if scored.item.focus == target.focus {
            assert!(scored.relevance > 0.0);
        }
    }
}

#[test]
fn group_pipeline_with_all_strategies() {
    let world = social_feed(60, 23);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let team: Vec<UserProfile> = world.population.profiles[..6].to_vec();
    for strategy in GroupAggregation::ALL {
        let config = RecommenderConfig {
            group_aggregation: strategy,
            top_k: 4,
            ..Default::default()
        };
        let recommender = Recommender::new(MeasureRegistry::standard(), config);
        let rec = recommender.recommend_for_group(&ctx, &team);
        assert!(!rec.items.is_empty(), "{}", strategy.label());
        assert!(rec.fairness.min_satisfaction >= 0.0);
        assert!(rec.fairness.jain_index <= 1.0 + 1e-9);
    }
}

#[test]
fn clinical_feeds_anonymise_with_guarantee() {
    let world = clinical(60, 29);
    let parents = world.kb.parent_terms();
    for k in [2, 4, 8] {
        let report = anonymise(&world.feeds, &parents, k);
        for cell in &report.cells {
            assert!(cell.contributors >= k);
        }
        let disclosed: f64 = report.cells.iter().map(|c| c.mass).sum();
        assert!((disclosed + report.suppressed_mass - report.total_mass).abs() < 1e-6);
    }
}

#[test]
fn provenance_and_archiving_integrate_with_generated_histories() {
    let mut world = curated_kb(40, 31);
    // Extend the history with an audited commit.
    let parent = world.kb.store.head();
    let outcome = world
        .kb
        .evolve(&evorec::synth::Scenario::Growth { rate: 0.1 }, 99);
    let mut ledger = ProvenanceLedger::new();
    let delta = world.kb.store.delta(parent.unwrap(), outcome.version);
    ledger.record_commit(
        "auditor",
        "growth",
        parent,
        outcome.version,
        &delta,
        Justification::Observation,
        "",
    );
    assert_eq!(ledger.history_of_version(outcome.version).len(), 1);

    // Archives reconstruct the full (now 4-version) history.
    for policy in [
        ArchivePolicy::FullSnapshots,
        ArchivePolicy::DeltaChain,
        ArchivePolicy::Hybrid { full_every: 2 },
    ] {
        let archive = Archive::build(&world.kb.store, policy);
        for v in world.kb.store.versions() {
            let (got, _) = archive.materialize(v.id).unwrap();
            assert_eq!(&got, world.kb.store.snapshot(v.id), "{}", policy.name());
        }
    }
}

#[test]
fn delta_codec_roundtrips_generated_histories() {
    let world = sensor_stream(50, 37);
    let delta = world.kb.store.delta(world.base(), world.head());
    let wire = evorec::versioning::encode_delta(&delta);
    let decoded = evorec::versioning::decode_delta(&wire).unwrap();
    assert_eq!(&decoded, delta.as_ref());
    // The wire format beats naive 12-byte triples on real deltas.
    assert!(wire.len() < delta.size() * 12 + 16);
}

/// Line count and FxHash digest of `describe_all` over one step, its
/// lines joined by newlines: a pin on the order of the detected changes,
/// not only on their set, since an explanation shows only the first few.
fn change_description_digest(world: &Workload, from: VersionId, to: VersionId) -> (usize, u64) {
    let ctx = EvolutionContext::build(&world.kb.store, from, to);
    let lines = describe_all(ctx.changes(), world.kb.store.interner());
    let mut h = FxHasher::default();
    h.write(lines.join("\n").as_bytes());
    (lines.len(), h.finish())
}

#[test]
fn change_descriptions_keep_their_order() {
    // Thirty moves per refactor: enough re-parented classes that the
    // order `ChangeSet::detect` reads subsumption edits in shows.
    let mut world = curated_kb(100, 11);
    world.kb.evolve(&Scenario::SchemaRefactor { moves: 30 }, 12);
    world.kb.evolve(&Scenario::UniformChurn { rate: 0.05 }, 13);
    world.kb.evolve(&Scenario::SchemaRefactor { moves: 30 }, 14);
    let versions: Vec<VersionId> = world.kb.store.versions().iter().map(|v| v.id).collect();
    let mut got: Vec<(usize, u64)> = versions
        .windows(2)
        .map(|pair| change_description_digest(&world, pair[0], pair[1]))
        .collect();
    got.push(change_description_digest(
        &world,
        world.base(),
        world.head(),
    ));
    assert_eq!(
        got,
        [
            (41, 0x4b2a_1a95_cbb4_b751),  // V0 → V1, uniform churn
            (121, 0x7a01_8071_ec37_4a45), // V1 → V2, hotspot
            (26, 0x4f05_97a5_5941_1bd8),  // V2 → V3, schema refactor
            (42, 0x66a3_34cd_99c2_773f),  // V3 → V4, uniform churn
            (25, 0xc556_01e7_c91e_cae0),  // V4 → V5, schema refactor
            (242, 0xaacb_3518_f47b_48b4), // V0 → V5, the whole span
        ]
    );
}
