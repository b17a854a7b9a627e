//! The E1–E12 experiment suite.
//!
//! Each function builds one markdown table; the paper (a vision paper)
//! has no tables or figures of its own, so every experiment is pinned
//! to a sentence-level claim instead — see the crate docs for the
//! index. All experiments are deterministic.

use crate::table::{f1, f3, ms, pct, Table};
use evorec_core::{
    anonymity::anonymise, category_coverage, fairness_report, intra_set_distance,
    item_relatedness, relatedness::expansion_config, select_for_group, select_mmr,
    swap_refine, set_objective, DistanceMatrix, DistanceWeights, ExpandedProfile,
    GroupAggregation, Recommender, RelevanceMatrix, UserId, UserProfile,
};
use evorec_kb::TermId;
use evorec_measures::{
    similarity, EvolutionContext, EvolutionMeasure, MeasureRegistry, NeighbourhoodChangeCount,
};
use evorec_synth::workload::{clinical, curated_kb, social_feed};
use evorec_synth::{generate_population, GeneratedKb, PopulationConfig, Scenario, SchemaConfig};
use evorec_versioning::{Archive, ArchivePolicy, Justification, ProvenanceLedger};
use std::time::{Duration, Instant};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn hotspot_kb(classes: usize, seed: u64) -> (GeneratedKb, Vec<TermId>) {
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes,
        properties: (classes / 5).max(2),
        instances: classes * 5,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed,
    });
    let outcome = kb.evolve(
        &Scenario::Hotspot {
            focus_classes: 3,
            rate: 0.15,
            concentration: 0.9,
        },
        seed ^ 0xbeef,
    );
    (kb, outcome.focus_classes)
}

/// E1 — "Deltas vs overviews" (§I: deltas "include loads of
/// information"; measures "offer high-level overviews").
pub fn e1() -> Table {
    let mut table = Table::new(
        "E1: raw delta size vs top-10 measure overview",
        &[
            "classes", "base triples", "delta triples", "hl changes", "overview items",
            "compression",
        ],
    );
    for classes in [250usize, 500, 1000, 2000] {
        let world = curated_kb(classes, 1000 + classes as u64);
        let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
        // The overview a human actually reads: the top-10 of ONE
        // recommended measure (vs the full delta they'd read otherwise).
        let overview_items = 10usize.min(ctx.delta.size());
        let compression = ctx.delta.size() as f64 / overview_items.max(1) as f64;
        table.row(vec![
            classes.to_string(),
            world.kb.base_triples().to_string(),
            ctx.delta.size().to_string(),
            ctx.changes().len().to_string(),
            overview_items.to_string(),
            format!("{compression:.0}x"),
        ]);
    }
    table
}

/// E2 — measure computation cost vs knowledge-base size (§II implies
/// feasibility at KB scale).
pub fn e2() -> Table {
    let mut table = Table::new(
        "E2: per-measure wall time vs KB size",
        &["classes", "measure", "time", "scored"],
    );
    for classes in [200usize, 400, 800, 1600, 3200] {
        let (kb, _) = hotspot_kb(classes, 2000 + classes as u64);
        let head = kb.store.head().unwrap();
        for measure_id in [
            "class-change-count",
            "neighbourhood-change-count-r1",
            "betweenness-shift",
            "relevance-shift",
        ] {
            // Fresh context per timing so memoised centralities do not
            // leak work between measures.
            let ctx = EvolutionContext::build(&kb.store, kb.base_version, head);
            let registry = MeasureRegistry::standard();
            let measure = registry
                .get(&measure_id.into())
                .expect("standard measure")
                .clone();
            let (report, elapsed) = timed(|| measure.compute(&ctx));
            table.row(vec![
                classes.to_string(),
                measure_id.to_string(),
                ms(elapsed),
                report.len().to_string(),
            ]);
        }
    }
    table
}

/// E3 — measure complementarity (§II(d)/§III: "different views of
/// evolution … complementary viewpoints").
pub fn e3() -> Table {
    let (kb, _) = hotspot_kb(400, 3003);
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap());
    let registry = MeasureRegistry::standard();
    let reports: Vec<_> = registry
        .compute_all(&ctx)
        .into_iter()
        .filter(|r| r.target == evorec_measures::TargetKind::Classes)
        .collect();
    let mut table = Table::new(
        "E3: pairwise rank agreement between class measures (Kendall tau / Jaccard@10)",
        &["measure A", "measure B", "kendall-tau", "jaccard@10"],
    );
    for i in 0..reports.len() {
        for j in (i + 1)..reports.len() {
            let tau = similarity::kendall_tau(&reports[i], &reports[j]);
            let jac = similarity::jaccard_at_k(&reports[i], &reports[j], 10);
            table.row(vec![
                reports[i].measure.to_string(),
                reports[j].measure.to_string(),
                tau.map_or("n/a".into(), f3),
                f3(jac),
            ]);
        }
    }
    table
}

/// E4 — counting vs importance shift (§II(d): the shift "is, in many
/// cases, superior to the simple counting of changes").
pub fn e4() -> Table {
    let mut table = Table::new(
        "E4: rank of the planted contrast under counting vs shift measures",
        &["measure", "rank(moved hub)", "rank(spammed leaf)", "prefers"],
    );
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes: 300,
        properties: 40,
        instances: 1500,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 4004,
    });
    let outcome = kb.evolve(&Scenario::CountVsImpact { spam_instances: 60 }, 4005);
    let (hub, leaf) = outcome.contrast.expect("contrast scenario");
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, outcome.version);
    let registry = MeasureRegistry::standard();
    for id in [
        "class-change-count",
        "neighbourhood-change-count-r1",
        "degree-shift",
        "betweenness-shift",
        "bridging-shift",
        "relevance-shift",
    ] {
        let report = registry.get(&id.into()).unwrap().compute(&ctx);
        let hub_rank = report.rank_of(hub).map_or(usize::MAX, |r| r + 1);
        let leaf_rank = report.rank_of(leaf).map_or(usize::MAX, |r| r + 1);
        table.row(vec![
            id.to_string(),
            hub_rank.to_string(),
            leaf_rank.to_string(),
            if hub_rank < leaf_rank {
                "hub (impact)".into()
            } else {
                "leaf (count)".into()
            },
        ]);
    }
    table
}

/// E5 — relatedness (§III(a): users want "only a small piece of the
/// evolved data, namely the most relevant to their interests").
pub fn e5() -> Table {
    let mut table = Table::new(
        "E5: personalised vs unpersonalised ranking of candidate items",
        &["users", "ranking", "precision@5", "ndcg@5"],
    );
    let (kb, _) = hotspot_kb(300, 5005);
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap());
    let population = generate_population(
        &kb,
        PopulationConfig {
            users: 24,
            seed: 5006,
            ..Default::default()
        },
    );
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let (items, _) = recommender.candidates(&ctx);

    let mut results: Vec<(&str, f64, f64)> = Vec::new();
    for personalised in [true, false] {
        let mut precision_sum = 0.0;
        let mut ndcg_sum = 0.0;
        for (profile, &topic) in population.profiles.iter().zip(&population.topics) {
            // Ground truth: items focused inside the user's topic subtree.
            let subtree: Vec<TermId> = kb
                .subtree_of(topic)
                .into_iter()
                .map(|c| kb.classes[c])
                .collect();
            let relevant = |item: &evorec_core::Item| subtree.contains(&item.focus);
            let mut scored: Vec<(usize, f64)> = if personalised {
                let expanded = ExpandedProfile::expand(profile, &ctx.graph_union, expansion_config());
                items
                    .iter()
                    .enumerate()
                    .map(|(ix, it)| (ix, item_relatedness(&expanded, it)))
                    .collect()
            } else {
                items.iter().enumerate().map(|(ix, it)| (ix, it.intensity)).collect()
            };
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let top: Vec<bool> = scored
                .iter()
                .take(5)
                .map(|&(ix, _)| relevant(&items[ix]))
                .collect();
            let hits = top.iter().filter(|&&h| h).count();
            precision_sum += hits as f64 / 5.0;
            let dcg: f64 = top
                .iter()
                .enumerate()
                .map(|(r, &h)| if h { 1.0 / ((r as f64 + 2.0).log2()) } else { 0.0 })
                .sum();
            let ideal: f64 = (0..top.len().min(hits.max(1)))
                .map(|r| 1.0 / ((r as f64 + 2.0).log2()))
                .sum();
            ndcg_sum += if hits > 0 { dcg / ideal } else { 0.0 };
        }
        let n = population.profiles.len() as f64;
        results.push((
            if personalised { "personalised" } else { "intensity-only" },
            precision_sum / n,
            ndcg_sum / n,
        ));
    }
    for (name, p, n) in results {
        table.row(vec![
            population.profiles.len().to_string(),
            name.to_string(),
            f3(p),
            f3(n),
        ]);
    }
    table
}

/// E6 — the relevance/diversity trade-off (§III(c): sets must "as a
/// whole exhibit a desired property").
pub fn e6() -> Table {
    let mut table = Table::new(
        "E6: MMR lambda sweep (greedy vs +swap refinement)",
        &[
            "lambda", "algorithm", "mean relevance", "intra-set distance",
            "category coverage", "set objective",
        ],
    );
    let (kb, focus) = hotspot_kb(300, 6006);
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap());
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let (items, reports) = recommender.candidates(&ctx);
    let profile = UserProfile::new(UserId(0), "sweep").with_interest(focus[0], 1.0);
    let expanded = ExpandedProfile::expand(&profile, &ctx.graph_union, expansion_config());
    let relevance: Vec<f64> = items.iter().map(|it| item_relatedness(&expanded, it)).collect();
    let distances = DistanceMatrix::compute(&items, &reports, 20, DistanceWeights::default());
    for lambda in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let greedy: Vec<usize> = select_mmr(&relevance, &distances, 6, lambda)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let refined = swap_refine(&greedy, &relevance, &distances, lambda, 3);
        for (name, selection) in [("greedy", &greedy), ("greedy+swap", &refined)] {
            let mean_rel: f64 = selection.iter().map(|&i| relevance[i]).sum::<f64>()
                / selection.len().max(1) as f64;
            table.row(vec![
                f1(lambda),
                name.to_string(),
                f3(mean_rel),
                f3(intra_set_distance(selection, &distances)),
                pct(category_coverage(&items, selection)),
                f3(set_objective(selection, &relevance, &distances, lambda)),
            ]);
        }
    }
    table
}

/// E7 — group fairness (§III(d): packages "strongly related and fair to
/// the majority of the group members").
pub fn e7() -> Table {
    let mut table = Table::new(
        "E7: group aggregation strategies on heterogeneous groups",
        &["group size", "strategy", "min-sat", "mean-sat", "jain", "envy"],
    );
    let world = social_feed(200, 7007);
    let ctx = EvolutionContext::build(&world.kb.store, world.base(), world.head());
    let recommender = Recommender::with_defaults(MeasureRegistry::standard());
    let (items, _) = recommender.candidates(&ctx);
    for group_size in [2usize, 4, 8, 16] {
        let members = &world.population.profiles[..group_size];
        let rows: Vec<Vec<f64>> = members
            .iter()
            .map(|p| {
                let e = ExpandedProfile::expand(p, &ctx.graph_union, expansion_config());
                items.iter().map(|it| item_relatedness(&e, it)).collect()
            })
            .collect();
        let matrix = RelevanceMatrix::new(rows);
        for strategy in GroupAggregation::ALL {
            let selection = select_for_group(&matrix, 5, strategy);
            let report = fairness_report(&matrix, &selection);
            table.row(vec![
                group_size.to_string(),
                strategy.label().to_string(),
                f3(report.min_satisfaction),
                f3(report.mean_satisfaction),
                f3(report.jain_index),
                f3(report.envy),
            ]);
        }
    }
    table
}

/// E8 — the anonymity/utility trade-off (§III(e)).
pub fn e8() -> Table {
    let mut table = Table::new(
        "E8: k-anonymous change overviews on the clinical workload",
        &["k", "utility", "suppressed", "cells", "max depth", "mean depth"],
    );
    let world = clinical(150, 8008);
    let parents = world.kb.parent_terms();
    for k in [2usize, 4, 8, 16, 32, 64] {
        let report = anonymise(&world.feeds, &parents, k);
        assert!(report.cells.iter().all(|c| c.contributors >= k));
        table.row(vec![
            k.to_string(),
            pct(report.utility()),
            pct(report.suppression_rate()),
            report.cells.len().to_string(),
            report.max_depth().to_string(),
            f3(report.mean_depth()),
        ]);
    }
    table
}

/// E9 — transparency overhead and archiving-policy ablation (§III(b)
/// plus reference \[13\]).
pub fn e9() -> Table {
    let mut table = Table::new(
        "E9: provenance overhead and archiving policies (8-version history)",
        &["metric", "value", "detail"],
    );
    // Build an 8-version audited history.
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes: 150,
        properties: 20,
        instances: 750,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 9009,
    });
    let mut ledger = ProvenanceLedger::new();
    for step in 0..7u64 {
        let parent = kb.store.head();
        let outcome = kb.evolve(&Scenario::UniformChurn { rate: 0.05 }, 9100 + step);
        let delta = kb.store.delta(parent.unwrap(), outcome.version);
        ledger.record_commit(
            format!("curator-{}", step % 3),
            "churn",
            parent,
            outcome.version,
            &delta,
            Justification::Observation,
            "",
        );
    }
    let bytes = ledger.approx_bytes();
    table.row(vec![
        "provenance bytes/record".into(),
        format!("{}", bytes / ledger.len().max(1)),
        format!("{} records, {} bytes", ledger.len(), bytes),
    ]);
    let probe = kb.classes[1];
    let (hits, lookup) = timed(|| ledger.history_of_term(probe).len());
    table.row(vec![
        "who-changed-X lookup".into(),
        ms(lookup),
        format!("{hits} records touch the probe class"),
    ]);
    let explained = ledger
        .records()
        .iter()
        .filter(|r| r.added_count + r.removed_count > 0)
        .count();
    table.row(vec![
        "explainable commits".into(),
        pct(explained as f64 / ledger.len().max(1) as f64),
        "commits with non-empty documented deltas".into(),
    ]);
    for policy in [
        ArchivePolicy::FullSnapshots,
        ArchivePolicy::DeltaChain,
        ArchivePolicy::Hybrid { full_every: 3 },
    ] {
        let archive = Archive::build(&kb.store, policy);
        let stats = archive.stats();
        let (_, rebuild) = timed(|| {
            archive
                .materialize(kb.store.head().unwrap())
                .expect("head materialises")
        });
        table.row(vec![
            format!("archive[{}] stored triples", stats.policy_name),
            stats.total_stored_triples().to_string(),
            format!(
                "mean replay {:.2} steps, head rebuild {}",
                stats.mean_reconstruction_steps,
                ms(rebuild)
            ),
        ]);
    }
    table
}

/// E10 — neighbourhood radius ablation (§II(b): neighbourhood changes
/// reveal "whether the topology … changed in a particular area").
pub fn e10() -> Table {
    let mut table = Table::new(
        "E10: neighbourhood radius ablation on the hotspot workload",
        &["radius", "best hotspot-adjacent rank", "flagged classes", "time"],
    );
    let (kb, focus) = hotspot_kb(400, 1010);
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap());
    // Ground truth: classes adjacent to a planted hotspot class.
    let neighbours: Vec<TermId> = focus
        .iter()
        .filter_map(|&f| ctx.graph_union.node_of(f))
        .flat_map(|u| {
            ctx.graph_union
                .neighbours(u)
                .iter()
                .map(|&v| ctx.graph_union.term(v))
                .collect::<Vec<_>>()
        })
        .collect();
    for radius in 0u32..=4 {
        let measure = NeighbourhoodChangeCount { radius };
        let (report, elapsed) = timed(|| measure.compute(&ctx));
        let best_rank = neighbours
            .iter()
            .filter_map(|&n| report.rank_of(n))
            .filter(|&r| report.scores()[r].1 > 0.0)
            .min()
            .map_or("n/a".into(), |r| (r + 1).to_string());
        table.row(vec![
            radius.to_string(),
            best_rank,
            report.positive_count().to_string(),
            ms(elapsed),
        ]);
    }
    table
}

/// E11 (extension) — feedback-loop convergence: the closed human loop of
/// the paper's processing model, simulated against a ground-truth
/// oracle.
pub fn e11() -> Table {
    let mut table = Table::new(
        "E11: session acceptance over rounds (oracle accepts hotspot-subtree items)",
        &["round", "shown", "accepted", "acceptance", "interest mass"],
    );
    let (kb, focus) = hotspot_kb(300, 1111);
    let ctx = EvolutionContext::build(&kb.store, kb.base_version, kb.store.head().unwrap());
    // Oracle: accept anything focused on a hotspot class or its subtree.
    let mut truth: Vec<TermId> = Vec::new();
    for &f in &focus {
        if let Some(ix) = kb.classes.iter().position(|&c| c == f) {
            truth.extend(kb.subtree_of(ix).into_iter().map(|c| kb.classes[c]));
        }
    }
    // λ = 1 (pure relevance): diversity deliberately disabled so the
    // learning signal shows up directly in acceptance; the diversity
    // trade-off has its own experiment (E6).
    let recommender = Recommender::new(
        MeasureRegistry::standard(),
        evorec_core::RecommenderConfig {
            top_k: 5,
            novelty_weight: 0.0,
            mmr_lambda: 1.0,
            swap_passes: 0,
            ..Default::default()
        },
    );
    // Cold-start note: with literally zero interests every candidate has
    // relevance 0 and rejections cannot bootstrap learning (they only
    // clamp at the floor), so the simulated curator starts with a faint
    // seed interest on one hotspot class — the realistic situation the
    // paper assumes (curators watch *something*).
    let mut profile = UserProfile::new(UserId(0), "sim").with_interest(focus[0], 0.05);
    let trace = evorec_core::simulate_session(
        &recommender,
        &ctx,
        &mut profile,
        |item| truth.contains(&item.focus),
        &evorec_core::FeedbackLoop::default(),
        8,
    );
    for round in &trace.rounds {
        table.row(vec![
            round.round.to_string(),
            round.shown.to_string(),
            round.accepted.to_string(),
            pct(round.acceptance_rate),
            f3(round.interest_mass),
        ]);
    }
    table
}

/// E12 (extension) — trend detection over a multi-step history ("observe
/// changes trends", §I).
pub fn e12() -> Table {
    let mut table = Table::new(
        "E12: timeline trend detection over an 8-step history",
        &["metric", "value"],
    );
    let mut kb = GeneratedKb::generate(SchemaConfig {
        classes: 200,
        properties: 25,
        instances: 1000,
        instance_zipf: 1.0,
        links_per_instance: 2.0,
        seed: 1212,
    });
    // Plant a rising hotspot: one commit per step carrying `step + 1`
    // new instances of the planted class plus a little deterministic
    // background noise on other classes.
    let rising = kb.classes[3];
    let rdf_type = kb.store.vocab().rdf_type;
    for step in 0..8usize {
        let head = kb.store.head().unwrap();
        let mut snapshot = kb.store.snapshot(head).clone();
        for b in 0..3usize {
            let class_ix = (step * 7 + b * 13 + 5) % kb.classes.len();
            let class = kb.classes[if class_ix == 3 { 4 } else { class_ix }];
            let inst = kb
                .store
                .intern_iri(format!("http://evorec.example/noise/{step}_{b}"));
            snapshot.insert(evorec_kb::Triple::new(inst, rdf_type, class));
        }
        for j in 0..=step {
            let inst = kb
                .store
                .intern_iri(format!("http://evorec.example/trend/{step}_{j}"));
            snapshot.insert(evorec_kb::Triple::new(inst, rdf_type, rising));
        }
        kb.store.commit_snapshot(format!("trend-{step}"), snapshot);
    }
    let timeline = evorec_versioning::Timeline::build(&kb.store);
    table.row(vec!["steps digested".into(), timeline.steps().to_string()]);
    table.row(vec![
        "terms touched".into(),
        timeline.touched_terms().to_string(),
    ]);
    table.row(vec![
        "planted class trend".into(),
        timeline.trend_of(rising).label().to_string(),
    ]);
    table.row(vec![
        "planted class total changes".into(),
        timeline.total_of(rising).to_string(),
    ]);
    let top = timeline.most_changed(5);
    let rank = top.iter().position(|&(t, _)| t == rising);
    table.row(vec![
        "planted class in top-5 most-changed".into(),
        rank.map_or("no".into(), |r| format!("yes (rank {})", r + 1)),
    ]);
    table.row(vec![
        "rising terms detected".into(),
        timeline
            .terms_with_trend(evorec_versioning::Trend::Rising)
            .len()
            .to_string(),
    ]);
    table
}

/// A table generator for one experiment.
pub type ExperimentFn = fn() -> Table;

/// Every experiment, in order, as `(id, generator)` pairs.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e1", e1 as ExperimentFn),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke-test the cheap experiments end-to-end (the expensive sweeps
    // are exercised by the bin / cargo bench).
    #[test]
    fn e4_table_shape() {
        let t = e4();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn e8_table_shape() {
        let t = e8();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn e10_table_shape() {
        let t = e10();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn registry_ids_used_by_e2_exist() {
        let registry = MeasureRegistry::standard();
        for id in [
            "class-change-count",
            "neighbourhood-change-count-r1",
            "betweenness-shift",
            "relevance-shift",
        ] {
            assert!(registry.get(&id.into()).is_some(), "{id}");
        }
    }
}
