//! Property-based tests over the core invariants (proptest).

use evorec::core::{anonymity::anonymise, select_mmr, DistanceMatrix, DistanceWeights, UserFeed, UserId};
use evorec::core::{fairness_report, select_for_group, GroupAggregation, RelevanceMatrix};
use evorec::core::{
    GroupRecommendation, Recommendation, Recommender, RecommenderConfig, ReportCache, ScoredItem,
    UserProfile,
};
use evorec::graph::{
    betweenness, betweenness_reference, bridging_centrality, k_hop_neighbourhood, k_hop_sums,
    SchemaGraph,
};
use evorec::kb::{ntriples, FxHashMap, Term, TermId, Triple, TriplePattern, TripleStore};
use evorec::measures::similarity;
use evorec::measures::{EvolutionContext, MeasureRegistry};
use evorec::measures::{MeasureCategory, MeasureId, MeasureReport, TargetKind};
use evorec::versioning::{decode_delta, encode_delta, LowLevelDelta, VersionedStore};
use proptest::prelude::*;
use std::sync::Arc;

fn t(n: u32) -> TermId {
    TermId::from_u32(n)
}

fn arb_triple(universe: u32) -> impl Strategy<Value = Triple> {
    (0..universe, 0..universe, 0..universe).prop_map(|(s, p, o)| Triple::new(t(s), t(p), t(o)))
}

fn arb_triples(universe: u32, max: usize) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(arb_triple(universe), 0..max)
}

/// Classes of the expansion-memo world.
const MEMO_CLASSES: u32 = 8;

/// A two-version store over eight classes — a fixed chain plus random
/// extra subclass edges — with random instance churn landing in V1.
/// Returns the step's context, its classes and two terms interned
/// outside every triple (so off the union graph).
fn memo_world(
    edges: &[(u32, u32)],
    churn: &[(u32, u32)],
) -> (EvolutionContext, Vec<TermId>, [TermId; 2]) {
    let mut vs = VersionedStore::new();
    let v = *vs.vocab();
    let classes: Vec<TermId> = (0..MEMO_CLASSES)
        .map(|i| vs.intern_iri(format!("http://x/C{i}")))
        .collect();
    let strangers = [vs.intern_iri("http://x/S0"), vs.intern_iri("http://x/S1")];
    let mut s0 = TripleStore::new();
    let chain = (1..MEMO_CLASSES).map(|i| (i, i - 1));
    for (a, b) in chain.chain(edges.iter().copied()) {
        let (a, b) = (a % MEMO_CLASSES, b % MEMO_CLASSES);
        if a != b {
            s0.insert(Triple::new(
                classes[a as usize],
                v.rdfs_subclassof,
                classes[b as usize],
            ));
        }
    }
    let v0 = vs.commit_snapshot("v0", s0.clone());
    let mut s1 = s0;
    for &(i, class) in churn {
        let inst = vs.intern_iri(format!("http://x/i{i}"));
        s1.insert(Triple::new(
            inst,
            v.rdf_type,
            classes[(class % MEMO_CLASSES) as usize],
        ));
    }
    let v1 = vs.commit_snapshot("v1", s1);
    (EvolutionContext::build(&vs, v0, v1), classes, strangers)
}

/// One scored item's key and scores, floats as bit patterns.
type ItemBits = (String, TermId, [u64; 3]);

fn item_bits(items: &[ScoredItem]) -> Vec<ItemBits> {
    items
        .iter()
        .map(|s| {
            (
                s.item.measure.as_str().to_string(),
                s.item.focus,
                [
                    s.relevance.to_bits(),
                    s.novelty.to_bits(),
                    s.objective.to_bits(),
                ],
            )
        })
        .collect()
}

/// Every scored field of a recommendation, floats as bit patterns.
fn recommendation_bits(rec: &Recommendation) -> (Vec<ItemBits>, usize) {
    (item_bits(&rec.items), rec.candidates_considered)
}

/// Every scored field of a group recommendation, floats as bit patterns.
fn group_bits(rec: &GroupRecommendation) -> (Vec<ItemBits>, [u64; 4], usize) {
    let f = &rec.fairness;
    let fairness = [
        f.min_satisfaction.to_bits(),
        f.mean_satisfaction.to_bits(),
        f.jain_index.to_bits(),
        f.envy.to_bits(),
    ];
    (item_bits(&rec.items), fairness, rec.candidates_considered)
}

proptest! {
    /// The expansion memo is invisible in the answers: over random
    /// worlds and random profiles (plus one with no interests, one with
    /// only off-graph interests — the raw-interest fallback —, a repeat
    /// of the first, and two on the same classes with swapped weights),
    /// a cached recommender's `recommend` and `recommend_for_group` are
    /// `to_bits`-identical to a fresh uncached recommender's, on the
    /// first call and again when every expansion is a memo hit.
    #[test]
    fn expansion_memo_answers_bit_identically(
        edges in prop::collection::vec((0u32..8, 0u32..8), 0..10),
        churn in prop::collection::vec((0u32..30, 0u32..8), 1..20),
        specs in prop::collection::vec(prop::collection::vec((0u32..10, 0.0f64..2.0), 0..4), 1..5),
    ) {
        let (ctx, classes, strangers) = memo_world(&edges, &churn);
        let mut profiles: Vec<UserProfile> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut profile = UserProfile::new(UserId(i as u32), format!("u{i}"));
                for &(pick, weight) in spec {
                    let term = match classes.get(pick as usize) {
                        Some(&class) => class,
                        None => strangers[pick as usize - classes.len()],
                    };
                    profile.set_interest(term, weight);
                }
                profile
            })
            .collect();
        profiles.push(UserProfile::new(UserId(90), "none"));
        profiles.push(
            UserProfile::new(UserId(91), "strangers")
                .with_interest(strangers[0], 1.0)
                .with_interest(strangers[1], 0.5),
        );
        profiles.push(profiles[0].clone());
        let last = classes[classes.len() - 1];
        for (id, weights) in [(92, [1.0, 0.25]), (93, [0.25, 1.0])] {
            profiles.push(
                UserProfile::new(UserId(id), "ends")
                    .with_interest(classes[0], weights[0])
                    .with_interest(last, weights[1]),
            );
        }

        let fresh = Recommender::new(MeasureRegistry::standard(), RecommenderConfig::default());
        let singles: Vec<_> = profiles
            .iter()
            .map(|p| recommendation_bits(&fresh.recommend(&ctx, p)))
            .collect();
        let group = group_bits(&fresh.recommend_for_group(&ctx, &profiles));

        let cache = Arc::new(ReportCache::new());
        let cached = Recommender::with_cache(
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
            Arc::clone(&cache),
        );
        for pass in 0..2 {
            let misses = cache.stats().expansion_misses;
            for (profile, want) in profiles.iter().zip(&singles) {
                prop_assert_eq!(&recommendation_bits(&cached.recommend(&ctx, profile)), want);
            }
            prop_assert_eq!(&group_bits(&cached.recommend_for_group(&ctx, &profiles)), &group);
            if pass == 1 {
                prop_assert_eq!(cache.stats().expansion_misses, misses, "second pass all hits");
            }
        }
        // The memo was exercised whenever there was a pool to score, it
        // holds at most one expansion per distinct seed set, and the
        // fallback profiles never enter it.
        if group.2 > 0 {
            prop_assert!(cache.stats().expansion_hits > 0);
        }
        prop_assert!(cache.expansion_len() <= profiles.len() - 3);
    }
}

proptest! {
    /// Every pattern read returns exactly the triples a full scan and
    /// filter would, in SPO order, whether it range-scans a bound
    /// subject or filters; `with_predicate` returns the filtered scan
    /// ordered by (object, subject).
    #[test]
    fn pattern_queries_equal_a_filtered_scan(
        triples in arb_triples(12, 60),
        s in prop::option::of(0u32..12),
        p in prop::option::of(0u32..12),
        o in prop::option::of(0u32..12),
    ) {
        let store = TripleStore::from_triples(triples.clone());
        let pattern = TriplePattern::new(s.map(t), p.map(t), o.map(t));
        let via_pattern: Vec<Triple> = store.match_pattern(pattern).collect();
        let via_scan: Vec<Triple> = store.iter().filter(|tr| pattern.matches(tr)).collect();
        prop_assert_eq!(via_pattern, via_scan);
        let predicate = t(p.unwrap_or(0));
        let by_predicate: Vec<Triple> = store.with_predicate(predicate).collect();
        let mut by_scan: Vec<Triple> = store.iter().filter(|tr| tr.p == predicate).collect();
        by_scan.sort_unstable_by_key(|tr| (tr.o, tr.s));
        prop_assert_eq!(by_predicate, by_scan);
    }

    /// Insert-then-remove leaves the store exactly as before.
    #[test]
    fn store_remove_undoes_insert(
        base in arb_triples(10, 40),
        extra in arb_triple(10),
    ) {
        let store = TripleStore::from_triples(base);
        let mut mutated = store.clone();
        let was_fresh = mutated.insert(extra);
        if was_fresh {
            mutated.remove(&extra);
        }
        prop_assert_eq!(store, mutated);
    }

    /// delta(v1, v2).apply(v1) == v2 for arbitrary snapshots, and the
    /// inverse delta restores v1.
    #[test]
    fn delta_apply_and_invert_roundtrip(
        a in arb_triples(10, 50),
        b in arb_triples(10, 50),
    ) {
        let v1 = TripleStore::from_triples(a);
        let v2 = TripleStore::from_triples(b);
        let delta = LowLevelDelta::compute(&v1, &v2);
        prop_assert_eq!(&delta.apply(v1.clone()), &v2);
        prop_assert_eq!(&delta.invert().apply(v2.clone()), &v1);
        // Added and removed sets are disjoint by construction.
        for tr in delta.added.iter() {
            prop_assert!(!delta.removed.contains(&tr));
        }
    }

    /// Extending a span delta by the next step behaves like sequential
    /// application.
    #[test]
    fn delta_composition_is_sequential_application(
        a in arb_triples(8, 30),
        b in arb_triples(8, 30),
        c in arb_triples(8, 30),
    ) {
        let v1 = TripleStore::from_triples(a);
        let v2 = TripleStore::from_triples(b);
        let v3 = TripleStore::from_triples(c);
        let mut span = LowLevelDelta::compute(&v1, &v2);
        span.extend_by(&LowLevelDelta::compute(&v2, &v3));
        prop_assert_eq!(span.apply(v1), v3);
    }

    /// The in-place span algebra equals a direct diff after every
    /// operation: over a random chain of snapshots V0 → … → Vn, extend
    /// the span by each step, then strip its k oldest steps. Every
    /// step also flips one fixed triple, so the chain asserts, retracts
    /// and re-asserts it, alongside random churn over a small universe
    /// that revisits triples across steps too.
    #[test]
    fn span_extend_and_strip_equal_direct_compute(
        base in arb_triples(4, 24),
        steps in prop::collection::vec(arb_triples(4, 8), 3..10),
        strip in 0usize..10,
    ) {
        let flicker = Triple::new(t(9), t(9), t(9));
        let mut snapshots = vec![TripleStore::from_triples(base)];
        for toggles in &steps {
            let mut next = snapshots[snapshots.len() - 1].clone();
            for tr in toggles.iter().chain([&flicker]) {
                if !next.remove(tr) {
                    next.insert(*tr);
                }
            }
            snapshots.push(next);
        }
        let step = |i: usize| LowLevelDelta::compute(&snapshots[i], &snapshots[i + 1]);
        let n = steps.len();
        let mut span = LowLevelDelta::new();
        for i in 0..n {
            span.extend_by(&step(i));
            prop_assert_eq!(&span, &LowLevelDelta::compute(&snapshots[0], &snapshots[i + 1]));
        }
        for k in 0..strip.min(n) {
            span.strip_front(&step(k));
            prop_assert_eq!(&span, &LowLevelDelta::compute(&snapshots[k + 1], &snapshots[n]));
        }
    }

    /// Wire-format roundtrip for arbitrary deltas.
    #[test]
    fn codec_roundtrip(
        added in arb_triples(2000, 40),
        removed in arb_triples(2000, 40),
    ) {
        let added_store = TripleStore::from_triples(added);
        let removed_kept: Vec<Triple> = TripleStore::from_triples(removed)
            .iter()
            .filter(|tr| !added_store.contains(tr))
            .collect();
        let delta = LowLevelDelta {
            added: added_store,
            removed: removed_kept.into_iter().collect(),
        };
        let wire = encode_delta(&delta);
        prop_assert_eq!(decode_delta(&wire).unwrap(), delta);
    }

    /// N-Triples: serialise ∘ parse is the identity on term triples,
    /// including hostile literal content.
    #[test]
    fn ntriples_roundtrip(
        lex in "[ -~]{0,40}", // printable ASCII incl. quotes/backslashes
        lang in prop::option::of("[a-z]{2}"),
        iri_tail in "[a-zA-Z0-9/#_.-]{1,20}",
    ) {
        let object = match lang {
            Some(l) => Term::lang_literal(lex.clone(), l),
            None => Term::literal(lex.clone()),
        };
        let triple = (
            Term::iri(format!("http://x/{iri_tail}")),
            Term::iri("http://x/p"),
            object,
        );
        let doc = ntriples::write_document([(&triple.0, &triple.1, &triple.2)]);
        let parsed = ntriples::parse_document(&doc).unwrap();
        prop_assert_eq!(parsed, vec![triple]);
    }

    /// Brandes matches the reference counter on random graphs.
    #[test]
    fn betweenness_implementations_agree(
        n in 2u32..12,
        edge_bits in prop::collection::vec(any::<bool>(), 66),
    ) {
        let mut edges = Vec::new();
        let mut bit = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if edge_bits[bit % edge_bits.len()] {
                    edges.push((t(i), t(j)));
                }
                bit += 1;
            }
        }
        let g = SchemaGraph::from_edges((0..n).map(t).collect(), &edges);
        let fast = betweenness(&g);
        let reference = betweenness_reference(&g);
        for (f, r) in fast.iter().zip(&reference) {
            prop_assert!((f - r).abs() < 1e-6, "brandes {f} vs reference {r}");
        }
    }

    /// The one-sweep neighbourhood sums equal summing each node's
    /// `k_hop_neighbourhood`, bit for bit, on random sparse graphs with
    /// integer node values at radii 0–3.
    #[test]
    fn k_hop_sums_equal_per_node_neighbourhood_sums(
        n in 1u32..14,
        edge_draws in prop::collection::vec(0u32..4, 91),
        values in prop::collection::vec(0u32..50, 14),
    ) {
        let mut edges = Vec::new();
        let mut draw = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if edge_draws[draw] == 0 {
                    edges.push((t(i), t(j)));
                }
                draw += 1;
            }
        }
        let g = SchemaGraph::from_edges((0..n).map(t).collect(), &edges);
        let values: Vec<f64> = values[..n as usize].iter().map(|&v| f64::from(v)).collect();
        for radius in 0..=3 {
            let sums = k_hop_sums(&g, &values, radius);
            for u in g.node_indexes() {
                let reference: f64 = k_hop_neighbourhood(&g, u, radius)
                    .into_iter()
                    .map(|v| values[v as usize])
                    .sum();
                prop_assert_eq!(sums[u as usize].to_bits(), reference.to_bits(), "node {u} radius {radius}");
            }
        }
    }

    /// A context's one-pass change-count table answers δ(n) as the
    /// delta's per-term scan does, for every term — including terms a
    /// triple mentions in several positions, which the small universe
    /// makes common.
    #[test]
    fn context_change_counts_equal_delta_scans(
        a in arb_triples(6, 40),
        b in arb_triples(6, 40),
    ) {
        let mut vs = VersionedStore::new();
        let v0 = vs.commit_snapshot("v0", TripleStore::from_triples(a));
        let v1 = vs.commit_snapshot("v1", TripleStore::from_triples(b));
        let ctx = EvolutionContext::build(&vs, v0, v1);
        for term in (0..8).map(t) {
            prop_assert_eq!(ctx.changes_for_term(term), ctx.delta.changes_for_term(term), "{:?}", term);
        }
    }

    /// Sharing a predecessor's class graph never serves a stale
    /// centrality. Over a random stream that mixes schema epochs
    /// (subclass axioms, reflexive ones included, and typings) with
    /// instance-only ones (links and annotations), every version's
    /// substrate answers betweenness and bridging bit-identically to a
    /// fresh computation over its own class graph, and shares its
    /// predecessor's graph exactly when the two graphs are equal.
    #[test]
    fn shared_substrates_match_fresh_centralities(
        base in prop::collection::vec((0usize..6, 0usize..6), 0..10),
        epochs in prop::collection::vec((0u8..4, 0usize..6, 0usize..6), 1..12),
    ) {
        let mut vs = VersionedStore::new();
        let v = *vs.vocab();
        let mut terms = |prefix: &str| -> Vec<TermId> {
            (0..6).map(|i| vs.intern_iri(format!("http://x/{prefix}{i}"))).collect()
        };
        let (classes, items, values) = (terms("C"), terms("i"), terms("v"));
        let (link, note) = (vs.intern_iri("http://x/link"), vs.intern_iri("http://x/note"));
        let base = base
            .iter()
            .map(|&(a, b)| Triple::new(classes[a], v.rdfs_subclassof, classes[b]));
        vs.commit_snapshot("base", TripleStore::from_triples(base));
        // Every stream ends on an annotation epoch, which leaves the
        // class graph as it was.
        for &(kind, a, b) in epochs.iter().chain([&(3, 0, 0)]) {
            let triple = match kind {
                0 => Triple::new(classes[a], v.rdfs_subclassof, classes[b]),
                1 => Triple::new(items[a], v.rdf_type, classes[b]),
                2 => Triple::new(items[a], link, items[b]),
                _ => Triple::new(items[a], note, values[b]),
            };
            let head = vs.head().expect("the base is committed");
            let delta = if vs.snapshot(head).contains(&triple) {
                LowLevelDelta::from_parts([], [triple])
            } else {
                LowLevelDelta::from_parts([triple], [])
            };
            vs.commit_delta("epoch", Arc::new(delta));
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let substrates: Vec<_> = vs.versions().iter().map(|info| vs.substrate(info.id)).collect();
        for (info, substrate) in vs.versions().iter().zip(&substrates) {
            let fresh = SchemaGraph::from_schema_view(&vs.schema_view(info.id));
            prop_assert!(**substrate.graph() == fresh, "{}", info.id);
            prop_assert_eq!(bits(substrate.betweenness()), bits(&betweenness(&fresh)), "{}", info.id);
            prop_assert_eq!(bits(substrate.bridging()), bits(&bridging_centrality(&fresh)), "{}", info.id);
        }
        for pair in substrates.windows(2) {
            let equal = **pair[0].graph() == **pair[1].graph();
            prop_assert_eq!(Arc::ptr_eq(pair[0].graph(), pair[1].graph()), equal);
            prop_assert_eq!(Arc::ptr_eq(pair[0].betweenness(), pair[1].betweenness()), equal);
        }
        let last = &substrates[substrates.len() - 2..];
        prop_assert!(Arc::ptr_eq(last[0].bridging(), last[1].bridging()), "the annotation epoch shares");
    }

    /// Kendall tau is symmetric, bounded, and 1.0 on self-comparison.
    #[test]
    fn kendall_tau_properties(
        scores_a in prop::collection::vec(0.0f64..100.0, 2..20),
        scores_b in prop::collection::vec(0.0f64..100.0, 2..20),
    ) {
        let n = scores_a.len().min(scores_b.len());
        let make = |scores: &[f64], name: &str| MeasureReport::from_scores(
            MeasureId::new(name),
            MeasureCategory::ChangeCounting,
            TargetKind::Classes,
            scores.iter().take(n).enumerate().map(|(ix, &s)| (t(ix as u32), s)).collect(),
        );
        let a = make(&scores_a, "a");
        let b = make(&scores_b, "b");
        let tau_ab = similarity::kendall_tau(&a, &b).unwrap();
        let tau_ba = similarity::kendall_tau(&b, &a).unwrap();
        prop_assert!((tau_ab - tau_ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&tau_ab));
        prop_assert!((similarity::kendall_tau(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    /// MMR returns distinct indexes, of the requested size, and with
    /// λ=1 exactly the top-relevance prefix.
    #[test]
    fn mmr_selection_invariants(
        relevance in prop::collection::vec(0.0f64..1.0, 1..15),
        k in 1usize..10,
        lambda in 0.0f64..=1.0,
    ) {
        let items: Vec<evorec::core::Item> = relevance
            .iter()
            .enumerate()
            .map(|(ix, _)| evorec::core::Item::new(
                MeasureId::new(format!("m{ix}")),
                MeasureCategory::ChangeCounting,
                t(ix as u32),
                0.5,
            ))
            .collect();
        let reports = FxHashMap::default();
        let d = DistanceMatrix::compute(&items, &reports, 5, DistanceWeights::default());
        let picks = select_mmr(&relevance, &d, k, lambda);
        let expected_len = k.min(relevance.len());
        prop_assert_eq!(picks.len(), expected_len);
        let mut ixs: Vec<usize> = picks.iter().map(|&(i, _)| i).collect();
        ixs.sort_unstable();
        ixs.dedup();
        prop_assert_eq!(ixs.len(), expected_len, "picks must be distinct");
        if (lambda - 1.0).abs() < 1e-12 {
            // Pure relevance: picks are a top-k of the relevance vector.
            let mut by_rel: Vec<usize> = (0..relevance.len()).collect();
            by_rel.sort_by(|&a, &b| relevance[b].total_cmp(&relevance[a]).then(a.cmp(&b)));
            let expect: std::collections::HashSet<usize> =
                by_rel[..expected_len].iter().copied().collect();
            let got: std::collections::HashSet<usize> =
                picks.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// Every disclosed k-anonymous cell has at least k contributors and
    /// mass is conserved (disclosed + suppressed == input).
    #[test]
    fn anonymity_guarantee_and_mass_conservation(
        feeds_raw in prop::collection::vec(
            prop::collection::vec((0u32..20, 1.0f64..5.0), 1..6),
            1..12,
        ),
        k in 1usize..5,
    ) {
        // Chain hierarchy: class i's parent is i/2 (root 0).
        let mut parent = FxHashMap::default();
        for i in 1u32..20 {
            parent.insert(t(i), t(i / 2));
        }
        let feeds: Vec<UserFeed> = feeds_raw
            .into_iter()
            .enumerate()
            .map(|(u, entries)| UserFeed::new(
                UserId(u as u32),
                entries.into_iter().map(|(c, m)| (t(c), m)),
            ))
            .collect();
        let report = anonymise(&feeds, &parent, k);
        for cell in &report.cells {
            prop_assert!(cell.contributors >= k);
        }
        let disclosed: f64 = report.cells.iter().map(|c| c.mass).sum();
        prop_assert!((disclosed + report.suppressed_mass - report.total_mass).abs() < 1e-6);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&report.utility()));
        // Disclosed classes are unique.
        let mut classes: Vec<TermId> = report.cells.iter().map(|c| c.class).collect();
        let before = classes.len();
        classes.sort_unstable();
        classes.dedup();
        prop_assert_eq!(classes.len(), before);
    }

    /// The fair-proportional strategy never yields a *worse* minimum
    /// satisfaction than plain average selection.
    #[test]
    fn fair_proportional_dominates_average_on_min_satisfaction(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 4..8),
            2..5,
        ),
        k in 1usize..4,
    ) {
        let width = rows.iter().map(Vec::len).min().unwrap();
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|r| r[..width].to_vec()).collect();
        let matrix = RelevanceMatrix::new(rows);
        let avg = select_for_group(&matrix, k, GroupAggregation::Average);
        let fair = select_for_group(&matrix, k, GroupAggregation::FairProportional);
        let avg_min = fairness_report(&matrix, &avg).min_satisfaction;
        let fair_min = fairness_report(&matrix, &fair).min_satisfaction;
        prop_assert!(fair_min >= avg_min - 1e-9, "fair {fair_min} vs avg {avg_min}");
    }

    /// Zipf sampling stays in range; the probability mass function is
    /// analytically monotone non-increasing; and (with generous slack
    /// for sampling noise) rank 0 is drawn at least as often as the
    /// last rank.
    #[test]
    fn zipf_sampler_bounds(n in 2usize..50, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let zipf = evorec::synth::Zipf::new(n, 1.0);
        // Analytic invariant: p(0) ≥ p(1) ≥ … ≥ p(n-1), summing to 1.
        let mut total = 0.0;
        for r in 0..n {
            total += zipf.probability(r);
            if r > 0 {
                prop_assert!(zipf.probability(r - 1) >= zipf.probability(r) - 1e-12);
            }
        }
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Statistical sanity with wide slack (5σ-ish for 200 draws).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut first = 0usize;
        let mut last = 0usize;
        for _ in 0..200 {
            let r = zipf.sample(&mut rng);
            prop_assert!(r < n);
            if r == 0 { first += 1; }
            if r == n - 1 { last += 1; }
        }
        prop_assert!(
            first + 40 >= last,
            "rank 0 (p={:.3}) drawn {first}x vs last rank (p={:.3}) {last}x",
            zipf.probability(0),
            zipf.probability(n - 1)
        );
    }
}

/// Non-proptest sanity: normalised reports are within [0,1] and keep
/// rank order.
#[test]
fn normalisation_preserves_order() {
    let report = MeasureReport::from_scores(
        MeasureId::new("m"),
        MeasureCategory::ChangeCounting,
        TargetKind::Classes,
        (0..50).map(|ix| (t(ix), (ix as f64).powi(2))).collect(),
    );
    let norm = report.normalised();
    let order: Vec<TermId> = report.scores().iter().map(|&(t, _)| t).collect();
    let order_norm: Vec<TermId> = norm.scores().iter().map(|&(t, _)| t).collect();
    assert_eq!(order, order_norm);
    for &(_, s) in norm.scores() {
        assert!((0.0..=1.0).contains(&s));
    }
}
