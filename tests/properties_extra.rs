//! Property tests for the query, timeline, and archive modules.

use evorec::kb::query::{Query, Var};
use evorec::kb::{TermId, Triple, TripleStore};
use evorec::versioning::{
    classify_trend, Archive, ArchivePolicy, Timeline, Trend, VersionedStore,
};
use proptest::prelude::*;

fn t(n: u32) -> TermId {
    TermId::from_u32(n)
}

fn arb_triples(universe: u32, max: usize) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0..universe, 0..universe, 0..universe).prop_map(|(s, p, o)| {
            Triple::new(t(s), t(p), t(o))
        }),
        0..max,
    )
}

proptest! {
    /// A two-pattern join query returns exactly the brute-force nested
    /// loop join over the store.
    #[test]
    fn query_join_matches_bruteforce(
        triples in arb_triples(8, 40),
        p1 in 0u32..8,
        p2 in 0u32..8,
    ) {
        let store = TripleStore::from_triples(triples);
        // ?x p1 ?y . ?y p2 ?z
        let rows = Query::new()
            .pattern(Var(0), t(p1), Var(1))
            .pattern(Var(1), t(p2), Var(2))
            .evaluate(&store);
        let mut brute = Vec::new();
        for a in store.iter().filter(|tr| tr.p == t(p1)) {
            for b in store.iter().filter(|tr| tr.p == t(p2)) {
                if a.o == b.s {
                    brute.push(vec![a.s, a.o, b.o]);
                }
            }
        }
        brute.sort_unstable();
        brute.dedup();
        prop_assert_eq!(rows, brute);
    }

    /// A star query (two patterns sharing the subject variable) matches
    /// brute force too, regardless of pattern order.
    #[test]
    fn query_star_matches_bruteforce_both_orders(
        triples in arb_triples(8, 40),
        p1 in 0u32..8,
        o1 in 0u32..8,
        p2 in 0u32..8,
    ) {
        let store = TripleStore::from_triples(triples);
        let forward = Query::new()
            .pattern(Var(0), t(p1), t(o1))
            .pattern(Var(0), t(p2), Var(1))
            .evaluate(&store);
        let backward = Query::new()
            .pattern(Var(0), t(p2), Var(1))
            .pattern(Var(0), t(p1), t(o1))
            .evaluate(&store);
        // Variable order differs between the two writings only in
        // pattern order, not numbering, so results must be identical.
        prop_assert_eq!(&forward, &backward);
        let mut brute = Vec::new();
        for a in store.iter().filter(|tr| tr.p == t(p1) && tr.o == t(o1)) {
            for b in store.iter().filter(|tr| tr.p == t(p2) && tr.s == a.s) {
                brute.push(vec![a.s, b.o]);
            }
        }
        brute.sort_unstable();
        brute.dedup();
        prop_assert_eq!(forward, brute);
    }

    /// Timeline conservation: each term's series sums to its total, and
    /// the per-step sizes match the deltas the store reports.
    #[test]
    fn timeline_series_are_conserved(
        snapshots in prop::collection::vec(arb_triples(10, 25), 2..6),
    ) {
        let mut vs = VersionedStore::new();
        for (ix, snap) in snapshots.iter().enumerate() {
            vs.commit_snapshot(format!("v{ix}"), TripleStore::from_triples(snap.clone()));
        }
        let timeline = Timeline::build(&vs);
        prop_assert_eq!(timeline.steps(), snapshots.len() - 1);
        // Step sizes agree with direct delta computation, and each
        // step of every term's series is its δ(n) by a per-term scan
        // (the universe of `arb_triples(10, _)` is terms 0..10).
        for step in 0..timeline.steps() {
            let d = vs.delta(
                evorec::versioning::VersionId::from_u32(step as u32),
                evorec::versioning::VersionId::from_u32(step as u32 + 1),
            );
            prop_assert_eq!(timeline.step_sizes()[step], d.size());
            for term in (0..10).map(t) {
                prop_assert_eq!(timeline.series_of(term)[step], d.changes_for_term(term), "{:?}", term);
            }
        }
        // Every term's series sums to its reported total.
        for (term, total) in timeline.most_changed(usize::MAX) {
            let series = timeline.series_of(term);
            prop_assert_eq!(series.iter().sum::<usize>(), total);
            prop_assert_eq!(series.len(), timeline.steps());
        }
    }

    /// Trend classification is scale-invariant for integer-scaled series
    /// and total on constants.
    #[test]
    fn trend_classification_properties(series in prop::collection::vec(0usize..20, 2..12)) {
        let trend = classify_trend(&series);
        // Classification is deterministic.
        prop_assert_eq!(classify_trend(&series), trend);
        // Reversing a rising series yields falling and vice versa
        // (burstiness and stability are direction-free).
        let mut reversed = series.clone();
        reversed.reverse();
        match trend {
            Trend::Rising => prop_assert_eq!(classify_trend(&reversed), Trend::Falling),
            Trend::Falling => prop_assert_eq!(classify_trend(&reversed), Trend::Rising),
            other => prop_assert_eq!(classify_trend(&reversed), other),
        }
    }

    /// Every archive policy reconstructs every version of arbitrary
    /// histories exactly.
    #[test]
    fn archives_reconstruct_all_versions(
        snapshots in prop::collection::vec(arb_triples(10, 20), 1..6),
        full_every in 1usize..4,
    ) {
        let mut vs = VersionedStore::new();
        for (ix, snap) in snapshots.iter().enumerate() {
            vs.commit_snapshot(format!("v{ix}"), TripleStore::from_triples(snap.clone()));
        }
        for policy in [
            ArchivePolicy::FullSnapshots,
            ArchivePolicy::DeltaChain,
            ArchivePolicy::Hybrid { full_every },
        ] {
            let archive = Archive::build(&vs, policy);
            for v in vs.versions() {
                let (got, steps) = archive.materialize(v.id).expect("in range");
                prop_assert_eq!(&got, vs.snapshot(v.id));
                if matches!(policy, ArchivePolicy::FullSnapshots) {
                    prop_assert_eq!(steps, 0);
                }
                if let ArchivePolicy::Hybrid { full_every } = policy {
                    prop_assert!(steps < full_every);
                }
            }
        }
    }
}
