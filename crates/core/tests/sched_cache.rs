//! Interleaving models of the [`ReportCache`]: under `--cfg
//! evorec_sched` the harness enumerates bounded schedules of two views
//! moving their claims off one shared step, proving the step is dropped
//! exactly once and only after both views moved, and of two expansions
//! of one profile racing through the expansion level. Under the default
//! build the same closures run once as concurrency smoke tests.

use evorec_core::relatedness::expansion_config;
use evorec_core::{ExpandedProfile, ReportCache, UserId, UserProfile};
use evorec_kb::{Triple, TripleStore};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_versioning::VersionedStore;
use sched::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn bounded() -> sched::Builder {
    sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
}

/// A tiny three-version world shared by every schedule (contexts carry
/// no sched primitives, so building them outside the model is sound).
/// Returns three contexts with distinct fingerprints: the v0→v1, v1→v2
/// and v0→v2 steps.
fn world() -> (EvolutionContext, EvolutionContext, EvolutionContext) {
    let mut vs = VersionedStore::new();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let v = *vs.vocab();
    let mut s0 = TripleStore::new();
    s0.insert(Triple::new(a, v.rdfs_subclassof, b));
    let v0 = vs.commit_snapshot("v0", s0.clone());
    let mut s1 = s0;
    let c = vs.intern_iri("http://x/C");
    s1.insert(Triple::new(c, v.rdfs_subclassof, a));
    let v1 = vs.commit_snapshot("v1", s1.clone());
    let mut s2 = s1;
    let d = vs.intern_iri("http://x/D");
    s2.insert(Triple::new(d, v.rdfs_subclassof, c));
    let v2 = vs.commit_snapshot("v2", s2);
    (
        EvolutionContext::build(&vs, v0, v1),
        EvolutionContext::build(&vs, v1, v2),
        EvolutionContext::build(&vs, v0, v2),
    )
}

/// Two views claim step A; one moves to B while the other moves to C.
/// In every schedule A's entries are dropped exactly once, by the
/// second move, never while a view has not yet started moving; B and
/// C, each claimed by one view, stay resident. The main thread races
/// both moves as an observer.
#[test]
fn the_last_claim_off_a_step_drops_it_exactly_once() {
    let (a_ctx, b_ctx, c_ctx) = world();
    let registry = MeasureRegistry::standard();
    let measure = registry.all()[0].id();
    let report = registry.all()[0].compute(&a_ctx);
    let [a, b, c] = [&a_ctx, &b_ctx, &c_ctx].map(EvolutionContext::fingerprint);

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_capacity(8));
        for fingerprint in [a, b, c] {
            cache.insert(fingerprint, report.clone());
        }
        cache.claim(a);
        cache.claim(a);
        let moving = Arc::new(AtomicUsize::new(0));
        let mover = |fresh| {
            let cache = Arc::clone(&cache);
            let moving = Arc::clone(&moving);
            sched::thread::spawn(move || {
                moving.fetch_add(1, Ordering::SeqCst);
                cache.move_claim(a, fresh)
            })
        };
        let (to_b, to_c) = (mover(b), mover(c));

        // A drop happens-after both views' start (program order, then
        // the claims lock), and the observer reads the level first.
        let dropped = !cache.contains(&measure, a);
        let started = moving.load(Ordering::SeqCst);
        if dropped {
            assert_eq!(started, 2, "A dropped before both views moved");
        }

        let removed = [to_b.join().unwrap(), to_c.join().unwrap()];
        assert_eq!(removed.iter().sum::<usize>(), 1, "A dropped exactly once");
        assert!(!cache.contains(&measure, a));
        assert!(cache.contains(&measure, b), "B is claimed");
        assert!(cache.contains(&measure, c), "C is claimed");
        assert_eq!(cache.stats().invalidations, 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(
            report_handle.schedules > 1,
            "the race has multiple interleavings"
        );
    }
}

/// Two threads expand one profile under one fingerprint through the
/// expansion level: whichever schedule runs, both get bit-identical
/// weights (a loser of the insert race adopts the winner's entry),
/// exactly one entry stays resident, and every lookup is counted once.
#[test]
fn racing_expansions_agree_and_leave_one_entry() {
    let (ctx, ..) = world();
    let graph = Arc::clone(&ctx.graph_union);
    let fingerprint = ctx.fingerprint();
    let profile = UserProfile::new(UserId(1), "u").with_interest(graph.term(0), 1.0);
    let seeds = Arc::new(ExpandedProfile::seeds(&profile, &graph));
    assert!(!seeds.is_empty(), "the profile seeds the union graph");
    let config = expansion_config();

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_capacity(8));
        let expander = || {
            let cache = Arc::clone(&cache);
            let graph = Arc::clone(&graph);
            let seeds = Arc::clone(&seeds);
            sched::thread::spawn(move || {
                cache.expansion_or_insert(fingerprint, config, &seeds, || {
                    ExpandedProfile::from_seeds(&graph, &seeds, config)
                })
            })
        };
        let (first, second) = (expander(), expander());
        let first = first.join().unwrap();
        let second = second.join().unwrap();

        for node in 0..graph.node_count() as u32 {
            let term = graph.term(node);
            assert_eq!(
                first.weight(term).to_bits(),
                second.weight(term).to_bits(),
                "racing expansions must agree bit for bit"
            );
        }
        assert_eq!(cache.expansion_len(), 1, "one entry per PageRank input");
        let stats = cache.stats();
        assert_eq!(stats.expansion_hits + stats.expansion_misses, 2);
        assert!(stats.expansion_misses >= 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report_handle.schedules > 1);
    }
}
