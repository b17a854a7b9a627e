//! Interleaving models of the [`ReportCache`] lineage-counter
//! consistency protocol: under `--cfg evorec_sched` the harness
//! enumerates bounded schedules of hit-credits, lineage publishes, and
//! `stats()` snapshots, proving a snapshot can never observe a hit or
//! invalidation split across the global and per-lineage counters —
//! the double-/under-count the write-locked snapshot fixed. Under the
//! default build the same closures run once as concurrency smoke
//! tests.

use evorec_core::ReportCache;
use evorec_kb::{Triple, TripleStore};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use evorec_versioning::VersionedStore;
use std::sync::Arc;

fn bounded() -> sched::Builder {
    sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    }
}

/// A tiny three-version world shared by every schedule (contexts carry
/// no sched primitives, so building them outside the model is sound).
/// Returns two contexts with distinct fingerprints: the v0→v1 step and
/// the v1→v2 step.
fn world() -> (EvolutionContext, EvolutionContext) {
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
    )
}

/// A hit on a fingerprint claimed by two lineages racing a `stats()`
/// snapshot: every snapshot sees the hit credited to *both* lineages
/// and the global counter, or to none of them — never a partial
/// credit.
#[test]
fn snapshot_never_sees_a_half_credited_hit() {
    let (ctx, _) = world();
    let registry = MeasureRegistry::standard();
    let measure = registry.all()[0].id();
    let report = registry.all()[0].compute(&ctx);
    let fingerprint = ctx.fingerprint();

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_capacity(8));
        let a = cache.register_lineage("window:a");
        let b = cache.register_lineage("window:b");
        cache.claim_lineage(a, fingerprint);
        cache.claim_lineage(b, fingerprint);
        cache.insert(fingerprint, report.clone());
        cache.reset_stats();

        let reader = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.stats())
        };
        let hitter = {
            let cache = Arc::clone(&cache);
            let measure = measure.clone();
            sched::thread::spawn(move || {
                assert!(cache.get(&measure, fingerprint).is_some());
            })
        };
        let mid = reader.join().unwrap();
        hitter.join().unwrap();

        // The mid-race snapshot is transactional: the single hit is
        // either fully absent or fully present across all three
        // counters.
        assert_eq!(
            mid.lineages[0].hits, mid.lineages[1].hits,
            "co-claiming lineages must be credited atomically"
        );
        assert_eq!(
            mid.hits, mid.lineages[0].hits,
            "global and lineage hit tallies must move together"
        );

        // Quiescent exactness.
        let end = cache.stats();
        assert_eq!(end.hits, 1);
        assert_eq!(end.lineages[0].hits, 1);
        assert_eq!(end.lineages[1].hits, 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(
            report_handle.schedules > 1,
            "the race has multiple interleavings"
        );
    }
}

/// A lineage publish (epoch swap + scoped eviction) racing a `stats()`
/// snapshot: the global invalidation counter and the publishing
/// lineage's counter always agree — the eviction is never visible in
/// one but not the other.
#[test]
fn snapshot_never_tears_a_lineage_publish() {
    let (ctx, next) = world();
    let registry = MeasureRegistry::standard();
    let report = registry.all()[0].compute(&ctx);
    let fingerprint = ctx.fingerprint();
    let fresh = next.fingerprint();

    let builder = bounded();
    let report_handle = builder.explore(move || {
        let cache = Arc::new(ReportCache::with_capacity(8));
        let lineage = cache.register_lineage("window:a");
        cache.claim_lineage(lineage, fingerprint);
        cache.insert(fingerprint, report.clone());
        cache.reset_stats();

        let reader = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.stats())
        };
        let publisher = {
            let cache = Arc::clone(&cache);
            sched::thread::spawn(move || cache.publish_lineage(lineage, fingerprint, fresh))
        };
        let mid = reader.join().unwrap();
        let removed = publisher.join().unwrap();

        assert_eq!(removed, 1, "the superseded entry must be evicted");
        assert_eq!(
            mid.invalidations, mid.lineages[0].invalidations,
            "global and lineage invalidation tallies must move together"
        );

        let end = cache.stats();
        assert_eq!(end.invalidations, 1);
        assert_eq!(end.lineages[0].invalidations, 1);
    });
    assert!(report_handle.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report_handle.schedules > 1);
    }
}
