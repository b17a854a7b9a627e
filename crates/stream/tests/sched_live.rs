//! Interleaving models of [`LiveContext`]'s epoch swap: under
//! `--cfg evorec_sched` the `sched` harness enumerates every bounded
//! schedule of publishers and readers, proving the publication
//! protocol (swap pointer, then bump epoch) never shows a reader a
//! stale context for a new epoch, and that concurrent publishes
//! serialise. The contexts themselves are prebuilt outside the model —
//! only the `LiveContext` under test lives inside it.

use evorec_measures::EvolutionContext;
use evorec_stream::LiveContext;
use evorec_versioning::{VersionId, VersionedStore};
use std::sync::Arc;

fn v(n: u32) -> VersionId {
    VersionId::from_u32(n)
}

/// A three-version store for publish sequences.
fn contexts() -> (Arc<EvolutionContext>, Arc<EvolutionContext>) {
    let mut vs = VersionedStore::new();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let c = vs.intern_iri("http://x/C");
    let vocab = *vs.vocab();
    let mut s = evorec_kb::TripleStore::new();
    s.insert(evorec_kb::Triple::new(a, vocab.rdfs_subclassof, b));
    vs.commit_snapshot("v0", s.clone());
    s.insert(evorec_kb::Triple::new(c, vocab.rdfs_subclassof, b));
    vs.commit_snapshot("v1", s.clone());
    s.insert(evorec_kb::Triple::new(c, vocab.rdf_type, a));
    vs.commit_snapshot("v2", s);
    (
        Arc::new(EvolutionContext::build(&vs, v(0), v(1))),
        Arc::new(EvolutionContext::build(&vs, v(0), v(2))),
    )
}

/// Publication ordering: the pointer is swapped before the epoch is
/// bumped (AcqRel), so a reader that observes the new epoch must also
/// observe the new context — in every interleaving.
#[test]
fn epoch_visibility_implies_context_visibility() {
    let (first, second) = contexts();
    let (fa, fb) = (first.fingerprint(), second.fingerprint());
    let report = sched::model(move || {
        let live = Arc::new(LiveContext::new(Arc::clone(&first)));
        let publisher = {
            let live = Arc::clone(&live);
            let second = Arc::clone(&second);
            sched::thread::spawn(move || live.publish(second))
        };
        let reader = {
            let live = Arc::clone(&live);
            sched::thread::spawn(move || {
                // Epoch first, context second — the order the
                // publication protocol is designed around.
                let epoch = live.epoch();
                (epoch, live.current().fingerprint())
            })
        };
        publisher.join().unwrap();
        let (epoch, fingerprint) = reader.join().unwrap();
        assert!(fingerprint == fa || fingerprint == fb, "never torn");
        if epoch >= 1 {
            assert_eq!(
                fingerprint, fb,
                "a reader seeing epoch {epoch} must see the new context"
            );
        }
        assert_eq!(live.epoch(), 1);
        assert_eq!(live.current().fingerprint(), fb);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}

/// Concurrent publishes serialise behind the publish lock: both land,
/// the epoch counts both, and the final context is one of the two
/// published — in every interleaving.
#[test]
fn concurrent_publishes_serialise() {
    let (first, second) = contexts();
    let (fa, fb) = (first.fingerprint(), second.fingerprint());
    // Two publishers × several lock hand-offs: bound preemptions to
    // keep the exploration exhaustive-within-bound yet fast.
    let builder = sched::Builder {
        preemption_bound: Some(2),
        ..Default::default()
    };
    let report = builder.explore(move || {
        let live = Arc::new(LiveContext::new(Arc::clone(&first)));
        let publishers: Vec<_> = [Arc::clone(&first), Arc::clone(&second)]
            .into_iter()
            .map(|next| {
                let live = Arc::clone(&live);
                sched::thread::spawn(move || live.publish(next))
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        assert_eq!(live.epoch(), 2, "both publishes count");
        let final_fp = live.current().fingerprint();
        assert!(final_fp == fa || final_fp == fb, "last writer wins");
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
