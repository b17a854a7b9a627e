//! Interleaving models of [`VersionedStore::substrate`]: under
//! `--cfg evorec_sched` the `sched` harness enumerates every bounded
//! schedule of two threads asking for the same version's substrate,
//! proving that however their cache probes and inserts interleave,
//! both receive the one shared handle and the class graph is built
//! once — and, when the predecessor's substrate is cached with an equal
//! class graph, that the one handle shares the predecessor's graph.

use evorec_kb::{Triple, TripleStore};
use evorec_versioning::{LowLevelDelta, VersionId, VersionedStore};
use std::sync::Arc;

fn store() -> (VersionedStore, VersionId) {
    let mut vs = VersionedStore::new();
    let a = vs.intern_iri("http://x/A");
    let b = vs.intern_iri("http://x/B");
    let sub = vs.vocab().rdfs_subclassof;
    let v0 = vs.commit_snapshot("v0", TripleStore::from_triples([Triple::new(a, sub, b)]));
    (vs, v0)
}

#[test]
fn racing_requests_share_one_substrate() {
    let report = sched::model(|| {
        let (vs, v0) = store();
        let vs = Arc::new(vs);
        let other = {
            let vs = Arc::clone(&vs);
            sched::thread::spawn(move || vs.substrate(v0))
        };
        let mine = vs.substrate(v0);
        let theirs = other.join().unwrap();
        assert!(Arc::ptr_eq(&mine, &theirs), "both threads share one substrate");
        assert_eq!(vs.substrate_computations(), 1);
        assert_eq!(mine.graph().node_count(), 2);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}

#[test]
fn racing_requests_share_the_predecessors_class_graph() {
    let report = sched::model(|| {
        let (mut vs, v0) = store();
        let (i, j) = (vs.intern_iri("http://x/i"), vs.intern_iri("http://x/j"));
        let p = vs.intern_iri("http://x/p");
        let v1 = vs.commit_delta(
            "instances",
            Arc::new(LowLevelDelta::from_parts([Triple::new(i, p, j)], [])),
        );
        let before = vs.substrate(v0);
        let vs = Arc::new(vs);
        let other = {
            let vs = Arc::clone(&vs);
            sched::thread::spawn(move || vs.substrate(v1))
        };
        let mine = vs.substrate(v1);
        let theirs = other.join().unwrap();
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both threads share one substrate"
        );
        assert!(
            Arc::ptr_eq(mine.graph(), before.graph()),
            "v1 shares v0's class graph"
        );
        assert!(Arc::ptr_eq(mine.betweenness(), before.betweenness()));
        assert_eq!(vs.substrate_computations(), 2);
    });
    assert!(report.schedules >= 1);
    if cfg!(evorec_sched) {
        assert!(report.schedules > 1);
    }
}
