//! Interleaving model of [`VersionedStore::substrate`]: under
//! `--cfg evorec_sched` the `sched` harness enumerates every bounded
//! schedule of two threads asking for the same version's substrate,
//! proving that however their cache probes and inserts interleave,
//! both receive the one shared handle and the class graph is built
//! once.

use evorec_kb::{Triple, TripleStore};
use evorec_versioning::{VersionId, VersionedStore};
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
