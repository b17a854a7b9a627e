//! The epoch-swapped live context: lock-light publication of freshly
//! built [`EvolutionContext`]s to any number of readers.
//!
//! Readers call [`LiveContext::current`], which clones an `Arc` under a
//! briefly held read lock — they never wait on a context rebuild,
//! because rebuilds happen entirely *before* [`LiveContext::publish`]
//! swaps the pointer. When a serving pair (measure registry + report
//! cache) is attached, each publish also pre-warms the catalogue into
//! the cache, computing each measure the cache does not yet hold for
//! the fresh step, one after another, from inputs built once per
//! version or per step (see [`EvolutionContext`]) — and then moves the
//! handle's cache lineage to the fresh fingerprint, dropping the
//! superseded fingerprint's entries unless another lineage still
//! claims them.

use evorec_core::{LineageId, ReportCache};
use evorec_measures::{EvolutionContext, MeasureRegistry};
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::{Mutex, RwLock};
use std::sync::Arc;

/// A serving pair attached to a [`LiveContext`]: publishes pre-warm
/// this registry's reports into this cache, scoped to this lineage.
struct ServingHandles {
    registry: Arc<MeasureRegistry>,
    cache: Arc<ReportCache>,
    lineage: LineageId,
}

/// An atomically swapped handle to the latest published
/// [`EvolutionContext`].
// lint: lock-order publish_lock < current
pub struct LiveContext {
    current: RwLock<Arc<EvolutionContext>>,
    /// Publication counter: readers pair an Acquire load of this with
    /// the swapped pointer, so it must never be bumped with `Relaxed`.
    // lint: publishes
    epoch: AtomicU64,
    serving: Option<ServingHandles>,
    /// Serialises whole publishes (swap → warm → lineage move):
    /// concurrent `publish` calls would otherwise interleave their warm
    /// passes and leave the lineage claiming a step older than the one
    /// readers see. Readers never touch this lock.
    publish_lock: Mutex<()>,
}

impl LiveContext {
    /// A handle initially publishing `initial`, with no serving pair.
    pub fn new(initial: Arc<EvolutionContext>) -> LiveContext {
        LiveContext {
            current: RwLock::new(initial),
            epoch: AtomicU64::new(0),
            serving: None,
            publish_lock: Mutex::new(()),
        }
    }

    /// Attach a serving pair: every publish pre-warms `registry`'s
    /// reports for the fresh context into `cache`, then moves this
    /// handle's cache lineage to the fresh fingerprint.
    ///
    /// The lineage is registered with `cache` under `label` (see
    /// [`ReportCache::register_lineage`]) and claims `initial`'s
    /// fingerprint at once. A superseded fingerprint's entries are
    /// evicted only when no *other* lineage still claims it, so several
    /// live windows can share one cache without one window's swap
    /// evicting what another still serves.
    pub fn with_serving(
        initial: Arc<EvolutionContext>,
        registry: Arc<MeasureRegistry>,
        cache: Arc<ReportCache>,
        label: impl Into<String>,
    ) -> LiveContext {
        let lineage = cache.register_lineage(label);
        cache.claim_lineage(lineage, initial.fingerprint());
        LiveContext {
            serving: Some(ServingHandles {
                registry,
                cache,
                lineage,
            }),
            ..LiveContext::new(initial)
        }
    }

    /// The latest published context. Never blocks on a rebuild or a
    /// warm pass — only on the pointer swap itself, which is two
    /// `Arc` moves under a write lock.
    pub fn current(&self) -> Arc<EvolutionContext> {
        self.current.read().clone()
    }

    /// How many times a context has been published.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish `next` as the live context, then (with a serving pair)
    /// warm it into the cache before returning: every registry measure
    /// the cache does not already hold under `next`'s fingerprint is
    /// computed over `next`, whatever step was live before.
    pub fn publish(&self, next: Arc<EvolutionContext>) {
        // One publish at a time, so warm and lineage traffic hits the
        // cache in epoch order.
        let _serialised = self.publish_lock.lock();
        let previous = {
            let mut guard = self.current.write();
            std::mem::replace(&mut *guard, Arc::clone(&next))
        };
        self.epoch.fetch_add(1, Ordering::AcqRel);
        if let Some(serving) = &self.serving {
            warm_and_invalidate(serving, &previous, &next);
        }
    }
}

impl evorec_obs::MetricsSource for LiveContext {
    /// Pull-model metrics: the epoch counter and the live window's
    /// span, sampled at snapshot time.
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        out.push(evorec_obs::Sample::counter(
            "evorec_stream_epochs_total",
            self.epoch(),
        ));
        let ctx = self.current();
        out.push(evorec_obs::Sample::gauge(
            "evorec_stream_live_origin_version",
            u64::from(ctx.from.as_u32()),
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_stream_live_head_version",
            u64::from(ctx.to.as_u32()),
        ));
    }
}

/// Compute every report for `next` that the cache does not already
/// hold — another lineage publishing the same step may have warmed it —
/// then move the handle's lineage to `next`, dropping the superseded
/// fingerprint's entries unless another lineage of the shared cache
/// still claims them.
fn warm_and_invalidate(
    serving: &ServingHandles,
    previous: &EvolutionContext,
    next: &EvolutionContext,
) {
    let old_fingerprint = previous.fingerprint();
    let new_fingerprint = next.fingerprint();
    if old_fingerprint == new_fingerprint {
        // Republishing the same step: entries are already warm.
        return;
    }
    for measure in serving.registry.all() {
        if !serving.cache.contains(&measure.id(), new_fingerprint) {
            serving.cache.insert(new_fingerprint, measure.compute(next));
        }
    }
    serving
        .cache
        .publish_lineage(serving.lineage, old_fingerprint, new_fingerprint);
}

impl std::fmt::Debug for LiveContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveContext")
            .field("epoch", &self.epoch())
            .field("fingerprint", &self.current().fingerprint())
            .field("lineage", &self.serving.as_ref().map(|s| s.lineage))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    /// A three-version store for publish sequences.
    fn store() -> VersionedStore {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let i = vs.intern_iri("http://x/i");
        let v = *vs.vocab();
        let mut s = TripleStore::new();
        s.insert(Triple::new(a, v.rdfs_subclassof, b));
        vs.commit_snapshot("v0", s.clone());
        s.insert(Triple::new(c, v.rdfs_subclassof, b));
        vs.commit_snapshot("v1", s.clone());
        s.insert(Triple::new(i, v.rdf_type, c));
        vs.commit_snapshot("v2", s);
        vs
    }

    fn v(n: u32) -> evorec_versioning::VersionId {
        evorec_versioning::VersionId::from_u32(n)
    }

    #[test]
    fn current_returns_latest_published() {
        let vs = store();
        let first = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let live = LiveContext::new(Arc::clone(&first));
        assert_eq!(live.epoch(), 0);
        assert!(Arc::ptr_eq(&live.current(), &first));
        let second = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        live.publish(Arc::clone(&second));
        assert_eq!(live.epoch(), 1);
        assert!(Arc::ptr_eq(&live.current(), &second));
    }

    #[test]
    fn publish_prewarms_and_invalidates() {
        let vs = store();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let first = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let live = LiveContext::with_serving(
            Arc::clone(&first),
            Arc::clone(&registry),
            Arc::clone(&cache),
            "live",
        );
        // Warm the first epoch the ordinary way.
        let _ = cache.reports_for(&registry, &first);
        assert_eq!(cache.len(), registry.len());

        let second = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        live.publish(Arc::clone(&second));
        // Old fingerprint's entries replaced by the new epoch's.
        assert_eq!(cache.len(), registry.len());
        assert!(cache.stats().invalidations >= registry.len() as u64);
        // Every new-epoch report is already present and correct.
        cache.reset_stats();
        let warm = cache.reports_for(&registry, &second);
        assert_eq!(cache.stats().misses, 0, "publish pre-warmed everything");
        for (report, measure) in warm.iter().zip(registry.all()) {
            let fresh = measure.compute(&second);
            assert_eq!(report.scores(), fresh.scores(), "{}", report.measure);
        }
    }

    #[test]
    fn republishing_same_step_keeps_entries() {
        let vs = store();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let ctx = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let live = LiveContext::with_serving(
            Arc::clone(&ctx),
            Arc::clone(&registry),
            Arc::clone(&cache),
            "live",
        );
        let _ = cache.reports_for(&registry, &ctx);
        let rebuilt = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        live.publish(rebuilt);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.len(), registry.len());
    }

    #[test]
    fn lineage_scoped_publish_spares_other_windows_entries() {
        let vs = store();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let shared = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        // Two windows serving the *same* step from one cache.
        let a = LiveContext::with_serving(
            Arc::clone(&shared),
            Arc::clone(&registry),
            Arc::clone(&cache),
            "a",
        );
        let b = LiveContext::with_serving(
            Arc::clone(&shared),
            Arc::clone(&registry),
            Arc::clone(&cache),
            "b",
        );
        let _ = cache.reports_for(&registry, &shared);
        assert_eq!(cache.len(), registry.len());

        // A swaps away: B still claims the shared fingerprint, so its
        // entries stay resident alongside the fresh epoch's.
        let next = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        a.publish(Arc::clone(&next));
        assert_eq!(cache.len(), 2 * registry.len(), "old step retained");
        cache.reset_stats();
        let _ = cache.reports_for(&registry, &shared);
        assert_eq!(cache.stats().misses, 0, "B's step still warm");

        // B swaps too: nobody claims the old step, entries drop.
        b.publish(Arc::clone(&next));
        assert_eq!(cache.len(), registry.len());
        let stats = cache.stats();
        assert_eq!(stats.lineages.len(), 2);
        assert!(stats.lineages[1].invalidations >= registry.len() as u64);
    }

    #[test]
    fn publishing_a_step_another_lineage_warmed_computes_nothing() {
        // A landmark window publishes the same step as the pipeline
        // beside it: the second warm pass finds every report already
        // cached under the new fingerprint and neither probes the
        // superseded step nor recomputes.
        let vs = store();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let first = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let live = |label: &str| {
            LiveContext::with_serving(
                Arc::clone(&first),
                Arc::clone(&registry),
                Arc::clone(&cache),
                label,
            )
        };
        let (pipeline, window) = (live("pipeline"), live("window"));
        let _ = cache.reports_for(&registry, &first);
        let next = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        pipeline.publish(Arc::clone(&next));
        let warmed: Vec<_> = registry
            .all()
            .iter()
            .map(|m| cache.get(&m.id(), next.fingerprint()).expect("warm"))
            .collect();
        cache.reset_stats();
        window.publish(Arc::clone(&next));
        assert_eq!(cache.stats().lookups(), 0, "no probe of the superseded step");
        for (report, measure) in warmed.iter().zip(registry.all()) {
            let served = cache.get(&measure.id(), next.fingerprint()).expect("still warm");
            assert!(Arc::ptr_eq(report, &served), "{}", report.measure);
        }
        // Both lineages moved on, so the superseded step is gone.
        assert_eq!(cache.len(), registry.len());
    }

    #[test]
    fn concurrent_publishes_serialise_their_warm_passes() {
        let vs = store();
        let registry = Arc::new(MeasureRegistry::standard());
        let cache = Arc::new(ReportCache::new());
        let a = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let b = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        let live = Arc::new(LiveContext::with_serving(
            Arc::clone(&a),
            Arc::clone(&registry),
            Arc::clone(&cache),
            "live",
        ));
        let publishers: Vec<_> = (0..4)
            .map(|i| {
                let live = Arc::clone(&live);
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                std::thread::spawn(move || {
                    for round in 0..10 {
                        let next = if (i + round) % 2 == 0 { &a } else { &b };
                        live.publish(Arc::clone(next));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        assert_eq!(live.epoch(), 40);
        // After the last warm pass only the live epoch's entries (or
        // none, if the final publish republished the resident step and
        // skipped work) remain — never both epochs' entries, which is
        // what two warm passes interleaving out of order would leave.
        let resident = cache.len();
        assert!(
            resident == 0 || resident == registry.len(),
            "resident {resident}: stale epoch survived invalidation"
        );
    }

    #[test]
    fn readers_never_observe_a_torn_context_during_publishes() {
        let vs = store();
        let a = Arc::new(EvolutionContext::build(&vs, v(0), v(1)));
        let b = Arc::new(EvolutionContext::build(&vs, v(0), v(2)));
        let expected = [a.fingerprint(), b.fingerprint()];
        let live = Arc::new(LiveContext::new(Arc::clone(&a)));
        let publisher = {
            let live = Arc::clone(&live);
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            std::thread::spawn(move || {
                for i in 0..500 {
                    let next = if i % 2 == 0 { &b } else { &a };
                    live.publish(Arc::clone(next));
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        let ctx = live.current();
                        assert!(expected.contains(&ctx.fingerprint()));
                    }
                })
            })
            .collect();
        publisher.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(live.epoch(), 500);
    }
}
