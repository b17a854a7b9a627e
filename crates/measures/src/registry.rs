//! The measure registry: the catalogue the recommender recommends *from*.

use crate::change_count::{ClassChangeCount, PropertyChangeCount};
use crate::context::EvolutionContext;
use crate::extensions::{
    InstanceEntropyShift, PropertyImportanceShift, PropertyNeighbourhoodChangeCount,
};
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureCost, MeasureId};
use crate::neighbourhood::NeighbourhoodChangeCount;
use crate::report::MeasureReport;
use crate::semantic::{InCentralityShift, OutCentralityShift, RelevanceShift};
use crate::structural::{BetweennessShift, BridgingShift, DegreeShift};
use std::sync::Arc;

/// A catalogue of evolution measures, keyed by [`MeasureId`].
#[derive(Clone, Default)]
pub struct MeasureRegistry {
    measures: Vec<Arc<dyn EvolutionMeasure>>,
}

impl MeasureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard catalogue covering every §II measure family:
    /// counting (class/property), neighbourhood (radius 1 and 2),
    /// structural shifts (betweenness, bridging, degree), and semantic
    /// shifts (in/out-centrality, relevance).
    pub fn standard() -> MeasureRegistry {
        let mut registry = MeasureRegistry::new();
        registry.register(Arc::new(ClassChangeCount));
        registry.register(Arc::new(PropertyChangeCount));
        registry.register(Arc::new(NeighbourhoodChangeCount { radius: 1 }));
        registry.register(Arc::new(NeighbourhoodChangeCount { radius: 2 }));
        registry.register(Arc::new(BetweennessShift));
        registry.register(Arc::new(BridgingShift));
        registry.register(Arc::new(DegreeShift));
        registry.register(Arc::new(InCentralityShift));
        registry.register(Arc::new(OutCentralityShift));
        registry.register(Arc::new(RelevanceShift));
        registry
    }

    /// The standard catalogue plus the extension measures the paper's
    /// §II(d) closing sentence invites ("Extensions … for properties as
    /// well"): property importance shift, property neighbourhoods, and
    /// instance-extent entropy shift.
    pub fn extended() -> MeasureRegistry {
        let mut registry = MeasureRegistry::standard();
        registry.register(Arc::new(PropertyImportanceShift));
        registry.register(Arc::new(PropertyNeighbourhoodChangeCount));
        registry.register(Arc::new(InstanceEntropyShift));
        registry
    }

    /// Add a measure. Replaces any existing measure with the same id.
    pub fn register(&mut self, measure: Arc<dyn EvolutionMeasure>) {
        let id = measure.id();
        self.measures.retain(|m| m.id() != id);
        self.measures.push(measure);
    }

    /// Look up a measure by id.
    pub fn get(&self, id: &MeasureId) -> Option<&Arc<dyn EvolutionMeasure>> {
        self.measures.iter().find(|m| &m.id() == id)
    }

    /// All measures, registration order.
    pub fn all(&self) -> &[Arc<dyn EvolutionMeasure>] {
        &self.measures
    }

    /// All measure ids, registration order.
    pub fn ids(&self) -> Vec<MeasureId> {
        self.measures.iter().map(|m| m.id()).collect()
    }

    /// Measures of one category.
    pub fn by_category(
        &self,
        category: MeasureCategory,
    ) -> impl Iterator<Item = &Arc<dyn EvolutionMeasure>> {
        self.measures
            .iter()
            .filter(move |m| m.category() == category)
    }

    /// Number of registered measures.
    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// `true` if the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Evaluate every registered measure over `ctx`, in registration
    /// order.
    ///
    /// Measures flagged [`MeasureCost::Heavy`] are fanned out across
    /// scoped worker threads (one per heavy measure) while the cheap
    /// counting measures run inline on the calling thread, so thread
    /// spawn overhead is only ever paid where a measure's compute
    /// dwarfs it. On small contexts everything runs serially.
    pub fn compute_all(&self, ctx: &EvolutionContext) -> Vec<MeasureReport> {
        let indexes: Vec<usize> = (0..self.measures.len()).collect();
        self.compute_indexed(ctx, &indexes)
    }

    /// Evaluate the measures at `indexes` (registration positions) over
    /// `ctx`, returning reports in the order the indexes were given.
    /// Heavy measures are parallelised exactly as in
    /// [`compute_all`](MeasureRegistry::compute_all).
    ///
    /// Indexes must be distinct: duplicates are rejected in debug
    /// builds and unsupported in release builds (a duplicated heavy
    /// index panics mid-evaluation, a duplicated cheap one computes
    /// twice).
    ///
    /// # Panics
    /// Panics if an index is out of range, or (in debug builds) if an
    /// index is repeated.
    pub fn compute_indexed(&self, ctx: &EvolutionContext, indexes: &[usize]) -> Vec<MeasureReport> {
        debug_assert!(
            indexes
                .iter()
                .all(|ix| indexes.iter().filter(|&&other| other == *ix).count() == 1),
            "compute_indexed requires distinct indexes: {indexes:?}"
        );
        let heavy: Vec<usize> = indexes
            .iter()
            .copied()
            .filter(|&ix| self.measures[ix].cost() == MeasureCost::Heavy)
            .collect();
        // Worker threads only pay off when the context is big enough
        // that a heavy measure's compute dwarfs a spawn, and when at
        // least two heavy computations can actually overlap (the second
        // runs inline here, concurrently with the spawned rest).
        if heavy.len() < 2 || ctx.graph_union.node_count() < PARALLEL_NODE_THRESHOLD {
            return indexes.iter().map(|&ix| self.measures[ix].compute(ctx)).collect();
        }
        let spawn_set = &heavy[..heavy.len() - 1];
        let mut done: Vec<(usize, MeasureReport)> = Vec::with_capacity(indexes.len());
        std::thread::scope(|scope| {
            // Spawn every heavy measure but the last; that one and all
            // the cheap measures run on the calling thread while the
            // workers are busy. Keying everything by output slot means
            // reassembly is a sort, with no partially-filled state.
            let spawned: Vec<(usize, _)> = indexes
                .iter()
                .enumerate()
                .filter(|(_, ix)| spawn_set.contains(ix))
                .map(|(slot, &ix)| (slot, scope.spawn(move || self.measures[ix].compute(ctx))))
                .collect();
            for (slot, &ix) in indexes.iter().enumerate() {
                if !spawn_set.contains(&ix) {
                    done.push((slot, self.measures[ix].compute(ctx)));
                }
            }
            for (slot, handle) in spawned {
                match handle.join() {
                    Ok(report) => done.push((slot, report)),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        done.sort_unstable_by_key(|&(slot, _)| slot);
        done.into_iter().map(|(_, report)| report).collect()
    }
}

/// Union-graph node count below which [`MeasureRegistry::compute_all`]
/// stays serial: on smaller graphs thread start-up outweighs the work.
const PARALLEL_NODE_THRESHOLD: usize = 64;

impl std::fmt::Debug for MeasureRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasureRegistry")
            .field("measures", &self.ids())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    fn tiny_ctx() -> EvolutionContext {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        s1.insert(Triple::new(c, v.rdfs_subclassof, b));
        let v1 = vs.commit_snapshot("v1", s1);
        EvolutionContext::build(&vs, v0, v1)
    }

    #[test]
    fn standard_registry_covers_all_categories() {
        let registry = MeasureRegistry::standard();
        assert_eq!(registry.len(), 10);
        for category in MeasureCategory::ALL {
            assert!(
                registry.by_category(category).count() >= 1,
                "missing {category}"
            );
        }
    }

    #[test]
    fn ids_are_unique() {
        for registry in [MeasureRegistry::standard(), MeasureRegistry::extended()] {
            let ids = registry.ids();
            let unique: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(unique.len(), ids.len());
        }
    }

    #[test]
    fn extended_superset_of_standard() {
        let standard = MeasureRegistry::standard();
        let extended = MeasureRegistry::extended();
        assert_eq!(extended.len(), standard.len() + 3);
        for id in standard.ids() {
            assert!(extended.get(&id).is_some(), "{id}");
        }
        let reports = extended.compute_all(&tiny_ctx());
        assert_eq!(reports.len(), extended.len());
    }

    #[test]
    fn get_by_id() {
        let registry = MeasureRegistry::standard();
        let id = MeasureId::new("class-change-count");
        assert!(registry.get(&id).is_some());
        assert!(registry.get(&MeasureId::new("nope")).is_none());
    }

    #[test]
    fn register_replaces_same_id() {
        let mut registry = MeasureRegistry::new();
        registry.register(Arc::new(ClassChangeCount));
        registry.register(Arc::new(ClassChangeCount));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn compute_all_yields_one_report_per_measure() {
        let registry = MeasureRegistry::standard();
        let ctx = tiny_ctx();
        let reports = registry.compute_all(&ctx);
        assert_eq!(reports.len(), registry.len());
        for (report, measure) in reports.iter().zip(registry.all()) {
            assert_eq!(report.measure, measure.id());
            assert_eq!(report.category, measure.category());
        }
    }

    /// A context big enough to cross `PARALLEL_NODE_THRESHOLD`: a chain
    /// of 90 classes with instance churn on the first 30.
    fn large_ctx() -> EvolutionContext {
        let mut vs = VersionedStore::new();
        let v = *vs.vocab();
        let terms: Vec<_> = (0..90)
            .map(|i| vs.intern_iri(format!("http://x/C{i}")))
            .collect();
        let mut s0 = TripleStore::new();
        for w in terms.windows(2) {
            s0.insert(Triple::new(w[0], v.rdfs_subclassof, w[1]));
        }
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        for (i, &class) in terms.iter().take(30).enumerate() {
            let inst = vs.intern_iri(format!("http://x/i{i}"));
            s1.insert(Triple::new(inst, v.rdf_type, class));
        }
        let v1 = vs.commit_snapshot("v1", s1);
        EvolutionContext::build(&vs, v0, v1)
    }

    #[test]
    fn standard_registry_flags_heavy_measures() {
        let registry = MeasureRegistry::standard();
        let heavy: Vec<String> = registry
            .all()
            .iter()
            .filter(|m| m.cost() == MeasureCost::Heavy)
            .map(|m| m.id().to_string())
            .collect();
        assert!(heavy.contains(&"betweenness-shift".to_string()), "{heavy:?}");
        assert!(heavy.contains(&"bridging-shift".to_string()), "{heavy:?}");
        assert!(
            heavy.contains(&"neighbourhood-change-count-r2".to_string()),
            "{heavy:?}"
        );
        assert!(heavy.len() >= 3 && heavy.len() < registry.len());
    }

    #[test]
    fn parallel_compute_all_matches_serial() {
        let ctx = large_ctx();
        assert!(ctx.graph_union.node_count() >= 64, "must cross the threshold");
        let registry = MeasureRegistry::extended();
        let parallel = registry.compute_all(&ctx);
        let serial: Vec<MeasureReport> =
            registry.all().iter().map(|m| m.compute(&ctx)).collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.measure, s.measure);
            assert_eq!(p.scores(), s.scores(), "{}", p.measure);
        }
    }

    #[test]
    fn compute_indexed_respects_given_order() {
        let ctx = large_ctx();
        let registry = MeasureRegistry::standard();
        // Reverse order, mixing heavy and cheap measures.
        let indexes: Vec<usize> = (0..registry.len()).rev().collect();
        let reports = registry.compute_indexed(&ctx, &indexes);
        for (report, &ix) in reports.iter().zip(&indexes) {
            assert_eq!(report.measure, registry.all()[ix].id());
        }
        // A subset works too.
        let subset = registry.compute_indexed(&ctx, &[4, 0]);
        assert_eq!(subset[0].measure, registry.all()[4].id());
        assert_eq!(subset[1].measure, registry.all()[0].id());
    }

    #[test]
    fn descriptions_are_nonempty() {
        for m in MeasureRegistry::standard().all() {
            assert!(!m.description().is_empty(), "{}", m.id());
        }
    }
}
