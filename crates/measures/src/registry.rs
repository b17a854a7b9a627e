//! The measure registry: the catalogue the recommender recommends *from*.

use crate::change_count::{ClassChangeCount, PropertyChangeCount};
use crate::context::EvolutionContext;
use crate::extensions::{
    InstanceEntropyShift, PropertyImportanceShift, PropertyNeighbourhoodChangeCount,
};
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId};
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
    pub fn compute_all(&self, ctx: &EvolutionContext) -> Vec<MeasureReport> {
        self.measures.iter().map(|m| m.compute(ctx)).collect()
    }
}

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

    #[test]
    fn descriptions_are_nonempty() {
        for m in MeasureRegistry::standard().all() {
            assert!(!m.description().is_empty(), "{}", m.id());
        }
    }
}
