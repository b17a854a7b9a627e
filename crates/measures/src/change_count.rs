//! §II(a): "Number of class or property changes" — δ(n) counting.
//!
//! Both measures read δ(n) from the step's shared change-count table
//! ([`EvolutionContext::changes_for_term`]), which one pass over the
//! delta fills for every term.

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;

/// Scores every class by δ(n): the number of added/removed triples in
/// which the class appears.
#[derive(Default, Clone, Copy, Debug)]
pub struct ClassChangeCount;

impl EvolutionMeasure for ClassChangeCount {
    fn id(&self) -> MeasureId {
        MeasureId::new("class-change-count")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::ChangeCounting
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "number of low-level changes (added + removed triples) mentioning the class".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let scores = ctx
            .all_classes()
            .iter()
            .map(|&c| (c, ctx.changes_for_term(c) as f64))
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// Scores every property by δ(p): the number of added/removed triples in
/// which the property appears (as predicate, subject of a schema
/// statement, or object).
#[derive(Default, Clone, Copy, Debug)]
pub struct PropertyChangeCount;

impl EvolutionMeasure for PropertyChangeCount {
    fn id(&self) -> MeasureId {
        MeasureId::new("property-change-count")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::ChangeCounting
    }

    fn target(&self) -> TargetKind {
        TargetKind::Properties
    }

    fn description(&self) -> String {
        "number of low-level changes (added + removed triples) mentioning the property".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let scores = ctx
            .all_properties()
            .into_iter()
            .map(|p| (p, ctx.changes_for_term(p) as f64))
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    /// V0: A⊑B, x:A, x p y. V1: drops x p y, adds z:A and x q y.
    fn ctx() -> (EvolutionContext, [evorec_kb::TermId; 4]) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let p = vs.intern_iri("http://x/p");
        let q = vs.intern_iri("http://x/q");
        let x = vs.intern_iri("http://x/x");
        let y = vs.intern_iri("http://x/y");
        let z = vs.intern_iri("http://x/z");
        let v = *vs.vocab();

        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        s0.insert(Triple::new(p, v.rdf_type, v.rdf_property));
        s0.insert(Triple::new(q, v.rdf_type, v.rdf_property));
        s0.insert(Triple::new(x, v.rdf_type, a));
        s0.insert(Triple::new(y, v.rdf_type, b));
        s0.insert(Triple::new(x, p, y));
        let v0 = vs.commit_snapshot("v0", s0.clone());

        let mut s1 = s0;
        s1.remove(&Triple::new(x, p, y));
        s1.insert(Triple::new(z, v.rdf_type, a));
        s1.insert(Triple::new(x, q, y));
        let v1 = vs.commit_snapshot("v1", s1);

        (EvolutionContext::build(&vs, v0, v1), [a, b, p, q])
    }

    #[test]
    fn class_counts_attribute_type_changes() {
        let (ctx, [a, b, ..]) = ctx();
        let report = ClassChangeCount.compute(&ctx);
        // A gains one instance typing triple (z rdf:type A).
        assert_eq!(report.score_of(a), Some(1.0));
        // B untouched by the delta.
        assert_eq!(report.score_of(b), Some(0.0));
        assert_eq!(report.scores()[0].0, a);
    }

    #[test]
    fn property_counts_attribute_statement_changes() {
        let (ctx, [_, _, p, q]) = ctx();
        let report = PropertyChangeCount.compute(&ctx);
        // p lost (x p y); q gained (x q y).
        assert_eq!(report.score_of(p), Some(1.0));
        assert_eq!(report.score_of(q), Some(1.0));
    }

    #[test]
    fn report_metadata_is_correct() {
        let (ctx, _) = ctx();
        let r = ClassChangeCount.compute(&ctx);
        assert_eq!(r.measure.as_str(), "class-change-count");
        assert_eq!(r.category, MeasureCategory::ChangeCounting);
        assert_eq!(r.target, TargetKind::Classes);
        let r = PropertyChangeCount.compute(&ctx);
        assert_eq!(r.target, TargetKind::Properties);
    }

    #[test]
    fn empty_delta_scores_all_zero() {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let v = *vs.vocab();
        let mut s = TripleStore::new();
        s.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s.clone());
        let v1 = vs.commit_snapshot("v1", s);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let report = ClassChangeCount.compute(&ctx);
        assert_eq!(report.total_mass(), 0.0);
        assert_eq!(report.positive_count(), 0);
    }
}
