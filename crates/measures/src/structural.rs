//! §II(c): structural-importance shift measures.
//!
//! "A shift in one node's Bridging Centrality or Betweenness among V1 and
//! V2 could capture how the different changes on a dataset affected the
//! topology around this specific node." Each measure scores a class by
//! the absolute difference of a structural importance value between the
//! two versions; classes absent from a version contribute importance 0
//! there (appearing/disappearing is itself a topological event).

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;
use evorec_graph::SchemaGraph;
use evorec_kb::TermId;

fn shift_scores(
    ctx: &EvolutionContext,
    value_before: impl Fn(&SchemaGraph, u32) -> f64,
    value_after: impl Fn(&SchemaGraph, u32) -> f64,
) -> Vec<(TermId, f64)> {
    ctx.all_classes()
        .iter()
        .map(|&class| {
            let before = ctx
                .graph_before
                .node_of(class)
                .map_or(0.0, |u| value_before(&ctx.graph_before, u));
            let after = ctx
                .graph_after
                .node_of(class)
                .map_or(0.0, |u| value_after(&ctx.graph_after, u));
            (class, (after - before).abs())
        })
        .collect()
}

/// |Betweenness_V2(n) − Betweenness_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct BetweennessShift;

impl EvolutionMeasure for BetweennessShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("betweenness-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::StructuralImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute betweenness-centrality change of the class between the two versions".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let before = ctx.betweenness_before();
        let after = ctx.betweenness_after();
        let scores = shift_scores(
            ctx,
            |_, u| before[u as usize],
            |_, u| after[u as usize],
        );
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// |BridgingCentrality_V2(n) − BridgingCentrality_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct BridgingShift;

impl EvolutionMeasure for BridgingShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("bridging-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::StructuralImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute bridging-centrality change of the class between the two versions".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let before = ctx.bridging_before();
        let after = ctx.bridging_after();
        let scores = shift_scores(
            ctx,
            |_, u| before[u as usize],
            |_, u| after[u as usize],
        );
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// |degree_V2(n) − degree_V1(n)| per class — the cheap structural
/// baseline the costlier centrality shifts are compared against.
#[derive(Default, Clone, Copy, Debug)]
pub struct DegreeShift;

impl EvolutionMeasure for DegreeShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("degree-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::StructuralImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute class-graph degree change of the class between the two versions".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let scores = shift_scores(
            ctx,
            |g, u| g.degree(u) as f64,
            |g, u| g.degree(u) as f64,
        );
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    /// V0: path A-B-C (B is the cut vertex). V1: adds direct A-C edge,
    /// destroying B's brokerage.
    fn ctx() -> (EvolutionContext, [TermId; 3]) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        s0.insert(Triple::new(b, v.rdfs_subclassof, c));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        s1.insert(Triple::new(a, v.rdfs_subclassof, c));
        let v1 = vs.commit_snapshot("v1", s1);
        (EvolutionContext::build(&vs, v0, v1), [a, b, c])
    }

    #[test]
    fn betweenness_shift_detects_lost_brokerage() {
        let (ctx, [a, b, c]) = ctx();
        let r = BetweennessShift.compute(&ctx);
        // B: betweenness 1 → 0, shift 1. A, C: 0 → 0.
        assert_eq!(r.score_of(b), Some(1.0));
        assert_eq!(r.score_of(a), Some(0.0));
        assert_eq!(r.score_of(c), Some(0.0));
        assert_eq!(r.scores()[0].0, b);
    }

    #[test]
    fn degree_shift_attributes_new_edge_to_endpoints() {
        let (ctx, [a, b, c]) = ctx();
        let r = DegreeShift.compute(&ctx);
        assert_eq!(r.score_of(a), Some(1.0));
        assert_eq!(r.score_of(c), Some(1.0));
        assert_eq!(r.score_of(b), Some(0.0));
    }

    #[test]
    fn bridging_shift_nonzero_for_cut_vertex() {
        let (ctx, [_, b, _]) = ctx();
        let r = BridgingShift.compute(&ctx);
        assert!(r.score_of(b).unwrap() > 0.0);
    }

    #[test]
    fn appearing_class_gets_full_shift() {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let d = vs.intern_iri("http://x/D");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        // D appears as a new cut vertex A-D, D-C, plus keeps A-B.
        let mut s1 = s0;
        s1.insert(Triple::new(a, v.rdfs_subclassof, d));
        s1.insert(Triple::new(d, v.rdfs_subclassof, c));
        let v1 = vs.commit_snapshot("v1", s1);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let r = BetweennessShift.compute(&ctx);
        // D absent before (implicit 0), betweenness 2 after (pairs B-C,
        // A-C... B-D? pairs through D: (A,C) no wait: graph after is
        // B-A-D-C a path; D carries (B,C) and (A,C): 2.
        assert_eq!(r.score_of(d), Some(2.0));
    }

    #[test]
    fn identical_versions_have_zero_shifts() {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let v = *vs.vocab();
        let mut s = TripleStore::new();
        s.insert(Triple::new(a, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s.clone());
        let v1 = vs.commit_snapshot("v1", s);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        for r in [
            BetweennessShift.compute(&ctx),
            BridgingShift.compute(&ctx),
            DegreeShift.compute(&ctx),
        ] {
            assert_eq!(r.total_mass(), 0.0, "{}", r.measure);
        }
    }
}
