//! §II(b): "Number of class or property changes in neighbourhoods".
//!
//! For a class `n`, the paper defines N_{V1,V2}(n) as the classes related
//! to `n` via subsumption or a property connection *in either version*,
//! and the measure |δN(n)| = Σ_{c ∈ N(n)} |δ(c)|. This module generalises
//! the neighbourhood to any BFS radius over the union class graph
//! (radius 1 is the paper's definition); the radius sweep is the E10
//! ablation. The per-class δ(c) come from the step's shared change-count
//! table, and every class's neighbourhood sum from one BFS sweep over
//! the union graph ([`k_hop_sums`]).

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;
use evorec_graph::k_hop_sums;

/// Scores each class by the number of changes landing in its
/// neighbourhood (union graph, `radius` hops, source excluded).
#[derive(Clone, Copy, Debug)]
pub struct NeighbourhoodChangeCount {
    /// BFS radius; 1 reproduces the paper's N_{V1,V2}.
    pub radius: u32,
}

impl Default for NeighbourhoodChangeCount {
    fn default() -> Self {
        NeighbourhoodChangeCount { radius: 1 }
    }
}

impl EvolutionMeasure for NeighbourhoodChangeCount {
    fn id(&self) -> MeasureId {
        MeasureId::new(format!("neighbourhood-change-count-r{}", self.radius))
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::Neighbourhood
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        format!(
            "sum of per-class change counts over the {}-hop neighbourhood in the union class graph",
            self.radius
        )
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let graph = &ctx.graph_union;
        let node_changes: Vec<f64> = graph
            .terms()
            .iter()
            .map(|&t| ctx.changes_for_term(t) as f64)
            .collect();
        // Counts are integers held in `f64`, so the sweep's sums are
        // exact whatever order it adds them in.
        let sums = k_hop_sums(graph, &node_changes, self.radius);
        let scores = graph.terms().iter().copied().zip(sums).collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TermId, Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    /// Chain A⊑B⊑C⊑D; churn concentrated on A (two instance changes).
    fn ctx() -> (EvolutionContext, [TermId; 4]) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let d = vs.intern_iri("http://x/D");
        let i1 = vs.intern_iri("http://x/i1");
        let i2 = vs.intern_iri("http://x/i2");
        let v = *vs.vocab();

        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        s0.insert(Triple::new(b, v.rdfs_subclassof, c));
        s0.insert(Triple::new(c, v.rdfs_subclassof, d));
        let v0 = vs.commit_snapshot("v0", s0.clone());

        let mut s1 = s0;
        s1.insert(Triple::new(i1, v.rdf_type, a));
        s1.insert(Triple::new(i2, v.rdf_type, a));
        let v1 = vs.commit_snapshot("v1", s1);

        (EvolutionContext::build(&vs, v0, v1), [a, b, c, d])
    }

    #[test]
    fn radius_one_matches_paper_definition() {
        let (ctx, [a, b, c, d]) = ctx();
        let report = NeighbourhoodChangeCount { radius: 1 }.compute(&ctx);
        // Changes: two triples mentioning A (and the instances, which are
        // not classes). δ(A)=2, δ(B)=δ(C)=δ(D)=0.
        // N(A)={B} → 0; N(B)={A,C} → 2; N(C)={B,D} → 0; N(D)={C} → 0.
        assert_eq!(report.score_of(a), Some(0.0));
        assert_eq!(report.score_of(b), Some(2.0));
        assert_eq!(report.score_of(c), Some(0.0));
        assert_eq!(report.score_of(d), Some(0.0));
    }

    #[test]
    fn larger_radius_propagates_changes() {
        let (ctx, [_, _, c, d]) = ctx();
        let r2 = NeighbourhoodChangeCount { radius: 2 }.compute(&ctx);
        // C now reaches A (two hops) → 2.
        assert_eq!(r2.score_of(c), Some(2.0));
        assert_eq!(r2.score_of(d), Some(0.0));
        let r3 = NeighbourhoodChangeCount { radius: 3 }.compute(&ctx);
        assert_eq!(r3.score_of(d), Some(2.0));
    }

    #[test]
    fn radius_zero_scores_nothing() {
        let (ctx, _) = ctx();
        let r0 = NeighbourhoodChangeCount { radius: 0 }.compute(&ctx);
        assert_eq!(r0.total_mass(), 0.0);
    }

    #[test]
    fn id_encodes_radius() {
        assert_eq!(
            NeighbourhoodChangeCount { radius: 2 }.id().as_str(),
            "neighbourhood-change-count-r2"
        );
        assert_eq!(
            NeighbourhoodChangeCount::default().id().as_str(),
            "neighbourhood-change-count-r1"
        );
    }
}
