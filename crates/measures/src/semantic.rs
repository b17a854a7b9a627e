//! §II(d): semantic-importance shift measures.
//!
//! Each measure scores classes by the absolute *shift* of one of the
//! per-class importance values of Troullinou et al. (the paper's
//! reference [15]) between versions — in-centrality, out-centrality or
//! relevance — "the cumulative effect of these changes on the class",
//! which the paper argues is often superior to raw change counting.
//! The values belong to one version, so the measures read them from
//! each version's [`SchemaView`](evorec_kb::SchemaView)
//! ([`centralities`](evorec_kb::SchemaView::centralities),
//! [`relevance`](evorec_kb::SchemaView::relevance)), which computes
//! them once and shares them with every step over that version.

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;

/// |Cin_V2(n) − Cin_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct InCentralityShift;

impl EvolutionMeasure for InCentralityShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("in-centrality-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::SemanticImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute change of the class's in-centrality (sum of incoming relative cardinalities)"
            .into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let (before, after) = (ctx.before.centralities(), ctx.after.centralities());
        let scores = ctx
            .all_classes()
            .iter()
            .map(|&c| (c, (after.cin(c) - before.cin(c)).abs()))
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// |Cout_V2(n) − Cout_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct OutCentralityShift;

impl EvolutionMeasure for OutCentralityShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("out-centrality-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::SemanticImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute change of the class's out-centrality (sum of outgoing relative cardinalities)"
            .into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let (before, after) = (ctx.before.centralities(), ctx.after.centralities());
        let scores = ctx
            .all_classes()
            .iter()
            .map(|&c| (c, (after.cout(c) - before.cout(c)).abs()))
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// |relevance_V2(n) − relevance_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct RelevanceShift;

impl EvolutionMeasure for RelevanceShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("relevance-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::SemanticImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute change of the class's relevance (centrality of the class and its \
         neighbours, weighted by instance extent)"
            .into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let (before, after) = (ctx.before.relevance(), ctx.after.relevance());
        let scores = ctx
            .all_classes()
            .iter()
            .map(|&c| {
                let b = before.get(&c).copied().unwrap_or(0.0);
                let a = after.get(&c).copied().unwrap_or(0.0);
                (c, (a - b).abs())
            })
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{TermId, Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    struct Fixture {
        vs: VersionedStore,
        a: TermId,
        b: TermId,
        c: TermId,
        p: TermId,
        q: TermId,
    }

    /// Classes A, B, C; properties p (A→B) and q (A→C). V0 has two p
    /// links and one q link; V1 adds two more q links, shifting
    /// importance from B towards C.
    fn fixture() -> (Fixture, evorec_versioning::VersionId, evorec_versioning::VersionId) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let p = vs.intern_iri("http://x/p");
        let q = vs.intern_iri("http://x/q");
        let v = *vs.vocab();

        let mut s0 = TripleStore::new();
        for class in [a, b, c] {
            s0.insert(Triple::new(class, v.rdf_type, v.rdfs_class));
        }
        for prop in [p, q] {
            s0.insert(Triple::new(prop, v.rdf_type, v.owl_object_property));
        }
        // Instances: a1,a2 : A; b1,b2 : B; c1..c3 : C.
        let inst = |vs: &mut VersionedStore, name: &str, class: TermId, store: &mut TripleStore| {
            let id = vs.intern_iri(format!("http://x/{name}"));
            store.insert(Triple::new(id, v.rdf_type, class));
            id
        };
        let a1 = inst(&mut vs, "a1", a, &mut s0);
        let a2 = inst(&mut vs, "a2", a, &mut s0);
        let b1 = inst(&mut vs, "b1", b, &mut s0);
        let b2 = inst(&mut vs, "b2", b, &mut s0);
        let c1 = inst(&mut vs, "c1", c, &mut s0);
        let c2 = inst(&mut vs, "c2", c, &mut s0);
        let c3 = inst(&mut vs, "c3", c, &mut s0);
        s0.insert(Triple::new(a1, p, b1));
        s0.insert(Triple::new(a2, p, b2));
        s0.insert(Triple::new(a1, q, c1));
        let v0 = vs.commit_snapshot("v0", s0.clone());

        let mut s1 = s0;
        s1.insert(Triple::new(a1, q, c2));
        s1.insert(Triple::new(a2, q, c3));
        let v1 = vs.commit_snapshot("v1", s1);

        (Fixture { vs, a, b, c, p, q }, v0, v1)
    }

    #[test]
    fn centrality_vectors_reflect_link_mass() {
        let (f, v0, _) = fixture();
        let view = f.vs.schema_view(v0);
        let cv = view.centralities();
        // V0: p has 2 links A→B, q has 1 link A→C.
        // conn totals: A = 3, B = 2, C = 1.
        // RC(p,A,B) = 2 / (3 + 2) = 0.4 → out(A) += .4, in(B) += .4
        // RC(q,A,C) = 1 / (3 + 1) = 0.25 → out(A) += .25, in(C) += .25
        assert!((cv.cout(f.a) - 0.65).abs() < 1e-12);
        assert!((cv.cin(f.b) - 0.4).abs() < 1e-12);
        assert!((cv.cin(f.c) - 0.25).abs() < 1e-12);
        assert_eq!(cv.cin(f.a), 0.0);
        assert_eq!(cv.cout(f.b), 0.0);
        assert!((cv.combined(f.a) - 0.65).abs() < 1e-12);
    }

    #[test]
    fn in_centrality_shift_highlights_growing_class() {
        let (f, v0, v1) = fixture();
        let ctx = EvolutionContext::build(&f.vs, v0, v1);
        let r = InCentralityShift.compute(&ctx);
        // C's in-centrality grows (1 → 3 q-links): 0.25 → 3/8 = 0.375,
        // shift 0.125. B's shrinks only via the denominator (A's total
        // connections grew): 0.4 → 2/7, shift ≈ 0.1143.
        let shift_c = r.score_of(f.c).unwrap();
        let shift_b = r.score_of(f.b).unwrap();
        assert!((shift_c - 0.125).abs() < 1e-12, "shift_c = {shift_c}");
        assert!((shift_b - (0.4 - 2.0 / 7.0)).abs() < 1e-12, "shift_b = {shift_b}");
        assert!(shift_c > shift_b);
        assert_eq!(r.scores()[0].0, f.c);
    }

    #[test]
    fn out_centrality_shift_tracks_source_class() {
        let (f, v0, v1) = fixture();
        let ctx = EvolutionContext::build(&f.vs, v0, v1);
        let r = OutCentralityShift.compute(&ctx);
        assert!(r.score_of(f.a).unwrap() > 0.0, "A sends the new links");
        assert_eq!(r.score_of(f.b), Some(0.0));
    }

    #[test]
    fn relevance_combines_centrality_neighbours_and_instances() {
        let (f, v0, _) = fixture();
        let view = f.vs.schema_view(v0);
        let rel = view.relevance();
        // All three classes have nonzero relevance (A via own centrality,
        // B and C via own in-centrality and neighbour A).
        assert!(rel[&f.a] > 0.0);
        assert!(rel[&f.b] > 0.0);
        assert!(rel[&f.c] > 0.0);
        // A has the largest raw centrality and two connected neighbours.
        assert!(rel[&f.a] > rel[&f.c]);
    }

    #[test]
    fn relevance_shift_nonzero_when_instances_move() {
        let (f, v0, v1) = fixture();
        let ctx = EvolutionContext::build(&f.vs, v0, v1);
        let r = RelevanceShift.compute(&ctx);
        assert!(r.score_of(f.c).unwrap() > 0.0);
        assert!(r.total_mass() > 0.0);
    }

    #[test]
    fn empty_views_produce_empty_vectors() {
        let (f, _, _) = fixture();
        let _ = (f.p, f.q);
        let empty = evorec_kb::Graph::new();
        let view = empty.schema();
        assert!(view.centralities().in_centrality.is_empty());
        assert!(view.relevance().is_empty());
    }
}
