//! Extension measures beyond the paper's §II exemplars.
//!
//! §II(d) closes with: "Extensions on the above definitions can be
//! given, so as to define the corresponding structural or semantic
//! importance measures for properties as well." This module provides
//! those extensions:
//!
//! - [`PropertyImportanceShift`] — the semantic-importance shift for
//!   *properties*: how much the relative-cardinality mass a property
//!   carries changed between versions;
//! - [`PropertyNeighbourhoodChangeCount`] — the §II(b) neighbourhood
//!   measure lifted to properties: changes landing on the classes a
//!   property connects (declared domains/ranges and observed pairs);
//! - [`InstanceEntropyShift`] — a distribution-level measure: the
//!   change in each class's share of the instance-extent entropy,
//!   catching redistribution that leaves counts roughly equal but moves
//!   mass between classes.

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;
use evorec_kb::{FxHashMap, SchemaView, TermId};

/// Per-property semantic importance: the total relative-cardinality mass
/// the property carries across all class pairs.
fn property_importance(view: &SchemaView, property: TermId) -> f64 {
    // Pairs stream out of a hash map; sum in a fixed order so the
    // importance mass is bit-identical across runs.
    let mut masses: Vec<f64> = view
        .property_pairs(property)
        .map(|((cs, co), _)| view.relative_cardinality(property, cs, co))
        .collect();
    masses.sort_unstable_by(f64::total_cmp);
    masses.iter().sum()
}

/// |importance_V2(p) − importance_V1(p)| per property (§II(d) extended
/// to properties).
#[derive(Default, Clone, Copy, Debug)]
pub struct PropertyImportanceShift;

impl EvolutionMeasure for PropertyImportanceShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("property-importance-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::SemanticImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Properties
    }

    fn description(&self) -> String {
        "absolute change of the property's total relative-cardinality mass".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let scores = ctx
            .all_properties()
            .into_iter()
            .map(|p| {
                let before = property_importance(&ctx.before, p);
                let after = property_importance(&ctx.after, p);
                (p, (after - before).abs())
            })
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// Changes landing on the classes each property connects (its declared
/// domains/ranges plus observed endpoint pairs, in either version).
#[derive(Default, Clone, Copy, Debug)]
pub struct PropertyNeighbourhoodChangeCount;

impl EvolutionMeasure for PropertyNeighbourhoodChangeCount {
    fn id(&self) -> MeasureId {
        MeasureId::new("property-neighbourhood-change-count")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::Neighbourhood
    }

    fn target(&self) -> TargetKind {
        TargetKind::Properties
    }

    fn description(&self) -> String {
        "sum of per-class change counts over the classes the property connects".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let scores = ctx
            .all_properties()
            .into_iter()
            .map(|p| {
                let mut classes: Vec<TermId> = Vec::new();
                for view in [&ctx.before, &ctx.after] {
                    classes.extend_from_slice(view.domains_of(p));
                    classes.extend_from_slice(view.ranges_of(p));
                    classes.extend(view.property_pairs(p).flat_map(|((cs, co), _)| [cs, co]));
                }
                classes.sort_unstable();
                classes.dedup();
                let total: usize = classes
                    .iter()
                    .map(|&c| ctx.changes_for_term(c))
                    .sum();
                (p, total as f64)
            })
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }
}

/// Instance-extent share entropy: p(c) = |instances(c)| / Σ, and each
/// class's entropy contribution −p·ln p. The measure scores the absolute
/// change of that contribution.
fn entropy_contributions(view: &SchemaView) -> FxHashMap<TermId, f64> {
    let total: usize = view
        .classes()
        .iter()
        .map(|&c| view.instance_count(c))
        .sum();
    let mut out = FxHashMap::default();
    if total == 0 {
        return out;
    }
    for &class in view.classes() {
        let count = view.instance_count(class);
        if count > 0 {
            let p = count as f64 / total as f64;
            out.insert(class, -p * p.ln());
        }
    }
    out
}

/// |entropy-contribution_V2(n) − entropy-contribution_V1(n)| per class.
#[derive(Default, Clone, Copy, Debug)]
pub struct InstanceEntropyShift;

impl EvolutionMeasure for InstanceEntropyShift {
    fn id(&self) -> MeasureId {
        MeasureId::new("instance-entropy-shift")
    }

    fn category(&self) -> MeasureCategory {
        MeasureCategory::SemanticImportance
    }

    fn target(&self) -> TargetKind {
        TargetKind::Classes
    }

    fn description(&self) -> String {
        "absolute change of the class's contribution to the instance-extent entropy".into()
    }

    fn compute(&self, ctx: &EvolutionContext) -> MeasureReport {
        let before = entropy_contributions(&ctx.before);
        let after = entropy_contributions(&ctx.after);
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
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    struct Fixture {
        vs: VersionedStore,
        a: TermId,
        b: TermId,
        c: TermId,
        p: TermId,
        q: TermId,
        v0: evorec_versioning::VersionId,
        v1: evorec_versioning::VersionId,
    }

    /// p connects A→B with 2 links in both versions; q connects A→C with
    /// 1 link in V0 and 3 in V1. Instances of C grow from 1 to 3.
    fn fixture() -> Fixture {
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
        for (prop, dom, rng) in [(p, a, b), (q, a, c)] {
            s0.insert(Triple::new(prop, v.rdf_type, v.owl_object_property));
            s0.insert(Triple::new(prop, v.rdfs_domain, dom));
            s0.insert(Triple::new(prop, v.rdfs_range, rng));
        }
        let mut names = vec![
            ("a1", a),
            ("a2", a),
            ("b1", b),
            ("b2", b),
            ("c1", c),
        ];
        let mut ids = FxHashMap::default();
        for (name, class) in names.drain(..) {
            let id = vs.intern_iri(format!("http://x/{name}"));
            s0.insert(Triple::new(id, v.rdf_type, class));
            ids.insert(name, id);
        }
        s0.insert(Triple::new(ids["a1"], p, ids["b1"]));
        s0.insert(Triple::new(ids["a2"], p, ids["b2"]));
        s0.insert(Triple::new(ids["a1"], q, ids["c1"]));
        let v0 = vs.commit_snapshot("v0", s0.clone());

        let mut s1 = s0;
        for name in ["c2", "c3"] {
            let id = vs.intern_iri(format!("http://x/{name}"));
            s1.insert(Triple::new(id, v.rdf_type, c));
            s1.insert(Triple::new(ids["a2"], q, id));
        }
        let v1 = vs.commit_snapshot("v1", s1);
        Fixture {
            vs,
            a,
            b,
            c,
            p,
            q,
            v0,
            v1,
        }
    }

    #[test]
    fn property_importance_shift_flags_the_growing_property() {
        let f = fixture();
        let ctx = EvolutionContext::build(&f.vs, f.v0, f.v1);
        let report = PropertyImportanceShift.compute(&ctx);
        let q_shift = report.score_of(f.q).unwrap();
        let p_shift = report.score_of(f.p).unwrap();
        assert!(q_shift > 0.0);
        assert!(
            q_shift > p_shift,
            "q gained links (shift {q_shift}), p only lost denominator mass ({p_shift})"
        );
        assert_eq!(report.scores()[0].0, f.q);
        assert_eq!(report.target, TargetKind::Properties);
    }

    #[test]
    fn property_neighbourhood_attributes_class_churn_to_connecting_properties() {
        let f = fixture();
        let ctx = EvolutionContext::build(&f.vs, f.v0, f.v1);
        let report = PropertyNeighbourhoodChangeCount.compute(&ctx);
        // q connects A and C; C received new typings and q-links.
        let q_score = report.score_of(f.q).unwrap();
        let p_score = report.score_of(f.p).unwrap();
        assert!(q_score > p_score, "q {q_score} vs p {p_score}");
        let _ = (f.a, f.b);
    }

    #[test]
    fn entropy_shift_reflects_redistribution() {
        let f = fixture();
        let ctx = EvolutionContext::build(&f.vs, f.v0, f.v1);
        let report = InstanceEntropyShift.compute(&ctx);
        // C's extent share grows 1/5 → 3/7: its entropy contribution
        // changes; B's share shrinks 2/5 → 2/7 without any direct change
        // to B itself — exactly what raw counting misses.
        assert!(report.score_of(f.c).unwrap() > 0.0);
        assert!(report.score_of(f.b).unwrap() > 0.0);
        let direct = crate::change_count::ClassChangeCount.compute(&ctx);
        assert_eq!(direct.score_of(f.b), Some(0.0), "counting misses B entirely");
    }

    #[test]
    fn entropy_on_empty_views_is_empty() {
        let mut vs = VersionedStore::new();
        let s = TripleStore::new();
        let v0 = vs.commit_snapshot("v0", s.clone());
        let v1 = vs.commit_snapshot("v1", s);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let report = InstanceEntropyShift.compute(&ctx);
        assert!(report.is_empty());
    }
}
