//! §II(b): "Number of class or property changes in neighbourhoods".
//!
//! For a class `n`, the paper defines N_{V1,V2}(n) as the classes related
//! to `n` via subsumption or a property connection *in either version*,
//! and the measure |δN(n)| = Σ_{c ∈ N(n)} |δ(c)|. This module generalises
//! the neighbourhood to any BFS radius over the union class graph
//! (radius 1 is the paper's definition); the radius sweep is the E10
//! ablation.

use crate::context::EvolutionContext;
use crate::measure::{EvolutionMeasure, MeasureCategory, MeasureId, TargetKind};
use crate::report::MeasureReport;
use evorec_graph::k_hop_neighbourhood;
use evorec_kb::{FxHashSet, SchemaView, TermId};
use evorec_versioning::LowLevelDelta;
use std::collections::VecDeque;

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
        // Per-node change counts once, then neighbourhood sums.
        let node_changes: Vec<f64> = graph
            .terms()
            .iter()
            .map(|&t| ctx.delta.changes_for_term(t) as f64)
            .collect();
        let scores = graph
            .node_indexes()
            .map(|u| {
                let total: f64 = k_hop_neighbourhood(graph, u, self.radius)
                    .into_iter()
                    .map(|v| node_changes[v as usize])
                    .sum();
                (graph.term(u), total)
            })
            .collect();
        MeasureReport::from_scores(self.id(), self.category(), self.target(), scores)
    }

    /// Incremental maintenance: only the extension's r-hop *ripple set*
    /// is re-scored; every class outside it keeps its previous score.
    ///
    /// A class `u`'s score can change between the previous window and
    /// `ctx` only if (a) some class in its r-hop neighbourhood changed
    /// its δ-count — such classes are mentioned in `extension` — or
    /// (b) the neighbourhood set itself changed, which requires an
    /// added/removed union-graph edge, and every such edge has an
    /// endpoint in the *seed set* derived from the extension (see
    /// `ripple_seed`). Either way `u` lies within `radius` hops of a
    /// seed in the new union graph, so a multi-source BFS from the
    /// seeds bounds exactly the classes needing a fresh neighbourhood
    /// sum. Scores are integral (counts as `f64`), so carried-over
    /// entries are bit-identical to what a recompute would produce.
    fn update(
        &self,
        previous: &MeasureReport,
        ctx: &EvolutionContext,
        extension: &LowLevelDelta,
    ) -> Option<MeasureReport> {
        let graph = &ctx.graph_union;
        let seeds = ripple_seed(ctx, extension);
        // Multi-source BFS to `radius` over the new union graph.
        let mut rippled = vec![false; graph.node_count()];
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        for &term in &seeds {
            if let Some(u) = graph.node_of(term) {
                if !rippled[u as usize] {
                    rippled[u as usize] = true;
                    queue.push_back((u, 0));
                }
            }
        }
        while let Some((u, depth)) = queue.pop_front() {
            if depth == self.radius {
                continue;
            }
            for &v in graph.neighbours(u) {
                if !rippled[v as usize] {
                    rippled[v as usize] = true;
                    queue.push_back((v, depth + 1));
                }
            }
        }
        // Per-node change counts, computed lazily: only neighbourhoods
        // of rippled nodes are summed, so untouched regions never pay a
        // delta scan.
        let mut changes: Vec<Option<f64>> = vec![None; graph.node_count()];
        let mut change_of = |v: u32| {
            *changes[v as usize].get_or_insert_with(|| {
                ctx.delta.changes_for_term(graph.term(v)) as f64
            })
        };
        let scores = graph
            .node_indexes()
            .map(|u| {
                let term = graph.term(u);
                let carried = if rippled[u as usize] {
                    None
                } else {
                    // A node outside the ripple set keeps its score; a
                    // node the previous window never saw (shouldn't
                    // happen outside the ripple, but recomputing is the
                    // safe answer) is summed afresh.
                    previous.score_of(term)
                };
                let score = carried.unwrap_or_else(|| {
                    k_hop_neighbourhood(graph, u, self.radius)
                        .into_iter()
                        .map(&mut change_of)
                        .sum()
                });
                (term, score)
            })
            .collect();
        Some(MeasureReport::from_scores(
            self.id(),
            self.category(),
            self.target(),
            scores,
        ))
    }
}

/// The terms that seed the extension's ripple set: a sound
/// over-approximation of every union-graph node whose δ-count or
/// adjacency can differ from the previous window.
///
/// Union-graph adjacency comes from four sources, each traceable to the
/// extension's triples:
/// - *subsumption edges* — both endpoints appear in the triple;
/// - *declared domain × range products* — the property is the triple's
///   subject, so its declared domains and ranges (in either version)
///   cover the affected pairs;
/// - *observed instance links* — the affected pairs are products of the
///   two endpoints' types (in either version);
/// - *typing changes* — re-typing an instance shifts the pairs it
///   contributes through its existing property links, so the types of
///   its link partners (in either version) are included.
fn ripple_seed(ctx: &EvolutionContext, extension: &LowLevelDelta) -> FxHashSet<TermId> {
    let views: [&SchemaView; 2] = [&ctx.before, &ctx.after];
    let mut seeds: FxHashSet<TermId> = FxHashSet::default();
    for triple in extension.added.iter().chain(extension.removed.iter()) {
        for term in [triple.s, triple.p, triple.o] {
            seeds.insert(term);
            for view in views {
                seeds.extend(view.types_of(term).iter().copied());
                for &partner in view.link_partners(term) {
                    for partner_view in views {
                        seeds.extend(partner_view.types_of(partner).iter().copied());
                    }
                }
            }
            if views.iter().any(|v| v.is_property(term)) {
                for view in views {
                    seeds.extend(view.domains_of(term).iter().copied());
                    seeds.extend(view.ranges_of(term).iter().copied());
                }
            }
        }
    }
    seeds
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

    /// Three-version store whose V1 → V2 extension changes the union
    /// graph in every way the ripple seed must cover: a fresh subclass
    /// edge, an instance link between typed instances, a re-typing of
    /// an instance with an existing link (the partner rule), and a
    /// domain declaration activating a domain × range product.
    fn advancing_store() -> (
        evorec_versioning::VersionedStore,
        [evorec_versioning::VersionId; 3],
    ) {
        let mut vs = evorec_versioning::VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let d = vs.intern_iri("http://x/D");
        let e = vs.intern_iri("http://x/E");
        let p = vs.intern_iri("http://x/p");
        let i = vs.intern_iri("http://x/i");
        let j = vs.intern_iri("http://x/j");
        let k = vs.intern_iri("http://x/k");
        let v = *vs.vocab();

        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        s0.insert(Triple::new(c, v.rdfs_subclassof, b));
        s0.insert(Triple::new(d, v.rdf_type, v.rdfs_class));
        s0.insert(Triple::new(e, v.rdf_type, v.rdfs_class));
        s0.insert(Triple::new(i, v.rdf_type, a));
        s0.insert(Triple::new(j, v.rdf_type, c));
        s0.insert(Triple::new(i, p, j)); // link: A–C adjacency
        s0.insert(Triple::new(p, v.rdfs_range, e));
        let v0 = vs.commit_snapshot("v0", s0.clone());

        let mut s1 = s0;
        s1.insert(Triple::new(k, v.rdf_type, d)); // churn on D
        let v1 = vs.commit_snapshot("v1", s1.clone());

        let mut s2 = s1;
        s2.insert(Triple::new(d, v.rdfs_subclassof, b)); // new subclass edge
        s2.insert(Triple::new(k, p, j)); // new link: D–C adjacency
        s2.remove(&Triple::new(i, v.rdf_type, a));
        s2.insert(Triple::new(i, v.rdf_type, d)); // re-type i: A–C pair fades, D–C appears
        s2.insert(Triple::new(p, v.rdfs_domain, d)); // product: D–E adjacency
        let v2 = vs.commit_snapshot("v2", s2);
        (vs, [v0, v1, v2])
    }

    #[test]
    fn incremental_update_matches_recompute_across_radii() {
        let (vs, [v0, v1, v2]) = advancing_store();
        let prev_ctx = EvolutionContext::build(&vs, v0, v1);
        let next_ctx = EvolutionContext::build(&vs, v0, v2);
        let extension = vs.delta(v1, v2);
        for radius in 0..=3 {
            let measure = NeighbourhoodChangeCount { radius };
            let previous = measure.compute(&prev_ctx);
            let updated = measure
                .update(&previous, &next_ctx, &extension)
                .expect("neighbourhood measures update incrementally");
            let recomputed = measure.compute(&next_ctx);
            assert_eq!(updated.measure, recomputed.measure);
            assert_eq!(updated.scores(), recomputed.scores(), "radius {radius}");
        }
    }

    #[test]
    fn incremental_update_handles_empty_extension() {
        let (vs, [v0, v1, _]) = advancing_store();
        let ctx = EvolutionContext::build(&vs, v0, v1);
        let measure = NeighbourhoodChangeCount { radius: 2 };
        let previous = measure.compute(&ctx);
        let updated = measure
            .update(&previous, &ctx, &evorec_versioning::LowLevelDelta::new())
            .expect("update always available");
        assert_eq!(updated.scores(), previous.scores());
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
