//! Relatedness scoring: how much does an item matter to *this* human?
//!
//! §III(a): "users would like to retrieve only a small piece of the
//! evolved data, namely the most relevant to their interests and needs."
//! A user's sparse interest weights are spread over the union class graph
//! with personalised PageRank, so classes *near* explicitly-interesting
//! classes also earn relatedness — a curator of `Protein` cares about
//! changes to `Enzyme` even if they never said so.

use crate::item::Item;
use crate::profile::UserProfile;
use evorec_graph::{personalised_pagerank, NodeIx, PageRankConfig, SchemaGraph};
use evorec_kb::{FxHashMap, TermId};
use evorec_measures::MeasureReport;

/// Recommended PageRank parameters for *profile expansion*.
///
/// Interest expansion wants the seeds themselves to stay the strongest
/// signals; with the web-style damping of 0.85 a degree-1 seed's single
/// neighbour can accumulate more stationary mass than the seed itself.
/// A damping of 0.5 keeps at least half of the teleport mass anchored at
/// the seeds while still spreading activation to nearby classes.
pub fn expansion_config() -> PageRankConfig {
    PageRankConfig {
        damping: 0.5,
        ..PageRankConfig::default()
    }
}

/// A user's interest weights expanded over a class graph.
#[derive(Clone, Debug)]
pub struct ExpandedProfile {
    weights: FxHashMap<TermId, f64>,
    max_weight: f64,
}

impl ExpandedProfile {
    /// Expand `profile` over `graph` by personalised PageRank seeded with
    /// the profile's interests. Falls back to the raw interests when the
    /// profile has no seed overlapping the graph.
    pub fn expand(profile: &UserProfile, graph: &SchemaGraph, config: PageRankConfig) -> Self {
        let seeds = ExpandedProfile::seeds(profile, graph);
        if seeds.is_empty() {
            ExpandedProfile::raw(profile)
        } else {
            ExpandedProfile::from_seeds(graph, &seeds, config)
        }
    }

    /// The PageRank seeds of `profile` on `graph`: every interest whose
    /// term is a node of `graph`, as `(node, weight)`, sorted by node.
    /// Empty when no interest lands on the graph.
    pub fn seeds(profile: &UserProfile, graph: &SchemaGraph) -> Vec<(NodeIx, f64)> {
        let mut seeds: Vec<(NodeIx, f64)> = profile
            .interests()
            .filter_map(|(term, w)| graph.node_of(term).map(|node| (node, w)))
            .collect();
        // Interests come out of a hash map; fix the order so the
        // PageRank mass sums are bit-identical across runs.
        seeds.sort_unstable_by_key(|&(node, _)| node);
        seeds
    }

    /// The fallback of a profile with no seed on the graph: its raw
    /// interest weights, unexpanded.
    pub(crate) fn raw(profile: &UserProfile) -> Self {
        let weights: FxHashMap<TermId, f64> = profile.interests().collect();
        let max_weight = weights.values().copied().fold(0.0, f64::max);
        ExpandedProfile {
            weights,
            max_weight,
        }
    }

    /// Personalised PageRank over `graph` from `seeds` (as
    /// [`seeds`](ExpandedProfile::seeds) returns them): a pure function
    /// of its three inputs, which is what lets the serving layer
    /// memoise it.
    pub fn from_seeds(
        graph: &SchemaGraph,
        seeds: &[(NodeIx, f64)],
        config: PageRankConfig,
    ) -> Self {
        let rank = personalised_pagerank(graph, seeds, config);
        let mut weights = FxHashMap::default();
        let mut max_weight = 0.0f64;
        for (node, &score) in rank.iter().enumerate() {
            if score > 0.0 {
                let term = graph.term(node as NodeIx);
                weights.insert(term, score);
                max_weight = max_weight.max(score);
            }
        }
        ExpandedProfile {
            weights,
            max_weight,
        }
    }

    /// Raw expanded weight of `term`.
    pub fn weight(&self, term: TermId) -> f64 {
        self.weights.get(&term).copied().unwrap_or(0.0)
    }

    /// Expanded weight normalised by the maximum (in [0, 1]).
    pub fn normalised_weight(&self, term: TermId) -> f64 {
        if self.max_weight > 0.0 {
            self.weight(term) / self.max_weight
        } else {
            0.0
        }
    }

    /// Number of terms with positive expanded weight.
    pub fn support(&self) -> usize {
        self.weights.len()
    }
}

/// Relatedness of one item to one expanded profile: the product of how
/// much the user cares about the focus (normalised expanded weight) and
/// how intense the evolution signal is there.
pub fn item_relatedness(expanded: &ExpandedProfile, item: &Item) -> f64 {
    expanded.normalised_weight(item.focus) * item.intensity
}

/// Relatedness of a whole measure report to an expanded profile: the
/// interest-weighted mass of the report's top-`k` normalised scores.
/// Used when recommending *measures* rather than `(measure, focus)`
/// items.
pub fn report_relatedness(expanded: &ExpandedProfile, report: &MeasureReport, k: usize) -> f64 {
    let normalised = report.normalised();
    normalised
        .top_k(k)
        .iter()
        .map(|&(term, score)| expanded.normalised_weight(term) * score)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::UserId;
    use evorec_measures::{MeasureCategory, MeasureId, TargetKind};

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    /// Path graph over terms 0-1-2-3-4.
    fn graph() -> SchemaGraph {
        SchemaGraph::from_edges(
            (0..5).map(t).collect(),
            &[(t(0), t(1)), (t(1), t(2)), (t(2), t(3)), (t(3), t(4))],
        )
    }

    fn profile_on(term: TermId) -> UserProfile {
        UserProfile::new(UserId(1), "u").with_interest(term, 1.0)
    }

    #[test]
    fn expansion_decays_with_distance() {
        let g = graph();
        let e = ExpandedProfile::expand(&profile_on(t(0)), &g, expansion_config());
        assert!(e.weight(t(0)) > e.weight(t(1)));
        assert!(e.weight(t(1)) > e.weight(t(2)));
        assert!(e.weight(t(2)) > e.weight(t(3)));
        assert_eq!(e.normalised_weight(t(0)), 1.0);
        assert!(e.support() >= 4, "activation spreads across the path");
    }

    #[test]
    fn empty_seed_falls_back_to_raw_interests() {
        let g = graph();
        // Interest in a term outside the graph.
        let p = profile_on(t(99));
        let e = ExpandedProfile::expand(&p, &g, expansion_config());
        assert_eq!(e.weight(t(99)), 1.0);
        assert_eq!(e.weight(t(0)), 0.0);
        assert_eq!(e.normalised_weight(t(99)), 1.0);
    }

    #[test]
    fn no_interests_means_zero_everywhere() {
        let g = graph();
        let p = UserProfile::new(UserId(2), "empty");
        let e = ExpandedProfile::expand(&p, &g, expansion_config());
        assert_eq!(e.normalised_weight(t(0)), 0.0);
        assert_eq!(e.support(), 0);
    }

    #[test]
    fn item_relatedness_multiplies_interest_and_intensity() {
        let g = graph();
        let e = ExpandedProfile::expand(&profile_on(t(0)), &g, expansion_config());
        let near_strong = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(0),
            1.0,
        );
        let near_weak = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(0),
            0.1,
        );
        let far_strong = Item::new(
            MeasureId::new("m"),
            MeasureCategory::ChangeCounting,
            t(4),
            1.0,
        );
        assert!(item_relatedness(&e, &near_strong) > item_relatedness(&e, &near_weak));
        assert!(item_relatedness(&e, &near_strong) > item_relatedness(&e, &far_strong));
    }

    #[test]
    fn report_relatedness_prefers_reports_hitting_interests() {
        let g = graph();
        let e = ExpandedProfile::expand(&profile_on(t(0)), &g, expansion_config());
        let near = MeasureReport::from_scores(
            MeasureId::new("near"),
            MeasureCategory::ChangeCounting,
            TargetKind::Classes,
            vec![(t(0), 10.0), (t(1), 5.0)],
        );
        let far = MeasureReport::from_scores(
            MeasureId::new("far"),
            MeasureCategory::ChangeCounting,
            TargetKind::Classes,
            vec![(t(3), 10.0), (t(4), 5.0)],
        );
        assert!(report_relatedness(&e, &near, 5) > report_relatedness(&e, &far, 5));
    }
}
