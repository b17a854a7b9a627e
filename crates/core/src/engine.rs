//! The recommender engine: candidate generation → relatedness → diversity
//! / fairness selection, plus the amortised serving layer (report cache
//! + batch fan-out) that answers many requests against one context.

use crate::cache::{DerivedArtefacts, ReportCache};
use crate::diversity::{select_mmr, swap_refine, DistanceMatrix, DistanceWeights};
use crate::fairness::{
    fairness_report, select_for_group, FairnessReport, GroupAggregation, RelevanceMatrix,
};
use crate::item::{Item, ScoredItem};
use crate::profile::UserProfile;
use crate::relatedness::{
    expansion_config, item_relatedness, report_relatedness, ExpandedProfile,
};
use evorec_graph::PageRankConfig;
use evorec_kb::FxHashMap;
use evorec_measures::{EvolutionContext, MeasureId, MeasureRegistry, MeasureReport};
use evorec_obs::{span, SpanHandle, Tracer};
use std::sync::Arc;

/// Tunables of the recommendation pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RecommenderConfig {
    /// Number of items in the final recommendation.
    pub top_k: usize,
    /// Candidate regions drawn from each measure's report.
    pub pool_per_measure: usize,
    /// MMR trade-off: 1 = pure relevance, 0 = pure diversity (§III(c)).
    pub mmr_lambda: f64,
    /// Weight of the novelty adjustment: the effective relevance is
    /// `rel·(1 − w + w·novelty)`.
    pub novelty_weight: f64,
    /// Group aggregation strategy (§III(d)).
    pub group_aggregation: GroupAggregation,
    /// Personalised-PageRank parameters for interest expansion.
    pub pagerank: PageRankConfig,
    /// Top-k window for measure-ranking distances.
    pub rank_k_for_distance: usize,
    /// Weights of the item-distance components.
    pub distance_weights: DistanceWeights,
    /// Hill-climbing passes after greedy MMR (0 disables).
    pub swap_passes: usize,
}

impl Default for RecommenderConfig {
    fn default() -> Self {
        RecommenderConfig {
            top_k: 5,
            pool_per_measure: 5,
            mmr_lambda: 0.7,
            novelty_weight: 0.3,
            group_aggregation: GroupAggregation::FairProportional,
            pagerank: expansion_config(),
            rank_k_for_distance: 20,
            distance_weights: DistanceWeights::default(),
            swap_passes: 2,
        }
    }
}

/// A personalised recommendation.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Selected items, pick order.
    pub items: Vec<ScoredItem>,
    /// Size of the candidate pool the selection was drawn from.
    pub candidates_considered: usize,
}

/// A group recommendation with fairness diagnostics.
#[derive(Clone, Debug)]
pub struct GroupRecommendation {
    /// Selected items, pick order. `relevance` is the group-mean
    /// effective relevance.
    pub items: Vec<ScoredItem>,
    /// Fairness diagnostics of the selection (§III(d)).
    pub fairness: FairnessReport,
    /// The aggregation strategy used.
    pub strategy: GroupAggregation,
    /// Size of the candidate pool.
    pub candidates_considered: usize,
}

/// A hook adjusting a candidate's effective relevance just before MMR
/// selection — the extension point exploration-aware serving (the
/// online adaptation subsystem's bandit policies) plugs into.
///
/// The boost sees the candidate [`Item`] and its effective score
/// (relevance × novelty adjustment) and returns the value the selector
/// should optimise instead. Reported `relevance` and `novelty` stay
/// raw; only the selection objective moves. Implementations must be
/// deterministic per call for reproducible servings — any randomness
/// belongs to the caller's seeding discipline, not this trait.
pub trait ScoreBoost {
    /// The adjusted effective score of `item`.
    fn boost(&self, item: &Item, effective: f64) -> f64;
}

/// The human-aware evolution-measure recommender (the paper's §III
/// processing model), optionally backed by a shared [`ReportCache`] so
/// repeated requests over the same evolution step skip measure
/// evaluation entirely, and a curator whose interests have not moved
/// skips their PageRank expansion too.
pub struct Recommender {
    registry: MeasureRegistry,
    registry_digest: u64,
    config: RecommenderConfig,
    cache: Option<Arc<ReportCache>>,
}

impl Recommender {
    /// Build with an explicit configuration (uncached).
    pub fn new(registry: MeasureRegistry, config: RecommenderConfig) -> Recommender {
        let registry_digest = crate::cache::registry_digest(&registry);
        Recommender {
            registry,
            registry_digest,
            config,
            cache: None,
        }
    }

    /// Build with [`RecommenderConfig::default`] (uncached).
    pub fn with_defaults(registry: MeasureRegistry) -> Recommender {
        Recommender::new(registry, RecommenderConfig::default())
    }

    /// Build with an explicit configuration and a shared report cache.
    /// Several recommenders (e.g. one per serving thread) may share one
    /// cache.
    pub fn with_cache(
        registry: MeasureRegistry,
        config: RecommenderConfig,
        cache: Arc<ReportCache>,
    ) -> Recommender {
        let mut recommender = Recommender::new(registry, config);
        recommender.cache = Some(cache);
        recommender
    }

    /// The measure catalogue.
    pub fn registry(&self) -> &MeasureRegistry {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &RecommenderConfig {
        &self.config
    }

    /// The attached report cache, if any.
    pub fn cache(&self) -> Option<&Arc<ReportCache>> {
        self.cache.as_ref()
    }

    /// Raw measure reports over `ctx`, in registration order — served
    /// from the cache when one is attached, computed (in parallel)
    /// otherwise.
    fn reports(&self, ctx: &EvolutionContext) -> Vec<Arc<MeasureReport>> {
        match &self.cache {
            Some(cache) => cache.reports_for(&self.registry, ctx),
            None => self
                .registry
                .compute_all(ctx)
                .into_iter()
                .map(Arc::new)
                .collect(),
        }
    }

    /// The per-context derived artefacts — candidate pool, normalised
    /// reports, lazy distance matrix — served from the cache's second
    /// level when one is attached (they are pure functions of the
    /// context fingerprint and the deriving configuration), built fresh
    /// otherwise.
    fn derived(&self, ctx: &EvolutionContext) -> Arc<DerivedArtefacts> {
        self.derived_observed(ctx, None, SpanHandle::NONE)
    }

    /// [`derived`](Recommender::derived) with span instrumentation:
    /// `cache_probe` brackets the second-level lookup, and — only when
    /// the probe misses — `measure_compute` brackets the full
    /// candidate/report/distance build inside it.
    fn derived_observed(
        &self,
        ctx: &EvolutionContext,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) -> Arc<DerivedArtefacts> {
        let probe = span(tracer, "cache_probe", parent);
        let probe_handle = probe.handle();
        let build = || {
            let compute = span(tracer, "measure_compute", probe_handle);
            let (items, reports) = self.candidates(ctx);
            let artefacts = DerivedArtefacts::new(
                items,
                reports,
                self.config.rank_k_for_distance,
                self.config.distance_weights,
            );
            compute.finish();
            artefacts
        };
        match &self.cache {
            Some(cache) => cache.derived_or_insert(
                ctx.fingerprint(),
                self.registry_digest,
                self.config.pool_per_measure,
                self.config.rank_k_for_distance,
                self.config.distance_weights,
                build,
            ),
            None => Arc::new(build()),
        }
    }

    /// Generate the candidate pool: the top `pool_per_measure` positive
    /// regions of every measure, with min-max-normalised intensity.
    /// Returns the pool and the normalised reports (for distances).
    pub fn candidates(
        &self,
        ctx: &EvolutionContext,
    ) -> (Vec<Item>, FxHashMap<MeasureId, MeasureReport>) {
        let mut items = Vec::new();
        let mut reports = FxHashMap::default();
        for report in self.reports(ctx) {
            let normalised = report.normalised();
            for &(term, score) in normalised.top_k(self.config.pool_per_measure) {
                if score > 0.0 {
                    items.push(Item::new(
                        normalised.measure.clone(),
                        normalised.category,
                        term,
                        score,
                    ));
                }
            }
            reports.insert(normalised.measure.clone(), normalised);
        }
        (items, reports)
    }

    /// `profile`'s interests expanded over the step's union graph —
    /// served from the cache's expansion level when one is attached
    /// (the PageRank is a pure function of the step, the configuration
    /// and the profile's seeds), computed otherwise. A profile with no
    /// seed on the graph falls back to its raw interests, uncached.
    fn expanded(&self, ctx: &EvolutionContext, profile: &UserProfile) -> Arc<ExpandedProfile> {
        let graph = &ctx.graph_union;
        let seeds = ExpandedProfile::seeds(profile, graph);
        if seeds.is_empty() {
            return Arc::new(ExpandedProfile::raw(profile));
        }
        let pagerank = self.config.pagerank;
        let expand = || ExpandedProfile::from_seeds(graph, &seeds, pagerank);
        match &self.cache {
            Some(cache) => cache.expansion_or_insert(ctx.fingerprint(), pagerank, &seeds, expand),
            None => Arc::new(expand()),
        }
    }

    /// Per-candidate `(relevance, novelty, effective)` scores of one
    /// profile over an item pool.
    fn score_items(
        &self,
        ctx: &EvolutionContext,
        profile: &UserProfile,
        items: &[Item],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let expanded = self.expanded(ctx, profile);
        let relevance: Vec<f64> = items
            .iter()
            .map(|it| item_relatedness(&expanded, it))
            .collect();
        let novelty: Vec<f64> = items
            .iter()
            .map(|it| {
                if profile.has_seen(&it.measure, it.focus) {
                    0.0
                } else {
                    1.0
                }
            })
            .collect();
        let w = self.config.novelty_weight.clamp(0.0, 1.0);
        let effective: Vec<f64> = relevance
            .iter()
            .zip(&novelty)
            .map(|(r, n)| r * (1.0 - w + w * n))
            .collect();
        (relevance, novelty, effective)
    }

    /// The per-user tail of the pipeline: score the shared pool for one
    /// profile and run MMR + swap refinement over the shared distances.
    fn select_for_profile(
        &self,
        ctx: &EvolutionContext,
        profile: &UserProfile,
        items: &[Item],
        distances: &DistanceMatrix,
        boost: Option<&dyn ScoreBoost>,
    ) -> Recommendation {
        let (relevance, novelty, mut effective) = self.score_items(ctx, profile, items);
        if let Some(boost) = boost {
            for (item, score) in items.iter().zip(effective.iter_mut()) {
                *score = boost.boost(item, *score);
            }
        }
        let picks = select_mmr(&effective, distances, self.config.top_k, self.config.mmr_lambda);
        let mut selection: Vec<usize> = picks.iter().map(|&(i, _)| i).collect();
        if self.config.swap_passes > 0 {
            selection = swap_refine(
                &selection,
                &effective,
                distances,
                self.config.mmr_lambda,
                self.config.swap_passes,
            );
            // Keep presentation order by effective relevance.
            selection.sort_unstable_by(|&a, &b| {
                effective[b]
                    .total_cmp(&effective[a])
                    .then_with(|| a.cmp(&b))
            });
        }
        let scored = selection
            .into_iter()
            .map(|i| ScoredItem {
                item: items[i].clone(),
                relevance: relevance[i],
                novelty: novelty[i],
                objective: effective[i],
            })
            .collect();
        Recommendation {
            items: scored,
            candidates_considered: items.len(),
        }
    }

    /// Recommend `top_k` items for one user.
    pub fn recommend(&self, ctx: &EvolutionContext, profile: &UserProfile) -> Recommendation {
        self.recommend_observed(ctx, profile, None, None, SpanHandle::NONE)
    }

    /// [`recommend`](Recommender::recommend) with an optional
    /// [`ScoreBoost`] steering the selection objective and span
    /// instrumentation: children `cache_probe`, `measure_compute`
    /// (cold only), and `mmr_boost` are opened under `parent`. A `None`
    /// boost is exactly `recommend` — bit for bit, so exploration-off
    /// serving stays deterministic and cache-identical. Tracing
    /// observes timing only — the scoring path is byte-for-byte the
    /// untraced one, so serving output is bit-identical with the tracer
    /// on, off, or absent.
    pub fn recommend_observed(
        &self,
        ctx: &EvolutionContext,
        profile: &UserProfile,
        boost: Option<&dyn ScoreBoost>,
        tracer: Option<&Tracer>,
        parent: SpanHandle,
    ) -> Recommendation {
        let derived = self.derived_observed(ctx, tracer, parent);
        if derived.items.is_empty() {
            return Recommendation {
                items: Vec::new(),
                candidates_considered: 0,
            };
        }
        let mmr = span(tracer, "mmr_boost", parent);
        let recommendation =
            self.select_for_profile(ctx, profile, &derived.items, derived.distances(), boost);
        mmr.finish();
        recommendation
    }

    /// Answer many profiles against one context: the candidate pool and
    /// distance matrix are computed once, then the per-user selections
    /// fan out across worker threads. See [`BatchRecommender`].
    pub fn batch(&self) -> BatchRecommender<'_> {
        BatchRecommender {
            recommender: self,
            threads: default_worker_threads(),
        }
    }

    /// Rank whole *measures* (rather than `(measure, focus)` items) for
    /// one user — the paper's title-level operation: each measure is
    /// scored by how much of its top-`pool_per_measure` evolution mass
    /// lands on regions the user cares about, with a semantic-diversity
    /// round-robin so the head of the list spans categories.
    pub fn recommend_measures(
        &self,
        ctx: &EvolutionContext,
        profile: &UserProfile,
        k: usize,
    ) -> Vec<(MeasureId, f64)> {
        let expanded = self.expanded(ctx, profile);
        let mut scored: Vec<(MeasureId, evorec_measures::MeasureCategory, f64)> = self
            .reports(ctx)
            .into_iter()
            .map(|report| {
                let score =
                    report_relatedness(&expanded, &report, self.config.pool_per_measure);
                (report.measure.clone(), report.category, score)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| a.0.as_str().cmp(b.0.as_str()))
        });
        // Diversity pass: deal the sorted list round-robin by category so
        // the top of the final ranking covers complementary viewpoints
        // (§III(c)) instead of five flavours of the same signal.
        let mut by_category: Vec<(evorec_measures::MeasureCategory, Vec<(MeasureId, f64)>)> =
            Vec::new();
        for (id, category, score) in scored {
            match by_category.iter_mut().find(|(c, _)| *c == category) {
                Some((_, bucket)) => bucket.push((id, score)),
                None => by_category.push((category, vec![(id, score)])),
            }
        }
        let mut out = Vec::new();
        let mut depth = 0;
        while out.len() < k {
            let mut emitted = false;
            for (_, bucket) in &by_category {
                if let Some(entry) = bucket.get(depth) {
                    out.push(entry.clone());
                    emitted = true;
                    if out.len() == k {
                        break;
                    }
                }
            }
            if !emitted {
                break;
            }
            depth += 1;
        }
        out
    }

    /// Recommend `top_k` items for a group of users under the configured
    /// aggregation strategy, with fairness diagnostics.
    pub fn recommend_for_group(
        &self,
        ctx: &EvolutionContext,
        profiles: &[UserProfile],
    ) -> GroupRecommendation {
        self.group_with_threads(ctx, profiles, 1)
    }

    /// The group pipeline with an explicit fan-out width for the
    /// relevance-matrix rows (1 = serial; used by [`BatchRecommender`]).
    fn group_with_threads(
        &self,
        ctx: &EvolutionContext,
        profiles: &[UserProfile],
        threads: usize,
    ) -> GroupRecommendation {
        let derived = self.derived(ctx);
        let items = &derived.items;
        if items.is_empty() || profiles.is_empty() {
            return GroupRecommendation {
                items: Vec::new(),
                fairness: fairness_report(&RelevanceMatrix::new(vec![]), &[]),
                strategy: self.config.group_aggregation,
                candidates_considered: items.len(),
            };
        }
        let rows = self.effective_rows(ctx, profiles, items, threads);
        let matrix = RelevanceMatrix::new(rows);
        let selection = select_for_group(&matrix, self.config.top_k, self.config.group_aggregation);
        let fairness = fairness_report(&matrix, &selection);
        let members = matrix.members() as f64;
        let scored = selection
            .into_iter()
            .map(|i| {
                let mean_rel: f64 =
                    (0..matrix.members()).map(|u| matrix.get(u, i)).sum::<f64>() / members;
                ScoredItem {
                    item: items[i].clone(),
                    relevance: mean_rel,
                    novelty: 1.0,
                    objective: mean_rel,
                }
            })
            .collect();
        GroupRecommendation {
            items: scored,
            fairness,
            strategy: self.config.group_aggregation,
            candidates_considered: items.len(),
        }
    }

    /// One effective-relevance row per profile over a shared item pool,
    /// computed across up to `threads` scoped worker threads (row order
    /// follows profile order regardless of the thread count).
    fn effective_rows(
        &self,
        ctx: &EvolutionContext,
        profiles: &[UserProfile],
        items: &[Item],
        threads: usize,
    ) -> Vec<Vec<f64>> {
        fan_out(profiles, threads, |profile| {
            self.score_items(ctx, profile, items).2
        })
    }
}

/// Map `f` over `items`, fanning the work out across up to `threads`
/// ways (contiguous chunks). The final chunk runs inline on the calling
/// thread — which would otherwise idle in join — so only `threads − 1`
/// workers are spawned. Results come back in item order; `threads <= 1`
/// or a single item runs entirely inline with no spawn.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let Some(last) = chunks.pop() else {
            return Vec::new();
        };
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|slice| scope.spawn(move || slice.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let tail: Vec<R> = last.iter().map(f).collect();
        let mut out: Vec<R> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        out.extend(tail);
        out
    })
}

/// Sensible worker-thread default for batch fan-out: the machine's
/// available parallelism (1 if unknown).
fn default_worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Amortised many-users-one-context serving: the candidate pool,
/// normalised reports and pairwise distance matrix are computed once
/// (through the report cache when the underlying [`Recommender`] has
/// one), and only the per-user work — profile expansion (memoised per
/// step by the same cache), scoring, MMR + swap refinement — fans out
/// across scoped worker threads.
///
/// Obtained from [`Recommender::batch`]; answers arrive in profile
/// order, and each equals what [`Recommender::recommend`] would have
/// returned for that profile alone.
pub struct BatchRecommender<'a> {
    recommender: &'a Recommender,
    threads: usize,
}

impl BatchRecommender<'_> {
    /// Override the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Recommend for every profile against one shared context.
    pub fn recommend_all(
        &self,
        ctx: &EvolutionContext,
        profiles: &[UserProfile],
    ) -> Vec<Recommendation> {
        let r = self.recommender;
        if profiles.is_empty() {
            return Vec::new();
        }
        let derived = r.derived(ctx);
        if derived.items.is_empty() {
            return profiles
                .iter()
                .map(|_| Recommendation {
                    items: Vec::new(),
                    candidates_considered: 0,
                })
                .collect();
        }
        let distances = derived.distances();
        fan_out(profiles, self.threads, |p| {
            r.select_for_profile(ctx, p, &derived.items, distances, None)
        })
    }

    /// Group recommendation with the relevance-matrix rows fanned out
    /// across the batch's worker threads (identical output to
    /// [`Recommender::recommend_for_group`]).
    pub fn recommend_for_group(
        &self,
        ctx: &EvolutionContext,
        profiles: &[UserProfile],
    ) -> GroupRecommendation {
        self.recommender.group_with_threads(ctx, profiles, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::UserId;
    use evorec_kb::{TermId, Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    /// Two hierarchy branches under a shared root; churn lands in both,
    /// heavier on branch A.
    struct World {
        vs: VersionedStore,
        ctx: EvolutionContext,
        branch_a: TermId,
        branch_b: TermId,
        leaf_a: TermId,
        leaf_b: TermId,
    }

    fn world() -> World {
        let mut vs = VersionedStore::new();
        let root = vs.intern_iri("http://x/Root");
        let branch_a = vs.intern_iri("http://x/BranchA");
        let branch_b = vs.intern_iri("http://x/BranchB");
        let leaf_a = vs.intern_iri("http://x/LeafA");
        let leaf_b = vs.intern_iri("http://x/LeafB");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(branch_a, v.rdfs_subclassof, root));
        s0.insert(Triple::new(branch_b, v.rdfs_subclassof, root));
        s0.insert(Triple::new(leaf_a, v.rdfs_subclassof, branch_a));
        s0.insert(Triple::new(leaf_b, v.rdfs_subclassof, branch_b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        // Heavy churn on LeafA (three new instances), light on LeafB.
        for name in ["i1", "i2", "i3"] {
            let i = vs.intern_iri(format!("http://x/{name}"));
            s1.insert(Triple::new(i, v.rdf_type, leaf_a));
        }
        let j = vs.intern_iri("http://x/j1");
        s1.insert(Triple::new(j, v.rdf_type, leaf_b));
        let v1 = vs.commit_snapshot("v1", s1);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        World {
            vs,
            ctx,
            branch_a,
            branch_b,
            leaf_a,
            leaf_b,
        }
    }

    fn recommender() -> Recommender {
        Recommender::with_defaults(MeasureRegistry::standard())
    }

    #[test]
    fn candidates_cover_multiple_measures() {
        let w = world();
        let r = recommender();
        let (items, reports) = r.candidates(&w.ctx);
        assert!(!items.is_empty());
        assert_eq!(reports.len(), r.registry().len());
        // All intensities are normalised.
        for it in &items {
            assert!((0.0..=1.0).contains(&it.intensity), "{it:?}");
        }
        let distinct_measures: std::collections::HashSet<_> =
            items.iter().map(|i| i.measure.as_str().to_string()).collect();
        assert!(distinct_measures.len() >= 3);
    }

    #[test]
    fn personalisation_steers_towards_interests() {
        let w = world();
        let r = recommender();
        let fan_of_a = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let fan_of_b = UserProfile::new(UserId(2), "b").with_interest(w.leaf_b, 1.0);
        let rec_a = r.recommend(&w.ctx, &fan_of_a);
        let rec_b = r.recommend(&w.ctx, &fan_of_b);
        assert!(!rec_a.items.is_empty());
        assert!(!rec_b.items.is_empty());
        // The top pick focuses on (or near) the interest branch.
        let top_a = rec_a.items[0].item.focus;
        assert!(
            [w.leaf_a, w.branch_a].contains(&top_a),
            "fan of A got {top_a:?}"
        );
        let top_b = rec_b.items[0].item.focus;
        assert!(
            [w.leaf_b, w.branch_b].contains(&top_b),
            "fan of B got {top_b:?}"
        );
    }

    #[test]
    fn novelty_downweights_seen_items() {
        let w = world();
        let r = recommender();
        let mut profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let first = r.recommend(&w.ctx, &profile);
        let top = first.items[0].clone();
        // Mark the top item seen; its effective score must drop.
        profile.record_seen(top.item.measure.clone(), top.item.focus);
        let second = r.recommend(&w.ctx, &profile);
        let again = second
            .items
            .iter()
            .find(|s| s.item.same_key(&top.item));
        if let Some(seen_again) = again {
            assert!(seen_again.objective < top.objective);
            assert_eq!(seen_again.novelty, 0.0);
        }
    }

    #[test]
    fn recommendation_is_deterministic() {
        let w = world();
        let r = recommender();
        let profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let one = r.recommend(&w.ctx, &profile);
        let two = r.recommend(&w.ctx, &profile);
        let keys = |rec: &Recommendation| {
            rec.items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&one), keys(&two));
    }

    #[test]
    fn group_recommendation_reports_fairness() {
        let w = world();
        let r = recommender();
        let profiles = vec![
            UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0),
            UserProfile::new(UserId(2), "b").with_interest(w.leaf_b, 1.0),
        ];
        let rec = r.recommend_for_group(&w.ctx, &profiles);
        assert!(!rec.items.is_empty());
        assert!(rec.fairness.min_satisfaction > 0.0, "{:?}", rec.fairness);
        assert!(rec.fairness.jain_index > 0.0);
        assert_eq!(rec.strategy, GroupAggregation::FairProportional);
    }

    #[test]
    fn fair_strategy_beats_average_on_min_satisfaction() {
        let w = world();
        let profiles = vec![
            UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0),
            UserProfile::new(UserId(2), "b").with_interest(w.leaf_b, 1.0),
        ];
        let mut avg_config = RecommenderConfig {
            group_aggregation: GroupAggregation::Average,
            top_k: 3,
            ..Default::default()
        };
        avg_config.swap_passes = 0;
        let avg = Recommender::new(MeasureRegistry::standard(), avg_config)
            .recommend_for_group(&w.ctx, &profiles);
        let fair_config = RecommenderConfig {
            group_aggregation: GroupAggregation::FairProportional,
            top_k: 3,
            ..Default::default()
        };
        let fair = Recommender::new(MeasureRegistry::standard(), fair_config)
            .recommend_for_group(&w.ctx, &profiles);
        assert!(
            fair.fairness.min_satisfaction >= avg.fairness.min_satisfaction - 1e-12,
            "fair {:?} vs avg {:?}",
            fair.fairness,
            avg.fairness
        );
    }

    #[test]
    fn empty_group_and_empty_history_are_safe() {
        let w = world();
        let r = recommender();
        let rec = r.recommend_for_group(&w.ctx, &[]);
        assert!(rec.items.is_empty());
        // A user with no interests still gets (unpersonalised) items.
        let cold = UserProfile::new(UserId(9), "cold");
        let rec = r.recommend(&w.ctx, &cold);
        assert_eq!(rec.items.len().min(1), rec.items.len().min(1));
        let _ = w.vs.interner(); // world kept alive
    }

    #[test]
    fn recommend_measures_ranks_and_diversifies() {
        let w = world();
        let r = recommender();
        let profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let ranked = r.recommend_measures(&w.ctx, &profile, 4);
        assert_eq!(ranked.len(), 4);
        // Scores are finite and non-negative.
        for (id, score) in &ranked {
            assert!(score.is_finite() && *score >= 0.0, "{id}: {score}");
        }
        // The round-robin head spans multiple categories.
        let registry = r.registry();
        let categories: std::collections::HashSet<_> = ranked
            .iter()
            .filter_map(|(id, _)| registry.get(id).map(|m| m.category()))
            .collect();
        assert!(categories.len() >= 2, "{ranked:?}");
        // Deterministic.
        assert_eq!(r.recommend_measures(&w.ctx, &profile, 4), ranked);
        // k larger than the catalogue clamps.
        assert!(r.recommend_measures(&w.ctx, &profile, 99).len() <= registry.len());
    }

    #[test]
    fn cached_recommender_matches_uncached() {
        let w = world();
        let uncached = recommender();
        let cache = Arc::new(ReportCache::new());
        let cached = Recommender::with_cache(
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
            Arc::clone(&cache),
        );
        let profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let baseline = uncached.recommend(&w.ctx, &profile);
        let cold = cached.recommend(&w.ctx, &profile);
        let warm = cached.recommend(&w.ctx, &profile);
        let keys = |rec: &Recommendation| {
            rec.items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&baseline), keys(&cold));
        assert_eq!(keys(&baseline), keys(&warm));
        // The counters show the second request was fully served warm: it
        // short-circuits at the derived level, never re-reading the
        // report level, let alone recomputing a measure.
        let stats = cache.stats();
        let catalogue = cached.registry().len() as u64;
        assert_eq!(stats.misses, catalogue, "only the cold pass missed");
        assert_eq!(stats.derived_misses, 1, "only the cold pass derived");
        assert!(stats.derived_hits >= 1, "warm pass hit the derived level");
    }

    #[test]
    fn feedback_on_a_graph_class_reexpands_and_off_graph_feedback_hits() {
        use crate::feedback::{FeedbackLoop, FeedbackSignal};
        let w = world();
        let cache = Arc::new(ReportCache::new());
        let cached = Recommender::with_cache(
            MeasureRegistry::standard(),
            RecommenderConfig::default(),
            Arc::clone(&cache),
        );
        let detail = |rec: &Recommendation| {
            rec.items
                .iter()
                .map(|s| {
                    (
                        s.item.measure.as_str().to_string(),
                        s.item.focus,
                        s.relevance.to_bits(),
                        s.novelty.to_bits(),
                        s.objective.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let counts = || {
            let stats = cache.stats();
            (stats.expansion_hits, stats.expansion_misses)
        };
        let mut profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let _ = cached.recommend(&w.ctx, &profile);
        assert_eq!(counts(), (0, 1));
        let item = |focus| {
            Item::new(
                MeasureId::new("m"),
                evorec_measures::MeasureCategory::ChangeCounting,
                focus,
                0.5,
            )
        };
        let feedback = FeedbackLoop::default();
        // A vocabulary term is no class of the union graph: the seeds
        // do not move, so the next serve reuses the expansion.
        let vocabulary = w.vs.vocab().rdf_property;
        assert!(w.ctx.graph_union.node_of(vocabulary).is_none());
        feedback.apply(&mut profile, &item(vocabulary), FeedbackSignal::Accepted);
        let reused = cached.recommend(&w.ctx, &profile);
        assert_eq!(counts(), (1, 1), "off-graph feedback hits");
        assert_eq!(
            detail(&reused),
            detail(&recommender().recommend(&w.ctx, &profile))
        );
        // Feedback on a graph class moves a seed weight: the next serve
        // misses and expands the new seeds.
        feedback.apply(&mut profile, &item(w.leaf_b), FeedbackSignal::Accepted);
        let moved = cached.recommend(&w.ctx, &profile);
        assert_eq!(counts(), (1, 2), "graph-class feedback misses");
        assert_eq!(cache.expansion_len(), 2);
        assert_eq!(
            detail(&moved),
            detail(&recommender().recommend(&w.ctx, &profile))
        );
    }

    #[test]
    fn batch_matches_sequential_recommend() {
        let w = world();
        let r = recommender();
        let profiles: Vec<UserProfile> = (0..7)
            .map(|i| {
                let focus = if i % 2 == 0 { w.leaf_a } else { w.leaf_b };
                UserProfile::new(UserId(i), format!("u{i}")).with_interest(focus, 1.0)
            })
            .collect();
        let batched = r.batch().with_threads(3).recommend_all(&w.ctx, &profiles);
        assert_eq!(batched.len(), profiles.len());
        let keys = |rec: &Recommendation| {
            rec.items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        for (profile, rec) in profiles.iter().zip(&batched) {
            let solo = r.recommend(&w.ctx, profile);
            assert_eq!(keys(&solo), keys(rec), "user {:?}", profile.id);
            assert_eq!(solo.candidates_considered, rec.candidates_considered);
        }
        // Degenerate widths behave.
        let serial = r.batch().with_threads(1).recommend_all(&w.ctx, &profiles);
        assert_eq!(serial.len(), profiles.len());
        for (a, b) in batched.iter().zip(&serial) {
            assert_eq!(keys(a), keys(b));
        }
        assert!(r.batch().recommend_all(&w.ctx, &[]).is_empty());
        assert!(r.batch().with_threads(0).threads() >= 1);
    }

    #[test]
    fn batch_group_matches_direct_group() {
        let w = world();
        let r = recommender();
        let profiles = vec![
            UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0),
            UserProfile::new(UserId(2), "b").with_interest(w.leaf_b, 1.0),
            UserProfile::new(UserId(3), "ab")
                .with_interest(w.branch_a, 0.5)
                .with_interest(w.branch_b, 0.5),
        ];
        let direct = r.recommend_for_group(&w.ctx, &profiles);
        let batched = r.batch().with_threads(2).recommend_for_group(&w.ctx, &profiles);
        let keys = |rec: &GroupRecommendation| {
            rec.items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&direct), keys(&batched));
        assert_eq!(direct.fairness.jain_index, batched.fairness.jain_index);
        assert_eq!(direct.strategy, batched.strategy);
    }

    #[test]
    fn boost_none_is_bit_identical_and_some_steers_selection() {
        let w = world();
        let r = recommender();
        let profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        let plain = r.recommend(&w.ctx, &profile);
        let unboosted = r.recommend_observed(&w.ctx, &profile, None, None, SpanHandle::NONE);
        let detail = |rec: &Recommendation| {
            rec.items
                .iter()
                .map(|s| {
                    (
                        s.item.measure.as_str().to_string(),
                        s.item.focus,
                        s.relevance,
                        s.novelty,
                        s.objective,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(detail(&plain), detail(&unboosted), "None must not perturb");

        // A boost that flattens everything except one measure forces
        // that measure to the top pick.
        struct Only(MeasureId);
        impl ScoreBoost for Only {
            fn boost(&self, item: &Item, effective: f64) -> f64 {
                if item.measure == self.0 {
                    effective + 10.0
                } else {
                    effective
                }
            }
        }
        let target = plain
            .items
            .last()
            .map(|s| s.item.measure.clone())
            .expect("non-empty recommendation");
        let steered = r.recommend_observed(
            &w.ctx,
            &profile,
            Some(&Only(target.clone())),
            None,
            SpanHandle::NONE,
        );
        assert_eq!(
            steered.items[0].item.measure, target,
            "boosted measure wins the selection objective"
        );
        // Raw relevance stays untouched; only the objective moved.
        assert!(steered.items[0].objective > steered.items[0].relevance + 5.0);
    }

    #[test]
    fn top_k_respected() {
        let w = world();
        let config = RecommenderConfig {
            top_k: 2,
            ..Default::default()
        };
        let r = Recommender::new(MeasureRegistry::standard(), config);
        let profile = UserProfile::new(UserId(1), "a").with_interest(w.leaf_a, 1.0);
        assert!(r.recommend(&w.ctx, &profile).items.len() <= 2);
    }
}
