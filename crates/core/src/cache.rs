//! Caching of measure reports — the amortisation layer that lets one
//! evolution step serve many requests.
//!
//! Every recommendation needs the full measure catalogue evaluated over
//! its [`EvolutionContext`], and those evaluations (betweenness shifts,
//! multi-hop neighbourhood sums) dominate request latency. Contexts are
//! cheap to rebuild but expensive to *evaluate*, so the cache keys each
//! report by `(measure id, context fingerprint)`: any context describing
//! the same evolution step — including one rebuilt from the store for a
//! later request — hits the same entries.
//!
//! On top of the raw reports sits a second level: the
//! [`DerivedArtefacts`] cache memoises the candidate pool, the
//! normalised reports, and (lazily) the pairwise distance matrix —
//! everything `Recommender::recommend` derives from a context before
//! any user enters the picture — keyed by the context fingerprint plus
//! the measure catalogue and the deriving configuration. The report
//! level serves the warm pass that runs at each epoch publish,
//! derived-level misses, and whole-measure ranking.
//!
//! The third level holds the per-user half: each curator's interests
//! expanded over the step's union class graph by personalised PageRank
//! ([`ExpandedProfile`]), keyed by exactly that computation's input —
//! the context fingerprint, the PageRank configuration's bit patterns
//! and the profile's node-sorted seeds with their weights' bit
//! patterns. A warm request reads the derived level once and the
//! expansion level once per user, and computes only scoring and MMR.
//!
//! Each level is one bounded first-in-first-out map behind one
//! [`RwLock`]. All three support explicit invalidation of a superseded
//! fingerprint (the streaming layer's epoch swap), with the
//! eviction/invalidation traffic surfaced in [`CacheStats`].

use crate::diversity::{DistanceMatrix, DistanceWeights};
use crate::item::Item;
use crate::relatedness::ExpandedProfile;
use evorec_graph::{NodeIx, PageRankConfig};
use evorec_kb::{FxHashMap, FxHasher};
use evorec_measures::{
    ContextFingerprint, EvolutionContext, MeasureId, MeasureRegistry, MeasureReport,
};
// `sched` primitives (std delegation normally, interposable under
// `--cfg evorec_sched`) so the lineage-counter consistency protocol is
// checkable by the deterministic interleaving harness.
use sched::sync::atomic::{AtomicU64, Ordering};
use sched::sync::RwLock;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Default report-level entry capacity. One entry is one measure
/// report over one evolution step, so with a standard 10-measure
/// registry this retains roughly the 400 most recent steps — a
/// long-running service stays bounded while any live dashboard's step
/// set stays warm.
const DEFAULT_CAPACITY: usize = 4096;

type CacheKey = (MeasureId, ContextFingerprint);

/// Total [`DerivedArtefacts`] entries retained before FIFO eviction.
/// Derived entries are large (a candidate pool plus every normalised
/// report), so the bound is much tighter than the report level's; 64
/// distinct `(step, config)` pairs is plenty for any live dashboard.
const DEFAULT_DERIVED_CAPACITY: usize = 64;

/// Total [`ExpandedProfile`] entries retained before FIFO eviction. One
/// entry is one curator's interests expanded over one step's union
/// graph (a few KiB on a 200-class graph); 1024 holds sixteen curators
/// on eight windows eight times over.
const EXPANSION_CAPACITY: usize = 1024;

/// Everything the recommender derives from one context before any user
/// enters the picture: the candidate item pool, the min-max-normalised
/// reports it was drawn from, and — materialised lazily, because the
/// group pipeline never needs it — the pairwise candidate distance
/// matrix.
///
/// Pure function of the context fingerprint, the measure catalogue (as
/// its [`registry_digest`]), the pool size and the distance
/// configuration, which is exactly how [`ReportCache`] keys it.
#[derive(Debug)]
pub struct DerivedArtefacts {
    /// The candidate pool (top regions of every measure).
    pub items: Vec<Item>,
    /// The normalised reports the pool was drawn from, by measure.
    pub reports: FxHashMap<MeasureId, MeasureReport>,
    rank_k: usize,
    weights: DistanceWeights,
    distances: OnceLock<DistanceMatrix>,
}

impl DerivedArtefacts {
    /// Bundle a candidate pool with the inputs of its distance matrix
    /// (computed on first use).
    pub fn new(
        items: Vec<Item>,
        reports: FxHashMap<MeasureId, MeasureReport>,
        rank_k: usize,
        weights: DistanceWeights,
    ) -> DerivedArtefacts {
        DerivedArtefacts {
            items,
            reports,
            rank_k,
            weights,
            distances: OnceLock::new(),
        }
    }

    /// The pairwise candidate distance matrix (memoised on first call).
    pub fn distances(&self) -> &DistanceMatrix {
        self.distances.get_or_init(|| {
            DistanceMatrix::compute(&self.items, &self.reports, self.rank_k, self.weights)
        })
    }
}

/// Key of one derived-artefact entry: the evolution step plus every
/// input the artefacts depend on — the deriving configuration (weights
/// keyed by bit pattern: two configs derive identically iff their
/// floats are bit-identical) *and* the measure catalogue that produced
/// the pool (as [`registry_digest`]), so recommenders with different
/// registries sharing one cache never serve each other's pools.
///
/// [`registry_digest`]: crate::cache::registry_digest
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct DerivedKey {
    fingerprint: ContextFingerprint,
    registry: u64,
    pool_per_measure: usize,
    rank_k: usize,
    weight_bits: [u64; 3],
}

impl DerivedKey {
    fn new(
        fingerprint: ContextFingerprint,
        registry: u64,
        pool_per_measure: usize,
        rank_k: usize,
        weights: DistanceWeights,
    ) -> DerivedKey {
        DerivedKey {
            fingerprint,
            registry,
            pool_per_measure,
            rank_k,
            weight_bits: [
                weights.category.to_bits(),
                weights.measure.to_bits(),
                weights.focus.to_bits(),
            ],
        }
    }
}

/// Identity digest of a measure catalogue: an order-sensitive Fx hash
/// of its measure ids. Part of the derived-artefact key — two
/// registries with the same ids in the same order produce the same
/// candidate pool for a context, anything else must not collide.
pub fn registry_digest(registry: &MeasureRegistry) -> u64 {
    let mut h = FxHasher::default();
    for measure in registry.all() {
        let id = measure.id();
        h.write_usize(id.as_str().len());
        h.write(id.as_str().as_bytes());
    }
    h.finish()
}

/// Key of one expansion entry: exactly the input of the personalised
/// PageRank — the step (its union graph), the configuration and the
/// node-sorted seeds — with every float keyed by its bit pattern, so a
/// hit returns what the same computation produced from the same input.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct ExpansionKey {
    fingerprint: ContextFingerprint,
    config_bits: [u64; 3],
    seed_bits: Box<[(NodeIx, u64)]>,
}

impl ExpansionKey {
    fn new(
        fingerprint: ContextFingerprint,
        config: PageRankConfig,
        seeds: &[(NodeIx, f64)],
    ) -> ExpansionKey {
        ExpansionKey {
            fingerprint,
            config_bits: [
                config.damping.to_bits(),
                config.max_iterations as u64,
                config.tolerance.to_bits(),
            ],
            seed_bits: seeds.iter().map(|&(node, w)| (node, w.to_bits())).collect(),
        }
    }
}

/// One cache level: a map bounded to `capacity` entries, evicting in
/// insertion order.
struct Fifo<K, V> {
    map: FxHashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> Fifo<K, V> {
    /// An empty level holding at most `capacity` entries (at least 1).
    fn new(capacity: usize) -> Fifo<K, V> {
        Fifo {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Store `value` under `key` unless an entry is already there (the
    /// existing entry wins). Returns the entry now held and how many of
    /// the oldest entries were evicted to make room.
    fn insert_unless_present(&mut self, key: K, value: V) -> (V, usize) {
        if let Some(existing) = self.map.get(&key) {
            return (existing.clone(), 0);
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.map.remove(&oldest).is_some() {
                evicted += 1;
            }
        }
        self.map.insert(key.clone(), value.clone());
        self.order.push_back(key);
        (value, evicted)
    }

    /// Keep only the entries whose key satisfies `keep`, returning how
    /// many were dropped.
    fn retain(&mut self, keep: impl Fn(&K) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|key, _| keep(key));
        self.order.retain(|key| keep(key));
        before - self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// Identifier of one registered cache *lineage* — an independent
/// consumer (e.g. one serving window) whose epoch swaps must not evict
/// entries another lineage still serves. Obtained from
/// [`ReportCache::register_lineage`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LineageId(usize);

/// Per-lineage counters surfaced in [`CacheStats::lineages`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineageStats {
    /// The label the lineage registered under.
    pub label: String,
    /// Report lookups that hit while landing on this lineage's claimed
    /// fingerprint (a fingerprint claimed by several lineages credits
    /// each of them).
    pub hits: u64,
    /// Entries dropped by this lineage's scoped invalidations
    /// ([`ReportCache::publish_lineage`]).
    pub invalidations: u64,
}

/// Cumulative counters of a [`ReportCache`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Report lookups answered from the cache.
    pub hits: u64,
    /// Report lookups that had to compute.
    pub misses: u64,
    /// Derived-artefact lookups answered from the cache.
    pub derived_hits: u64,
    /// Derived-artefact lookups that had to build.
    pub derived_misses: u64,
    /// Profile-expansion lookups answered from the cache.
    pub expansion_hits: u64,
    /// Profile-expansion lookups that had to run PageRank.
    pub expansion_misses: u64,
    /// Entries dropped by capacity pressure (every level, FIFO).
    pub evictions: u64,
    /// Entries dropped by explicit fingerprint invalidation, every
    /// level: a [`ReportCache::publish_lineage`] that supersedes a
    /// fingerprint no other lineage claims.
    pub invalidations: u64,
    /// Per-lineage counters, registration order (empty when no lineage
    /// is registered — the single-consumer setups).
    pub lineages: Vec<LineageStats>,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A thread-safe cache of raw (unnormalised) measure reports keyed by
/// `(measure, context fingerprint)`, with the [`DerivedArtefacts`] and
/// [`ExpandedProfile`] levels beside it.
///
/// Entries are `Arc`-shared, so a hit costs one read lock and a
/// reference-count bump — no report is ever copied out. Shared between
/// recommenders via `Arc<ReportCache>`. Residency is bounded: each
/// level evicts its oldest entries (FIFO) once it reaches its
/// capacity, so a service streaming an unbounded sequence of evolution
/// steps cannot grow without limit.
pub struct ReportCache {
    reports: RwLock<Fifo<CacheKey, Arc<MeasureReport>>>,
    derived: RwLock<Fifo<DerivedKey, Arc<DerivedArtefacts>>>,
    expansions: RwLock<Fifo<ExpansionKey, Arc<ExpandedProfile>>>,
    lineages: RwLock<Vec<LineageState>>,
    hits: AtomicU64,
    misses: AtomicU64,
    derived_hits: AtomicU64,
    derived_misses: AtomicU64,
    expansion_hits: AtomicU64,
    expansion_misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// One registered lineage: its label, the fingerprint it currently
/// serves, and counters (atomic so the hit path credits under a read
/// lock).
struct LineageState {
    label: String,
    claimed: Option<ContextFingerprint>,
    hits: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for ReportCache {
    fn default() -> Self {
        ReportCache::new()
    }
}

impl ReportCache {
    /// A cache with the default report-level capacity.
    pub fn new() -> ReportCache {
        ReportCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache retaining at most `entries` reports (clamped to at least
    /// 1) and the default numbers of derived and expansion entries.
    pub fn with_capacity(entries: usize) -> ReportCache {
        ReportCache {
            reports: RwLock::new(Fifo::new(entries)),
            derived: RwLock::new(Fifo::new(DEFAULT_DERIVED_CAPACITY)),
            expansions: RwLock::new(Fifo::new(EXPANSION_CAPACITY)),
            lineages: RwLock::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            derived_hits: AtomicU64::new(0),
            derived_misses: AtomicU64::new(0),
            expansion_hits: AtomicU64::new(0),
            expansion_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Reports the cache retains before evicting.
    pub fn capacity(&self) -> usize {
        self.reports.read().capacity
    }

    /// Look up the report of `measure` over the step identified by
    /// `fingerprint`. Counts a hit or miss.
    pub fn get(
        &self,
        measure: &MeasureId,
        fingerprint: ContextFingerprint,
    ) -> Option<Arc<MeasureReport>> {
        let key = (measure.clone(), fingerprint);
        let found = self.reports.read().map.get(&key).cloned();
        match found {
            Some(report) => {
                self.credit_hit(fingerprint);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// `true` when the report of `measure` over the step identified by
    /// `fingerprint` is cached. Counts neither a hit nor a miss: this
    /// is the warm pass asking what is left to compute, not a request.
    pub fn contains(&self, measure: &MeasureId, fingerprint: ContextFingerprint) -> bool {
        let key = (measure.clone(), fingerprint);
        self.reports.read().map.contains_key(&key)
    }

    /// Register an independent consumer — a serving window, a pipeline
    /// — whose epoch swaps must be scoped to its own lineage. Returns
    /// the id used with [`claim_lineage`](ReportCache::claim_lineage)
    /// and [`publish_lineage`](ReportCache::publish_lineage).
    pub fn register_lineage(&self, label: impl Into<String>) -> LineageId {
        let mut guard = self.lineages.write();
        guard.push(LineageState {
            label: label.into(),
            claimed: None,
            hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        });
        LineageId(guard.len() - 1)
    }

    /// Record that `lineage` currently serves the step identified by
    /// `fingerprint` (without invalidating anything) — the initial
    /// claim before the first epoch swap.
    ///
    /// # Panics
    /// Panics if `lineage` was not registered with this cache.
    pub fn claim_lineage(&self, lineage: LineageId, fingerprint: ContextFingerprint) {
        self.lineages.write()[lineage.0].claimed = Some(fingerprint);
    }

    /// An epoch swap scoped to one lineage: move `lineage`'s claim from
    /// `superseded` to `fresh`, then drop `superseded`'s entries (every
    /// level) **only if no other lineage still claims it** — the
    /// shared-cache safety multi-window serving needs: one window's
    /// swap never evicts the artefacts another window still serves.
    /// Returns how many entries were removed (0 when the fingerprint
    /// survives under another claim, or when `superseded == fresh`).
    ///
    /// # Panics
    /// Panics if `lineage` was not registered with this cache.
    pub fn publish_lineage(
        &self,
        lineage: LineageId,
        superseded: ContextFingerprint,
        fresh: ContextFingerprint,
    ) -> usize {
        // The write lock is held across the eviction so a concurrent
        // claim of `superseded` cannot slip between the check and the
        // removal.
        let mut guard = self.lineages.write();
        guard[lineage.0].claimed = Some(fresh);
        if superseded == fresh {
            return 0;
        }
        if guard.iter().any(|s| s.claimed == Some(superseded)) {
            return 0;
        }
        let removed = self.invalidate_fingerprint(superseded);
        guard[lineage.0]
            .invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Count a report-level hit: the global tally, plus a credit to
    /// every lineage currently claiming `fingerprint`.
    ///
    /// The global bump and every lineage credit happen under one hold
    /// of the lineages read lock — and [`stats`](ReportCache::stats)
    /// snapshots under the *write* lock — so no snapshot can observe a
    /// hit credited to lineage A but not to co-claiming lineage B, or
    /// counted globally but missing from its lineages.
    fn credit_hit(&self, fingerprint: ContextFingerprint) {
        let guard = self.lineages.read();
        self.hits.fetch_add(1, Ordering::Relaxed);
        for state in guard.iter() {
            if state.claimed == Some(fingerprint) {
                state.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Store `report` under its own measure id and `fingerprint`,
    /// returning the shared handle (the existing entry wins a race).
    /// At capacity, the oldest reports are evicted first-in-first-out.
    pub fn insert(
        &self,
        fingerprint: ContextFingerprint,
        report: MeasureReport,
    ) -> Arc<MeasureReport> {
        let key = (report.measure.clone(), fingerprint);
        let (handle, evicted) = self
            .reports
            .write()
            .insert_unless_present(key, Arc::new(report));
        self.count_evictions(evicted);
        handle
    }

    fn count_evictions(&self, evicted: usize) {
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }

    /// Evaluate `registry` over `ctx`, serving each measure's report from
    /// the cache and computing only the missing ones, which are then
    /// inserted for the next request. Reports come back in registration
    /// order.
    pub fn reports_for(
        &self,
        registry: &MeasureRegistry,
        ctx: &EvolutionContext,
    ) -> Vec<Arc<MeasureReport>> {
        let fingerprint = ctx.fingerprint();
        registry
            .all()
            .iter()
            .map(|measure| {
                self.get(&measure.id(), fingerprint)
                    .unwrap_or_else(|| self.insert(fingerprint, measure.compute(ctx)))
            })
            .collect()
    }

    /// The derived artefacts of the step identified by `fingerprint`
    /// under the given measure catalogue (identified by
    /// `registry_digest`, see [`registry_digest`]) and deriving
    /// configuration, building (and caching) them via `build` on a
    /// miss. Concurrent builders race benignly: the first insert wins
    /// and later builders adopt it.
    pub fn derived_or_insert(
        &self,
        fingerprint: ContextFingerprint,
        registry_digest: u64,
        pool_per_measure: usize,
        rank_k: usize,
        weights: DistanceWeights,
        build: impl FnOnce() -> DerivedArtefacts,
    ) -> Arc<DerivedArtefacts> {
        let key = DerivedKey::new(
            fingerprint,
            registry_digest,
            pool_per_measure,
            rank_k,
            weights,
        );
        if let Some(hit) = self.derived.read().map.get(&key) {
            self.derived_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.derived_misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build());
        let (handle, evicted) = self.derived.write().insert_unless_present(key, built);
        self.count_evictions(evicted);
        handle
    }

    /// A profile's interests expanded over the step identified by
    /// `fingerprint`, from its `seeds` (see [`ExpandedProfile::seeds`])
    /// under `config`, running `expand` (and caching its result) on a
    /// miss. The key is the whole PageRank input, so a hit is
    /// bit-identical to a fresh expansion. Concurrent expanders race
    /// benignly: the first insert wins and later expanders adopt it.
    pub fn expansion_or_insert(
        &self,
        fingerprint: ContextFingerprint,
        config: PageRankConfig,
        seeds: &[(NodeIx, f64)],
        expand: impl FnOnce() -> ExpandedProfile,
    ) -> Arc<ExpandedProfile> {
        let key = ExpansionKey::new(fingerprint, config, seeds);
        if let Some(hit) = self.expansions.read().map.get(&key) {
            self.expansion_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.expansion_misses.fetch_add(1, Ordering::Relaxed);
        let expanded = Arc::new(expand());
        let (handle, evicted) = self.expansions.write().insert_unless_present(key, expanded);
        self.count_evictions(evicted);
        handle
    }

    /// Drop every entry — report, derived and expansion level —
    /// belonging to the step identified by `fingerprint`, returning how
    /// many were removed.
    /// [`publish_lineage`](ReportCache::publish_lineage) calls
    /// this on epoch swap so entries of superseded contexts stop
    /// occupying capacity (holders of the shared `Arc`s keep their
    /// copies alive, of course).
    ///
    /// Best-effort, not a barrier: a reader still serving a request
    /// against the superseded context can recompute and re-insert its
    /// entries *after* this call. Such stragglers are never served for
    /// a different step (keys carry the fingerprint) and capacity stays
    /// bounded — they just occupy FIFO slots until evicted or until a
    /// later invalidation of the same fingerprint.
    fn invalidate_fingerprint(&self, fingerprint: ContextFingerprint) -> usize {
        // Never hold two level locks: each guard drops at the end of
        // its statement, so the levels take no order between them.
        let reports = self.reports.write().retain(|key| key.1 != fingerprint);
        let derived = self
            .derived
            .write()
            .retain(|key| key.fingerprint != fingerprint);
        let expansions = self
            .expansions
            .write()
            .retain(|key| key.fingerprint != fingerprint);
        let removed = reports + derived + expansions;
        self.invalidations.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Number of cached derived-artefact entries.
    pub fn derived_len(&self) -> usize {
        self.derived.read().map.len()
    }

    /// Number of cached profile expansions.
    pub fn expansion_len(&self) -> usize {
        self.expansions.read().map.len()
    }

    /// Number of cached reports.
    pub fn len(&self) -> usize {
        self.reports.read().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached entry, every level (stats are kept; see
    /// [`reset_stats`]).
    ///
    /// [`reset_stats`]: ReportCache::reset_stats
    pub fn clear(&self) {
        self.reports.write().clear();
        self.derived.write().clear();
        self.expansions.write().clear();
    }

    /// Cumulative counters since construction (or the last
    /// [`reset_stats`](ReportCache::reset_stats)), as one consistent
    /// snapshot.
    ///
    /// The lineages **write** lock is held across every load: it
    /// excludes both in-flight hit credits (which run under the read
    /// lock, see `credit_hit`) and lineage
    /// publishes (which hold the write lock across the eviction and
    /// both invalidation tallies), so the snapshot never shows a hit or
    /// invalidation split across the global and per-lineage counters.
    /// Pinned by the `sched_cache` interleaving models.
    pub fn stats(&self) -> CacheStats {
        let lineages = self.lineages.write();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            derived_hits: self.derived_hits.load(Ordering::Relaxed),
            derived_misses: self.derived_misses.load(Ordering::Relaxed),
            expansion_hits: self.expansion_hits.load(Ordering::Relaxed),
            expansion_misses: self.expansion_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            lineages: lineages
                .iter()
                .map(|s| LineageStats {
                    label: s.label.clone(),
                    hits: s.hits.load(Ordering::Relaxed),
                    invalidations: s.invalidations.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Zero every counter, the per-lineage ones included (lineage
    /// registrations and claims are kept).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.derived_hits.store(0, Ordering::Relaxed);
        self.derived_misses.store(0, Ordering::Relaxed);
        self.expansion_hits.store(0, Ordering::Relaxed);
        self.expansion_misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        for state in self.lineages.read().iter() {
            state.hits.store(0, Ordering::Relaxed);
            state.invalidations.store(0, Ordering::Relaxed);
        }
    }
}

/// Export the cache counters under `evorec_cache_*`, with per-lineage
/// hit/invalidation tallies labelled `lineage="<label>"`. Pull-model:
/// samples are read from the (consistent) [`ReportCache::stats`]
/// snapshot at scrape time, so nothing is double-counted.
impl evorec_obs::MetricsSource for ReportCache {
    fn collect(&self, out: &mut Vec<evorec_obs::Sample>) {
        let stats = self.stats();
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_hits_total",
            stats.hits,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_misses_total",
            stats.misses,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_derived_hits_total",
            stats.derived_hits,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_derived_misses_total",
            stats.derived_misses,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_expansion_hits_total",
            stats.expansion_hits,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_expansion_misses_total",
            stats.expansion_misses,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_evictions_total",
            stats.evictions,
        ));
        out.push(evorec_obs::Sample::counter(
            "evorec_cache_invalidations_total",
            stats.invalidations,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_cache_entries",
            self.len() as u64,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_cache_derived_entries",
            self.derived_len() as u64,
        ));
        out.push(evorec_obs::Sample::gauge(
            "evorec_cache_expansion_entries",
            self.expansion_len() as u64,
        ));
        for lineage in &stats.lineages {
            out.push(
                evorec_obs::Sample::counter("evorec_cache_lineage_hits_total", lineage.hits)
                    .with_label("lineage", &lineage.label),
            );
            out.push(
                evorec_obs::Sample::counter(
                    "evorec_cache_lineage_invalidations_total",
                    lineage.invalidations,
                )
                .with_label("lineage", &lineage.label),
            );
        }
    }
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("capacity", &self.capacity())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};
    use evorec_versioning::VersionedStore;

    fn world() -> (VersionedStore, EvolutionContext) {
        let mut vs = VersionedStore::new();
        let a = vs.intern_iri("http://x/A");
        let b = vs.intern_iri("http://x/B");
        let c = vs.intern_iri("http://x/C");
        let v = *vs.vocab();
        let mut s0 = TripleStore::new();
        s0.insert(Triple::new(a, v.rdfs_subclassof, b));
        s0.insert(Triple::new(c, v.rdfs_subclassof, b));
        let v0 = vs.commit_snapshot("v0", s0.clone());
        let mut s1 = s0;
        let i = vs.intern_iri("http://x/i");
        s1.insert(Triple::new(i, v.rdf_type, a));
        let v1 = vs.commit_snapshot("v1", s1);
        let ctx = EvolutionContext::build(&vs, v0, v1);
        (vs, ctx)
    }

    #[test]
    fn cold_then_warm_lookup() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let cold = cache.reports_for(&registry, &ctx);
        assert_eq!(cold.len(), registry.len());
        let after_cold = cache.stats();
        assert_eq!(after_cold.hits, 0);
        assert_eq!(after_cold.misses, registry.len() as u64);
        assert_eq!(cache.len(), registry.len());

        let warm = cache.reports_for(&registry, &ctx);
        let after_warm = cache.stats();
        assert_eq!(after_warm.hits, registry.len() as u64);
        assert_eq!(after_warm.misses, registry.len() as u64);
        // Warm reports are the very same allocations.
        for (c, w) in cold.iter().zip(&warm) {
            assert!(Arc::ptr_eq(c, w), "{}", c.measure);
        }
        assert!((after_warm.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warm_reports_equal_fresh_computation() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let _ = cache.reports_for(&registry, &ctx);
        let warm = cache.reports_for(&registry, &ctx);
        for (cached, measure) in warm.iter().zip(registry.all()) {
            let fresh = measure.compute(&ctx);
            assert_eq!(cached.measure, fresh.measure);
            assert_eq!(cached.scores(), fresh.scores());
        }
    }

    #[test]
    fn rebuilt_context_hits_the_same_entries() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let first = cache.reports_for(&registry, &ctx);
        let rebuilt = EvolutionContext::build(&vs, ctx.from, ctx.to);
        let second = cache.reports_for(&registry, &rebuilt);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(cache.stats().hits, registry.len() as u64);
    }

    #[test]
    fn different_steps_do_not_collide() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let _ = cache.reports_for(&registry, &ctx);
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = cache.reports_for(&registry, &idle);
        assert_eq!(cache.len(), 2 * registry.len());
    }

    #[test]
    fn clear_and_reset_stats() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::with_capacity(DEFAULT_CAPACITY);
        assert_eq!(cache.capacity(), DEFAULT_CAPACITY);
        let _ = cache.reports_for(&registry, &ctx);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        // After a clear, lookups miss again.
        let _ = cache.reports_for(&registry, &ctx);
        assert_eq!(cache.stats().misses, registry.len() as u64);
    }

    #[test]
    fn insert_race_keeps_first_entry() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let fp = ctx.fingerprint();
        let report = registry.all()[0].compute(&ctx);
        let first = cache.insert(fp, report.clone());
        let second = cache.insert(fp, report);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn contains_probes_without_counting() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::new();
        let fp = ctx.fingerprint();
        let measure = &registry.all()[0];
        assert!(!cache.contains(&measure.id(), fp));
        cache.insert(fp, measure.compute(&ctx));
        assert!(cache.contains(&measure.id(), fp));
        assert!(!cache.contains(&registry.all()[1].id(), fp));
        assert_eq!(cache.stats().lookups(), 0, "neither a hit nor a miss");
    }

    #[test]
    fn capacity_bounds_residency_with_fifo_eviction() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        // Room for exactly one step's worth of reports.
        let cache = ReportCache::with_capacity(registry.len());
        assert_eq!(cache.capacity(), registry.len());
        let first = cache.reports_for(&registry, &ctx);
        assert_eq!(cache.len(), registry.len());
        // A second step evicts the first step's entries instead of
        // growing without bound.
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = cache.reports_for(&registry, &idle);
        assert_eq!(cache.len(), registry.len(), "stays at capacity");
        // The first step now misses again (its entries were evicted) …
        cache.reset_stats();
        let recomputed = cache.reports_for(&registry, &ctx);
        assert_eq!(cache.stats().misses, registry.len() as u64);
        // … but recomputes to identical content.
        for (old, new) in first.iter().zip(&recomputed) {
            assert_eq!(old.measure, new.measure);
            assert_eq!(old.scores(), new.scores());
        }
    }

    #[test]
    fn tiny_capacity_still_serves() {
        let (_vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        // Degenerate: capacity smaller than one catalogue pass. Every
        // request recomputes most measures, but answers stay correct.
        let cache = ReportCache::with_capacity(3);
        assert_eq!(cache.capacity(), 3);
        for _ in 0..3 {
            let reports = cache.reports_for(&registry, &ctx);
            assert_eq!(reports.len(), registry.len());
        }
        assert!(cache.len() <= cache.capacity());
    }

    /// Build the derived artefacts the way the engine does, via a
    /// cache-backed recommender.
    fn cached_recommender(cache: &Arc<ReportCache>) -> crate::Recommender {
        crate::Recommender::with_cache(
            MeasureRegistry::standard(),
            crate::RecommenderConfig::default(),
            Arc::clone(cache),
        )
    }

    #[test]
    fn derived_artefacts_are_memoised_per_fingerprint_and_config() {
        let (vs, ctx) = world();
        let cache = Arc::new(ReportCache::new());
        let recommender = cached_recommender(&cache);
        let profile = crate::UserProfile::new(crate::UserId(1), "u");
        let _ = recommender.recommend(&ctx, &profile);
        assert_eq!(cache.derived_len(), 1);
        assert_eq!(cache.stats().derived_misses, 1);
        let cold_lookups = cache.stats().lookups();
        // A rebuilt context for the same step hits the derived level,
        // and only it: the warm request makes no report-level lookup.
        let rebuilt = EvolutionContext::build(&vs, ctx.from, ctx.to);
        let _ = recommender.recommend(&rebuilt, &profile);
        assert_eq!(cache.derived_len(), 1);
        assert_eq!(cache.stats().derived_hits, 1);
        assert_eq!(cache.stats().lookups(), cold_lookups);
        // A different config derives separately.
        let other = crate::Recommender::with_cache(
            MeasureRegistry::standard(),
            crate::RecommenderConfig {
                pool_per_measure: 3,
                ..Default::default()
            },
            Arc::clone(&cache),
        );
        let _ = other.recommend(&ctx, &profile);
        assert_eq!(cache.derived_len(), 2);
    }

    #[test]
    fn derived_or_insert_first_insert_wins() {
        let (_vs, ctx) = world();
        let cache = ReportCache::new();
        let weights = crate::DistanceWeights::default();
        let digest = registry_digest(&MeasureRegistry::standard());
        let build = || DerivedArtefacts::new(Vec::new(), FxHashMap::default(), 20, weights);
        let first = cache.derived_or_insert(ctx.fingerprint(), digest, 5, 20, weights, build);
        let second = cache.derived_or_insert(ctx.fingerprint(), digest, 5, 20, weights, || {
            panic!("hit must not rebuild")
        });
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().derived_hits, 1);
        assert_eq!(cache.stats().derived_misses, 1);
    }

    #[test]
    fn different_registries_do_not_share_derived_entries() {
        let (_vs, ctx) = world();
        let cache = Arc::new(ReportCache::new());
        let standard = crate::Recommender::with_cache(
            MeasureRegistry::standard(),
            crate::RecommenderConfig::default(),
            Arc::clone(&cache),
        );
        let extended = crate::Recommender::with_cache(
            MeasureRegistry::extended(),
            crate::RecommenderConfig::default(),
            Arc::clone(&cache),
        );
        let profile = crate::UserProfile::new(crate::UserId(1), "u");
        let _ = standard.recommend(&ctx, &profile);
        let from_shared = extended.recommend(&ctx, &profile);
        assert_eq!(cache.derived_len(), 2, "one pool per catalogue");
        // The collision failure mode would hand the extended
        // recommender the standard pool, so its answer would depend on
        // who derived first; against a fresh cache it must be the same.
        let from_fresh = crate::Recommender::with_cache(
            MeasureRegistry::extended(),
            crate::RecommenderConfig::default(),
            Arc::new(ReportCache::new()),
        )
        .recommend(&ctx, &profile);
        let keys = |rec: &crate::Recommendation| {
            rec.items
                .iter()
                .map(|s| (s.item.measure.as_str().to_string(), s.item.focus))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&from_shared), keys(&from_fresh));
        assert_eq!(
            from_shared.candidates_considered,
            from_fresh.candidates_considered
        );
        // Registry digests are order-sensitive and id-sensitive.
        assert_ne!(
            registry_digest(&MeasureRegistry::standard()),
            registry_digest(&MeasureRegistry::extended())
        );
        assert_eq!(
            registry_digest(&MeasureRegistry::standard()),
            registry_digest(&MeasureRegistry::standard())
        );
    }

    #[test]
    fn invalidate_fingerprint_drops_both_levels_and_counts() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = Arc::new(ReportCache::new());
        let recommender = cached_recommender(&cache);
        let profile = crate::UserProfile::new(crate::UserId(1), "u");
        let _ = recommender.recommend(&ctx, &profile);
        // A second step so invalidation must be selective.
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = recommender.recommend(&idle, &profile);
        let report_entries = cache.len();
        assert_eq!(cache.derived_len(), 2);

        let removed = cache.invalidate_fingerprint(ctx.fingerprint());
        assert_eq!(removed, registry.len() + 1, "one step's reports + derived");
        assert_eq!(cache.len(), report_entries - registry.len());
        assert_eq!(cache.derived_len(), 1);
        assert_eq!(cache.stats().invalidations, removed as u64);
        // The surviving step still hits; the invalidated one misses.
        cache.reset_stats();
        let _ = cache.reports_for(&registry, &idle);
        assert_eq!(cache.stats().misses, 0);
        let _ = cache.reports_for(&registry, &ctx);
        assert_eq!(cache.stats().misses, registry.len() as u64);
        // Invalidating a fingerprint the cache never saw is a no-op.
        let unknown = ContextFingerprint {
            from: ctx.from,
            to: ctx.to,
            digest: !ctx.fingerprint().digest,
        };
        assert_eq!(cache.invalidate_fingerprint(unknown), 0);
    }

    #[test]
    fn lineage_scoped_invalidation_spares_shared_fingerprints() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = Arc::new(ReportCache::new());
        let recommender = cached_recommender(&cache);
        let profile = crate::UserProfile::new(crate::UserId(1), "u");

        let a = cache.register_lineage("window-a");
        let b = cache.register_lineage("window-b");
        let shared = ctx.fingerprint();
        cache.claim_lineage(a, shared);
        cache.claim_lineage(b, shared);

        // Warm both levels for the shared step.
        let _ = recommender.recommend(&ctx, &profile);
        let reports = cache.len();
        assert_eq!(cache.derived_len(), 1);

        // A advances to a new step; B still claims the old one, so
        // nothing is evicted — B's derived artefacts stay resident.
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        assert_eq!(cache.publish_lineage(a, shared, idle.fingerprint()), 0);
        assert_eq!(cache.len(), reports);
        assert_eq!(cache.derived_len(), 1);

        // B releases the step too: now both levels drop.
        let removed = cache.publish_lineage(b, shared, idle.fingerprint());
        assert_eq!(removed, registry.len() + 1);
        assert_eq!(cache.derived_len(), 0);

        // Counters: the eviction was credited to B's lineage, and a
        // republish of the same step is a no-op.
        let stats = cache.stats();
        assert_eq!(stats.lineages.len(), 2);
        assert_eq!(stats.lineages[0].label, "window-a");
        assert_eq!(stats.lineages[0].invalidations, 0);
        assert_eq!(stats.lineages[1].invalidations, removed as u64);
        let fp = idle.fingerprint();
        assert_eq!(cache.publish_lineage(a, fp, fp), 0);
    }

    #[test]
    fn lineage_hits_credit_current_claimants() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = Arc::new(ReportCache::new());
        let a = cache.register_lineage("narrow");
        let b = cache.register_lineage("wide");
        cache.claim_lineage(a, ctx.fingerprint());
        let _ = cache.reports_for(&registry, &ctx); // cold: misses only
        let _ = cache.reports_for(&registry, &ctx); // warm: hits credit A
        let stats = cache.stats();
        assert_eq!(stats.lineages[0].hits, registry.len() as u64);
        assert_eq!(stats.lineages[1].hits, 0, "B claims nothing yet");
        // A shared claim credits both; an unrelated step credits none.
        cache.claim_lineage(b, ctx.fingerprint());
        let _ = cache.reports_for(&registry, &ctx);
        let stats = cache.stats();
        assert_eq!(stats.lineages[0].hits, 2 * registry.len() as u64);
        assert_eq!(stats.lineages[1].hits, registry.len() as u64);
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = cache.reports_for(&registry, &idle);
        let _ = cache.reports_for(&registry, &idle);
        let stats = cache.stats();
        assert_eq!(stats.lineages[0].hits, 2 * registry.len() as u64);
        // reset_stats zeroes lineage counters but keeps registrations.
        cache.reset_stats();
        let stats = cache.stats();
        assert_eq!(stats.lineages.len(), 2);
        assert_eq!(stats.lineages[0].hits, 0);
    }

    #[test]
    fn evictions_are_counted() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = ReportCache::with_capacity(registry.len());
        let _ = cache.reports_for(&registry, &ctx);
        assert_eq!(cache.stats().evictions, 0);
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = cache.reports_for(&registry, &idle);
        assert_eq!(cache.stats().evictions, registry.len() as u64);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// A profile interested in the world's first class (a union-graph
    /// node, so its expansion runs PageRank).
    fn interested(ctx: &EvolutionContext) -> crate::UserProfile {
        let class = ctx.graph_union.term(0);
        crate::UserProfile::new(crate::UserId(1), "u").with_interest(class, 1.0)
    }

    #[test]
    fn expansions_are_keyed_by_the_whole_pagerank_input() {
        let (_vs, ctx) = world();
        let cache = Arc::new(ReportCache::new());
        let profile = interested(&ctx);
        let narrow = cached_recommender(&cache);
        let wide_config = crate::RecommenderConfig {
            pagerank: PageRankConfig {
                damping: 0.85,
                ..crate::relatedness::expansion_config()
            },
            ..Default::default()
        };
        let wide = crate::Recommender::with_cache(
            MeasureRegistry::standard(),
            wide_config,
            Arc::clone(&cache),
        );
        // Two configs over one shared cache: two expansions, no sharing,
        // and each answer is what an uncached recommender with the same
        // config computes.
        for _ in 0..2 {
            for recommender in [&narrow, &wide] {
                let served = recommender.recommend_measures(&ctx, &profile, 5);
                let fresh =
                    crate::Recommender::new(MeasureRegistry::standard(), *recommender.config())
                        .recommend_measures(&ctx, &profile, 5);
                let bits = |ranked: &[(MeasureId, f64)]| {
                    ranked
                        .iter()
                        .map(|(id, score)| (id.clone(), score.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&served), bits(&fresh));
            }
        }
        assert_eq!(cache.expansion_len(), 2, "one expansion per config");
        let stats = cache.stats();
        assert_eq!((stats.expansion_misses, stats.expansion_hits), (2, 2));
        // Every input field is part of the key.
        let fp = ctx.fingerprint();
        let config = crate::relatedness::expansion_config();
        let seeds = [(0, 1.0)];
        let key = ExpansionKey::new(fp, config, &seeds);
        assert_eq!(key, ExpansionKey::new(fp, config, &seeds));
        let variants = [
            ExpansionKey::new(
                ContextFingerprint {
                    digest: !fp.digest,
                    ..fp
                },
                config,
                &seeds,
            ),
            ExpansionKey::new(
                fp,
                PageRankConfig {
                    max_iterations: config.max_iterations + 1,
                    ..config
                },
                &seeds,
            ),
            ExpansionKey::new(
                fp,
                PageRankConfig {
                    tolerance: config.tolerance / 10.0,
                    ..config
                },
                &seeds,
            ),
            ExpansionKey::new(fp, config, &[(1, 1.0)]),
            ExpansionKey::new(fp, config, &[(0, 0.5)]),
            ExpansionKey::new(fp, config, &[(0, 1.0), (1, 1.0)]),
        ];
        for variant in &variants {
            assert_ne!(&key, variant);
        }
    }

    #[test]
    fn expansion_level_is_bounded_and_counts_evictions() {
        let (_vs, ctx) = world();
        let cache = ReportCache::new();
        let graph = &ctx.graph_union;
        let config = crate::relatedness::expansion_config();
        let fp = ctx.fingerprint();
        let extra = 5;
        let expand = |cache: &ReportCache, i: usize| {
            let seeds = [(0, 1.0 + i as f64)];
            cache.expansion_or_insert(fp, config, &seeds, || {
                ExpandedProfile::from_seeds(graph, &seeds, config)
            })
        };
        for i in 0..EXPANSION_CAPACITY + extra {
            expand(&cache, i);
        }
        assert_eq!(cache.expansion_len(), EXPANSION_CAPACITY);
        let stats = cache.stats();
        assert_eq!(stats.evictions, extra as u64);
        assert_eq!(stats.expansion_misses, (EXPANSION_CAPACITY + extra) as u64);
        assert_eq!(stats.expansion_hits, 0);
        // First in, first out: the newest seed set is resident, the
        // oldest was evicted and misses again.
        cache.reset_stats();
        expand(&cache, EXPANSION_CAPACITY + extra - 1);
        assert_eq!(cache.stats().expansion_hits, 1);
        expand(&cache, 0);
        assert_eq!(cache.stats().expansion_misses, 1);
        assert_eq!(cache.expansion_len(), EXPANSION_CAPACITY);
        // Expansion traffic leaves the report and derived counters alone.
        assert_eq!(cache.stats().lookups(), 0);
        assert_eq!(cache.stats().derived_hits + cache.stats().derived_misses, 0);
    }

    #[test]
    fn publish_lineage_drops_the_superseded_steps_expansions() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = Arc::new(ReportCache::new());
        let recommender = cached_recommender(&cache);
        let lineage = cache.register_lineage("window");
        cache.claim_lineage(lineage, ctx.fingerprint());
        let profile = interested(&ctx);
        let _ = recommender.recommend(&ctx, &profile);
        assert_eq!(cache.expansion_len(), 1);
        let idle = EvolutionContext::build(&vs, ctx.from, ctx.from);
        let _ = recommender.recommend_measures(&idle, &profile, 3);
        assert_eq!(cache.expansion_len(), 2, "one expansion per step");

        let removed = cache.publish_lineage(lineage, ctx.fingerprint(), idle.fingerprint());
        assert_eq!(removed, registry.len() + 2, "reports + derived + expansion");
        assert_eq!(cache.expansion_len(), 1, "the fresh step's expansion stays");
        assert_eq!(cache.stats().invalidations, removed as u64);
        cache.reset_stats();
        let _ = recommender.recommend_measures(&idle, &profile, 3);
        assert_eq!(cache.stats().expansion_hits, 1);
        let _ = recommender.recommend(&ctx, &profile);
        assert_eq!(
            cache.stats().expansion_misses,
            1,
            "superseded step expands anew"
        );
    }

    #[test]
    fn stats_hit_rate_edge_cases() {
        let stats = CacheStats::default();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let (vs, ctx) = world();
        let registry = MeasureRegistry::standard();
        let cache = Arc::new(ReportCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let registry = &registry;
                let vs = &vs;
                let (from, to) = (ctx.from, ctx.to);
                scope.spawn(move || {
                    let ctx = EvolutionContext::build(vs, from, to);
                    let reports = cache.reports_for(registry, &ctx);
                    assert_eq!(reports.len(), registry.len());
                });
            }
        });
        // All four threads keyed the same fingerprint: one entry set.
        assert_eq!(cache.len(), registry.len());
    }
}
