//! k-anonymous aggregation of per-user change feeds.
//!
//! §III(e): sensitive data (the paper's example: patient health records)
//! can still be studied "from analyzing aggregations on them", but naive
//! aggregation re-identifies: a cell backed by one user *is* that user.
//! This module publishes a change overview only in cells backed by at
//! least `k` distinct users; under-populated cells are generalised up the
//! class hierarchy (rolled into their parent class) and suppressed if
//! they reach a root still under-populated. The output carries utility
//! accounting (retained mass, suppression rate, generalisation depth) for
//! the privacy/utility trade-off of the E8 experiment.

use crate::profile::UserId;
use evorec_kb::{FxHashMap, FxHashSet, TermId};

/// One user's (private) change feed: change mass per class.
#[derive(Clone, Debug)]
pub struct UserFeed {
    /// Whose feed this is.
    pub user: UserId,
    /// Change mass (e.g. δ(n) counts) per class.
    pub mass_per_class: FxHashMap<TermId, f64>,
}

impl UserFeed {
    /// Build a feed from `(class, mass)` pairs (non-positive masses are
    /// dropped).
    pub fn new(user: UserId, entries: impl IntoIterator<Item = (TermId, f64)>) -> UserFeed {
        let mass_per_class = entries
            .into_iter()
            .filter(|&(_, m)| m > 0.0)
            .collect();
        UserFeed {
            user,
            mass_per_class,
        }
    }

    /// Total mass in the feed.
    pub fn total_mass(&self) -> f64 {
        self.mass_per_class.values().sum()
    }
}

/// A disclosed aggregate cell.
#[derive(Clone, Debug, PartialEq)]
pub struct AnonymisedCell {
    /// The (possibly generalised) class the cell reports on.
    pub class: TermId,
    /// Distinct users backing the cell (always ≥ k).
    pub contributors: usize,
    /// Total change mass in the cell.
    pub mass: f64,
    /// How many hierarchy levels the content was rolled up
    /// (0 = disclosed at its original class).
    pub generalisation_depth: u32,
}

/// The k-anonymous overview plus its utility accounting.
#[derive(Clone, Debug)]
pub struct AnonymisedReport {
    /// Disclosed cells, ordered by descending mass (ties by class id).
    pub cells: Vec<AnonymisedCell>,
    /// Mass that had to be suppressed entirely.
    pub suppressed_mass: f64,
    /// Total input mass.
    pub total_mass: f64,
    /// Number of input users.
    pub input_users: usize,
    /// The k that was enforced.
    pub k: usize,
}

impl AnonymisedReport {
    /// Fraction of input mass that survived into disclosed cells.
    /// Clamped to [0, 1]: suppressed mass is accumulated in roll-up
    /// order, so float summation can otherwise stray a ulp outside.
    pub fn utility(&self) -> f64 {
        if self.total_mass > 0.0 {
            ((self.total_mass - self.suppressed_mass) / self.total_mass).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Fraction of input mass suppressed.
    pub fn suppression_rate(&self) -> f64 {
        1.0 - self.utility()
    }

    /// Largest generalisation depth among disclosed cells.
    pub fn max_depth(&self) -> u32 {
        self.cells
            .iter()
            .map(|c| c.generalisation_depth)
            .max()
            .unwrap_or(0)
    }

    /// Mass-weighted mean generalisation depth of disclosed cells.
    pub fn mean_depth(&self) -> f64 {
        let disclosed: f64 = self.cells.iter().map(|c| c.mass).sum();
        if disclosed <= 0.0 {
            return 0.0;
        }
        self.cells
            .iter()
            .map(|c| c.generalisation_depth as f64 * c.mass)
            .sum::<f64>()
            / disclosed
    }
}

/// Maximum roll-up iterations; guards against parent cycles in malformed
/// hierarchies.
const MAX_ROLLUP: u32 = 64;

/// Aggregate `feeds` into a k-anonymous overview. `parent` maps each
/// class to its generalisation target (typically the first
/// `rdfs:subClassOf` parent); classes without a parent entry are
/// hierarchy roots.
pub fn anonymise(
    feeds: &[UserFeed],
    parent: &FxHashMap<TermId, TermId>,
    k: usize,
) -> AnonymisedReport {
    assert!(k >= 1, "k must be at least 1");
    #[derive(Default, Clone)]
    struct Cell {
        users: FxHashSet<UserId>,
        mass: f64,
        depth: u32,
    }

    let total_mass: f64 = feeds.iter().map(UserFeed::total_mass).sum();
    let mut pending: FxHashMap<TermId, Cell> = FxHashMap::default();
    for feed in feeds {
        for (&class, &mass) in &feed.mass_per_class {
            let cell = pending.entry(class).or_default();
            cell.users.insert(feed.user);
            cell.mass += mass;
        }
    }

    // A class can surface in several rounds (its own mass in round 1,
    // rolled-up child mass later); merge into one cell per class so the
    // published overview has unique rows. Both sources independently meet
    // the k bound, and the union of their user sets can only be larger.
    let mut disclosed_cells: FxHashMap<TermId, Cell> = FxHashMap::default();
    let mut suppressed_mass = 0.0;
    let mut round = 0u32;
    while !pending.is_empty() {
        round += 1;
        let mut next: FxHashMap<TermId, Cell> = FxHashMap::default();
        // Deterministic processing order.
        let mut classes: Vec<TermId> = pending.keys().copied().collect();
        classes.sort_unstable();
        for class in classes {
            let Some(cell) = pending.remove(&class) else {
                continue;
            };
            if cell.users.len() >= k {
                let merged = disclosed_cells.entry(class).or_default();
                merged.users.extend(cell.users.iter().copied());
                merged.mass += cell.mass;
                merged.depth = merged.depth.max(cell.depth);
            } else if let Some(&up) = parent.get(&class) {
                if up == class || round > MAX_ROLLUP {
                    suppressed_mass += cell.mass;
                    continue;
                }
                let target = next.entry(up).or_default();
                target.users.extend(cell.users.iter().copied());
                target.mass += cell.mass;
                target.depth = target.depth.max(cell.depth + 1);
            } else {
                suppressed_mass += cell.mass;
            }
        }
        pending = next;
    }

    let mut disclosed: Vec<AnonymisedCell> = disclosed_cells
        .into_iter()
        .map(|(class, cell)| AnonymisedCell {
            class,
            contributors: cell.users.len(),
            mass: cell.mass,
            generalisation_depth: cell.depth,
        })
        .collect();

    disclosed.sort_unstable_by(|a, b| {
        b.mass.total_cmp(&a.mass).then_with(|| a.class.cmp(&b.class))
    });

    AnonymisedReport {
        cells: disclosed,
        suppressed_mass,
        total_mass,
        input_users: feeds.len(),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn u(n: u32) -> UserId {
        UserId(n)
    }

    /// Hierarchy:      root(0)
    ///                /       \
    ///            mid1(1)   mid2(2)
    ///            /    \        \
    ///        leaf3   leaf4    leaf5
    fn hierarchy() -> FxHashMap<TermId, TermId> {
        let mut p = FxHashMap::default();
        p.insert(t(1), t(0));
        p.insert(t(2), t(0));
        p.insert(t(3), t(1));
        p.insert(t(4), t(1));
        p.insert(t(5), t(2));
        p
    }

    #[test]
    fn populous_cells_disclosed_in_place() {
        let feeds: Vec<UserFeed> = (0..3)
            .map(|i| UserFeed::new(u(i), [(t(3), 2.0)]))
            .collect();
        let r = anonymise(&feeds, &hierarchy(), 3);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].class, t(3));
        assert_eq!(r.cells[0].contributors, 3);
        assert_eq!(r.cells[0].mass, 6.0);
        assert_eq!(r.cells[0].generalisation_depth, 0);
        assert_eq!(r.utility(), 1.0);
    }

    #[test]
    fn sparse_cells_roll_up_to_parent() {
        // One user on leaf3, one on leaf4: each alone < k=2, but their
        // shared parent mid1 has 2 distinct users.
        let feeds = vec![
            UserFeed::new(u(1), [(t(3), 1.0)]),
            UserFeed::new(u(2), [(t(4), 5.0)]),
        ];
        let r = anonymise(&feeds, &hierarchy(), 2);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].class, t(1));
        assert_eq!(r.cells[0].mass, 6.0);
        assert_eq!(r.cells[0].generalisation_depth, 1);
        assert_eq!(r.suppressed_mass, 0.0);
    }

    #[test]
    fn same_user_in_sibling_cells_does_not_fake_k() {
        // One single user spread over two leaves must NOT become a
        // 2-anonymous parent cell.
        let feeds = vec![UserFeed::new(u(1), [(t(3), 1.0), (t(4), 1.0)])];
        let r = anonymise(&feeds, &hierarchy(), 2);
        assert!(r.cells.is_empty());
        assert_eq!(r.suppressed_mass, 2.0);
        assert_eq!(r.utility(), 0.0);
    }

    #[test]
    fn rootless_sparse_cells_suppressed() {
        let feeds = vec![UserFeed::new(u(1), [(t(0), 3.0)])];
        let r = anonymise(&feeds, &hierarchy(), 2);
        assert!(r.cells.is_empty());
        assert_eq!(r.suppressed_mass, 3.0);
        assert_eq!(r.suppression_rate(), 1.0);
    }

    #[test]
    fn k_guarantee_holds_everywhere() {
        // Mixed population; every disclosed cell must have ≥ k users.
        let feeds = vec![
            UserFeed::new(u(1), [(t(3), 1.0), (t(5), 1.0)]),
            UserFeed::new(u(2), [(t(3), 1.0)]),
            UserFeed::new(u(3), [(t(4), 1.0)]),
            UserFeed::new(u(4), [(t(5), 1.0)]),
        ];
        for k in 1..=4 {
            let r = anonymise(&feeds, &hierarchy(), k);
            for cell in &r.cells {
                assert!(cell.contributors >= k, "k={k}: {cell:?}");
            }
            let disclosed: f64 = r.cells.iter().map(|c| c.mass).sum();
            assert!((disclosed + r.suppressed_mass - r.total_mass).abs() < 1e-9);
        }
    }

    #[test]
    fn utility_is_not_monotone_in_k_under_adaptive_rollup() {
        // Six users, two per leaf. At k=4 the left branch (4 users)
        // discloses at mid1 but the right branch (2 users) dies at the
        // root (only 2 users ever reach it — the left ones were already
        // disclosed). At k=5 *nothing* discloses early, everything rolls
        // to the root where all 6 users meet: full utility at maximal
        // generalisation. Adaptive roll-up makes utility non-monotone in
        // k; what IS guaranteed is the k bound on every disclosed cell.
        let feeds: Vec<UserFeed> = (0..6)
            .map(|i| UserFeed::new(u(i), [(t(3 + (i % 3)), 1.0)]))
            .collect();
        let r4 = anonymise(&feeds, &hierarchy(), 4);
        let r5 = anonymise(&feeds, &hierarchy(), 5);
        assert!(r4.utility() < r5.utility(), "{} vs {}", r4.utility(), r5.utility());
        assert!(r5.max_depth() >= r4.max_depth(), "utility returns at coarser grain");
        for r in [&r4, &r5] {
            for cell in &r.cells {
                assert!(cell.contributors >= r.k);
            }
            assert!((0.0..=1.0).contains(&r.utility()));
        }
        // k=1 always discloses everything in place.
        let r1 = anonymise(&feeds, &hierarchy(), 1);
        assert_eq!(r1.utility(), 1.0);
        assert_eq!(r1.max_depth(), 0);
    }

    #[test]
    fn depth_accounting() {
        // Two users, each on a different leaf of a 3-level chain; they
        // only meet at the root (depth 2 from the leaves).
        let feeds = vec![
            UserFeed::new(u(1), [(t(3), 1.0)]),
            UserFeed::new(u(2), [(t(5), 1.0)]),
        ];
        let r = anonymise(&feeds, &hierarchy(), 2);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].class, t(0));
        assert_eq!(r.cells[0].generalisation_depth, 2);
        assert_eq!(r.max_depth(), 2);
        assert!((r.mean_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn self_parent_cycle_is_suppressed_not_looped() {
        let mut parent = FxHashMap::default();
        parent.insert(t(1), t(1)); // malformed: self-parent
        let feeds = vec![UserFeed::new(u(1), [(t(1), 1.0)])];
        let r = anonymise(&feeds, &parent, 2);
        assert_eq!(r.suppressed_mass, 1.0);
    }

    #[test]
    fn k_one_discloses_everything() {
        let feeds = vec![UserFeed::new(u(1), [(t(3), 1.0), (t(4), 2.0)])];
        let r = anonymise(&feeds, &hierarchy(), 1);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.utility(), 1.0);
        // Ordered by mass descending.
        assert_eq!(r.cells[0].class, t(4));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = anonymise(&[], &FxHashMap::default(), 0);
    }

    #[test]
    fn feed_drops_nonpositive_mass() {
        let feed = UserFeed::new(u(1), [(t(1), 0.0), (t(2), -1.0), (t(3), 2.0)]);
        assert_eq!(feed.mass_per_class.len(), 1);
        assert_eq!(feed.total_mass(), 2.0);
    }

    #[test]
    fn empty_input_yields_vacuous_report() {
        let r = anonymise(&[], &hierarchy(), 2);
        assert!(r.cells.is_empty());
        assert_eq!(r.total_mass, 0.0);
        assert_eq!(r.utility(), 1.0);
        assert_eq!(r.max_depth(), 0);
        assert_eq!(r.mean_depth(), 0.0);
    }
}
