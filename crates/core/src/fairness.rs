//! Group recommendation with fairness-aware aggregation.
//!
//! §III(d): a recommendation set can be good *on average* while "all
//! measures are not related to the interests of u" for some member — the
//! package is unfair to u. This module provides the classic aggregation
//! strategies (average, least misery, most pleasure) plus a
//! fairness-proportional greedy that maximises the minimum member
//! satisfaction, and diagnostics (min/mean satisfaction, Jain index,
//! envy) to make the selection's fairness inspectable.

/// How per-member relevance is aggregated into a group objective.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum GroupAggregation {
    /// Mean member relevance (utilitarian).
    Average,
    /// Minimum member relevance per item (egalitarian per item).
    LeastMisery,
    /// Maximum member relevance per item.
    MostPleasure,
    /// Maximisation of the *resulting set's* minimum member satisfaction
    /// (egalitarian over the package, not per item): greedy construction,
    /// maximin swap refinement, and a final best-of comparison against
    /// the [`GroupAggregation::Average`] package — so its minimum
    /// satisfaction never falls below average selection's.
    FairProportional,
}

impl GroupAggregation {
    /// All strategies, for sweeps.
    pub const ALL: [GroupAggregation; 4] = [
        GroupAggregation::Average,
        GroupAggregation::LeastMisery,
        GroupAggregation::MostPleasure,
        GroupAggregation::FairProportional,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            GroupAggregation::Average => "average",
            GroupAggregation::LeastMisery => "least-misery",
            GroupAggregation::MostPleasure => "most-pleasure",
            GroupAggregation::FairProportional => "fair-proportional",
        }
    }
}

/// Per-member relevance of every candidate: `matrix[u][i]` is member
/// `u`'s relevance for candidate `i`.
#[derive(Clone, Debug)]
pub struct RelevanceMatrix {
    rows: Vec<Vec<f64>>,
}

impl RelevanceMatrix {
    /// Build from per-member rows (all rows must share one length).
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn new(rows: Vec<Vec<f64>>) -> RelevanceMatrix {
        if let Some(first) = rows.first() {
            let n = first.len();
            assert!(
                rows.iter().all(|r| r.len() == n),
                "all members must score the same candidate list"
            );
        }
        RelevanceMatrix { rows }
    }

    /// Number of members.
    pub fn members(&self) -> usize {
        self.rows.len()
    }

    /// Number of candidates.
    pub fn candidates(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Member `u`'s relevance for candidate `i`.
    pub fn get(&self, member: usize, candidate: usize) -> f64 {
        self.rows[member][candidate]
    }

    /// Satisfaction of `member` with a selected set: the mean of their
    /// relevances over the set (0 for the empty set).
    pub fn satisfaction(&self, member: usize, selection: &[usize]) -> f64 {
        if selection.is_empty() {
            return 0.0;
        }
        selection
            .iter()
            .map(|&i| self.rows[member][i])
            .sum::<f64>()
            / selection.len() as f64
    }

    /// Satisfaction of every member with a selection.
    pub fn satisfactions(&self, selection: &[usize]) -> Vec<f64> {
        (0..self.members())
            .map(|u| self.satisfaction(u, selection))
            .collect()
    }
}

/// Select `k` candidates for the group under `strategy`. Returns indexes
/// in pick order. Deterministic: ties resolve to the lowest index.
pub fn select_for_group(
    matrix: &RelevanceMatrix,
    k: usize,
    strategy: GroupAggregation,
) -> Vec<usize> {
    let n = matrix.candidates();
    let members = matrix.members();
    if n == 0 || members == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    match strategy {
        GroupAggregation::Average | GroupAggregation::LeastMisery | GroupAggregation::MostPleasure => {
            let mut scored: Vec<(usize, f64)> = (0..n)
                .map(|i| {
                    let column: Vec<f64> = (0..members).map(|u| matrix.get(u, i)).collect();
                    let score = match strategy {
                        GroupAggregation::Average => {
                            column.iter().sum::<f64>() / members as f64
                        }
                        GroupAggregation::LeastMisery => {
                            column.iter().copied().fold(f64::INFINITY, f64::min)
                        }
                        // FairProportional is handled by the outer
                        // match; folding it into MostPleasure keeps
                        // this arm total without a panicking fallback.
                        GroupAggregation::MostPleasure | GroupAggregation::FairProportional => {
                            column.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                        }
                    };
                    (i, score)
                })
                .collect();
            scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            scored.into_iter().take(k).map(|(i, _)| i).collect()
        }
        GroupAggregation::FairProportional => {
            let mut selection: Vec<usize> = Vec::with_capacity(k);
            let mut picked = vec![false; n];
            while selection.len() < k {
                let mut best: Option<(usize, f64, f64)> = None; // (ix, min_sat, mean_sat)
                #[allow(clippy::needless_range_loop)] // `selection` is pushed/popped mid-loop
                for i in 0..n {
                    if picked[i] {
                        continue;
                    }
                    selection.push(i);
                    let (min, mean) = min_mean(matrix, &selection);
                    selection.pop();
                    let better = match best {
                        None => true,
                        Some((bi, bmin, bmean)) => {
                            min > bmin + 1e-15
                                || ((min - bmin).abs() <= 1e-15
                                    && (mean > bmean + 1e-15
                                        || ((mean - bmean).abs() <= 1e-15 && i < bi)))
                        }
                    };
                    if better {
                        best = Some((i, min, mean));
                    }
                }
                let Some((i, _, _)) = best else {
                    break;
                };
                picked[i] = true;
                selection.push(i);
            }
            // Greedy is myopic: a locally-best first pick can lock in a
            // package whose minimum satisfaction trails even plain
            // average selection. Repair with maximin swap refinement…
            maximin_swap_refine(matrix, &mut selection);
            // …and guarantee dominance by construction: never return a
            // package whose (min, mean) loses to average selection's.
            let average = select_for_group(matrix, k, GroupAggregation::Average);
            if lex_less(min_mean(matrix, &selection), min_mean(matrix, &average)) {
                average
            } else {
                selection
            }
        }
    }
}

/// `(min, mean)` member satisfaction of a selection.
fn min_mean(matrix: &RelevanceMatrix, selection: &[usize]) -> (f64, f64) {
    let sats = matrix.satisfactions(selection);
    if sats.is_empty() {
        return (0.0, 0.0);
    }
    let min = sats.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = sats.iter().sum::<f64>() / sats.len() as f64;
    (min, mean)
}

fn lex_less(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 < b.0 - 1e-15 || ((a.0 - b.0).abs() <= 1e-15 && a.1 < b.1 - 1e-15)
}

/// Hill-climb on the `(min, mean)` satisfaction objective by swapping
/// selected items against the complement until a fixpoint.
fn maximin_swap_refine(matrix: &RelevanceMatrix, selection: &mut [usize]) {
    let n = matrix.candidates();
    let mut in_set = vec![false; n];
    for &i in selection.iter() {
        in_set[i] = true;
    }
    let mut current = min_mean(matrix, selection);
    // Each accepted swap strictly improves a bounded objective; cap the
    // passes defensively anyway.
    for _ in 0..n.max(8) {
        let mut improved = false;
        for slot in 0..selection.len() {
            let original = selection[slot];
            for candidate in 0..n {
                if in_set[candidate] {
                    continue;
                }
                selection[slot] = candidate;
                let trial = min_mean(matrix, selection);
                if lex_less(current, trial) {
                    in_set[original] = false;
                    in_set[candidate] = true;
                    current = trial;
                    improved = true;
                    break;
                }
                selection[slot] = original;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Fairness diagnostics of one group selection.
#[derive(Clone, Debug, PartialEq)]
pub struct FairnessReport {
    /// Minimum member satisfaction.
    pub min_satisfaction: f64,
    /// Mean member satisfaction.
    pub mean_satisfaction: f64,
    /// Jain fairness index of the satisfaction vector:
    /// `(Σs)² / (n·Σs²)` — 1.0 when perfectly equal, → 1/n when one
    /// member takes everything.
    pub jain_index: f64,
    /// Largest pairwise satisfaction gap (max − min).
    pub envy: f64,
}

/// Compute the diagnostics of a selection.
pub fn fairness_report(matrix: &RelevanceMatrix, selection: &[usize]) -> FairnessReport {
    let sats = matrix.satisfactions(selection);
    if sats.is_empty() {
        return FairnessReport {
            min_satisfaction: 0.0,
            mean_satisfaction: 0.0,
            jain_index: 0.0,
            envy: 0.0,
        };
    }
    let min = sats.iter().copied().fold(f64::INFINITY, f64::min);
    let max = sats.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = sats.iter().sum();
    let sum_sq: f64 = sats.iter().map(|s| s * s).sum();
    let n = sats.len() as f64;
    let jain_index = if sum_sq > 0.0 {
        (sum * sum) / (n * sum_sq)
    } else {
        1.0 // all-zero satisfaction is (vacuously) equal
    };
    FairnessReport {
        min_satisfaction: min,
        mean_satisfaction: sum / n,
        jain_index,
        envy: max - min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two members with opposed tastes plus one candidate both like.
    /// Candidates:          c0    c1    c2
    ///   member 0 (alice):  1.0   0.0   0.6
    ///   member 1 (bob):    0.0   1.0   0.6
    fn opposed() -> RelevanceMatrix {
        RelevanceMatrix::new(vec![vec![1.0, 0.0, 0.6], vec![0.0, 1.0, 0.6]])
    }

    #[test]
    fn average_picks_global_optimum() {
        let m = opposed();
        // Means: 0.5, 0.5, 0.6 → c2 first, then tie c0/c1 by index.
        assert_eq!(select_for_group(&m, 2, GroupAggregation::Average), vec![2, 0]);
    }

    #[test]
    fn least_misery_prefers_consensus() {
        let m = opposed();
        // Min per item: 0.0, 0.0, 0.6 → c2 first.
        let picks = select_for_group(&m, 1, GroupAggregation::LeastMisery);
        assert_eq!(picks, vec![2]);
    }

    #[test]
    fn most_pleasure_prefers_any_delight() {
        let m = opposed();
        // Max per item: 1.0, 1.0, 0.6 → c0 (tie-break by index).
        let picks = select_for_group(&m, 1, GroupAggregation::MostPleasure);
        assert_eq!(picks, vec![0]);
    }

    #[test]
    fn fair_proportional_balances_the_package() {
        let m = opposed();
        let picks = select_for_group(&m, 2, GroupAggregation::FairProportional);
        // Greedy alone would pick c2 then c0 (min-sat 0.3); the maximin
        // swap refinement discovers the strictly better package {c0, c1}
        // where each member gets their favourite (min-sat 0.5).
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        let report = fairness_report(&m, &picks);
        assert!((report.min_satisfaction - 0.5).abs() < 1e-12);
        assert!((report.jain_index - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fair_proportional_min_satisfaction_dominates_average() {
        // Three members; member 2 is a minority taste.
        let m = RelevanceMatrix::new(vec![
            vec![1.0, 0.9, 0.0],
            vec![0.9, 1.0, 0.0],
            vec![0.0, 0.0, 0.8],
        ]);
        let avg = select_for_group(&m, 2, GroupAggregation::Average);
        let fair = select_for_group(&m, 2, GroupAggregation::FairProportional);
        let avg_report = fairness_report(&m, &avg);
        let fair_report = fairness_report(&m, &fair);
        assert!(
            fair_report.min_satisfaction > avg_report.min_satisfaction,
            "fair {fair_report:?} vs avg {avg_report:?}"
        );
        // The paper's complaint about average: the minority member is
        // starved entirely.
        assert_eq!(avg_report.min_satisfaction, 0.0);
        assert!(fair_report.jain_index > avg_report.jain_index);
    }

    #[test]
    fn satisfaction_is_mean_over_selection() {
        let m = opposed();
        assert_eq!(m.satisfaction(0, &[0, 1]), 0.5);
        assert_eq!(m.satisfaction(0, &[]), 0.0);
        assert_eq!(m.satisfactions(&[2]), vec![0.6, 0.6]);
    }

    #[test]
    fn report_on_equal_satisfaction_is_perfectly_fair() {
        let m = opposed();
        let report = fairness_report(&m, &[2]);
        assert!((report.jain_index - 1.0).abs() < 1e-12);
        assert_eq!(report.envy, 0.0);
        assert!((report.min_satisfaction - 0.6).abs() < 1e-12);
    }

    #[test]
    fn report_detects_starvation() {
        let m = opposed();
        let report = fairness_report(&m, &[0]);
        assert_eq!(report.min_satisfaction, 0.0);
        assert_eq!(report.envy, 1.0);
        assert!((report.jain_index - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let empty = RelevanceMatrix::new(vec![]);
        assert!(select_for_group(&empty, 3, GroupAggregation::Average).is_empty());
        let report = fairness_report(&empty, &[]);
        assert_eq!(report.mean_satisfaction, 0.0);
    }

    #[test]
    #[should_panic(expected = "same candidate list")]
    fn ragged_matrix_rejected() {
        let _ = RelevanceMatrix::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn k_clamps_to_candidate_count() {
        let m = opposed();
        assert_eq!(
            select_for_group(&m, 99, GroupAggregation::Average).len(),
            3
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            GroupAggregation::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
