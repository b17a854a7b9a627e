//! Measure evaluation results: ranked score vectors over schema elements.

use crate::measure::{MeasureCategory, MeasureId, TargetKind};
use evorec_kb::{FxHashMap, TermId};

/// The result of evaluating one measure over one evolution step: scores
/// per schema element, ranked descending (ties broken by ascending term
/// id, so reports are deterministic).
#[derive(Clone, Debug)]
pub struct MeasureReport {
    /// Which measure produced this report.
    pub measure: MeasureId,
    /// The measure's taxonomy category.
    pub category: MeasureCategory,
    /// Whether classes or properties were scored.
    pub target: TargetKind,
    scores: Vec<(TermId, f64)>,
    rank_index: FxHashMap<TermId, usize>,
}

impl MeasureReport {
    /// Build a report from raw `(term, score)` pairs; sorts descending by
    /// score (ties by ascending term id) and drops non-finite scores.
    pub fn from_scores(
        measure: MeasureId,
        category: MeasureCategory,
        target: TargetKind,
        mut scores: Vec<(TermId, f64)>,
    ) -> MeasureReport {
        scores.retain(|(_, s)| s.is_finite());
        scores.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let rank_index = scores
            .iter()
            .enumerate()
            .map(|(rank, &(term, _))| (term, rank))
            .collect();
        MeasureReport {
            measure,
            category,
            target,
            scores,
            rank_index,
        }
    }

    /// The full ranking, best first.
    pub fn scores(&self) -> &[(TermId, f64)] {
        &self.scores
    }

    /// The `k` best-scoring elements.
    pub fn top_k(&self, k: usize) -> &[(TermId, f64)] {
        &self.scores[..k.min(self.scores.len())]
    }

    /// The score of `term`, if ranked.
    pub fn score_of(&self, term: TermId) -> Option<f64> {
        self.rank_index.get(&term).map(|&ix| self.scores[ix].1)
    }

    /// The 0-based rank of `term`, if ranked.
    pub fn rank_of(&self, term: TermId) -> Option<usize> {
        self.rank_index.get(&term).copied()
    }

    /// Number of ranked elements.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` if nothing was scored.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Sum of all scores.
    pub fn total_mass(&self) -> f64 {
        self.scores.iter().map(|&(_, s)| s).sum()
    }

    /// Number of elements with a strictly positive score — the size of
    /// the "affected" set.
    pub fn positive_count(&self) -> usize {
        self.scores.iter().filter(|&&(_, s)| s > 0.0).count()
    }

    /// A copy with scores min-max normalised into [0, 1]. A constant
    /// report (max == min) normalises to all-zeros.
    pub fn normalised(&self) -> MeasureReport {
        if self.scores.is_empty() {
            return self.clone();
        }
        let max = self.scores.first().map(|&(_, s)| s).unwrap_or(0.0);
        let min = self.scores.last().map(|&(_, s)| s).unwrap_or(0.0);
        let span = max - min;
        let scores = self
            .scores
            .iter()
            .map(|&(t, s)| (t, if span > 0.0 { (s - min) / span } else { 0.0 }))
            .collect();
        MeasureReport::from_scores(
            self.measure.clone(),
            self.category,
            self.target,
            scores,
        )
    }

    /// The terms of the top-k, as a set-friendly sorted vector.
    pub fn top_k_terms(&self, k: usize) -> Vec<TermId> {
        let mut out: Vec<TermId> = self.top_k(k).iter().map(|&(t, _)| t).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> TermId {
        TermId::from_u32(n)
    }

    fn report(scores: Vec<(TermId, f64)>) -> MeasureReport {
        MeasureReport::from_scores(
            MeasureId::new("test"),
            MeasureCategory::ChangeCounting,
            TargetKind::Classes,
            scores,
        )
    }

    #[test]
    fn ranking_is_descending_with_deterministic_ties() {
        let r = report(vec![(t(3), 1.0), (t(1), 5.0), (t(2), 1.0), (t(0), 3.0)]);
        let order: Vec<TermId> = r.scores().iter().map(|&(t, _)| t).collect();
        assert_eq!(order, vec![t(1), t(0), t(2), t(3)], "tie 2-vs-3 by id");
    }

    #[test]
    fn rank_and_score_lookup() {
        let r = report(vec![(t(1), 5.0), (t(2), 1.0)]);
        assert_eq!(r.rank_of(t(1)), Some(0));
        assert_eq!(r.rank_of(t(2)), Some(1));
        assert_eq!(r.score_of(t(2)), Some(1.0));
        assert_eq!(r.rank_of(t(9)), None);
        assert_eq!(r.score_of(t(9)), None);
    }

    #[test]
    fn top_k_clamps() {
        let r = report(vec![(t(1), 5.0), (t(2), 1.0)]);
        assert_eq!(r.top_k(1).len(), 1);
        assert_eq!(r.top_k(10).len(), 2);
        assert_eq!(r.top_k_terms(1), vec![t(1)]);
    }

    #[test]
    fn non_finite_scores_dropped() {
        let r = report(vec![(t(1), f64::NAN), (t(2), f64::INFINITY), (t(3), 1.0)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.scores()[0].0, t(3));
    }

    #[test]
    fn mass_and_positive_count() {
        let r = report(vec![(t(1), 2.0), (t(2), 0.0), (t(3), 3.0)]);
        assert_eq!(r.total_mass(), 5.0);
        assert_eq!(r.positive_count(), 2);
    }

    #[test]
    fn normalised_maps_to_unit_interval() {
        let r = report(vec![(t(1), 10.0), (t(2), 5.0), (t(3), 0.0)]).normalised();
        assert_eq!(r.score_of(t(1)), Some(1.0));
        assert_eq!(r.score_of(t(2)), Some(0.5));
        assert_eq!(r.score_of(t(3)), Some(0.0));
    }

    #[test]
    fn normalised_constant_report_is_zero() {
        let r = report(vec![(t(1), 4.0), (t(2), 4.0)]).normalised();
        assert_eq!(r.score_of(t(1)), Some(0.0));
        assert_eq!(r.score_of(t(2)), Some(0.0));
    }

    #[test]
    fn empty_report_behaviour() {
        let r = report(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.total_mass(), 0.0);
        assert!(r.normalised().is_empty());
    }
}
