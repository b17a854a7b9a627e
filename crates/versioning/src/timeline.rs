//! Change timelines across whole version histories.
//!
//! The paper's introduction promises to help humans "observe changes
//! trends and identify the most changed parts of a knowledge base". A
//! [`Timeline`] digests a full history into per-term change series (one
//! δ(n) value per consecutive evolution step) and classifies their
//! [`Trend`]s, so "what keeps changing?" and "what suddenly spiked?"
//! become O(1) lookups.

use crate::store::VersionedStore;
use evorec_kb::{FxHashMap, TermId};

/// How a per-term change series behaves over time.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Trend {
    /// Change activity grows step over step.
    Rising,
    /// Change activity shrinks step over step.
    Falling,
    /// Activity is roughly flat (including all-zero).
    Stable,
    /// Activity is concentrated in isolated spikes.
    Bursty,
}

impl Trend {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Trend::Rising => "rising",
            Trend::Falling => "falling",
            Trend::Stable => "stable",
            Trend::Bursty => "bursty",
        }
    }
}

/// Classify a change series. Uses the least-squares slope (normalised by
/// the series mean) for direction and the coefficient of variation for
/// burstiness:
///
/// - CV > 1.5 → [`Trend::Bursty`] (mass concentrated in spikes);
/// - normalised slope > +0.15 → [`Trend::Rising`];
/// - normalised slope < −0.15 → [`Trend::Falling`];
/// - otherwise [`Trend::Stable`].
pub fn classify_trend(series: &[usize]) -> Trend {
    let n = series.len();
    if n < 2 {
        return Trend::Stable;
    }
    let nf = n as f64;
    let mean = series.iter().sum::<usize>() as f64 / nf;
    if mean == 0.0 {
        return Trend::Stable;
    }
    let variance = series
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / nf;
    let cv = variance.sqrt() / mean;
    if cv > 1.5 {
        return Trend::Bursty;
    }
    // Least-squares slope over x = 0..n.
    let x_mean = (nf - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    for (x, &y) in series.iter().enumerate() {
        let dx = x as f64 - x_mean;
        cov += dx * (y as f64 - mean);
        var_x += dx * dx;
    }
    let slope = if var_x > 0.0 { cov / var_x } else { 0.0 };
    let normalised = slope / mean;
    if normalised > 0.15 {
        Trend::Rising
    } else if normalised < -0.15 {
        Trend::Falling
    } else {
        Trend::Stable
    }
}

/// Per-term change series over a full history.
#[derive(Clone, Debug)]
pub struct Timeline {
    steps: usize,
    step_sizes: Vec<usize>,
    series: FxHashMap<TermId, Vec<usize>>,
}

impl Timeline {
    /// Digest every consecutive evolution step of `store`. Only terms
    /// that changed at least once get a series (absent terms are
    /// implicitly all-zero).
    pub fn build(store: &VersionedStore) -> Timeline {
        let versions = store.versions();
        let steps = versions.len().saturating_sub(1);
        let mut step_sizes = Vec::with_capacity(steps);
        let mut series: FxHashMap<TermId, Vec<usize>> = FxHashMap::default();
        for step in 0..steps {
            let from = versions[step].id;
            let to = versions[step + 1].id;
            let delta = store.delta(from, to);
            step_sizes.push(delta.size());
            for (term, count) in delta.term_counts() {
                series.entry(term).or_insert_with(|| vec![0; steps])[step] = count;
            }
        }
        Timeline {
            steps,
            step_sizes,
            series,
        }
    }

    /// Number of evolution steps digested.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// |δ| of each step, oldest first.
    pub fn step_sizes(&self) -> &[usize] {
        &self.step_sizes
    }

    /// The per-step change series of `term` (all zeros if never touched).
    pub fn series_of(&self, term: TermId) -> Vec<usize> {
        self.series
            .get(&term)
            .cloned()
            .unwrap_or_else(|| vec![0; self.steps])
    }

    /// Total changes of `term` across the history.
    pub fn total_of(&self, term: TermId) -> usize {
        self.series.get(&term).map_or(0, |s| s.iter().sum())
    }

    /// The trend classification of `term`.
    pub fn trend_of(&self, term: TermId) -> Trend {
        match self.series.get(&term) {
            Some(series) => classify_trend(series),
            None => Trend::Stable,
        }
    }

    /// The `k` most-changed terms across the whole history ("the most
    /// changed parts of a knowledge base"), descending total, ties by
    /// ascending term id.
    pub fn most_changed(&self, k: usize) -> Vec<(TermId, usize)> {
        let mut totals: Vec<(TermId, usize)> = self
            .series
            .iter()
            .map(|(&term, series)| (term, series.iter().sum()))
            .collect();
        totals.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals.truncate(k);
        totals
    }

    /// Terms whose series classifies as `trend`, ascending id.
    pub fn terms_with_trend(&self, trend: Trend) -> Vec<TermId> {
        let mut out: Vec<TermId> = self
            .series
            .iter()
            .filter(|(_, series)| classify_trend(series) == trend)
            .map(|(&term, _)| term)
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of distinct terms touched at least once.
    pub fn touched_terms(&self) -> usize {
        self.series.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evorec_kb::{Triple, TripleStore};

    #[test]
    fn classify_trends() {
        assert_eq!(classify_trend(&[]), Trend::Stable);
        assert_eq!(classify_trend(&[5]), Trend::Stable);
        assert_eq!(classify_trend(&[0, 0, 0, 0]), Trend::Stable);
        assert_eq!(classify_trend(&[3, 3, 3, 3]), Trend::Stable);
        assert_eq!(classify_trend(&[1, 2, 4, 6, 8]), Trend::Rising);
        assert_eq!(classify_trend(&[8, 6, 4, 2, 1]), Trend::Falling);
        assert_eq!(classify_trend(&[0, 0, 30, 0, 0, 0]), Trend::Bursty);
    }

    fn history() -> (VersionedStore, TermId, TermId) {
        let mut vs = VersionedStore::new();
        let p = vs.intern_iri("http://x/p");
        let hot = vs.intern_iri("http://x/hot");
        let cold = vs.intern_iri("http://x/cold");
        let mut snapshot = TripleStore::new();
        vs.commit_snapshot("v0", snapshot.clone());
        // hot gains i triples at step i; cold changes only in step 0.
        let mut ix = 0u32;
        for step in 0..4u32 {
            for _ in 0..=step {
                let o = vs.intern_iri(format!("http://x/o{ix}"));
                ix += 1;
                snapshot.insert(Triple::new(hot, p, o));
            }
            if step == 0 {
                let o = vs.intern_iri("http://x/c0");
                snapshot.insert(Triple::new(cold, p, o));
            }
            vs.commit_snapshot(format!("v{}", step + 1), snapshot.clone());
        }
        (vs, hot, cold)
    }

    #[test]
    fn timeline_series_match_deltas() {
        let (vs, hot, cold) = history();
        let timeline = Timeline::build(&vs);
        assert_eq!(timeline.steps(), 4);
        assert_eq!(timeline.series_of(hot), vec![1, 2, 3, 4]);
        assert_eq!(timeline.series_of(cold), vec![1, 0, 0, 0]);
        assert_eq!(timeline.total_of(hot), 10);
        assert_eq!(timeline.total_of(cold), 1);
        // step sizes include the cold change in step 0.
        assert_eq!(timeline.step_sizes(), &[2, 2, 3, 4]);
    }

    #[test]
    fn trends_detected_per_term() {
        let (vs, hot, cold) = history();
        let timeline = Timeline::build(&vs);
        assert_eq!(timeline.trend_of(hot), Trend::Rising);
        // cold: single spike then silence → bursty.
        assert_eq!(timeline.trend_of(cold), Trend::Bursty);
        let never = TermId::from_u32(9999);
        assert_eq!(timeline.trend_of(never), Trend::Stable);
        assert_eq!(timeline.series_of(never), vec![0, 0, 0, 0]);
    }

    #[test]
    fn most_changed_ranks_by_total() {
        let (vs, hot, _) = history();
        let timeline = Timeline::build(&vs);
        // The shared predicate p appears in every changed triple (hot's
        // ten plus cold's one), so it tops the list at 11; `hot` follows
        // with its own 10.
        let top = timeline.most_changed(2);
        assert_eq!(top[0].1, 11, "predicate total: {top:?}");
        assert!(top.contains(&(hot, 10)));
        assert!(timeline.touched_terms() >= 2);
    }

    #[test]
    fn terms_with_trend_filters() {
        let (vs, hot, cold) = history();
        let timeline = Timeline::build(&vs);
        assert!(timeline.terms_with_trend(Trend::Rising).contains(&hot));
        assert!(timeline.terms_with_trend(Trend::Bursty).contains(&cold));
        assert!(!timeline.terms_with_trend(Trend::Rising).contains(&cold));
    }

    #[test]
    fn empty_and_single_version_histories() {
        let vs = VersionedStore::new();
        let t = Timeline::build(&vs);
        assert_eq!(t.steps(), 0);
        assert_eq!(t.touched_terms(), 0);

        let mut vs = VersionedStore::new();
        vs.commit_snapshot("only", TripleStore::new());
        let t = Timeline::build(&vs);
        assert_eq!(t.steps(), 0);
        assert!(t.most_changed(5).is_empty());
    }
}
