//! The declarative SLO / health engine.
//!
//! A rule names a series expression over the TSDB, a predicate, and a
//! **multi-window burn-rate** condition: the expression must breach
//! the predicate for at least `short_burn` of the points in the short
//! window *and* at least `long_burn` of the points in the long window
//! before the rule trips. The two windows play the classic roles —
//! the short one proves the problem is still happening, the long one
//! proves it is sustained rather than a blip — so a single bad scrape
//! cannot page and a slow-rolling breach cannot hide behind old good
//! data. Clearing is **hysteretic**: a tripped rule must see
//! `clear_after` consecutive clean evaluations before it releases,
//! which keeps a threshold-straddling series from flapping the
//! component's status every scrape.
//!
//! Evaluation is a pure function of the store contents, the rule set,
//! and the evaluation clock reading — under a logical clock, health
//! transitions are bit-identical across replays.

use crate::tsdb::SeriesStore;
use std::collections::BTreeMap;
use std::fmt;

/// Component condition, worst-of across its rules.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum HealthStatus {
    /// All objectives met.
    #[default]
    Ok,
    /// An objective is breached; service continues degraded.
    Degraded,
    /// A load-bearing objective is breached.
    Critical,
}

impl HealthStatus {
    /// Lower-case label (`ok` / `degraded` / `critical`).
    pub fn label(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Critical => "critical",
        }
    }

    /// Numeric severity for gauges: 0 / 1 / 2.
    pub fn severity(self) -> u64 {
        match self {
            HealthStatus::Ok => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Critical => 2,
        }
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A value stream derived from one or two stored series. Operands are
/// series keys (see `Sample::series_key`; rate series wrap the key as
/// `rate(<key>)`). Binary expressions join operands pointwise on the
/// scrape timestamp, so only instants where both sides were recorded
/// contribute.
#[derive(Clone, Debug)]
pub enum SeriesExpr {
    /// The raw points of one series.
    Series(String),
    /// `left / right` (points with a zero denominator are skipped).
    Ratio {
        /// Numerator series key.
        left: String,
        /// Denominator series key.
        right: String,
    },
    /// `left - right`.
    Diff {
        /// Minuend series key.
        left: String,
        /// Subtrahend series key.
        right: String,
    },
    /// `part / (part + rest)` — e.g. hit rate from hit and miss
    /// streams (instants where both are zero are skipped).
    Fraction {
        /// The counted-for series key.
        part: String,
        /// The counted-against series key.
        rest: String,
    },
}

impl SeriesExpr {
    /// Evaluate over `[from, to]`, returning `(t, value)` points in
    /// clock order.
    pub fn eval(&self, store: &SeriesStore, from: u64, to: u64) -> Vec<(u64, f64)> {
        let points = |key: &str| -> Vec<(u64, f64)> {
            store
                .get(key)
                .map(|buf| {
                    buf.points_between(from, to)
                        .into_iter()
                        .map(|p| (p.t_nanos, p.value))
                        .collect()
                })
                .unwrap_or_default()
        };
        match self {
            SeriesExpr::Series(key) => points(key),
            SeriesExpr::Ratio { left, right } => {
                join(&points(left), &points(right), |l, r| {
                    if r == 0.0 {
                        None
                    } else {
                        Some(l / r)
                    }
                })
            }
            SeriesExpr::Diff { left, right } => {
                join(&points(left), &points(right), |l, r| Some(l - r))
            }
            SeriesExpr::Fraction { part, rest } => {
                join(&points(part), &points(rest), |p, r| {
                    let total = p + r;
                    if total == 0.0 {
                        None
                    } else {
                        Some(p / total)
                    }
                })
            }
        }
    }

    /// A short human-readable rendering for reasons.
    fn describe(&self) -> String {
        match self {
            SeriesExpr::Series(key) => key.clone(),
            SeriesExpr::Ratio { left, right } => format!("{left} / {right}"),
            SeriesExpr::Diff { left, right } => format!("{left} - {right}"),
            SeriesExpr::Fraction { part, rest } => format!("{part} / ({part} + {rest})"),
        }
    }
}

/// Merge two timestamp-sorted point lists on equal timestamps.
fn join(
    left: &[(u64, f64)],
    right: &[(u64, f64)],
    op: impl Fn(f64, f64) -> Option<f64>,
) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let (lt, lv) = left[i];
        let (rt, rv) = right[j];
        if lt == rt {
            if let Some(v) = op(lv, rv) {
                out.push((lt, v));
            }
            i += 1;
            j += 1;
        } else if lt < rt {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Which side of the threshold breaches.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Predicate {
    /// Breach when the value exceeds the threshold (ceilings:
    /// latency, saturation, lag).
    Above(f64),
    /// Breach when the value falls below the threshold (floors:
    /// hit rates).
    Below(f64),
}

impl Predicate {
    fn breaches(self, value: f64) -> bool {
        match self {
            Predicate::Above(t) => value > t,
            Predicate::Below(t) => value < t,
        }
    }

    fn describe(self) -> String {
        match self {
            Predicate::Above(t) => format!("above {t}"),
            Predicate::Below(t) => format!("below {t}"),
        }
    }
}

/// One declarative objective.
#[derive(Clone, Debug)]
pub struct SloRule {
    /// Rule name, shown in reasons (`queue-saturation`, …).
    pub name: String,
    /// The component this rule rolls up into (`stream`, `cache`, …).
    pub component: String,
    /// The observed value stream.
    pub expr: SeriesExpr,
    /// The breach condition on each point.
    pub predicate: Predicate,
    /// Fast-burn window width (nanoseconds back from evaluation
    /// time).
    pub short_window_nanos: u64,
    /// Slow-burn window width; at least the short window.
    pub long_window_nanos: u64,
    /// Minimum breaching fraction of short-window points.
    pub short_burn: f64,
    /// Minimum breaching fraction of long-window points.
    pub long_burn: f64,
    /// Consecutive clean evaluations required to clear (hysteresis).
    pub clear_after: u32,
    /// Status the component takes while this rule is tripped.
    pub severity: HealthStatus,
}

impl SloRule {
    /// A rule with the workspace-standard burn windows: trip when
    /// ≥ 2/3 of the last 3 scrape intervals *and* ≥ 1/2 of the last
    /// 12 breach; clear after 2 clean evaluations.
    pub fn standard(
        name: &str,
        component: &str,
        expr: SeriesExpr,
        predicate: Predicate,
        severity: HealthStatus,
        cadence_nanos: u64,
    ) -> SloRule {
        let cadence = cadence_nanos.max(1);
        SloRule {
            name: name.to_string(),
            component: component.to_string(),
            expr,
            predicate,
            short_window_nanos: cadence.saturating_mul(3),
            long_window_nanos: cadence.saturating_mul(12),
            short_burn: 0.66,
            long_burn: 0.5,
            clear_after: 2,
            severity,
        }
    }
}

/// Per-rule evaluation state.
#[derive(Clone, Debug, Default)]
struct RuleState {
    tripped: bool,
    clean_streak: u32,
    last_value: f64,
}

/// A status change for one component, as recorded by the flight
/// recorder.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HealthTransition {
    /// Evaluation clock reading.
    pub at_nanos: u64,
    /// The component that moved.
    pub component: String,
    /// Status before.
    pub from: HealthStatus,
    /// Status after.
    pub to: HealthStatus,
    /// The reasons active after the move (empty when recovering to
    /// Ok).
    pub reasons: Vec<String>,
}

/// One component's condition inside a report.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ComponentHealth {
    /// Worst-of status across the component's rules.
    pub status: HealthStatus,
    /// Human-readable reasons for every tripped rule.
    pub reasons: Vec<String>,
}

/// The per-component health rollup of one evaluation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HealthReport {
    /// Evaluation clock reading.
    pub at_nanos: u64,
    /// Component name → condition, every ruled component present.
    pub components: BTreeMap<String, ComponentHealth>,
}

impl HealthReport {
    /// The worst status across all components.
    pub fn overall(&self) -> HealthStatus {
        self.components
            .values()
            .map(|c| c.status)
            .max()
            .unwrap_or_default()
    }

    /// The status of `component` (Ok when unruled).
    pub fn status(&self, component: &str) -> HealthStatus {
        self.components
            .get(component)
            .map(|c| c.status)
            .unwrap_or_default()
    }

    /// Render the report as one JSON object:
    /// `{"overall":"ok","components":{"stream":{"status":"ok","reasons":[…]},…}}`.
    ///
    /// Byte-deterministic for a given report (components are a
    /// `BTreeMap`); both the collector's diagnostic bundle and the
    /// HTTP edge's `/health` endpoint serve exactly this rendering.
    pub fn render_json(&self) -> String {
        use evorec_obs::render::escape_json;
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let _ = write!(out, "\"overall\":\"{}\"", self.overall().label());
        out.push_str(",\"components\":{");
        for (i, (component, health)) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(component, &mut out);
            let _ = write!(
                out,
                "\":{{\"status\":\"{}\",\"reasons\":[",
                health.status.label()
            );
            for (j, reason) in health.reasons.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(reason, &mut out);
                out.push('"');
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// The rule evaluator: owns the rules and their hysteresis state.
#[derive(Debug, Default)]
pub struct HealthEngine {
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    last_status: BTreeMap<String, HealthStatus>,
}

impl HealthEngine {
    /// An engine over `rules`.
    pub fn new(rules: Vec<SloRule>) -> HealthEngine {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        HealthEngine {
            rules,
            states,
            last_status: BTreeMap::new(),
        }
    }

    /// The configured rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Evaluate every rule against `store` at clock reading `now`,
    /// returning the report and any component transitions since the
    /// previous evaluation.
    pub fn evaluate(
        &mut self,
        store: &SeriesStore,
        now: u64,
    ) -> (HealthReport, Vec<HealthTransition>) {
        let mut report = HealthReport {
            at_nanos: now,
            ..Default::default()
        };
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let long_from = now.saturating_sub(rule.long_window_nanos);
            let short_from = now.saturating_sub(rule.short_window_nanos);
            let points = rule.expr.eval(store, long_from, now);
            let (mut long_hits, mut long_total) = (0usize, 0usize);
            let (mut short_hits, mut short_total) = (0usize, 0usize);
            for &(t, v) in &points {
                long_total += 1;
                let breach = rule.predicate.breaches(v);
                if breach {
                    long_hits += 1;
                }
                if t >= short_from {
                    short_total += 1;
                    if breach {
                        short_hits += 1;
                    }
                }
                state.last_value = v;
            }
            let burning = short_total > 0
                && long_total > 0
                && short_hits as f64 >= rule.short_burn * short_total as f64
                && long_hits as f64 >= rule.long_burn * long_total as f64;
            if burning {
                state.tripped = true;
                state.clean_streak = 0;
            } else if state.tripped {
                state.clean_streak += 1;
                if state.clean_streak >= rule.clear_after.max(1) {
                    state.tripped = false;
                    state.clean_streak = 0;
                }
            }
            let entry = report.components.entry(rule.component.clone()).or_default();
            if state.tripped {
                if rule.severity > entry.status {
                    entry.status = rule.severity;
                }
                entry.reasons.push(format!(
                    "{}: {} {} ({} = {:.4}, burn {}/{} short, {}/{} long)",
                    rule.name,
                    rule.predicate.describe(),
                    rule.severity.label(),
                    rule.expr.describe(),
                    state.last_value,
                    short_hits,
                    short_total,
                    long_hits,
                    long_total,
                ));
            }
        }
        let mut transitions = Vec::new();
        for (component, health) in &report.components {
            let previous = self
                .last_status
                .get(component)
                .copied()
                .unwrap_or_default();
            if previous != health.status {
                transitions.push(HealthTransition {
                    at_nanos: now,
                    component: component.clone(),
                    from: previous,
                    to: health.status,
                    reasons: health.reasons.clone(),
                });
            }
            self.last_status
                .insert(component.clone(), health.status);
        }
        (report, transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::{RollupSpec, TsdbConfig};

    fn store() -> SeriesStore {
        SeriesStore::new(TsdbConfig {
            raw_capacity: 64,
            rollups: vec![RollupSpec {
                width_nanos: 10,
                capacity: 8,
            }],
            max_series: 16,
        })
    }

    fn ceiling_rule(clear_after: u32) -> SloRule {
        SloRule {
            name: "depth-ceiling".to_string(),
            component: "stream".to_string(),
            expr: SeriesExpr::Series("depth".to_string()),
            predicate: Predicate::Above(10.0),
            short_window_nanos: 3,
            long_window_nanos: 10,
            short_burn: 0.66,
            long_burn: 0.5,
            clear_after,
            severity: HealthStatus::Degraded,
        }
    }

    #[test]
    fn no_data_means_ok_not_tripped() {
        let mut engine = HealthEngine::new(vec![ceiling_rule(1)]);
        let (report, transitions) = engine.evaluate(&store(), 100);
        assert_eq!(report.status("stream"), HealthStatus::Ok);
        assert!(transitions.is_empty(), "Ok → Ok is not a transition");
        assert!(report.components.contains_key("stream"), "component listed");
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        let mut engine = HealthEngine::new(vec![ceiling_rule(1)]);
        let mut s = store();
        // Long history healthy, breaches only at the tail: the short
        // window burns (3/4 = 75%) but the long window stays at 30%,
        // under its 50% bar — the slow burn vetoes the blip.
        for t in 1..=7u64 {
            s.record("depth", t, 1.0);
        }
        for t in 8..=10u64 {
            s.record("depth", t, 99.0);
        }
        let (report, _) = engine.evaluate(&s, 10);
        assert_eq!(report.status("stream"), HealthStatus::Ok);
        // Sustained breach fills both windows: trips.
        for t in 11..=20u64 {
            s.record("depth", t, 99.0);
        }
        let (report, transitions) = engine.evaluate(&s, 20);
        assert_eq!(report.status("stream"), HealthStatus::Degraded);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].from, HealthStatus::Ok);
        assert_eq!(transitions[0].to, HealthStatus::Degraded);
        let reasons = &report.components["stream"].reasons;
        assert_eq!(reasons.len(), 1);
        assert!(reasons[0].contains("depth-ceiling"), "{reasons:?}");
    }

    #[test]
    fn hysteresis_clears_only_after_streak() {
        let mut engine = HealthEngine::new(vec![ceiling_rule(2)]);
        let mut s = store();
        for t in 1..=10u64 {
            s.record("depth", t, 99.0);
        }
        let (report, _) = engine.evaluate(&s, 10);
        assert_eq!(report.status("stream"), HealthStatus::Degraded);
        // Recovery: healthy points, but the first clean evaluation
        // must NOT clear (clear_after = 2).
        for t in 11..=30u64 {
            s.record("depth", t, 1.0);
        }
        let (report, transitions) = engine.evaluate(&s, 25);
        assert_eq!(report.status("stream"), HealthStatus::Degraded, "held by hysteresis");
        assert!(transitions.is_empty());
        let (report, transitions) = engine.evaluate(&s, 30);
        assert_eq!(report.status("stream"), HealthStatus::Ok);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].to, HealthStatus::Ok);
        assert!(transitions[0].reasons.is_empty(), "recovered clean");
    }

    #[test]
    fn fraction_and_diff_join_on_timestamps() {
        let mut s = store();
        for t in [10u64, 20, 30] {
            s.record("hits", t, 3.0);
            s.record("misses", t, 1.0);
        }
        // A lone hits point with no miss twin must not contribute.
        s.record("hits", 40, 100.0);
        let frac = SeriesExpr::Fraction {
            part: "hits".to_string(),
            rest: "misses".to_string(),
        };
        let points = frac.eval(&s, 0, 100);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|&(_, v)| v == 0.75));
        let diff = SeriesExpr::Diff {
            left: "hits".to_string(),
            right: "misses".to_string(),
        };
        let points = diff.eval(&s, 0, 100);
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|&(_, v)| v == 2.0));
    }

    #[test]
    fn worst_severity_wins_per_component() {
        let mut degraded = ceiling_rule(1);
        let mut critical = ceiling_rule(1);
        critical.name = "depth-hard-ceiling".to_string();
        critical.predicate = Predicate::Above(50.0);
        critical.severity = HealthStatus::Critical;
        degraded.predicate = Predicate::Above(10.0);
        let mut engine = HealthEngine::new(vec![degraded, critical]);
        let mut s = store();
        for t in 1..=10u64 {
            s.record("depth", t, 99.0);
        }
        let (report, _) = engine.evaluate(&s, 10);
        assert_eq!(report.status("stream"), HealthStatus::Critical);
        assert_eq!(report.overall(), HealthStatus::Critical);
        assert_eq!(report.components["stream"].reasons.len(), 2);
    }
}
