//! The sample model and the [`MetricsSource`] adapter trait.
//!
//! A [`Sample`] is one exposition line: a metric family, an optional
//! family suffix (`_sum`, `_count`, …), a label set, and a value.
//! Every pull-time source flattens into samples, so the renderers have
//! exactly one input shape.

use std::fmt::Write as _;

/// What a sample's family is, for `# TYPE` exposition lines.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SampleKind {
    /// Monotonic count (`_total` by naming convention).
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Part of a quantile summary (`{quantile=…}`, `_sum`, `_count`,
    /// `_max`).
    Summary,
}

impl SampleKind {
    pub(crate) fn prometheus_type(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
            SampleKind::Summary => "summary",
        }
    }
}

/// A sample's value. Counters and histogram parts are integral; gauges
/// derived from ratios may be floating.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum SampleValue {
    /// An exact integer (rendered without a decimal point).
    Int(u64),
    /// A floating value (rendered with up to 6 significant decimals).
    Float(f64),
}

impl SampleValue {
    /// The value as `u64` (floats truncate; for tests and thresholds).
    pub fn as_u64(self) -> u64 {
        match self {
            SampleValue::Int(v) => v,
            SampleValue::Float(v) => v as u64,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            SampleValue::Int(v) => v as f64,
            SampleValue::Float(v) => v,
        }
    }

    pub(crate) fn render(self, out: &mut String) {
        match self {
            SampleValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            SampleValue::Float(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

/// One exposition line.
#[derive(Clone, PartialEq, Debug)]
pub struct Sample {
    /// Metric family, e.g. `evorec_cache_hits_total`.
    pub family: String,
    /// Family suffix appended to the exposition name (`""`, `_sum`,
    /// `_count`, `_max`).
    pub suffix: &'static str,
    /// Label pairs, key-sorted for deterministic output.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
    /// Family kind for `# TYPE` lines.
    pub kind: SampleKind,
}

impl Sample {
    /// A counter sample.
    pub fn counter(family: &str, value: u64) -> Sample {
        Sample {
            family: family.to_string(),
            suffix: "",
            labels: Vec::new(),
            value: SampleValue::Int(value),
            kind: SampleKind::Counter,
        }
    }

    /// A gauge sample.
    pub fn gauge(family: &str, value: u64) -> Sample {
        Sample {
            family: family.to_string(),
            suffix: "",
            labels: Vec::new(),
            value: SampleValue::Int(value),
            kind: SampleKind::Gauge,
        }
    }

    /// A floating gauge sample (rates, means).
    pub fn gauge_f64(family: &str, value: f64) -> Sample {
        Sample {
            family: family.to_string(),
            suffix: "",
            labels: Vec::new(),
            value: SampleValue::Float(value),
            kind: SampleKind::Gauge,
        }
    }

    /// A summary quantile sample (`family{quantile="tag"}`).
    pub fn summary_quantile(family: &str, tag: &str, value: u64) -> Sample {
        Sample {
            family: family.to_string(),
            suffix: "",
            labels: vec![("quantile".to_string(), tag.to_string())],
            value: SampleValue::Int(value),
            kind: SampleKind::Summary,
        }
    }

    /// A summary part sample (`family_sum`, `family_count`,
    /// `family_max`).
    pub fn summary_part(family: &str, suffix: &'static str, value: u64) -> Sample {
        Sample {
            family: family.to_string(),
            suffix,
            labels: Vec::new(),
            value: SampleValue::Int(value),
            kind: SampleKind::Summary,
        }
    }

    /// Attach a label (builder style; keys are sorted at snapshot
    /// time).
    pub fn with_label(mut self, key: &str, value: &str) -> Sample {
        self.labels.push((key.to_string(), value.to_string()));
        self
    }

    /// The exposition name: family plus suffix.
    pub fn full_name(&self) -> String {
        let mut name = self.family.clone();
        name.push_str(self.suffix);
        name
    }

    /// The sample's *series key*: the full exposition name plus its
    /// label set in Prometheus selector syntax,
    /// `name{k1="v1",k2="v2"}` (labels key-sorted, values escaped,
    /// no braces for a bare series). Two samples describe the same
    /// series over time exactly when their keys are equal — this is
    /// the identity [`MetricsSnapshot::diff`](crate::MetricsSnapshot)
    /// and the telemetry TSDB key by.
    pub fn series_key(&self) -> String {
        let mut key = self.full_name();
        if !self.labels.is_empty() {
            let mut labels = self.labels.clone();
            labels.sort();
            key.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(k);
                key.push_str("=\"");
                crate::render::escape_label(v, &mut key);
                key.push('"');
            }
            key.push('}');
        }
        key
    }

    /// True when this sample's value is monotonically non-decreasing
    /// over a series' lifetime: counters, and the `_sum`/`_count`
    /// parts of a summary. Rate derivation is only meaningful (and a
    /// decrease only a defect) for these.
    pub fn is_monotonic(&self) -> bool {
        match self.kind {
            SampleKind::Counter => true,
            SampleKind::Summary => self.suffix == "_sum" || self.suffix == "_count",
            SampleKind::Gauge => false,
        }
    }
}

/// Adapts an existing stats-bearing subsystem into the registry.
///
/// Implementors are sampled at snapshot time (pull model): they read
/// their own counters and emit absolute values, so no state is
/// duplicated and nothing can drift or double-count. Implementations
/// live next to the stats they export (`ReportCache`, `BoundedLog`,
/// `WindowManager`, `AdaptiveRecommender`, [`Tracer`](crate::Tracer)).
pub trait MetricsSource: Send + Sync {
    /// Append current samples to `out`. Label sets should be
    /// key-sorted or order-stable; family names follow the
    /// `evorec_<subsystem>_<noun>[_<unit>][_total]` grammar.
    fn collect(&self, out: &mut Vec<Sample>);
}

/// A source reporting whatever samples it was last given — the
/// registry's test double.
#[cfg(test)]
pub(crate) struct FixedSource(sched::sync::Mutex<Vec<Sample>>);

#[cfg(test)]
impl FixedSource {
    pub(crate) fn new(samples: Vec<Sample>) -> FixedSource {
        FixedSource(sched::sync::Mutex::new(samples))
    }

    pub(crate) fn set(&self, samples: Vec<Sample>) {
        *self.0.lock() = samples;
    }
}

#[cfg(test)]
impl MetricsSource for FixedSource {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.extend(self.0.lock().iter().cloned());
    }
}

/// A deterministic, name-sorted point-in-time sample set.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All samples, sorted by `(family, suffix, labels)`.
    pub samples: Vec<Sample>,
}

impl MetricsSnapshot {
    /// Prometheus text exposition (see [`crate::render::prometheus`]).
    pub fn render_prometheus(&self) -> String {
        crate::render::prometheus(&self.samples)
    }

    /// JSON object rendering (see [`crate::render::json`]).
    pub fn render_json(&self) -> String {
        crate::render::json(&self.samples)
    }

    /// The first sample matching `name` (full exposition name) and
    /// containing every label in `labels`.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples.iter().find(|s| {
            s.full_name() == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }

    /// The value of the first sample matching `name` (no label
    /// filter), as `u64`.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.find(name, &[]).map(|s| s.value.as_u64())
    }
}
