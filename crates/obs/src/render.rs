//! Exposition renderers: Prometheus text format, a JSON snapshot, and
//! a human-readable span-tree breakdown.
//!
//! All three are pure functions of already-sorted sample/span slices,
//! so output is byte-deterministic for a given snapshot — the property
//! the example smoke runs and CI artifact diffs rely on.

use crate::source::Sample;
use crate::trace::FinishedSpan;
use std::fmt::Write as _;

/// Render samples in the Prometheus text exposition format
/// (`# TYPE` line per family, label sets inline, one sample per line).
pub fn prometheus(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for s in samples {
        if last_family != Some(s.family.as_str()) {
            let _ = writeln!(out, "# TYPE {} {}", s.family, s.kind.prometheus_type());
            last_family = Some(s.family.as_str());
        }
        out.push_str(&s.family);
        out.push_str(s.suffix);
        if !s.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in s.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                escape_label(v, &mut out);
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        let mut value = String::new();
        s.value.render(&mut value);
        out.push_str(&value);
        out.push('\n');
    }
    out
}

/// Render samples as a JSON document:
/// `{"metrics":[{"name":…,"labels":{…},"value":…},…]}`.
///
/// Hand-rolled (the workspace has no JSON library); values that are
/// exact integers render without a decimal point so counters survive a
/// JSON → u64 round-trip.
pub fn json(samples: &[Sample]) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&s.full_name(), &mut out);
        out.push('"');
        if !s.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in s.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(k, &mut out);
                out.push_str("\":\"");
                escape_json(v, &mut out);
                out.push('"');
            }
            out.push('}');
        }
        out.push_str(",\"value\":");
        s.value.render(&mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Render a finished-span set (as returned by
/// [`Tracer::last_trace`](crate::Tracer::last_trace)) as an indented
/// tree with per-stage durations — the curator-facing request
/// breakdown.
pub fn trace_tree(spans: &[FinishedSpan]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        return out;
    }
    let root_start = spans[0].start_nanos;
    for span in spans {
        let depth = depth_of(span, spans);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(
            out,
            "{} {}ns (+{}ns)",
            span.name,
            span.duration_nanos(),
            span.start_nanos.saturating_sub(root_start),
        );
    }
    out
}

/// Render a finished-span set as a JSON document:
/// `{"spans":[{"id":…,"parent":…,"name":…,"start_nanos":…,"end_nanos":…},…]}`.
///
/// Spans keep their input order (for [`Tracer::last_trace`] output
/// that is start order), parents riding as ids so a client can
/// rebuild the tree — the machine-readable twin of [`trace_tree`],
/// served by the HTTP edge's `/v1/trace/last`.
///
/// [`Tracer::last_trace`]: crate::Tracer::last_trace
pub fn trace_json(spans: &[FinishedSpan]) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        let _ = write!(out, "{}", span.id);
        out.push_str(",\"parent\":");
        let _ = write!(out, "{}", span.parent);
        out.push_str(",\"name\":\"");
        escape_json(span.name, &mut out);
        let _ = write!(
            out,
            "\",\"start_nanos\":{},\"end_nanos\":{}}}",
            span.start_nanos, span.end_nanos
        );
    }
    out.push_str("]}");
    out
}

fn depth_of(span: &FinishedSpan, spans: &[FinishedSpan]) -> usize {
    let mut depth = 0;
    let mut parent = span.parent;
    // Bounded by the slice length: parent chains in a trace are acyclic.
    while parent != 0 && depth < spans.len() {
        match spans.iter().find(|s| s.id == parent) {
            Some(p) => {
                depth += 1;
                parent = p.parent;
            }
            None => break,
        }
    }
    depth
}

pub(crate) fn escape_label(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Append `value` to `out` with JSON string escaping (no quotes): the
/// workspace's one JSON string escaper, shared by every hand-rolled
/// JSON encoder.
pub fn escape_json(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FixedSource;
    use crate::{push_summary, Histogram, MetricsRegistry, SpanHandle, Tracer};
    use std::sync::Arc;

    #[test]
    fn prometheus_families_and_labels() {
        let reg = MetricsRegistry::new();
        let h = Histogram::new();
        h.record(100);
        let mut samples = vec![
            Sample::counter("evorec_cache_hits_total", 3),
            Sample::gauge("evorec_live_epoch", 7),
        ];
        push_summary(&mut samples, "evorec_serve_nanos", &[], &h.snapshot());
        reg.register_source(Arc::new(FixedSource::new(samples)));
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE evorec_cache_hits_total counter"));
        assert!(text.contains("evorec_cache_hits_total 3"));
        assert!(text.contains("# TYPE evorec_live_epoch gauge"));
        assert!(text.contains("# TYPE evorec_serve_nanos summary"));
        assert!(text.contains("evorec_serve_nanos{quantile=\"0.99\"}"));
        assert!(text.contains("evorec_serve_nanos_count 1"));
        assert!(text.contains("evorec_serve_nanos_sum 100"));
        // One TYPE line per family, even with six summary samples.
        assert_eq!(text.matches("# TYPE evorec_serve_nanos ").count(), 1);
    }

    #[test]
    fn json_is_integral_for_counters() {
        let reg = MetricsRegistry::new();
        reg.register_source(Arc::new(FixedSource::new(vec![Sample::counter(
            "evorec_x_total",
            41,
        )])));
        let json = reg.snapshot().render_json();
        assert_eq!(json, "{\"metrics\":[{\"name\":\"evorec_x_total\",\"value\":41}]}");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        let tracer = Arc::new(Tracer::logical().0);
        tracer.start("span\"with\\quirks", SpanHandle::NONE).finish();
        reg.register_source(tracer);
        let snap = reg.snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("span=\"span\\\"with\\\\quirks\""));
        let json = snap.render_json();
        assert!(json.contains("span\\\"with\\\\quirks"));
    }

    #[test]
    fn trace_tree_indents_children() {
        let (tracer, clock) = Tracer::logical();
        let root = tracer.start("serve", SpanHandle::NONE);
        clock.tick(2);
        let child = tracer.start("mmr", root.handle());
        clock.tick(3);
        child.finish();
        root.finish();
        let tree = trace_tree(&tracer.last_trace());
        assert!(tree.starts_with("serve 5ns (+0ns)\n"));
        assert!(tree.contains("\n  mmr 3ns (+2ns)\n"));
    }
}
