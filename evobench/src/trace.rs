//! Layer tables from the traced pass: self time (a span minus the part
//! of it its children cover) per stage, with whatever no span covers
//! reported as an explicit `unattributed` row, so each table sums to
//! its end-to-end figure.

use evorec_obs::FinishedSpan;
use std::collections::HashMap;

/// The crate a span name belongs to, for the table's layer column.
fn layer(name: &str) -> &'static str {
    match name {
        "http_request" | "http_parse" | "bulk_fanout" | "feedback_ingest" => "serve",
        "serve" | "feedback_apply" => "adapt",
        "cache_probe" | "measure_compute" | "mmr_boost" => "core",
        "ingest" | "epoch_commit" | "publish" => "stream",
        "window_advance" => "windows",
        _ => "other",
    }
}

pub struct Spans {
    spans: Vec<FinishedSpan>,
    children: HashMap<u64, Vec<usize>>,
}

impl Spans {
    pub fn new(spans: Vec<FinishedSpan>) -> Spans {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (ix, span) in spans.iter().enumerate() {
            if span.parent != 0 {
                children.entry(span.parent).or_default().push(ix);
            }
        }
        Spans { spans, children }
    }

    /// Durations (ns) of every span named `name` that starts inside
    /// one of `slices`.
    pub fn durations(&self, name: &str, slices: &[(u64, u64)]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && inside(s.start_nanos, slices))
            .map(|s| s.duration_nanos() as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name` that starts inside
    /// one of `slices`.
    pub fn self_times(&self, name: &str, slices: &[(u64, u64)]) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&ix| self.spans[ix].name == name && inside(self.spans[ix].start_nanos, slices))
            .map(|ix| {
                self.self_intervals(ix)
                    .iter()
                    .map(|(a, b)| (b - a) as f64)
                    .sum()
            })
            .collect()
    }

    /// The parts of span `ix` that none of its children cover.
    fn self_intervals(&self, ix: usize) -> Vec<(u64, u64)> {
        let span = &self.spans[ix];
        let mut covered: Vec<(u64, u64)> = self
            .children
            .get(&span.id)
            .map(|kids| {
                kids.iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (
                            c.start_nanos.max(span.start_nanos),
                            c.end_nanos.min(span.end_nanos),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        covered.sort_unstable();
        let mut out = Vec::new();
        let mut at = span.start_nanos;
        for (a, b) in covered {
            if a > at {
                out.push((at, a));
            }
            at = at.max(b);
        }
        if at < span.end_nanos {
            out.push((at, span.end_nanos));
        }
        out
    }

    /// Every span of the trees rooted at spans named in `roots` that
    /// start inside one of `slices`.
    fn trees(&self, roots: &[&str], slices: &[(u64, u64)]) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.spans.len())
            .filter(|&ix| {
                let s = &self.spans[ix];
                s.parent == 0 && roots.contains(&s.name) && inside(s.start_nanos, slices)
            })
            .collect();
        let mut next = 0;
        while next < out.len() {
            if let Some(kids) = self.children.get(&self.spans[out[next]].id) {
                out.extend(kids.iter().copied());
            }
            next += 1;
        }
        out
    }
}

/// One layer table: rows of mean milliseconds per unit of work that
/// sum, with `unattributed`, to `figure_ms`.
pub struct Table {
    title: String,
    figure: &'static str,
    figure_ms: f64,
    count: usize,
    rows: Vec<(String, f64)>,
}

impl Table {
    fn build(
        title: String,
        figure: &'static str,
        figure_ms: f64,
        count: usize,
        sums: Vec<(&str, f64)>,
    ) -> Table {
        let n = count.max(1) as f64;
        let mut rows: Vec<(String, f64)> = sums
            .into_iter()
            .map(|(name, ns)| (format!("{}.{name}", layer(name)), ns / n / 1e6))
            .collect();
        let attributed: f64 = rows.iter().map(|(_, ms)| ms).sum();
        rows.push(("unattributed".to_string(), figure_ms - attributed));
        Table {
            title,
            figure,
            figure_ms,
            count,
            rows,
        }
    }

    pub fn unattributed_ms(&self) -> f64 {
        self.rows.last().map(|(_, ms)| *ms).unwrap_or(0.0)
    }

    pub fn print(&self) {
        println!("\n{}", self.title);
        println!("  {:<28} {:>12}", "row", "ms / unit");
        for (name, ms) in &self.rows {
            println!("  {name:<28} {ms:>12.4}");
        }
        let total: f64 = self.rows.iter().map(|(_, ms)| ms).sum();
        println!(
            "  {:<28} {:>12.4}   (= {} {:.4} ms over {} units)",
            "sum", total, self.figure, self.figure_ms, self.count
        );
    }
}

/// Where each request's client-observed time went: the server's
/// `http_request` trees (self time per stage) plus the rest —
/// connect, accept, queue wait, request read and reply write — as
/// `unattributed`.
pub fn request_table(spans: &Spans, client_ns: &[f64], slices: &[(u64, u64)]) -> Table {
    let mut sums: Vec<(&str, f64)> = Vec::new();
    for ix in spans.trees(&["http_request"], slices) {
        let span = &spans.spans[ix];
        let own: f64 = spans
            .self_intervals(ix)
            .iter()
            .map(|(a, b)| (b - a) as f64)
            .sum();
        add(&mut sums, span.name, own);
    }
    let n = client_ns.len();
    Table::build(
        format!("request path: {n} requests, client-observed"),
        "mean request latency",
        crate::util::mean(client_ns) / 1e6,
        n,
        sums,
    )
}

/// Where each paced batch's freshness went, from its scheduled send
/// time to servable in every window: self time of the ingest worker's
/// spans inside that interval, plus the rest — waiting in the log,
/// `Ingestor::commit_epoch` (outside every span) and wake-ups — as
/// `unattributed`.
pub fn data_table(spans: &Spans, batches: &[(u64, u64)], slices: &[(u64, u64)]) -> Table {
    let mut intervals: Vec<(u64, u64, &'static str)> = spans
        .trees(&["ingest", "epoch_commit"], slices)
        .into_iter()
        .flat_map(|ix| {
            let name = spans.spans[ix].name;
            spans
                .self_intervals(ix)
                .into_iter()
                .map(move |(a, b)| (a, b, name))
        })
        .collect();
    intervals.sort_unstable();
    let mut sums: Vec<(&str, f64)> = Vec::new();
    for &(due, servable) in batches {
        // Self intervals of one worker thread are disjoint, so sorted
        // by start they are sorted by end too.
        let first = intervals.partition_point(|&(_, end, _)| end <= due);
        for &(a, b, name) in intervals[first..]
            .iter()
            .take_while(|&&(a, _, _)| a < servable)
        {
            let overlap = b.min(servable).saturating_sub(a.max(due));
            add(&mut sums, name, overlap as f64);
        }
    }
    let freshness: Vec<f64> = batches
        .iter()
        .map(|&(d, s)| s.saturating_sub(d) as f64)
        .collect();
    Table::build(
        format!(
            "data path: {} paced batches, scheduled send to servable in every window",
            batches.len()
        ),
        "mean freshness",
        crate::util::mean(&freshness) / 1e6,
        batches.len(),
        sums,
    )
}

/// Whether clock reading `t` falls inside one of `slices`.
pub fn inside(t: u64, slices: &[(u64, u64)]) -> bool {
    slices.iter().any(|&(from, to)| t >= from && t <= to)
}

fn add<'a>(sums: &mut Vec<(&'a str, f64)>, name: &'a str, ns: f64) {
    match sums.iter_mut().find(|(n, _)| *n == name) {
        Some((_, total)) => *total += ns,
        None => sums.push((name, ns)),
    }
}
