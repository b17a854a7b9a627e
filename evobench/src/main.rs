//! `evobench` — the end-to-end benchmark of the evorec stack.
//!
//! ```text
//! evobench --workload <edge-connect|ingest-fanout>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the stack from the seed, drives the workload from this one
//! process, checks the outputs, and prints every metric with its unit
//! and sample count. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. When a check or a precondition fails it
//! prints the reasons to standard error, no numbers, and exits 1.
//! See `README.md` beside this crate for the metrics and workloads.

mod client;
mod report;
mod run;
mod stack;
mod trace;
mod util;
mod workload;

use report::Metric;
use std::fmt::Write as _;
use workload::Plan;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

struct Args {
    workload: &'static Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::plan(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::PLANS.iter().map(|p| p.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?.max(1.0)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    println!(
        "  {:<42} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        let samples = m
            .samples
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  {:<42} {:>16.6} {:<6} {:>8}",
            m.name, m.value, m.unit, samples
        );
    }
}

fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Requests sent plus batches pushed, and the requests that failed.
fn attempted_failed(pass: &run::Pass) -> (usize, usize) {
    let failed = pass.outcomes.iter().filter(|o| !o.ok()).count();
    (pass.outcomes.len() + pass.batches, failed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("evobench: {e}");
            eprintln!("usage: evobench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let plan = args.workload;

    // End-to-end numbers always come from an untraced pass; a traced
    // run adds a second, traced pass over a fresh stack.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let plain = run::run_pass(plan, args.seed, args.seconds, false, reps);
    let traced = args
        .trace
        .then(|| run::run_pass(plan, args.seed, args.seconds, true, 1));
    let e2e = report::end_to_end(&plain);
    let layers = traced.as_ref().map(|t| report::per_layer(t, &plain));

    let mut errors = plain.errors.clone();
    errors.extend(report::preconditions(plan, &plain));
    if let Some(traced) = &traced {
        errors.extend(traced.errors.iter().cloned());
        errors.extend(report::preconditions(plan, traced));
    }
    errors.extend(e2e.errors.iter().cloned());
    if let Some((layers, _)) = &layers {
        errors.extend(layers.errors.iter().cloned());
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("evobench: FAIL: {e}");
        }
        std::process::exit(1);
    }

    println!(
        "# evobench workload={} seed={} seconds={} trace={} threads={}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    print_metrics("end to end (untraced pass)", &e2e.metrics);
    let (mut attempted, mut failed) = attempted_failed(&plain);
    let reported = match (&traced, &layers) {
        (Some(traced), Some((layers, tables))) => {
            for table in tables {
                table.print();
            }
            print_metrics("per layer (traced pass)", &layers.metrics);
            let (a, f) = attempted_failed(traced);
            attempted += a;
            failed += f;
            &layers.metrics
        }
        _ => &e2e.metrics,
    };
    println!("{}", json_line(attempted, failed, reported));
}
