//! Print the E1–E12 experiment tables as markdown.
//!
//! Usage:
//! ```text
//! cargo run -p evorec-bench --bin experiments --release            # all
//! cargo run -p evorec-bench --bin experiments --release -- e4 e8  # subset
//! ```

use std::time::Instant;

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let run_all = requested.is_empty() || requested.iter().any(|a| a == "all");
    let started = Instant::now();
    let mut ran = 0;
    for (id, generate) in evorec_bench::experiments::all() {
        if run_all || requested.iter().any(|a| a == id) {
            let t0 = Instant::now();
            let table = generate();
            table.print();
            eprintln!("[{id} took {:.2}s]\n", t0.elapsed().as_secs_f64());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {requested:?}; known: e1..e12 or 'all'");
        std::process::exit(2);
    }
    eprintln!("ran {ran} experiment(s) in {:.2}s", started.elapsed().as_secs_f64());
}
