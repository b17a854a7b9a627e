//! The workloads. Each runs the same rounds over the same stack (see
//! `README.md`); they differ in window fan-out and in how the time of a
//! run divides between the event stream and the clients.

use evorec_windows::{WindowDef, WindowSpec};

/// Events per producer batch: one epoch's worth at the ingestor's
/// `max_batch`, so a paced batch normally commits as one epoch.
pub const BATCH: usize = 64;
/// Closed-loop client threads, one connection per request.
pub const CLIENTS: usize = 2;
/// Rounds of paced part, burst and request slice (see `run.rs`).
pub const ROUNDS: usize = 5;

pub struct Plan {
    pub name: &'static str,
    /// Window set, given the store's logical clock at attach time.
    pub windows: fn(u64) -> Vec<WindowDef>,
    /// Windows the clients request.
    pub served: &'static [&'static str],
    /// Open-loop producer rate, in batches per second.
    pub paced_per_s: f64,
    /// Share of `--seconds` the paced parts last, in all.
    pub paced_share: f64,
    /// Share of `--seconds` the request slices last, in all.
    pub request_share: f64,
    /// Batches pushed as fast as backpressure allows, per round.
    pub burst_batches: usize,
}

impl Plan {
    pub fn paced_batches(&self, seconds: f64) -> usize {
        (self.paced_per_s * self.paced_share * seconds).round() as usize
    }

    pub fn batch_interval_ns(&self) -> u64 {
        (1e9 / self.paced_per_s) as u64
    }
}

fn landmark_only(_clock: u64) -> Vec<WindowDef> {
    vec![WindowDef::new("all", WindowSpec::Landmark)]
}

fn eight(clock: u64) -> Vec<WindowDef> {
    vec![
        WindowDef::new("all", WindowSpec::Landmark),
        WindowDef::new("last", WindowSpec::LastEpoch),
        WindowDef::new("e4", WindowSpec::SlidingEpochs(4)),
        WindowDef::new("e16", WindowSpec::SlidingEpochs(16)),
        WindowDef::new("e64", WindowSpec::SlidingEpochs(64)),
        WindowDef::new("t8", WindowSpec::SlidingTime(8)),
        WindowDef::new("t32", WindowSpec::SlidingTime(32)),
        WindowDef::new("live", WindowSpec::Since(clock)),
    ]
}

pub const PLANS: [Plan; 2] = [
    // Every request pays the connection/accept path against one warm
    // landmark window; its short data rounds give the one-window
    // freshness and drain figures.
    Plan {
        name: "edge-connect",
        windows: landmark_only,
        served: &["all"],
        paced_per_s: 15.0,
        paced_share: 0.25,
        request_share: 0.6,
        burst_batches: 48,
    },
    // The data path at eight-window fan-out, paced at about half its
    // capacity; requests run only on the quiescent stack between
    // rounds, so they never overlap it.
    Plan {
        name: "ingest-fanout",
        windows: eight,
        served: &["all", "last", "e4", "e16", "e64", "t8", "t32", "live"],
        paced_per_s: 5.0,
        paced_share: 0.7,
        request_share: 0.2,
        burst_batches: 18,
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}
