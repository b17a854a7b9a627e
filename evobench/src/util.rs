//! Small helpers: a seeded generator, percentiles, the process's peak
//! resident set, and a sleep that can poll while it waits.

use evorec_obs::{Clock, MetricsSource};
use std::time::Duration;

/// SplitMix64: every input the benchmark generates derives from the
/// workload seed through this, so one seed gives one input set.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of `values` (sorted in place); `None` when
/// empty.
pub fn nearest_rank(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(values[rank - 1])
}

/// [`nearest_rank`], but `None` for a percentile above the median
/// unless at least 10 samples lie beyond it — the rule that decides
/// which percentiles a run may report.
pub fn percentile(values: &mut [f64], q: f64) -> Option<f64> {
    const MIN_BEYOND: usize = 10;
    let value = nearest_rank(values, q)?;
    let beyond = values.iter().filter(|&&v| v > value).count();
    (q <= 0.5 || beyond >= MIN_BEYOND).then_some(value)
}

/// The median; defined for any non-empty sample.
pub fn median(values: &mut [f64]) -> Option<f64> {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sleep until `deadline` (clock nanos). With `poll`, wake every
/// millisecond to call it.
// The open-loop producer keeps a wall-clock schedule; sleeping is the
// point here, unlike in the tests the workspace lint guards.
#[allow(clippy::disallowed_methods)]
pub fn wait_until(clock: &dyn Clock, deadline: u64, poll: Option<&dyn Fn()>) {
    loop {
        let now = clock.now_nanos();
        if now >= deadline {
            return;
        }
        let pause = Duration::from_nanos(deadline - now);
        match poll {
            Some(poll) => {
                std::thread::sleep(pause.min(Duration::from_millis(1)));
                poll();
            }
            None => std::thread::sleep(pause),
        }
    }
}

/// The first unsuffixed sample of `family` a source reports.
pub fn sample(source: &dyn MetricsSource, family: &str) -> u64 {
    let mut out = Vec::new();
    source.collect(&mut out);
    out.iter()
        .find(|s| s.family == family && s.suffix.is_empty())
        .map(|s| s.value.as_u64())
        .unwrap_or(0)
}

pub const NS_PER_MS: f64 = 1e6;
pub const NS_PER_US: f64 = 1e3;
