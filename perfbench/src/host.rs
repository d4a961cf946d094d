//! Host-noise record and memory high-water mark, read from `/proc`.
//!
//! A run prints what the host was doing while it measured, so a
//! disturbed run can be told apart from a slow program: the CPU count,
//! the load average, the steal time the hypervisor took, and how much
//! of the wall time the measuring thread actually spent on a CPU.

use spb_stats::json::Json;
use std::time::Instant;

/// Readings taken when measurement starts, closed by [`HostProbe::finish`].
pub struct HostProbe {
    wall: Instant,
    steal_ticks: Option<u64>,
    thread_cpu_ns: Option<u64>,
}

impl HostProbe {
    /// Takes the opening readings.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            steal_ticks: steal_ticks(),
            thread_cpu_ns: thread_cpu_ns(),
        }
    }

    /// The noise record for the interval since [`HostProbe::start`].
    /// Readings `/proc` does not offer are `null`.
    pub fn finish(&self) -> Json {
        let wall_ns = self.wall.elapsed().as_nanos() as f64;
        let delta = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        let cpu_wall = delta(self.thread_cpu_ns, thread_cpu_ns()).map(|ns| ns as f64 / wall_ns);
        Json::obj([
            (
                "nproc",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
            ),
            ("loadavg_1m", opt(loadavg_1m())),
            (
                "steal_ticks",
                opt(delta(self.steal_ticks, steal_ticks()).map(|t| t as f64)),
            ),
            ("thread_cpu_per_wall", opt(cpu_wall)),
        ])
    }
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal time summed over all CPUs, in clock ticks (`/proc/stat`, the
/// eighth value of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().nth(7)?.parse().ok()
}

/// Time the calling thread has spent on a CPU, in ns (first value of
/// `/proc/thread-self/schedstat`).
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
