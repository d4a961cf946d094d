//! Host-speed calibration.
//!
//! On a shared machine the host's speed drifts by tens of percent over
//! minutes while the measuring thread stays on a CPU (no steal, CPU/wall
//! near 1): the work itself runs slower. A fixed kernel that belongs to
//! the benchmark, not to the program, is timed after every operation;
//! each operation's host time is scaled by how much slower or faster
//! than nominal the kernel ran around it. A change to the program does
//! not touch the kernel, so it moves the scaled times exactly as it
//! moves the raw ones; only the host's drift is divided out. Raw times
//! are printed beside the scaled ones.

use crate::stat::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds on the reference host (2 vCPUs of a 2.1 GHz Intel
/// Xeon) at a typical speed. Scaled times are host times on that host.
pub const NOMINAL_S: f64 = 0.005;

/// Kernel runs within this many seconds of a short operation (or
/// within its own duration of a long one) set its scale.
const MIN_WINDOW_S: f64 = 0.1;

/// The kernel: hash-map updates and lookups over a working set of a few
/// hundred KiB, then a sort. Of the kernels tried (random table
/// updates, B-tree, a bytecode interpreter, hashing, sorting), hashing
/// and sorting tracked the simulator's host-time drift most closely:
/// their time moved one-for-one with the simulator's.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let k = next() % 20_000;
        *map.entry(k).or_insert(0) += 1;
        acc = acc.wrapping_add(map.get(&(k ^ 1)).copied().unwrap_or(0));
    }
    let mut v: Vec<u64> = (0..40_000).map(|_| next()).collect();
    v.sort_unstable();
    acc.wrapping_add(v[v.len() / 2])
}

/// When an operation ran, in seconds since the calibration started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: f64,
    end: f64,
}

impl Span {
    /// Raw host seconds.
    pub fn raw(&self) -> f64 {
        self.end - self.start
    }
}

/// Kernel timings, each with the time it ended at.
pub struct Calibration {
    origin: Instant,
    samples: Vec<(f64, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(kernel());
        let s = t0.elapsed().as_secs_f64();
        self.samples.push((self.origin.elapsed().as_secs_f64(), s));
    }

    /// Runs `op`, then the kernel, and returns `op`'s result and span.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Span) {
        if self.samples.is_empty() {
            self.sample();
        }
        let start = self.origin.elapsed().as_secs_f64();
        let out = op();
        let end = self.origin.elapsed().as_secs_f64();
        self.sample();
        (out, Span { start, end })
    }

    /// `span`'s host seconds scaled to the nominal host by the median
    /// kernel time within `max(duration, MIN_WINDOW_S)` of it. A median
    /// over several runs keeps one preempted kernel run from distorting
    /// the scale, and the window widens with the operation so that a
    /// long one is scaled by the host's speed over a like stretch of
    /// time, not at its two ends.
    pub fn scaled(&self, span: Span) -> f64 {
        let pad = span.raw().max(MIN_WINDOW_S);
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| at >= span.start - pad && at <= span.end + pad)
            .map(|&(_, s)| s)
            .collect();
        span.raw() * NOMINAL_S / median(&near)
    }

    /// Median kernel seconds over the whole run, and the number of runs.
    pub fn summary(&self) -> (f64, usize) {
        let all: Vec<f64> = self.samples.iter().map(|&(_, s)| s).collect();
        (median(&all), all.len())
    }
}
