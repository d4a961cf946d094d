//! The timed closed loop of the simulator workloads.
//!
//! One caller runs the workload's cells in order, pass after pass; the
//! next `Simulation::run` starts when the previous one returns. Host
//! speed drifts over minutes on a shared machine while runs seconds
//! apart agree, so throughput is taken from each cell's median over
//! passes rather than from one long total.

use crate::calib::{Calibration, Span};
use crate::cells::{Cell, Checker};
use crate::report::{metric, Metric};
use crate::stat::{median, quantile};
use spb_sim::Simulation;
use std::time::Instant;

/// The runs of one timed loop.
pub struct Timed {
    /// Per cell, the span of each of its runs.
    pub spans: Vec<Vec<Span>>,
    /// Per cell, committed µops of the measured window.
    pub uops: Vec<u64>,
}

/// Runs `sims` (one per cell of `cells`) in passes until `seconds` have
/// passed and every cell has run at least once.
pub fn run(
    cells: &[Cell],
    sims: &[Simulation],
    checker: &mut Checker,
    calib: &mut Calibration,
    seconds: f64,
) -> Timed {
    let mut t = Timed {
        spans: vec![Vec::new(); cells.len()],
        uops: vec![0; cells.len()],
    };
    let start = Instant::now();
    'passes: loop {
        for (i, (cell, sim)) in cells.iter().zip(sims).enumerate() {
            let (result, span) = calib.time(|| sim.run());
            if let Some(stats) = checker.check(cell, &result) {
                t.uops[i] = stats.uops;
            }
            t.spans[i].push(span);
            let full_pass = t.spans.iter().all(|s| !s.is_empty());
            if full_pass && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
        }
    }
    t
}

/// Host seconds of one pass, as the sum of the cells' median times.
fn pass_s(per_cell_s: &[Vec<f64>]) -> f64 {
    per_cell_s.iter().map(|s| median(s)).sum()
}

/// The end-to-end metrics of a simulator workload's timed loop, less
/// `setup_s` and `peak_rss_mb`, and `sim_mops` from unscaled times for
/// the printed record. Latency quantiles are taken over the cells, each
/// at its median over passes, so they do not depend on how many passes
/// fit into the run.
pub fn end_to_end(t: &Timed, calib: &Calibration) -> (Vec<Metric>, f64) {
    let scaled: Vec<Vec<f64>> = t
        .spans
        .iter()
        .map(|s| s.iter().map(|&span| calib.scaled(span)).collect())
        .collect();
    let raw: Vec<Vec<f64>> = t
        .spans
        .iter()
        .map(|s| s.iter().map(Span::raw).collect())
        .collect();
    let pass = pass_s(&scaled);
    let uops = t.uops.iter().sum::<u64>() as f64;
    let cell_ms: Vec<f64> = scaled.iter().map(|s| median(s) * 1e3).collect();
    let metrics = vec![
        metric("sim_mops", uops / pass / 1e6, "Mops/s"),
        metric("cells_per_s", t.spans.len() as f64 / pass, "1/s"),
        metric("op_ms_p50", quantile(&cell_ms, 0.5), "ms"),
        metric("op_ms_p90", quantile(&cell_ms, 0.9), "ms"),
    ];
    (metrics, uops / pass_s(&raw) / 1e6)
}
