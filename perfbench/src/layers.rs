//! The traced run: an outside-in split of host time over the layers.
//!
//! Nothing here reaches inside the simulator. Each layer's share comes
//! from timing public entry points under ablations of one cell:
//!
//! - the default run (`Simulation::run`, default kernel) is the whole;
//! - the same cell under `KernelMode::Tick` gives the skip-ahead gain;
//! - the same cell with `mem.checker_interval = 0` (which also drops
//!   the checker's bookkeeping) gives the checker's full cost;
//! - building the cell's traces and draining `CoreWindow::trace_len()`
//!   ops per core through `TraceSource::next_op` gives trace generation,
//!   timed standalone rather than in place;
//! - what is left (`core_mem.s`) is core and memory together.
//!
//! Every ablation must reproduce the default run's statistics exactly.
//! The cache and tuner layers are timed the same way, around
//! `CacheKey::for_cell`, `ResultCache::{open,store,lookup}`, `run_tune`
//! and `pareto_frontier`.

use crate::cells::{Cell, Checker, Stats};
use crate::report::{metric, Metric};
use crate::stat::median;
use spb_serve::{CacheKey, Lookup, ResultCache};
use spb_sim::sweep::SweepRecord;
use spb_sim::{KernelMode, RunResult, SimConfig, Simulation};
use spb_trace::TraceSource;
use spb_tune::{pareto_frontier, run_tune, Objectives, TuneOptions};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn gauge(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .get("runner")
        .and_then(|c| c.get_gauge(name))
        .unwrap_or(0.0)
}

/// Host seconds to build `cell`'s traces and draw `lens[core]` ops from
/// each core's trace, and the number of ops drawn.
fn trace_gen(cell: &Cell, lens: &[u64]) -> (f64, u64) {
    let ((), s) = timed(|| {
        let mut traces = cell.app.build_threads(cell.cfg.seed);
        for (trace, &len) in traces.iter_mut().zip(lens) {
            for _ in 0..len {
                black_box(trace.next_op());
            }
        }
    });
    (s, lens.iter().sum())
}

/// Per cell, the host seconds of each ablation's runs.
#[derive(Default, Clone)]
struct CellTimes {
    run: Vec<f64>,
    tick: Vec<f64>,
    no_checker: Vec<f64>,
    gen: Vec<f64>,
    warmup_ms: Vec<f64>,
    measure_ms: Vec<f64>,
    ops: u64,
    stats: Stats,
}

/// The simulator layers' split over `cells`, from traced passes made
/// until `seconds` have passed (at least one, and none that would likely
/// end after `seconds`), plus each cell's last default-run result for
/// the cache layer.
pub fn sim_layers(
    cells: &[Cell],
    checker: &mut Checker,
    seconds: f64,
) -> (Vec<Metric>, Vec<Option<RunResult>>) {
    let mut times = vec![CellTimes::default(); cells.len()];
    let mut last: Vec<Option<RunResult>> = vec![None; cells.len()];
    let start = Instant::now();
    let mut passes = 0u32;
    // Start another pass only if it is likely to end within `seconds`.
    while passes == 0
        || start.elapsed().as_secs_f64() * f64::from(passes + 1) / f64::from(passes) <= seconds
    {
        passes += 1;
        for (i, cell) in cells.iter().enumerate() {
            let t = &mut times[i];
            let (result, s) = timed(|| Simulation::with_config(&cell.app, &cell.cfg).run());
            let Some(stats) = checker.check(cell, &result) else {
                continue;
            };
            let r = result.expect("a checked run succeeded");
            t.run.push(s);
            t.warmup_ms.push(gauge(&r, "warmup_ms"));
            t.measure_ms.push(gauge(&r, "measure_ms"));
            t.stats = stats;

            let tick = cell.cfg.clone().with_kernel(KernelMode::Tick);
            let (result, s) = timed(|| Simulation::with_config(&cell.app, &tick).run());
            checker.check_same(cell, "the tick kernel", &result, &stats);
            t.tick.push(s);

            let mut no_checker = cell.cfg.clone();
            no_checker.mem.checker_interval = 0;
            let (result, s) = timed(|| Simulation::with_config(&cell.app, &no_checker).run());
            checker.check_same(cell, "checker off", &result, &stats);
            t.no_checker.push(s);

            let lens: Vec<u64> = r.per_core.iter().map(|w| w.trace_len()).collect();
            let (s, ops) = trace_gen(cell, &lens);
            t.gen.push(s);
            t.ops = ops;
            last[i] = Some(r);
        }
    }

    // A pass's total, each cell at its median over the traced passes.
    let pass = |f: fn(&CellTimes) -> &[f64]| times.iter().map(|t| median(f(t))).sum::<f64>();
    let run_s = pass(|t| &t.run);
    let tick_s = pass(|t| &t.tick);
    let no_checker_s = pass(|t| &t.no_checker);
    let gen_s = pass(|t| &t.gen);
    let warmup_ms = pass(|t| &t.warmup_ms);
    let measure_ms = pass(|t| &t.measure_ms);
    let ops = times.iter().map(|t| t.ops).sum::<u64>();
    let mut model = Stats::default();
    for t in &times {
        model.add(&t.stats);
    }
    let checker_s = run_s - no_checker_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let metrics = vec![
        metric(
            "bench.trace_overhead",
            ratio(tick_s + no_checker_s + gen_s, run_s),
            "ratio",
        ),
        metric("sim.run_s", run_s, "s"),
        metric("sim.ns_per_uop", ratio(run_s * 1e9, ops as f64), "ns"),
        metric(
            "sim.ns_per_cycle",
            ratio(measure_ms * 1e6, model.cycles as f64),
            "ns",
        ),
        metric(
            "sim.warmup_share",
            ratio(warmup_ms, warmup_ms + measure_ms),
            "ratio",
        ),
        metric("kernel.skip_gain", ratio(tick_s, run_s), "ratio"),
        metric("trace.gen_s", gen_s, "s"),
        metric("trace.ops", ops as f64, "count"),
        metric("trace.ns_per_op", ratio(gen_s * 1e9, ops as f64), "ns"),
        metric("trace.share", ratio(gen_s, run_s), "ratio"),
        metric("checker.s", checker_s, "s"),
        metric("checker.share", ratio(checker_s, run_s), "ratio"),
        metric("core_mem.s", run_s - gen_s - checker_s, "s"),
        metric("model.cycles", model.cycles as f64, "count"),
        metric("model.uops", model.uops as f64, "count"),
        metric("cpu.sb_stall_cycles", model.sb_stall_cycles as f64, "count"),
        metric("cpu.wrong_path_uops", model.wrong_path_uops as f64, "count"),
        metric("mem.l1_tag_checks", model.l1_tag_checks as f64, "count"),
        metric("mem.l2_accesses", model.l2_accesses as f64, "count"),
        metric("mem.dram_accesses", model.dram_accesses as f64, "count"),
        metric("mem.coh_msgs", model.coh_msgs as f64, "count"),
        metric("mem.store_retries", model.store_retries as f64, "count"),
        metric("spb.bursts", model.bursts as f64, "count"),
        metric("spb.burst_rfos", model.burst_rfos as f64, "count"),
        metric(
            "spb.burst_useful_ratio",
            ratio(model.burst_useful as f64, model.burst_rfos as f64),
            "ratio",
        ),
    ];
    (metrics, last)
}

/// One cache entry: the cell's app, its full config, and its record.
pub type Entry = (String, SimConfig, SweepRecord);

/// Times the result cache and the tuner over `entries`: a fresh cache
/// at `dir` filled with every entry, warm `run_tune`s of `opts` (whose
/// cells must all be among `entries`) until `seconds` have passed and
/// at least three ran, then keys and lookups of every entry. Lookups
/// are timed after the tunes so that both read a warm page cache.
pub fn cache_tune_layers(
    dir: &Path,
    entries: &[Entry],
    opts: &TuneOptions,
    checker: &mut Checker,
    seconds: f64,
) -> Vec<Metric> {
    let n = entries.len().max(1) as f64;
    let _ = std::fs::remove_dir_all(dir);
    let (cache, open_s) = timed(|| ResultCache::open(dir));
    let cache = match cache {
        Ok(c) => c,
        Err(e) => {
            checker.record(Err(format!("cache open {}: {e}", dir.display())));
            return Vec::new();
        }
    };
    let mut store_s = 0.0;
    let mut bytes = 0u64;
    for (app, cfg, rec) in entries {
        let key = CacheKey::for_cell(app, cfg);
        let (stored, s) = timed(|| cache.store(key, app, rec));
        store_s += s;
        checker.record(stored.map_err(|e| format!("cache store {}: {e}", key.hex())));
        bytes += std::fs::metadata(dir.join(key.file_name())).map_or(0, |m| m.len());
    }

    let mut run_ms = Vec::new();
    let mut outcome = None;
    let start = Instant::now();
    while run_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let (out, s) = timed(|| run_tune(opts, &cache));
        checker.record(if out.stats.computed == 0 && out.failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "warm tune over the stored cells computed {} and failed {}",
                out.stats.computed,
                out.failed.len()
            ))
        });
        run_ms.push(s * 1e3);
        outcome = Some(out);
    }
    let objectives: Vec<Objectives> = outcome
        .iter()
        .flat_map(|o| o.points.iter().map(|p| p.objectives))
        .collect();
    // Repeated so that the per-call time is well above the clock's
    // resolution even for a handful of points.
    const PARETO_REPS: u32 = 200;
    let ((), pareto_s) = timed(|| {
        for _ in 0..PARETO_REPS {
            black_box(pareto_frontier(black_box(&objectives)));
        }
    });

    let (keys, key_s) = timed(|| {
        entries
            .iter()
            .map(|(app, cfg, _)| black_box(CacheKey::for_cell(app, cfg)))
            .collect::<Vec<_>>()
    });
    let mut lookup_s = 0.0;
    let mut hits = 0u64;
    for (key, (_, _, rec)) in keys.iter().zip(entries) {
        let (found, s) = timed(|| cache.lookup(*key));
        lookup_s += s;
        checker.record(match found {
            Lookup::Hit(ref got) if got == rec => {
                hits += 1;
                Ok(())
            }
            other => Err(format!("cache lookup {}: {other:?}", key.hex())),
        });
    }

    let tune_cells = outcome
        .as_ref()
        .map_or(0, |o| o.points.iter().map(|p| p.cells.len()).sum::<usize>())
        as f64;
    let key_us = key_s * 1e6 / n;
    let lookup_us = lookup_s * 1e6 / n;
    let run_ms = median(&run_ms);
    vec![
        metric("cache.open_ms", open_s * 1e3, "ms"),
        metric("cache.key_us", key_us, "us"),
        metric("cache.lookup_us", lookup_us, "us"),
        metric("cache.hit_ratio", hits as f64 / n, "ratio"),
        metric("cache.store_us", store_s * 1e6 / n, "us"),
        metric("cache.entry_bytes", bytes as f64 / n, "B"),
        metric("tune.run_ms", run_ms, "ms"),
        metric(
            "tune.pareto_ms",
            pareto_s * 1e3 / f64::from(PARETO_REPS),
            "ms",
        ),
        metric(
            "tune.other_share",
            1.0 - tune_cells * (key_us + lookup_us) / (run_ms * 1e3),
            "ratio",
        ),
    ]
}
