//! The autotuner workload: a full grid tune served from a warm cache.
//!
//! Set-up fills a fresh result cache with a cold tune (the write path);
//! each timed operation opens the cache and re-runs the same tune,
//! which must compute nothing and reproduce the cold report byte for
//! byte (the read path, with the simulator bypassed).

use crate::cells::{tune_base_config, TUNE_APPS};
use crate::layers::Entry;
use spb_serve::{CacheKey, Lookup, ResultCache};
use spb_sim::sweep::{Supervision, SweepOptions};
use spb_sim::{PolicyKind, SimConfig};
use spb_trace::profile::AppProfile;
use spb_tune::{run_tune, Strategy, TuneOptions, TuneOutcome, TuneReport, TuneSpace};
use std::path::Path;

/// The full default space, grid strategy, one job, at the tune budget.
pub fn options(seed: u64) -> TuneOptions {
    TuneOptions {
        strategy: Strategy::Grid,
        seed,
        points: 0,
        space: TuneSpace::default(),
        base_cfg: tune_base_config(seed),
        apps: TUNE_APPS
            .iter()
            .map(|n| {
                AppProfile::spec2017()
                    .into_iter()
                    .find(|a| a.name() == *n)
                    .expect("tune apps are SPEC apps")
            })
            .collect(),
        sweep: SweepOptions::with_jobs(1),
        supervision: Supervision::with_retries(1),
    }
}

/// A one-point tune of the default SPB policy at `sb` over `apps`, at
/// `base_cfg`'s budget: it evaluates exactly the cells a simulator
/// workload runs under SPB, so it is served entirely from a cache
/// holding their results.
pub fn default_point_options(base_cfg: SimConfig, sb: usize, apps: Vec<AppProfile>) -> TuneOptions {
    let PolicyKind::Spb { params } = PolicyKind::spb_default() else {
        unreachable!("the default SPB policy is a base SPB point")
    };
    TuneOptions {
        space: TuneSpace {
            n: vec![params.n],
            dedupe: vec![params.dedupe],
            burst: vec![params.burst],
            frac: vec![params.frac_milli],
            sb: vec![sb],
            dynamic: false,
            feedback: false,
        },
        seed: base_cfg.seed,
        base_cfg,
        apps,
        ..options(0)
    }
}

/// Number of `(point, app)` cells a grid tune of `opts` evaluates.
pub fn cell_count(opts: &TuneOptions) -> u64 {
    (opts.space.len() * opts.apps.len()) as u64
}

/// The checksummed report text `spbsim tune` would save.
pub fn report_text(opts: &TuneOptions, outcome: TuneOutcome) -> String {
    TuneReport {
        name: "perfbench-tune".into(),
        strategy: opts.strategy.label().into(),
        seed: opts.seed,
        points_requested: opts.points,
        warmup_uops: opts.base_cfg.warmup_uops,
        measure_uops: opts.base_cfg.measure_uops,
        workload_seed: opts.base_cfg.seed,
        apps: opts.apps.iter().map(|a| a.name().to_string()).collect(),
        outcome,
    }
    .to_json_string_checksummed()
}

/// A cold tune into a fresh cache at `dir`: every cell must be
/// computed and none may fail. Returns the report text.
///
/// # Errors
///
/// Says what went wrong.
pub fn cold_fill(opts: &TuneOptions, dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir).map_err(|e| format!("cache open: {e}"))?;
    let out = run_tune(opts, &cache);
    let want = cell_count(opts);
    if out.stats.computed != want || !out.failed.is_empty() {
        return Err(format!(
            "cold tune computed {} of {want} cells, {} points failed",
            out.stats.computed,
            out.failed.len()
        ));
    }
    Ok(report_text(opts, out))
}

/// Where a cold fill of `dir` leaves its report.
fn report_path(dir: &Path) -> std::path::PathBuf {
    dir.with_extension("report")
}

/// Saves a cold fill's report beside its cache.
///
/// # Errors
///
/// Says which write failed.
pub fn save_report(dir: &Path, report: &str) -> Result<(), String> {
    let path = report_path(dir);
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))
}

/// [`cold_fill`] of [`options`]`(seed)` in a child process of this
/// benchmark, which waits for it. The fill's worker threads leave
/// allocator arenas behind whose size varies from run to run; in a
/// child they do not add to the measuring process's memory high-water
/// mark, which then reflects the timed read path alone.
///
/// # Errors
///
/// Says how the child failed.
pub fn cold_fill_in_child(seed: u64, dir: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("--cold-fill")
        .arg(dir)
        .args(["--seed", &seed.to_string()])
        .status()
        .map_err(|e| format!("start the cold fill: {e}"))?;
    if !status.success() {
        return Err(format!("cold fill exited with {status}"));
    }
    let path = report_path(dir);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One timed operation: open the cache at `dir` and run the tune.
pub fn warm_op(opts: &TuneOptions, dir: &Path) -> Result<TuneOutcome, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("cache open: {e}"))?;
    Ok(run_tune(opts, &cache))
}

/// Judges a warm tune: every cell served from the cache, nothing
/// computed, and a report byte-identical to the cold one.
///
/// # Errors
///
/// Says which of those failed.
pub fn check_warm(opts: &TuneOptions, outcome: TuneOutcome, cold: &str) -> Result<(), String> {
    let want = cell_count(opts);
    let stats = outcome.stats;
    if stats.computed != 0 || stats.cache_hits != want {
        return Err(format!(
            "warm tune served {} of {want} cells from the cache and computed {}",
            stats.cache_hits, stats.computed
        ));
    }
    if report_text(opts, outcome) != cold {
        return Err("warm tune report differs from the cold one".into());
    }
    Ok(())
}

/// Every cell of the tune with its cached record, in the engine's
/// order (points outer, apps inner).
///
/// # Errors
///
/// Names the first cell that is not a valid cache hit.
pub fn cached_entries(opts: &TuneOptions, dir: &Path) -> Result<Vec<Entry>, String> {
    let cache = ResultCache::open(dir).map_err(|e| format!("cache open: {e}"))?;
    let mut entries = Vec::new();
    for point in opts.space.enumerate() {
        for app in &opts.apps {
            let cfg = opts
                .base_cfg
                .clone()
                .with_sb(point.sb)
                .with_policy(point.policy);
            let key = CacheKey::for_cell(app.name(), &cfg);
            match cache.lookup(key) {
                Lookup::Hit(rec) => entries.push((app.name().to_string(), cfg, rec)),
                other => return Err(format!("{} {}: {other:?}", app.name(), point.name())),
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> TuneOptions {
        let mut opts = options(seed);
        opts.space = TuneSpace {
            n: vec![16],
            dedupe: vec![true],
            burst: vec![0],
            frac: vec![1000],
            sb: vec![14],
            dynamic: false,
            feedback: false,
        };
        opts.apps.truncate(1);
        opts.base_cfg.warmup_uops = 500;
        opts.base_cfg.measure_uops = 2_000;
        opts
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-state")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_tune_on_an_empty_cache_is_a_failure() {
        let opts = tiny(3);
        let filled = scratch("filled");
        let cold = cold_fill(&opts, &filled).expect("cold fill");
        let warm = warm_op(&opts, &filled).unwrap();
        assert_eq!(check_warm(&opts, warm, &cold), Ok(()));

        let empty = scratch("empty");
        let warm = warm_op(&opts, &empty).unwrap();
        let verdict = check_warm(&opts, warm, &cold);
        assert!(verdict.is_err(), "an empty cache served {verdict:?}");
        let _ = std::fs::remove_dir_all(&filled);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn cached_entries_follow_the_engine_keys() {
        let opts = tiny(4);
        let dir = scratch("entries");
        cold_fill(&opts, &dir).expect("cold fill");
        let entries = cached_entries(&opts, &dir).expect("every cell cached");
        assert_eq!(entries.len() as u64, cell_count(&opts));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
