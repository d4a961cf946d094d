//! Parallel, deterministic execution of experiment sweeps.
//!
//! Every figure in the paper is a sweep: a list of `(application,
//! configuration)` cells, each simulated independently. The cells share
//! no mutable state — [`crate::simulation::Simulation`] builds its own memory
//! system and cores from the immutable profile and config — so they can
//! fan out across a worker pool with no effect on the simulated numbers.
//! [`run_cells_supervised`] is the one executor: scoped workers claim
//! cells through an atomic index, run each cell's attempts in a loop
//! (retries, deadlines, chaos per [`Supervision`]) and fill per-cell
//! slots, so results come back in **input order**, bit-identical to a
//! serial run whatever the job count (only [`RunResult::wall_ms`]
//! differs). [`run_cells`] is its all-or-panic form for the grids.
//!
//! [`SweepOptions`] carries the knobs: `jobs` (how many worker threads;
//! the `SPB_JOBS` environment variable or `--jobs` on the CLI) and
//! `progress` (a stderr narrator line per completed cell). A sweep can
//! be summarized as a machine-readable [`SweepReport`] and written as
//! JSON under `results/`.
//!
//! # Examples
//!
//! ```
//! use spb_sim::config::SimConfig;
//! use spb_sim::sweep::{run_cells, SweepOptions};
//! use spb_trace::profile::AppProfile;
//!
//! let apps = [AppProfile::by_name("x264").unwrap()];
//! let cfg = SimConfig::quick();
//! let cells: Vec<_> = apps.iter().map(|a| (a, cfg.clone())).collect();
//! let runs = run_cells(&cells, &SweepOptions::with_jobs(2));
//! assert_eq!(runs[0].app, "x264");
//! ```

use crate::config::SimConfig;
use crate::runner::RunResult;
use crate::simulation::Simulation;
use spb_stats::hash::{fnv1a64, hex16, mix64};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use std::fmt;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How a sweep executes: worker count and progress narration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Number of worker threads (at least 1; 1 = serial).
    pub jobs: usize,
    /// Print a `[k/total] app sb=N policy …s` line to stderr per cell.
    pub progress: bool,
}

impl SweepOptions {
    /// One worker, no narration — identical to the serial path.
    pub fn serial() -> Self {
        Self {
            jobs: 1,
            progress: false,
        }
    }

    /// A fixed worker count (clamped to at least 1), no narration.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            progress: false,
        }
    }

    /// Worker count from the `SPB_JOBS` environment variable, falling
    /// back to the machine's available parallelism. `SPB_JOBS=0` and
    /// unparsable values also fall back.
    pub fn from_env() -> Self {
        let jobs = std::env::var("SPB_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_jobs);
        Self {
            jobs,
            progress: false,
        }
    }

    /// Enables or disables the stderr progress narrator.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item on a pool of `jobs` scoped worker threads
/// and returns the results **in input order**; a panic in `f` fails
/// only that item instead of tearing down the whole pool.
///
/// Workers claim items through an atomic cursor, so scheduling is
/// dynamic (long and short items interleave freely) while the output
/// order stays deterministic. Each invocation of `f` runs under
/// `catch_unwind`, so one poisoned item yields an `Err(panic_message)`
/// in its slot while every other item still completes and returns `Ok`.
/// With `jobs <= 1` this degenerates to a plain serial loop on the
/// calling thread.
fn parallel_map_catch<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_one = |i: usize, item: &T| -> Result<R, String> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message)
    };
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = run_one(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot is filled once all workers join")
        })
        .collect()
}

/// One sweep cell that failed — by panic, deadline, injected chaos, or
/// a structured [`crate::runner::RunError`] — while its siblings
/// carried on.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Application name of the failed cell.
    pub app: String,
    /// Policy label of the failed cell.
    pub policy: String,
    /// Effective SB entries of the failed cell.
    pub sb: usize,
    /// The panic message, deadline notice, or invariant-violation
    /// diagnostic. The prefix encodes the failure class (see
    /// [`CellFailure::is_transient`]).
    pub reason: String,
    /// How many attempts this cell consumed before the supervisor gave
    /// up (1 when no retry was configured).
    pub attempts: u32,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} / {} / sb={}] {}",
            self.app, self.policy, self.sb, self.reason
        )?;
        if self.attempts > 1 {
            write!(f, " (after {} attempts)", self.attempts)?;
        }
        Ok(())
    }
}

impl CellFailure {
    /// Whether a retry could plausibly succeed.
    ///
    /// Worker panics, missed deadlines, and injected chaos are
    /// *transient*: they come from the harness (a poisoned worker, a
    /// slow host, a fault plan), not from the simulated machine, so the
    /// supervisor retries them with backoff. Invariant violations are
    /// *deterministic* — the same cell replays to the same violation —
    /// so they fail fast and keep their full diagnostic.
    pub fn is_transient(&self) -> bool {
        self.reason.starts_with("panic:")
            || self.reason.starts_with("deadline:")
            || self.reason.starts_with("chaos:")
    }

    /// Serializes one failure record (`{app, policy, sb, reason,
    /// attempts}`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::str(&self.app)),
            ("policy", Json::str(&self.policy)),
            ("sb", Json::from(self.sb)),
            ("reason", Json::str(&self.reason)),
            ("attempts", Json::from(u64::from(self.attempts))),
        ])
    }

    /// Parses a failure record; `attempts` defaults to 1 for reports
    /// written before the retry supervisor existed.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        Ok(Self {
            app: field("app")?
                .as_str()
                .ok_or("app must be a string")?
                .to_string(),
            policy: field("policy")?
                .as_str()
                .ok_or("policy must be a string")?
                .to_string(),
            sb: field("sb")?.as_usize().ok_or("sb must be an integer")?,
            reason: field("reason")?
                .as_str()
                .ok_or("reason must be a string")?
                .to_string(),
            attempts: match v.get("attempts") {
                None => 1,
                Some(a) => u32::try_from(a.as_u64().ok_or("attempts must be an integer")?)
                    .map_err(|_| "attempts out of range")?,
            },
        })
    }
}

/// A stable fingerprint of one sweep cell, used to seed per-cell
/// backoff jitter and chaos draws, and as the service's cache-key
/// ingredient. Depends only on cell *content* (app, policy, SB, seed,
/// budgets), never on position in the sweep.
pub fn cell_fingerprint(app: &AppProfile, cfg: &SimConfig) -> u64 {
    fnv1a64(
        format!(
            "{}|{}|{}|{}|{}|{}",
            app.name(),
            cfg.policy.label(),
            cfg.effective_sb(),
            cfg.seed,
            cfg.warmup_uops,
            cfg.measure_uops,
        )
        .as_bytes(),
    )
}

/// Runs one cell to completion, converting every failure mode into a
/// structured [`CellFailure`]: panics are caught, invariant violations
/// carry their diagnostic, and — when `deadline_ms` is set — a cell
/// that overruns its deadline is abandoned on a detached worker thread
/// and reported as `deadline: …`.
pub fn run_cell(
    app: &AppProfile,
    cfg: &SimConfig,
    deadline_ms: Option<u64>,
) -> Result<RunResult, CellFailure> {
    let outcome = match deadline_ms {
        None => std::panic::catch_unwind(AssertUnwindSafe(|| {
            Simulation::with_config(app, cfg).run()
        }))
        .map_err(panic_message),
        Some(ms) => {
            // The simulator has no cancellation points, so a deadline
            // needs an owned, detachable worker: if it overruns we
            // abandon it (it finishes in the background and its late
            // result is dropped with the channel).
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let (app2, cfg2) = (app.clone(), cfg.clone());
            std::thread::Builder::new()
                .name("spb-cell".into())
                .spawn(move || {
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        Simulation::with_config(&app2, &cfg2).run()
                    }))
                    .map_err(panic_message);
                    let _ = tx.send(r);
                })
                .expect("spawn cell worker");
            match rx.recv_timeout(Duration::from_millis(ms)) {
                Ok(r) => r,
                Err(_) => {
                    return Err(failure(
                        app,
                        cfg,
                        format!("deadline: cell exceeded {ms} ms; worker abandoned"),
                    ))
                }
            }
        }
    };
    match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(CellFailure {
            app: e.app,
            policy: e.policy,
            sb: e.sb_entries,
            reason: e.violation.to_string(),
            attempts: 1,
        }),
        Err(msg) => Err(failure(app, cfg, format!("panic: {msg}"))),
    }
}

/// A single-attempt [`CellFailure`] of the cell `(app, cfg)`.
fn failure(app: &AppProfile, cfg: &SimConfig, reason: String) -> CellFailure {
    CellFailure {
        app: app.name().to_string(),
        policy: cfg.policy.label(),
        sb: cfg.effective_sb(),
        reason,
        attempts: 1,
    }
}

/// Deterministic, seeded fault injection for the *harness* (not the
/// simulated machine): makes attempt `a` of a cell "crash" with
/// probability `rate_e4`/10000, drawn reproducibly from the seed, the
/// cell fingerprint, and the attempt number.
///
/// Because the draw includes the attempt number, a chaos failure is
/// genuinely transient — the retry redraws — which is what the retry
/// supervisor's tests and the `serve_smoke` CI gate use to provoke the
/// failure modes a production sweep service must absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Failure probability in units of 1/10000 per attempt.
    pub rate_e4: u32,
    /// Chaos seed (independent of workload and fault seeds).
    pub seed: u64,
}

impl ChaosPlan {
    /// Whether this (cell, attempt) pair is sacrificed.
    pub fn injects(&self, cell_fingerprint: u64, attempt: u32) -> bool {
        let draw = mix64(mix64(self.seed ^ cell_fingerprint) ^ u64::from(attempt));
        draw % 10_000 < u64::from(self.rate_e4)
    }
}

/// Retry, deadline and chaos policy for a supervised sweep.
///
/// The default is exactly the old executor: one attempt, no deadline,
/// no chaos.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Total attempts per cell (at least 1; 1 = no retry).
    pub max_attempts: u32,
    /// Base backoff before the first retry, in milliseconds. Retry `k`
    /// (attempt `k+1`) waits `base · 2^(k-1)` plus jitter in
    /// `[0, base)`.
    pub base_backoff_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
    /// Per-attempt wall-clock deadline (None = unbounded).
    pub deadline_ms: Option<u64>,
    /// Optional harness-level fault injection (tests, smoke gates).
    pub chaos: Option<ChaosPlan>,
}

impl Default for Supervision {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_ms: 25,
            max_backoff_ms: 2_000,
            backoff_seed: 0x5bb0_ff1e,
            deadline_ms: None,
            chaos: None,
        }
    }
}

impl Supervision {
    /// `n` total attempts with the default backoff curve.
    pub fn with_retries(n: u32) -> Self {
        Self {
            max_attempts: n.max(1),
            ..Self::default()
        }
    }

    /// Backoff before `attempt` (2 = first retry) of the cell with this
    /// fingerprint: deterministic exponential growth plus seeded
    /// jitter, capped at [`Supervision::max_backoff_ms`]. Attempt 1
    /// never waits.
    pub fn backoff_ms(&self, cell_fingerprint: u64, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << u64::from(attempt - 2).min(16));
        let jitter = mix64(self.backoff_seed ^ cell_fingerprint ^ u64::from(attempt))
            % self.base_backoff_ms.max(1);
        exp.saturating_add(jitter).min(self.max_backoff_ms)
    }
}

/// Runs every cell under full supervision: panics, deadline overruns
/// and injected chaos become transient [`CellFailure`]s that are
/// retried up to [`Supervision::max_attempts`] times with deterministic
/// seeded exponential backoff, while invariant violations fail fast.
/// Returns, **in input order**, each cell's final result and the number
/// of attempts it consumed; failures also carry the attempt count in
/// [`CellFailure::attempts`].
///
/// Each worker runs all of one cell's attempts, backoff included,
/// before it claims the next cell; a retry never waits for the other
/// cells' attempts. Retries
/// re-run the *identical* deterministic simulation, so a cell that
/// succeeds on any attempt yields the same [`RunResult`] a
/// first-attempt success would have — supervision never perturbs
/// simulated numbers. With [`Supervision::default`] (one attempt, no
/// deadline, no chaos) each cell is exactly one caught
/// `Simulation::run`.
///
/// With `opts.progress`, each settled cell prints a narrator line such
/// as `[12/69] x264 sb=14 spb-burst(48) 1.8s` to stderr; the counter
/// reflects completion order, not input order. When retries are
/// configured every line names its attempt, and failed attempts that
/// will be retried print too.
pub fn run_cells_supervised(
    cells: &[(&AppProfile, SimConfig)],
    opts: &SweepOptions,
    sup: &Supervision,
) -> Vec<(Result<RunResult, CellFailure>, u32)> {
    let total = cells.len();
    let max_attempts = sup.max_attempts.max(1);
    let settled = AtomicUsize::new(0);
    let narrate = |res: &Result<RunResult, CellFailure>, attempt: u32, last: bool| {
        let tag = if last {
            format!("[{}/{total}] ", settled.fetch_add(1, Ordering::Relaxed) + 1)
        } else {
            String::new()
        };
        let tries = if max_attempts > 1 {
            format!(" (attempt {attempt}/{max_attempts})")
        } else {
            String::new()
        };
        match res {
            Ok(r) => eprintln!(
                "{tag}{} sb={} {} {:.1}s{tries}",
                r.app,
                r.sb_entries,
                r.policy,
                r.wall_ms / 1000.0
            ),
            Err(f) => eprintln!(
                "{tag}{} sb={} {} FAILED: {}{tries}",
                f.app,
                f.sb,
                f.policy,
                f.reason.lines().next().unwrap_or("")
            ),
        }
    };
    let outcomes = parallel_map_catch(cells, opts.jobs, |_, (app, cfg)| {
        let key = cell_fingerprint(app, cfg);
        let mut attempt = 1;
        loop {
            if attempt > 1 {
                std::thread::sleep(Duration::from_millis(sup.backoff_ms(key, attempt)));
            }
            let res = match sup.chaos {
                Some(chaos) if chaos.injects(key, attempt) => Err(failure(
                    app,
                    cfg,
                    format!("chaos: injected worker crash (attempt {attempt})"),
                )),
                _ => run_cell(app, cfg, sup.deadline_ms),
            }
            .map_err(|f| CellFailure {
                attempts: attempt,
                ..f
            });
            let retry = matches!(&res, Err(f) if f.is_transient() && attempt < max_attempts);
            if opts.progress {
                narrate(&res, attempt, !retry);
            }
            if !retry {
                return (res, attempt);
            }
            attempt += 1;
        }
    });
    outcomes
        .into_iter()
        .zip(cells)
        .map(|(slot, (app, cfg))| {
            slot.unwrap_or_else(|msg| (Err(failure(app, cfg, format!("panic: {msg}"))), 1))
        })
        .collect()
}

/// Runs every `(application, configuration)` cell once and returns the
/// results in input order: [`run_cells_supervised`] with
/// [`Supervision::default`], all or nothing.
///
/// This is the execution core behind [`crate::suite::SuiteResult::run`]
/// and the experiment grids: results are identical to running the cells
/// one by one in order (modulo the wall-clock fields).
///
/// # Panics
///
/// Panics with the collected diagnostics if any cell failed — but only
/// after **every** cell has been attempted. Sweeps that must keep the
/// surviving results call [`run_cells_supervised`] directly.
pub fn run_cells(cells: &[(&AppProfile, SimConfig)], opts: &SweepOptions) -> Vec<RunResult> {
    let mut runs = Vec::with_capacity(cells.len());
    let mut failures = Vec::new();
    for (r, _) in run_cells_supervised(cells, opts, &Supervision::default()) {
        match r {
            Ok(run) => runs.push(run),
            Err(f) => failures.push(f.to_string()),
        }
    }
    assert!(
        failures.is_empty(),
        "{} sweep cell(s) failed:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    runs
}

/// One row of a machine-readable sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Application name.
    pub app: String,
    /// Policy label.
    pub policy: String,
    /// Effective SB entries.
    pub sb: usize,
    /// Measured cycles.
    pub cycles: u64,
    /// Committed µops in the measured window.
    pub uops: u64,
    /// Committed µops per cycle.
    pub ipc: f64,
    /// Host wall-clock time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Total energy of the measured window in nJ ([`spb-energy`]'s
    /// model). Only populated by [`SweepRecord::from_run_full`] (every
    /// record of the result cache); serialized only when present, so
    /// reports built with [`SweepRecord::from_run`] (the figure grid)
    /// stay byte-identical.
    pub energy_nj: Option<f64>,
    /// Coherence-traffic messages of the measured window
    /// ([`spb_mem::MemStats::coherence_traffic`]). Same only-when-present
    /// rule as `energy_nj`.
    pub coh_msgs: Option<u64>,
}

impl SweepRecord {
    /// Summarizes one run.
    pub fn from_run(r: &RunResult) -> Self {
        Self {
            app: r.app.clone(),
            policy: r.policy.clone(),
            sb: r.sb_entries,
            cycles: r.cycles,
            uops: r.uops,
            ipc: r.ipc(),
            wall_ms: r.wall_ms,
            energy_nj: None,
            coh_msgs: None,
        }
    }

    /// Summarizes one run *with* the multi-objective fields the tuner
    /// scores on (energy, coherence traffic).
    pub fn from_run_full(r: &RunResult) -> Self {
        Self {
            energy_nj: Some(r.energy.total_nj()),
            coh_msgs: Some(r.mem.coherence_traffic()),
            ..Self::from_run(r)
        }
    }

    /// Serializes one record (`{app, policy, sb, cycles, uops, ipc,
    /// wall_ms}`, plus `energy_nj`/`coh_msgs` when present).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("app", Json::str(&self.app)),
            ("policy", Json::str(&self.policy)),
            ("sb", Json::from(self.sb)),
            ("cycles", Json::from(self.cycles)),
            ("uops", Json::from(self.uops)),
            ("ipc", Json::from(self.ipc)),
            ("wall_ms", Json::from(self.wall_ms)),
        ];
        if let Some(e) = self.energy_nj {
            pairs.push(("energy_nj", Json::from(e)));
        }
        if let Some(c) = self.coh_msgs {
            pairs.push(("coh_msgs", Json::from(c)));
        }
        Json::obj(pairs)
    }

    /// Parses one record.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field {k:?}"));
        Ok(Self {
            app: field("app")?
                .as_str()
                .ok_or("app must be a string")?
                .to_string(),
            policy: field("policy")?
                .as_str()
                .ok_or("policy must be a string")?
                .to_string(),
            sb: field("sb")?.as_usize().ok_or("sb must be an integer")?,
            cycles: field("cycles")?
                .as_u64()
                .ok_or("cycles must be an integer")?,
            uops: field("uops")?.as_u64().ok_or("uops must be an integer")?,
            ipc: field("ipc")?.as_f64().ok_or("ipc must be a number")?,
            wall_ms: field("wall_ms")?
                .as_f64()
                .ok_or("wall_ms must be a number")?,
            energy_nj: match v.get("energy_nj") {
                None => None,
                Some(e) => Some(e.as_f64().ok_or("energy_nj must be a number")?),
            },
            coh_msgs: match v.get("coh_msgs") {
                None => None,
                Some(c) => Some(c.as_u64().ok_or("coh_msgs must be an integer")?),
            },
        })
    }
}

/// A named collection of [`SweepRecord`]s, serializable as JSON.
///
/// The on-disk schema is one object:
///
/// ```json
/// {
///   "name": "sweep-x264",
///   "records": [
///     {"app": "x264", "policy": "spb-burst(48)", "sb": 14,
///      "cycles": 123456, "uops": 300000, "ipc": 2.43, "wall_ms": 1810.2}
///   ]
/// }
/// ```
///
/// A sweep with failed cells additionally carries a `"failed"` array of
/// `{app, policy, sb, reason}` objects; a report with sweep-level
/// metrics carries a `"metrics"` object (see
/// [`spb_obs::MetricsRegistry`]). A fully clean, metrics-less report
/// serializes without either key, byte-identical to the schema above.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Report name (becomes the file stem under `results/`).
    pub name: String,
    /// One record per run, in sweep order.
    pub records: Vec<SweepRecord>,
    /// Cells that panicked or tripped the invariant checker (empty for a
    /// clean sweep), with their diagnostics.
    pub failed: Vec<CellFailure>,
    /// Optional sweep-level metrics (executor counters, host timings),
    /// serialized as-is under `"metrics"`.
    pub metrics: Option<Json>,
}

impl SweepReport {
    /// Summarizes `runs` under `name`.
    pub fn new(name: impl Into<String>, runs: &[RunResult]) -> Self {
        Self {
            name: name.into(),
            records: runs.iter().map(SweepRecord::from_run).collect(),
            failed: Vec::new(),
            metrics: None,
        }
    }

    fn body_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            (
                "records",
                Json::arr(self.records.iter().map(SweepRecord::to_json)),
            ),
        ];
        if !self.failed.is_empty() {
            pairs.push((
                "failed",
                Json::arr(self.failed.iter().map(CellFailure::to_json)),
            ));
        }
        if let Some(m) = &self.metrics {
            pairs.push(("metrics", m.clone()));
        }
        Json::obj(pairs)
    }

    /// Renders the report as pretty-printed JSON (without a checksum —
    /// this is also the canonical text the checksum is computed over).
    pub fn to_json_string(&self) -> String {
        format!("{:#}\n", self.body_json())
    }

    /// The report's content checksum: `fnv1a64:` plus 16 hex digits of
    /// the digest of [`SweepReport::to_json_string`].
    pub fn content_checksum(&self) -> String {
        format!("fnv1a64:{}", hex16(fnv1a64(self.to_json_string().as_bytes())))
    }

    /// Renders the report with a trailing `"checksum"` field that
    /// [`SweepReport::parse`] validates. This is what
    /// [`SweepReport::save`] writes.
    pub fn to_json_string_checksummed(&self) -> String {
        let mut v = self.body_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.push(("checksum".to_string(), Json::str(self.content_checksum())));
        }
        format!("{v:#}\n")
    }

    /// Parses a report back from its JSON text.
    ///
    /// If the text carries a `"checksum"` field (reports saved since
    /// the field was introduced do; older artifacts don't), the
    /// re-serialized content is digested and compared: a mismatch —
    /// flipped bytes, a truncated-then-patched file, a hand edit —
    /// fails with a clear error instead of silently returning corrupt
    /// numbers.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing report name")?
            .to_string();
        let records = v
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?
            .iter()
            .map(SweepRecord::from_json)
            .collect::<Result<_, _>>()?;
        let failed = match v.get("failed") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("failed must be an array")?
                .iter()
                .map(CellFailure::from_json)
                .collect::<Result<_, _>>()?,
        };
        let report = Self {
            name,
            records,
            failed,
            metrics: v.get("metrics").cloned(),
        };
        if let Some(stated) = v.get("checksum") {
            let stated = stated.as_str().ok_or("checksum must be a string")?;
            let computed = report.content_checksum();
            if stated != computed {
                return Err(format!(
                    "checksum mismatch: file says {stated}, content hashes to {computed} \
                     — the report is corrupted (or was hand-edited)"
                ));
            }
        }
        Ok(report)
    }

    /// Writes the report as `<dir>/<name>.json` (creating `dir`) and
    /// returns the path written. See [`SweepReport::save_as`] for the
    /// crash-safety contract.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        self.save_as(&path)?;
        Ok(path)
    }

    /// Crash-safe write to an exact path: the checksummed text goes to
    /// a temporary file in the same directory, is flushed to disk, and
    /// is atomically renamed over `path` — a reader (or a restart after
    /// `kill -9`) sees either the complete old report or the complete
    /// new one, never a torn write, and the embedded checksum catches
    /// anything the filesystem mangles later.
    pub fn save_as(&self, path: &Path) -> std::io::Result<()> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = match dir {
            Some(d) => d.join(format!(
                ".{}.tmp{}",
                path.file_name().and_then(|n| n.to_str()).unwrap_or("report"),
                std::process::id()
            )),
            None => PathBuf::from(format!(".{}.tmp{}", path.display(), std::process::id())),
        };
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.to_json_string_checksummed().as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let out: Vec<u64> = parallel_map_catch(&items, jobs, |i, &v| {
                assert_eq!(i as u64, v);
                v * v
            })
            .into_iter()
            .map(Result::unwrap)
            .collect();
            assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map_catch(&none, 4, |_, v| *v).is_empty());
        assert_eq!(parallel_map_catch(&[5u32], 4, |_, v| *v + 1), vec![Ok(6)]);
    }

    #[test]
    fn parallel_map_catch_isolates_a_panicking_item() {
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 4] {
            let out = parallel_map_catch(&items, jobs, |_, &v| {
                if v == 7 {
                    panic!("cell {v} poisoned");
                }
                v * 2
            });
            for (i, r) in out.iter().enumerate() {
                if i == 7 {
                    assert!(r.as_ref().unwrap_err().contains("poisoned"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2);
                }
            }
        }
    }

    #[test]
    fn parallel_map_repanics_only_after_all_items_ran() {
        let attempted = AtomicUsize::new(0);
        let items: Vec<u32> = (0..8).collect();
        let out = parallel_map_catch(&items, 2, |_, &v| {
            attempted.fetch_add(1, Ordering::Relaxed);
            if v == 0 {
                panic!("first cell dies");
            }
            v
        });
        assert_eq!(
            attempted.load(Ordering::Relaxed),
            8,
            "every sibling item was still attempted"
        );
        assert!(out[0].as_ref().unwrap_err().contains("first cell dies"));
        // `run_cells` turns a failed cell into a panic for its caller,
        // after its siblings ran.
        let app = AppProfile::by_name("x264").unwrap();
        let cells = vec![(&app, tiny().with_sb(0)), (&app, tiny())];
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_cells(&cells, &SweepOptions::with_jobs(2))
        }));
        let msg = panic_message(res.expect_err("the panic still propagates to the caller"));
        assert!(msg.starts_with("1 sweep cell(s) failed"), "msg: {msg}");
    }

    #[test]
    fn run_cells_supervised_survives_a_poisoned_cell() {
        let app = AppProfile::by_name("x264").unwrap();
        let mut quick = SimConfig::quick();
        quick.warmup_uops = 2_000;
        quick.measure_uops = 10_000;
        // A structurally invalid config: the run panics on the zero-entry
        // SB before simulating anything.
        let bad = quick.clone().with_sb(0);
        let cells = vec![(&app, quick.clone()), (&app, bad), (&app, quick.clone())];
        let out = run_cells_supervised(
            &cells,
            &SweepOptions::with_jobs(2),
            &Supervision::default(),
        );

        assert_eq!(out.len(), 3);
        let policy = quick.policy.label();
        for i in [0, 2] {
            let (run, attempts) = &out[i];
            let run = run.as_ref().expect("siblings survive");
            assert_eq!(run.policy, policy);
            assert_eq!(run.sb_entries, quick.effective_sb());
            assert_eq!(*attempts, 1);
        }
        let (res, attempts) = &out[1];
        let f = res.as_ref().unwrap_err();
        assert_eq!(f.app, "x264");
        assert_eq!(f.sb, 0);
        assert_eq!((*attempts, f.attempts), (1, 1), "no retry by default");
        assert!(f.reason.contains("panic:"), "reason: {}", f.reason);

        let report = SweepReport {
            name: "partial".into(),
            records: vec![],
            failed: vec![f.clone()],
            metrics: None,
        };
        let text = report.to_json_string();
        assert!(text.contains("\"failed\""));
        assert_eq!(SweepReport::parse(&text).unwrap(), report);
    }

    #[test]
    fn sweep_options_clamp_and_env_fallback() {
        assert_eq!(SweepOptions::with_jobs(0).jobs, 1);
        assert!(SweepOptions::from_env().jobs >= 1);
        assert!(!SweepOptions::serial().progress);
        assert!(SweepOptions::serial().progress(true).progress);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = SweepReport {
            name: "unit".into(),
            records: vec![
                SweepRecord {
                    app: "x264".into(),
                    policy: "spb-burst(48)".into(),
                    sb: 14,
                    cycles: 123_456,
                    uops: 300_000,
                    ipc: 300_000.0 / 123_456.0,
                    wall_ms: 1810.25,
                    energy_nj: Some(987.125),
                    coh_msgs: Some(4242),
                },
                SweepRecord {
                    app: "lbm".into(),
                    policy: "at-commit".into(),
                    sb: 56,
                    cycles: 1,
                    uops: 0,
                    ipc: 0.0,
                    wall_ms: 0.5,
                    energy_nj: None,
                    coh_msgs: None,
                },
            ],
            failed: vec![],
            metrics: None,
        };
        let text = report.to_json_string();
        assert_eq!(SweepReport::parse(&text).unwrap(), report);
        assert!(
            !text.contains("failed"),
            "clean reports keep the pre-failure schema: {text}"
        );
        assert!(
            !text.contains("metrics"),
            "metrics-less reports keep the pre-metrics schema: {text}"
        );
    }

    #[test]
    fn report_round_trips_the_metrics_section() {
        let mut reg = spb_obs::MetricsRegistry::new();
        reg.component("sweep")
            .counter("cells", 230)
            .gauge("wall_ms", 1234.5);
        let report = SweepReport {
            name: "with-metrics".into(),
            records: vec![],
            failed: vec![],
            metrics: Some(reg.to_json()),
        };
        let text = report.to_json_string();
        let back = SweepReport::parse(&text).unwrap();
        assert_eq!(back, report);
        let cells = back
            .metrics
            .as_ref()
            .and_then(|m| m.get("sweep"))
            .and_then(|c| c.get("counters"))
            .and_then(|c| c.get("cells"))
            .and_then(Json::as_u64);
        assert_eq!(cells, Some(230));
    }

    #[test]
    fn report_parse_reports_schema_errors() {
        assert!(SweepReport::parse("{}").is_err());
        assert!(SweepReport::parse(r#"{"name":"x","records":[{}]}"#)
            .unwrap_err()
            .contains("app"));
        assert!(SweepReport::parse("not json").is_err());
    }

    /// A tiny quick-ish config that still simulates real work.
    fn tiny() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.warmup_uops = 2_000;
        cfg.measure_uops = 10_000;
        cfg
    }

    #[test]
    fn supervised_retry_converges_under_chaos() {
        let app = AppProfile::by_name("x264").unwrap();
        let cells: Vec<_> = [14usize, 28, 56]
            .iter()
            .map(|&sb| (&app, tiny().with_sb(sb)))
            .collect();
        let baseline =
            run_cells_supervised(&cells, &SweepOptions::serial(), &Supervision::default());
        // Chaos at 100%: with rate_e4 = 10_000 every attempt is
        // sacrificed, so even generous retries end in chaos failures…
        let all_fail = Supervision {
            max_attempts: 3,
            base_backoff_ms: 0,
            chaos: Some(ChaosPlan {
                rate_e4: 10_000,
                seed: 7,
            }),
            ..Supervision::default()
        };
        for (res, attempts) in run_cells_supervised(&cells, &SweepOptions::with_jobs(2), &all_fail)
        {
            let f = res.unwrap_err();
            assert!(f.reason.starts_with("chaos:"), "reason: {}", f.reason);
            assert!(f.is_transient());
            assert_eq!(attempts, 3, "all attempts consumed");
            assert_eq!(f.attempts, 3);
        }
        // …while a heavy-but-partial rate converges: every cell ends in
        // the bit-identical result of the unsupervised run. The chaos
        // draw is deterministic, so pick (by search) a seed that
        // sacrifices at least one cell's first attempt — guaranteeing
        // the retry path actually runs — and predict each cell's
        // attempt count straight from the plan.
        let fps: Vec<u64> = cells.iter().map(|(a, c)| cell_fingerprint(a, c)).collect();
        let plan = (0..)
            .map(|seed| ChaosPlan {
                rate_e4: 4_000,
                seed,
            })
            .find(|p| fps.iter().any(|&fp| p.injects(fp, 1)))
            .unwrap();
        let expected_attempts: Vec<u32> = fps
            .iter()
            .map(|&fp| (1..=10).find(|&a| !plan.injects(fp, a)).unwrap())
            .collect();
        let flaky = Supervision {
            max_attempts: 10,
            base_backoff_ms: 0,
            chaos: Some(plan),
            ..Supervision::default()
        };
        let out = run_cells_supervised(&cells, &SweepOptions::with_jobs(2), &flaky);
        for (i, ((res, attempts), base)) in out.into_iter().zip(&baseline).enumerate() {
            let run = res.expect("10 attempts at 40% chaos converge");
            let base = base.0.as_ref().unwrap();
            assert_eq!(run.cycles, base.cycles, "retries never perturb results");
            assert_eq!(run.uops, base.uops);
            assert_eq!(attempts, expected_attempts[i], "attempts follow the plan");
        }
        assert!(
            expected_attempts.iter().any(|&a| a > 1),
            "the searched seed guarantees at least one retry"
        );
    }

    #[test]
    fn supervised_invariant_violations_fail_fast() {
        let app = AppProfile::by_name("x264").unwrap();
        // A watchdog this tight trips deterministically long before the
        // budget completes — the same violation on every attempt.
        let mut cfg = tiny();
        cfg.watchdog_cycles = 1;
        let cells = vec![(&app, cfg)];
        let sup = Supervision {
            max_attempts: 5,
            base_backoff_ms: 0,
            ..Supervision::default()
        };
        let (res, attempts) = run_cells_supervised(&cells, &SweepOptions::serial(), &sup)
            .pop()
            .unwrap();
        let f = res.unwrap_err();
        assert!(!f.is_transient(), "watchdog violations are deterministic");
        assert_eq!(attempts, 1, "fail-fast: no retries burned");
        assert_eq!(f.attempts, 1);
    }

    #[test]
    fn supervised_panics_are_retried_but_still_fail_deterministic_bugs() {
        let app = AppProfile::by_name("x264").unwrap();
        // sb=0 panics in construction on every attempt: transient by
        // classification (panic), so retries are burned, but the final
        // failure records them all.
        let cells = vec![(&app, tiny().with_sb(0))];
        let sup = Supervision {
            max_attempts: 3,
            base_backoff_ms: 0,
            ..Supervision::default()
        };
        let (res, attempts) = run_cells_supervised(&cells, &SweepOptions::serial(), &sup)
            .pop()
            .unwrap();
        let f = res.unwrap_err();
        assert!(f.reason.starts_with("panic:"), "reason: {}", f.reason);
        assert_eq!(attempts, 3);
        assert_eq!(f.attempts, 3);
        assert!(f.to_string().contains("after 3 attempts"));
    }

    #[test]
    fn run_cell_deadline_abandons_slow_cells() {
        let app = AppProfile::by_name("x264").unwrap();
        // A full paper-budget cell takes well over a millisecond even on
        // a fast host, so a 1 ms deadline reliably fires; the abandoned
        // worker finishes harmlessly in the background.
        let slow = SimConfig::paper_default();
        let f = run_cell(&app, &slow, Some(1)).unwrap_err();
        assert!(f.reason.starts_with("deadline:"), "reason: {}", f.reason);
        assert!(f.is_transient());
        // A generous deadline changes nothing about the result.
        let unbounded = run_cell(&app, &tiny(), None).unwrap();
        let bounded = run_cell(&app, &tiny(), Some(60_000)).unwrap();
        assert_eq!(unbounded.cycles, bounded.cycles);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let sup = Supervision::with_retries(8);
        let fp = cell_fingerprint(
            &AppProfile::by_name("x264").unwrap(),
            &SimConfig::quick(),
        );
        assert_eq!(sup.backoff_ms(fp, 1), 0, "first attempt never waits");
        let b2 = sup.backoff_ms(fp, 2);
        let b3 = sup.backoff_ms(fp, 3);
        assert_eq!(b2, sup.backoff_ms(fp, 2), "deterministic");
        assert!(b2 >= sup.base_backoff_ms && b2 < 2 * sup.base_backoff_ms);
        assert!(b3 > b2, "exponential growth");
        for a in 2..40 {
            assert!(sup.backoff_ms(fp, a) <= sup.max_backoff_ms, "capped");
        }
        // Different cells jitter differently (with overwhelming
        // probability for any fixed pair).
        assert_ne!(sup.backoff_ms(fp, 2), sup.backoff_ms(fp ^ 1, 2));
    }

    #[test]
    fn cell_fingerprint_depends_on_content_not_position() {
        let a = AppProfile::by_name("x264").unwrap();
        let b = AppProfile::by_name("lbm").unwrap();
        let cfg = SimConfig::quick();
        assert_eq!(cell_fingerprint(&a, &cfg), cell_fingerprint(&a, &cfg));
        assert_ne!(cell_fingerprint(&a, &cfg), cell_fingerprint(&b, &cfg));
        assert_ne!(
            cell_fingerprint(&a, &cfg),
            cell_fingerprint(&a, &cfg.clone().with_sb(28))
        );
    }

    #[test]
    fn checksummed_report_round_trips_and_rejects_corruption() {
        let report = SweepReport {
            name: "chk".into(),
            records: vec![SweepRecord {
                app: "x264".into(),
                policy: "spb".into(),
                sb: 14,
                cycles: 123_456,
                uops: 300_000,
                ipc: 300_000.0 / 123_456.0,
                wall_ms: 10.5,
                energy_nj: None,
                coh_msgs: None,
            }],
            failed: vec![],
            metrics: None,
        };
        let text = report.to_json_string_checksummed();
        assert!(text.contains("\"checksum\": \"fnv1a64:"));
        assert_eq!(SweepReport::parse(&text).unwrap(), report);
        // Flip one digit inside a number: still valid JSON, but the
        // checksum catches it.
        let corrupt = text.replacen("123456", "123457", 1);
        let err = SweepReport::parse(&corrupt).unwrap_err();
        assert!(err.contains("checksum mismatch"), "err: {err}");
        // A checksum that is not even a string errors clearly too.
        let bad_type = text.replace(&report.content_checksum(), "");
        assert!(SweepReport::parse(&bad_type)
            .unwrap_err()
            .contains("checksum mismatch"));
    }

    #[test]
    fn save_is_atomic_and_checksummed() {
        let dir = std::env::temp_dir().join(format!("spb-save-atomic-{}", std::process::id()));
        let report = SweepReport {
            name: "atomic".into(),
            records: vec![],
            failed: vec![],
            metrics: None,
        };
        let path = report.save(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"checksum\""), "saved reports carry one");
        assert_eq!(SweepReport::parse(&text).unwrap(), report);
        // No tmp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(litter.is_empty(), "tmp files must be renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_saves_and_reloads_from_disk() {
        let dir = std::env::temp_dir().join("spb-sweep-test");
        let report = SweepReport {
            name: "roundtrip".into(),
            records: vec![SweepRecord {
                app: "gcc".into(),
                policy: "none".into(),
                sb: 28,
                cycles: 10,
                uops: 20,
                ipc: 2.0,
                wall_ms: 3.5,
                energy_nj: None,
                coh_msgs: None,
            }],
            failed: vec![],
            metrics: None,
        };
        let path = report.save(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(SweepReport::parse(&text).unwrap(), report);
        std::fs::remove_file(path).unwrap();
    }
}
