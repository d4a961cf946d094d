//! The exploration engine: strategy → candidate points → supervised,
//! cache-backed evaluation → objective vectors.
//!
//! Every candidate point is expanded into one sweep cell per app and
//! pushed through the same machinery as `spbsim sweep`:
//!
//! - [`spb_serve::run_cached`] probes the **content-addressed cache**
//!   first — a cell whose `(code version, app, full config)` key has a
//!   cached record costs nothing, so re-running a tune (or sharing
//!   cells between tunes, or with `spbsim sweep` and the sweep service)
//!   is a cache hit;
//! - misses run under [`spb_sim::sweep::run_cells_supervised`] —
//!   retries with backoff, fault classification, watchdog deadlines —
//!   and their records (with energy/coherence objectives) are stored
//!   back.
//!
//! Everything is deterministic for a fixed `(space, strategy, seed,
//! points, budget, apps)`: candidate selection is a seeded shuffle,
//! evaluation order is canonical, objective sums are accumulated in app
//! order, and the simulated numbers themselves are bit-reproducible.

use crate::pareto::{pareto_frontier, Objectives};
use crate::space::{TunePoint, TuneSpace};
use spb_serve::{run_cached, ResultCache};
use spb_sim::config::SimConfig;
use spb_sim::sweep::{Supervision, SweepOptions};
use spb_trace::profile::AppProfile;

/// How candidate points are chosen from the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The first `points` of the canonical enumeration (all of them
    /// when `points` is 0 or exceeds the space).
    Grid,
    /// A seeded random sample of `points` distinct points.
    Random,
    /// Successive halving: a seeded sample of `points` candidates is
    /// screened at a quarter of the budget; the best quarter (by total
    /// cycles) re-runs at the full budget.
    Halving,
}

impl Strategy {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "grid" => Ok(Strategy::Grid),
            "random" => Ok(Strategy::Random),
            "halving" => Ok(Strategy::Halving),
            other => Err(format!(
                "unknown strategy {other:?} (valid: grid, random, halving)"
            )),
        }
    }

    /// The CLI spelling.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Grid => "grid",
            Strategy::Random => "random",
            Strategy::Halving => "halving",
        }
    }
}

/// Everything one tune run needs.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Candidate-selection strategy.
    pub strategy: Strategy,
    /// Sampling seed (`Random` / `Halving`).
    pub seed: u64,
    /// Number of candidate points (0 = the whole space for `Grid`;
    /// `Random`/`Halving` treat 0 as the whole space too).
    pub points: usize,
    /// The space to explore.
    pub space: TuneSpace,
    /// Per-cell budget and workload seed; `with_sb`/`with_policy` are
    /// applied per point on top of this.
    pub base_cfg: SimConfig,
    /// Apps every point is scored over (objective sums run in this
    /// order).
    pub apps: Vec<AppProfile>,
    /// Worker-pool options for cache misses.
    pub sweep: SweepOptions,
    /// Retry/deadline supervision for cache misses.
    pub supervision: Supervision,
}

/// One evaluated `(point, app)` cell, with its cache-key provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// App name.
    pub app: String,
    /// Content-addressed cache key (16 hex digits) — the cell's full
    /// provenance: code version + app + entire `SimConfig`.
    pub key: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Total energy, nJ.
    pub energy_nj: f64,
    /// Coherence-traffic messages.
    pub coh_msgs: u64,
}

/// One fully evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// The configuration.
    pub point: TunePoint,
    /// Per-app results, in app order.
    pub cells: Vec<CellOutcome>,
    /// Objective sums across the app list.
    pub objectives: Objectives,
    /// Whether the point is on the Pareto frontier.
    pub pareto: bool,
}

/// A point that failed to evaluate (some cell exhausted its retries).
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// The point's display name.
    pub point: String,
    /// The first failing cell's diagnostic.
    pub reason: String,
}

/// Cache traffic of one tune run. Deliberately **not** part of the
/// report file (a re-run serves from cache and must stay bit-identical);
/// the CLI prints it to the terminal instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Cells served from the content-addressed cache.
    pub cache_hits: u64,
    /// Cells simulated this run.
    pub computed: u64,
}

/// The result of a tune run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Every point evaluated at the full budget, in candidate order,
    /// with `pareto` flags set.
    pub points: Vec<PointOutcome>,
    /// Indices into `points` of the Pareto frontier.
    pub frontier: Vec<usize>,
    /// Points dropped because a cell failed after retries.
    pub failed: Vec<PointFailure>,
    /// For `Halving`: `(candidates screened, survivors)`.
    pub screen: Option<(usize, usize)>,
    /// Cache hit/compute counters (terminal-only; not in the report).
    pub stats: TuneStats,
}

/// Runs one tune: selects candidates, evaluates them through the cache
/// and the supervised executor, and extracts the Pareto frontier.
pub fn run_tune(opts: &TuneOptions, cache: &ResultCache) -> TuneOutcome {
    let space_len = opts.space.len();
    let count = if opts.points == 0 {
        space_len
    } else {
        opts.points.min(space_len)
    };
    let mut stats = TuneStats::default();
    let mut failed = Vec::new();
    let mut screen = None;

    let candidates = match opts.strategy {
        Strategy::Grid => {
            let mut points = opts.space.enumerate();
            points.truncate(count);
            points
        }
        Strategy::Random => opts.space.sample(opts.seed, count),
        Strategy::Halving => {
            let sampled = opts.space.sample(opts.seed, count);
            let screened = evaluate(
                &sampled,
                &screen_config(&opts.base_cfg),
                &opts.apps,
                cache,
                &opts.sweep,
                &opts.supervision,
                &mut stats,
                &mut failed,
            );
            // Keep the best quarter by total cycles; ties resolve by
            // candidate order (sort is stable).
            let survivors = count.div_ceil(4).max(1).min(screened.len());
            let mut ranked: Vec<&PointOutcome> = screened.iter().collect();
            ranked.sort_by_key(|p| p.objectives.cycles);
            screen = Some((sampled.len(), survivors));
            ranked[..survivors].iter().map(|p| p.point).collect()
        }
    };

    let mut points = evaluate(
        &candidates,
        &opts.base_cfg,
        &opts.apps,
        cache,
        &opts.sweep,
        &opts.supervision,
        &mut stats,
        &mut failed,
    );
    let objectives: Vec<Objectives> = points.iter().map(|p| p.objectives).collect();
    let frontier = pareto_frontier(&objectives);
    for &i in &frontier {
        points[i].pareto = true;
    }
    TuneOutcome {
        points,
        frontier,
        failed,
        screen,
        stats,
    }
}

/// The successive-halving screen budget: a quarter of the warmup and
/// measure windows (floored so tiny budgets stay meaningful).
fn screen_config(base: &SimConfig) -> SimConfig {
    let mut cfg = base.clone();
    cfg.warmup_uops = (base.warmup_uops / 4).max(1_000);
    cfg.measure_uops = (base.measure_uops / 4).max(5_000);
    cfg
}

/// Evaluates `points` at `cfg`'s budget through the cache-backed runner,
/// then aggregates objectives. Points whose cells all resolve come back
/// in candidate order; failing points are moved to `failed`.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    points: &[TunePoint],
    cfg: &SimConfig,
    apps: &[AppProfile],
    cache: &ResultCache,
    sweep: &SweepOptions,
    supervision: &Supervision,
    stats: &mut TuneStats,
    failed: &mut Vec<PointFailure>,
) -> Vec<PointOutcome> {
    // One (point, app) cell each: points outer, apps inner.
    let cells: Vec<(&AppProfile, SimConfig)> = points
        .iter()
        .flat_map(|point| {
            apps.iter()
                .map(move |app| (app, cfg.clone().with_sb(point.sb).with_policy(point.policy)))
        })
        .collect();
    let (resolved, s) = run_cached(Some(cache), true, &cells, sweep, supervision);
    stats.cache_hits += s.hits;
    stats.computed += s.computed;
    if s.store_errors > 0 {
        eprintln!("tune: {} cache store(s) failed", s.store_errors);
    }

    let mut out = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let point_cells = &resolved[i * apps.len()..(i + 1) * apps.len()];
        let first_error = point_cells
            .iter()
            .enumerate()
            .find_map(|(j, c)| c.record.as_ref().err().map(|f| (j, f)));
        if let Some((j, f)) = first_error {
            failed.push(PointFailure {
                point: point.name(),
                reason: format!("cell {j}: {f}"),
            });
            continue;
        }
        let cells: Vec<CellOutcome> = point_cells
            .iter()
            .zip(apps)
            .map(|(c, app)| {
                let rec = c.record.as_ref().expect("failing points were skipped");
                CellOutcome {
                    app: app.name().to_string(),
                    key: c.key.hex(),
                    cycles: rec.cycles,
                    energy_nj: rec.energy_nj.expect("run_cached records carry energy"),
                    coh_msgs: rec.coh_msgs.expect("run_cached records carry coherence"),
                }
            })
            .collect();
        let mut objectives = Objectives::zero();
        for c in &cells {
            objectives.add(c.cycles, c.energy_nj, c.coh_msgs);
        }
        out.push(PointOutcome {
            point: *point,
            cells,
            objectives,
            pareto: false,
        });
    }
    out
}
