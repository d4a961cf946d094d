//! The workloads' simulator cells, the statistics a cell's run is
//! checked by, and the references those statistics must equal.

use spb_mem::RfoOrigin;
use spb_sim::{PolicyKind, RunError, RunResult, SimConfig, SweepReport};
use spb_stats::StallCause;
use spb_trace::profile::{AppProfile, Suite};
use std::collections::HashMap;

/// SB size of every simulator workload: the paper's Skylake baseline.
pub const SB: usize = 14;

/// SPEC apps whose pipelines are busy almost every cycle: core, trace
/// generation and the SB-drain / SPB-burst path do the work. Holds all
/// eight SB-bound SPEC apps.
pub const SPEC_DENSE: [&str; 16] = [
    "bwaves",
    "cactuBSSN",
    "x264",
    "blender",
    "cam4",
    "deepsjeng",
    "fotonik3d",
    "roms",
    "exchange2",
    "xz",
    "namd",
    "parest",
    "lbm",
    "wrf",
    "imagick",
    "nab",
];

/// SPEC apps with long DRAM stalls: skip-ahead, the memory system's
/// tick and the coherence checker do the work.
pub const SPEC_STALL: [&str; 7] = [
    "perlbench",
    "gcc",
    "mcf",
    "omnetpp",
    "xalancbmk",
    "leela",
    "povray",
];

/// The SB-bound PARSEC apps (8 threads each).
pub const PARSEC_SB_BOUND: [&str; 4] = ["bodytrack", "dedup", "ferret", "x264"];

/// The apps the autotuner workload scores every point over.
pub const TUNE_APPS: [&str; 3] = ["bwaves", "x264", "roms"];

/// Warm-up µops per core of one autotuner cell.
pub const TUNE_WARMUP_UOPS: u64 = 2_000;

/// Measured µops per core of one autotuner cell.
pub const TUNE_MEASURE_UOPS: u64 = 20_000;

/// One simulator run the benchmark times: an app under a full config.
#[derive(Clone)]
pub struct Cell {
    /// `workload app policy@sbN`, unique within the benchmark.
    pub id: String,
    /// The app profile.
    pub app: AppProfile,
    /// The complete configuration, seed included.
    pub cfg: SimConfig,
}

impl Cell {
    fn new(workload: &str, app: &AppProfile, cfg: SimConfig) -> Self {
        Self {
            id: format!(
                "{workload} {} {}@sb{}",
                app.name(),
                cfg.policy.label(),
                cfg.effective_sb()
            ),
            app: app.clone(),
            cfg,
        }
    }
}

fn spec(name: &str) -> AppProfile {
    AppProfile::spec2017()
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("{name} is a SPEC app"))
}

fn parsec(name: &str) -> AppProfile {
    AppProfile::parsec()
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| panic!("{name} is a PARSEC app"))
}

/// The quick-budget config of a simulator-workload cell.
fn quick(policy: PolicyKind, seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::quick().with_sb(SB).with_policy(policy)
    }
}

/// The base config every autotuner cell derives from (the engine sets
/// policy and SB per point).
pub fn tune_base_config(seed: u64) -> SimConfig {
    SimConfig {
        warmup_uops: TUNE_WARMUP_UOPS,
        measure_uops: TUNE_MEASURE_UOPS,
        seed,
        ..SimConfig::quick()
    }
}

/// The cells of a simulator workload, or `None` for any other name.
pub fn sim_cells(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let both = [PolicyKind::AtCommit, PolicyKind::spb_default()];
    let cross = |apps: Vec<AppProfile>| -> Vec<Cell> {
        apps.iter()
            .flat_map(|app| {
                both.iter()
                    .map(move |&p| Cell::new(workload, app, quick(p, seed)))
            })
            .collect()
    };
    match workload {
        "spec_dense" => Some(cross(SPEC_DENSE.iter().map(|n| spec(n)).collect())),
        "spec_stall" => Some(cross(SPEC_STALL.iter().map(|n| spec(n)).collect())),
        "parsec_mt" => {
            let mut cells = cross(PARSEC_SB_BOUND.iter().map(|n| parsec(n)).collect());
            // The one 8-core stall-bound cell.
            cells.push(Cell::new(
                workload,
                &parsec("canneal"),
                quick(PolicyKind::AtCommit, seed),
            ));
            Some(cells)
        }
        _ => None,
    }
}

/// The autotuner workload's simulator cells for the traced layer split:
/// each tune app under the default SPB point at every SB size of the
/// tune space, at the tune budget.
pub fn tune_layer_cells(seed: u64, sbs: &[usize]) -> Vec<Cell> {
    TUNE_APPS
        .iter()
        .flat_map(|name| {
            let app = spec(name);
            sbs.iter()
                .map(move |&sb| {
                    let cfg = tune_base_config(seed)
                        .with_sb(sb)
                        .with_policy(PolicyKind::spb_default());
                    Cell::new("tune_cached", &app, cfg)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The simulated statistics one run is judged by: cycles, µops and the
/// modelled-layer counts. A change that only speeds up the simulator
/// leaves every one of them unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Measured cycles.
    pub cycles: u64,
    /// Committed µops in the measured window.
    pub uops: u64,
    /// Dispatch cycles stalled on a full store buffer.
    pub sb_stall_cycles: u64,
    /// Wrong-path µops.
    pub wrong_path_uops: u64,
    /// L1D tag checks.
    pub l1_tag_checks: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// DRAM fills.
    pub dram_accesses: u64,
    /// Coherence messages on the interconnect.
    pub coh_msgs: u64,
    /// Store drain attempts that had to retry.
    pub store_retries: u64,
    /// SPB bursts issued at the L1 controller.
    pub bursts: u64,
    /// RFOs issued by SPB bursts.
    pub burst_rfos: u64,
    /// Of those, blocks whose first demand found them ready and owned.
    pub burst_useful: u64,
}

/// Field names of [`Stats`], in the order of [`Stats::fields`].
pub const STAT_FIELDS: [&str; 12] = [
    "cycles",
    "uops",
    "sb_stall_cycles",
    "wrong_path_uops",
    "l1_tag_checks",
    "l2_accesses",
    "dram_accesses",
    "coh_msgs",
    "store_retries",
    "bursts",
    "burst_rfos",
    "burst_useful",
];

impl Stats {
    /// Reads the statistics from a run's public result.
    pub fn of(r: &RunResult) -> Self {
        let spb = RfoOrigin::SpbBurst.index();
        Self {
            cycles: r.cycles,
            uops: r.uops,
            sb_stall_cycles: r.topdown.stall_cycles(StallCause::StoreBuffer),
            wrong_path_uops: r.cpu.wrong_path_uops,
            l1_tag_checks: r.mem.l1_tag_checks,
            l2_accesses: r.mem.l2_accesses,
            dram_accesses: r.mem.dram_accesses,
            coh_msgs: r.mem.coherence_traffic(),
            store_retries: r.mem.store_retries,
            bursts: r.burst_lengths.count(),
            burst_rfos: r.mem.prefetch_requests[spb],
            burst_useful: r.mem.prefetch_successful[spb],
        }
    }

    /// The values in [`STAT_FIELDS`] order.
    pub fn fields(&self) -> [u64; 12] {
        [
            self.cycles,
            self.uops,
            self.sb_stall_cycles,
            self.wrong_path_uops,
            self.l1_tag_checks,
            self.l2_accesses,
            self.dram_accesses,
            self.coh_msgs,
            self.store_retries,
            self.bursts,
            self.burst_rfos,
            self.burst_useful,
        ]
    }

    fn from_fields(f: [u64; 12]) -> Self {
        Self {
            cycles: f[0],
            uops: f[1],
            sb_stall_cycles: f[2],
            wrong_path_uops: f[3],
            l1_tag_checks: f[4],
            l2_accesses: f[5],
            dram_accesses: f[6],
            coh_msgs: f[7],
            store_retries: f[8],
            bursts: f[9],
            burst_rfos: f[10],
            burst_useful: f[11],
        }
    }

    /// Field-by-field sum.
    pub fn add(&mut self, other: &Stats) {
        let mut f = self.fields();
        for (a, b) in f.iter_mut().zip(other.fields()) {
            *a += b;
        }
        *self = Self::from_fields(f);
    }

    /// `None` when equal, else the first differing field.
    pub fn diff(&self, other: &Stats) -> Option<String> {
        let (a, b) = (self.fields(), other.fields());
        (0..a.len())
            .find(|&i| a[i] != b[i])
            .map(|i| format!("{} {} != {}", STAT_FIELDS[i], a[i], b[i]))
    }
}

/// Recorded statistics per `(seed, cell id)`, kept in `refs.txt`: one
/// line per cell, `seed workload app policy@sbN` then the
/// [`STAT_FIELDS`] values.
#[derive(Debug, Default)]
pub struct References {
    map: HashMap<(u64, String), Stats>,
}

impl References {
    /// Parses the reference text; `#` lines are comments.
    ///
    /// # Errors
    ///
    /// Names the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("refs line {}: malformed: {line:?}", n + 1);
            let tok: Vec<&str> = line.split_whitespace().collect();
            if tok.len() != 4 + STAT_FIELDS.len() {
                return Err(bad());
            }
            let seed: u64 = tok[0].parse().map_err(|_| bad())?;
            let mut f = [0u64; 12];
            for (slot, t) in f.iter_mut().zip(&tok[4..]) {
                *slot = t.parse().map_err(|_| bad())?;
            }
            let id = tok[1..4].join(" ");
            map.insert((seed, id), Stats::from_fields(f));
        }
        Ok(Self { map })
    }

    /// Renders entries in the format [`References::parse`] reads.
    pub fn render(entries: &[(u64, String, Stats)]) -> String {
        let mut out = format!("# seed workload app policy@sb {}\n", STAT_FIELDS.join(" "));
        for (seed, id, s) in entries {
            let vals: Vec<String> = s.fields().iter().map(u64::to_string).collect();
            out.push_str(&format!("{seed} {id} {}\n", vals.join(" ")));
        }
        out
    }

    /// Whether any cell was recorded at `seed`.
    pub fn has_seed(&self, seed: u64) -> bool {
        self.map.keys().any(|(s, _)| *s == seed)
    }

    fn get(&self, seed: u64, id: &str) -> Option<&Stats> {
        self.map.get(&(seed, id.to_string()))
    }
}

/// Cycles and µops of the committed quick grid, keyed by
/// `(app, policy, sb)`. Only SPEC apps are in it.
pub struct Golden(HashMap<(String, String, usize), (u64, u64)>);

impl Golden {
    /// Parses a sweep report.
    ///
    /// # Errors
    ///
    /// Propagates the report parser's error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let report = SweepReport::parse(text)?;
        Ok(Self(
            report
                .records
                .into_iter()
                .map(|r| ((r.app, r.policy, r.sb), (r.cycles, r.uops)))
                .collect(),
        ))
    }

    /// The golden cycles and µops of a SPEC cell, if recorded.
    pub fn get(&self, cell: &Cell) -> Option<(u64, u64)> {
        if cell.app.suite() != Suite::Spec2017
            || cell.cfg.warmup_uops != SimConfig::quick().warmup_uops
            || cell.cfg.measure_uops != SimConfig::quick().measure_uops
        {
            return None;
        }
        let key = (
            cell.app.name().to_string(),
            cell.cfg.policy.label(),
            cell.cfg.effective_sb(),
        );
        self.0.get(&key).copied()
    }
}

/// Judges every simulator run of one benchmark run and counts failures.
pub struct Checker {
    seed: u64,
    /// The references, when `seed` was recorded.
    refs: Option<References>,
    golden: Option<Golden>,
    first: HashMap<String, Stats>,
    /// Operations judged.
    pub attempted: u64,
    /// Operations that failed or gave a wrong result.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

impl Checker {
    /// A checker for runs at `seed`. The golden grid applies only at
    /// the simulator's default seed, where it was recorded.
    pub fn new(seed: u64, refs: References, golden: Golden) -> Self {
        Self {
            seed,
            refs: refs.has_seed(seed).then_some(refs),
            golden: (seed == SimConfig::quick().seed).then_some(golden),
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Judges one run of `cell`: it must succeed, equal the reference
    /// recorded for this seed (when the seed was recorded), equal the
    /// golden grid (SPEC cells at the default seed), and equal every
    /// earlier run of the same cell. Returns the statistics of a
    /// successful run.
    pub fn check(
        &mut self,
        cell: &Cell,
        result: &Result<RunResult, Box<RunError>>,
    ) -> Option<Stats> {
        self.attempted += 1;
        let stats = match result {
            Ok(r) => Stats::of(r),
            Err(e) => {
                self.fail(format!("{}: run failed: {e}", cell.id));
                return None;
            }
        };
        let mut wrong = Vec::new();
        if let Some(refs) = &self.refs {
            match refs.get(self.seed, &cell.id) {
                Some(want) => wrong.extend(stats.diff(want).map(|d| format!("vs reference: {d}"))),
                None => wrong.push("no reference recorded for this cell".to_string()),
            }
        }
        if let Some((cycles, uops)) = self.golden.as_ref().and_then(|g| g.get(cell)) {
            if (stats.cycles, stats.uops) != (cycles, uops) {
                wrong.push(format!(
                    "vs golden grid: cycles/uops {}/{} != {cycles}/{uops}",
                    stats.cycles, stats.uops
                ));
            }
        }
        let first = *self.first.entry(cell.id.clone()).or_insert(stats);
        wrong.extend(stats.diff(&first).map(|d| format!("vs first run: {d}")));
        if wrong.is_empty() {
            Some(stats)
        } else {
            self.fail(format!("{}: {}", cell.id, wrong.join("; ")));
            None
        }
    }

    /// Judges an ablation run (another kernel, checker off), which must
    /// reproduce the statistics of the cell's default run exactly.
    pub fn check_same(
        &mut self,
        cell: &Cell,
        what: &str,
        result: &Result<RunResult, Box<RunError>>,
        want: &Stats,
    ) {
        self.attempted += 1;
        match result {
            Ok(r) => {
                if let Some(d) = Stats::of(r).diff(want) {
                    self.fail(format!("{} under {what}: {d}", cell.id));
                }
            }
            Err(e) => self.fail(format!("{} under {what}: run failed: {e}", cell.id)),
        }
    }

    /// Counts one attempted operation and its failure, if any.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_stall_cover_every_spec_app_exactly_once() {
        let mut names: Vec<&str> = SPEC_DENSE.iter().chain(&SPEC_STALL).copied().collect();
        names.sort_unstable();
        let mut spec: Vec<String> = AppProfile::spec2017()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        spec.sort_unstable();
        assert_eq!(names, spec);
    }

    #[test]
    fn cell_ids_are_unique() {
        let mut ids: Vec<String> = ["spec_dense", "spec_stall", "parsec_mt"]
            .iter()
            .flat_map(|w| sim_cells(w, 42).expect("simulator workload"))
            .chain(tune_layer_cells(42, &[14, 28, 56]))
            .map(|c| c.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 32 + 14 + 9 + 9);
    }

    #[test]
    fn references_round_trip() {
        let s = Stats {
            cycles: 7,
            burst_useful: 3,
            ..Stats::default()
        };
        let text = References::render(&[(5, "spec_dense x264 spb@sb14".into(), s)]);
        let refs = References::parse(&text).unwrap();
        assert!(refs.has_seed(5) && !refs.has_seed(6));
        assert_eq!(refs.get(5, "spec_dense x264 spb@sb14"), Some(&s));
        assert!(References::parse("5 spec_dense x264 spb@sb14 1 2").is_err());
    }
}
