//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--refs FILE]
//! perfbench --record-refs SEEDS [--refs FILE]
//! ```
//!
//! Runs one workload as a closed loop for `S` seconds from one thread,
//! checks every result, prints each metric by name and unit, then a
//! host-noise record, then as the last line a JSON object with exactly
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer split. Exits 1
//! when any operation failed or gave a wrong result, 2 on bad usage or
//! when the run cannot proceed (then without a result line).
//! `--workload all` runs every workload in turn, each in a child process.
//!
//! `--cold-fill DIR --seed N` is the autotuner workload's set-up step,
//! which a run starts as a child process and waits for.
//! `--record-refs 0-15,42` re-records the reference statistics of every
//! simulator cell at those seeds. See `README.md` for the workloads,
//! the metrics and how the layer split is computed.

mod calib;
mod cells;
mod host;
mod layers;
mod report;
mod simloop;
mod stat;
mod tune;

use calib::{Calibration, Span};
use cells::{sim_cells, tune_layer_cells, Checker, Golden, References, Stats};
use host::HostProbe;
use report::{metric, result_line, Metric};
use spb_sim::sweep::SweepRecord;
use spb_sim::{PolicyKind, SimConfig, Simulation};
use spb_stats::json::Json;
use stat::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["spec_dense", "spec_stall", "parsec_mt", "tune_cached"];

/// Set-ups per simulator-workload run; `setup_s` is their median.
const SIM_SETUPS: usize = 15;

/// Cold fills per autotuner run; `setup_s` is their median.
const TUNE_SETUPS: usize = 3;

const REFS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs.txt");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../results/sweep-grid-quick.json"
);

const USAGE: &str = "usage: perfbench --workload spec_dense|spec_stall|parsec_mt|tune_cached|all \
--seed N --seconds S --trace 0|1 [--refs FILE]\n       perfbench --record-refs SEEDS [--refs FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    refs: PathBuf,
    record_refs: Option<Vec<u64>>,
    cold_fill: Option<PathBuf>,
}

fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for part in s.split(',') {
        let bad = || format!("bad seed list {s:?}");
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                seeds.extend(a..=b);
            }
            None => seeds.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(seeds)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        refs: PathBuf::from(REFS),
        record_refs: None,
        cold_fill: None,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--refs" => args.refs = PathBuf::from(value()?),
            "--record-refs" => args.record_refs = Some(parse_seeds(value()?)?),
            "--cold-fill" => args.cold_fill = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.record_refs.is_some() {
        return Ok(args);
    }
    if args.cold_fill.is_some() {
        args.seed = seed.ok_or("--seed is required")?;
        return Ok(args);
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (valid: {}, all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    Ok(args)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn checker(seed: u64, refs: &Path) -> Result<Checker, String> {
    Ok(Checker::new(
        seed,
        References::parse(&read(refs)?)?,
        Golden::parse(&read(Path::new(GOLDEN))?)?,
    ))
}

/// A finished measurement: the checker's verdicts and the metrics.
struct Run {
    checker: Checker,
    metrics: Vec<Metric>,
    /// Lines printed with the metrics (sample counts, percentiles).
    notes: Vec<String>,
    /// The host-noise record of the measured phase.
    host: Json,
}

/// Runs `setup` `reps` times and returns the last result and the span
/// of each set-up.
fn repeat_setup<T>(
    reps: usize,
    calib: &mut Calibration,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Span>), String> {
    let mut spans = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, span) = calib.time(&mut setup);
        last = Some(out?);
        spans.push(span);
    }
    Ok((last.expect("at least one set-up"), spans))
}

/// `setup_s`: the median scaled set-up time; and the printed record of
/// the unscaled one and of the calibration.
fn setup_metric(calib: &Calibration, setups: &[Span]) -> (Metric, String) {
    let scaled: Vec<f64> = setups.iter().map(|&s| calib.scaled(s)).collect();
    let raw: Vec<f64> = setups.iter().map(Span::raw).collect();
    let (kernel, runs) = calib.summary();
    let note = format!(
        "unscaled setup_s {:.6}; calibration kernel median {:.3} ms over {runs} runs \
         (nominal {:.3} ms): host at {:.3}x nominal speed",
        median(&raw),
        kernel * 1e3,
        calib::NOMINAL_S * 1e3,
        calib::NOMINAL_S / kernel
    );
    (metric("setup_s", median(&scaled), "s"), note)
}

fn run_sim(args: &Args, state: &Path) -> Result<Run, String> {
    if args.trace {
        let probe = HostProbe::start();
        let cells = sim_cells(&args.workload, args.seed).expect("a simulator workload");
        let mut checker = checker(args.seed, &args.refs)?;
        let (mut metrics, last) = layers::sim_layers(&cells, &mut checker, args.seconds);
        let entries: Vec<layers::Entry> = cells
            .iter()
            .zip(&last)
            .filter_map(|(c, r)| {
                let r = r.as_ref()?;
                Some((
                    c.app.name().to_string(),
                    c.cfg.clone(),
                    SweepRecord::from_run_full(r),
                ))
            })
            .collect();
        let spb_apps = cells
            .iter()
            .filter(|c| c.cfg.policy == PolicyKind::spb_default())
            .map(|c| c.app.clone())
            .collect();
        let base = SimConfig {
            seed: args.seed,
            ..SimConfig::quick()
        };
        let opts = tune::default_point_options(base, cells::SB, spb_apps);
        metrics.extend(layers::cache_tune_layers(
            &state.join("layer-cache"),
            &entries,
            &opts,
            &mut checker,
            0.0,
        ));
        return Ok(Run {
            checker,
            metrics,
            notes: Vec::new(),
            host: probe.finish(),
        });
    }

    let mut calib = Calibration::default();
    let ((cells, sims, mut checker), setups) = repeat_setup(SIM_SETUPS, &mut calib, || {
        let cells = sim_cells(&args.workload, args.seed).expect("a simulator workload");
        let sims: Vec<Simulation> = cells
            .iter()
            .map(|c| Simulation::with_config(&c.app, &c.cfg))
            .collect();
        Ok((cells, sims, checker(args.seed, &args.refs)?))
    })?;
    let probe = HostProbe::start();
    let timed = simloop::run(&cells, &sims, &mut checker, &mut calib, args.seconds);
    let host = probe.finish();
    let (mut metrics, raw_mops) = simloop::end_to_end(&timed, &calib);
    let (setup, setup_note) = setup_metric(&calib, &setups);
    metrics.push(setup);
    let ops: usize = timed.spans.iter().map(Vec::len).sum();
    let passes = timed.spans.iter().map(Vec::len).min().unwrap_or(0);
    let notes = vec![
        format!(
            "{ops} operations, {passes} full passes; op_ms quantiles are over the {} cells' medians",
            cells.len()
        ),
        format!("unscaled sim_mops {raw_mops:.4}"),
        setup_note,
    ];
    Ok(Run {
        checker,
        metrics,
        notes,
        host,
    })
}

/// Samples strictly above the `q`-quantile.
fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

fn run_tune_workload(args: &Args, state: &Path) -> Result<Run, String> {
    let opts = tune::options(args.seed);
    let mut checker = checker(args.seed, &args.refs)?;
    if args.trace {
        let dir = state.join("cache");
        tune::cold_fill_in_child(args.seed, &dir)?;
        let probe = HostProbe::start();
        let cells = tune_layer_cells(args.seed, &opts.space.sb);
        let (mut metrics, _) = layers::sim_layers(&cells, &mut checker, args.seconds / 2.0);
        let entries = tune::cached_entries(&opts, &dir)?;
        metrics.extend(layers::cache_tune_layers(
            &state.join("layer-cache"),
            &entries,
            &opts,
            &mut checker,
            args.seconds / 4.0,
        ));
        return Ok(Run {
            checker,
            metrics,
            notes: Vec::new(),
            host: probe.finish(),
        });
    }

    let mut calib = Calibration::default();
    let mut fill = 0;
    let ((dir, cold), setups) = repeat_setup(TUNE_SETUPS, &mut calib, || {
        fill += 1;
        let dir = state.join(format!("fill{fill}"));
        let cold = tune::cold_fill_in_child(args.seed, &dir)?;
        Ok((dir, cold))
    })?;
    let served_uops: u64 = tune::cached_entries(&opts, &dir)?
        .iter()
        .map(|(_, _, rec)| rec.uops)
        .sum();
    // One untimed warm operation so the first timed one reads the same
    // warm page cache as the rest.
    checker.record(tune::warm_op(&opts, &dir).and_then(|o| tune::check_warm(&opts, o, &cold)));

    let probe = HostProbe::start();
    let mut spans = Vec::new();
    let start = Instant::now();
    while spans.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (outcome, span) = calib.time(|| tune::warm_op(&opts, &dir));
        spans.push(span);
        checker.record(outcome.and_then(|o| tune::check_warm(&opts, o, &cold)));
    }
    let host = probe.finish();
    let samples_ms: Vec<f64> = spans.iter().map(|&s| calib.scaled(s) * 1e3).collect();
    let raw_ms: Vec<f64> = spans.iter().map(|s| s.raw() * 1e3).collect();
    let op_s = median(&samples_ms) / 1e3;
    let (setup, setup_note) = setup_metric(&calib, &setups);
    let metrics = vec![
        metric("sim_mops", served_uops as f64 / op_s / 1e6, "Mops/s"),
        metric("cells_per_s", tune::cell_count(&opts) as f64 / op_s, "1/s"),
        metric("op_ms_p50", quantile(&samples_ms, 0.5), "ms"),
        metric("op_ms_p90", quantile(&samples_ms, 0.9), "ms"),
        setup,
    ];
    let notes = vec![
        format!(
            "{} warm tunes of {} cells each; op_ms_p90 has {} samples above it",
            samples_ms.len(),
            tune::cell_count(&opts),
            beyond(&samples_ms, 0.9)
        ),
        format!("unscaled op_ms_p50 {:.4}", median(&raw_ms)),
        setup_note,
    ];
    Ok(Run {
        checker,
        metrics,
        notes,
        host,
    })
}

/// Re-records the reference statistics of every simulator cell at
/// `seeds`, cross-checking SPEC cells against the committed quick grid
/// at the default seed.
fn record_refs(seeds: &[u64], path: &Path) -> Result<(), String> {
    let golden = Golden::parse(&read(Path::new(GOLDEN))?)?;
    let mut entries = Vec::new();
    for &seed in seeds {
        let t0 = Instant::now();
        let cells: Vec<cells::Cell> = WORKLOADS
            .iter()
            .filter_map(|w| sim_cells(w, seed))
            .flatten()
            .chain(tune_layer_cells(seed, &tune::options(seed).space.sb))
            .collect();
        for cell in cells {
            let r = Simulation::with_config(&cell.app, &cell.cfg)
                .run()
                .map_err(|e| format!("{} seed {seed}: {e}", cell.id))?;
            let stats = Stats::of(&r);
            if seed == SimConfig::quick().seed {
                if let Some(want) = golden.get(&cell) {
                    if (stats.cycles, stats.uops) != want {
                        return Err(format!("{}: differs from the golden grid", cell.id));
                    }
                }
            }
            entries.push((seed, cell.id, stats));
        }
        eprintln!(
            "perfbench: recorded seed {seed} in {:.1}s",
            t0.elapsed().as_secs_f64()
        );
    }
    std::fs::write(path, References::render(&entries))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload in turn, each in a child process so that each
/// reports its own memory high-water mark, and exits with the worst
/// child's code.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locate the benchmark binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--refs")
            .arg(&args.refs)
            .status();
        worst = worst.max(status.ok().and_then(|s| s.code()).unwrap_or(2));
    }
    ExitCode::from(u8::try_from(worst).unwrap_or(2))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.cold_fill {
        let filled = tune::cold_fill(&tune::options(args.seed), dir)
            .and_then(|report| tune::save_report(dir, &report));
        return match filled {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cold fill failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Some(seeds) = &args.record_refs {
        return match record_refs(seeds, &args.refs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }

    if args.workload == "all" {
        return run_all(&args);
    }
    let state = Path::new(".bench_state").join(format!("{}-{}", args.workload, std::process::id()));
    let result = if args.workload == "tune_cached" {
        run_tune_workload(&args, &state)
    } else {
        run_sim(&args, &state)
    };
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(".bench_state");
    let mut run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        run.metrics
            .push(metric("peak_rss_mb", host::peak_rss_mb(), "MB"));
    }

    let c = &run.checker;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &run.metrics {
        println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>16.6} ratio ({} of {} operations failed)",
        "error_rate",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    for note in &run.notes {
        println!("  {note}");
    }
    for e in c.errors.iter().take(20) {
        eprintln!("perfbench: FAIL {e}");
    }
    println!("host {}", run.host);
    println!("{}", result_line(c.attempted, c.failed, &run.metrics));
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
