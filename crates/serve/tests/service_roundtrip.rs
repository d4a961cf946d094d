//! End-to-end service tests over a real TCP socket: submit/receive,
//! cache hits on resubmission, journal recovery, injected-fault
//! convergence, and explicit overload shedding.

use spb_serve::{
    client, run_cached, Budget, CacheKey, CellSpec, JobSpec, Lookup, ResultCache, ServeConfig,
    Server,
};
use spb_sim::sweep::{Supervision, SweepOptions};
use spb_stats::json::Json;
use std::path::PathBuf;

/// A fresh state directory per test (and per process, so parallel test
/// binaries never collide).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spb-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server on an ephemeral port and serves it on a background
/// thread. Returns the address; the thread exits on `shutdown`.
fn spawn_server(cfg: ServeConfig) -> String {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.addr().expect("addr").to_string();
    std::thread::spawn(move || server.serve().expect("serve"));
    addr
}

/// A tiny-budget job over a few distinct cells: fast even in debug
/// builds, deterministic like everything else.
fn tiny_job(name: &str) -> JobSpec {
    let cells = [("x264", "spb", 14), ("x264", "at-commit", 28), ("lbm", "ideal", 56)]
        .iter()
        .map(|&(app, policy, sb)| CellSpec {
            app: app.into(),
            policy: policy.into(),
            sb,
        })
        .collect();
    let mut job = JobSpec::new(name, Budget::Quick, cells);
    job.warmup_uops = Some(2_000);
    job.measure_uops = Some(10_000);
    job
}

fn stat(reply: &Json, key: &str) -> u64 {
    reply
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("reply missing stats.{key}: {reply}"))
}

fn records(reply: &Json) -> Vec<Json> {
    reply
        .get("report")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .expect("reply carries report.records")
        .to_vec()
}

#[test]
fn submit_computes_then_resubmission_hits_the_cache() {
    let dir = state_dir("roundtrip");
    let addr = spawn_server(ServeConfig::at(&dir));

    let job = tiny_job("roundtrip");
    let first = client::submit(&addr, &job).expect("first submission");
    assert_eq!(stat(&first, "computed"), 3);
    assert_eq!(stat(&first, "cache_hits"), 0);
    assert_eq!(stat(&first, "failed"), 0);
    let first_records = records(&first);
    assert_eq!(first_records.len(), 3);
    // Records come back in request order.
    assert_eq!(
        first_records[0].get("policy").and_then(Json::as_str),
        Some("spb")
    );

    // The identical job is served entirely from the cache, and the
    // simulated numbers are bit-identical (wall_ms is host timing).
    let second = client::submit(&addr, &job).expect("second submission");
    assert_eq!(stat(&second, "computed"), 0);
    assert_eq!(stat(&second, "cache_hits"), 3);
    for (a, b) in first_records.iter().zip(records(&second)) {
        for key in ["app", "policy", "sb", "cycles", "uops", "ipc"] {
            assert_eq!(a.get(key), b.get(key), "field {key} differs");
        }
    }

    // Health reflects the life of the service so far.
    let health = client::health(&addr).expect("health");
    let counters = health
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .cloned()
        .expect("health carries serve counters");
    assert_eq!(counters.get("jobs_completed").and_then(Json::as_u64), Some(2));
    assert_eq!(counters.get("cells_computed").and_then(Json::as_u64), Some(3));
    assert_eq!(counters.get("cache_hits").and_then(Json::as_u64), Some(3));

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cell_written_by_a_serve_job_is_a_hit_for_a_tune() {
    let dir = state_dir("serve-then-tune");
    let addr = spawn_server(ServeConfig::at(&dir));
    let job = tiny_job("shared");
    let reply = client::submit(&addr, &job).expect("submission");
    assert_eq!(stat(&reply, "computed"), 3);
    client::shutdown(&addr).expect("shutdown");

    // The tuner reads cells through `run_cached`, which serves only
    // records that carry its objectives: the service stores those.
    let cache = ResultCache::open(dir.join("cache")).expect("cache");
    let (profiles, resolved) = job.resolve().expect("resolve");
    let cells: Vec<_> = resolved
        .into_iter()
        .map(|(pi, cfg)| (&profiles[pi], cfg))
        .collect();
    for (app, cfg) in &cells {
        match cache.lookup(CacheKey::for_cell(app.name(), cfg)) {
            Lookup::Hit(rec) => assert!(
                rec.energy_nj.is_some() && rec.coh_msgs.is_some(),
                "{} entry lacks the tuner's objectives: {rec:?}",
                app.name()
            ),
            other => panic!("{}: expected a hit, got {other:?}", app.name()),
        }
    }
    let (_, s) = run_cached(
        Some(&cache),
        true,
        &cells,
        &SweepOptions::serial(),
        &Supervision::default(),
    );
    assert_eq!((s.hits, s.computed), (3, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_jobs_recover_across_a_restart() {
    let dir = state_dir("recover");
    let job = tiny_job("recover");

    // First life: accept the job into the journal but "crash" (drop the
    // server without serving) before it runs.
    {
        let server = Server::bind(ServeConfig::at(&dir)).expect("bind");
        let _ = server.addr();
        // Reach into the same journal file the server uses: simulate a
        // client whose accepted job never completed.
        drop(server);
        let (mut journal, recovery) =
            spb_serve::Journal::open(dir.join("journal.waj")).expect("journal");
        assert_eq!(recovery.pending.len(), 0);
        journal
            .accepted(&spb_serve::Journal::job_id(&job), &job)
            .expect("journal accept");
    }

    // Second life: the recovered job runs before any client connects.
    let addr = spawn_server(ServeConfig::at(&dir));
    // Poll health until the recovered job has been computed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let health = client::health(&addr).expect("health");
        let counters = health
            .get("metrics")
            .and_then(|m| m.get("serve"))
            .and_then(|c| c.get("counters"))
            .cloned()
            .expect("serve counters");
        assert_eq!(
            counters.get("jobs_recovered").and_then(Json::as_u64),
            Some(1),
            "the journaled job was requeued on restart"
        );
        if counters.get("jobs_completed").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "recovered job never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // A client submitting the same job now gets pure cache hits: only
    // the missing cells (none) were recomputed.
    let reply = client::submit(&addr, &job).expect("submit after recovery");
    assert_eq!(stat(&reply, "cache_hits"), 3);
    assert_eq!(stat(&reply, "computed"), 0);

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_converge_with_zero_lost_cells() {
    let dir = state_dir("chaos");
    let addr = spawn_server(ServeConfig::at(&dir));

    // The acceptance rate (0.02) plus a heavier rate that guarantees
    // the retry path is exercised; both must lose zero cells and report
    // zero invariant violations.
    let mut baseline = None;
    for (tag, rate, retry) in [("acceptance", 200, 3), ("heavy", 4_000, 10)] {
        let fresh = state_dir(&format!("chaos-{tag}"));
        let addr = if tag == "acceptance" {
            addr.clone()
        } else {
            spawn_server(ServeConfig::at(&fresh))
        };
        let mut job = tiny_job("chaos");
        job.fault_rate_e4 = rate;
        job.fault_seed = 7;
        job.retry = retry;
        let reply = client::submit(&addr, &job).expect("chaos submission");
        assert_eq!(stat(&reply, "failed"), 0, "{tag}: zero lost cells");
        assert_eq!(stat(&reply, "computed"), 3, "{tag}: every cell computed");
        let recs = records(&reply);
        assert_eq!(recs.len(), 3);
        // Chaos never perturbs simulated numbers: both servers agree
        // bit-for-bit.
        let numbers: Vec<_> = recs
            .iter()
            .map(|r| {
                (
                    r.get("cycles").cloned(),
                    r.get("uops").cloned(),
                    r.get("ipc").cloned(),
                )
            })
            .collect();
        match &baseline {
            None => baseline = Some(numbers),
            Some(b) => assert_eq!(&numbers, b, "{tag}: results drift under chaos"),
        }
        if tag == "heavy" {
            client::shutdown(&addr).expect("shutdown heavy");
            let _ = std::fs::remove_dir_all(&fresh);
        }
    }

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_is_an_explicit_rejection_never_a_hang() {
    let dir = state_dir("overload");
    let mut cfg = ServeConfig::at(&dir);
    cfg.queue_limit = 0; // everything sheds
    let addr = spawn_server(cfg);

    let started = std::time::Instant::now();
    let err = client::submit(&addr, &tiny_job("shed")).expect_err("must shed");
    assert!(err.contains("overloaded"), "err: {err}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "rejection must be immediate, not a hang"
    );

    // The shed is visible in health, and the server still answers.
    let health = client::health(&addr).expect("health after shed");
    let shed = health
        .get("metrics")
        .and_then(|m| m.get("serve"))
        .and_then(|c| c.get("counters"))
        .and_then(|c| c.get("jobs_shed"))
        .and_then(Json::as_u64);
    assert_eq!(shed, Some(1));

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_explicit_errors() {
    let dir = state_dir("badreq");
    let addr = spawn_server(ServeConfig::at(&dir));

    let err = client::request(&addr, &Json::obj([("type", Json::str("warp"))]))
        .expect_err("unknown type");
    assert!(err.contains("unknown request type"), "err: {err}");

    let err = client::request(&addr, &Json::obj([("type", Json::str("sweep"))]))
        .expect_err("missing job");
    assert!(err.contains("job"), "err: {err}");

    let mut bad = tiny_job("bad");
    bad.cells[0].app = "not-a-benchmark".into();
    let err = client::submit(&addr, &bad).expect_err("unknown app");
    assert!(err.contains("not-a-benchmark"), "err: {err}");

    client::shutdown(&addr).expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
