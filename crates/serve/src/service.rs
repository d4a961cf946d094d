//! The sweep job server.
//!
//! A [`Server`] listens on a local TCP socket for line-delimited JSON
//! requests (see the crate docs for the protocol), runs sweep jobs one
//! at a time on a supervised worker pool, and answers with
//! [`spb_sim::sweep::SweepReport`]-schema results. The robustness
//! pieces compose here:
//!
//! - every cell goes through [`crate::cache::run_cached`]: hits skip
//!   simulation entirely and are bit-identical to a fresh
//!   deterministic run, while misses run under
//!   [`spb_sim::sweep::run_cells_supervised`] —
//!   panics/deadlines/injected chaos retry with seeded backoff,
//!   invariant violations fail fast into the report's `failed` array;
//! - the [`crate::journal::Journal`] write-ahead log makes accepted
//!   jobs durable: a `kill -9` mid-sweep is recovered on restart with
//!   only uncached cells re-run;
//! - the job queue is bounded: past the limit, submissions get an
//!   explicit `overloaded` rejection immediately — the server never
//!   accepts work it cannot promise to journal and run.

use crate::cache::{run_cached, CacheRunStats, ResultCache};
use crate::journal::Journal;
use crate::spec::JobSpec;
use spb_obs::SharedCounters;
use spb_sim::config::SimConfig;
use spb_sim::sweep::{ChaosPlan, Supervision, SweepOptions, SweepReport};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (the bound
    /// address is reported by [`Server::addr`]).
    pub addr: String,
    /// State directory: holds `cache/`, `journal.waj` and `reports/`.
    pub dir: PathBuf,
    /// Worker threads per sweep.
    pub jobs: usize,
    /// Maximum queued jobs before submissions are shed.
    pub queue_limit: usize,
    /// Default total attempts per cell (jobs may ask for more).
    pub retry: u32,
    /// Default per-attempt deadline (jobs may set their own).
    pub deadline_ms: Option<u64>,
    /// LRU bound on cached cell results (entries, not bytes); `None`
    /// leaves the cache unbounded. Eviction never corrupts: an evicted
    /// cell is a clean miss that recomputes bit-identically.
    pub cache_max_entries: Option<usize>,
}

impl ServeConfig {
    /// Localhost on an ephemeral port, state under `dir`, defaults
    /// everywhere else (workers = available parallelism, queue of 4,
    /// 3 attempts, 5-minute cell deadline).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            dir: dir.into(),
            jobs: spb_sim::sweep::default_jobs(),
            queue_limit: 4,
            retry: 3,
            deadline_ms: Some(300_000),
            cache_max_entries: None,
        }
    }
}

/// One queued job; recovered jobs have no reply channel.
struct QueuedJob {
    id: String,
    spec: JobSpec,
    reply: Option<mpsc::SyncSender<String>>,
}

/// The sweep job server. Bind with [`Server::bind`], run with
/// [`Server::serve`] (blocks until a `shutdown` request).
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    cache: ResultCache,
    journal: Mutex<Journal>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    stats: SharedCounters,
    shutdown: AtomicBool,
}

impl Server {
    /// Opens the state directory (recovering any journaled jobs that
    /// never finished) and binds the listen socket.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and socket errors.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Self> {
        let mut cache = ResultCache::open(cfg.dir.join("cache"))?;
        if let Some(n) = cfg.cache_max_entries {
            cache = cache.with_entry_bound(n);
        }
        let (journal, recovery) = Journal::open(cfg.dir.join("journal.waj"))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let stats = SharedCounters::new();
        // Register the headline counters up front so health responses
        // list them (as zeros) from the first request.
        for name in [
            "jobs_accepted",
            "jobs_completed",
            "jobs_recovered",
            "jobs_shed",
            "cells_computed",
            "cache_hits",
            "cache_corrupt",
            "cell_retries",
            "cells_failed",
            "journal_corrupt_lines",
        ] {
            stats.add(name, 0);
        }
        stats.add("journal_corrupt_lines", recovery.corrupt_lines as u64);
        let mut queue = VecDeque::new();
        for (id, spec) in recovery.pending {
            stats.inc("jobs_recovered");
            queue.push_back(QueuedJob {
                id,
                spec,
                reply: None,
            });
        }
        Ok(Self {
            cfg,
            listener,
            cache,
            journal: Mutex::new(journal),
            queue: Mutex::new(queue),
            queue_cv: Condvar::new(),
            stats,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The live service counters (shared with every handler).
    pub fn stats(&self) -> &SharedCounters {
        &self.stats
    }

    /// Accepts connections and runs jobs until a `shutdown` request.
    /// Recovered jobs start executing immediately, before any client
    /// connects.
    ///
    /// # Errors
    ///
    /// Propagates fatal accept-loop errors (per-connection errors are
    /// absorbed).
    pub fn serve(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            scope.spawn(|| self.runner());
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    scope.spawn(move || self.handle(stream));
                }
            }
            // Make sure the runner observes shutdown even if the queue
            // is empty.
            self.shutdown.store(true, Ordering::SeqCst);
            self.queue_cv.notify_all();
        });
        Ok(())
    }

    /// One connection: serve line-delimited requests until EOF (or a
    /// shutdown request closes the server).
    fn handle(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut write_half = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let request = line.trim();
            if request.is_empty() {
                continue;
            }
            let reply = self.dispatch(request);
            if writeln!(write_half, "{reply}").and_then(|()| write_half.flush()).is_err() {
                break;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    fn error(message: impl Into<String>) -> String {
        Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str(message.into())),
        ])
        .to_string()
    }

    /// Routes one request line to its handler and renders the reply
    /// line.
    fn dispatch(&self, request: &str) -> String {
        let parsed = match Json::parse(request) {
            Ok(v) => v,
            Err(e) => return Self::error(format!("bad request: {e}")),
        };
        match parsed.get("type").and_then(Json::as_str) {
            Some("sweep") => match parsed.get("job").map(JobSpec::from_json) {
                Some(Ok(job)) => self.submit(job),
                Some(Err(e)) => Self::error(format!("bad job: {e}")),
                None => Self::error("sweep request needs a job object"),
            },
            Some("health") => self.health(),
            Some("shutdown") => self.begin_shutdown(),
            Some(other) => Self::error(format!(
                "unknown request type {other:?} (valid: sweep, health, shutdown)"
            )),
            None => Self::error("request needs a type field"),
        }
    }

    /// Journals and enqueues a job, then blocks until the runner's
    /// reply. Returns an explicit `overloaded` rejection — never
    /// queues unboundedly, never hangs — when the queue is full.
    fn submit(&self, job: JobSpec) -> String {
        let id = Journal::job_id(&job);
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut queue = self.queue.lock().expect("queue poisoned");
            if queue.len() >= self.cfg.queue_limit {
                self.stats.inc("jobs_shed");
                return Self::error(format!(
                    "overloaded: queue full ({} jobs); resubmit later",
                    queue.len()
                ));
            }
            // Write-ahead: the job becomes durable before it becomes
            // runnable. A journal failure rejects the job outright.
            if let Err(e) = self
                .journal
                .lock()
                .expect("journal poisoned")
                .accepted(&id, &job)
            {
                return Self::error(format!("journal write failed: {e}"));
            }
            queue.push_back(QueuedJob {
                id,
                spec: job,
                reply: Some(tx),
            });
        }
        self.stats.inc("jobs_accepted");
        self.queue_cv.notify_one();
        rx.recv()
            .unwrap_or_else(|_| Self::error("server shut down before the job completed"))
    }

    /// The health/stats endpoint: queue depth plus the live counters as
    /// a metrics registry.
    fn health(&self) -> String {
        let depth = self.queue.lock().expect("queue poisoned").len();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("queue_depth", Json::from(depth)),
            ("metrics", self.stats.to_registry("serve").to_json()),
        ])
        .to_string()
    }

    /// Flags shutdown, wakes the runner, and unblocks the accept loop
    /// with a self-connection.
    fn begin_shutdown(&self) -> String {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        if let Ok(addr) = self.addr() {
            let _ = TcpStream::connect(addr);
        }
        Json::obj([("ok", Json::Bool(true))]).to_string()
    }

    /// The single job runner: pops jobs in order, executes them, and
    /// replies. On shutdown, queued-but-unstarted jobs get an explicit
    /// rejection (they stay journaled as accepted, so a restart
    /// recovers them).
    fn runner(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue poisoned");
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        for job in queue.drain(..) {
                            if let Some(reply) = job.reply {
                                let _ = reply
                                    .send(Self::error("server shutting down; job stays journaled"));
                            }
                        }
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue poisoned");
                }
            };
            let reply = self.run_job(&job.spec);
            {
                let mut journal = self.journal.lock().expect("journal poisoned");
                let _ = journal.done(&job.id);
            }
            self.stats.inc("jobs_completed");
            if let Some(tx) = job.reply {
                let _ = tx.send(reply);
            }
        }
    }

    /// Executes one job: cells through the cache-backed runner, one
    /// worker-pool-sized chunk at a time, then report assembly in
    /// request order.
    fn run_job(&self, job: &JobSpec) -> String {
        let (profiles, resolved) = match job.resolve() {
            Ok(r) => r,
            Err(e) => return Self::error(format!("bad job: {e}")),
        };
        let cells: Vec<(&AppProfile, SimConfig)> = resolved
            .into_iter()
            .map(|(pi, cfg)| (&profiles[pi], cfg))
            .collect();
        let supervision = Supervision {
            max_attempts: job.retry.max(self.cfg.retry).max(1),
            deadline_ms: job.deadline_ms.or(self.cfg.deadline_ms),
            chaos: (job.fault_rate_e4 > 0).then_some(ChaosPlan {
                rate_e4: job.fault_rate_e4,
                seed: job.fault_seed,
            }),
            ..Supervision::default()
        };
        let opts = SweepOptions::with_jobs(self.cfg.jobs);

        // Each chunk's results hit the cache (and the counters) before
        // the next one starts: a crash mid-job loses at most one chunk
        // of work, so restart recovery re-simulates only the cells that
        // never made it to disk.
        let mut total = CacheRunStats::default();
        let mut records = Vec::with_capacity(cells.len());
        let mut failed = Vec::new();
        for chunk in cells.chunks(self.cfg.jobs.max(1)) {
            let (resolved, s) = run_cached(Some(&self.cache), true, chunk, &opts, &supervision);
            for (name, n) in [
                ("cache_hits", s.hits),
                ("cache_corrupt", s.corrupt),
                ("cells_computed", s.computed),
                ("cell_retries", s.retries),
                ("cells_failed", s.failed),
                ("cache_store_errors", s.store_errors),
            ] {
                // Adding 0 would register `cache_store_errors`, which
                // health lists only once a store has failed.
                if n > 0 {
                    self.stats.add(name, n);
                }
            }
            total += s;
            for cell in resolved {
                match cell.record {
                    Ok(record) => records.push(record),
                    Err(f) => failed.push(f),
                }
            }
        }

        let job_stats = Json::obj([
            ("cache_hits", Json::from(total.hits)),
            ("cache_corrupt", Json::from(total.corrupt)),
            ("computed", Json::from(total.computed)),
            ("retries", Json::from(total.retries)),
            ("failed", Json::from(total.failed)),
        ]);
        let report = SweepReport {
            name: job.name.clone(),
            records,
            failed,
            metrics: Some(Json::obj([("serve_job", job_stats.clone())])),
        };
        // Durable copy under reports/ (crash-safe save); the reply does
        // not depend on it succeeding.
        let _ = report.save(&self.cfg.dir.join("reports"));
        let report_json = Json::parse(&report.to_json_string_checksummed())
            .expect("reports serialize to valid json");
        Json::obj([
            ("ok", Json::Bool(true)),
            ("report", report_json),
            ("stats", job_stats),
        ])
        .to_string()
    }
}
