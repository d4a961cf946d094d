//! Persistent content-addressed result cache.
//!
//! Every completed cell is stored as one small JSON file keyed by the
//! cell's *content*: application, a digest of the full [`SimConfig`]
//! (policy, SB size, budgets, seed — everything that can change the
//! numbers; the execution kernel cannot, see [`CacheKey::for_cell`]),
//! and the simulator code version. Identical cells in later jobs — or
//! after a crash-restart — are served from disk instead of being
//! re-simulated, and because the simulator is deterministic a hit is
//! bit-identical to a fresh run (modulo the non-reproducible `wall_ms`
//! host timing, which is cached as-measured).
//!
//! [`run_cached`] is the one path from cells to records: it looks every
//! cell up, runs the misses through the supervised executor and stores
//! what they produce. `spbsim sweep`, the service and the tuner all
//! call it.
//!
//! Robustness contract:
//!
//! - **Atomic writes**: entries are written to a same-directory tmp
//!   file and renamed into place, so a crash mid-store leaves either no
//!   entry or a complete one — never a torn file.
//! - **Per-entry checksums**: each entry embeds an FNV-1a digest of its
//!   canonical body; [`ResultCache::lookup`] re-derives it on read.
//! - **Corruption quarantine**: an unreadable, unparsable, mismatched
//!   or wrong-key entry is renamed to `<name>.quarantined` (kept for
//!   post-mortem) and reported as [`Lookup::Corrupt`] so the caller
//!   recomputes; the service counts these in its health stats.
//! - **Bounded growth**: an optional LRU bound on entry count and/or
//!   total bytes ([`ResultCache::with_entry_bound`],
//!   [`ResultCache::with_size_bound`]). Eviction removes whole entries,
//!   never edits them, so it can only turn a future hit into a miss —
//!   and a miss recomputes bit-identically (the simulator is
//!   deterministic). Lookups bump an entry's file mtime, which is the
//!   recency the evictor sorts by.

use crate::CODE_VERSION;
use spb_sim::config::{KernelMode, SimConfig};
use spb_sim::runner::RunResult;
use spb_sim::sweep::{run_cells_supervised, CellFailure, Supervision, SweepOptions, SweepRecord};
use spb_stats::hash::{fnv1a64, hex16};
use spb_stats::json::Json;
use spb_trace::profile::AppProfile;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The content-addressed key of one cell result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derives the key for `(app, cfg)` under the current
    /// [`CODE_VERSION`]. The config digest covers the `Debug` rendering
    /// of the *whole* [`SimConfig`] — any field that could change the
    /// simulated numbers changes the key. The kernel is rendered as the
    /// default `Wheel` whatever `cfg` says: tick and wheel are
    /// bit-identical by contract, so one cell gets one entry.
    pub fn for_cell(app: &str, cfg: &SimConfig) -> Self {
        let digest =
            |cfg: &SimConfig| Self(fnv1a64(format!("{CODE_VERSION}|{app}|{cfg:?}").as_bytes()));
        // Only a non-default kernel pays for the clone.
        if cfg.kernel == KernelMode::Wheel {
            digest(cfg)
        } else {
            digest(&SimConfig {
                kernel: KernelMode::Wheel,
                ..cfg.clone()
            })
        }
    }

    /// The entry's file name under the cache directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", hex16(self.0))
    }

    /// The key as 16 lowercase hex digits (tuner provenance).
    pub fn hex(&self) -> String {
        hex16(self.0)
    }
}

/// The outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A validated entry: the cached record.
    Hit(SweepRecord),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation; it has been quarantined
    /// and the caller must recompute. The string says why.
    Corrupt(String),
}

/// A directory of checksummed, atomically-written cell results.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    /// Evict least-recently-used entries past this count, if set.
    max_entries: Option<usize>,
    /// Evict least-recently-used entries past this total size, if set.
    max_bytes: Option<u64>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir`, unbounded.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            max_entries: None,
            max_bytes: None,
        })
    }

    /// Bounds the cache to at most `n` entries (LRU eviction on store).
    pub fn with_entry_bound(mut self, n: usize) -> Self {
        self.max_entries = Some(n);
        self
    }

    /// Bounds the cache to at most `bytes` of entry files (LRU eviction
    /// on store).
    pub fn with_size_bound(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// The canonical entry body: key provenance plus the record. The
    /// checksum is computed over this text.
    fn body_text(key: CacheKey, app: &str, record: &SweepRecord) -> String {
        let v = Json::obj([
            ("key", Json::str(hex16(key.0))),
            ("code_version", Json::str(CODE_VERSION)),
            ("app", Json::str(app)),
            ("record", record.to_json()),
        ]);
        format!("{v:#}\n")
    }

    /// Stores `record` under `key` with an embedded checksum, via a
    /// same-directory tmp file and an atomic rename.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a failed store leaves no partial
    /// entry behind.
    pub fn store(&self, key: CacheKey, app: &str, record: &SweepRecord) -> std::io::Result<()> {
        let body = Self::body_text(key, app, record);
        let v = Json::obj([
            ("body", Json::parse(&body).expect("body is valid json")),
            (
                "checksum",
                Json::str(format!("fnv1a64:{}", hex16(fnv1a64(body.as_bytes())))),
            ),
        ]);
        let path = self.entry_path(key);
        let tmp = self
            .dir
            .join(format!(".{}.tmp{}", key.file_name(), std::process::id()));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("{v:#}\n").as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        // Best-effort: a failed eviction only leaves the cache larger
        // than asked, never corrupts an entry.
        self.enforce_bounds();
        Ok(())
    }

    /// Validates and returns the entry under `key`, quarantining it on
    /// any corruption.
    pub fn lookup(&self, key: CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            Err(e) => return self.quarantine(&path, format!("unreadable entry: {e}")),
        };
        match Self::validate(key, &text) {
            Ok(record) => {
                // Bump recency so the LRU evictor keeps hot entries.
                // Best-effort: a stale mtime only skews eviction order.
                if self.max_entries.is_some() || self.max_bytes.is_some() {
                    if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                        let _ = f.set_modified(std::time::SystemTime::now());
                    }
                }
                Lookup::Hit(record)
            }
            Err(why) => self.quarantine(&path, why),
        }
    }

    fn validate(key: CacheKey, text: &str) -> Result<SweepRecord, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let body = v.get("body").ok_or("missing body")?;
        let stated = v
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or("missing checksum")?;
        let body_text = format!("{body:#}\n");
        let computed = format!("fnv1a64:{}", hex16(fnv1a64(body_text.as_bytes())));
        if stated != computed {
            return Err(format!(
                "checksum mismatch: entry says {stated}, content hashes to {computed}"
            ));
        }
        let entry_key = body.get("key").and_then(Json::as_str).unwrap_or("");
        if entry_key != hex16(key.0) {
            return Err(format!(
                "key mismatch: entry is for {entry_key}, looked up {}",
                hex16(key.0)
            ));
        }
        let version = body.get("code_version").and_then(Json::as_str).unwrap_or("");
        if version != CODE_VERSION {
            return Err(format!(
                "stale code version {version:?} (current {CODE_VERSION:?})"
            ));
        }
        SweepRecord::from_json(body.get("record").ok_or("missing record")?)
    }

    /// Live entries as `(path, mtime, bytes)`; excludes quarantined and
    /// in-flight tmp files (both fail the `*.json`, non-dot filter).
    fn live_entries(&self) -> Vec<(PathBuf, std::time::SystemTime, u64)> {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        rd.filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".json") && !name.starts_with('.')
            })
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((e.path(), mtime, meta.len()))
            })
            .collect()
    }

    /// The number of live (non-quarantined) entries on disk.
    pub fn entry_count(&self) -> usize {
        self.live_entries().len()
    }

    /// Deletes least-recently-used entries until the configured bounds
    /// hold. Whole-entry deletion only: an evicted key becomes a clean
    /// [`Lookup::Miss`] whose recompute is bit-identical, so eviction
    /// can never corrupt a result.
    fn enforce_bounds(&self) {
        if self.max_entries.is_none() && self.max_bytes.is_none() {
            return;
        }
        let mut entries = self.live_entries();
        entries.sort_by_key(|&(_, mtime, _)| mtime);
        let mut count = entries.len();
        let mut bytes: u64 = entries.iter().map(|&(_, _, len)| len).sum();
        for (path, _, len) in entries {
            let over_count = self.max_entries.is_some_and(|m| count > m);
            let over_bytes = self.max_bytes.is_some_and(|m| bytes > m);
            if !over_count && !over_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                count -= 1;
                bytes = bytes.saturating_sub(len);
            }
        }
    }

    /// Moves a bad entry aside (never deletes evidence) and reports the
    /// reason. If even the rename fails the entry is left in place; the
    /// caller still recomputes.
    fn quarantine(&self, path: &Path, why: String) -> Lookup {
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        let _ = std::fs::rename(path, PathBuf::from(q));
        Lookup::Corrupt(why)
    }

    /// The number of quarantined entries currently on disk.
    pub fn quarantined_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_string_lossy()
                            .ends_with(".quarantined")
                    })
                    .count()
            })
            .unwrap_or(0)
    }
}

/// Counters of one [`run_cached`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRunStats {
    /// Cells served from the cache.
    pub hits: u64,
    /// Entries that failed validation; they were quarantined and their
    /// cells recomputed.
    pub corrupt: u64,
    /// Cells simulated by this call.
    pub computed: u64,
    /// Attempts beyond the first, summed over the simulated cells.
    pub retries: u64,
    /// Cells that failed after their last attempt.
    pub failed: u64,
    /// Computed cells whose record could not be stored.
    pub store_errors: u64,
}

impl std::ops::AddAssign for CacheRunStats {
    fn add_assign(&mut self, o: Self) {
        self.hits += o.hits;
        self.corrupt += o.corrupt;
        self.computed += o.computed;
        self.retries += o.retries;
        self.failed += o.failed;
        self.store_errors += o.store_errors;
    }
}

/// One cell as [`run_cached`] resolved it.
#[derive(Debug)]
pub struct CachedCell {
    /// The cell's content-addressed key.
    pub key: CacheKey,
    /// The cell's record, served or fresh, or why its last attempt
    /// failed.
    pub record: Result<SweepRecord, CellFailure>,
    /// The full result, when this call simulated the cell (boxed so a
    /// served cell stays small).
    pub run: Option<Box<RunResult>>,
}

/// Resolves `cells` to records through `cache`: looks each cell up
/// (when `reuse` is set), runs the misses through
/// [`run_cells_supervised`] and stores every record they produce as
/// [`SweepRecord::from_run_full`]. Results come back in input order.
///
/// A hit serves only if its record carries `energy_nj` and `coh_msgs`;
/// an entry without them is recomputed and overwritten, once. Without
/// `reuse` every cell is simulated and stored; with no cache at all
/// nothing is looked up or stored. Store failures are not fatal: the
/// record is still returned and counted in
/// [`CacheRunStats::store_errors`].
pub fn run_cached(
    cache: Option<&ResultCache>,
    reuse: bool,
    cells: &[(&AppProfile, SimConfig)],
    opts: &SweepOptions,
    sup: &Supervision,
) -> (Vec<CachedCell>, CacheRunStats) {
    let mut stats = CacheRunStats::default();
    let mut resolved: Vec<Option<CachedCell>> = Vec::with_capacity(cells.len());
    let mut misses = Vec::new();
    for (i, (app, cfg)) in cells.iter().enumerate() {
        let key = CacheKey::for_cell(app.name(), cfg);
        match cache.filter(|_| reuse).map(|c| c.lookup(key)) {
            Some(Lookup::Hit(rec)) if rec.energy_nj.is_some() && rec.coh_msgs.is_some() => {
                stats.hits += 1;
                resolved.push(Some(CachedCell {
                    key,
                    record: Ok(rec),
                    run: None,
                }));
                continue;
            }
            Some(Lookup::Corrupt(_)) => stats.corrupt += 1,
            _ => {}
        }
        misses.push((i, key));
        resolved.push(None);
    }
    let todo: Vec<(&AppProfile, SimConfig)> = misses
        .iter()
        .map(|&(i, _)| (cells[i].0, cells[i].1.clone()))
        .collect();
    for ((i, key), (outcome, attempts)) in misses
        .into_iter()
        .zip(run_cells_supervised(&todo, opts, sup))
    {
        stats.retries += u64::from(attempts.saturating_sub(1));
        resolved[i] = Some(match outcome {
            Ok(run) => {
                stats.computed += 1;
                let record = SweepRecord::from_run_full(&run);
                if let Some(c) = cache {
                    if c.store(key, cells[i].0.name(), &record).is_err() {
                        stats.store_errors += 1;
                    }
                }
                CachedCell {
                    key,
                    record: Ok(record),
                    run: Some(Box::new(run)),
                }
            }
            Err(f) => {
                stats.failed += 1;
                CachedCell {
                    key,
                    record: Err(f),
                    run: None,
                }
            }
        });
    }
    let cells = resolved
        .into_iter()
        .map(|c| c.expect("every cell is a hit or was run"))
        .collect();
    (cells, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spb_sim::config::PolicyKind;
    use spb_sim::sweep::ChaosPlan;

    fn record() -> SweepRecord {
        SweepRecord {
            app: "x264".into(),
            policy: "spb".into(),
            sb: 14,
            cycles: 123_456,
            uops: 300_000,
            ipc: 300_000.0 / 123_456.0,
            wall_ms: 10.5,
            energy_nj: Some(4321.25),
            coh_msgs: Some(99),
        }
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("spb-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    /// Cache keys are persistent: a warm cache stays valid only while
    /// the key of an unchanged cell stays the same. These values were
    /// computed before the `event` kernel was removed; `KernelMode`'s
    /// `Debug` rendering (`Wheel`) is part of the key and must not move.
    #[test]
    fn default_config_keys_are_stable() {
        let key = CacheKey::for_cell("x264", &SimConfig::paper_default());
        assert_eq!(key.hex(), "8b0456f4de5c0b65");
        let key = CacheKey::for_cell("mcf", &SimConfig::quick().with_sb(14));
        assert_eq!(key.hex(), "7eb483dd3b99a566");
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = tmp_cache("roundtrip");
        let cfg = SimConfig::quick().with_sb(14).with_policy(PolicyKind::spb_default());
        let key = CacheKey::for_cell("x264", &cfg);
        assert_eq!(cache.lookup(key), Lookup::Miss);
        cache.store(key, "x264", &record()).unwrap();
        assert_eq!(cache.lookup(key), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn keys_separate_configs_and_apps() {
        let base = SimConfig::quick();
        let k = |app: &str, cfg: &SimConfig| CacheKey::for_cell(app, cfg);
        assert_ne!(k("x264", &base), k("lbm", &base));
        assert_ne!(k("x264", &base), k("x264", &base.clone().with_sb(14)));
        let mut seeded = base.clone();
        seeded.seed = 43;
        assert_ne!(k("x264", &base), k("x264", &seeded));
        // Tick and wheel are bit-identical by contract: one cell, one
        // entry, whichever kernel computed it.
        let tick = SimConfig {
            kernel: KernelMode::Tick,
            ..base.clone()
        };
        assert_eq!(k("x264", &tick), k("x264", &base));
    }

    /// A budget small enough for debug-build tests.
    fn tiny_cells(app: &AppProfile) -> Vec<(&AppProfile, SimConfig)> {
        let mut cfg = SimConfig::quick();
        cfg.warmup_uops = 2_000;
        cfg.measure_uops = 10_000;
        [14, 28].iter().map(|&sb| (app, cfg.clone().with_sb(sb))).collect()
    }

    #[test]
    fn a_second_run_computes_nothing_and_thin_entries_recompute_once() {
        let cache = tmp_cache("rerun");
        let app = AppProfile::by_name("x264").unwrap();
        let cells = tiny_cells(&app);
        let run = |reuse| {
            run_cached(
                Some(&cache),
                reuse,
                &cells,
                &SweepOptions::serial(),
                &Supervision::default(),
            )
        };
        let (first, s) = run(true);
        assert_eq!((s.hits, s.computed, s.failed), (0, 2, 0));
        assert!(first.iter().all(|c| c.run.is_some()), "fresh cells keep their run");

        let (second, s) = run(true);
        assert_eq!((s.hits, s.computed), (2, 0), "the second call computes 0 cells");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.record, b.record, "a hit is the stored record");
            assert!(b.run.is_none());
        }

        // Without reuse every cell is simulated (and stored) again.
        let (_, s) = run(false);
        assert_eq!((s.hits, s.computed), (0, 2));

        // An entry without the objective fields is a miss, recomputed
        // and overwritten with a complete record.
        let thin = SweepRecord {
            energy_nj: None,
            coh_msgs: None,
            ..first[0].record.clone().unwrap()
        };
        cache.store(first[0].key, "x264", &thin).unwrap();
        let (_, s) = run(true);
        assert_eq!((s.hits, s.computed), (1, 1));
        let (_, s) = run(true);
        assert_eq!((s.hits, s.computed), (2, 0), "recomputed once, then served");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn a_cell_that_fails_every_attempt_is_computed_on_the_next_call() {
        let cache = tmp_cache("chaos");
        let app = AppProfile::by_name("x264").unwrap();
        let cells = &tiny_cells(&app)[..1];
        let all_fail = Supervision {
            max_attempts: 2,
            base_backoff_ms: 0,
            chaos: Some(ChaosPlan {
                rate_e4: 10_000,
                seed: 1,
            }),
            ..Supervision::default()
        };
        let (out, s) = run_cached(Some(&cache), true, cells, &SweepOptions::serial(), &all_fail);
        assert_eq!((s.computed, s.failed, s.retries), (0, 1, 1));
        let f = out[0].record.as_ref().unwrap_err();
        assert!(f.reason.starts_with("chaos:"), "reason: {}", f.reason);
        assert_eq!(cache.entry_count(), 0, "a failed cell stores nothing");

        let (out, s) = run_cached(
            Some(&cache),
            true,
            cells,
            &SweepOptions::serial(),
            &Supervision::default(),
        );
        assert_eq!((s.hits, s.computed, s.failed), (0, 1, 0));
        assert!(out[0].record.is_ok());
        assert_eq!(cache.entry_count(), 1);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn flipped_bytes_are_detected_and_quarantined() {
        let cache = tmp_cache("flip");
        let cfg = SimConfig::quick();
        let key = CacheKey::for_cell("x264", &cfg);
        cache.store(key, "x264", &record()).unwrap();
        let path = cache.dir().join(key.file_name());
        // Flip a digit inside the cycle count: still valid JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("123456", "123457", 1)).unwrap();
        match cache.lookup(key) {
            Lookup::Corrupt(why) => assert!(why.contains("checksum"), "why: {why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The bad entry is quarantined, not deleted; the slot now misses.
        assert_eq!(cache.quarantined_count(), 1);
        assert_eq!(cache.lookup(key), Lookup::Miss);
        // Recompute-and-store heals the slot.
        cache.store(key, "x264", &record()).unwrap();
        assert_eq!(cache.lookup(key), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_and_garbage_entries_quarantine() {
        let cache = tmp_cache("garbage");
        let cfg = SimConfig::quick();
        let key = CacheKey::for_cell("lbm", &cfg);
        cache.store(key, "lbm", &record()).unwrap();
        let path = cache.dir().join(key.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt(_)));
        std::fs::write(cache.dir().join(key.file_name()), "not json at all").unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt(_)));
        assert_eq!(cache.quarantined_count(), 1, "second quarantine overwrote");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn lru_eviction_bounds_entries_and_recompute_is_bit_identical() {
        use std::time::{Duration, SystemTime};
        let cache = tmp_cache("lru").with_entry_bound(4);
        let apps = ["a", "b", "c", "d", "e", "f"];
        let keys: Vec<CacheKey> = apps
            .iter()
            .map(|app| CacheKey::for_cell(app, &SimConfig::quick()))
            .collect();
        // Store the first four with explicit, strictly increasing
        // mtimes so LRU order is deterministic regardless of clock
        // granularity: a oldest ... d newest.
        let base = SystemTime::now() - Duration::from_secs(3600);
        for (i, (app, key)) in apps.iter().zip(&keys).take(4).enumerate() {
            cache.store(*key, app, &record()).unwrap();
            let f = std::fs::File::options()
                .write(true)
                .open(cache.dir().join(key.file_name()))
                .unwrap();
            f.set_modified(base + Duration::from_secs(i as u64)).unwrap();
        }
        assert_eq!(cache.entry_count(), 4);
        // A lookup refreshes "a"'s recency, so it must survive the
        // coming evictions while the untouched "b" does not.
        assert!(matches!(cache.lookup(keys[0]), Lookup::Hit(_)));
        cache.store(keys[4], "e", &record()).unwrap();
        cache.store(keys[5], "f", &record()).unwrap();
        assert_eq!(cache.entry_count(), 4, "bound enforced after stores");
        assert!(
            matches!(cache.lookup(keys[0]), Lookup::Hit(_)),
            "recently-used entry survived eviction"
        );
        assert_eq!(cache.lookup(keys[1]), Lookup::Miss, "LRU entry evicted");
        // Eviction never corrupts: recomputing the evicted cell and
        // re-storing yields a bit-identical hit.
        cache.store(keys[1], "b", &record()).unwrap();
        assert_eq!(cache.lookup(keys[1]), Lookup::Hit(record()));
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn size_bound_evicts_and_spares_quarantined_evidence() {
        // Seed and quarantine through an unbounded handle so the bound
        // cannot evict the entry before the corruption check sees it.
        let unbounded = tmp_cache("sizebound");
        let cache = unbounded.clone().with_size_bound(1);
        let cfg = SimConfig::quick();
        let key_a = CacheKey::for_cell("a", &cfg);
        let key_b = CacheKey::for_cell("b", &cfg);
        unbounded.store(key_a, "a", &record()).unwrap();
        // Corrupt and quarantine "a"'s entry: quarantined files are
        // evidence, not cache entries — the evictor must not count or
        // delete them.
        let path = cache.dir().join(key_a.file_name());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("123456", "999999", 1)).unwrap();
        assert!(matches!(cache.lookup(key_a), Lookup::Corrupt(_)));
        assert_eq!(cache.quarantined_count(), 1);
        // Every store now exceeds the 1-byte bound, so the cache keeps
        // evicting down to nothing — but the quarantined file stays.
        cache.store(key_b, "b", &record()).unwrap();
        assert_eq!(cache.entry_count(), 0, "size bound evicts everything");
        assert_eq!(cache.quarantined_count(), 1, "evidence untouched");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn wrong_key_entries_quarantine() {
        let cache = tmp_cache("wrongkey");
        let cfg = SimConfig::quick();
        let key_a = CacheKey::for_cell("x264", &cfg);
        let key_b = CacheKey::for_cell("lbm", &cfg);
        cache.store(key_a, "x264", &record()).unwrap();
        // Simulate a mis-filed entry: key_a's content under key_b's name.
        std::fs::copy(
            cache.dir().join(key_a.file_name()),
            cache.dir().join(key_b.file_name()),
        )
        .unwrap();
        match cache.lookup(key_b) {
            Lookup::Corrupt(why) => assert!(why.contains("key mismatch"), "why: {why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
