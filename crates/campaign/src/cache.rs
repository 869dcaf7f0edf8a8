//! Content-addressed on-disk result cache.
//!
//! Each run unit is addressed by `stable_hash128` of its canonical JSON
//! [descriptor](crate::RunUnit::descriptor) (which includes the engine
//! version). A record file stores the descriptor next to the outcome, so
//! a hash collision or a stale file is detected by comparing descriptors
//! on load and treated as a miss — the hash only has to be a good file
//! name, not a proof of identity.
//!
//! Records are canonical JSON (sorted keys, stable number formatting):
//! re-running an identical spec rewrites byte-identical files, which the
//! resume-determinism tests pin down.

use std::io;
use std::path::{Path, PathBuf};

use grid_metrics::RunOutcome;
use grid_ser::{stable_hash128, Value};

use crate::plan::RunUnit;

/// One cached run: the descriptor it was computed from plus the outcome.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Canonical descriptor of the producing unit.
    pub descriptor: Value,
    /// The simulation outcome.
    pub outcome: RunOutcome,
}

impl RunRecord {
    /// Build a record for `unit`.
    pub fn new(unit: &RunUnit, outcome: RunOutcome) -> RunRecord {
        RunRecord {
            descriptor: unit.descriptor(),
            outcome,
        }
    }

    /// Canonical byte encoding.
    pub fn encode(&self) -> String {
        let mut v = Value::object();
        v.insert("descriptor", self.descriptor.clone());
        v.insert("outcome", self.outcome.to_json());
        v.encode()
    }

    /// Parse [`RunRecord::encode`] output.
    pub fn decode(text: &str) -> Result<RunRecord, grid_ser::json::SerError> {
        let v = Value::parse(text)?;
        Ok(RunRecord {
            descriptor: v.req("descriptor")?.clone(),
            outcome: RunOutcome::from_json(v.req("outcome")?)?,
        })
    }
}

/// Directory of content-addressed run records.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (and create) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content hash of a unit's descriptor.
    pub fn key(unit: &RunUnit) -> String {
        stable_hash128(unit.descriptor().encode().as_bytes())
    }

    /// File path a unit's record lives at.
    pub fn path(&self, unit: &RunUnit) -> PathBuf {
        self.dir.join(format!("{}.json", Self::key(unit)))
    }

    /// Cheap hit probe: does a record file exist for this unit?
    ///
    /// Existence-only — no parse, no descriptor verification — so it is
    /// suitable for previews over large caches (`campaign plan`). Use
    /// [`ResultCache::load`] when the outcome is actually consumed.
    pub fn contains(&self, unit: &RunUnit) -> bool {
        self.path(unit).is_file()
    }

    /// Load a unit's record; `None` on miss, corruption, or a descriptor
    /// mismatch (collision / stale engine version).
    pub fn load(&self, unit: &RunUnit) -> Option<RunRecord> {
        let text = std::fs::read_to_string(self.path(unit)).ok()?;
        let record = RunRecord::decode(&text).ok()?;
        if record.descriptor.encode() != unit.descriptor().encode() {
            return None;
        }
        Some(record)
    }

    /// Atomically persist a record (write-then-rename, so a concurrent
    /// process or an interrupt never leaves a torn file).
    pub fn store(&self, unit: &RunUnit, record: &RunRecord) -> io::Result<()> {
        let final_path = self.path(unit);
        let tmp = final_path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, record.encode())?;
        std::fs::rename(&tmp, &final_path)
    }

    /// File path a unit's observability sidecar lives at (under the
    /// `obs/` subdirectory — invisible to [`ResultCache::len`] and the
    /// record scan of [`ResultCache::gc`], so attaching instrumentation
    /// never perturbs record bookkeeping or cache bytes).
    pub fn obs_path(&self, unit: &RunUnit) -> PathBuf {
        self.dir
            .join(OBS_SUBDIR)
            .join(format!("{}.json", Self::key(unit)))
    }

    /// Atomically persist a unit's observability sidecar (wall time,
    /// event counts, per-site `ClusterStats`). Sidecars are telemetry,
    /// not results: they are keyed like records but live in their own
    /// subdirectory and may be deleted freely.
    pub fn store_obs(&self, unit: &RunUnit, sidecar: &Value) -> io::Result<()> {
        let dir = self.dir.join(OBS_SUBDIR);
        // Single-level create: telemetry must never resurrect a cache
        // directory that was deleted out from under us.
        match std::fs::create_dir(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        let final_path = self.obs_path(unit);
        let tmp = final_path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, sidecar.encode())?;
        std::fs::rename(&tmp, &final_path)
    }

    /// Load a unit's observability sidecar; `None` on miss or corruption.
    pub fn load_obs(&self, unit: &RunUnit) -> Option<Value> {
        let text = std::fs::read_to_string(self.obs_path(unit)).ok()?;
        Value::parse(&text).ok()
    }

    /// Number of record files currently present (any spec).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// `true` when no record files are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Garbage-collect the cache: delete every record file whose key is
    /// not in `keep` (records written by an older engine version or by a
    /// spec no longer reachable hash to keys no live plan produces), plus
    /// any stale `.tmp.*` files left by interrupted writers.
    pub fn gc(&self, keep: &std::collections::HashSet<String>) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if let Some(stem) = name.strip_suffix(".json") {
                report.scanned += 1;
                if keep.contains(stem) {
                    report.kept += 1;
                    report.kept_bytes += size;
                } else {
                    std::fs::remove_file(&path)?;
                    report.deleted += 1;
                    report.reclaimed_bytes += size;
                }
            } else if name.contains(".tmp.") {
                // Torn write from a crashed process: never reachable again.
                std::fs::remove_file(&path)?;
                report.tmp_deleted += 1;
                report.reclaimed_bytes += size;
            }
        }
        // Lease files and failure markers (the runner-fleet claim
        // protocol, `crate::fleet`) are ephemeral coordination state: a
        // lease is stale once its unit is unreachable, already recorded,
        // or past its expiry stamp; a failure marker is superseded by a
        // record or an unreachable key; `.stale.*` / `.tmp.*` leftovers
        // from interrupted steals and marker writes are always swept.
        let lease_dir = self.dir.join(crate::fleet::LEASE_SUBDIR);
        if lease_dir.is_dir() {
            for entry in std::fs::read_dir(&lease_dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                let stale = if let Some(stem) = name.strip_suffix(".lease") {
                    !keep.contains(stem)
                        || self.dir.join(format!("{stem}.json")).is_file()
                        || crate::fleet::now_unix()
                            >= crate::fleet::lease_expiry(
                                &entry.path(),
                                crate::fleet::DEFAULT_LEASE_TTL_S,
                            )
                } else if let Some(stem) = name.strip_suffix(".failed.json") {
                    !keep.contains(stem) || self.dir.join(format!("{stem}.json")).is_file()
                } else {
                    name.contains(".stale.") || name.contains(".tmp.")
                };
                if stale {
                    std::fs::remove_file(entry.path())?;
                    report.leases_deleted += 1;
                    report.reclaimed_bytes += size;
                }
            }
        }
        // Runner heartbeats: a runner that exits cleanly removes its own
        // `.hb` file, so one still present past the lease TTL belongs to
        // a crashed runner (the same staleness rule torn leases use —
        // the display-level [`crate::fleet::HEARTBEAT_STALE_S`] window is
        // deliberately tighter and only affects liveness reporting).
        // `.tmp.` leftovers from interrupted heartbeat writes are always
        // swept.
        let runner_dir = lease_dir.join(crate::fleet::RUNNER_SUBDIR);
        if runner_dir.is_dir() {
            for entry in std::fs::read_dir(&runner_dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                let stale = if name.ends_with(".hb") {
                    crate::fleet::mtime_unix(&entry.path()).is_none_or(|m| {
                        crate::fleet::now_unix() >= m + crate::fleet::DEFAULT_LEASE_TTL_S
                    })
                } else {
                    name.contains(".tmp.")
                };
                if stale {
                    std::fs::remove_file(entry.path())?;
                    report.heartbeats_deleted += 1;
                    report.reclaimed_bytes += size;
                }
            }
        }
        // Observability sidecars follow their records: a sidecar whose
        // key no live plan produces is as unreachable as the record was.
        let obs_dir = self.dir.join(OBS_SUBDIR);
        if obs_dir.is_dir() {
            for entry in std::fs::read_dir(&obs_dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                let stale = match name.strip_suffix(".json") {
                    Some(stem) => !keep.contains(stem),
                    None => name.contains(".tmp."),
                };
                if stale {
                    std::fs::remove_file(entry.path())?;
                    report.obs_deleted += 1;
                    report.reclaimed_bytes += size;
                }
            }
        }
        Ok(report)
    }
}

/// Subdirectory of the cache holding observability sidecars.
const OBS_SUBDIR: &str = "obs";

/// What [`ResultCache::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Record files examined.
    pub scanned: usize,
    /// Records kept (reachable from a provided spec).
    pub kept: usize,
    /// Bytes held by the kept records.
    pub kept_bytes: u64,
    /// Records deleted.
    pub deleted: usize,
    /// Stale temporary files deleted.
    pub tmp_deleted: usize,
    /// Observability sidecars deleted (records' `obs/` companions).
    pub obs_deleted: usize,
    /// Stale lease files and failure markers deleted (the runner
    /// fleet's `leases/` coordination state).
    pub leases_deleted: usize,
    /// Stale runner heartbeat files deleted (`leases/runners/*.hb`
    /// older than the lease TTL — crashed runners).
    pub heartbeats_deleted: usize,
    /// Bytes reclaimed by the deletions.
    pub reclaimed_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RunKind;
    use grid_batch::BatchPolicy;
    use grid_workload::Scenario;

    fn unit(seed: u64) -> RunUnit {
        RunUnit {
            scenario: Scenario::Jun,
            heterogeneous: false,
            policy: BatchPolicy::Cbf,
            seed,
            fraction: 0.01,
            fault: grid_fault::Fault::NONE,
            mapping: grid_realloc::Mapping::Mct,
            walltime_adjustment: true,
            kind: RunKind::Reference,
        }
    }

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "grid-campaign-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let cache = tmp_cache("roundtrip");
        let u = unit(1);
        assert!(cache.load(&u).is_none());
        let record = RunRecord::new(&u, RunOutcome::default());
        cache.store(&u, &record).unwrap();
        let loaded = cache.load(&u).expect("hit");
        assert_eq!(loaded.encode(), record.encode());
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn contains_is_a_cheap_existence_probe() {
        let cache = tmp_cache("contains");
        let u = unit(9);
        assert!(!cache.contains(&u));
        cache
            .store(&u, &RunRecord::new(&u, RunOutcome::default()))
            .unwrap();
        assert!(cache.contains(&u));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn different_units_have_different_keys() {
        assert_ne!(ResultCache::key(&unit(1)), ResultCache::key(&unit(2)));
    }

    #[test]
    fn descriptor_mismatch_is_a_miss() {
        let cache = tmp_cache("mismatch");
        let u1 = unit(1);
        let record = RunRecord::new(&u1, RunOutcome::default());
        // Write u1's record at u2's path, simulating a collision.
        let u2 = unit(2);
        std::fs::write(cache.path(&u2), record.encode()).unwrap();
        assert!(
            cache.load(&u2).is_none(),
            "foreign record must not be trusted"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_keeps_reachable_records_and_reclaims_the_rest() {
        let cache = tmp_cache("gc");
        let keep_unit = unit(1);
        let drop_unit = unit(2);
        for u in [&keep_unit, &drop_unit] {
            cache
                .store(u, &RunRecord::new(u, RunOutcome::default()))
                .unwrap();
        }
        // A torn temp file from a crashed writer.
        std::fs::write(cache.dir().join("deadbeef.tmp.12345"), "partial").unwrap();
        let keep: std::collections::HashSet<String> =
            [ResultCache::key(&keep_unit)].into_iter().collect();
        let report = cache.gc(&keep).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.kept, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.tmp_deleted, 1);
        assert!(report.reclaimed_bytes > 0);
        assert!(cache.load(&keep_unit).is_some(), "kept record intact");
        assert!(cache.load(&drop_unit).is_none(), "unreachable record gone");
        assert_eq!(cache.len(), 1);
        // Idempotent: a second pass reclaims nothing.
        let again = cache.gc(&keep).unwrap();
        assert_eq!(again.deleted, 0);
        assert_eq!(again.reclaimed_bytes, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_stale_leases_and_markers() {
        let cache = tmp_cache("gc-leases");
        let recorded = unit(1); // has a record -> its lease is fulfilled
        let pending = unit(2); // reachable, recordless -> live lease kept
        let orphan_key = "feedfacefeedfacefeedfacefeedface"; // unreachable
        cache
            .store(&recorded, &RunRecord::new(&recorded, RunOutcome::default()))
            .unwrap();
        let leases = crate::fleet::LeaseDir::open(&cache).unwrap();
        let fresh = |key: &str| {
            assert!(matches!(
                leases.try_claim(key, "u", "r1", 600).unwrap(),
                crate::fleet::Claim::Claimed { stolen: false }
            ));
        };
        fresh(&ResultCache::key(&recorded));
        fresh(&ResultCache::key(&pending));
        fresh(orphan_key);
        // An expired lease on the reachable recordless unit's key would
        // also be swept — plant one under a disposable key instead of
        // clobbering the live claim.
        std::fs::write(
            leases.dir().join("0123456789abcdef0123456789abcdef.lease"),
            r#"{"expires_unix":1,"runner":"r9","schema":"grid-campaign/lease/v1"}"#,
        )
        .unwrap();
        // Failure markers: superseded by the record / unreachable / live.
        leases.mark_failed(&ResultCache::key(&recorded), "u", "r1", "boom");
        leases.mark_failed(orphan_key, "u", "r1", "boom");
        leases.mark_failed(&ResultCache::key(&pending), "u", "r1", "boom");
        // Torn leftovers from an interrupted steal and marker write.
        std::fs::write(leases.dir().join("dead.stale.42"), "x").unwrap();
        std::fs::write(leases.dir().join("dead.failed.tmp.42"), "x").unwrap();
        let keep: std::collections::HashSet<String> =
            [ResultCache::key(&recorded), ResultCache::key(&pending)]
                .into_iter()
                .collect();
        let report = cache.gc(&keep).unwrap();
        // Swept: fulfilled lease, orphan lease, expired lease, fulfilled
        // marker, orphan marker, .stale., .tmp. — kept: live lease and
        // live marker on the pending unit.
        assert_eq!(report.leases_deleted, 7);
        assert!(leases.failed_message(&ResultCache::key(&pending)).is_some());
        assert!(matches!(
            leases
                .try_claim(&ResultCache::key(&pending), "u", "r2", 600)
                .unwrap(),
            crate::fleet::Claim::Held { .. }
        ));
        let again = cache.gc(&keep).unwrap();
        assert_eq!(again.leases_deleted, 0, "idempotent");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_stale_heartbeats_but_keeps_fresh_ones() {
        let cache = tmp_cache("gc-heartbeats");
        let leases = crate::fleet::LeaseDir::open(&cache).unwrap();
        let hb = |runner: &str, beat_unix: u64| crate::fleet::RunnerHeartbeat {
            runner: runner.into(),
            pid: 1,
            started_unix: beat_unix,
            beat_unix,
            current: None,
            in_flight: 0,
            computed: 0,
            cached: 0,
            failed: 0,
            skipped: 0,
            runs_per_s: 0.0,
        };
        // A fresh heartbeat (just written — mtime now) survives.
        leases
            .write_heartbeat(&hb("alive", crate::fleet::now_unix()))
            .unwrap();
        // A crashed runner's heartbeat: age it past the lease TTL via
        // mtime (gc judges by file age, not by the JSON body).
        leases.write_heartbeat(&hb("crashed", 1)).unwrap();
        let old = filetime_backdate(
            &leases.heartbeat_path("crashed"),
            crate::fleet::DEFAULT_LEASE_TTL_S + 60,
        );
        assert!(old, "backdating the heartbeat mtime must succeed");
        // A torn heartbeat write is always swept.
        std::fs::write(cache.dir().join("leases/runners/dead.hb.tmp.42"), "partial").unwrap();
        let report = cache.gc(&std::collections::HashSet::new()).unwrap();
        assert_eq!(report.heartbeats_deleted, 2, "stale .hb + torn temp");
        let left = leases.read_heartbeats();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].runner, "alive");
        let again = cache.gc(&std::collections::HashSet::new()).unwrap();
        assert_eq!(again.heartbeats_deleted, 0, "idempotent");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Set a file's mtime `age_s` seconds into the past. Returns `false`
    /// when the platform refuses (then the caller should skip).
    fn filetime_backdate(path: &Path, age_s: u64) -> bool {
        let Ok(file) = std::fs::File::options().append(true).open(path) else {
            return false;
        };
        let then = std::time::SystemTime::now() - std::time::Duration::from_secs(age_s);
        file.set_modified(then).is_ok()
    }

    #[test]
    fn obs_sidecars_roundtrip_and_follow_gc() {
        let cache = tmp_cache("obs");
        let keep_unit = unit(1);
        let drop_unit = unit(2);
        for u in [&keep_unit, &drop_unit] {
            cache
                .store(u, &RunRecord::new(u, RunOutcome::default()))
                .unwrap();
            let mut sidecar = Value::object();
            sidecar.insert("wall_ms", 12u64);
            cache.store_obs(u, &sidecar).unwrap();
        }
        assert_eq!(cache.len(), 2, "sidecars must not count as records");
        let loaded = cache.load_obs(&keep_unit).expect("sidecar hit");
        assert_eq!(loaded.get("wall_ms").and_then(Value::as_u64), Some(12));
        // A torn sidecar write from a crashed process.
        std::fs::write(cache.dir().join("obs/feed.json.tmp.7"), "partial").unwrap();
        let keep: std::collections::HashSet<String> =
            [ResultCache::key(&keep_unit)].into_iter().collect();
        let report = cache.gc(&keep).unwrap();
        assert_eq!(report.scanned, 2, "obs files are not scanned records");
        assert_eq!(report.kept, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.obs_deleted, 2, "stale sidecar + torn temp file");
        assert!(cache.load_obs(&keep_unit).is_some(), "kept sidecar intact");
        assert!(cache.load_obs(&drop_unit).is_none(), "stale sidecar gone");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_files_are_misses() {
        let cache = tmp_cache("corrupt");
        let u = unit(3);
        std::fs::write(cache.path(&u), "{not json").unwrap();
        assert!(cache.load(&u).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
