//! Coordinator-free runner fleet: dynamic work claiming over the shared
//! content-addressed cache directory.
//!
//! The fleet runner ([`run_fleet`], CLI `campaign runner`) is the
//! multi-process drain. Work is claimed dynamically, so one slow unit
//! never strands the rest of the fleet idle behind a fixed partition:
//! every pending unit is guarded by a lease file under
//! `<cache>/leases/`, claimed with an atomic `create_new` (exactly one
//! winner, no coordinator), and any number of runner processes — or
//! machines sharing the cache directory — drain the same campaign.
//!
//! ## Lease protocol
//!
//! * **Claim** — create `<key>.lease` with `O_CREAT|O_EXCL`; the single
//!   filesystem winner computes the unit. The lease body records the
//!   runner id and an `expires_unix` stamp.
//! * **Completion** — the record is stored (atomic write-then-rename)
//!   *before* the lease is released, so observers never see a released
//!   unit without its record.
//! * **Crash recovery** — a lease past its expiry stamp is *stolen* by
//!   renaming it aside (`rename` is atomic: exactly one thief wins, the
//!   losers see `NotFound` and re-race the claim) and the unit is
//!   re-run. A torn lease (writer crashed between create and write) ages
//!   by file mtime plus the runner's TTL.
//! * **Deterministic failures** — a unit that panics writes a
//!   `<key>.failed.json` marker next to the leases so *no* runner
//!   retries it forever; markers are swept by `campaign gc` and
//!   superseded by a successful record.
//!
//! Correctness never depends on the leases: records are byte-
//! deterministic and stored by atomic rename, so duplicate execution
//! (two runners racing the same unit across a steal) merely wastes work
//! — an N-runner drain is byte-identical to a single-runner one, which
//! the fleet tests pin.
//!
//! ## Convergence stopping
//!
//! With a [`Converge`] rule (spec `[converge]` or `--converge`),
//! multi-seed cells stop scheduling new seeds once the Student-t 95% CI
//! half-width of `rel_avg_response` over the seeds run so far falls to
//! the target. The frontier is a pure function of the cached records
//! (seeds are walked in spec order and a seed is only skipped when every
//! earlier seed of its cell is resolved), so every runner of a fleet —
//! and the report — reaches the same decisions, whatever the fleet size.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use grid_batch::BatchPolicy;
use grid_fault::Fault;
use grid_obs::{Counter, Gauge, MetricsRegistry, ProgressView, RunnerRow};
use grid_ser::Value;
use grid_workload::Scenario;

use crate::aggregate::Welford;
use crate::cache::ResultCache;
use crate::exec::{compute_and_store, safe_stem, Computed, RunFailure};
use crate::plan::{CampaignPlan, ReallocSetting, RunKind, RunUnit};
use crate::spec::{CampaignSpec, Converge};

/// Subdirectory of the cache holding lease and failure-marker files.
pub const LEASE_SUBDIR: &str = "leases";

/// Subdirectory of the lease directory holding runner heartbeat files.
pub const RUNNER_SUBDIR: &str = "runners";

/// How often a fleet runner rewrites its heartbeat file.
pub const HEARTBEAT_INTERVAL_S: u64 = 2;

/// Heartbeat age past which a runner is presumed dead for live-status
/// purposes (its leases still honour the full lease TTL — liveness
/// display and work stealing are separate judgements).
pub const HEARTBEAT_STALE_S: u64 = 30;

/// Default lease time-to-live: how long a claimed-but-unreleased unit is
/// trusted before other runners steal it. Generous — a steal only costs
/// duplicated (byte-identical) work, but a too-short TTL would make slow
/// units thrash.
pub const DEFAULT_LEASE_TTL_S: u64 = 600;

/// Default idle poll interval while foreign leases block progress.
pub const DEFAULT_POLL_MS: u64 = 200;

/// Seconds since the Unix epoch.
pub(crate) fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

pub(crate) fn mtime_unix(path: &Path) -> Option<u64> {
    std::fs::metadata(path)
        .ok()?
        .modified()
        .ok()?
        .duration_since(UNIX_EPOCH)
        .ok()
        .map(|d| d.as_secs())
}

/// Expiry stamp of a lease file: its `expires_unix` field, or — for a
/// torn/empty lease whose writer crashed between create and write — its
/// mtime aged by `fallback_ttl_s`. Shared with the gc sweep.
pub(crate) fn lease_expiry(path: &Path, fallback_ttl_s: u64) -> u64 {
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(v) = Value::parse(&text) {
            if let Some(e) = v.get("expires_unix").and_then(Value::as_u64) {
                return e;
            }
        }
    }
    mtime_unix(path)
        .map(|m| m.saturating_add(fallback_ttl_s))
        .unwrap_or(0)
}

/// Outcome of one claim attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// We hold the lease; `stolen` when an expired foreign lease was
    /// reclaimed on the way.
    Claimed {
        /// An expired lease was renamed aside first.
        stolen: bool,
    },
    /// Another runner holds an unexpired lease.
    Held {
        /// When that lease expires (becomes stealable).
        expires_unix: u64,
    },
}

/// One live lease, as seen by [`LeaseDir::scan`].
#[derive(Debug, Clone)]
pub struct LeaseInfo {
    /// Cache key of the claimed unit.
    pub key: String,
    /// Claiming runner id.
    pub runner: String,
    /// Expiry stamp.
    pub expires_unix: u64,
}

/// Snapshot of the lease directory.
#[derive(Debug, Clone, Default)]
pub struct LeaseScan {
    /// Unexpired leases.
    pub active: Vec<LeaseInfo>,
    /// Expired (stealable) leases.
    pub expired: usize,
    /// Failure markers.
    pub failed: usize,
}

impl LeaseScan {
    /// Distinct runner ids behind the active leases.
    pub fn runners(&self) -> Vec<&str> {
        let mut ids: Vec<&str> = self.active.iter().map(|l| l.runner.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The `leases/` subdirectory of a result cache.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    dir: PathBuf,
}

impl LeaseDir {
    /// Open (and create, single level — leases must never resurrect a
    /// deleted cache) the lease directory of `cache`.
    pub fn open(cache: &ResultCache) -> io::Result<LeaseDir> {
        let dir = cache.dir().join(LEASE_SUBDIR);
        match std::fs::create_dir(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        Ok(LeaseDir { dir })
    }

    /// The lease directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lease_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lease"))
    }

    fn failed_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.failed.json"))
    }

    /// Try to claim `key`: atomic create-new wins; an expired foreign
    /// lease is stolen by rename (exactly one thief succeeds) and the
    /// claim re-raced. Bounded retries — a persistently contended key
    /// reports [`Claim::Held`] and the caller polls again later.
    pub fn try_claim(&self, key: &str, unit: &str, runner: &str, ttl_s: u64) -> io::Result<Claim> {
        let path = self.lease_path(key);
        let mut stolen = false;
        for _ in 0..4 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let now = now_unix();
                    let mut v = Value::object();
                    v.insert("schema", "grid-campaign/lease/v1");
                    v.insert("unit", unit);
                    v.insert("runner", runner);
                    v.insert("claimed_unix", now);
                    v.insert("expires_unix", now.saturating_add(ttl_s));
                    // Advisory content: if this write tears, readers age
                    // the lease by mtime + their TTL instead.
                    let _ = f.write_all(v.encode().as_bytes());
                    return Ok(Claim::Claimed { stolen });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let expires = lease_expiry(&path, ttl_s);
                    if now_unix() < expires {
                        return Ok(Claim::Held {
                            expires_unix: expires,
                        });
                    }
                    // Expired: rename it aside. Losing the rename race
                    // is fine — loop back and re-race the create.
                    let stale = self.dir.join(format!("{key}.stale.{}", std::process::id()));
                    if std::fs::rename(&path, &stale).is_ok() {
                        let _ = std::fs::remove_file(&stale);
                        stolen = true;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Claim::Held {
            expires_unix: now_unix().saturating_add(1),
        })
    }

    /// Release a held lease (idempotent).
    pub fn release(&self, key: &str) {
        let _ = std::fs::remove_file(self.lease_path(key));
    }

    /// Write the deterministic-failure marker for `key`, so no runner of
    /// the fleet retries a panicking unit forever.
    pub fn mark_failed(&self, key: &str, unit: &str, runner: &str, message: &str) {
        let mut v = Value::object();
        v.insert("schema", "grid-campaign/failed/v1");
        v.insert("unit", unit);
        v.insert("runner", runner);
        v.insert("message", message);
        v.insert("at_unix", now_unix());
        let tmp = self
            .dir
            .join(format!("{key}.failed.tmp.{}", std::process::id()));
        let _ = std::fs::write(&tmp, v.encode())
            .and_then(|()| std::fs::rename(&tmp, self.failed_path(key)));
    }

    /// The failure-marker message for `key`, if one exists.
    pub fn failed_message(&self, key: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.failed_path(key)).ok()?;
        let v = Value::parse(&text).ok()?;
        let runner = v.get("runner").and_then(Value::as_str).unwrap_or("?");
        let message = v
            .get("message")
            .and_then(Value::as_str)
            .unwrap_or("failed on another runner");
        Some(format!("{message} (marked by runner {runner})"))
    }

    /// Path of `runner`'s heartbeat file.
    pub fn heartbeat_path(&self, runner: &str) -> PathBuf {
        self.dir
            .join(RUNNER_SUBDIR)
            .join(format!("{}.hb", safe_stem(runner)))
    }

    /// Atomically (tmp + rename) write `hb` to its heartbeat file,
    /// creating the `runners/` subdirectory on first use (single level —
    /// heartbeats must never resurrect a deleted cache).
    pub fn write_heartbeat(&self, hb: &RunnerHeartbeat) -> io::Result<()> {
        let dir = self.dir.join(RUNNER_SUBDIR);
        match std::fs::create_dir(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
        let path = self.heartbeat_path(&hb.runner);
        let tmp = dir.join(format!(
            "{}.hb.tmp.{}",
            safe_stem(&hb.runner),
            std::process::id()
        ));
        std::fs::write(&tmp, hb.to_json().encode())?;
        std::fs::rename(&tmp, &path)
    }

    /// Remove `runner`'s heartbeat file (clean-exit path; idempotent).
    pub fn remove_heartbeat(&self, runner: &str) {
        let _ = std::fs::remove_file(self.heartbeat_path(runner));
    }

    /// All parseable heartbeats, sorted by runner id. Staleness is the
    /// caller's judgement ([`RunnerHeartbeat::is_live`]).
    pub fn read_heartbeats(&self) -> Vec<RunnerHeartbeat> {
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(self.dir.join(RUNNER_SUBDIR)) else {
            return out;
        };
        for entry in rd.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".hb") {
                continue;
            }
            if let Some(hb) = std::fs::read_to_string(entry.path())
                .ok()
                .and_then(|t| Value::parse(&t).ok())
                .and_then(|v| RunnerHeartbeat::from_json(&v))
            {
                out.push(hb);
            }
        }
        out.sort_by(|a, b| a.runner.cmp(&b.runner));
        out
    }

    /// Snapshot the directory: active leases (with runner ids), expired
    /// leases, failure markers.
    pub fn scan(&self, fallback_ttl_s: u64) -> LeaseScan {
        let mut scan = LeaseScan::default();
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return scan;
        };
        let now = now_unix();
        for entry in rd.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(key) = name.strip_suffix(".lease") {
                let path = entry.path();
                let expires = lease_expiry(&path, fallback_ttl_s);
                if now < expires {
                    let runner = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|t| Value::parse(&t).ok())
                        .and_then(|v| v.get("runner").and_then(Value::as_str).map(String::from))
                        .unwrap_or_else(|| "?".into());
                    scan.active.push(LeaseInfo {
                        key: key.to_string(),
                        runner,
                        expires_unix: expires,
                    });
                } else {
                    scan.expired += 1;
                }
            } else if name.ends_with(".failed.json") {
                scan.failed += 1;
            }
        }
        scan.active.sort_by(|a, b| a.key.cmp(&b.key));
        scan
    }
}

/// One runner's periodic liveness report, written to
/// `leases/runners/<id>.hb` every [`HEARTBEAT_INTERVAL_S`] seconds and
/// removed on clean exit. Pure telemetry: no correctness decision reads
/// a heartbeat — they only sharpen `campaign status` attribution and
/// feed the live `/status` endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerHeartbeat {
    /// Runner id (`--runner-id`, default `r<pid>`).
    pub runner: String,
    /// Writing process id.
    pub pid: u32,
    /// When the runner joined the fleet.
    pub started_unix: u64,
    /// When this beat was written.
    pub beat_unix: u64,
    /// Cache key of a unit currently in flight, if any.
    pub current: Option<String>,
    /// Units claimed and computing right now.
    pub in_flight: usize,
    /// Units this runner computed so far.
    pub computed: usize,
    /// Units this runner resolved from cache.
    pub cached: usize,
    /// Units this runner resolved as failed.
    pub failed: usize,
    /// Units the convergence frontier skipped on this runner.
    pub skipped: usize,
    /// Units resolved per second since the runner started.
    pub runs_per_s: f64,
}

impl RunnerHeartbeat {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.insert("schema", "grid-campaign/heartbeat/1");
        v.insert("runner", self.runner.as_str());
        v.insert("pid", self.pid as u64);
        v.insert("started_unix", self.started_unix);
        v.insert("beat_unix", self.beat_unix);
        if let Some(current) = &self.current {
            v.insert("current", current.as_str());
        }
        v.insert("in_flight", self.in_flight as u64);
        v.insert("computed", self.computed as u64);
        v.insert("cached", self.cached as u64);
        v.insert("failed", self.failed as u64);
        v.insert("skipped", self.skipped as u64);
        v.insert("runs_per_s", self.runs_per_s);
        v
    }

    /// Parse [`RunnerHeartbeat::to_json`] output; `None` on a torn or
    /// foreign file.
    pub fn from_json(v: &Value) -> Option<RunnerHeartbeat> {
        let as_usize = |name: &str| v.get(name).and_then(Value::as_u64).map(|n| n as usize);
        Some(RunnerHeartbeat {
            runner: v.get("runner").and_then(Value::as_str)?.to_string(),
            pid: v.get("pid").and_then(Value::as_u64).unwrap_or(0) as u32,
            started_unix: v.get("started_unix").and_then(Value::as_u64).unwrap_or(0),
            beat_unix: v.get("beat_unix").and_then(Value::as_u64)?,
            current: v.get("current").and_then(Value::as_str).map(String::from),
            in_flight: as_usize("in_flight").unwrap_or(0),
            computed: as_usize("computed").unwrap_or(0),
            cached: as_usize("cached").unwrap_or(0),
            failed: as_usize("failed").unwrap_or(0),
            skipped: as_usize("skipped").unwrap_or(0),
            runs_per_s: v.get("runs_per_s").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }

    /// Seconds since the last beat.
    pub fn age_s(&self, now: u64) -> u64 {
        now.saturating_sub(self.beat_unix)
    }

    /// Is this runner presumed alive at `now`?
    pub fn is_live(&self, now: u64) -> bool {
        self.age_s(now) <= HEARTBEAT_STALE_S
    }

    /// The status-view detail row for this heartbeat.
    pub fn to_row(&self, now: u64) -> RunnerRow {
        RunnerRow {
            id: self.runner.clone(),
            computed: self.computed,
            cached: self.cached,
            failed: self.failed,
            in_flight: self.in_flight,
            runs_per_s: self.runs_per_s,
            current: self.current.clone(),
            age_s: self.age_s(now),
        }
    }
}

/// Path of `runner`'s heartbeat file under `cache_dir` — shared with the
/// CLI's `/status` route, which reads its own heartbeat back without
/// opening a [`LeaseDir`].
pub fn heartbeat_file(cache_dir: &Path, runner: &str) -> PathBuf {
    cache_dir
        .join(LEASE_SUBDIR)
        .join(RUNNER_SUBDIR)
        .join(format!("{}.hb", safe_stem(runner)))
}

/// A convergence probe's view of one `(cell, seed)` slot.
#[derive(Debug, Clone, Copy)]
enum SeedVal {
    /// Both records exist; the cell's `rel_avg_response` at this seed.
    Value(f64),
    /// Record (or its reference) not computed yet.
    Missing,
    /// A failure marker exists — the cell can never converge cleanly.
    Failed,
}

/// What to do with one plan unit under the convergence rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Run (or keep) the unit.
    Run,
    /// The cell converged at an earlier seed — skip the unit.
    Skip,
    /// Earlier seeds are still unresolved; decide later.
    Defer,
}

/// Incremental CI-convergence frontier over the shared cache.
///
/// A *cell* is everything but the seed axis
/// (`scenario × flavour × policy × reallocation setting × fault`); its
/// seeds are walked in spec order and the cell stops scheduling new
/// seeds at the first prefix of length ≥ `min_seeds` whose Student-t
/// 95% CI half-width of `rel_avg_response` is at or below the target.
/// Decisions are a pure function of the cached record values, so every
/// runner — and the report — computes the same frontier regardless of
/// fleet size or timing: a seed defers until all earlier seeds of its
/// cell are resolved, and a failed earlier seed pins the cell to
/// non-convergent (everything runs).
///
/// Reference units are skipped only when *every* cell they baseline
/// converged before their seed.
pub struct ConvergenceTracker {
    conf: Converge,
    /// Per cell: unit index per seed position (spec seed order).
    cells: Vec<Vec<usize>>,
    /// Per reallocation unit index: (cell id, seed position).
    realloc_of: HashMap<usize, (usize, usize)>,
    /// Per reference unit index: (dependent cell ids, seed position).
    refs_of: HashMap<usize, (Vec<usize>, usize)>,
    /// Memoised terminal probes per (cell, seed position).
    values: Vec<Vec<Option<SeedVal>>>,
}

type CellKey = (Scenario, bool, BatchPolicy, ReallocSetting, Fault);

impl ConvergenceTracker {
    /// Index `plan` (which must be `spec`'s expansion) for frontier
    /// probes under `conf`.
    pub fn new(spec: &CampaignSpec, plan: &CampaignPlan, conf: Converge) -> ConvergenceTracker {
        let seed_pos: HashMap<u64, usize> = spec
            .seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let mut cell_ids: HashMap<CellKey, usize> = HashMap::new();
        let mut cells: Vec<Vec<usize>> = Vec::new();
        let mut realloc_of = HashMap::new();
        for (i, unit) in plan.units.iter().enumerate() {
            let RunKind::Realloc(setting) = unit.kind else {
                continue;
            };
            let key = (
                unit.scenario,
                unit.heterogeneous,
                unit.policy,
                setting,
                unit.fault,
            );
            let id = *cell_ids.entry(key).or_insert_with(|| {
                cells.push(vec![usize::MAX; spec.seeds.len()]);
                cells.len() - 1
            });
            let sp = seed_pos[&unit.seed];
            cells[id][sp] = i;
            realloc_of.insert(i, (id, sp));
        }
        // A reference baselines every cell sharing its
        // (scenario, flavour, policy, fault).
        let mut dependents: HashMap<(Scenario, bool, BatchPolicy, Fault), Vec<usize>> =
            HashMap::new();
        for (key, &id) in &cell_ids {
            dependents
                .entry((key.0, key.1, key.2, key.4))
                .or_default()
                .push(id);
        }
        for deps in dependents.values_mut() {
            deps.sort_unstable();
        }
        let mut refs_of = HashMap::new();
        for (i, unit) in plan.units.iter().enumerate() {
            if unit.kind != RunKind::Reference {
                continue;
            }
            let deps = dependents
                .get(&(unit.scenario, unit.heterogeneous, unit.policy, unit.fault))
                .cloned()
                .unwrap_or_default();
            refs_of.insert(i, (deps, seed_pos[&unit.seed]));
        }
        let values = cells.iter().map(|c| vec![None; c.len()]).collect();
        ConvergenceTracker {
            conf,
            cells,
            realloc_of,
            refs_of,
            values,
        }
    }

    /// Probe one `(cell, seed)` slot, memoising terminal states
    /// (`Value`/`Failed`; `Missing` may resolve later).
    fn probe(
        &mut self,
        cell: usize,
        sp: usize,
        plan: &CampaignPlan,
        cache: &ResultCache,
        leases: Option<&LeaseDir>,
    ) -> SeedVal {
        if let Some(v) = self.values[cell][sp] {
            return v;
        }
        let unit = &plan.units[self.cells[cell][sp]];
        let val = match cache.load(unit) {
            Some(record) => {
                let reference = RunUnit {
                    kind: RunKind::Reference,
                    ..unit.clone()
                };
                match cache.load(&reference) {
                    Some(r) => {
                        let c =
                            grid_metrics::Comparison::against_baseline(&r.outcome, &record.outcome);
                        SeedVal::Value(c.rel_avg_response)
                    }
                    None => SeedVal::Missing,
                }
            }
            None => {
                let failed =
                    leases.is_some_and(|l| l.failed_message(&ResultCache::key(unit)).is_some());
                if failed {
                    SeedVal::Failed
                } else {
                    SeedVal::Missing
                }
            }
        };
        if !matches!(val, SeedVal::Missing) {
            self.values[cell][sp] = Some(val);
        }
        val
    }

    /// Did `cell` converge strictly before seed position `k`?
    fn frontier(
        &mut self,
        cell: usize,
        k: usize,
        plan: &CampaignPlan,
        cache: &ResultCache,
        leases: Option<&LeaseDir>,
    ) -> Decision {
        let mut w = Welford::default();
        for j in 0..k {
            match self.probe(cell, j, plan, cache, leases) {
                SeedVal::Failed => return Decision::Run,
                SeedVal::Missing => return Decision::Defer,
                SeedVal::Value(x) => w.push(x),
            }
            if j + 1 >= self.conf.min_seeds && w.finish().ci95 <= self.conf.target {
                return Decision::Skip;
            }
        }
        Decision::Run
    }

    /// The frontier's verdict for plan unit `i`.
    pub fn decision(
        &mut self,
        i: usize,
        plan: &CampaignPlan,
        cache: &ResultCache,
        leases: Option<&LeaseDir>,
    ) -> Decision {
        if let Some(&(cell, sp)) = self.realloc_of.get(&i) {
            // Convergence can trigger at prefix length min_seeds at the
            // earliest, so seeds below that always run — in parallel,
            // with no deferral.
            if sp < self.conf.min_seeds {
                return Decision::Run;
            }
            return self.frontier(cell, sp, plan, cache, leases);
        }
        if let Some((deps, sp)) = self.refs_of.get(&i).cloned() {
            if sp < self.conf.min_seeds {
                return Decision::Run;
            }
            let mut verdict = Decision::Skip;
            for cell in deps {
                match self.frontier(cell, sp, plan, cache, leases) {
                    Decision::Run => return Decision::Run,
                    Decision::Defer => verdict = Decision::Defer,
                    Decision::Skip => {}
                }
            }
            return verdict;
        }
        Decision::Run
    }
}

/// The plan indices a [`Converge`] rule skips, given the current cache —
/// the exact set a fleet of any size converges to once it drains, and
/// what `campaign report` excludes from its aggregation. Empty when the
/// spec has no rule.
pub fn convergence_skips(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    cache: &ResultCache,
    conf: Option<Converge>,
) -> HashSet<usize> {
    let Some(conf) = conf.or(spec.converge) else {
        return HashSet::new();
    };
    let mut tracker = ConvergenceTracker::new(spec, plan, conf);
    (0..plan.units.len())
        .filter(|&i| tracker.decision(i, plan, cache, None) == Decision::Skip)
        .collect()
}

/// Fleet-runner knobs.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Runner id stamped into leases and failure markers
    /// (default `r<pid>`).
    pub runner_id: Option<String>,
    /// Lease TTL in seconds before other runners may steal
    /// (0 = [`DEFAULT_LEASE_TTL_S`]).
    pub lease_ttl_s: u64,
    /// Idle poll interval while foreign leases block progress
    /// (0 = [`DEFAULT_POLL_MS`]).
    pub poll_ms: u64,
    /// Worker threads; `None` = all available cores.
    pub threads: Option<usize>,
    /// Re-render the live status line on stderr.
    pub progress: bool,
    /// Chrome-trace directory, as in [`crate::ExecOptions`].
    pub trace: Option<PathBuf>,
    /// Convergence rule override; falls back to the spec's `[converge]`.
    pub converge: Option<Converge>,
    /// Live metrics registry (`runner --metrics-addr`): fleet counters
    /// land here and every computed unit mirrors its engine telemetry
    /// into it. Strictly sidecar — cache and report bytes are identical
    /// with or without it.
    pub metrics: Option<MetricsRegistry>,
}

/// The fleet runner's own metric families, registered once per drain on
/// the `--metrics-addr` registry.
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Units this runner simulated.
    pub units_computed: Counter,
    /// Units found already cached.
    pub units_cached: Counter,
    /// Units resolved as failed.
    pub units_failed: Counter,
    /// Units the convergence frontier skipped.
    pub units_skipped: Counter,
    /// Expired foreign leases reclaimed.
    pub leases_stolen: Counter,
    /// Heartbeat files written.
    pub heartbeats_written: Counter,
    /// Units claimed and computing right now.
    pub units_in_flight: Gauge,
    /// Units resolved (any disposition), fleet-wide from this runner's
    /// view.
    pub units_done: Gauge,
    /// Plan size.
    pub units_total: Gauge,
    /// Wall time per computed unit, milliseconds.
    pub run_wall_ms: grid_obs::metrics::Histogram,
}

impl FleetMetrics {
    /// Register the fleet families on `registry` (idempotent — a second
    /// registration shares the same series).
    pub fn register(registry: &MetricsRegistry) -> FleetMetrics {
        FleetMetrics {
            units_computed: registry.counter(
                "campaign_units_computed_total",
                "Units this runner simulated",
            ),
            units_cached: registry.counter(
                "campaign_units_cached_total",
                "Units resolved from the shared cache",
            ),
            units_failed: registry.counter(
                "campaign_units_failed_total",
                "Units resolved as failed (own panics + foreign markers)",
            ),
            units_skipped: registry.counter(
                "campaign_units_skipped_total",
                "Units skipped by the convergence frontier",
            ),
            leases_stolen: registry.counter(
                "campaign_leases_stolen_total",
                "Expired foreign leases reclaimed",
            ),
            heartbeats_written: registry.counter(
                "campaign_heartbeats_written_total",
                "Heartbeat files written",
            ),
            units_in_flight: registry.gauge(
                "campaign_units_in_flight",
                "Units claimed and computing right now",
            ),
            units_done: registry.gauge(
                "campaign_units_done",
                "Units resolved so far (any disposition)",
            ),
            units_total: registry.gauge("campaign_units_total", "Units in the campaign plan"),
            run_wall_ms: registry.histogram(
                "campaign_run_wall_ms",
                "Wall time per computed unit, milliseconds",
            ),
        }
    }
}

/// What one fleet runner did.
#[derive(Debug, Clone, Default)]
pub struct FleetSummary {
    /// Units this runner simulated.
    pub computed: usize,
    /// Units found already in the cache (pre-existing, or completed by
    /// another runner mid-drain).
    pub cached: usize,
    /// Units the convergence frontier skipped.
    pub skipped: usize,
    /// Units resolved as failed (own panics plus foreign failure
    /// markers).
    pub failed: usize,
    /// Expired leases this runner reclaimed.
    pub stolen: usize,
    /// Failure details (own panics and honoured markers).
    pub failures: Vec<RunFailure>,
    /// Computed units whose record could not be written.
    pub store_errors: Vec<RunFailure>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pending,
    InFlight,
    Done,
}

struct FleetState {
    slots: Vec<Slot>,
    outstanding: usize,
    /// Scan-start ratchet: everything below is `Done`.
    next: usize,
    /// Slots currently `InFlight` (maintained on claim/resolve so the
    /// heartbeat thread never rescans the slot vector).
    in_flight: usize,
    tracker: Option<ConvergenceTracker>,
    summary: FleetSummary,
    view: ProgressView,
}

enum Action {
    Run { index: usize },
    Wait,
    Finished,
}

impl FleetState {
    fn resolve(&mut self, i: usize, update: impl FnOnce(&mut FleetSummary, &mut ProgressView)) {
        debug_assert_ne!(self.slots[i], Slot::Done);
        if self.slots[i] == Slot::InFlight {
            self.in_flight -= 1;
        }
        self.slots[i] = Slot::Done;
        self.outstanding -= 1;
        update(&mut self.summary, &mut self.view);
    }
}

/// Drain `plan` as one runner of a coordinator-free fleet sharing
/// `cache`: claim pending units via lease files, honour failure markers,
/// apply the convergence frontier, and poll while foreign leases hold
/// the remainder. Returns when every unit is resolved (computed here,
/// cached by anyone, skipped, or failed).
pub fn run_fleet(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    cache: &ResultCache,
    opts: &FleetOptions,
) -> Result<FleetSummary, String> {
    let units = &plan.units;
    let n = units.len();
    let leases = LeaseDir::open(cache).map_err(|e| format!("lease dir: {e}"))?;
    let ttl = if opts.lease_ttl_s == 0 {
        DEFAULT_LEASE_TTL_S
    } else {
        opts.lease_ttl_s
    };
    let poll = Duration::from_millis(if opts.poll_ms == 0 {
        DEFAULT_POLL_MS
    } else {
        opts.poll_ms
    });
    let runner = opts
        .runner_id
        .clone()
        .unwrap_or_else(|| format!("r{}", std::process::id()));
    let threads = opts
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n.max(1));
    let keys: Vec<String> = units.iter().map(ResultCache::key).collect();
    let conf = opts.converge.or(spec.converge);
    let started = Instant::now();
    let started_unix = now_unix();
    let fm = opts.metrics.as_ref().map(FleetMetrics::register);
    if let Some(fm) = &fm {
        fm.units_total.set(n as f64);
    }
    let state = Mutex::new(FleetState {
        slots: vec![Slot::Pending; n],
        outstanding: n,
        next: 0,
        in_flight: 0,
        tracker: conf.map(|c| ConvergenceTracker::new(spec, plan, c)),
        summary: FleetSummary::default(),
        view: ProgressView::new(n),
    });

    let render = |st: &mut FleetState| {
        if opts.progress {
            st.view.elapsed_ms = started.elapsed().as_millis() as u64;
            st.view.claimed = st.in_flight;
            eprint!("\r{}", st.view.render());
        }
    };

    // One pass over the pending units under the lock: resolve what can
    // be resolved without computing (cache hits, markers, skips), claim
    // the first runnable unit, and report whether anything is left.
    let next_action = |st: &mut FleetState| -> io::Result<Action> {
        if st.outstanding == 0 {
            return Ok(Action::Finished);
        }
        let mut first_active = None;
        for i in st.next..n {
            if st.slots[i] == Slot::Done {
                continue;
            }
            if first_active.is_none() {
                first_active = Some(i);
            }
            if st.slots[i] == Slot::InFlight {
                continue;
            }
            let unit = &units[i];
            if cache.contains(unit) {
                st.resolve(i, |s, v| {
                    s.cached += 1;
                    v.on_cached();
                });
                if let Some(fm) = &fm {
                    fm.units_cached.inc();
                }
                render(st);
                continue;
            }
            if let Some(message) = leases.failed_message(&keys[i]) {
                st.resolve(i, |s, v| {
                    s.failed += 1;
                    s.failures.push(RunFailure {
                        unit: unit.label(),
                        message,
                    });
                    v.on_failed();
                });
                if let Some(fm) = &fm {
                    fm.units_failed.inc();
                }
                render(st);
                continue;
            }
            if let Some(tracker) = &mut st.tracker {
                match tracker.decision(i, plan, cache, Some(&leases)) {
                    Decision::Skip => {
                        st.resolve(i, |s, v| {
                            s.skipped += 1;
                            v.on_skipped();
                        });
                        if let Some(fm) = &fm {
                            fm.units_skipped.inc();
                        }
                        render(st);
                        continue;
                    }
                    Decision::Defer => continue,
                    Decision::Run => {}
                }
            }
            match leases.try_claim(&keys[i], &unit.label(), &runner, ttl)? {
                Claim::Claimed { stolen } => {
                    st.slots[i] = Slot::InFlight;
                    st.in_flight += 1;
                    if stolen {
                        st.summary.stolen += 1;
                        if let Some(fm) = &fm {
                            fm.leases_stolen.inc();
                        }
                    }
                    render(st);
                    return Ok(Action::Run { index: i });
                }
                Claim::Held { .. } => continue,
            }
        }
        if let Some(f) = first_active {
            st.next = f;
        } else {
            st.next = n;
        }
        Ok(if st.outstanding == 0 {
            Action::Finished
        } else {
            Action::Wait
        })
    };

    let error = Mutex::new(None::<String>);
    let workers_alive = AtomicUsize::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                loop {
                    let action = {
                        let mut st = state.lock().unwrap();
                        match next_action(&mut st) {
                            Ok(a) => a,
                            Err(e) => {
                                *error.lock().unwrap() = Some(format!("lease claim: {e}"));
                                // Unblock the other workers: resolve
                                // nothing, just stop scanning from this
                                // thread.
                                break;
                            }
                        }
                    };
                    match action {
                        Action::Run { index } => {
                            let unit = &units[index];
                            let computed = compute_and_store(
                                unit,
                                Some(cache),
                                opts.trace.as_deref(),
                                opts.metrics.as_ref(),
                            );
                            let mut st = state.lock().unwrap();
                            match computed {
                                Computed::Done {
                                    wall, store_error, ..
                                } => {
                                    // Record stored before the lease
                                    // drops: observers never see a
                                    // released unit without its record.
                                    leases.release(&keys[index]);
                                    st.resolve(index, |s, v| {
                                        if let Some(message) = store_error {
                                            s.store_errors.push(RunFailure {
                                                unit: unit.label(),
                                                message,
                                            });
                                        }
                                        s.computed += 1;
                                        v.on_computed(wall.as_millis() as u64);
                                    });
                                    if let Some(fm) = &fm {
                                        fm.units_computed.inc();
                                        fm.run_wall_ms.observe(wall.as_millis() as u64);
                                    }
                                }
                                Computed::Panicked { message } => {
                                    leases.mark_failed(
                                        &keys[index],
                                        &unit.label(),
                                        &runner,
                                        &message,
                                    );
                                    leases.release(&keys[index]);
                                    st.resolve(index, |s, v| {
                                        s.failed += 1;
                                        s.failures.push(RunFailure {
                                            unit: unit.label(),
                                            message,
                                        });
                                        v.on_failed();
                                    });
                                    if let Some(fm) = &fm {
                                        fm.units_failed.inc();
                                    }
                                }
                            }
                            render(&mut st);
                        }
                        Action::Wait => std::thread::sleep(poll),
                        Action::Finished => break,
                    }
                }
                workers_alive.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Heartbeat thread: write `leases/runners/<id>.hb` immediately
        // and then every HEARTBEAT_INTERVAL_S, polling in short steps so
        // the scope joins promptly once the last worker exits (including
        // the early-error break path, which never drains `outstanding`).
        scope.spawn(|| loop {
            let hb = {
                let st = state.lock().unwrap();
                let elapsed = started.elapsed().as_secs_f64();
                let done = st.view.done();
                if let Some(fm) = &fm {
                    fm.units_in_flight.set(st.in_flight as f64);
                    fm.units_done.set(done as f64);
                }
                RunnerHeartbeat {
                    runner: runner.clone(),
                    pid: std::process::id(),
                    started_unix,
                    beat_unix: now_unix(),
                    current: st
                        .slots
                        .iter()
                        .position(|&s| s == Slot::InFlight)
                        .map(|i| keys[i].clone()),
                    in_flight: st.in_flight,
                    computed: st.summary.computed,
                    cached: st.summary.cached,
                    failed: st.summary.failed,
                    skipped: st.summary.skipped,
                    runs_per_s: if elapsed > 0.0 {
                        done as f64 / elapsed
                    } else {
                        0.0
                    },
                }
            };
            if leases.write_heartbeat(&hb).is_ok() {
                if let Some(fm) = &fm {
                    fm.heartbeats_written.inc();
                }
            }
            let mut slept_ms = 0u64;
            while workers_alive.load(Ordering::SeqCst) > 0
                && slept_ms < HEARTBEAT_INTERVAL_S * 1_000
            {
                std::thread::sleep(Duration::from_millis(100));
                slept_ms += 100;
            }
            if workers_alive.load(Ordering::SeqCst) == 0 {
                break;
            }
        });
    });
    // Clean exit: the heartbeat disappears with the runner, so `status`
    // never attributes liveness to a finished process.
    leases.remove_heartbeat(&runner);
    if let Some(fm) = &fm {
        let st = state.lock().unwrap();
        fm.units_in_flight.set(0.0);
        fm.units_done.set(st.view.done() as f64);
    }
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    let mut st = state.into_inner().unwrap();
    if opts.progress {
        st.view.elapsed_ms = started.elapsed().as_millis() as u64;
        st.view.claimed = 0;
        eprintln!("\r{}", st.view.render());
    }
    Ok(st.summary)
}

/// Detached fleet progress, derived purely from the cache and lease
/// directory — no connection to any runner.
#[derive(Debug, Clone)]
pub struct FleetStatus {
    /// Plan size.
    pub total: usize,
    /// Units with a record present.
    pub done: usize,
    /// Units the convergence frontier currently skips.
    pub skipped: usize,
    /// Units with a failure marker (and no record).
    pub failed: usize,
    /// Active leases (claimed units).
    pub active: Vec<LeaseInfo>,
    /// Expired leases awaiting a steal.
    pub expired_leases: usize,
    /// Live runner heartbeats (beat within [`HEARTBEAT_STALE_S`]).
    pub runners: Vec<RunnerHeartbeat>,
    /// Heartbeat files past the staleness window (crashed runners the
    /// gc has not swept yet).
    pub stale_runners: usize,
    /// Whether rate/liveness came from heartbeats (`true`) or from the
    /// record-mtime heuristic (`false` — heartbeat-less cache).
    pub from_heartbeats: bool,
    /// A [`ProgressView`] loaded with the above plus a completion-rate
    /// estimate, ready to render.
    pub view: ProgressView,
}

impl FleetStatus {
    /// Fleet-wide throughput: the sum of the live heartbeat rates, or
    /// `None` when only the mtime heuristic is available (its estimate
    /// lives in the view's ETA instead).
    pub fn runs_per_s(&self) -> Option<f64> {
        self.from_heartbeats
            .then(|| self.runners.iter().map(|r| r.runs_per_s).sum())
    }

    /// Units not yet resolved (pending or claimed).
    pub fn remaining(&self) -> usize {
        self.total
            .saturating_sub(self.done + self.skipped + self.failed)
    }

    /// The machine-readable snapshot `campaign status --json` prints and
    /// the `/status` endpoint serves.
    pub fn to_json(&self, campaign: &str) -> Value {
        let now = now_unix();
        let mut v = Value::object();
        v.insert("schema", "grid-campaign/status/1");
        v.insert("campaign", campaign);
        v.insert("total", self.total as u64);
        v.insert("done", self.done as u64);
        v.insert("skipped", self.skipped as u64);
        v.insert("failed", self.failed as u64);
        v.insert("claimed", self.active.len() as u64);
        v.insert("expired_leases", self.expired_leases as u64);
        v.insert(
            "rate_source",
            if self.from_heartbeats {
                "heartbeats"
            } else {
                "record-mtimes"
            },
        );
        if let Some(rate) = self.runs_per_s() {
            v.insert("runs_per_s", rate);
            if rate > 0.0 && self.remaining() > 0 {
                v.insert("eta_s", self.remaining() as f64 / rate);
            }
        }
        let runners: Vec<Value> = self
            .runners
            .iter()
            .map(|hb| {
                let mut r = hb.to_json();
                r.insert("beat_age_s", hb.age_s(now));
                r
            })
            .collect();
        v.insert("runners", Value::Arr(runners));
        v.insert("stale_runners", self.stale_runners as u64);
        v
    }

    /// Render this snapshot as a Prometheus exposition page — the
    /// `status --serve` `/metrics` route. Each call builds a fresh
    /// registry, so the page always reflects exactly this snapshot.
    pub fn render_metrics(&self) -> String {
        let reg = MetricsRegistry::new();
        let set = |name: &str, help: &str, value: f64| reg.gauge(name, help).set(value);
        set(
            "campaign_units_total",
            "Units in the campaign plan",
            self.total as f64,
        );
        set(
            "campaign_units_done",
            "Units with a record present",
            self.done as f64,
        );
        set(
            "campaign_units_skipped",
            "Units the convergence frontier skips",
            self.skipped as f64,
        );
        set(
            "campaign_units_failed",
            "Units with a failure marker",
            self.failed as f64,
        );
        set(
            "campaign_units_claimed",
            "Units under an active lease",
            self.active.len() as f64,
        );
        set(
            "campaign_leases_expired",
            "Expired leases awaiting a steal",
            self.expired_leases as f64,
        );
        set(
            "campaign_runners_live",
            "Runners with a fresh heartbeat (or active leases, for heartbeat-less caches)",
            self.view.runners as f64,
        );
        if let Some(rate) = self.runs_per_s() {
            set("campaign_runs_per_s", "Fleet-wide completion rate", rate);
        }
        for hb in &self.runners {
            let labels = [("runner", hb.runner.as_str())];
            reg.gauge_with(
                "campaign_runner_done",
                "Units resolved by this runner",
                &labels,
            )
            .set((hb.computed + hb.cached + hb.failed + hb.skipped) as f64);
            reg.gauge_with(
                "campaign_runner_in_flight",
                "Units this runner is computing",
                &labels,
            )
            .set(hb.in_flight as f64);
            reg.gauge_with(
                "campaign_runner_runs_per_s",
                "This runner's completion rate",
                &labels,
            )
            .set(hb.runs_per_s);
        }
        reg.render()
    }
}

/// Recent-completion window the status rate/ETA is estimated over.
const STATUS_RATE_WINDOW_S: u64 = 300;

/// Build a [`FleetStatus`] for `plan` over `cache`: records answer
/// done/failed/skipped and the lease directory answers claimed. Liveness
/// and rate prefer runner heartbeats (`leases/runners/*.hb`); a
/// heartbeat-less cache falls back to the record-mtime heuristic, and
/// [`FleetStatus::from_heartbeats`] says which one answered.
pub fn fleet_status(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    cache: &ResultCache,
    lease_ttl_s: u64,
) -> Result<FleetStatus, String> {
    let leases = LeaseDir::open(cache).map_err(|e| format!("lease dir: {e}"))?;
    let ttl = if lease_ttl_s == 0 {
        DEFAULT_LEASE_TTL_S
    } else {
        lease_ttl_s
    };
    let skips = convergence_skips(spec, plan, cache, None);
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut skipped = 0usize;
    let mut mtimes: Vec<u64> = Vec::new();
    for (i, unit) in plan.units.iter().enumerate() {
        if skips.contains(&i) {
            skipped += 1;
            continue;
        }
        let path = cache.path(unit);
        if let Some(m) = mtime_unix(&path) {
            done += 1;
            mtimes.push(m);
        } else if leases.failed_message(&ResultCache::key(unit)).is_some() {
            failed += 1;
        }
    }
    let scan = leases.scan(ttl);
    let now = now_unix();
    let (live, stale): (Vec<RunnerHeartbeat>, Vec<RunnerHeartbeat>) = leases
        .read_heartbeats()
        .into_iter()
        .partition(|hb| hb.is_live(now));
    let from_heartbeats = !live.is_empty();

    let mut view = ProgressView::new(plan.units.len());
    view.skipped = skipped;
    view.failed = failed;
    view.claimed = scan.active.len();
    if from_heartbeats {
        // Heartbeats know the truth: who is alive, what they are doing,
        // and how fast the fleet currently moves.
        view.runners = live.len();
        view.computed = done;
        view.rate_per_s = Some(live.iter().map(|r| r.runs_per_s).sum());
        view.runner_rows = live.iter().map(|hb| hb.to_row(now)).collect();
    } else {
        // Heartbeat-less cache (pre-heartbeat runners, or all runners
        // gone): estimate from lease runner ids and record mtimes.
        // Completions inside the window estimate the current rate; each
        // inter-completion gap scaled by the live runner count
        // approximates one runner's wall time per unit, which drives
        // the ETA error bar.
        let runners = scan.runners().len();
        view.runners = runners;
        mtimes.sort_unstable();
        let recent: Vec<u64> = mtimes
            .iter()
            .copied()
            .filter(|&m| now.saturating_sub(m) <= STATUS_RATE_WINDOW_S)
            .collect();
        view.computed = done.saturating_sub(recent.len().saturating_sub(1));
        for pair in recent.windows(2) {
            view.on_computed((pair[1] - pair[0]) * 1_000 * runners.max(1) as u64);
        }
        if let Some(&first) = mtimes.first() {
            view.elapsed_ms = now.saturating_sub(first) * 1_000;
        }
    }
    Ok(FleetStatus {
        total: plan.units.len(),
        done,
        skipped,
        failed,
        active: scan.active,
        expired_leases: scan.expired,
        runners: live,
        stale_runners: stale.len(),
        from_heartbeats,
        view,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "grid-campaign-fleet-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let cache = tmp_cache("claim");
        let leases = LeaseDir::open(&cache).unwrap();
        assert_eq!(
            leases.try_claim("k1", "unit", "r1", 600).unwrap(),
            Claim::Claimed { stolen: false }
        );
        assert!(matches!(
            leases.try_claim("k1", "unit", "r2", 600).unwrap(),
            Claim::Held { .. }
        ));
        leases.release("k1");
        assert_eq!(
            leases.try_claim("k1", "unit", "r2", 600).unwrap(),
            Claim::Claimed { stolen: false }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn expired_lease_is_stolen() {
        let cache = tmp_cache("steal");
        let leases = LeaseDir::open(&cache).unwrap();
        // TTL 0: the lease expires the instant it is written — the
        // shape a crashed runner's lease takes once its TTL passes.
        assert_eq!(
            leases.try_claim("k1", "unit", "dead", 0).unwrap(),
            Claim::Claimed { stolen: false }
        );
        assert_eq!(
            leases.try_claim("k1", "unit", "thief", 600).unwrap(),
            Claim::Claimed { stolen: true }
        );
        // The thief's fresh lease is honoured again.
        assert!(matches!(
            leases.try_claim("k1", "unit", "r3", 600).unwrap(),
            Claim::Held { .. }
        ));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn torn_lease_ages_by_mtime_plus_ttl() {
        let cache = tmp_cache("torn");
        let leases = LeaseDir::open(&cache).unwrap();
        // Writer crashed between create_new and write: empty body.
        let path = leases.dir().join("k1.lease");
        std::fs::write(&path, "").unwrap();
        let now = now_unix();
        assert!(
            lease_expiry(&path, 3600) > now,
            "fresh torn lease must not be instantly stealable"
        );
        assert!(lease_expiry(&path, 0) <= now, "aged-out torn lease expires");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::paper();
        spec.name = "hb-test".into();
        spec.scenarios = vec![grid_workload::Scenario::Jun];
        spec.heterogeneity = vec![false];
        spec.policies = vec![grid_batch::BatchPolicy::Fcfs];
        spec.heuristics = vec![grid_realloc::Heuristic::Mct];
        spec.fraction = 0.01;
        spec
    }

    fn heartbeat(runner: &str, beat_unix: u64, runs_per_s: f64) -> RunnerHeartbeat {
        RunnerHeartbeat {
            runner: runner.into(),
            pid: 42,
            started_unix: beat_unix.saturating_sub(60),
            beat_unix,
            current: None,
            in_flight: 1,
            computed: 2,
            cached: 1,
            failed: 0,
            skipped: 0,
            runs_per_s,
        }
    }

    #[test]
    fn heartbeats_roundtrip_overwrite_and_remove() {
        let cache = tmp_cache("hb-roundtrip");
        let leases = LeaseDir::open(&cache).unwrap();
        assert!(leases.read_heartbeats().is_empty());
        let mut hb = heartbeat("ci-a", 160, 0.5);
        hb.current = Some("jun/homog/none/mct/s1".into());
        hb.skipped = 3;
        leases.write_heartbeat(&hb).unwrap();
        // Re-beat: atomic replace, still one file.
        leases.write_heartbeat(&hb).unwrap();
        let read = leases.read_heartbeats();
        assert_eq!(read.len(), 1);
        let r = &read[0];
        assert_eq!(r.runner, "ci-a");
        assert_eq!(r.pid, 42);
        assert_eq!(r.beat_unix, 160);
        assert_eq!(r.current.as_deref(), Some("jun/homog/none/mct/s1"));
        assert_eq!(
            (r.in_flight, r.computed, r.cached, r.failed, r.skipped),
            (1, 2, 1, 0, 3)
        );
        assert_eq!(r.runs_per_s, 0.5);
        leases.remove_heartbeat("ci-a");
        assert!(leases.read_heartbeats().is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn heartbeat_liveness_window() {
        let now = now_unix();
        assert!(heartbeat("a", now, 0.0).is_live(now));
        assert!(heartbeat("a", now - HEARTBEAT_STALE_S, 0.0).is_live(now));
        assert!(!heartbeat("a", now - HEARTBEAT_STALE_S - 1, 0.0).is_live(now));
        assert_eq!(heartbeat("a", now - 7, 0.0).age_s(now), 7);
        // A clock-skewed future beat is fresh, not underflowed-ancient.
        assert_eq!(heartbeat("a", now + 100, 0.0).age_s(now), 0);
    }

    #[test]
    fn fleet_status_prefers_live_heartbeats() {
        let spec = tiny_spec();
        let plan = spec.expand();
        assert_eq!(plan.len(), 3);
        let cache = tmp_cache("hb-status");
        let leases = LeaseDir::open(&cache).unwrap();
        let now = now_unix();
        leases.write_heartbeat(&heartbeat("a", now, 0.25)).unwrap();
        leases.write_heartbeat(&heartbeat("b", now, 0.5)).unwrap();
        leases
            .write_heartbeat(&heartbeat("dead", now - HEARTBEAT_STALE_S - 10, 9.0))
            .unwrap();
        let status = fleet_status(&spec, &plan, &cache, 0).unwrap();
        assert!(status.from_heartbeats);
        assert_eq!(status.runners.len(), 2, "stale heartbeat is not live");
        assert_eq!(status.stale_runners, 1);
        assert_eq!(status.runs_per_s(), Some(0.75));
        assert_eq!(status.view.runners, 2);
        assert_eq!(status.view.rate_per_s, Some(0.75));
        assert_eq!(status.view.runner_rows.len(), 2);

        let json = status.to_json(&spec.name);
        assert_eq!(
            json.get("rate_source").and_then(Value::as_str),
            Some("heartbeats")
        );
        assert_eq!(json.get("runs_per_s").and_then(Value::as_f64), Some(0.75));
        assert_eq!(json.get("total").and_then(Value::as_u64), Some(3));
        // 3 remaining at 0.75/s.
        assert_eq!(json.get("eta_s").and_then(Value::as_f64), Some(4.0));
        assert_eq!(
            json.get("runners")
                .and_then(Value::as_arr)
                .map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(json.get("stale_runners").and_then(Value::as_u64), Some(1));

        let page = status.render_metrics();
        assert!(page.contains("campaign_units_total 3\n"), "{page}");
        assert!(page.contains("campaign_runs_per_s 0.75\n"), "{page}");
        assert!(page.contains("campaign_runners_live 2\n"), "{page}");
        assert!(
            page.contains("campaign_runner_runs_per_s{runner=\"b\"} 0.5\n"),
            "{page}"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fleet_status_without_heartbeats_falls_back_to_mtimes() {
        let spec = tiny_spec();
        let plan = spec.expand();
        let cache = tmp_cache("hb-fallback");
        let status = fleet_status(&spec, &plan, &cache, 0).unwrap();
        assert!(!status.from_heartbeats);
        assert_eq!(status.runs_per_s(), None);
        assert_eq!(status.view.rate_per_s, None);
        assert!(status.view.runner_rows.is_empty());
        let json = status.to_json(&spec.name);
        assert_eq!(
            json.get("rate_source").and_then(Value::as_str),
            Some("record-mtimes")
        );
        assert!(json.get("runs_per_s").is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn failure_markers_roundtrip_and_scan_counts() {
        let cache = tmp_cache("markers");
        let leases = LeaseDir::open(&cache).unwrap();
        assert!(leases.failed_message("k1").is_none());
        leases.mark_failed("k1", "jun/hom/FCFS/reference/s42", "r1", "boom");
        let message = leases.failed_message("k1").expect("marker readable");
        assert!(
            message.contains("boom") && message.contains("r1"),
            "{message}"
        );
        let _ = leases.try_claim("k2", "unit", "r1", 600).unwrap();
        let _ = leases.try_claim("k3", "unit", "dead", 0).unwrap();
        let scan = leases.scan(600);
        assert_eq!(scan.active.len(), 1);
        assert_eq!(scan.active[0].key, "k2");
        assert_eq!(scan.active[0].runner, "r1");
        assert_eq!(scan.expired, 1);
        assert_eq!(scan.failed, 1);
        assert_eq!(scan.runners(), vec!["r1"]);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
