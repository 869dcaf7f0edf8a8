//! A cluster managed by a local batch scheduler.
//!
//! The cluster is the paper's "server + LRMS" pair: the deployed server
//! interacts with the batch system only through **submit**, **cancel**,
//! **completion-time estimation** and **waiting-list** queries (§2.1), and
//! those are exactly the mutating/inspecting methods exposed here.
//!
//! ## Scheduling semantics
//!
//! Reservations are (re)computed in queue order from an availability
//! [`Profile`] built from the *walltimes* of running jobs:
//!
//! * **FCFS** — each job is reserved at the earliest fitting instant that is
//!   not before the previous queued job's start (start times are
//!   non-decreasing in queue order; no back-filling).
//! * **CBF** — each job is reserved at the earliest fitting hole given all
//!   earlier-queued reservations (conservative back-filling: later jobs may
//!   jump ahead in *time* but can never delay an earlier job).
//!
//! Early completions (the walltime over-estimation the paper exploits)
//! and cancellations used to invalidate the cached schedule wholesale;
//! the cluster now keeps the availability [`Profile`] warm and asks the
//! scheduler how much of the schedule survived
//! ([`LocalScheduler::repair_from`](crate::sched::LocalScheduler::repair_from)):
//! FCFS and CBF re-place `queue[i..]` after a cancel at index *i*, the
//! EASY family re-places everything after its *protected head* (those
//! reservations are placed in queue order against the running set alone,
//! so they are suffix-independent), and EASY-SJF re-runs the whole queue
//! against the warm running-set profile. Every repair is byte-identical
//! to the full rebuild it replaces. [`ClusterStats::recomputes`] counts
//! the full rebuilds that remain; [`ClusterStats::suffix_repairs`] counts
//! the warm-path fixups that replaced them;
//! [`ClusterStats::first_fit_probes`] counts the placement queries the
//! availability engine answered (scheduler effort), and
//! [`ClusterStats::sweep_placements`] the FCFS placements a release sweep
//! made without one (see the [`sched`](crate::sched) module).
//!
//! The scheduling policies themselves live behind the
//! [`LocalScheduler`](crate::sched::LocalScheduler) trait; see the
//! [`sched`](crate::sched) module for the registry.

use grid_des::{Duration, SimRng, SimTime};
use grid_obs::{Field, Obs};

use crate::gantt::GanttEntry;
use crate::job::{JobId, JobSpec, ScaledJob};
use crate::platform::ClusterSpec;
use crate::profile::{Profile, ProfileSnapshot};
use crate::sched::{BatchFit, BatchPolicy, QueueDelta, QueueScan, Staircase};

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The job needs more processors than the cluster owns.
    TooLarge {
        /// Processors requested by the job.
        procs: u32,
        /// Processors the cluster owns.
        total: u32,
    },
    /// A job with the same id is already queued or running here.
    Duplicate(JobId),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::TooLarge { procs, total } => {
                write!(f, "job needs {procs} processors, cluster has {total}")
            }
            SubmitError::Duplicate(id) => write!(f, "job {id} already present"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Multiplicative lognormal noise on the middleware's completion-time
/// *estimates* — the fault-injection hook for robustness campaigns
/// (constructed by `grid-fault`, installed via
/// [`Cluster::set_ect_noise`]).
///
/// Only the two estimation queries ([`Cluster::estimate_new`] and
/// [`Cluster::current_ect`]) are perturbed; reservations, starts and
/// completions — the true schedule driving the simulation — never are.
/// The error factor is a pure function of `(seed, job)`, so repeated
/// queries are consistent and runs stay byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct EctNoise {
    seed: u64,
    sigma: f64,
}

impl EctNoise {
    /// A noise source with lognormal σ `sigma` (`factor = exp(σ·z)`,
    /// `z ~ N(0,1)`; median factor 1). `seed` should already mix the run
    /// seed, the fault seed and the site index.
    pub fn new(seed: u64, sigma: f64) -> EctNoise {
        EctNoise { seed, sigma }
    }

    /// The job's error factor on this cluster (strictly positive).
    pub fn factor(&self, job: JobId) -> f64 {
        let mut rng = SimRng::derive(self.seed, job.0);
        // Box–Muller; u1 is kept off zero so ln() stays finite.
        let u1 = rng.gen_f64().max(f64::MIN_POSITIVE);
        let u2 = rng.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.sigma * z).exp()
    }

    /// Apply the error to an estimate issued at `now`: the *remaining*
    /// time to completion is scaled, so estimates never precede the
    /// query instant.
    pub fn perturb(&self, job: JobId, now: SimTime, ect: SimTime) -> SimTime {
        debug_assert!(ect >= now, "estimate precedes the query instant");
        let remaining = ect.since(now).as_secs() as f64;
        now + Duration((remaining * self.factor(job)).round() as u64)
    }
}

/// A job currently executing.
#[derive(Debug, Clone)]
pub struct Running {
    /// The job.
    pub job: JobSpec,
    /// Durations on this cluster.
    pub scaled: ScaledJob,
    /// Start instant.
    pub start: SimTime,
    /// Actual completion instant (`start + min(runtime, walltime)`);
    /// unknown to the scheduler until it happens.
    pub end: SimTime,
    /// Instant the reservation releases (`start + walltime`); what the
    /// scheduler plans around.
    pub reserved_end: SimTime,
}

/// A waiting job viewed through the cluster's job slab (what
/// [`Cluster::waiting_jobs`] yields).
///
/// The cluster stores waiting jobs in a per-cluster arena plus a
/// struct-of-arrays queue (see `JobSlab`); this is the borrowed
/// row view stitching one queue position back together.
#[derive(Debug, Clone, Copy)]
pub struct QueuedRef<'a> {
    /// The job.
    pub job: &'a JobSpec,
    /// Durations on this cluster.
    pub scaled: &'a ScaledJob,
    /// Currently planned start (recomputed after every schedule change).
    pub reserved_start: SimTime,
    /// Instant this job entered this cluster's queue (queue order is
    /// submission order to *this* cluster).
    pub enqueued_at: SimTime,
}

/// Per-cluster job arena: specs and scaled views live in stable slots
/// indexed by `u32`, so queue reordering moves 4-byte handles (plus the
/// scan arrays) instead of ~100-byte job records.
#[derive(Debug, Clone, Default)]
struct JobSlab {
    jobs: Vec<JobSpec>,
    scaled: Vec<ScaledJob>,
    free: Vec<u32>,
}

impl JobSlab {
    fn insert(&mut self, job: JobSpec, scaled: ScaledJob) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.jobs[slot as usize] = job;
                self.scaled[slot as usize] = scaled;
                slot
            }
            None => {
                self.jobs.push(job);
                self.scaled.push(scaled);
                (self.jobs.len() - 1) as u32
            }
        }
    }

    fn remove(&mut self, slot: u32) -> (JobSpec, ScaledJob) {
        self.free.push(slot);
        (self.jobs[slot as usize], self.scaled[slot as usize])
    }

    /// Free every slot, keeping the backing storage.
    fn clear(&mut self) {
        self.jobs.clear();
        self.scaled.clear();
        self.free.clear();
    }

    /// Slots currently holding a waiting job.
    fn live(&self) -> usize {
        self.jobs.len() - self.free.len()
    }
}

/// Counters accumulated over a run (used by tests, ablations and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs that began executing.
    pub started: u64,
    /// Jobs that completed (including killed ones).
    pub completed: u64,
    /// Jobs that hit their walltime and were killed.
    pub killed: u64,
    /// Waiting jobs removed by `cancel`.
    pub canceled: u64,
    /// Jobs (running or waiting) evicted by a site outage
    /// ([`Cluster::fail_until`]).
    pub evicted: u64,
    /// Largest queue length observed.
    pub max_queue_len: usize,
    /// Sum over completed jobs of `procs * (end - start)` in core-seconds.
    pub busy_core_secs: u64,
    /// Number of full schedule recomputations performed.
    pub recomputes: u64,
    /// Number of warm-profile suffix repairs that replaced a full
    /// recomputation (incremental maintenance; see the module docs).
    pub suffix_repairs: u64,
    /// Number of `Profile::first_fit` placement queries answered for this
    /// cluster — scheduling *and* estimation dry-runs, so campaigns can
    /// report total scheduler effort.
    pub first_fit_probes: u64,
    /// Inline→tree promotions of the adaptive availability profile
    /// (the backend crossed [`DEFAULT_CROSSOVER`](crate::profile::DEFAULT_CROSSOVER)
    /// breakpoints).
    pub profile_promotions: u64,
    /// Batch first-fit placements that resumed from the walk's dominance
    /// floor instead of descending from `now` (see the `sched` module
    /// docs).
    pub batch_fast_placements: u64,
    /// [`Cluster::prepare_estimates`] calls that found the cached
    /// profile snapshot still valid (no mutation since it was taken), so
    /// the ECT dry-run pass reused it instead of re-freezing.
    pub ect_snapshot_reuses: u64,
    /// Batched ECT column fills answered against the snapshot
    /// ([`Cluster::estimate_new_batch`] calls — one per per-cluster
    /// column the reallocation round (re)filled).
    pub ect_column_refills: u64,
    /// Queue placements made by the FCFS release sweep, which answers
    /// without a `first_fit` query (so `first_fit_probes` keeps counting
    /// real queries only). Telemetry: it rides in the sidecar only.
    pub sweep_placements: u64,
}

impl ClusterStats {
    /// Canonical JSON object (sorted keys). The engine-internal counters
    /// — `evicted`, `suffix_repairs`, `first_fit_probes`,
    /// `profile_promotions`, `batch_fast_placements` — are serialised
    /// only when non-zero, like `outage_evictions` on run outcomes, so
    /// reports from configurations that never exercise them stay
    /// byte-identical across engine versions.
    pub fn to_json(&self) -> grid_ser::Value {
        let mut obj = grid_ser::Value::object();
        obj.insert("submitted", self.submitted);
        obj.insert("started", self.started);
        obj.insert("completed", self.completed);
        obj.insert("killed", self.killed);
        obj.insert("canceled", self.canceled);
        if self.evicted > 0 {
            obj.insert("evicted", self.evicted);
        }
        obj.insert("max_queue_len", self.max_queue_len as u64);
        obj.insert("busy_core_secs", self.busy_core_secs);
        obj.insert("recomputes", self.recomputes);
        if self.suffix_repairs > 0 {
            obj.insert("suffix_repairs", self.suffix_repairs);
        }
        if self.first_fit_probes > 0 {
            obj.insert("first_fit_probes", self.first_fit_probes);
        }
        if self.profile_promotions > 0 {
            obj.insert("profile_promotions", self.profile_promotions);
        }
        if self.batch_fast_placements > 0 {
            obj.insert("batch_fast_placements", self.batch_fast_placements);
        }
        if self.ect_snapshot_reuses > 0 {
            obj.insert("ect_snapshot_reuses", self.ect_snapshot_reuses);
        }
        if self.ect_column_refills > 0 {
            obj.insert("ect_column_refills", self.ect_column_refills);
        }
        if self.sweep_placements > 0 {
            obj.insert("sweep_placements", self.sweep_placements);
        }
        obj
    }

    /// Decode [`ClusterStats::to_json`] (absent optional counters read
    /// back as zero).
    pub fn from_json(v: &grid_ser::Value) -> Result<ClusterStats, grid_ser::json::SerError> {
        let opt = |key: &str| v.get(key).and_then(grid_ser::Value::as_u64).unwrap_or(0);
        Ok(ClusterStats {
            submitted: v.req_u64("submitted")?,
            started: v.req_u64("started")?,
            completed: v.req_u64("completed")?,
            killed: v.req_u64("killed")?,
            canceled: v.req_u64("canceled")?,
            evicted: opt("evicted"),
            max_queue_len: v.req_u64("max_queue_len")? as usize,
            busy_core_secs: v.req_u64("busy_core_secs")?,
            recomputes: v.req_u64("recomputes")?,
            suffix_repairs: opt("suffix_repairs"),
            first_fit_probes: opt("first_fit_probes"),
            profile_promotions: opt("profile_promotions"),
            batch_fast_placements: opt("batch_fast_placements"),
            ect_snapshot_reuses: opt("ect_snapshot_reuses"),
            ect_column_refills: opt("ect_column_refills"),
            sweep_placements: opt("sweep_placements"),
        })
    }
}

/// The frozen state behind a run of read-only ECT dry-runs: the
/// copy-on-write profile snapshot plus the policy's tail floor at the
/// freeze instant, and — for a scheduler that returns one from
/// [`tail_staircase`](crate::sched::LocalScheduler::tail_staircase) — the
/// post-floor free counts, read once so every
/// [`Cluster::estimate_new_at`] / [`Cluster::estimate_new_batch`] call
/// served by the same freeze is a binary search instead of a first-fit.
#[derive(Debug, Clone)]
struct FrozenEstimates {
    profile: ProfileSnapshot,
    floor: SimTime,
    staircase: Option<Staircase>,
    /// Instant `floor` was computed at; a later `prepare_estimates`
    /// with a different `now` recomputes the floor without dropping the
    /// (still valid) profile snapshot.
    now: SimTime,
}

/// A cluster of processors under a batch scheduler.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    policy: BatchPolicy,
    running: Vec<Running>,
    /// Arena holding the specs/scaled views of the waiting jobs; the
    /// `q_*` arrays below are the queue itself, position-aligned
    /// (struct-of-arrays so the scheduler scan stays contiguous).
    slab: JobSlab,
    /// Slab slot per queue position.
    q_slot: Vec<u32>,
    /// Processors required per queue position (scheduler scan field).
    q_procs: Vec<u32>,
    /// Scaled walltime per queue position (scheduler scan field).
    q_walltime: Vec<Duration>,
    /// Reserved start per queue position (scheduler scan field).
    q_reserved: Vec<SimTime>,
    /// Enqueue instant per queue position.
    q_enqueued: Vec<SimTime>,
    /// Availability profile including every queued reservation; `None` when
    /// stale (a mutation the scheduler cannot repair incrementally).
    profile: Option<Profile>,
    /// First queue index whose reservation must be re-placed before the
    /// warm profile can be trusted again (suffix dirty-tracking, already
    /// mapped through `repair_from`; `None` when the cached schedule is
    /// clean).
    dirty_from: Option<usize>,
    /// Copy-on-write freeze of the profile serving read-only ECT dry-runs
    /// ([`Cluster::estimate_new_at`] / [`Cluster::estimate_new_batch`]).
    /// Taken by [`Cluster::prepare_estimates`]; dropped only by real
    /// mutations (submit/cancel/complete/fail_until) or an origin
    /// advance, so back-to-back dry-run passes within one reallocation
    /// tick share the same frozen store.
    snapshot: Option<FrozenEstimates>,
    /// Warm-profile maintenance switch; `false` restores the historical
    /// invalidate-on-every-change behaviour (benchmark baseline).
    incremental: bool,
    stats: ClusterStats,
    /// Execution history for Gantt rendering and post-run analysis.
    history: Vec<GanttEntry>,
    /// Site outage in effect: no processor is available before this
    /// instant ([`Cluster::fail_until`]); cleared lazily once passed.
    unavailable_until: Option<SimTime>,
    /// Fault-injection hook perturbing the two estimation queries.
    ect_noise: Option<EctNoise>,
    /// Scale walltimes to this cluster's speed (paper §1: "the automatic
    /// adjustment of the walltime to the speed of the cluster"). On by
    /// default; the A5 ablation turns it off, leaving reservations sized
    /// for the reference machine.
    adjust_walltime: bool,
    /// Instrumentation handle (disabled by default: a `None` check per
    /// call site, no recording). Never steers scheduling decisions.
    obs: Obs,
    /// Trace lane this cluster reports under (its site index).
    lane: u32,
}

impl Cluster {
    /// Create an empty cluster.
    ///
    /// # Panics
    /// Panics on a per-site mix handle — a cluster runs exactly one
    /// scheduler; expand mixes with [`BatchPolicy::for_site`] first (the
    /// grid driver does).
    pub fn new(spec: ClusterSpec, policy: BatchPolicy) -> Self {
        assert!(
            !policy.is_mix(),
            "cluster {} cannot run policy mix `{policy}`; assign one policy per site",
            spec.name
        );
        Cluster {
            spec,
            policy,
            running: Vec::new(),
            slab: JobSlab::default(),
            q_slot: Vec::new(),
            q_procs: Vec::new(),
            q_walltime: Vec::new(),
            q_reserved: Vec::new(),
            q_enqueued: Vec::new(),
            profile: None,
            dirty_from: None,
            snapshot: None,
            incremental: true,
            stats: ClusterStats::default(),
            history: Vec::new(),
            unavailable_until: None,
            ect_noise: None,
            adjust_walltime: true,
            obs: Obs::default(),
            lane: 0,
        }
    }

    /// Attach an instrumentation handle, reporting under trace lane
    /// `lane` (the site index). The handle only observes: schedules,
    /// reservations and outcomes are byte-identical with or without it.
    pub fn set_obs(&mut self, obs: Obs, lane: u32) {
        obs.name_lane(lane, &self.spec.name);
        self.obs = obs;
        self.lane = lane;
    }

    /// The attached instrumentation handle (disabled unless
    /// [`Cluster::set_obs`] attached one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Enable/disable warm-profile incremental schedule maintenance.
    /// Disabling restores the historical "invalidate on every cancel or
    /// early completion" behaviour; results are identical either way, only
    /// the number of full recomputations differs (the
    /// `scheduling-incremental` benchmark pins this).
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
        if !incremental {
            self.invalidate_snapshot();
            self.profile = None;
            self.dirty_from = None;
        }
    }

    /// The index a warm-profile repair may start from for `delta`, when
    /// the fast path is usable at all: the switch must be on, a warm
    /// profile must exist, and the scheduler must claim a byte-identical
    /// repair point for this kind of mutation.
    fn repair_entry(&self, delta: QueueDelta) -> Option<usize> {
        if !self.incremental || self.profile.is_none() {
            return None;
        }
        self.policy.scheduler().repair_from(delta)
    }

    /// Fold `from` into the dirty suffix marker.
    fn mark_dirty(&mut self, from: usize) {
        self.dirty_from = Some(self.dirty_from.map_or(from, |d| d.min(from)));
    }

    /// Append a job to the queue (slab slot + scan arrays).
    fn queue_push(&mut self, job: JobSpec, scaled: ScaledJob, reserved: SimTime, now: SimTime) {
        let slot = self.slab.insert(job, scaled);
        self.q_slot.push(slot);
        self.q_procs.push(scaled.procs);
        self.q_walltime.push(scaled.walltime);
        self.q_reserved.push(reserved);
        self.q_enqueued.push(now);
    }

    /// Remove queue position `idx`, returning the job, its scaled view
    /// and the reservation it held.
    fn queue_remove(&mut self, idx: usize) -> (JobSpec, ScaledJob, SimTime) {
        let slot = self.q_slot.remove(idx);
        self.q_procs.remove(idx);
        self.q_walltime.remove(idx);
        let reserved = self.q_reserved.remove(idx);
        self.q_enqueued.remove(idx);
        let (job, scaled) = self.slab.remove(slot);
        self.maybe_compact_slab();
        (job, scaled, reserved)
    }

    /// Compact the job arena once churn (long outages evicting whole
    /// queues, drain/refill cycles) has left it mostly holes: when the
    /// free list outnumbers the live slots two to one, rebuild the
    /// backing vectors with the live jobs in queue order — which is
    /// also scan order — and renumber `q_slot`. Slot handles never
    /// escape the cluster, so the renumbering is invisible outside;
    /// the threshold makes the copy cost amortised O(1) per removal.
    fn maybe_compact_slab(&mut self) {
        if self.slab.free.len() <= 2 * self.slab.live() {
            return;
        }
        let mut jobs = Vec::with_capacity(self.q_slot.len());
        let mut scaled = Vec::with_capacity(self.q_slot.len());
        for slot in &mut self.q_slot {
            let s = *slot as usize;
            jobs.push(self.slab.jobs[s]);
            scaled.push(self.slab.scaled[s]);
            *slot = (jobs.len() - 1) as u32;
        }
        self.slab = JobSlab {
            jobs,
            scaled,
            free: Vec::new(),
        };
    }

    /// Enable/disable walltime speed-adjustment (see the field docs).
    ///
    /// # Panics
    /// Panics if jobs are already queued or running — the flag is a
    /// configuration choice, not a runtime switch.
    pub fn set_walltime_adjustment(&mut self, adjust: bool) {
        assert!(
            self.is_idle(),
            "walltime adjustment must be configured before use"
        );
        self.adjust_walltime = adjust;
    }

    /// Install (or clear) the ECT-noise fault hook. Affects only the
    /// [`Cluster::estimate_new`] / [`Cluster::current_ect`] estimation
    /// queries; the true schedule is never perturbed.
    pub fn set_ect_noise(&mut self, noise: Option<EctNoise>) {
        self.ect_noise = noise;
    }

    /// The installed ECT-noise hook, if any.
    pub fn ect_noise(&self) -> Option<&EctNoise> {
        self.ect_noise.as_ref()
    }

    /// Static description (name, processors, speed).
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The local scheduling policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of waiting jobs.
    pub fn waiting_count(&self) -> usize {
        self.q_slot.len()
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// `true` when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.q_slot.is_empty() && self.running.is_empty()
    }

    /// Processors currently occupied by running jobs.
    pub fn busy_cores(&self) -> u32 {
        self.running.iter().map(|r| r.scaled.procs).sum()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Waiting jobs in queue order (paper query: "return the list of jobs
    /// in the waiting state").
    pub fn waiting_jobs(&self) -> impl Iterator<Item = QueuedRef<'_>> {
        (0..self.q_slot.len()).map(|i| {
            let slot = self.q_slot[i] as usize;
            QueuedRef {
                job: &self.slab.jobs[slot],
                scaled: &self.slab.scaled[slot],
                reserved_start: self.q_reserved[i],
                enqueued_at: self.q_enqueued[i],
            }
        })
    }

    /// Running jobs (no particular order guarantees beyond determinism).
    pub fn running_jobs(&self) -> impl Iterator<Item = &Running> {
        self.running.iter()
    }

    /// Completed-job history (start/end records) for Gantt rendering.
    pub fn history(&self) -> &[GanttEntry] {
        &self.history
    }

    /// The job's durations on this cluster.
    pub fn scale_job(&self, job: &JobSpec) -> ScaledJob {
        let mut scaled = job.scaled(self.spec.speed);
        if !self.adjust_walltime {
            // Reservation (and kill deadline) stay sized for the reference
            // machine; only the physical runtime scales with speed.
            scaled.walltime = grid_des::Duration(job.walltime_ref.as_secs().max(1));
        }
        scaled
    }

    // ------------------------------------------------------------------
    // Middleware queries (paper §2.1)
    // ------------------------------------------------------------------

    /// Submit `job` at `now`; it joins the end of the queue and receives a
    /// reservation per the local policy. Returns the reserved start.
    pub fn submit(&mut self, job: JobSpec, now: SimTime) -> Result<SimTime, SubmitError> {
        if job.procs > self.spec.procs {
            return Err(SubmitError::TooLarge {
                procs: job.procs,
                total: self.spec.procs,
            });
        }
        if job.procs == 0 {
            return Err(SubmitError::TooLarge {
                procs: 0,
                total: self.spec.procs,
            });
        }
        if self.find_queued(job.id).is_some() || self.find_running(job.id).is_some() {
            return Err(SubmitError::Duplicate(job.id));
        }
        let scaled = self.scale_job(&job);
        // A staircase frozen at `now` (FCFS) answers the tail start in one
        // lookup: no mutation came through since the freeze.
        let frozen = self
            .snapshot
            .as_ref()
            .filter(|f| f.now == now)
            .and_then(|f| f.staircase.as_ref())
            .map(|stairs| stairs.first_free(scaled.procs));
        // A real mutation: the frozen dry-run view (if any) is stale, and
        // dropping it first keeps the profile's backing store unique so
        // the reservation below mutates in place instead of copying.
        self.invalidate_snapshot();
        let start = if self.policy.scheduler().incremental_tail() {
            // A tail job never disturbs existing reservations under these
            // policies, so the warm profile absorbs it directly.
            self.ensure_schedule(now);
            let start = match frozen {
                Some(start) => {
                    debug_assert_eq!(
                        start,
                        self.place_at_tail(scaled.procs, scaled.walltime, now),
                        "the frozen staircase disagrees with the profile"
                    );
                    start
                }
                None => self.place_at_tail(scaled.procs, scaled.walltime, now),
            };
            self.profile
                .as_mut()
                .expect("schedule just ensured")
                .reserve(start, scaled.walltime, scaled.procs);
            self.queue_push(job, scaled, start, now);
            start
        } else {
            // Aggressive back-filling re-examines the whole queue: the
            // new job may start immediately even when the tentative
            // schedule says otherwise. `SimTime::MAX` marks "not carved
            // into the profile yet"; the repair path skips its release.
            self.queue_push(job, scaled, SimTime::MAX, now);
            let idx = self.q_slot.len() - 1;
            if let Some(from) = self.repair_entry(QueueDelta::Submit { index: idx }) {
                // The scheduler can absorb a tail job on the warm profile
                // (EASY: its protected head is suffix-independent, so
                // only the aggressive + estimation phases re-run).
                self.mark_dirty(from);
            } else {
                self.invalidate();
            }
            self.ensure_schedule(now);
            *self.q_reserved.last().expect("just pushed")
        };
        self.stats.submitted += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.q_slot.len());
        self.harvest_probes();
        Ok(start)
    }

    /// Cancel a *waiting* job (running jobs cannot be canceled — the paper
    /// only ever reallocates jobs "in waiting state"). Returns the job if
    /// it was queued here.
    pub fn cancel(&mut self, id: JobId, _now: SimTime) -> Option<JobSpec> {
        let idx = self.find_queued(id)?;
        self.invalidate_snapshot();
        let (job, scaled, reserved) = self.queue_remove(idx);
        self.stats.canceled += 1;
        // A hole opened: later reservations may move earlier. When the
        // scheduler claims a byte-identical repair point for a cancel
        // at `idx`, un-carve the victim and dirty-track; the repair runs
        // lazily at the next schedule query. (`repair_entry` is `None`
        // without a warm profile, so the profile is present here.)
        if let Some(from) = self.repair_entry(QueueDelta::Cancel { index: idx }) {
            let p = self.profile.as_mut().expect("repair_entry implies warm");
            p.release(reserved, scaled.walltime, scaled.procs);
            self.mark_dirty(from);
        } else {
            self.invalidate();
        }
        Some(job)
    }

    /// Cancel every waiting job at once: empty the queue and return each
    /// job, in queue order, with the current ECT it held — what
    /// [`Cluster::current_ect`] answered for it just before (noise
    /// included). One call instead of a `current_ect` and a
    /// [`Cluster::cancel`] per job, each of which locates the job in the
    /// queue; the schedule is left for a rebuild from the running jobs,
    /// which answers exactly as releasing every reservation would.
    pub fn drain_queue(&mut self, now: SimTime) -> Vec<(JobSpec, SimTime)> {
        if self.q_slot.is_empty() {
            return Vec::new();
        }
        self.ensure_schedule(now);
        let drained: Vec<(JobSpec, SimTime)> = (0..self.q_slot.len())
            .map(|idx| {
                let job = self.slab.jobs[self.q_slot[idx] as usize];
                let end = self.q_reserved[idx] + self.q_walltime[idx];
                (job, self.noisy(job.id, now, end))
            })
            .collect();
        self.q_slot.clear();
        self.q_procs.clear();
        self.q_walltime.clear();
        self.q_reserved.clear();
        self.q_enqueued.clear();
        self.slab.clear();
        self.stats.canceled += drained.len() as u64;
        self.invalidate();
        drained
    }

    /// Estimated completion time of a *hypothetical* submission of `job`
    /// at `now` (dry run — nothing is mutated besides the schedule cache).
    /// `None` when the job cannot run here at all. Subject to the
    /// [`EctNoise`] fault hook when one is installed.
    pub fn estimate_new(&mut self, job: &JobSpec, now: SimTime) -> Option<SimTime> {
        // An impossible job answers `None` without touching the schedule.
        if job.procs > self.spec.procs || job.procs == 0 {
            return None;
        }
        self.ensure_schedule(now);
        let ect = self.estimate_with(job, now, |procs, walltime| {
            self.place_at_tail(procs, walltime, now)
        });
        self.harvest_probes();
        ect
    }

    /// Estimated completion time of a job already waiting here: its current
    /// reservation end. `None` if the job is not waiting here. Subject to
    /// the [`EctNoise`] fault hook when one is installed.
    pub fn current_ect(&mut self, id: JobId, now: SimTime) -> Option<SimTime> {
        self.ensure_schedule(now);
        let idx = self.find_queued(id)?;
        self.obs.count("ect.current_ect", 1);
        Some(self.noisy(id, now, self.q_reserved[idx] + self.q_walltime[idx]))
    }

    /// Freeze the current schedule for read-only ECT dry-runs: brings the
    /// schedule up to date, then caches an O(1) copy-on-write
    /// [`ProfileSnapshot`] (reusing the cached one when no mutation has
    /// intervened — the common case across the columns of one
    /// reallocation tick).
    pub fn prepare_estimates(&mut self, now: SimTime) {
        self.ensure_schedule(now);
        self.harvest_probes();
        let profile = self.profile.as_ref().expect("schedule just ensured");
        let scheduler = self.policy.scheduler();
        let floor = scheduler.tail_floor(&self.q_reserved, now);
        let staircase = || scheduler.tail_staircase(profile, floor);
        if let Some(frozen) = &mut self.snapshot {
            if frozen.now != now {
                frozen.floor = floor;
                frozen.staircase = staircase();
                frozen.now = now;
            }
            self.stats.ect_snapshot_reuses += 1;
            self.obs.count("ect.snapshot_reuses", 1);
        } else {
            self.snapshot = Some(FrozenEstimates {
                profile: profile.snapshot(),
                floor,
                staircase: staircase(),
                now,
            });
        }
    }

    /// Record that an already-frozen snapshot answered an estimate
    /// without a re-freeze — called by callers that proved (via their own
    /// invalidation tracking) the snapshot is still current and so
    /// skipped [`Cluster::prepare_estimates`] entirely. Keeps
    /// `ect.snapshot_reuses` an honest measure of the snapshot economy.
    pub fn note_snapshot_reuse(&mut self) {
        debug_assert!(self.snapshot.is_some(), "no snapshot to reuse");
        self.stats.ect_snapshot_reuses += 1;
        self.obs.count("ect.snapshot_reuses", 1);
    }

    /// Record that a caller is about to re-probe an estimate it still
    /// held as a lower bound (the reallocation round's ECT cache keeps
    /// bounds across tail submissions). Telemetry only: the
    /// `ect.stale_refreshes` counter goes to the attached [`Obs`]
    /// recorder, never into [`ClusterStats`].
    pub fn note_stale_refresh(&self) {
        self.obs.count("ect.stale_refreshes", 1);
    }

    /// Estimated completion time of a *hypothetical* submission of `job`
    /// at `now`, answered against the frozen snapshot — bit-identical to
    /// [`Cluster::estimate_new`] but requiring only `&self`: no schedule
    /// cache is touched and nothing is mutated at all. Subject to the
    /// [`EctNoise`] fault hook when one is installed.
    ///
    /// # Panics
    /// Panics if no snapshot is cached — call
    /// [`Cluster::prepare_estimates`] first (any mutation in between
    /// drops the snapshot, on purpose: a stale answer would otherwise be
    /// indistinguishable from a fresh one).
    pub fn estimate_new_at(&self, job: &JobSpec, now: SimTime) -> Option<SimTime> {
        self.estimate_with(job, now, |procs, walltime| {
            let frozen = self.snapshot.as_ref().expect("prepare_estimates first");
            debug_assert_eq!(frozen.now, now, "snapshot frozen at a different instant");
            match &frozen.staircase {
                Some(staircase) => staircase.first_free(procs),
                None => frozen.profile.first_fit(frozen.floor, walltime, procs),
            }
        })
    }

    /// The frozen post-floor free counts behind the current estimate
    /// snapshot: `Some` after [`Cluster::prepare_estimates`] when the
    /// scheduler returns a
    /// [`tail_staircase`](crate::sched::LocalScheduler::tail_staircase)
    /// (FCFS). A new tail job of width `procs` and scaled walltime `w`
    /// then completes at `noisy(first_free(procs) + w)` — what
    /// [`Cluster::estimate_new_at`] answers — so a caller can read a
    /// whole column of estimates in one [`Staircase::walk`].
    pub fn estimate_staircase(&self) -> Option<&Staircase> {
        self.snapshot.as_ref()?.staircase.as_ref()
    }

    /// Fill one ECT column in a single batched pass: estimate every
    /// `Some` entry of `jobs` against one frozen snapshot — on the
    /// staircase when the scheduler has one, otherwise threading a
    /// `BatchFit` dominance frontier across the column so each
    /// placement descent resumes from the floor earlier jobs proved
    /// unreachable (sound because every query shares the same tail-floor
    /// base against the same frozen store). `None` entries pass through
    /// as `None`, preserving index alignment with the caller's job list.
    ///
    /// Answers are bit-identical to calling [`Cluster::estimate_new`]
    /// per job.
    pub fn estimate_new_batch<'a, I>(&mut self, jobs: I, now: SimTime) -> Vec<Option<SimTime>>
    where
        I: IntoIterator<Item = Option<&'a JobSpec>>,
    {
        self.prepare_estimates(now);
        self.stats.ect_column_refills += 1;
        self.obs.count("ect.column_refills", 1);
        let out = {
            let frozen = self.snapshot.as_ref().expect("just prepared");
            let (snap, floor) = (&frozen.profile, frozen.floor);
            let mut fit = BatchFit::new();
            let mut out = Vec::new();
            for job in jobs {
                out.push(job.and_then(|job| {
                    self.estimate_with(job, now, |procs, walltime| {
                        if let Some(staircase) = &frozen.staircase {
                            return staircase.first_free(procs);
                        }
                        let base = fit.floor(floor, procs, walltime);
                        let start = snap.first_fit(base, walltime, procs);
                        fit.note(procs, walltime, start);
                        start
                    })
                }));
            }
            out
        };
        self.harvest_probes();
        out
    }

    /// `true` while a dry-run snapshot is cached (test hook: pins that
    /// mutations drop it and dry-runs do not).
    #[doc(hidden)]
    pub fn has_estimate_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The step the three new-job estimate queries share: reject a job
    /// the cluster cannot run, scale it to this cluster's speed, place it
    /// with `place(procs, walltime)` and apply the ECT-noise hook to the
    /// resulting completion time.
    fn estimate_with(
        &self,
        job: &JobSpec,
        now: SimTime,
        place: impl FnOnce(u32, Duration) -> SimTime,
    ) -> Option<SimTime> {
        if job.procs > self.spec.procs || job.procs == 0 {
            return None;
        }
        let scaled = self.scale_job(job);
        let start = place(scaled.procs, scaled.walltime);
        self.obs.count("ect.estimate_new", 1);
        Some(self.noisy(job.id, now, start + scaled.walltime))
    }

    /// Apply the ECT-noise hook, if one is installed, to the completion
    /// estimate `ect` of job `id` issued at `now` (what every estimation
    /// query does to its answer).
    pub fn noisy(&self, id: JobId, now: SimTime, ect: SimTime) -> SimTime {
        match &self.ect_noise {
            Some(noise) => {
                self.obs.count("ect.noise_applied", 1);
                noise.perturb(id, now, ect)
            }
            None => ect,
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (site outages)
    // ------------------------------------------------------------------

    /// Take the whole site down until `until`: every running job is
    /// killed (its work is lost), every waiting job is dequeued, and no
    /// processor is available before `until` — the availability
    /// [`Profile`] is truncated accordingly, so submissions made during
    /// the outage are reserved no earlier than the recovery instant.
    ///
    /// Returns the evicted `(running, waiting)` job specs so the grid
    /// driver can re-enter them into the mapper; overlapping outages
    /// extend the blackout to the latest recovery.
    pub fn fail_until(&mut self, until: SimTime, now: SimTime) -> (Vec<JobSpec>, Vec<JobSpec>) {
        debug_assert!(until > now, "recovery must lie in the future");
        self.invalidate_snapshot();
        let running: Vec<JobSpec> = self.running.drain(..).map(|r| r.job).collect();
        let waiting: Vec<JobSpec> = self
            .q_slot
            .iter()
            .map(|&slot| self.slab.jobs[slot as usize])
            .collect();
        self.slab.free.append(&mut self.q_slot);
        self.q_procs.clear();
        self.q_walltime.clear();
        self.q_reserved.clear();
        self.q_enqueued.clear();
        self.maybe_compact_slab();
        self.stats.evicted += (running.len() + waiting.len()) as u64;
        self.unavailable_until = Some(self.unavailable_until.map_or(until, |u| u.max(until)));
        if self.incremental {
            // Outage truncation on the availability engine: every
            // reservation belongs to an evicted job, so the profile
            // collapses to "blocked until recovery, free after" in O(1)
            // instead of being invalidated and rebuilt at the next query.
            // Nothing of the pre-outage profile survives the truncation.
            let recovery = self.unavailable_until.expect("just set");
            self.harvest_probes();
            let mut p = Profile::flat(self.spec.procs, now);
            p.fail_until(now, recovery);
            self.profile = Some(p);
            self.dirty_from = None;
        } else {
            self.invalidate();
        }
        (running, waiting)
    }

    /// The pending recovery instant while the site is down.
    pub fn unavailable_until(&self) -> Option<SimTime> {
        self.unavailable_until
    }

    // ------------------------------------------------------------------
    // Simulation driving (called by the grid driver, not the middleware)
    // ------------------------------------------------------------------

    /// Earliest reserved start among waiting jobs (the instant the driver
    /// must wake this cluster), recomputing the schedule if stale.
    pub fn next_reservation(&mut self, now: SimTime) -> Option<SimTime> {
        self.ensure_schedule(now);
        self.q_reserved.iter().copied().min()
    }

    /// Start every waiting job whose reservation is due at `now`; returns
    /// `(job id, actual completion instant)` for each started job so the
    /// driver can schedule completion events.
    pub fn start_due(&mut self, now: SimTime) -> Vec<(JobId, SimTime)> {
        self.ensure_schedule(now);
        let mut started = Vec::new();
        let mut i = 0;
        while i < self.q_slot.len() {
            if self.q_reserved[i] == now {
                let (job, scaled, _) = self.queue_remove(i);
                let end = now + scaled.effective_runtime();
                let reserved_end = now + scaled.walltime;
                debug_assert!(end <= reserved_end);
                self.running.push(Running {
                    job,
                    scaled,
                    start: now,
                    end,
                    reserved_end,
                });
                self.stats.started += 1;
                started.push((job.id, end));
            } else {
                debug_assert!(
                    self.q_reserved[i] > now,
                    "missed reservation: job {} reserved at {} < now {now}",
                    self.slab.jobs[self.q_slot[i] as usize].id,
                    self.q_reserved[i]
                );
                i += 1;
            }
        }
        // Started jobs occupy exactly the slots their reservations held, so
        // the cached profile remains valid.
        started
    }

    /// Record the completion of a running job at `now` (its actual end).
    /// Returns the execution record.
    ///
    /// # Panics
    /// Panics if the job is not running here or `now` differs from its
    /// actual end.
    pub fn complete(&mut self, id: JobId, now: SimTime) -> Running {
        let idx = self
            .find_running(id)
            .unwrap_or_else(|| panic!("job {id} not running on {}", self.spec.name));
        self.invalidate_snapshot();
        let r = self.running.remove(idx);
        assert_eq!(r.end, now, "completion event fired at the wrong time");
        self.stats.completed += 1;
        if r.scaled.runtime >= r.scaled.walltime {
            self.stats.killed += 1;
        }
        self.stats.busy_core_secs += u64::from(r.scaled.procs) * now.since(r.start).as_secs();
        self.history.push(GanttEntry {
            job: r.job.id,
            procs: r.scaled.procs,
            start: r.start,
            end: r.end,
        });
        if now < r.reserved_end {
            // Finished before its walltime: the schedule can improve. Give
            // the freed window back to the warm profile; every queued
            // reservation may move earlier, so the dirty suffix is the
            // whole queue — but the running-set reservations stay valid,
            // an empty queue costs nothing at all, and when the freed
            // window cannot admit any waiting job the whole re-scan is
            // skipped (the released profile already equals what a rebuild
            // would produce).
            match self.repair_entry(QueueDelta::Completion) {
                Some(from) => {
                    let p = self.profile.as_mut().expect("repair_entry implies warm");
                    p.release(now, r.reserved_end.since(now), r.scaled.procs);
                    if !self.q_slot.is_empty() && !self.completion_admits_none(r.reserved_end) {
                        self.mark_dirty(from);
                    }
                }
                None => self.invalidate(),
            }
        }
        r
    }

    /// `true` when the window `[now, freed_end)` released by an early
    /// completion cannot change any waiting reservation, so the pending
    /// repair may be skipped while staying byte-identical to a rebuild.
    ///
    /// Soundness: after removing the completed job, every running job
    /// whose reservation extends to `freed_end` or beyond occupies its
    /// processors throughout the window, so the free capacity anywhere in
    /// it is at most `total - busy_floor`. If even the narrowest waiting
    /// job exceeds that, no placement or back-fill check intersecting the
    /// window can change its answer — every scheduler query returns
    /// exactly what it returned before the release.
    fn completion_admits_none(&self, freed_end: SimTime) -> bool {
        if self.q_procs.is_empty() {
            return true;
        }
        // 8-wide chunked min over the contiguous procs column: the
        // chunk fold has no cross-iteration ordering constraint, so it
        // compiles to wide vector mins instead of a serial reduce.
        let mut chunks = self.q_procs.chunks_exact(8);
        let mut lanes = [u32::MAX; 8];
        for chunk in &mut chunks {
            for (lane, &p) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane).min(p);
            }
        }
        let mut min_procs = lanes.into_iter().min().expect("8 lanes");
        for &p in chunks.remainder() {
            min_procs = min_procs.min(p);
        }
        // Branch-free masked sum over the running set.
        let busy_floor: u32 = self
            .running
            .iter()
            .map(|r| r.scaled.procs * u32::from(r.reserved_end >= freed_end))
            .sum();
        min_procs > self.spec.procs - busy_floor
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn find_queued(&self, id: JobId) -> Option<usize> {
        // Hot on the reallocation path (every `current_ect`/`cancel`
        // resolves a queue position). Scan 8 slots per step with a
        // branch-free any-hit fold — the early-exit branch moves from
        // every element to every chunk, which keeps the slab id loads
        // pipelined — then rescan the one hitting chunk.
        let hit = |slot: u32| self.slab.jobs[slot as usize].id == id;
        let mut chunks = self.q_slot.chunks_exact(8);
        let mut base = 0;
        for chunk in &mut chunks {
            let mut any = false;
            for &slot in chunk {
                any |= hit(slot);
            }
            if any {
                let off = chunk
                    .iter()
                    .position(|&s| hit(s))
                    .expect("chunk has the id");
                return Some(base + off);
            }
            base += 8;
        }
        chunks
            .remainder()
            .iter()
            .position(|&s| hit(s))
            .map(|off| base + off)
    }

    fn find_running(&self, id: JobId) -> Option<usize> {
        self.running.iter().position(|r| r.job.id == id)
    }

    /// Drop the cached schedule entirely (full rebuild on next query).
    fn invalidate(&mut self) {
        self.invalidate_snapshot();
        self.harvest_probes();
        self.profile = None;
        self.dirty_from = None;
    }

    /// Drop the frozen dry-run view, folding its probe counter into the
    /// stats first. Idempotent; called at the top of every real mutation
    /// (which also keeps the profile's copy-on-write store unique, so the
    /// mutation itself never pays for a deep copy).
    fn invalidate_snapshot(&mut self) {
        if let Some(f) = self.snapshot.take() {
            self.stats.first_fit_probes += f.profile.take_probes();
        }
    }

    /// Fold the profile's first-fit probe counter into the stats (the
    /// profile counts placement queries as they happen; the cluster owns
    /// the long-lived accounting). A live snapshot's probes fold in too —
    /// the snapshot itself stays cached.
    fn harvest_probes(&mut self) {
        if let Some(p) = &self.profile {
            self.stats.first_fit_probes += p.take_probes();
            self.stats.profile_promotions += p.take_promotions();
            self.stats.batch_fast_placements += p.take_batch_fast();
            self.stats.sweep_placements += p.take_sweep_placements();
        }
        if let Some(f) = &self.snapshot {
            self.stats.first_fit_probes += f.profile.take_probes();
        }
    }

    /// Where a new tail job of `(procs, walltime)` would start, per policy,
    /// against the *current* cached profile.
    fn place_at_tail(&self, procs: u32, walltime: Duration, now: SimTime) -> SimTime {
        let profile = self.profile.as_ref().expect("ensure_schedule first");
        debug_assert!(self.dirty_from.is_none(), "placement against dirty profile");
        let floor = self.policy.scheduler().tail_floor(&self.q_reserved, now);
        profile.first_fit(floor, walltime, procs)
    }

    /// Bring the cached schedule up to date: repair the dirty queue suffix
    /// against the warm profile when that is the cheaper move, rebuild
    /// from scratch otherwise.
    fn ensure_schedule(&mut self, now: SimTime) {
        if self.unavailable_until.is_some_and(|u| u <= now) {
            // The outage has passed; its reservation (if any) expires
            // from the profile on its own.
            self.unavailable_until = None;
        }
        let warm = self.profile.as_ref().is_some_and(|p| p.origin() <= now);
        if warm {
            // An origin advance or pending suffix repair rewrites the
            // profile: drop the frozen view first so the copy-on-write
            // store stays unique (no deep copy) and stale dry-run answers
            // cannot survive.
            if self.dirty_from.is_some() || self.profile.as_ref().is_some_and(|p| p.origin() < now)
            {
                self.invalidate_snapshot();
            }
            // Drop historical breakpoints so a long-lived warm profile
            // stays proportional to the live reservations (a rebuild gets
            // this for free by starting from a flat profile).
            self.profile
                .as_mut()
                .expect("warm profile present")
                .advance_origin(now);
            match self.dirty_from.take() {
                None => return,
                Some(from) => {
                    // `dirty_from` is already mapped through the
                    // scheduler's `repair_from` (FCFS/CBF: the dirty
                    // index itself; EASY: the end of its protected head;
                    // EASY-SJF: 0).
                    //
                    // Cost model: a repair gives back and re-places
                    // each suffix job, a rebuild carves each running
                    // job and places the whole queue, so the job
                    // counts compare while every op costs about the
                    // same. That holds for CBF/EASY (one release or
                    // first-fit + reserve per job). It does not for
                    // FCFS: its placement is one release sweep and
                    // bulk carve on either side, but a repair still
                    // releases the suffix one job at a time, so at
                    // depth the repair is the slower path
                    // (`scheduling-incremental` layer 1, quick mode:
                    // FCFS/10000 warm 33.7 ms vs rebuild 21.2 ms per
                    // churn). A bulk release of the suffix closes that
                    // gap in the bench but gained nothing end to end
                    // (ROADMAP, "FCFS staircase").
                    let repair_ops = 2 * (self.q_slot.len() - from);
                    let rebuild_ops = self.running.len() + self.q_slot.len() + 1;
                    if repair_ops <= rebuild_ops {
                        let profile = self.profile.as_mut().expect("warm profile present");
                        // The suffix reservations are still carved
                        // from before the mutation; give them back,
                        // then re-place them. `SimTime::MAX` marks a
                        // job submitted onto the dirty queue whose
                        // reservation was never carved.
                        for i in from..self.q_slot.len() {
                            if self.q_reserved[i] != SimTime::MAX {
                                profile.release(
                                    self.q_reserved[i],
                                    self.q_walltime[i],
                                    self.q_procs[i],
                                );
                            }
                        }
                        self.policy.scheduler().schedule(
                            profile,
                            QueueScan {
                                procs: &self.q_procs,
                                walltime: &self.q_walltime,
                                reserved: &mut self.q_reserved,
                            },
                            from,
                            now,
                        );
                        self.stats.suffix_repairs += 1;
                        let probes_before = self.stats.first_fit_probes;
                        self.harvest_probes();
                        let probes = self.stats.first_fit_probes - probes_before;
                        self.obs.observe("sched.probes_per_decision", probes);
                        self.obs.event(
                            now,
                            "sched.repair",
                            Some(self.lane),
                            &[
                                ("from", Field::U64(from as u64)),
                                ("repair_ops", Field::U64(repair_ops as u64)),
                                ("rebuild_ops", Field::U64(rebuild_ops as u64)),
                                ("probes", Field::U64(probes)),
                            ],
                        );
                        return;
                    }
                    // The dirty suffix is too large: fall through to a
                    // rebuild.
                }
            }
        }
        self.dirty_from = None;
        self.stats.recomputes += 1;
        self.invalidate_snapshot();
        self.harvest_probes();
        let mut profile = Profile::flat(self.spec.procs, now);
        if let Some(until) = self.unavailable_until {
            // Site outage: truncate availability — nothing fits before
            // the recovery instant.
            profile.reserve(now, until.since(now), self.spec.procs);
        }
        for r in &self.running {
            debug_assert!(r.reserved_end > now, "zombie running job {}", r.job.id);
            profile.reserve(now, r.reserved_end.since(now), r.scaled.procs);
        }
        self.policy.scheduler().schedule(
            &mut profile,
            QueueScan {
                procs: &self.q_procs,
                walltime: &self.q_walltime,
                reserved: &mut self.q_reserved,
            },
            0,
            now,
        );
        self.profile = Some(profile);
        let probes_before = self.stats.first_fit_probes;
        self.harvest_probes();
        if self.obs.is_enabled() {
            let probes = self.stats.first_fit_probes - probes_before;
            self.obs.observe("sched.probes_per_decision", probes);
            self.obs.event(
                now,
                "sched.rebuild",
                Some(self.lane),
                &[
                    ("queued", Field::U64(self.q_slot.len() as u64)),
                    ("running", Field::U64(self.running.len() as u64)),
                    ("probes", Field::U64(probes)),
                ],
            );
        }
    }

    /// Validate internal invariants (test helper): capacity is never
    /// exceeded and the scheduler's own ordering invariants hold.
    #[doc(hidden)]
    pub fn assert_invariants(&mut self, now: SimTime) {
        self.ensure_schedule(now);
        if let Some(p) = &self.profile {
            p.assert_invariants();
        }
        self.policy.scheduler().check_invariants(&self.q_reserved);
        for &start in &self.q_reserved {
            assert!(start >= now);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn spec(procs: u32, speed: f64) -> ClusterSpec {
        ClusterSpec::new("test", procs, speed)
    }

    fn cluster(procs: u32, policy: BatchPolicy) -> Cluster {
        Cluster::new(spec(procs, 1.0), policy)
    }

    #[test]
    fn empty_cluster_starts_job_immediately() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        let start = c
            .submit(JobSpec::new(1, 0, 4, 50, 100), SimTime(0))
            .unwrap();
        assert_eq!(start, SimTime(0));
        let started = c.start_due(SimTime(0));
        assert_eq!(started, vec![(JobId(1), SimTime(50))]);
        assert_eq!(c.running_count(), 1);
        assert_eq!(c.waiting_count(), 0);
    }

    #[test]
    fn submit_rejects_oversized_job() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        let err = c
            .submit(JobSpec::new(1, 0, 9, 50, 100), SimTime(0))
            .unwrap_err();
        assert_eq!(err, SubmitError::TooLarge { procs: 9, total: 8 });
    }

    #[test]
    fn submit_rejects_zero_proc_job() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        assert!(c
            .submit(JobSpec::new(1, 0, 0, 50, 100), SimTime(0))
            .is_err());
    }

    #[test]
    fn submit_rejects_duplicate() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 1, 50, 100), SimTime(0))
            .unwrap();
        assert_eq!(
            c.submit(JobSpec::new(1, 0, 1, 50, 100), SimTime(0))
                .unwrap_err(),
            SubmitError::Duplicate(JobId(1))
        );
    }

    #[test]
    fn fcfs_queues_behind_blocking_job() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        // Job 1 takes the whole machine for 100 s (walltime).
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        // Job 2 (large) must wait for the release.
        let s2 = c.submit(JobSpec::new(2, 0, 6, 10, 10), SimTime(0)).unwrap();
        assert_eq!(s2, SimTime(100));
        // Job 3 (small, would fit *beside* job 2 but FCFS has no
        // back-filling and also cannot start before job 2).
        let s3 = c.submit(JobSpec::new(3, 0, 1, 5, 5), SimTime(0)).unwrap();
        assert_eq!(s3, SimTime(100));
    }

    #[test]
    fn fcfs_small_job_never_overtakes() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        // Queue a 6-proc job, then a 1-proc job: under FCFS the 1-proc job
        // starts no earlier than the 6-proc one even though 2 procs are
        // free... (there are 0 free here, but the invariant is the order).
        c.submit(JobSpec::new(2, 0, 6, 50, 50), SimTime(0)).unwrap();
        c.submit(JobSpec::new(3, 0, 1, 5, 5), SimTime(0)).unwrap();
        let starts: Vec<SimTime> = c.waiting_jobs().map(|q| q.reserved_start).collect();
        assert!(starts[1] >= starts[0], "FCFS must not reorder starts");
    }

    #[test]
    fn cbf_backfills_small_job() {
        let mut c = cluster(8, BatchPolicy::Cbf);
        // Running: 6 procs for 100 s.
        c.submit(JobSpec::new(1, 0, 6, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        // Queued: needs 8 procs -> starts at 100.
        let s2 = c.submit(JobSpec::new(2, 0, 8, 50, 50), SimTime(0)).unwrap();
        assert_eq!(s2, SimTime(100));
        // Small short job fits in the 2 free procs *now* without delaying
        // job 2: back-filled at t=0.
        let s3 = c
            .submit(JobSpec::new(3, 0, 2, 100, 100), SimTime(0))
            .unwrap();
        assert_eq!(s3, SimTime(0));
    }

    #[test]
    fn cbf_backfill_never_delays_earlier_jobs() {
        let mut c = cluster(8, BatchPolicy::Cbf);
        c.submit(JobSpec::new(1, 0, 6, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let s2 = c.submit(JobSpec::new(2, 0, 8, 50, 50), SimTime(0)).unwrap();
        // A 2-proc job of 150 s would overlap job 2's window if it started
        // now (2 free procs until t=100, but job 2 needs all 8 from 100):
        // it must NOT delay job 2, so it starts after job 2.
        let s3 = c
            .submit(JobSpec::new(3, 0, 2, 150, 150), SimTime(0))
            .unwrap();
        assert_eq!(s2, SimTime(100));
        assert!(
            s3 >= SimTime(150),
            "back-fill may not delay job 2, got {s3}"
        );
        // Job 2's reservation is unchanged.
        let ect2 = c.current_ect(JobId(2), SimTime(0)).unwrap();
        assert_eq!(ect2, SimTime(150));
    }

    #[test]
    fn early_completion_pulls_reservations_forward() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        // Walltime 100 but actually runs 30.
        c.submit(JobSpec::new(1, 0, 8, 30, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let s2 = c.submit(JobSpec::new(2, 0, 8, 10, 10), SimTime(0)).unwrap();
        assert_eq!(s2, SimTime(100));
        // Job 1 completes early at t=30.
        c.complete(JobId(1), SimTime(30));
        let next = c.next_reservation(SimTime(30)).unwrap();
        assert_eq!(next, SimTime(30), "queue must be pulled forward");
        let started = c.start_due(SimTime(30));
        assert_eq!(started, vec![(JobId(2), SimTime(40))]);
    }

    #[test]
    fn killed_job_completes_at_walltime() {
        let mut c = cluster(4, BatchPolicy::Fcfs);
        // Bad job: runtime 500 > walltime 100 -> killed at 100.
        c.submit(JobSpec::new(1, 0, 4, 500, 100), SimTime(0))
            .unwrap();
        let started = c.start_due(SimTime(0));
        assert_eq!(started, vec![(JobId(1), SimTime(100))]);
        c.complete(JobId(1), SimTime(100));
        assert_eq!(c.stats().killed, 1);
        assert_eq!(c.stats().completed, 1);
    }

    #[test]
    fn cancel_removes_waiting_job_and_frees_slot() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        c.submit(JobSpec::new(2, 0, 8, 50, 50), SimTime(0)).unwrap();
        let s3 = c.submit(JobSpec::new(3, 0, 8, 50, 50), SimTime(0)).unwrap();
        assert_eq!(s3, SimTime(150));
        let canceled = c.cancel(JobId(2), SimTime(0)).unwrap();
        assert_eq!(canceled.id, JobId(2));
        // Job 3 moves up to t=100.
        assert_eq!(c.current_ect(JobId(3), SimTime(0)), Some(SimTime(150)));
        assert_eq!(
            c.waiting_jobs().next().unwrap().reserved_start,
            SimTime(100)
        );
        assert_eq!(c.stats().canceled, 1);
    }

    /// Draining a queue answers what a `current_ect` per waiting job and
    /// then a `cancel` per job answered, and leaves a schedule that
    /// places later jobs exactly where the per-job cancels left it, under
    /// every policy, with and without ECT noise.
    #[test]
    fn drain_queue_matches_current_ects_then_a_cancel_per_job() {
        for policy in [
            BatchPolicy::Fcfs,
            BatchPolicy::Cbf,
            BatchPolicy::Easy,
            BatchPolicy::EasySjf,
        ] {
            for noise in [None, Some(EctNoise::new(7, 0.5))] {
                let mut per_job = cluster(8, policy);
                per_job.set_ect_noise(noise);
                per_job
                    .submit(JobSpec::new(1, 0, 6, 300, 300), SimTime(0))
                    .unwrap();
                per_job.start_due(SimTime(0));
                for (id, procs, walltime) in [(2, 4, 100), (3, 2, 500), (4, 8, 50), (5, 1, 80)] {
                    let job = JobSpec::new(id, 0, procs, walltime, walltime);
                    per_job.submit(job, SimTime(0)).unwrap();
                }
                let mut drained = per_job.clone();
                let ids: Vec<JobId> = per_job.waiting_jobs().map(|q| q.job.id).collect();
                let ects: Vec<SimTime> = ids
                    .iter()
                    .map(|&id| per_job.current_ect(id, SimTime(0)).unwrap())
                    .collect();
                let want: Vec<(JobSpec, SimTime)> = ids
                    .iter()
                    .map(|&id| per_job.cancel(id, SimTime(0)).unwrap())
                    .zip(ects)
                    .collect();
                assert_eq!(drained.drain_queue(SimTime(0)), want, "{policy}");
                assert_eq!(drained.waiting_count(), 0);
                assert_eq!(drained.stats().canceled, per_job.stats().canceled);
                assert!(drained.drain_queue(SimTime(0)).is_empty());
                for (id, procs, walltime) in [(6, 8, 40), (7, 3, 900), (8, 2, 60)] {
                    let job = JobSpec::new(id, 0, procs, walltime, walltime);
                    assert_eq!(
                        drained.submit(job, SimTime(0)),
                        per_job.submit(job, SimTime(0)),
                        "{policy}: job {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn cancel_running_or_unknown_job_returns_none() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 4, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        assert!(c.cancel(JobId(1), SimTime(0)).is_none(), "running");
        assert!(c.cancel(JobId(99), SimTime(0)).is_none(), "unknown");
    }

    #[test]
    fn estimate_new_is_a_pure_dry_run() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let probe = JobSpec::new(99, 0, 4, 50, 50);
        let e1 = c.estimate_new(&probe, SimTime(0)).unwrap();
        let e2 = c.estimate_new(&probe, SimTime(0)).unwrap();
        assert_eq!(e1, e2, "estimation must not consume the slot");
        assert_eq!(e1, SimTime(150));
        assert_eq!(c.waiting_count(), 0);
    }

    /// The snapshot dry-run path (`prepare_estimates` +
    /// `estimate_new_at` / `estimate_new_batch`) answers bit-identically
    /// to the mutable `estimate_new`, for every policy, without a single
    /// rebuild or repair.
    #[test]
    fn snapshot_estimates_match_mutable_path() {
        for policy in [
            BatchPolicy::Fcfs,
            BatchPolicy::Cbf,
            BatchPolicy::Easy,
            BatchPolicy::EasySjf,
        ] {
            let mut c = cluster(8, policy);
            c.submit(JobSpec::new(1, 0, 6, 100, 100), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(2, 0, 8, 50, 50), SimTime(0)).unwrap();
            c.submit(JobSpec::new(3, 0, 2, 30, 40), SimTime(0)).unwrap();
            let probes = [
                JobSpec::new(90, 0, 2, 100, 100),
                JobSpec::new(91, 0, 4, 50, 50),
                JobSpec::new(92, 0, 8, 10, 20),
                JobSpec::new(93, 0, 9, 10, 20), // oversized -> None
            ];
            let mutable: Vec<Option<SimTime>> = probes
                .iter()
                .map(|j| c.clone().estimate_new(j, SimTime(0)))
                .collect();
            c.prepare_estimates(SimTime(0));
            let singles: Vec<Option<SimTime>> = probes
                .iter()
                .map(|j| c.estimate_new_at(j, SimTime(0)))
                .collect();
            assert_eq!(singles, mutable, "{policy}: single snapshot estimates");
            let recomputes = c.stats().recomputes;
            let repairs = c.stats().suffix_repairs;
            let batched = c.estimate_new_batch(probes.iter().map(Some), SimTime(0));
            assert_eq!(batched, mutable, "{policy}: batched snapshot estimates");
            assert_eq!(
                c.stats().recomputes,
                recomputes,
                "dry-runs must not rebuild"
            );
            assert_eq!(
                c.stats().suffix_repairs,
                repairs,
                "dry-runs must not repair"
            );
            assert_eq!(c.stats().ect_column_refills, 1);
            assert!(c.has_estimate_snapshot());
            // `None` input entries pass through without touching the
            // frontier or the column alignment.
            let sparse =
                c.estimate_new_batch([None, Some(&probes[1]), None, Some(&probes[2])], SimTime(0));
            assert_eq!(sparse, vec![None, mutable[1], None, mutable[2]]);
        }
    }

    /// Real mutations drop the cached dry-run snapshot; dry-runs (and
    /// repeated `prepare_estimates` at the same instant) keep it — the
    /// reuse counter pins the sharing.
    #[test]
    fn mutations_drop_the_estimate_snapshot_and_dry_runs_do_not() {
        let mut c = cluster(8, BatchPolicy::Cbf);
        c.submit(JobSpec::new(1, 0, 4, 50, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        // 6 procs behind the 4-proc runner: genuinely waits until 100.
        c.submit(JobSpec::new(2, 0, 6, 30, 40), SimTime(0)).unwrap();

        c.prepare_estimates(SimTime(0));
        assert!(c.has_estimate_snapshot());
        let probe = JobSpec::new(99, 0, 2, 10, 20);
        c.estimate_new_at(&probe, SimTime(0));
        c.estimate_new_batch([Some(&probe)], SimTime(0));
        assert!(
            c.has_estimate_snapshot(),
            "dry-runs must not drop the snapshot"
        );
        assert_eq!(
            c.stats().ect_snapshot_reuses,
            1,
            "the batch pass re-used the prepared snapshot"
        );

        c.submit(JobSpec::new(3, 0, 1, 10, 20), SimTime(0)).unwrap();
        assert!(!c.has_estimate_snapshot(), "submit must invalidate");
        c.prepare_estimates(SimTime(0));
        c.cancel(JobId(3), SimTime(0));
        assert!(!c.has_estimate_snapshot(), "cancel must invalidate");
        c.prepare_estimates(SimTime(0));
        c.complete(JobId(1), SimTime(50));
        assert!(!c.has_estimate_snapshot(), "complete must invalidate");
        c.prepare_estimates(SimTime(50));
        c.fail_until(SimTime(200), SimTime(50));
        assert!(!c.has_estimate_snapshot(), "fail_until must invalidate");
    }

    /// Long outage churn (queue evicted wholesale, then refilled) and
    /// cancel-heavy rounds must not grow the slab without bound: once
    /// the free list outnumbers live slots 2:1 the arena compacts, and
    /// the renumbering is invisible — the surviving queue keeps its
    /// order, ids and reservations.
    #[test]
    fn slab_compacts_under_outage_and_cancel_churn() {
        let mut c = Cluster::new(ClusterSpec::new("churn", 8, 1.0), BatchPolicy::Fcfs);
        let mut id = 0u64;
        for round in 0..20u64 {
            let now = SimTime(round * 1_000);
            for _ in 0..32 {
                id += 1;
                c.submit(JobSpec::new(id, now.as_secs(), 2, 50, 60), now)
                    .unwrap();
            }
            // Cancel three quarters of the queue back-to-front.
            let victims: Vec<JobId> = c
                .waiting_jobs()
                .map(|q| q.job.id)
                .enumerate()
                .filter_map(|(i, id)| (i % 4 != 0).then_some(id))
                .collect();
            for v in victims.into_iter().rev() {
                c.cancel(v, now).unwrap();
            }
            let live = c.q_slot.len();
            assert_eq!(c.slab.live(), live, "slab live count tracks the queue");
            assert!(
                c.slab.jobs.len() <= 3 * live.max(1),
                "round {round}: arena {} slots for {live} live jobs",
                c.slab.jobs.len()
            );
            // Survivors kept their order and are still resolvable.
            let ids: Vec<JobId> = c.waiting_jobs().map(|q| q.job.id).collect();
            assert!(
                ids.windows(2).all(|w| w[0].0 < w[1].0),
                "queue order survives"
            );
            for jid in ids {
                assert!(c.current_ect(jid, now).is_some(), "{jid:?} resolvable");
            }
            // Outage evicts the rest; the emptied arena compacts away.
            c.fail_until(SimTime(now.as_secs() + 500), now);
            assert_eq!(c.slab.live(), 0);
            assert!(c.slab.jobs.is_empty(), "empty arena compacts to nothing");
            assert!(c.slab.free.is_empty());
        }
    }

    #[test]
    fn estimate_new_respects_policy() {
        // CBF estimate can use a hole; FCFS estimate cannot.
        let mk = |policy| {
            let mut c = cluster(8, policy);
            c.submit(JobSpec::new(1, 0, 6, 100, 100), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(2, 0, 8, 50, 50), SimTime(0)).unwrap();
            c
        };
        let probe = JobSpec::new(99, 0, 2, 100, 100);
        let mut fcfs = mk(BatchPolicy::Fcfs);
        let mut cbf = mk(BatchPolicy::Cbf);
        // CBF: 2 procs free now for 100 s -> ECT 100.
        assert_eq!(cbf.estimate_new(&probe, SimTime(0)), Some(SimTime(100)));
        // FCFS: must queue behind job 2 (starts at 100): start 150, ECT 250.
        assert_eq!(fcfs.estimate_new(&probe, SimTime(0)), Some(SimTime(250)));
    }

    #[test]
    fn estimate_new_none_for_oversized() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        assert_eq!(
            c.estimate_new(&JobSpec::new(1, 0, 9, 1, 1), SimTime(0)),
            None
        );
    }

    #[test]
    fn heterogeneous_speed_scales_walltime() {
        let mut c = Cluster::new(spec(8, 1.2), BatchPolicy::Fcfs);
        // walltime 3600 -> 3000 on this cluster.
        let probe = JobSpec::new(1, 0, 4, 1200, 3600);
        let ect = c.estimate_new(&probe, SimTime(0)).unwrap();
        assert_eq!(ect, SimTime(3000));
        c.submit(probe, SimTime(0)).unwrap();
        let started = c.start_due(SimTime(0));
        // runtime 1200 -> 1000 on this cluster.
        assert_eq!(started, vec![(JobId(1), SimTime(1000))]);
    }

    #[test]
    fn current_ect_tracks_schedule_changes() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 8, 30, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        c.submit(JobSpec::new(2, 0, 4, 20, 40), SimTime(0)).unwrap();
        assert_eq!(c.current_ect(JobId(2), SimTime(0)), Some(SimTime(140)));
        c.complete(JobId(1), SimTime(30));
        assert_eq!(c.current_ect(JobId(2), SimTime(30)), Some(SimTime(70)));
        assert_eq!(c.current_ect(JobId(99), SimTime(30)), None);
    }

    #[test]
    fn start_due_starts_multiple_jobs_same_instant() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 4, 10, 10), SimTime(0)).unwrap();
        c.submit(JobSpec::new(2, 0, 4, 20, 20), SimTime(0)).unwrap();
        let started = c.start_due(SimTime(0));
        assert_eq!(started.len(), 2);
        assert_eq!(c.running_count(), 2);
    }

    #[test]
    fn zero_runtime_job_completes_instantly() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 1, 0, 10), SimTime(0)).unwrap();
        let started = c.start_due(SimTime(0));
        assert_eq!(started, vec![(JobId(1), SimTime(0))]);
        let r = c.complete(JobId(1), SimTime(0));
        assert_eq!(r.start, r.end);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = cluster(8, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(1, 0, 2, 10, 20), SimTime(0)).unwrap();
        c.submit(JobSpec::new(2, 0, 2, 10, 20), SimTime(0)).unwrap();
        c.start_due(SimTime(0));
        c.complete(JobId(1), SimTime(10));
        c.complete(JobId(2), SimTime(10));
        let s = c.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.started, 2);
        assert_eq!(s.completed, 2);
        assert_eq!(s.busy_core_secs, 2 * 2 * 10);
        assert_eq!(s.max_queue_len, 2);
    }

    #[test]
    fn history_records_completed_jobs() {
        let mut c = cluster(4, BatchPolicy::Cbf);
        c.submit(JobSpec::new(7, 0, 2, 10, 20), SimTime(0)).unwrap();
        c.start_due(SimTime(0));
        c.complete(JobId(7), SimTime(10));
        let h = c.history();
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].job, JobId(7));
        assert_eq!(h[0].start, SimTime(0));
        assert_eq!(h[0].end, SimTime(10));
    }

    /// Drive a single cluster through a full workload with a minimal but
    /// *correct* event loop: at every instant of interest (completion,
    /// reservation, arrival) completions fire first, then due jobs start,
    /// then arrivals are submitted. Returns the per-job completion times.
    pub(crate) fn drive(c: &mut Cluster, mut arrivals: Vec<JobSpec>) -> Vec<(JobId, SimTime)> {
        arrivals.sort_by_key(|j| (j.submit, j.id));
        // Feed arrivals by index — no double-buffering the sorted Vec
        // into a VecDeque.
        let mut next = 0usize;
        let mut completions: Vec<(JobId, SimTime)> = Vec::new();
        let mut done = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let next_completion = completions.iter().map(|p| p.1).min();
            let next_arrival = arrivals.get(next).map(|j| j.submit);
            let next_res = c.next_reservation(now);
            let t = [next_completion, next_arrival, next_res]
                .into_iter()
                .flatten()
                .min();
            let Some(t) = t else { break };
            assert!(t >= now, "time went backwards");
            now = t;
            let due: Vec<(JobId, SimTime)> =
                completions.iter().filter(|p| p.1 == now).copied().collect();
            for (id, end) in due {
                c.complete(id, end);
                completions.retain(|p| p.0 != id);
                done.push((id, end));
            }
            while arrivals.get(next).is_some_and(|j| j.submit == now) {
                c.submit(arrivals[next], now).unwrap();
                next += 1;
            }
            // Start-due fixpoint: starting may (via zero-runtime jobs)
            // complete instantly, which is handled next round since the
            // completion is at `now` too.
            completions.extend(c.start_due(now));
            c.assert_invariants(now);
        }
        done
    }

    #[test]
    fn invariants_hold_under_mixed_workload() {
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            let mut c = cluster(16, policy);
            let mut x: u64 = 12345;
            let mut submit = 0u64;
            let mut jobs = Vec::new();
            for i in 0..300u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let procs = ((x >> 33) % 8 + 1) as u32;
                let rt = (x >> 13) % 300;
                let wt = rt + (x >> 7) % 100 + 1;
                submit += (x >> 3) % 40;
                jobs.push(JobSpec::new(i, submit, procs, rt, wt));
            }
            let done = drive(&mut c, jobs);
            assert_eq!(done.len(), 300, "all jobs must complete ({policy})");
            assert_eq!(c.stats().completed, 300);
            assert!(c.is_idle());
        }
    }

    /// Drive the same deterministic workload (with interleaved cancels)
    /// twice — warm-profile incremental maintenance vs forced full
    /// rebuilds — and require identical observable behaviour.
    fn incremental_vs_full(policy: BatchPolicy, n_jobs: u64, cancel_every: u64) {
        let run = |incremental: bool| {
            let mut c = cluster(16, policy);
            c.set_incremental(incremental);
            let mut x: u64 = 31337;
            let mut submit = 0u64;
            let mut jobs = Vec::new();
            for i in 0..n_jobs {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let procs = ((x >> 33) % 8 + 1) as u32;
                let rt = (x >> 13) % 300;
                // Over-estimated walltimes so early completions happen.
                let wt = rt + (x >> 7) % 200 + 1;
                submit += (x >> 3) % 30;
                jobs.push(JobSpec::new(i, submit, procs, rt, wt));
            }
            jobs.sort_by_key(|j| (j.submit, j.id));
            let arrivals = jobs;
            let mut next = 0usize;
            let mut completions: Vec<(JobId, SimTime)> = Vec::new();
            let mut done = Vec::new();
            let mut submitted = 0u64;
            let mut now = SimTime::ZERO;
            loop {
                let next_completion = completions.iter().map(|p| p.1).min();
                let next_arrival = arrivals.get(next).map(|j| j.submit);
                let next_res = c.next_reservation(now);
                let Some(t) = [next_completion, next_arrival, next_res]
                    .into_iter()
                    .flatten()
                    .min()
                else {
                    break;
                };
                now = t;
                let due: Vec<(JobId, SimTime)> =
                    completions.iter().filter(|p| p.1 == now).copied().collect();
                for (id, end) in due {
                    c.complete(id, end);
                    completions.retain(|p| p.0 != id);
                    done.push((id, end));
                }
                while arrivals.get(next).is_some_and(|j| j.submit == now) {
                    c.submit(arrivals[next], now).unwrap();
                    next += 1;
                    submitted += 1;
                    // Periodically cancel a job near the queue tail
                    // (where the suffix repair applies), reallocation
                    // style; snapshot ECTs first so both modes run the
                    // same query sequence.
                    if cancel_every > 0 && submitted.is_multiple_of(cancel_every) {
                        let ids: Vec<JobId> = c.waiting_jobs().map(|q| q.job.id).collect();
                        let victim = ids.len().checked_sub(2).map(|i| ids[i]);
                        if let Some(id) = victim {
                            let _ = c.current_ect(id, now);
                            let removed = c.cancel(id, now).expect("victim waits");
                            done.push((removed.id, SimTime::MAX)); // mark cancelled
                        }
                    }
                }
                completions.extend(c.start_due(now));
                c.assert_invariants(now);
            }
            done.sort_by_key(|p| (p.0, p.1));
            (done, *c.stats())
        };
        let (done_inc, stats_inc) = run(true);
        let (done_full, stats_full) = run(false);
        assert_eq!(
            done_inc, done_full,
            "incremental maintenance changed observable behaviour ({policy})"
        );
        assert!(
            stats_inc.recomputes < stats_full.recomputes,
            "{policy}: incremental {} vs full {} recomputes",
            stats_inc.recomputes,
            stats_full.recomputes
        );
        assert!(stats_inc.suffix_repairs > 0, "warm path never taken");
        assert_eq!(stats_full.suffix_repairs, 0, "baseline must never repair");
    }

    #[test]
    fn incremental_maintenance_is_behaviour_preserving_fcfs() {
        incremental_vs_full(BatchPolicy::Fcfs, 300, 7);
    }

    #[test]
    fn incremental_maintenance_is_behaviour_preserving_cbf() {
        incremental_vs_full(BatchPolicy::Cbf, 300, 7);
    }

    /// The availability engine opened the warm path to the aggressive
    /// family: protected-head suffix repair for EASY, whole-queue warm
    /// repair for EASY-SJF — both must stay observably identical to the
    /// full-rebuild baseline while performing strictly fewer rebuilds.
    #[test]
    fn incremental_maintenance_is_behaviour_preserving_easy() {
        incremental_vs_full(BatchPolicy::Easy, 300, 7);
    }

    #[test]
    fn incremental_maintenance_is_behaviour_preserving_easy_sjf() {
        incremental_vs_full(BatchPolicy::EasySjf, 300, 7);
    }

    #[test]
    fn incremental_maintenance_is_behaviour_preserving_easy_protected_3() {
        incremental_vs_full(
            BatchPolicy::resolve_expr("EASY(protected=3)").unwrap(),
            300,
            7,
        );
    }

    #[test]
    fn cancel_repairs_only_the_suffix() {
        let mut c = cluster(4, BatchPolicy::Fcfs);
        c.submit(JobSpec::new(100, 0, 4, 1_000, 1_000), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        for i in 0..10u64 {
            c.submit(JobSpec::new(i, 0, 4, 100, 100), SimTime(0))
                .unwrap();
        }
        let recomputes_before = c.stats().recomputes;
        // Cancel the 8th queued job: jobs 0..7 keep their reservations,
        // 8.. shift one slot (100 s) earlier — with no full rebuild. The
        // repair runs lazily at the next schedule query.
        c.cancel(JobId(7), SimTime(0)).unwrap();
        assert_eq!(c.next_reservation(SimTime(0)), Some(SimTime(1_000)));
        let starts: Vec<SimTime> = c.waiting_jobs().map(|q| q.reserved_start).collect();
        let expected: Vec<SimTime> = (0..9).map(|i| SimTime(1_000 + i * 100)).collect();
        assert_eq!(starts, expected);
        assert_eq!(c.stats().recomputes, recomputes_before, "no full rebuild");
        assert_eq!(c.stats().suffix_repairs, 1);
    }

    #[test]
    fn early_completion_with_empty_queue_is_free() {
        let mut c = cluster(8, BatchPolicy::Cbf);
        c.submit(JobSpec::new(1, 0, 8, 30, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let recomputes = c.stats().recomputes;
        c.complete(JobId(1), SimTime(30));
        // Nothing queued: the warm profile absorbs the release with
        // neither a rebuild nor a repair.
        assert_eq!(c.next_reservation(SimTime(30)), None);
        assert_eq!(c.stats().recomputes, recomputes);
        assert_eq!(c.stats().suffix_repairs, 0);
        // And a fresh submission still lands correctly.
        let s = c
            .submit(JobSpec::new(2, 0, 8, 10, 10), SimTime(30))
            .unwrap();
        assert_eq!(s, SimTime(30));
    }

    /// An EASY cancel of an unprotected job takes the warm path: the
    /// protected head's reservation is kept, only the aggressive +
    /// estimation phases re-run — with no full rebuild — and the result
    /// is bit-identical to a forced rebuild.
    #[test]
    fn easy_cancel_repairs_past_the_protected_head() {
        let build = |incremental: bool| {
            let mut c = cluster(8, BatchPolicy::Easy);
            c.set_incremental(incremental);
            // Many narrow running jobs make a rebuild expensive, so the
            // cost model prefers the repair.
            for i in 0..6u64 {
                c.submit(JobSpec::new(100 + i, 0, 1, 1_000, 1_000), SimTime(0))
                    .unwrap();
            }
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
                .unwrap(); // head
            c.submit(JobSpec::new(2, 0, 5, 300, 300), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(3, 0, 4, 450, 450), SimTime(0))
                .unwrap();
            c
        };
        let mut warm = build(true);
        let mut cold = build(false);
        let recomputes_before = warm.stats().recomputes;
        warm.cancel(JobId(2), SimTime(1)).unwrap();
        cold.cancel(JobId(2), SimTime(1)).unwrap();
        assert_eq!(
            warm.next_reservation(SimTime(1)),
            cold.next_reservation(SimTime(1))
        );
        let starts = |c: &Cluster| -> Vec<(JobId, SimTime)> {
            c.waiting_jobs()
                .map(|q| (q.job.id, q.reserved_start))
                .collect()
        };
        assert_eq!(starts(&warm), starts(&cold), "repair must equal rebuild");
        assert_eq!(
            warm.stats().recomputes,
            recomputes_before,
            "no full rebuild on the warm path"
        );
        assert!(warm.stats().suffix_repairs > 0, "EASY must repair");
        assert_eq!(cold.stats().suffix_repairs, 0, "baseline never repairs");
    }

    /// EASY early completion with an empty queue rides the warm profile
    /// for free — the release is absorbed with neither rebuild nor
    /// repair (previously every early completion invalidated).
    #[test]
    fn easy_early_completion_with_empty_queue_is_free() {
        let mut c = cluster(8, BatchPolicy::Easy);
        c.submit(JobSpec::new(1, 0, 8, 30, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let recomputes = c.stats().recomputes;
        c.complete(JobId(1), SimTime(30));
        assert_eq!(c.next_reservation(SimTime(30)), None);
        assert_eq!(c.stats().recomputes, recomputes);
        assert_eq!(c.stats().suffix_repairs, 0);
        let s = c
            .submit(JobSpec::new(2, 0, 8, 10, 10), SimTime(30))
            .unwrap();
        assert_eq!(s, SimTime(30));
    }

    /// Scheduler-effort accounting: placement queries (scheduling and
    /// estimation dry-runs alike) land in `first_fit_probes`.
    #[test]
    fn first_fit_probes_count_scheduler_effort() {
        let mut c = cluster(8, BatchPolicy::Cbf);
        assert_eq!(c.stats().first_fit_probes, 0);
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        let after_submit = c.stats().first_fit_probes;
        assert!(after_submit > 0, "a submission probes the profile");
        let probe = JobSpec::new(99, 0, 4, 50, 50);
        c.estimate_new(&probe, SimTime(0)).unwrap();
        assert!(
            c.stats().first_fit_probes > after_submit,
            "estimation dry-runs are probes too"
        );
    }

    /// `ClusterStats` serialises canonically; the incremental-engine
    /// counters appear only when non-zero (the `outage_evictions`
    /// pattern), and absent counters decode back to zero.
    #[test]
    fn cluster_stats_json_roundtrip_omits_zero_counters() {
        let mut s = ClusterStats {
            submitted: 5,
            started: 4,
            completed: 4,
            killed: 1,
            canceled: 1,
            evicted: 0,
            max_queue_len: 3,
            busy_core_secs: 1234,
            recomputes: 7,
            suffix_repairs: 0,
            first_fit_probes: 0,
            profile_promotions: 0,
            batch_fast_placements: 0,
            ect_snapshot_reuses: 0,
            ect_column_refills: 0,
            sweep_placements: 0,
        };
        let clean = s.to_json().encode();
        assert!(!clean.contains("suffix_repairs"), "{clean}");
        assert!(!clean.contains("first_fit_probes"), "{clean}");
        assert!(!clean.contains("evicted"), "{clean}");
        assert!(!clean.contains("profile_promotions"), "{clean}");
        assert!(!clean.contains("batch_fast_placements"), "{clean}");
        assert!(!clean.contains("ect_snapshot_reuses"), "{clean}");
        assert!(!clean.contains("ect_column_refills"), "{clean}");
        assert!(!clean.contains("sweep_placements"), "{clean}");
        assert_eq!(ClusterStats::from_json(&s.to_json()).unwrap(), s);
        s.evicted = 2;
        s.suffix_repairs = 9;
        s.first_fit_probes = 41;
        s.profile_promotions = 3;
        s.batch_fast_placements = 17;
        s.ect_snapshot_reuses = 7;
        s.ect_column_refills = 5;
        s.sweep_placements = 11;
        let full = s.to_json().encode();
        assert!(full.contains("\"suffix_repairs\":9"), "{full}");
        assert!(full.contains("\"first_fit_probes\":41"), "{full}");
        assert!(full.contains("\"evicted\":2"), "{full}");
        assert!(full.contains("\"profile_promotions\":3"), "{full}");
        assert!(full.contains("\"batch_fast_placements\":17"), "{full}");
        assert!(full.contains("\"ect_snapshot_reuses\":7"), "{full}");
        assert!(full.contains("\"ect_column_refills\":5"), "{full}");
        assert!(full.contains("\"sweep_placements\":11"), "{full}");
        assert_eq!(ClusterStats::from_json(&s.to_json()).unwrap(), s);
        // Byte-stable encoding.
        assert_eq!(s.to_json().encode(), s.to_json().encode());
    }

    /// An outage landing strictly between availability breakpoints
    /// truncates the profile to the exact instants (no rounding to a
    /// neighbouring breakpoint), keeps the eviction accounting unchanged
    /// — and, on the availability engine, without a rebuild at the next
    /// query.
    #[test]
    fn fail_until_between_breakpoints_truncates_exactly() {
        for incremental in [true, false] {
            let mut c = cluster(8, BatchPolicy::Cbf);
            c.set_incremental(incremental);
            // Breakpoints at 0/500 (running) and 500/600 (queued).
            c.submit(JobSpec::new(1, 0, 8, 500, 500), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(2, 0, 4, 100, 100), SimTime(0))
                .unwrap();
            // now = 137 and until = 733 both fall strictly between
            // breakpoints.
            let (running, waiting) = c.fail_until(SimTime(733), SimTime(137));
            assert_eq!(running.len(), 1);
            assert_eq!(waiting.len(), 1);
            assert_eq!(c.stats().evicted, 2, "eviction accounting unchanged");
            let recomputes = c.stats().recomputes;
            let start = c
                .submit(JobSpec::new(3, 0, 2, 10, 10), SimTime(137))
                .unwrap();
            assert_eq!(start, SimTime(733), "reserved at the exact recovery");
            assert_eq!(
                c.estimate_new(&JobSpec::new(9, 0, 8, 20, 20), SimTime(140)),
                Some(SimTime(763))
            );
            if incremental {
                assert_eq!(
                    c.stats().recomputes,
                    recomputes,
                    "outage truncation keeps the profile warm"
                );
            }
            let started = c.start_due(SimTime(733));
            assert_eq!(started, vec![(JobId(3), SimTime(743))]);
        }
    }

    /// The canonical CBF-vs-EASY divergence: a back-fill candidate that
    /// would delay the *second* queued job (protected under CBF, fair game
    /// under EASY) but not the head.
    ///
    /// 8-proc cluster. Running: R1 (2 procs, until 1000), R2 (2 procs,
    /// until 200). Queue: H (8 procs, reserved at 1000), A (5 procs, wt
    /// 300 — tentatively [200, 500)), B (4 procs, wt 450).
    fn easy_divergence_cluster(policy: BatchPolicy) -> Cluster {
        let mut c = cluster(8, policy);
        c.submit(JobSpec::new(100, 0, 2, 1000, 1000), SimTime(0))
            .unwrap();
        c.submit(JobSpec::new(101, 0, 2, 200, 200), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
            .unwrap(); // H
        c.submit(JobSpec::new(2, 0, 5, 300, 300), SimTime(0))
            .unwrap(); // A
        c.submit(JobSpec::new(3, 0, 4, 450, 450), SimTime(0))
            .unwrap(); // B
        c
    }

    #[test]
    fn easy_backfills_past_unprotected_reservations() {
        let mut cbf = easy_divergence_cluster(BatchPolicy::Cbf);
        let mut easy = easy_divergence_cluster(BatchPolicy::Easy);
        let res = |c: &mut Cluster, id: u64| {
            c.waiting_jobs()
                .find(|q| q.job.id == JobId(id))
                .map(|q| q.reserved_start)
        };
        // CBF: B must respect A's [200, 500) reservation -> starts at 500.
        assert_eq!(res(&mut cbf, 2), Some(SimTime(200)), "A under CBF");
        assert_eq!(res(&mut cbf, 3), Some(SimTime(500)), "B under CBF");
        // EASY: B starts immediately (only the head is protected), pushing
        // A back to 450.
        let started = easy.start_due(SimTime(0));
        assert!(
            started.iter().any(|(id, _)| *id == JobId(3)),
            "B must start right away under EASY, got {started:?}"
        );
        assert_eq!(
            res(&mut easy, 2),
            Some(SimTime(450)),
            "A delayed under EASY"
        );
        // The head's reservation is identical under both policies.
        assert_eq!(res(&mut cbf, 1), Some(SimTime(1000)));
        assert_eq!(res(&mut easy, 1), Some(SimTime(1000)));
    }

    #[test]
    fn easy_head_is_never_delayed_by_backfills() {
        let mut c = easy_divergence_cluster(BatchPolicy::Easy);
        c.start_due(SimTime(0));
        // Submit a stream of small jobs; the head's reservation must not
        // move later.
        for i in 0..10 {
            c.submit(JobSpec::new(50 + i, 1, 2, 400, 400), SimTime(1))
                .unwrap();
            let head = c
                .waiting_jobs()
                .find(|q| q.job.id == JobId(1))
                .expect("head still queued")
                .reserved_start;
            assert!(head <= SimTime(1000), "head delayed to {head}");
        }
        c.assert_invariants(SimTime(1));
    }

    #[test]
    fn easy_workload_conserves_jobs() {
        let mut c = cluster(16, BatchPolicy::Easy);
        let mut x: u64 = 777;
        let mut submit = 0u64;
        let mut jobs = Vec::new();
        for i in 0..200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let procs = ((x >> 33) % 8 + 1) as u32;
            let rt = (x >> 13) % 300;
            let wt = rt + (x >> 7) % 100 + 1;
            submit += (x >> 3) % 40;
            jobs.push(JobSpec::new(i, submit, procs, rt, wt));
        }
        let done = drive(&mut c, jobs);
        assert_eq!(done.len(), 200);
        assert!(c.is_idle());
    }

    #[test]
    fn fail_until_evicts_everything_and_blocks_the_site() {
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Easy] {
            let mut c = cluster(8, policy);
            c.submit(JobSpec::new(1, 0, 8, 500, 500), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(2, 0, 4, 100, 100), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(3, 0, 4, 100, 100), SimTime(0))
                .unwrap();
            let (running, waiting) = c.fail_until(SimTime(1_000), SimTime(50));
            assert_eq!(running.iter().map(|j| j.id).collect::<Vec<_>>(), [JobId(1)]);
            assert_eq!(
                waiting.iter().map(|j| j.id).collect::<Vec<_>>(),
                [JobId(2), JobId(3)],
                "{policy}"
            );
            assert!(c.is_idle());
            assert_eq!(c.stats().evicted, 3);
            assert_eq!(c.unavailable_until(), Some(SimTime(1_000)));
            // A submission during the outage waits for the recovery.
            let start = c
                .submit(JobSpec::new(4, 0, 2, 10, 10), SimTime(50))
                .unwrap();
            assert_eq!(start, SimTime(1_000), "{policy}");
            assert_eq!(c.next_reservation(SimTime(50)), Some(SimTime(1_000)));
            // Estimates see the truncated profile too.
            let probe = JobSpec::new(9, 0, 8, 20, 20);
            assert_eq!(c.estimate_new(&probe, SimTime(60)), Some(SimTime(1_030)));
            // After recovery the site behaves normally again.
            let started = c.start_due(SimTime(1_000));
            assert_eq!(started, vec![(JobId(4), SimTime(1_010))]);
            assert_eq!(c.unavailable_until(), None, "outage cleared lazily");
        }
    }

    #[test]
    fn overlapping_outages_extend_to_the_latest_recovery() {
        let mut c = cluster(4, BatchPolicy::Fcfs);
        c.fail_until(SimTime(500), SimTime(0));
        c.fail_until(SimTime(300), SimTime(100));
        assert_eq!(c.unavailable_until(), Some(SimTime(500)));
        let start = c
            .submit(JobSpec::new(1, 0, 1, 10, 10), SimTime(100))
            .unwrap();
        assert_eq!(start, SimTime(500));
    }

    #[test]
    fn ect_noise_perturbs_estimates_but_never_the_schedule() {
        let noise = EctNoise::new(0xFA_17, 0.5);
        let mut clean = cluster(8, BatchPolicy::Fcfs);
        let mut noisy = cluster(8, BatchPolicy::Fcfs);
        noisy.set_ect_noise(Some(noise.clone()));
        assert!(noisy.ect_noise().is_some() && clean.ect_noise().is_none());
        for c in [&mut clean, &mut noisy] {
            c.submit(JobSpec::new(1, 0, 8, 1_000, 1_000), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(2, 0, 4, 100, 200), SimTime(0))
                .unwrap();
        }
        // True reservations are identical…
        assert_eq!(
            clean.waiting_jobs().next().unwrap().reserved_start,
            noisy.waiting_jobs().next().unwrap().reserved_start,
        );
        assert_eq!(
            clean.next_reservation(SimTime(0)),
            noisy.next_reservation(SimTime(0))
        );
        // …while both estimation queries differ by the job's factor.
        let probe = JobSpec::new(7, 0, 2, 50, 100);
        let e_clean = clean.estimate_new(&probe, SimTime(0)).unwrap();
        let e_noisy = noisy.estimate_new(&probe, SimTime(0)).unwrap();
        assert_eq!(e_noisy, noise.perturb(JobId(7), SimTime(0), e_clean));
        assert_ne!(e_noisy, e_clean, "σ=0.5 must move this estimate");
        let c_clean = clean.current_ect(JobId(2), SimTime(0)).unwrap();
        let c_noisy = noisy.current_ect(JobId(2), SimTime(0)).unwrap();
        assert_eq!(c_noisy, noise.perturb(JobId(2), SimTime(0), c_clean));
        // Repeated queries are stable (pure per-(job, cluster) factor).
        assert_eq!(noisy.estimate_new(&probe, SimTime(0)), Some(e_noisy));
    }

    #[test]
    fn cluster_stats_json_roundtrips_all_zero() {
        let zero = ClusterStats::default();
        let v = zero.to_json();
        // Optional incremental-engine counters stay off the wire at zero.
        assert!(v.get("evicted").is_none());
        assert!(v.get("suffix_repairs").is_none());
        assert!(v.get("first_fit_probes").is_none());
        assert!(v.get("profile_promotions").is_none());
        assert!(v.get("batch_fast_placements").is_none());
        assert_eq!(ClusterStats::from_json(&v).unwrap(), zero);
    }

    #[test]
    fn cluster_stats_json_roundtrips_mixed_counters() {
        let stats = ClusterStats {
            submitted: 12,
            started: 11,
            completed: 10,
            killed: 1,
            canceled: 2,
            evicted: 3,
            max_queue_len: 7,
            busy_core_secs: 86_400,
            recomputes: 5,
            suffix_repairs: 9,
            first_fit_probes: 131,
            profile_promotions: 2,
            batch_fast_placements: 23,
            ect_snapshot_reuses: 6,
            ect_column_refills: 4,
            sweep_placements: 8,
        };
        let v = stats.to_json();
        let back = ClusterStats::from_json(&v).unwrap();
        assert_eq!(back, stats);
        // Canonical encoding is stable across a second round trip.
        assert_eq!(back.to_json().encode(), v.encode());
    }

    #[test]
    fn cluster_stats_from_json_ignores_unknown_keys_and_defaults_optionals() {
        let mut v = ClusterStats {
            submitted: 4,
            started: 4,
            completed: 4,
            ..ClusterStats::default()
        }
        .to_json();
        // A future engine may add counters; today's decoder must not choke.
        v.insert("frobnications", 99u64);
        let back = ClusterStats::from_json(&v).unwrap();
        assert_eq!(back.submitted, 4);
        assert_eq!(back.evicted, 0, "absent optional reads back as zero");
        assert_eq!(back.suffix_repairs, 0);
        assert_eq!(back.first_fit_probes, 0);
        assert_eq!(back.profile_promotions, 0);
        assert_eq!(back.batch_fast_placements, 0);
        assert_eq!(back.ect_snapshot_reuses, 0);
        assert_eq!(back.ect_column_refills, 0);
        assert_eq!(back.sweep_placements, 0);
        // A required counter missing is still an error.
        let mut broken = grid_ser::Value::object();
        broken.insert("submitted", 1u64);
        assert!(ClusterStats::from_json(&broken).is_err());
    }

    #[test]
    fn cbf_completes_no_later_than_fcfs_on_makespan() {
        // CBF dominates FCFS for overall throughput on this workload shape
        // (many small jobs behind a large one).
        let jobs = |()| {
            vec![
                JobSpec::new(1, 0, 16, 1000, 1000),
                JobSpec::new(2, 1, 12, 500, 600),
                JobSpec::new(3, 2, 2, 50, 80),
                JobSpec::new(4, 3, 2, 50, 80),
                JobSpec::new(5, 4, 4, 100, 150),
            ]
        };
        let mut fcfs = cluster(16, BatchPolicy::Fcfs);
        let mut cbf = cluster(16, BatchPolicy::Cbf);
        let d_fcfs = drive(&mut fcfs, jobs(()));
        let d_cbf = drive(&mut cbf, jobs(()));
        let mk = |d: &[(JobId, SimTime)]| d.iter().map(|p| p.1).max().unwrap();
        assert!(mk(&d_cbf) <= mk(&d_fcfs));
    }
}
