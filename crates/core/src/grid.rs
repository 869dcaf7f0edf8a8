//! The grid simulation driver.
//!
//! Mirrors the three-component architecture of the paper's simulator
//! (§3.1): the *client* replays a trace of submissions, the
//! *meta-scheduler* maps each incoming job to a cluster (MCT by default)
//! and periodically triggers reallocation, and each *server* (a
//! `grid-batch` [`Cluster`]) runs its local batch policy.
//!
//! The event loop is deterministic: events sharing a timestamp are
//! processed completions-first, then arrivals, then site outages, then
//! the reallocation tick, then one pass over the clusters in index order
//! that starts every job whose reservation is due. Under multiple
//! submission (a strategy with [`copies`](crate::ReallocStrategy::copies)
//! above 1) a start cancels the job's waiting copies elsewhere, which can
//! pull other reservations up to the same instant, so the pass repeats
//! only after a pass that cancelled a sibling. The whole run is a pure
//! function of `(GridConfig, jobs)` — fault injection included, since
//! every fault model is seed-addressed (see [`grid_fault`]).

use std::collections::HashMap;

use grid_batch::{BatchPolicy, Cluster, ClusterStats, JobId, JobSpec, Platform};
use grid_des::{EventQueue, SimTime};
use grid_fault::{Fault, OutageWindow, OutageWindows};
use grid_metrics::{JobRecord, RunOutcome};
use grid_obs::{Field, Obs};

use crate::mapping::{Mapper, Mapping};
use crate::realloc::{self, ReallocConfig};

/// Everything that defines a run besides the workload.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// The clusters.
    pub platform: Platform,
    /// Local batch policy: either one policy for every cluster (the
    /// paper's "for a single experiment, each cluster uses the same
    /// batch algorithm", §4) or a per-site mix handle
    /// ([`BatchPolicy::mix`] / `FCFS+CBF+CBF` in specs) assigning one
    /// registered [`grid_batch::LocalScheduler`] per cluster, in
    /// platform site order. A mix must assign exactly
    /// `platform.clusters.len()` sites ([`SimError::PolicySiteMismatch`]
    /// otherwise).
    pub batch_policy: BatchPolicy,
    /// Initial mapping policy of the agent (paper: MCT).
    pub mapping: Mapping,
    /// Reallocation mechanism; `None` reproduces the reference runs.
    pub realloc: Option<ReallocConfig>,
    /// Seed for the stochastic pieces (Random mapping, fault streams).
    pub seed: u64,
    /// Scale walltimes to cluster speeds (§1; a campaign's
    /// `walltime_adjustment = [false]` turns it off).
    pub walltime_adjustment: bool,
    /// Fault injection: cluster outages and ECT estimation noise
    /// ([`Fault::NONE`] reproduces the paper's healthy grid). Trace
    /// perturbation is applied to the workload *before* it reaches the
    /// driver (see `grid_fault::PerturbSpec` and the experiment
    /// harness).
    pub fault: Fault,
}

impl GridConfig {
    /// MCT mapping, no reallocation.
    pub fn new(platform: Platform, batch_policy: BatchPolicy) -> Self {
        GridConfig {
            platform,
            batch_policy,
            mapping: Mapping::Mct,
            realloc: None,
            seed: 0,
            walltime_adjustment: true,
            fault: Fault::NONE,
        }
    }

    /// Builder: enable reallocation.
    pub fn with_realloc(mut self, realloc: ReallocConfig) -> Self {
        self.realloc = Some(realloc);
        self
    }

    /// Builder: change the initial mapping policy.
    pub fn with_mapping(mut self, mapping: Mapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Builder: change the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: switch walltime speed-adjustment on or off.
    pub fn with_walltime_adjustment(mut self, adjust: bool) -> Self {
        self.walltime_adjustment = adjust;
        self
    }

    /// Builder: inject faults (outages, ECT noise).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.fault = fault;
        self
    }
}

/// A failed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job requires more processors than any cluster owns; the scenario
    /// is malformed.
    UnschedulableJob {
        /// The job.
        id: JobId,
        /// Its processor requirement.
        procs: u32,
    },
    /// Two jobs share an id.
    DuplicateJobId(JobId),
    /// A per-site policy mix assigns a different number of sites than
    /// the platform has clusters.
    PolicySiteMismatch {
        /// Sites the mix assigns.
        sites: usize,
        /// Clusters the platform has.
        clusters: usize,
    },
    /// Multiple submission places its copies by ECT, so it runs under
    /// the MCT mapping only.
    MultiSubMapping(Mapping),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnschedulableJob { id, procs } => {
                write!(
                    f,
                    "job {id} needs {procs} processors but no cluster is that large"
                )
            }
            SimError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            SimError::PolicySiteMismatch { sites, clusters } => write!(
                f,
                "policy mix assigns {sites} sites but the platform has {clusters} clusters"
            ),
            SimError::MultiSubMapping(mapping) => write!(
                f,
                "multiple submission places copies by ECT and needs the MCT mapping, not {mapping}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A running job reaches its actual end on a cluster.
    Completion { cluster: usize, job: JobId },
    /// A trace job reaches its submission time (index into the job vec).
    Arrival { idx: usize },
    /// A cluster may have a reservation due.
    Wake { cluster: usize },
    /// Periodic reallocation event.
    ReallocTick,
    /// A site fails (fault injection): running jobs are killed, the
    /// whole queue re-enters the mapper, and the site stays blocked
    /// until the window's recovery instant.
    Outage { site: usize },
}

/// Grid-level (non-cluster) engine counters accumulated over a run.
///
/// Like [`ClusterStats`] these are telemetry, never results: they ride
/// next to the outcome ([`GridSim::run`]), feed obs counters and the
/// campaign sidecars, and stay out of every cached record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Events the bucketed queue routed through its overflow spill path
    /// (beyond the calendar horizon).
    pub queue_bucket_spills: u64,
}

/// In-flight bookkeeping for one job.
#[derive(Debug, Clone, Copy)]
struct Tracking {
    submit: SimTime,
    start: Option<SimTime>,
    cluster: usize,
    reallocations: u32,
}

/// The simulator. Construct with [`GridSim::new`], consume with
/// [`GridSim::run`].
pub struct GridSim {
    config: GridConfig,
    jobs: Vec<JobSpec>,
    clusters: Vec<Cluster>,
    events: EventQueue<Event>,
    mapper: Mapper,
    tracking: HashMap<JobId, Tracking>,
    outcome: RunOutcome,
    completed: usize,
    /// Earliest pending wake per cluster, to avoid flooding the queue.
    wake_armed: Vec<Option<SimTime>>,
    /// Per-site outage-window streams (fault injection; empty without an
    /// outage fault).
    outage_streams: Vec<OutageWindows>,
    /// The scheduled-but-not-yet-fired window per site.
    outage_next: Vec<Option<OutageWindow>>,
    /// Completion events orphaned by an outage kill, keyed by the exact
    /// `(cluster, job, end)` the dead event was scheduled with. Keying
    /// by instant matters: a checkpointed job that progresses on a fast
    /// foreign site and later returns can complete *earlier* than its
    /// orphaned event, so "stale fires first" would misattribute events.
    stale_completions: HashMap<(usize, JobId, SimTime), u32>,
    /// A malformed configuration detected at construction (a policy mix
    /// of the wrong arity, multiple submission off MCT); surfaced as the
    /// `run()` error.
    config_error: Option<SimError>,
    /// Copies submitted per job ([`crate::ReallocStrategy::copies`]; 1
    /// without multiple submission).
    copies: usize,
    /// Under multiple submission: the clusters holding a waiting copy of
    /// each job that has not started, in placement order.
    siblings: HashMap<JobId, Vec<usize>>,
    /// Instrumentation handle shared with every cluster (disabled by
    /// default; see [`GridSim::set_obs`]).
    obs: Obs,
}

impl GridSim {
    /// Set up a simulation of `jobs` over `config`.
    pub fn new(config: GridConfig, jobs: Vec<JobSpec>) -> Self {
        // A per-site policy mix must assign exactly one policy per
        // cluster; the mismatch is reported from `run()` so campaign
        // executors see an error, not a panic.
        let config_error = match config.batch_policy.site_count() {
            Some(sites) if sites != config.platform.clusters.len() => {
                Some(SimError::PolicySiteMismatch {
                    sites,
                    clusters: config.platform.clusters.len(),
                })
            }
            _ => None,
        };
        let copies = config
            .realloc
            .map_or(1, |r| r.algorithm.strategy().copies());
        let config_error = config_error.or_else(|| {
            (copies > 1 && config.mapping != Mapping::Mct)
                .then_some(SimError::MultiSubMapping(config.mapping))
        });
        let clusters: Vec<Cluster> = if config_error.is_some() {
            Vec::new()
        } else {
            config
                .platform
                .clusters
                .iter()
                .enumerate()
                .map(|(site, spec)| {
                    let mut c = Cluster::new(spec.clone(), config.batch_policy.for_site(site));
                    c.set_walltime_adjustment(config.walltime_adjustment);
                    // ECT-noise fault: perturb the estimates this site
                    // reports to the mapper and the realloc heuristics.
                    if let Some(noise) = &config.fault.config().ect_noise {
                        c.set_ect_noise(Some(noise.model(config.seed, site)));
                    }
                    c
                })
                .collect()
        };
        let mapper = Mapper::new(config.mapping, config.seed);
        let n = clusters.len();
        GridSim {
            config,
            jobs,
            clusters,
            events: EventQueue::new(),
            mapper,
            tracking: HashMap::new(),
            outcome: RunOutcome::default(),
            completed: 0,
            wake_armed: vec![None; n],
            outage_streams: Vec::new(),
            outage_next: Vec::new(),
            stale_completions: HashMap::new(),
            config_error,
            copies,
            siblings: HashMap::new(),
            obs: Obs::default(),
        }
    }

    /// Attach an instrumentation handle: the driver and every cluster
    /// (one trace lane per site, in platform order) record into the
    /// same recorder. Purely observational — outcomes are byte-identical
    /// with or without it (`instrumentation_does_not_change_outcomes`
    /// pins this).
    pub fn set_obs(&mut self, obs: Obs) {
        for (site, cluster) in self.clusters.iter_mut().enumerate() {
            cluster.set_obs(obs.clone(), site as u32);
        }
        self.obs = obs;
    }

    /// Run to completion. Returns the outcome, each cluster's
    /// accumulated [`ClusterStats`] (in platform site order) and the
    /// grid-level [`GridStats`]. The counters are telemetry: they never
    /// feed the outcome, so cached run records are unaffected by them.
    /// [`simulate`] keeps only the outcome.
    pub fn run(mut self) -> Result<(RunOutcome, Vec<ClusterStats>, GridStats), SimError> {
        if let Some(e) = self.config_error.take() {
            return Err(e);
        }
        // Sanity: unique ids (comparisons key on them).
        {
            let mut seen = std::collections::HashSet::with_capacity(self.jobs.len());
            for j in &self.jobs {
                if !seen.insert(j.id) {
                    return Err(SimError::DuplicateJobId(j.id));
                }
            }
        }
        for (idx, job) in self.jobs.iter().enumerate() {
            self.events.schedule(job.submit, Event::Arrival { idx });
        }
        // Multiple submission replaces the reallocation event.
        if let (Some(cfg), Some(first), 1) = (
            self.config.realloc,
            self.jobs.iter().map(|j| j.submit).min(),
            self.copies,
        ) {
            self.events.schedule(first + cfg.period, Event::ReallocTick);
        }
        // Outage fault: arm the first failure window of every site.
        if let Some(outage) = &self.config.fault.config().outage {
            if !self.jobs.is_empty() {
                for site in 0..self.clusters.len() {
                    let mut stream = outage.windows(self.config.seed, site);
                    let window = stream.next().expect("outage streams are infinite");
                    self.events.schedule(window.down, Event::Outage { site });
                    self.outage_streams.push(stream);
                    self.outage_next.push(Some(window));
                }
            }
        }
        let total = self.jobs.len();
        let _run_span = self.obs.span("sim.run");
        while let Some((now, batch)) = self.events.pop_batch() {
            self.obs.count("sim.batches", 1);
            let mut tick_due = false;
            // Completions strictly first: they free processors the same
            // instant's arrivals and reallocations may use.
            {
                let _span = self.obs.span("phase.completions");
                for s in &batch {
                    if let Event::Completion { cluster, job } = s.event {
                        if self.consume_stale_completion(cluster, job, now) {
                            continue;
                        }
                        self.handle_completion(cluster, job, now);
                    }
                }
            }
            let mut outages = Vec::new();
            {
                let _span = self.obs.span("phase.arrivals");
                for s in &batch {
                    match s.event {
                        Event::Arrival { idx } => self.handle_arrival(idx, now)?,
                        Event::Wake { cluster } => self.wake_armed[cluster] = None,
                        Event::ReallocTick => tick_due = true,
                        Event::Outage { site } => outages.push(site),
                        Event::Completion { .. } => {}
                    }
                }
            }
            // Outages next: the same instant's reallocation tick must see
            // the post-failure grid.
            {
                let _span = self.obs.span("phase.outages");
                for site in outages {
                    self.handle_outage(site, now);
                }
            }
            if tick_due {
                let _span = self.obs.span("phase.realloc");
                self.handle_realloc_tick(now);
            }
            // Start every job whose reservation is due now. Starting never
            // frees resources, so one pass over the clusters suffices
            // unless it cancelled a sibling copy; zero-runtime jobs
            // complete via a same-instant Completion event handled by the
            // next batch.
            let _span = self.obs.span("phase.start_due");
            let mut cancelled = true;
            while cancelled {
                cancelled = false;
                for c in 0..self.clusters.len() {
                    if self.clusters[c].next_reservation(now) == Some(now) {
                        for (job, end) in self.clusters[c].start_due(now) {
                            let t = self
                                .tracking
                                .get_mut(&job)
                                .expect("started job must be tracked");
                            debug_assert!(t.start.is_none(), "{job} started twice");
                            t.start = Some(now);
                            t.cluster = c;
                            self.events
                                .schedule(end, Event::Completion { cluster: c, job });
                            if self.copies > 1 {
                                cancelled |= self.cancel_siblings(job, c, now);
                            }
                        }
                    }
                }
            }
            // Re-arm wakes.
            for c in 0..self.clusters.len() {
                if let Some(next) = self.clusters[c].next_reservation(now) {
                    if next > now && self.wake_armed[c].is_none_or(|w| w > next || w <= now) {
                        self.events.schedule(next, Event::Wake { cluster: c });
                        self.wake_armed[c] = Some(next);
                    }
                }
            }
        }
        debug_assert_eq!(self.completed, total, "all jobs must complete");
        debug_assert!(self.siblings.is_empty(), "every copy started or cancelled");
        debug_assert!(self.clusters.iter().all(Cluster::is_idle));
        let stats = self.clusters.iter().map(|c| *c.stats()).collect();
        let grid = GridStats {
            queue_bucket_spills: self.events.bucket_spills(),
        };
        if grid.queue_bucket_spills > 0 {
            self.obs
                .count("queue.bucket_spills", grid.queue_bucket_spills);
        }
        Ok((self.outcome, stats, grid))
    }

    fn handle_arrival(&mut self, idx: usize, now: SimTime) -> Result<(), SimError> {
        let job = self.jobs[idx];
        debug_assert_eq!(job.submit, now);
        let Some(c) = self.place(job, now) else {
            return Err(SimError::UnschedulableJob {
                id: job.id,
                procs: job.procs,
            });
        };
        self.obs.event(
            now,
            "job.submit",
            None,
            &[
                ("id", Field::U64(job.id.0)),
                ("cluster", Field::U64(c as u64)),
                ("procs", Field::U64(u64::from(job.procs))),
            ],
        );
        self.tracking.insert(
            job.id,
            Tracking {
                submit: now,
                start: None,
                cluster: c,
                reallocations: 0,
            },
        );
        Ok(())
    }

    /// Submit `job`: to the mapper's cluster, or under multiple
    /// submission one copy (same id) to each of the `copies` best fitting
    /// clusters by `(ECT, cluster index)`. Returns the first cluster, or
    /// `None` when no cluster fits the job.
    fn place(&mut self, job: JobSpec, now: SimTime) -> Option<usize> {
        if self.copies == 1 {
            let c = self.mapper.assign(&mut self.clusters, &job, now)?;
            self.clusters[c]
                .submit(job, now)
                .expect("mapper only assigns fitting clusters");
            return Some(c);
        }
        let mut ranked: Vec<(SimTime, usize)> = (0..self.clusters.len())
            .filter_map(|c| self.clusters[c].estimate_new(&job, now).map(|e| (e, c)))
            .collect();
        ranked.sort_unstable();
        let sites: Vec<usize> = ranked.iter().take(self.copies).map(|&(_, c)| c).collect();
        for &c in &sites {
            self.clusters[c]
                .submit(job, now)
                .expect("estimated cluster fits");
        }
        let first = *sites.first()?;
        self.siblings.insert(job.id, sites);
        Some(first)
    }

    /// `job` started on `cluster`: cancel its waiting copies elsewhere.
    /// Returns whether any was cancelled.
    fn cancel_siblings(&mut self, job: JobId, cluster: usize, now: SimTime) -> bool {
        let sites = self
            .siblings
            .remove(&job)
            .expect("a started copy is tracked");
        for &c in sites.iter().filter(|&&c| c != cluster) {
            self.clusters[c]
                .cancel(job, now)
                .expect("sibling copy must still be waiting");
        }
        sites.len() > 1
    }

    fn handle_completion(&mut self, cluster: usize, job: JobId, now: SimTime) {
        self.clusters[cluster].complete(job, now);
        let t = self.tracking.remove(&job).expect("completed job tracked");
        let start = t.start.expect("completed job must have started");
        self.obs.event(
            now,
            "job.run",
            Some(cluster as u32),
            &[
                ("id", Field::U64(job.0)),
                ("start", Field::U64(start.as_secs())),
                ("end", Field::U64(now.as_secs())),
                ("reallocations", Field::U64(u64::from(t.reallocations))),
            ],
        );
        self.outcome.push(JobRecord {
            id: job,
            submit: t.submit,
            start,
            completion: now,
            cluster,
            reallocations: t.reallocations,
        });
        self.completed += 1;
    }

    /// `true` when this completion event belongs to a run that an outage
    /// already killed (the event is consumed, not delivered). If a live
    /// completion of the same job on the same cluster lands on the same
    /// instant, the batch holds two identical events and consuming
    /// either as the stale one is correct.
    fn consume_stale_completion(&mut self, cluster: usize, job: JobId, now: SimTime) -> bool {
        let Some(pending) = self.stale_completions.get_mut(&(cluster, job, now)) else {
            return false;
        };
        *pending -= 1;
        if *pending == 0 {
            self.stale_completions.remove(&(cluster, job, now));
        }
        true
    }

    /// A site fails: kill its running jobs, drain its queue, block it
    /// until the window's recovery instant and re-enter every evicted
    /// job into the grid mapper.
    ///
    /// A killed job re-enters with its *remaining* reference runtime
    /// (checkpoint-on-kill, after the fault-tolerant task management of
    /// Bui, Flauzac & Rabat) and its original walltime request.
    /// Restart-from-scratch would livelock: under an aggressive MTBF a
    /// multi-day job would never observe an up-window long enough to
    /// finish, so the simulation could not terminate.
    fn handle_outage(&mut self, site: usize, now: SimTime) {
        let window = self.outage_next[site]
            .take()
            .expect("outage event fired without a pending window");
        debug_assert_eq!(window.down, now, "outage event at the wrong instant");
        let speed = self.clusters[site].spec().speed;
        // The killed runs' completion events are already queued;
        // tombstone each under the end instant it was scheduled with.
        let orphaned: Vec<(JobId, SimTime)> = self.clusters[site]
            .running_jobs()
            .map(|r| (r.job.id, r.end))
            .collect();
        for (id, end) in orphaned {
            *self.stale_completions.entry((site, id, end)).or_insert(0) += 1;
        }
        let (mut running, waiting) = self.clusters[site].fail_until(window.up, now);
        for job in &mut running {
            // Checkpoint: convert the elapsed cluster-seconds back to
            // reference-seconds (ceil — the started second counts, which
            // also guarantees strictly positive progress per attempt).
            let started = self.tracking[&job.id]
                .start
                .expect("running job must have started");
            let progress = (now.since(started).as_secs() as f64 * speed).ceil() as u64;
            job.runtime_ref =
                grid_des::Duration(job.runtime_ref.as_secs().saturating_sub(progress));
        }
        let mut evicted = running;
        evicted.extend(waiting);
        evicted.sort_by_key(|j| (j.submit, j.id));
        self.obs.event(
            now,
            "outage",
            Some(site as u32),
            &[
                ("start", Field::U64(window.down.as_secs())),
                ("end", Field::U64(window.up.as_secs())),
                ("evicted", Field::U64(evicted.len() as u64)),
            ],
        );
        self.obs.count("fault.outages", 1);
        self.obs.count("fault.evicted", evicted.len() as u64);
        for job in evicted {
            // Under multiple submission a waiting copy with a live sibling
            // elsewhere is dropped; a killed job or a job's last copy
            // re-enters through the same k-copy placement.
            if let Some(sites) = self.siblings.get_mut(&job.id) {
                sites.retain(|&c| c != site);
                if !sites.is_empty() {
                    continue;
                }
                self.siblings.remove(&job.id);
            }
            let c = self
                .place(job, now)
                .expect("an evicted job fit a cluster before, so it still fits one");
            let t = self
                .tracking
                .get_mut(&job.id)
                .expect("evicted job must be tracked");
            t.start = None;
            t.cluster = c;
            self.outcome.outage_evictions += 1;
            self.obs.count("fault.requeued", 1);
        }
        // Keep the failure process alive while work remains anywhere.
        if self.completed < self.jobs.len() {
            let next = self.outage_streams[site]
                .next()
                .expect("outage streams are infinite");
            self.events.schedule(next.down, Event::Outage { site });
            self.outage_next[site] = Some(next);
        }
    }

    fn handle_realloc_tick(&mut self, now: SimTime) {
        let cfg = self
            .config
            .realloc
            .expect("tick only scheduled with config");
        let report = {
            // Sidecar-only wall-clock span: how long one reallocation
            // round takes end to end (the cost the snapshot engine and
            // batched column fills exist to bound).
            let _tick_span = self.obs.span("realloc.tick");
            realloc::run_tick(&mut self.clusters, &cfg, now)
        };
        self.outcome.total_ticks += 1;
        if !report.migrations.is_empty() {
            self.outcome.active_ticks += 1;
        }
        self.outcome.total_reallocations += report.migrations.len() as u64;
        self.outcome.contract_violations += report.contract_violations as u64;
        if self.obs.is_enabled() {
            self.obs.event(
                now,
                "realloc.tick",
                None,
                &[
                    ("examined", Field::U64(report.examined as u64)),
                    ("attempted", Field::U64(report.attempted as u64)),
                    ("rejected", Field::U64(report.rejected as u64)),
                    ("migrations", Field::U64(report.migrations.len() as u64)),
                ],
            );
            self.obs.count("realloc.examined", report.examined as u64);
            self.obs.count("realloc.attempted", report.attempted as u64);
            self.obs.count("realloc.rejected", report.rejected as u64);
            self.obs
                .count("realloc.migrations", report.migrations.len() as u64);
            // The live load curves of §4.1, one sample per tick and
            // cluster: what was waiting, what was running, how much
            // placement effort the availability engine has spent.
            for (lane, c) in self.clusters.iter().enumerate() {
                let lane = lane as u32;
                self.obs
                    .gauge("queue_depth", lane, now, c.waiting_count() as f64);
                self.obs
                    .gauge("busy_cores", lane, now, f64::from(c.busy_cores()));
                self.obs
                    .gauge("probes", lane, now, c.stats().first_fit_probes as f64);
            }
        }
        for m in &report.migrations {
            self.obs.event(
                now,
                "migrate",
                None,
                &[
                    ("id", Field::U64(m.job.0)),
                    ("from", Field::U64(m.from as u64)),
                    ("to", Field::U64(m.to as u64)),
                ],
            );
            let t = self
                .tracking
                .get_mut(&m.job)
                .expect("migrated job must be tracked");
            t.cluster = m.to;
            t.reallocations += 1;
        }
        // Keep ticking while work remains anywhere in the system.
        if self.completed < self.jobs.len() {
            self.events.schedule(now + cfg.period, Event::ReallocTick);
        }
    }
}

/// Run a workload under a config and keep only the outcome.
pub fn simulate(config: GridConfig, jobs: Vec<JobSpec>) -> Result<RunOutcome, SimError> {
    GridSim::new(config, jobs)
        .run()
        .map(|(outcome, _, _)| outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Heuristic;
    use crate::realloc::ReallocAlgorithm;
    use grid_batch::ClusterSpec;

    fn tiny_platform() -> Platform {
        Platform::new(
            "tiny",
            vec![
                ClusterSpec::new("c0", 4, 1.0),
                ClusterSpec::new("c1", 4, 1.0),
            ],
        )
    }

    fn cfg(policy: BatchPolicy) -> GridConfig {
        GridConfig::new(tiny_platform(), policy)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let out = simulate(
            cfg(BatchPolicy::Fcfs),
            vec![JobSpec::new(0, 10, 2, 100, 200)],
        )
        .unwrap();
        assert_eq!(out.records.len(), 1);
        let r = out.records[&JobId(0)];
        assert_eq!(r.submit, SimTime(10));
        assert_eq!(r.start, SimTime(10));
        assert_eq!(r.completion, SimTime(110));
        assert_eq!(out.makespan, SimTime(110));
    }

    #[test]
    fn mct_spreads_load_across_clusters() {
        // Two big jobs at t=0: the second must go to the other cluster.
        let jobs = vec![
            JobSpec::new(0, 0, 4, 100, 100),
            JobSpec::new(1, 0, 4, 100, 100),
        ];
        let out = simulate(cfg(BatchPolicy::Fcfs), jobs).unwrap();
        assert_eq!(out.records[&JobId(0)].cluster, 0);
        assert_eq!(out.records[&JobId(1)].cluster, 1);
        assert_eq!(out.records[&JobId(1)].completion, SimTime(100));
    }

    #[test]
    fn unschedulable_job_errors() {
        let err = simulate(cfg(BatchPolicy::Fcfs), vec![JobSpec::new(0, 0, 9, 1, 1)]).unwrap_err();
        assert_eq!(
            err,
            SimError::UnschedulableJob {
                id: JobId(0),
                procs: 9
            }
        );
    }

    #[test]
    fn duplicate_ids_error() {
        let jobs = vec![JobSpec::new(7, 0, 1, 1, 1), JobSpec::new(7, 5, 1, 1, 1)];
        assert_eq!(
            simulate(cfg(BatchPolicy::Fcfs), jobs).unwrap_err(),
            SimError::DuplicateJobId(JobId(7))
        );
    }

    #[test]
    fn killed_job_ends_at_walltime() {
        let out = simulate(
            cfg(BatchPolicy::Fcfs),
            vec![JobSpec::new(0, 0, 1, 500, 100)],
        )
        .unwrap();
        assert_eq!(out.records[&JobId(0)].completion, SimTime(100));
    }

    #[test]
    fn zero_runtime_job_completes() {
        let out = simulate(cfg(BatchPolicy::Cbf), vec![JobSpec::new(0, 5, 1, 0, 10)]).unwrap();
        let r = out.records[&JobId(0)];
        assert_eq!(r.start, SimTime(5));
        assert_eq!(r.completion, SimTime(5));
    }

    #[test]
    fn early_completion_cascades_queue() {
        // One cluster platform: job 0 over-estimates (walltime 1000, runs
        // 100); job 1 queued behind starts at 100, not 1000.
        let platform = Platform::new("one", vec![ClusterSpec::new("c0", 4, 1.0)]);
        let jobs = vec![
            JobSpec::new(0, 0, 4, 100, 1000),
            JobSpec::new(1, 0, 4, 50, 60),
        ];
        let out = simulate(GridConfig::new(platform, BatchPolicy::Fcfs), jobs).unwrap();
        assert_eq!(out.records[&JobId(1)].start, SimTime(100));
        assert_eq!(out.records[&JobId(1)].completion, SimTime(150));
    }

    #[test]
    fn realloc_moves_waiting_job_to_freed_cluster() {
        // Cluster 0 gets two long jobs (second waits ~2h); cluster 1 is
        // blocked at mapping time but its job finishes quickly, so the
        // hourly reallocation migrates the waiting job there.
        let jobs = vec![
            // Occupies cluster 0 fully for 3 h (runtime == walltime).
            JobSpec::new(0, 0, 4, 10_800, 10_800),
            // Occupies cluster 1 fully; walltime says 3 h, actually runs 30 min.
            JobSpec::new(1, 0, 4, 1_800, 10_800),
            // Arrives just after: both clusters look busy for 3 h; MCT picks
            // cluster 0 (tie, lowest index). Cluster 1 frees at t=1800.
            JobSpec::new(2, 10, 4, 600, 700),
        ];
        let base = simulate(cfg(BatchPolicy::Fcfs), jobs.clone()).unwrap();
        // Without reallocation job 2 waits for cluster 0: starts at 10800.
        assert_eq!(base.records[&JobId(2)].start, SimTime(10_800));
        let with = simulate(
            cfg(BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
                ReallocAlgorithm::NoCancel,
                Heuristic::Mct,
            )),
            jobs,
        )
        .unwrap();
        let r2 = with.records[&JobId(2)];
        // First tick at t = 0 + 3600 (an hour after the *first* submission):
        // cluster 1 is empty (freed at 1800), so job 2 migrates and starts
        // immediately.
        assert_eq!(r2.cluster, 1);
        assert_eq!(r2.start, SimTime(3_600));
        assert_eq!(r2.reallocations, 1);
        assert_eq!(with.total_reallocations, 1);
        assert!(with.active_ticks >= 1);
    }

    #[test]
    fn realloc_ticks_stop_after_last_completion() {
        let jobs = vec![JobSpec::new(0, 0, 1, 100, 200)];
        let out = simulate(
            cfg(BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
                ReallocAlgorithm::CancelAll,
                Heuristic::MinMin,
            )),
            jobs,
        )
        .unwrap();
        // Job completes at t=100; the first tick would be at 3600 — but the
        // job has already completed, so exactly one tick fires (scheduled at
        // t=3600 before completion was known) and no more after it.
        assert!(out.total_ticks <= 1, "ticks: {}", out.total_ticks);
    }

    #[test]
    fn deterministic_end_to_end() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.01);
        let run = || {
            simulate(
                GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf).with_realloc(
                    ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Sufferage),
                ),
                jobs.clone(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.total_reallocations, b.total_reallocations);
    }

    #[test]
    fn all_jobs_complete_under_every_policy_combo() {
        let jobs = grid_workload::Scenario::Feb.generate_fraction(1, 0.005);
        let n = jobs.len();
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            for realloc in [
                None,
                Some(ReallocConfig::new(
                    ReallocAlgorithm::NoCancel,
                    Heuristic::MinMin,
                )),
                Some(ReallocConfig::new(
                    ReallocAlgorithm::CancelAll,
                    Heuristic::MaxGain,
                )),
            ] {
                let mut c = GridConfig::new(Platform::grid5000(false), policy);
                if let Some(r) = realloc {
                    c = c.with_realloc(r);
                }
                let out = simulate(c, jobs.clone()).unwrap();
                assert_eq!(out.records.len(), n, "{policy} {realloc:?}");
            }
        }
    }

    /// A mixed-policy grid runs end to end, each cluster really runs its
    /// own scheduler (the mix outcome diverges from both uniform grids),
    /// and MCT's ECT probes see the per-site policies.
    #[test]
    fn mixed_policy_grid_schedules_per_site() {
        let jobs = grid_workload::Scenario::Apr.generate_fraction(7, 0.01);
        let run = |policy: BatchPolicy| {
            simulate(
                GridConfig::new(Platform::grid5000(false), policy),
                jobs.clone(),
            )
            .unwrap()
        };
        let mixed = run(BatchPolicy::mix(&[
            BatchPolicy::Fcfs,
            BatchPolicy::Cbf,
            BatchPolicy::Cbf,
        ]));
        let fcfs = run(BatchPolicy::Fcfs);
        let cbf = run(BatchPolicy::Cbf);
        assert_eq!(mixed.records.len(), jobs.len(), "all jobs complete");
        assert_ne!(
            mixed.records, fcfs.records,
            "the CBF sites must change the schedule"
        );
        assert_ne!(
            mixed.records, cbf.records,
            "the FCFS site must change the schedule"
        );
        // Deterministic like every other configuration.
        let again = run(BatchPolicy::mix(&[
            BatchPolicy::Fcfs,
            BatchPolicy::Cbf,
            BatchPolicy::Cbf,
        ]));
        assert_eq!(mixed.records, again.records);
    }

    /// Reallocation works across a mixed-policy grid: ECT estimation and
    /// migration treat each cluster under its own scheduler.
    #[test]
    fn mixed_policy_grid_reallocates() {
        let jobs = grid_workload::Scenario::Apr.generate_fraction(7, 0.01);
        let mix = BatchPolicy::mix(&[BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Cbf]);
        let out = simulate(
            GridConfig::new(Platform::grid5000(true), mix).with_realloc(ReallocConfig::new(
                ReallocAlgorithm::CancelAll,
                Heuristic::MinMin,
            )),
            jobs.clone(),
        )
        .unwrap();
        assert_eq!(out.records.len(), jobs.len());
        assert!(out.total_reallocations > 0, "April is load-imbalanced");
        assert_eq!(out.contract_violations, 0, "per-site ECTs stay honest");
    }

    #[test]
    fn mismatched_policy_mix_is_a_sim_error() {
        let mix = BatchPolicy::mix(&[BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Cbf]);
        let err = simulate(
            GridConfig::new(
                Platform::new(
                    "two",
                    vec![ClusterSpec::new("a", 4, 1.0), ClusterSpec::new("b", 4, 1.0)],
                ),
                mix,
            ),
            vec![JobSpec::new(0, 0, 1, 1, 1)],
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::PolicySiteMismatch {
                sites: 3,
                clusters: 2
            }
        );
        assert!(err.to_string().contains("3 sites"), "{err}");
    }

    /// Outage fault, end to end: every job still completes exactly once,
    /// evictions really happen, and the run is byte-deterministic.
    #[test]
    fn outage_fault_requeues_evicted_jobs_and_loses_none() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.01);
        let n = jobs.len();
        let fault = grid_fault::Fault::resolve_expr("outage(mtbf_h=12, mttr_h=2)").unwrap();
        let run = || {
            simulate(
                GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
                    .with_seed(7)
                    .with_fault(fault)
                    .with_realloc(ReallocConfig::new(
                        ReallocAlgorithm::CancelAll,
                        Heuristic::MinMin,
                    )),
                jobs.clone(),
            )
            .unwrap()
        };
        let out = run();
        assert_eq!(out.records.len(), n, "no job may be lost to an outage");
        assert!(
            out.outage_evictions > 0,
            "a month at MTBF 12h must evict something"
        );
        let again = run();
        assert_eq!(out.records, again.records);
        assert_eq!(out.outage_evictions, again.outage_evictions);
        // The healthy run differs (outages really perturb the grid).
        let healthy = simulate(
            GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
                .with_seed(7)
                .with_realloc(ReallocConfig::new(
                    ReallocAlgorithm::CancelAll,
                    Heuristic::MinMin,
                )),
            jobs.clone(),
        )
        .unwrap();
        assert_eq!(healthy.outage_evictions, 0);
        assert_ne!(healthy.records, out.records);
    }

    /// Property: no completed run overlaps a down window of its final
    /// cluster — killed jobs restart after the outage, and the blocked
    /// availability profile admits no start during one. The windows are
    /// regenerated independently from the same spec, pinning the
    /// pure-function contract of the outage stream.
    #[test]
    fn no_job_runs_on_a_downed_site() {
        let jobs = grid_workload::Scenario::Feb.generate_fraction(11, 0.01);
        let fault = grid_fault::Fault::resolve_expr("outage(mtbf_h=8, mttr_h=4)").unwrap();
        let seed = 13;
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            let out = simulate(
                GridConfig::new(Platform::grid5000(false), policy)
                    .with_seed(seed)
                    .with_fault(fault)
                    .with_realloc(ReallocConfig::new(
                        ReallocAlgorithm::NoCancel,
                        Heuristic::Mct,
                    )),
                jobs.clone(),
            )
            .unwrap();
            assert_eq!(out.records.len(), jobs.len());
            assert!(out.outage_evictions > 0, "{policy}: outages must bite");
            let spec = fault.config().outage.expect("outage configured");
            for site in 0..Platform::grid5000(false).clusters.len() {
                for window in spec.windows(seed, site) {
                    if window.down > out.makespan {
                        break;
                    }
                    for r in out.records.values().filter(|r| r.cluster == site) {
                        assert!(
                            !window.overlaps(r.start, r.completion),
                            "{policy}: job {} ran [{}, {}) across outage \
                             [{}, {}) on site {site}",
                            r.id,
                            r.start,
                            r.completion,
                            window.down,
                            window.up,
                        );
                    }
                }
            }
        }
    }

    /// ECT noise perturbs mapping and reallocation decisions — and only
    /// them: all jobs complete, runs stay deterministic, and the broken
    /// promises surface as contract violations instead of panics.
    #[test]
    fn ect_noise_changes_decisions_but_not_completeness() {
        let jobs = grid_workload::Scenario::Apr.generate_fraction(5, 0.01);
        let fault = grid_fault::Fault::resolve_expr("ect-noise(sigma=0.8)").unwrap();
        let run = |fault: Option<grid_fault::Fault>| {
            let mut c = GridConfig::new(Platform::grid5000(true), BatchPolicy::Fcfs)
                .with_seed(5)
                .with_realloc(ReallocConfig::new(
                    ReallocAlgorithm::CancelAll,
                    Heuristic::Sufferage,
                ));
            if let Some(f) = fault {
                c = c.with_fault(f);
            }
            simulate(c, jobs.clone()).unwrap()
        };
        let noisy = run(Some(fault));
        assert_eq!(noisy.records.len(), jobs.len());
        assert_eq!(noisy.records, run(Some(fault)).records, "deterministic");
        let clean = run(None);
        assert_ne!(clean.records, noisy.records, "σ=0.8 must change the run");
        assert_eq!(clean.contract_violations, 0);
        assert!(
            noisy.contract_violations > 0,
            "noisy estimates must break some ECT contracts"
        );
    }

    /// `run` surfaces per-cluster scheduler-effort counters without
    /// touching the outcome: the availability engine answers first-fit
    /// probes on every site, reallocation cancels exercise the
    /// warm-repair path, and the outcome equals [`simulate`]'s.
    #[test]
    fn run_reports_scheduler_effort() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.01);
        let cfg = || {
            GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf).with_realloc(
                ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Mct),
            )
        };
        let (out, stats, _) = GridSim::new(cfg(), jobs.clone()).run().unwrap();
        assert_eq!(stats.len(), Platform::grid5000(true).clusters.len());
        assert!(
            stats.iter().all(|s| s.first_fit_probes > 0),
            "every site answers placement probes: {stats:?}"
        );
        assert!(
            stats.iter().map(|s| s.suffix_repairs).sum::<u64>() > 0,
            "cancel-all reallocation must exercise the warm repair path"
        );
        assert_eq!(
            stats.iter().map(|s| s.completed).sum::<u64>(),
            jobs.len() as u64
        );
        // The counters are observation-only: the outcome is unchanged.
        let plain = simulate(cfg(), jobs).unwrap();
        assert_eq!(out.records, plain.records);
    }

    /// The observability contract: attaching a recorder changes no
    /// outcome byte, the recorder sees the run's structure (submits,
    /// runs, ticks, scheduler decisions, per-tick gauges), and two
    /// identical instrumented runs export byte-identical event streams
    /// and traces.
    #[test]
    fn instrumentation_does_not_change_outcomes_and_is_deterministic() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.005);
        let cfg = || {
            GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf).with_realloc(
                ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Mct),
            )
        };
        let observed = |jobs: Vec<JobSpec>| {
            let obs = grid_obs::Obs::enabled();
            let mut sim = GridSim::new(cfg(), jobs);
            sim.set_obs(obs.clone());
            let (out, stats, _) = sim.run().unwrap();
            let r = obs.snapshot().unwrap();
            (out, stats, r)
        };
        let (out, stats, rec) = observed(jobs.clone());

        // Byte-identical outcome and stats vs the run with no handle.
        let (plain_out, plain_stats, _) = GridSim::new(cfg(), jobs.clone()).run().unwrap();
        assert_eq!(out.records, plain_out.records);
        assert_eq!(stats, plain_stats);

        // The recorder saw the whole run.
        let n = jobs.len() as u64;
        assert!(rec.counter("sim.batches") > 0);
        let submits = rec
            .events()
            .iter()
            .filter(|e| e.kind == "job.submit")
            .count() as u64;
        let runs = rec.events().iter().filter(|e| e.kind == "job.run").count() as u64;
        assert_eq!(runs, n, "one job.run event per completed job");
        assert!(submits >= n, "every job submitted at least once");
        assert_eq!(rec.counter("realloc.migrations"), out.total_reallocations);
        assert!(
            rec.events().iter().any(|e| e.kind == "sched.repair"),
            "warm repairs must be visible as decisions"
        );
        assert!(rec.histogram("sched.probes_per_decision").is_some());
        assert_eq!(rec.lanes().len(), Platform::grid5000(true).clusters.len());
        assert!(
            !rec.gauge_series("queue_depth", 0).is_empty(),
            "per-tick gauges recorded on lane 0"
        );
        assert!(rec.spans().contains_key("sim.run"), "wall spans recorded");

        // Determinism: identical run → identical exported bytes.
        let (_, _, rec2) = observed(jobs);
        assert_eq!(rec.events_jsonl(), rec2.events_jsonl());
        assert_eq!(rec.summary().encode(), rec2.summary().encode());
        assert_eq!(rec.chrome_trace(), rec2.chrome_trace());
    }

    fn three_sites() -> Platform {
        Platform::new(
            "msub",
            vec![
                ClusterSpec::new("c0", 4, 1.0),
                ClusterSpec::new("c1", 4, 1.0),
                ClusterSpec::new("c2", 4, 1.0),
            ],
        )
    }

    /// Multiple submission with `k` copies per job.
    fn multisub(k: usize) -> ReallocConfig {
        let algorithm = ReallocAlgorithm::resolve_expr(&format!("multisub(k={k})")).unwrap();
        ReallocConfig::new(algorithm, Heuristic::Mct)
    }

    fn multisub_cfg(policy: BatchPolicy, k: usize) -> GridConfig {
        GridConfig::new(three_sites(), policy).with_realloc(multisub(k))
    }

    #[test]
    fn multisub_single_job_runs_once() {
        let out = simulate(
            multisub_cfg(BatchPolicy::Fcfs, 3),
            vec![JobSpec::new(0, 0, 2, 100, 200)],
        )
        .unwrap();
        assert_eq!(out.records.len(), 1);
        let r = out.records[&JobId(0)];
        assert_eq!(r.start, SimTime(0));
        assert_eq!(r.completion, SimTime(100));
        assert_eq!((out.total_ticks, out.total_reallocations), (0, 0));
    }

    #[test]
    fn multisub_copies_exploit_early_release() {
        // Cluster 0 looks best at submission (walltime lies), cluster 1
        // frees first: with 3 copies the job starts on cluster 1; with a
        // single submission (plain MCT) it sits behind cluster 1's queue
        // until its blocker really ends.
        let jobs = vec![
            JobSpec::new(0, 0, 4, 10_000, 10_000), // blocks c0, honest
            JobSpec::new(1, 0, 4, 500, 9_000),     // blocks c1, huge lie
            JobSpec::new(2, 0, 4, 800, 9_500),     // blocks c2, big lie
            JobSpec::new(3, 10, 4, 100, 200),      // the probe job
        ];
        let k1 = simulate(
            GridConfig::new(three_sites(), BatchPolicy::Fcfs),
            jobs.clone(),
        )
        .unwrap();
        let k3 = simulate(multisub_cfg(BatchPolicy::Fcfs, 3), jobs).unwrap();
        let p1 = k1.records[&JobId(3)];
        let p3 = k3.records[&JobId(3)];
        // A single copy maps by ECT to the earliest *estimated* release
        // (c1, 9000) and starts when job 1 really ends (t=500).
        assert_eq!(p1.start, SimTime(500));
        // k=3 holds copies everywhere and also wins at t=500 — never worse.
        assert!(p3.start <= p1.start, "{} > {}", p3.start, p1.start);
        assert_eq!(p3.cluster, 1);
    }

    #[test]
    fn multisub_siblings_are_cancelled_not_run() {
        let jobs: Vec<JobSpec> = (0..20)
            .map(|i| JobSpec::new(i, i * 11, 2, 300, 600))
            .collect();
        let (out, stats, _) = GridSim::new(multisub_cfg(BatchPolicy::Cbf, 3), jobs)
            .run()
            .unwrap();
        // Exactly one record per job (no duplicate executions).
        assert_eq!(out.records.len(), 20);
        assert_eq!(stats.iter().map(|s| s.completed).sum::<u64>(), 20);
    }

    #[test]
    fn multisub_same_instant_tie_goes_to_the_lowest_cluster() {
        // Three empty clusters: every copy is reserved at the submit
        // instant; the cluster-order rule must start exactly one.
        let out = simulate(
            multisub_cfg(BatchPolicy::Fcfs, 3),
            vec![JobSpec::new(0, 5, 4, 50, 100)],
        )
        .unwrap();
        let r = out.records[&JobId(0)];
        assert_eq!(r.cluster, 0, "lowest cluster index wins the tie");
        assert_eq!(r.start, SimTime(5));
    }

    #[test]
    fn multisub_copies_clamped_to_fitting_clusters() {
        // A 4-proc job fits everywhere, an oversized copy request (k=9)
        // just uses all three clusters.
        let out = simulate(
            multisub_cfg(BatchPolicy::Fcfs, 9),
            vec![JobSpec::new(0, 0, 4, 10, 20), JobSpec::new(1, 0, 4, 10, 20)],
        )
        .unwrap();
        assert_eq!(out.records.len(), 2);
        // Both ran in parallel on different clusters despite the copies.
        let c0 = out.records[&JobId(0)].cluster;
        let c1 = out.records[&JobId(1)].cluster;
        assert_ne!(c0, c1);
    }

    #[test]
    fn multisub_is_deterministic() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.005);
        let run = |jobs: Vec<JobSpec>| {
            simulate(
                GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
                    .with_realloc(multisub(2)),
                jobs,
            )
            .unwrap()
        };
        let a = run(jobs.clone());
        let b = run(jobs);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn multisub_comparable_with_reallocation() {
        // The related-work comparison the paper makes qualitatively: both
        // mechanisms beat the plain baseline on bursty workloads.
        // Seed chosen so the workload is busy enough for both mechanisms
        // to show their improving direction.
        let jobs = grid_workload::Scenario::Apr.generate_fraction(2, 0.005);
        let platform = Platform::grid5000(false);
        let run = |realloc: Option<ReallocConfig>| {
            let mut c = GridConfig::new(platform.clone(), BatchPolicy::Fcfs);
            if let Some(r) = realloc {
                c = c.with_realloc(r);
            }
            simulate(c, jobs.clone()).unwrap()
        };
        let base = run(None);
        let realloc = run(Some(ReallocConfig::new(
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
        )));
        let msub = run(Some(multisub(3)));
        assert_eq!(msub.records.len(), base.records.len());
        // Both mechanisms should improve the mean response on this loaded
        // trace; we only assert they are in the improving direction
        // relative to baseline within 5% slack (shape, not magnitude).
        assert!(msub.mean_response() <= base.mean_response() * 1.05);
        assert!(realloc.mean_response() <= base.mean_response() * 1.05);
    }

    #[test]
    fn multisub_needs_the_mct_mapping() {
        let err = simulate(
            multisub_cfg(BatchPolicy::Fcfs, 2).with_mapping(Mapping::RoundRobin),
            vec![JobSpec::new(0, 0, 1, 1, 1)],
        )
        .unwrap_err();
        assert_eq!(err, SimError::MultiSubMapping(Mapping::RoundRobin));
        assert!(err.to_string().contains("MCT"), "{err}");
    }

    /// Multiple submission under outages: a waiting copy with a live
    /// sibling is dropped, a killed job or a last copy re-enters through
    /// the k-copy placement, and nothing runs twice or is lost. Two-hour
    /// MTBF with six-hour repairs and two copies make all three cases
    /// occur on 1% of June.
    #[test]
    fn multisub_survives_outages_and_runs_each_job_once() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(3, 0.01);
        let fault = grid_fault::Fault::resolve_expr("outage(mtbf_h=2, mttr_h=6)").unwrap();
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            let (out, stats, _) = GridSim::new(
                GridConfig::new(Platform::grid5000(true), policy)
                    .with_seed(7)
                    .with_fault(fault)
                    .with_realloc(multisub(2)),
                jobs.clone(),
            )
            .run()
            .unwrap();
            assert_eq!(
                out.records.len(),
                jobs.len(),
                "{policy}: one record per job"
            );
            assert!(out.outage_evictions > 0, "{policy}: outages must bite");
            // One completion per job over all sites: no copy ran besides
            // the one that started first (killed runs are evicted, not
            // completed).
            let completed: u64 = stats.iter().map(|s| s.completed).sum();
            assert_eq!(completed, jobs.len() as u64, "{policy}: a job ran twice");
            // Every copy a site accepted completed, was cancelled or was
            // evicted: each site ends idle.
            for (site, s) in stats.iter().enumerate() {
                assert_eq!(
                    s.submitted,
                    s.completed + s.canceled + s.evicted,
                    "{policy}: site {site} ends with work left"
                );
            }
            let again = simulate(
                GridConfig::new(Platform::grid5000(true), policy)
                    .with_seed(7)
                    .with_fault(fault)
                    .with_realloc(multisub(2)),
                jobs.clone(),
            )
            .unwrap();
            assert_eq!(out.records, again.records, "{policy}: deterministic");
        }
    }

    #[test]
    fn random_and_round_robin_mappings_complete() {
        let jobs = grid_workload::Scenario::Jun.generate_fraction(5, 0.005);
        let n = jobs.len();
        for mapping in [Mapping::Random, Mapping::RoundRobin] {
            let out = simulate(
                GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
                    .with_mapping(mapping)
                    .with_seed(9),
                jobs.clone(),
            )
            .unwrap();
            assert_eq!(out.records.len(), n, "{mapping}");
        }
    }
}
