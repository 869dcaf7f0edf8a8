//! The reallocation strategies, built around the paper's two §2.2.1
//! algorithms.
//!
//! All strategies run inside a periodic *reallocation event* (hourly in
//! the paper, first fired one hour after the first submission):
//!
//! * **Algorithm 1 — [`ReallocAlgorithm::NoCancel`]**: walk the waiting
//!   jobs (ordered by the heuristic); a job migrates iff some other
//!   cluster's ECT beats its current ECT by more than the improvement
//!   threshold (one minute in the paper): *"if j.newECT + 60 <
//!   j.currentECT then cancel j on its current cluster and submit it to
//!   the new cluster"*.
//! * **Algorithm 2 — [`ReallocAlgorithm::CancelAll`]**: first cancel every
//!   waiting job on every cluster, then (ordered by the heuristic) submit
//!   each job to the cluster with the best ECT. A migration is counted
//!   when the job lands on a different cluster than before (§4.2: "we save
//!   the location of a job and if it is submitted on another cluster, we
//!   count this as a reallocation").
//! * **[`ReallocAlgorithm::LoadThreshold`]** — a load-imbalance-gated
//!   variant of Algorithm 1; see [`crate::load_threshold`].
//! * **[`ReallocAlgorithm::MultiSub`]** — the related-work baseline:
//!   multiple submission, with no reallocation event
//!   ([`MultiSubStrategy`]).
//!
//! Each is a [`ReallocStrategy`] in a string-keyed registry: a
//! [`ReallocAlgorithm`] is a `Copy` handle resolved from campaign specs
//! by expression ([`ReallocAlgorithm::resolve_expr`]), and a new
//! strategy is one file implementing the trait plus one registry line.

use grid_batch::{Cluster, JobId};
use grid_des::{Duration, SimTime};
use grid_ser::expr::{self, BoundArgs, Entry, Handle, ParamSpec};

use crate::ect::{EctView, WaitingJob};
use crate::heuristics::Heuristic;

/// One reallocation-event algorithm (the paper's §2.2.1 family).
///
/// Implementations are stateless; the per-event inputs arrive as
/// arguments. `jobs` is the snapshot of every waiting job in submission
/// order (MCT's processing order, and the deterministic tie-break for the
/// offline heuristics).
pub trait ReallocStrategy: std::fmt::Debug + Sync {
    /// Canonical name, e.g. `no-cancel`; the registry key
    /// (case-insensitive) and the spec/CLI spelling.
    fn name(&self) -> &'static str;

    /// Table-row suffix: heuristics are postfixed with `-C` under
    /// cancellation (§4.2), `-LT` under the load-threshold trigger.
    fn suffix(&self) -> &'static str {
        ""
    }

    /// Note appended to table titles, e.g. " (with cancellation)".
    fn title_note(&self) -> &'static str {
        ""
    }

    /// First table number of this strategy's group in the paper
    /// (`Some(2)` for Algorithm 1, `Some(10)` for Algorithm 2); `None`
    /// for strategies the paper has no tables for.
    fn paper_table_base(&self) -> Option<usize> {
        None
    }

    /// Run one reallocation event over `clusters` at instant `now`,
    /// recording migrations into `report`.
    fn tick(
        &self,
        clusters: &mut [Cluster],
        jobs: &[WaitingJob],
        cfg: &ReallocConfig,
        now: SimTime,
        report: &mut TickReport,
    );

    /// Copies of each job the grid submits at arrival. Above 1 the
    /// simulator places them on the best clusters by ECT, cancels the
    /// waiting siblings when one copy starts and schedules no
    /// reallocation event. Default: 1.
    fn copies(&self) -> usize {
        1
    }

    /// Parameters this entry accepts in policy expressions
    /// (`load-threshold(factor=1.5)`). Default: none.
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Build a configured instance from validated arguments. Called only
    /// when at least one argument differs from its declared default.
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn ReallocStrategy>, String> {
        let _ = args;
        Err(format!("`{}` takes no parameters", self.name()))
    }
}

/// Copyable, comparable handle to a registered [`ReallocStrategy`].
///
/// Identity (equality, hashing, display, cache keys) is the canonical
/// policy expression: `load-threshold` for the default configuration,
/// `load-threshold(factor=1.5)` for a parameterised variant
/// ([`ReallocAlgorithm::resolve_expr`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReallocAlgorithm(Handle<dyn ReallocStrategy>);

grid_ser::fmt_as_handle!(ReallocAlgorithm, 0);

impl Entry for dyn ReallocStrategy {
    fn params(&self) -> Vec<ParamSpec> {
        ReallocStrategy::params(self)
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<Self>, String> {
        ReallocStrategy::with_params(self, args)
    }
}

#[allow(non_upper_case_globals)]
impl ReallocAlgorithm {
    /// Algorithm 1: selective cancel-and-resubmit with a threshold.
    pub const NoCancel: ReallocAlgorithm =
        ReallocAlgorithm(Handle::new("no-cancel", &NoCancelStrategy));
    /// Algorithm 2: cancel everything, reschedule the whole bag of tasks.
    pub const CancelAll: ReallocAlgorithm =
        ReallocAlgorithm(Handle::new("cancel-all", &CancelAllStrategy));
    /// Load-threshold-gated Algorithm 1 (see [`crate::load_threshold`]);
    /// reachable from specs as `load-threshold` — parameterised as
    /// `load-threshold(factor=1.5, floor_s=30)`. Not part of
    /// [`ReallocAlgorithm::ALL`] — the paper's campaign stays two
    /// algorithms wide.
    pub const LoadThreshold: ReallocAlgorithm = ReallocAlgorithm(Handle::new(
        "load-threshold",
        &crate::load_threshold::LoadThresholdStrategy::DEFAULT,
    ));

    /// Multiple submission (see [`MultiSubStrategy`]); reachable from
    /// specs as `multisub`, which is `multisub(k=2)`.
    pub const MultiSub: ReallocAlgorithm =
        ReallocAlgorithm(Handle::new("multisub", &MultiSubStrategy::DEFAULT));

    /// The paper's two algorithms, paper order.
    pub const ALL: [ReallocAlgorithm; 2] =
        [ReallocAlgorithm::NoCancel, ReallocAlgorithm::CancelAll];

    /// The registry: every base strategy, paper strategies first
    /// (parameterised instances are reachable through expressions, not
    /// listed). Each key must equal its strategy's `name()`; a unit test
    /// pins this.
    pub const BUILTINS: [ReallocAlgorithm; 4] = [
        ReallocAlgorithm::NoCancel,
        ReallocAlgorithm::CancelAll,
        ReallocAlgorithm::LoadThreshold,
        ReallocAlgorithm::MultiSub, // <- one line per new in-tree strategy
    ];

    /// The underlying strategy implementation.
    #[inline]
    pub fn strategy(self) -> &'static dyn ReallocStrategy {
        self.0.get()
    }

    /// Canonical strategy expression (`no-cancel`,
    /// `load-threshold(factor=1.5)`, …) — the handle's identity.
    pub fn name(self) -> &'static str {
        self.0.key()
    }

    /// Table-row suffix (see [`ReallocStrategy::suffix`]).
    pub fn suffix(self) -> &'static str {
        self.strategy().suffix()
    }

    /// Look a base strategy up by name (case-insensitive). Bare names
    /// only; use [`ReallocAlgorithm::resolve_expr`] for parameterised
    /// forms.
    pub fn resolve(name: &str) -> Option<ReallocAlgorithm> {
        Self::BUILTINS
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Resolve a strategy expression (`load-threshold`,
    /// `load-threshold(factor=1.5, floor_s=30)`) to a handle.
    ///
    /// Arguments are validated against the entry's declared
    /// [`params`](ReallocStrategy::params) — unknown or ill-typed keys
    /// error with the accepted list — and canonicalised: default-valued
    /// arguments drop away, so `load-threshold(factor=2)` *is*
    /// `load-threshold`; anything else interns a configured instance.
    pub fn resolve_expr(input: &str) -> Result<ReallocAlgorithm, String> {
        let registry = Self::BUILTINS.map(|a| a.0);
        expr::resolve(input, &registry, "reallocation algorithm").map(ReallocAlgorithm)
    }
}

/// Full configuration of the reallocation mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReallocConfig {
    /// The algorithm.
    pub algorithm: ReallocAlgorithm,
    /// The job-selection heuristic.
    pub heuristic: Heuristic,
    /// Interval between reallocation events (paper: one hour).
    pub period: Duration,
    /// Minimum ECT improvement for Algorithm 1 to migrate (paper: 60 s).
    pub threshold: Duration,
}

impl ReallocConfig {
    /// Paper defaults: hourly events, one-minute threshold.
    pub fn new(algorithm: ReallocAlgorithm, heuristic: Heuristic) -> Self {
        ReallocConfig {
            algorithm,
            heuristic,
            period: Duration::hours(1),
            threshold: Duration::secs(60),
        }
    }

    /// Builder: change the event period.
    pub fn with_period(mut self, period: Duration) -> Self {
        assert!(period > Duration::ZERO, "period must be positive");
        self.period = period;
        self
    }

    /// Builder: change the Algorithm 1 improvement threshold.
    pub fn with_threshold(mut self, threshold: Duration) -> Self {
        self.threshold = threshold;
        self
    }

    /// Row label in the paper's tables, e.g. `MinMin` or `MinMin-C`.
    pub fn row_label(&self) -> String {
        format!("{}{}", self.heuristic.label(), self.algorithm.suffix())
    }
}

/// One performed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The migrated job.
    pub job: JobId,
    /// Cluster it left.
    pub from: usize,
    /// Cluster it joined.
    pub to: usize,
}

/// What a reallocation event did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Migrations, in decision order.
    pub migrations: Vec<Migration>,
    /// Number of waiting jobs examined.
    pub examined: usize,
    /// Jobs for which a candidate target existed (a placement was
    /// actually weighed; `migrations.len() + rejected` when every
    /// candidate was decided).
    pub attempted: usize,
    /// Weighed placements that did not move the job: below the
    /// improvement threshold (Algorithm 1), or resubmitted in place
    /// (Algorithm 2).
    pub rejected: usize,
    /// ECT contract violations: submissions whose realized completion
    /// estimate differed from the estimate the decision was based on.
    ///
    /// The paper's §6 proposes "contract checking" so a server can "ensure
    /// that the ECT is as expected by the meta-scheduler". In this
    /// dedicated (simulated) environment nothing changes between the
    /// estimate and the submission, so any violation indicates a stale
    /// estimation cache — the counter doubles as a built-in self-check and
    /// is asserted zero throughout the test suite. In a non-dedicated
    /// deployment, direct local submissions would make it non-zero.
    pub contract_violations: usize,
}

/// Run one reallocation event over `clusters` at instant `now`.
pub fn run_tick(clusters: &mut [Cluster], cfg: &ReallocConfig, now: SimTime) -> TickReport {
    // Snapshot the waiting jobs of all clusters, in submission order
    // (MCT's processing order, and the deterministic tie-break for the
    // offline heuristics).
    let mut jobs: Vec<WaitingJob> = Vec::new();
    for (c, cluster) in clusters.iter().enumerate() {
        jobs.extend(cluster.waiting_jobs().map(|q| WaitingJob {
            spec: *q.job,
            cluster: c,
        }));
    }
    jobs.sort_by_key(|w| (w.spec.submit, w.spec.id));
    let examined = jobs.len();
    let mut report = TickReport {
        examined,
        ..TickReport::default()
    };
    cfg.algorithm
        .strategy()
        .tick(clusters, &jobs, cfg, now, &mut report);
    report
}

/// Algorithm 1 as a registry entry.
#[derive(Debug)]
pub struct NoCancelStrategy;

impl ReallocStrategy for NoCancelStrategy {
    fn name(&self) -> &'static str {
        "no-cancel"
    }
    fn paper_table_base(&self) -> Option<usize> {
        Some(2)
    }
    fn tick(
        &self,
        clusters: &mut [Cluster],
        jobs: &[WaitingJob],
        cfg: &ReallocConfig,
        now: SimTime,
        report: &mut TickReport,
    ) {
        run_no_cancel(clusters, jobs, cfg, now, report);
    }
}

/// Algorithm 2 as a registry entry.
#[derive(Debug)]
pub struct CancelAllStrategy;

impl ReallocStrategy for CancelAllStrategy {
    fn name(&self) -> &'static str {
        "cancel-all"
    }
    fn suffix(&self) -> &'static str {
        "-C"
    }
    fn title_note(&self) -> &'static str {
        " (with cancellation)"
    }
    fn paper_table_base(&self) -> Option<usize> {
        Some(10)
    }
    fn tick(
        &self,
        clusters: &mut [Cluster],
        jobs: &[WaitingJob],
        cfg: &ReallocConfig,
        now: SimTime,
        report: &mut TickReport,
    ) {
        run_cancel_all(clusters, jobs, cfg, now, report);
    }
}

/// Multiple submission, the paper's related-work baseline (§5, Sonmez et
/// al.): each job is submitted to the `k` best clusters by ECT and its
/// other copies are cancelled when one starts. Queues carry phantom
/// copies that inflate everyone else's estimates, but no periodic event
/// is needed. The simulator does the work, keyed on
/// [`copies`](ReallocStrategy::copies); this entry only carries `k`, and
/// its tick never runs.
#[derive(Debug)]
pub struct MultiSubStrategy {
    /// Copies per job, at least 2.
    k: usize,
}

impl MultiSubStrategy {
    /// The default configuration: two copies per job.
    pub const DEFAULT: MultiSubStrategy = MultiSubStrategy { k: 2 };
}

impl ReallocStrategy for MultiSubStrategy {
    fn name(&self) -> &'static str {
        "multisub"
    }
    fn title_note(&self) -> &'static str {
        " (multiple submission)"
    }
    fn copies(&self) -> usize {
        self.k
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int(
            "k",
            Some(2),
            "copies per job, k >= 2, clamped to the fitting clusters",
        )]
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn ReallocStrategy>, String> {
        let k = args.i64("k").expect("declared with a default");
        if k < 2 {
            return Err(format!(
                "`multisub` needs k >= 2 copies per job (got {k}); k = 1 is plain MCT mapping"
            ));
        }
        Ok(Box::new(MultiSubStrategy {
            k: usize::try_from(k).unwrap_or(usize::MAX),
        }))
    }
    fn tick(
        &self,
        _clusters: &mut [Cluster],
        _jobs: &[WaitingJob],
        _cfg: &ReallocConfig,
        _now: SimTime,
        _report: &mut TickReport,
    ) {
        // The simulator schedules no reallocation event for this entry.
    }
}

/// Contract check (§6): the reservation obtained at submission must yield
/// the completion estimate the decision used. Under injected ECT noise
/// the estimate is deliberately wrong, so violations are *expected* —
/// they become the run's measure of how often the mechanism acted on a
/// broken promise; on a clean dedicated platform any violation is a
/// stale-estimation bug, which the debug assertion keeps fatal.
fn check_contract(
    report: &mut TickReport,
    cluster: &Cluster,
    job: &grid_batch::JobSpec,
    reserved_start: SimTime,
    expected_ect: SimTime,
) {
    let realized = reserved_start + cluster.scale_job(job).walltime;
    if realized != expected_ect {
        report.contract_violations += 1;
        debug_assert!(
            cluster.ect_noise().is_some(),
            "stale ECT estimate for {} (dedicated platform must honour contracts)",
            job.id
        );
    }
}

/// The heuristic's next pick, timed as the sidecar-only
/// `realloc.select` span. The decision it leads to (estimate, cancel,
/// submit) is timed as `realloc.commit`; both nest in `realloc.tick`.
fn select(view: &mut EctView<'_>, heuristic: Heuristic) -> Option<usize> {
    let _span = view.obs().span("realloc.select");
    heuristic.select(view)
}

/// Algorithm 1 of the paper (shared with the load-threshold strategy).
pub(crate) fn run_no_cancel(
    clusters: &mut [Cluster],
    jobs: &[WaitingJob],
    cfg: &ReallocConfig,
    now: SimTime,
    report: &mut TickReport,
) {
    let mut view = EctView::queued(clusters, jobs, now);
    while let Some(i) = select(&mut view, cfg.heuristic) {
        let _commit = view.obs().span("realloc.commit");
        let w = view.jobs()[i];
        let cur = view.cur_ect(i);
        if let Some((target, ect)) = view.best_target(i) {
            report.attempted += 1;
            if ect + cfg.threshold >= cur {
                report.rejected += 1;
            } else {
                let job = view
                    .cluster_mut(w.cluster)
                    .cancel(w.spec.id, now)
                    .expect("selected job must still be waiting");
                let start = view
                    .cluster_mut(target)
                    .submit(job, now)
                    .expect("target estimated, so the job must fit");
                check_contract(report, view.cluster_mut(target), &w.spec, start, ect);
                view.note_cancel(w.cluster);
                view.note_submit(target, &w.spec, start);
                report.migrations.push(Migration {
                    job: w.spec.id,
                    from: w.cluster,
                    to: target,
                });
            }
        }
        view.remove(i);
    }
}

/// Algorithm 2 of the paper.
fn run_cancel_all(
    clusters: &mut [Cluster],
    jobs: &[WaitingJob],
    cfg: &ReallocConfig,
    now: SimTime,
    report: &mut TickReport,
) {
    // Cancel every job, recording its current ECT (the MaxGain and
    // MaxRelGain reference): one drain per queue.
    let mut drained: Vec<(JobId, SimTime)> = clusters
        .iter_mut()
        .flat_map(|c| c.drain_queue(now))
        .map(|(job, ect)| (job.id, ect))
        .collect();
    assert_eq!(drained.len(), jobs.len(), "every waiting job drained");
    drained.sort_unstable_by_key(|&(id, _)| id);
    let pre_ects = jobs
        .iter()
        .map(|w| {
            let at = drained
                .binary_search_by_key(&w.spec.id, |&(id, _)| id)
                .expect("waiting job must have a reservation");
            drained[at].1
        })
        .collect();
    let mut view = EctView::cancelled(clusters, jobs, pre_ects, now);
    while let Some(i) = select(&mut view, cfg.heuristic) {
        let _commit = view.obs().span("realloc.commit");
        let w = view.jobs()[i];
        let (target, ect) = view
            .best_target(i)
            .expect("the origin cluster always fits the job");
        report.attempted += 1;
        let start = view
            .cluster_mut(target)
            .submit(w.spec, now)
            .expect("estimated target must accept the job");
        check_contract(report, view.cluster_mut(target), &w.spec, start, ect);
        view.note_submit(target, &w.spec, start);
        if target != w.cluster {
            report.migrations.push(Migration {
                job: w.spec.id,
                from: w.cluster,
                to: target,
            });
        } else {
            report.rejected += 1;
        }
        view.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_batch::{BatchPolicy, ClusterSpec, JobSpec};

    fn cluster(name: &str, procs: u32) -> Cluster {
        Cluster::new(ClusterSpec::new(name, procs, 1.0), BatchPolicy::Fcfs)
    }

    /// Cluster 0: busy 1000 s, one waiting job that would fit cluster 1
    /// immediately.
    fn simple_imbalance() -> Vec<Cluster> {
        let mut c0 = cluster("c0", 4);
        let c1 = cluster("c1", 4);
        c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        c0.submit(JobSpec::new(1, 0, 2, 60, 100), SimTime(0))
            .unwrap();
        vec![c0, c1]
    }

    #[test]
    fn no_cancel_migrates_improving_job() {
        for h in Heuristic::ALL {
            let mut clusters = simple_imbalance();
            let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, h);
            let report = run_tick(&mut clusters, &cfg, SimTime(10));
            assert_eq!(report.examined, 1, "{h}");
            assert_eq!(
                report.migrations,
                vec![Migration {
                    job: JobId(1),
                    from: 0,
                    to: 1
                }],
                "{h}"
            );
            assert_eq!(report.contract_violations, 0, "{h}: ECT contract broken");
            assert_eq!(clusters[0].waiting_count(), 0);
            assert_eq!(clusters[1].waiting_count(), 1);
        }
    }

    #[test]
    fn no_cancel_respects_threshold() {
        // Improvement of exactly 60 s must NOT trigger (strict `<`).
        let mut c0 = cluster("c0", 4);
        let c1 = cluster("c1", 4);
        // Running job blocks for 160 s; waiting job walltime 100:
        // cur ECT = 160 + 100 = 260; target ECT = 100 + 100 = 200?? ...
        // Build: target ECT must be exactly cur - 60 = 200.
        c0.submit(JobSpec::new(100, 0, 4, 160, 160), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        c0.submit(JobSpec::new(1, 0, 2, 60, 100), SimTime(0))
            .unwrap();
        let mut c1m = c1;
        // Occupy cluster 1 fully for 100 s so the probe lands at 100.
        c1m.submit(JobSpec::new(101, 0, 4, 100, 100), SimTime(0))
            .unwrap();
        c1m.start_due(SimTime(0));
        let mut clusters = vec![c0, c1m];
        let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct);
        // cur = 260, new = 200, 200 + 60 < 260 is false -> stay.
        let report = run_tick(&mut clusters, &cfg, SimTime(10));
        assert!(report.migrations.is_empty());
        assert_eq!(clusters[0].waiting_count(), 1);
        // One second more of improvement and it moves.
        let cfg = cfg.with_threshold(Duration::secs(59));
        let report = run_tick(&mut clusters, &cfg, SimTime(10));
        assert_eq!(report.migrations.len(), 1);
    }

    #[test]
    fn no_cancel_leaves_balanced_clusters_alone() {
        let mut c0 = cluster("c0", 4);
        let mut c1 = cluster("c1", 4);
        for (i, c) in [&mut c0, &mut c1].into_iter().enumerate() {
            c.submit(JobSpec::new(100 + i as u64, 0, 4, 500, 500), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(i as u64, 0, 2, 60, 100), SimTime(0))
                .unwrap();
        }
        let mut clusters = vec![c0, c1];
        for h in Heuristic::ALL {
            let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, h);
            let report = run_tick(&mut clusters, &cfg, SimTime(10));
            assert!(report.migrations.is_empty(), "{h}");
        }
    }

    #[test]
    fn cancel_all_reschedules_everything() {
        let mut clusters = simple_imbalance();
        let cfg = ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin);
        let report = run_tick(&mut clusters, &cfg, SimTime(10));
        assert_eq!(report.examined, 1);
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(clusters[1].waiting_count(), 1);
    }

    #[test]
    fn cancel_all_may_resubmit_in_place_without_counting() {
        // Single cluster: every job must come back to it; no migrations
        // counted.
        let mut c0 = cluster("c0", 4);
        c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        c0.submit(JobSpec::new(1, 0, 2, 60, 100), SimTime(0))
            .unwrap();
        c0.submit(JobSpec::new(2, 1, 2, 60, 100), SimTime(0))
            .unwrap();
        let mut clusters = vec![c0];
        let cfg = ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin);
        let report = run_tick(&mut clusters, &cfg, SimTime(10));
        assert_eq!(report.examined, 2);
        assert!(report.migrations.is_empty());
        assert_eq!(clusters[0].waiting_count(), 2);
    }

    #[test]
    fn cancel_all_reorders_queue_by_heuristic() {
        // Two waiting jobs on a busy cluster; MinMin resubmits the short
        // one first, so it ends up ahead in the (FCFS) queue even though it
        // was submitted second.
        let mut c0 = cluster("c0", 2);
        c0.submit(JobSpec::new(100, 0, 2, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        c0.submit(JobSpec::new(1, 0, 2, 800, 900), SimTime(0))
            .unwrap(); // long
        c0.submit(JobSpec::new(2, 1, 2, 50, 60), SimTime(1))
            .unwrap(); // short
        let mut clusters = vec![c0];
        let cfg = ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin);
        run_tick(&mut clusters, &cfg, SimTime(10));
        let order: Vec<JobId> = clusters[0].waiting_jobs().map(|q| q.job.id).collect();
        assert_eq!(order, vec![JobId(2), JobId(1)], "short job first");
    }

    #[test]
    fn mct_and_minmin_can_disagree_under_cancellation() {
        // MCT-C processes in submission order; MinMin-C puts the shortest
        // first. With a tight hole, order changes who wins it.
        let build = || {
            let mut c0 = cluster("c0", 2);
            let mut c1 = cluster("c1", 2);
            c0.submit(JobSpec::new(100, 0, 2, 500, 500), SimTime(0))
                .unwrap();
            c0.start_due(SimTime(0));
            c1.submit(JobSpec::new(101, 0, 2, 200, 200), SimTime(0))
                .unwrap();
            c1.start_due(SimTime(0));
            // Long job submitted first, short job second, both on c0.
            c0.submit(JobSpec::new(1, 0, 2, 400, 450), SimTime(0))
                .unwrap();
            c0.submit(JobSpec::new(2, 1, 2, 50, 60), SimTime(1))
                .unwrap();
            vec![c0, c1]
        };
        let run = |h: Heuristic| {
            let mut clusters = build();
            let cfg = ReallocConfig::new(ReallocAlgorithm::CancelAll, h);
            run_tick(&mut clusters, &cfg, SimTime(10));
            // Who got cluster 1 (the earlier release)?
            clusters[1]
                .waiting_jobs()
                .map(|q| q.job.id)
                .collect::<Vec<_>>()
        };
        let mct = run(Heuristic::Mct);
        let minmin = run(Heuristic::MinMin);
        // MCT-C: job 1 grabs c1 (ECT 200+450) vs c0 (500+450)? 650 < 950,
        // so job 1 goes to c1; job 2 then sees c1 busy till 650.
        assert_eq!(mct, vec![JobId(1)]);
        // MinMin-C: job 2 (short) picks c1 first.
        assert!(minmin.contains(&JobId(2)));
    }

    #[test]
    fn tick_on_empty_grid_is_a_noop() {
        let mut clusters = vec![cluster("c0", 4), cluster("c1", 4)];
        for algo in ReallocAlgorithm::ALL {
            let cfg = ReallocConfig::new(algo, Heuristic::Sufferage);
            let report = run_tick(&mut clusters, &cfg, SimTime(0));
            assert_eq!(report, TickReport::default());
        }
    }

    #[test]
    fn running_jobs_are_never_touched() {
        let mut c0 = cluster("c0", 4);
        c0.submit(JobSpec::new(1, 0, 4, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        let mut clusters = vec![c0, cluster("c1", 4)];
        for algo in ReallocAlgorithm::ALL {
            let cfg = ReallocConfig::new(algo, Heuristic::MaxGain);
            let report = run_tick(&mut clusters, &cfg, SimTime(10));
            assert!(report.migrations.is_empty());
            assert_eq!(clusters[0].running_count(), 1);
        }
    }

    #[test]
    fn row_labels_have_cancel_suffix() {
        let a = ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::MinMin);
        let b = ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin);
        assert_eq!(a.row_label(), "MinMin");
        assert_eq!(b.row_label(), "MinMin-C");
    }

    #[test]
    fn builtin_keys_match_strategy_names() {
        for a in ReallocAlgorithm::BUILTINS {
            assert_eq!(a.name(), a.strategy().name(), "const key drifted for {a}");
        }
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct);
        assert_eq!(cfg.period, Duration::hours(1));
        assert_eq!(cfg.threshold, Duration::secs(60));
    }
}
