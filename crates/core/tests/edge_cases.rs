//! Edge-case integration tests for the reallocation layer: event-ordering
//! corners, degenerate workloads, and configuration extremes.

use grid_batch::{BatchPolicy, ClusterSpec, JobSpec, Platform};
use grid_des::{Duration, SimTime};
use grid_realloc::{simulate, GridConfig, Heuristic, ReallocAlgorithm, ReallocConfig};

fn two_clusters(p0: u32, p1: u32) -> Platform {
    Platform::new(
        "edge",
        vec![
            ClusterSpec::new("c0", p0, 1.0),
            ClusterSpec::new("c1", p1, 1.0),
        ],
    )
}

#[test]
fn empty_workload_is_a_noop() {
    let out = simulate(
        GridConfig::new(two_clusters(4, 4), BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
        )),
        vec![],
    )
    .unwrap();
    assert!(out.records.is_empty());
    assert_eq!(out.total_ticks, 0, "no first submission, no ticks");
}

#[test]
fn completion_and_tick_at_same_instant_order_correctly() {
    // Job 0 completes exactly at the first tick (t=3600). The completion
    // must be processed first, so the tick sees cluster 0 free and can
    // migrate nothing (queue is empty) — but more importantly the run
    // terminates cleanly with no double-processing.
    let jobs = vec![
        JobSpec::new(0, 0, 4, 3_600, 3_600),
        JobSpec::new(1, 0, 4, 100, 7_200),
    ];
    let out = simulate(
        GridConfig::new(two_clusters(4, 4), BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
        )),
        jobs,
    )
    .unwrap();
    assert_eq!(out.records.len(), 2);
    assert_eq!(
        out.records[&grid_batch::JobId(0)].completion,
        SimTime(3_600)
    );
}

#[test]
fn arrival_exactly_at_tick_is_mapped_then_not_reallocated_same_tick() {
    // A job arriving at t=3600 (the tick instant) is mapped by MCT in the
    // same batch; the tick runs after arrivals, so the job is eligible for
    // immediate reallocation — but MCT already put it at its best ECT, so
    // nothing moves.
    let jobs = vec![
        JobSpec::new(0, 0, 4, 10_000, 10_000), // blocks cluster 0
        JobSpec::new(1, 3_600, 2, 100, 200),   // arrives at the tick
    ];
    let out = simulate(
        GridConfig::new(two_clusters(4, 4), BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
        )),
        jobs,
    )
    .unwrap();
    assert_eq!(out.total_reallocations, 0);
    // Mapped straight to the free cluster 1 and ran immediately.
    let r = out.records[&grid_batch::JobId(1)];
    assert_eq!(r.cluster, 1);
    assert_eq!(r.start, SimTime(3_600));
}

#[test]
fn no_migration_when_everything_is_saturated() {
    // Both clusters equally saturated with identical walltime-honest jobs:
    // reallocation events fire but never find a 60 s improvement.
    let mut jobs = Vec::new();
    for i in 0..20u64 {
        jobs.push(JobSpec::new(i, 0, 4, 5_000, 5_000));
    }
    let out = simulate(
        GridConfig::new(two_clusters(4, 4), BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::NoCancel,
            Heuristic::MaxGain,
        )),
        jobs,
    )
    .unwrap();
    assert_eq!(out.total_reallocations, 0);
    assert!(out.total_ticks > 0);
    assert_eq!(out.active_ticks, 0);
}

#[test]
fn job_fitting_single_cluster_stays_under_cancel_all() {
    // An 8-proc job can only run on cluster 0 (cluster 1 has 4): cancel-all
    // must resubmit it there every tick without counting migrations.
    let jobs = vec![
        JobSpec::new(0, 0, 8, 10_000, 10_000), // blocks cluster 0
        JobSpec::new(1, 10, 8, 500, 600),      // waits; only fits cluster 0
        JobSpec::new(2, 20, 4, 9_000, 9_500),  // keeps cluster 1 busy too
    ];
    let out = simulate(
        GridConfig::new(two_clusters(8, 4), BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::CancelAll,
            Heuristic::Sufferage,
        )),
        jobs,
    )
    .unwrap();
    let r = out.records[&grid_batch::JobId(1)];
    assert_eq!(r.cluster, 0);
    assert_eq!(r.reallocations, 0);
}

#[test]
fn tiny_period_and_zero_threshold_terminate() {
    // Aggressive settings: 1-minute period, zero threshold. The run must
    // still terminate (ticks stop once all jobs completed) and conserve
    // jobs despite heavy churn.
    let jobs: Vec<JobSpec> = (0..30)
        .map(|i| JobSpec::new(i, i * 37, 2 + (i % 3) as u32, 400, 2_000))
        .collect();
    let out = simulate(
        GridConfig::new(two_clusters(6, 6), BatchPolicy::Cbf).with_realloc(
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::MinMin)
                .with_period(Duration::minutes(1))
                .with_threshold(Duration::ZERO),
        ),
        jobs,
    )
    .unwrap();
    assert_eq!(out.records.len(), 30);
}

#[test]
fn walltime_adjustment_changes_heterogeneous_schedules() {
    let platform = Platform::new(
        "het",
        vec![
            ClusterSpec::new("slow", 4, 1.0),
            ClusterSpec::new("fast", 4, 2.0),
        ],
    );
    // One job; MCT sends it to the fast cluster either way (ECT 500 vs
    // 1000 adjusted, and with unadjusted walltime the ECT ties at 1000 ->
    // lowest index wins instead).
    let job = vec![JobSpec::new(0, 0, 4, 1_000, 1_000)];
    let adjusted = simulate(
        GridConfig::new(platform.clone(), BatchPolicy::Fcfs),
        job.clone(),
    )
    .unwrap();
    let unadjusted = simulate(
        GridConfig::new(platform, BatchPolicy::Fcfs).with_walltime_adjustment(false),
        job,
    )
    .unwrap();
    let a = adjusted.records[&grid_batch::JobId(0)];
    let u = unadjusted.records[&grid_batch::JobId(0)];
    // Adjusted: fast cluster, done at 500 (runtime scaled).
    assert_eq!(a.cluster, 1);
    assert_eq!(a.completion, SimTime(500));
    // Unadjusted: both ECTs are 1000 -> MCT tie-breaks to cluster 0 (slow),
    // done at 1000. The reservation mis-sizing visibly degrades mapping.
    assert_eq!(u.cluster, 0);
    assert_eq!(u.completion, SimTime(1_000));
}

#[test]
fn kill_rule_applies_on_migration_target_speed() {
    // A killed job (runtime > walltime) migrated to a faster cluster is
    // killed at the *scaled* walltime of that cluster.
    let platform = Platform::new(
        "het",
        vec![
            ClusterSpec::new("slow", 4, 1.0),
            ClusterSpec::new("fast", 4, 1.4),
        ],
    );
    let jobs = vec![
        JobSpec::new(0, 0, 4, 20_000, 20_000), // blocks cluster 0 (honest)
        JobSpec::new(1, 0, 4, 18_000, 18_000), // blocks cluster 1 (honest)... ends at 12858
        JobSpec::new(2, 10, 4, 9_999_999, 7_000), // bad job, waits on cluster 1 (fast: better ECT)
    ];
    let out = simulate(
        GridConfig::new(platform, BatchPolicy::Fcfs).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
        )),
        jobs,
    )
    .unwrap();
    let r = out.records[&grid_batch::JobId(2)];
    let expected_walltime = Duration(7_000).scale_by_speed(if r.cluster == 1 { 1.4 } else { 1.0 });
    assert_eq!(r.completion.since(r.start), expected_walltime);
}

#[test]
fn heuristics_agree_on_single_waiting_job() {
    // With exactly one waiting job every heuristic must make the same
    // migration decision (selection order is irrelevant).
    let mk_jobs = || {
        vec![
            JobSpec::new(0, 0, 4, 8_000, 9_000), // blocks cluster 0
            JobSpec::new(1, 0, 4, 1_000, 9_000), // blocks cluster 1, ends early
            JobSpec::new(2, 10, 2, 500, 600),    // waits on cluster 0
        ]
    };
    let mut outcomes = Vec::new();
    for h in Heuristic::ALL {
        let out = simulate(
            GridConfig::new(two_clusters(4, 4), BatchPolicy::Fcfs)
                .with_realloc(ReallocConfig::new(ReallocAlgorithm::NoCancel, h)),
            mk_jobs(),
        )
        .unwrap();
        outcomes.push((h, out.records[&grid_batch::JobId(2)]));
    }
    let first = &outcomes[0].1;
    for (h, r) in &outcomes[1..] {
        assert_eq!(r, first, "{h} diverged on a single-job round");
    }
}

#[test]
fn zero_runtime_jobs_survive_reallocation_rounds() {
    let jobs = vec![
        JobSpec::new(0, 0, 4, 50_000, 50_000), // blocks cluster 0
        JobSpec::new(1, 0, 4, 40_000, 50_000), // blocks cluster 1
        JobSpec::new(2, 10, 1, 0, 600),        // instant failure, queued
        JobSpec::new(3, 20, 1, 0, 600),        // another one
    ];
    let out = simulate(
        GridConfig::new(two_clusters(4, 4), BatchPolicy::Cbf).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
        )),
        jobs,
    )
    .unwrap();
    assert_eq!(out.records.len(), 4);
    for id in [2u64, 3] {
        let r = &out.records[&grid_batch::JobId(id)];
        assert_eq!(r.completion, r.start, "zero-runtime job runs instantly");
    }
}
