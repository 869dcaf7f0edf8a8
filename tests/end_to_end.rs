//! Cross-crate integration tests: full simulations through the public
//! facade, checking paper-level properties end to end.

use caniou_realloc::prelude::*;
use caniou_realloc::realloc::experiments::platform_for;

/// Run a scenario fraction with and without reallocation and return
/// `(baseline, run, comparison)`.
fn run_pair(
    scenario: Scenario,
    het: bool,
    policy: BatchPolicy,
    algo: ReallocAlgorithm,
    h: Heuristic,
    frac: f64,
) -> (RunOutcome, RunOutcome, Comparison) {
    let jobs = scenario.generate_fraction(11, frac);
    let platform = platform_for(scenario, het);
    let base =
        simulate(GridConfig::new(platform.clone(), policy), jobs.clone()).expect("schedulable");
    let run = simulate(
        GridConfig::new(platform, policy).with_realloc(ReallocConfig::new(algo, h)),
        jobs,
    )
    .expect("schedulable");
    let cmp = Comparison::against_baseline(&base, &run);
    (base, run, cmp)
}

#[test]
fn every_job_completes_with_and_without_reallocation() {
    let (base, run, cmp) = run_pair(
        Scenario::Mar,
        true,
        BatchPolicy::Cbf,
        ReallocAlgorithm::NoCancel,
        Heuristic::MinMin,
        0.01,
    );
    assert_eq!(base.records.len(), run.records.len());
    assert_eq!(cmp.n_jobs, base.records.len());
    assert!(cmp.n_jobs > 100);
}

#[test]
fn response_times_are_consistent() {
    let (_, run, _) = run_pair(
        Scenario::Feb,
        false,
        BatchPolicy::Fcfs,
        ReallocAlgorithm::CancelAll,
        Heuristic::MaxGain,
        0.01,
    );
    for r in run.records.values() {
        assert!(
            r.start >= r.submit,
            "job {} started before submission",
            r.id
        );
        assert!(
            r.completion >= r.start,
            "job {} completed before starting",
            r.id
        );
    }
}

#[test]
fn reallocation_counts_match_per_job_records() {
    let (_, run, _) = run_pair(
        Scenario::Apr,
        true,
        BatchPolicy::Fcfs,
        ReallocAlgorithm::CancelAll,
        Heuristic::MinMin,
        0.01,
    );
    let per_job: u64 = run
        .records
        .values()
        .map(|r| u64::from(r.reallocations))
        .sum();
    assert_eq!(per_job, run.total_reallocations);
    assert!(run.total_ticks >= run.active_ticks);
}

#[test]
fn no_realloc_run_is_invariant_of_realloc_config_absence() {
    // Two baseline runs of the same scenario are bit-identical.
    let jobs = Scenario::May.generate_fraction(3, 0.01);
    let mk = || {
        simulate(
            GridConfig::new(Platform::grid5000(false), BatchPolicy::Fcfs),
            jobs.clone(),
        )
        .unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.records, b.records);
    assert_eq!(a.total_reallocations, 0);
    assert_eq!(a.total_ticks, 0);
}

#[test]
fn heterogeneous_platform_prefers_faster_clusters_for_equal_queues() {
    // A stream of identical jobs at t=0: with empty clusters, MCT sends
    // each to the cluster with the best ECT, which scales with speed.
    let jobs: Vec<JobSpec> = (0..30)
        .map(|i| JobSpec::new(i, 0, 64, 3_600, 7_200))
        .collect();
    let out = simulate(
        GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf),
        jobs,
    )
    .unwrap();
    // Toulouse (speed 1.4) must receive at least as many of the first jobs
    // as Bordeaux (speed 1.0) — its ECTs are 40% shorter.
    let per_cluster = |c: usize| out.records.values().filter(|r| r.cluster == c).count();
    assert!(
        per_cluster(2) >= per_cluster(0),
        "toulouse {} vs bordeaux {}",
        per_cluster(2),
        per_cluster(0)
    );
}

#[test]
fn cancel_all_reallocates_more_than_no_cancel_in_aggregate() {
    // §4.3's claim is an aggregate one; individual (scenario, heuristic)
    // cells can go either way, so sum over the heuristics.
    let total = |algo: ReallocAlgorithm| -> u64 {
        Heuristic::ALL
            .iter()
            .map(|&h| {
                run_pair(Scenario::Apr, false, BatchPolicy::Fcfs, algo, h, 0.02)
                    .1
                    .total_reallocations
            })
            .sum()
    };
    let no_cancel = total(ReallocAlgorithm::NoCancel);
    let cancel_all = total(ReallocAlgorithm::CancelAll);
    assert!(
        cancel_all > no_cancel,
        "cancel-all {cancel_all} vs no-cancel {no_cancel}"
    );
}

#[test]
fn impacted_never_exceeds_total_and_percentages_are_sane() {
    for algo in ReallocAlgorithm::ALL {
        let (_, _, cmp) = run_pair(
            Scenario::Jun,
            true,
            BatchPolicy::Fcfs,
            algo,
            Heuristic::Sufferage,
            0.01,
        );
        assert!(cmp.impacted <= cmp.n_jobs);
        assert_eq!(cmp.earlier + cmp.later, cmp.impacted);
        assert!((0.0..=100.0).contains(&cmp.pct_impacted));
        assert!((0.0..=100.0).contains(&cmp.pct_earlier));
        assert!(cmp.rel_avg_response > 0.0);
    }
}

#[test]
fn swf_written_traces_replay_identically() {
    use caniou_realloc::workload::swf;
    let jobs = Scenario::Jun.generate_fraction(9, 0.005);
    let text = swf::write(&jobs, &[]);
    let parsed = swf::parse(&text).unwrap().jobs;
    assert_eq!(jobs.len(), parsed.len());
    let run = |js: Vec<JobSpec>| {
        simulate(
            GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf),
            js,
        )
        .unwrap()
    };
    let a = run(jobs);
    let b = run(parsed);
    assert_eq!(
        a.records, b.records,
        "SWF round-trip must not change the simulation"
    );
}

#[test]
fn walltime_overestimation_is_what_reallocation_exploits() {
    // With perfectly honest walltimes (runtime == walltime) and both
    // clusters estimated exactly, Algorithm 1 finds far fewer profitable
    // moves than with the paper's over-estimated walltimes.
    let honest: Vec<JobSpec> = Scenario::Jun
        .generate_fraction(5, 0.01)
        .into_iter()
        .map(|mut j| {
            j.walltime_ref = Duration(j.runtime_ref.as_secs().max(1));
            j
        })
        .collect();
    let sloppy = Scenario::Jun.generate_fraction(5, 0.01);
    let count = |jobs: Vec<JobSpec>| {
        simulate(
            GridConfig::new(Platform::grid5000(false), BatchPolicy::Fcfs).with_realloc(
                ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
            ),
            jobs,
        )
        .unwrap()
        .total_reallocations
    };
    let honest_moves = count(honest);
    let sloppy_moves = count(sloppy);
    assert!(
        sloppy_moves >= honest_moves,
        "over-estimation should create migration opportunities: {sloppy_moves} vs {honest_moves}"
    );
}

#[test]
fn gantt_chart_can_be_built_from_any_run() {
    let jobs = Scenario::Jun.generate_fraction(2, 0.005);
    let out = simulate(
        GridConfig::new(Platform::grid5000(false), BatchPolicy::Cbf),
        jobs.clone(),
    )
    .unwrap();
    let mut chart = GanttChart::new();
    let by_id: std::collections::HashMap<JobId, &JobSpec> =
        jobs.iter().map(|j| (j.id, j)).collect();
    for r in out.records.values().filter(|r| r.cluster == 0).take(40) {
        chart.push(caniou_realloc::batch::GanttEntry {
            job: r.id,
            procs: by_id[&r.id].procs,
            start: r.start,
            end: r.completion,
        });
    }
    let rendered = chart.render(640, SimTime::ZERO, out.makespan.max(SimTime(1)), 100);
    assert!(rendered.lines().count() > 600, "one text row per processor");
}
