//! End-to-end determinism pins: the whole stack (generator → meta-scheduler
//! → batch simulation → metrics) is a pure function of its inputs, across
//! every policy combination. These tests fingerprint full runs so that any
//! accidental nondeterminism (iteration-order leaks, uninitialised state,
//! floating-point divergence) is caught immediately.

use caniou_realloc::prelude::*;
use caniou_realloc::realloc::experiments::platform_for;

/// FNV-1a over the scheduling-relevant fields of a run outcome.
fn fingerprint(outcome: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for r in outcome.records.values() {
        mix(r.id.0);
        mix(r.submit.as_secs());
        mix(r.start.as_secs());
        mix(r.completion.as_secs());
        mix(r.cluster as u64);
        mix(u64::from(r.reallocations));
    }
    mix(outcome.total_reallocations);
    mix(outcome.total_ticks);
    h
}

fn run_once(
    scenario: Scenario,
    het: bool,
    policy: BatchPolicy,
    realloc: Option<ReallocConfig>,
) -> RunOutcome {
    let jobs = scenario.generate_fraction(42, 0.005);
    let mut config = GridConfig::new(platform_for(scenario, het), policy);
    if let Some(r) = realloc {
        config = config.with_realloc(r);
    }
    simulate(config, jobs).expect("schedulable")
}

#[test]
fn full_stack_runs_are_bit_reproducible() {
    for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Easy] {
        for realloc in [
            None,
            Some(ReallocConfig::new(
                ReallocAlgorithm::NoCancel,
                Heuristic::Sufferage,
            )),
            Some(ReallocConfig::new(
                ReallocAlgorithm::CancelAll,
                Heuristic::MaxRelGain,
            )),
        ] {
            let a = fingerprint(&run_once(Scenario::Mar, true, policy, realloc));
            let b = fingerprint(&run_once(Scenario::Mar, true, policy, realloc));
            assert_eq!(a, b, "{policy} {realloc:?} diverged between runs");
        }
    }
}

#[test]
fn distinct_configs_produce_distinct_outcomes() {
    // Sanity that the fingerprint actually discriminates: different
    // policies/heuristics/platforms land on different schedules for a
    // loaded scenario.
    let base = fingerprint(&run_once(Scenario::Apr, false, BatchPolicy::Fcfs, None));
    let cbf = fingerprint(&run_once(Scenario::Apr, false, BatchPolicy::Cbf, None));
    let het = fingerprint(&run_once(Scenario::Apr, true, BatchPolicy::Fcfs, None));
    let realloc = fingerprint(&run_once(
        Scenario::Apr,
        false,
        BatchPolicy::Fcfs,
        Some(ReallocConfig::new(
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
        )),
    ));
    assert_ne!(base, cbf, "FCFS vs CBF must differ");
    assert_ne!(base, het, "homogeneous vs heterogeneous must differ");
    assert_ne!(base, realloc, "reallocation must change the schedule");
}

#[test]
fn multisub_runs_are_reproducible_too() {
    use caniou_realloc::realloc::multisub::{simulate_multisub, MultiSubConfig};
    let jobs = Scenario::Feb.generate_fraction(42, 0.005);
    let run = |jobs: Vec<JobSpec>| {
        simulate_multisub(
            MultiSubConfig::new(Platform::grid5000(true), BatchPolicy::Cbf, 2),
            jobs,
        )
    };
    let a = fingerprint(&run(jobs.clone()));
    let b = fingerprint(&run(jobs));
    assert_eq!(a, b);
}
