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

/// Outcome fingerprints of multiple submission (a copy of each job on
/// the `k` best clusters by ECT, siblings cancelled when one starts) on
/// 0.5% of April, seed 42: `(heterogeneous, policy, k, fingerprint)`.
const MULTISUB_PINS: [(bool, BatchPolicy, usize, u64); 8] = [
    (false, BatchPolicy::Fcfs, 2, 0x6bcc_06ab_d3a1_2d87),
    (false, BatchPolicy::Fcfs, 3, 0xc668_9e64_4afe_1774),
    (false, BatchPolicy::Cbf, 2, 0x798e_3925_c54e_6bd0),
    (false, BatchPolicy::Cbf, 3, 0x798e_3925_c54e_6bd0),
    (true, BatchPolicy::Fcfs, 2, 0xcd32_09c5_a0e4_24f1),
    (true, BatchPolicy::Fcfs, 3, 0x94b6_b324_dc49_6d2a),
    (true, BatchPolicy::Cbf, 2, 0x2405_8eef_38c9_cfb1),
    (true, BatchPolicy::Cbf, 3, 0x950d_ef7d_2d49_5c5c),
];

#[test]
fn multisub_outcomes_are_pinned() {
    for (het, policy, k, pinned) in MULTISUB_PINS {
        let multisub = ReallocAlgorithm::resolve_expr(&format!("multisub(k={k})")).unwrap();
        let out = run_once(
            Scenario::Apr,
            het,
            policy,
            Some(ReallocConfig::new(multisub, Heuristic::Mct)),
        );
        assert_eq!(
            out.records.len(),
            Scenario::Apr.generate_fraction(42, 0.005).len()
        );
        assert_eq!((out.total_ticks, out.total_reallocations), (0, 0));
        assert_eq!(fingerprint(&out), pinned, "het={het} {policy} k={k}");
    }
}
