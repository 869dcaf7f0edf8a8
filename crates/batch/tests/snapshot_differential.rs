//! Differential oracle for the copy-on-write estimate snapshot: under
//! random `submit` / `cancel` / time-advance / `fail_until` churn, the
//! read-only [`Cluster::estimate_new_at`] path (behind
//! [`Cluster::prepare_estimates`]) must answer every hypothetical
//! submission **bit-identically** to the historical mutable
//! [`Cluster::estimate_new`] path — and the read-only path must never
//! dirty the cluster: no recomputes, no suffix repairs, no stat drift,
//! and the cached snapshot survives for the next column to reuse.
//!
//! The churn generator deliberately crosses every snapshot-invalidation
//! edge: submissions and cancellations that mark the schedule dirty,
//! completions that release live reservations, outages that truncate the
//! whole availability profile, and quiet probe-only steps where the
//! snapshot must be *reused*, not rebuilt.

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, EctNoise, JobId, JobSpec};
use grid_des::SimTime;
use proptest::prelude::*;

const TOTAL: u32 = 24;

/// One encoded churn op: `(kind, a, b, c)` interpreted per mix.
type RawOp = (u8, u64, u64, u32);

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u8..8, 0u64..1_000, 1u64..400, 1u32..=TOTAL + 8),
        1..max_ops,
    )
}

/// The differential check itself: mutable answer, then frozen answer,
/// then frozen again — all three equal, and the frozen calls leave every
/// schedule-health counter untouched and the snapshot cached.
fn check_probe(c: &mut Cluster, probe: &JobSpec, now: SimTime) -> Result<(), TestCaseError> {
    let mutable = c.estimate_new(probe, now);
    c.prepare_estimates(now);
    let before = (
        c.stats().recomputes,
        c.stats().suffix_repairs,
        c.stats().first_fit_probes,
        c.stats().ect_column_refills,
    );
    let frozen = c.estimate_new_at(probe, now);
    let again = c.estimate_new_at(probe, now);
    prop_assert_eq!(mutable, frozen, "snapshot diverged from mutable estimate");
    prop_assert_eq!(frozen, again, "snapshot answer is not stable");
    let after = (
        c.stats().recomputes,
        c.stats().suffix_repairs,
        c.stats().first_fit_probes,
        c.stats().ect_column_refills,
    );
    prop_assert_eq!(before, after, "read-only dry run dirtied the cluster");
    // A quiet re-prepare must reuse the cached snapshot, not rebuild it.
    let reuses = c.stats().ect_snapshot_reuses;
    c.prepare_estimates(now);
    prop_assert_eq!(
        c.stats().ect_snapshot_reuses,
        reuses + 1,
        "snapshot was rebuilt instead of reused"
    );
    // A batched column answers the same, in the middle of other jobs.
    let column = c.estimate_new_batch([Some(probe), None, Some(probe)], now);
    prop_assert_eq!(
        column,
        vec![mutable, None, mutable],
        "batched column diverged"
    );
    Ok(())
}

/// Drive one cluster through the op tape, differentially probing after
/// every step. Completions are event-accurate: time only advances through
/// the same (completion, reservation) event loop the grid driver uses.
fn churn(policy: BatchPolicy, ops: Vec<RawOp>) -> Result<(), TestCaseError> {
    churn_with_noise(policy, None, ops)
}

/// [`churn`] on a cluster with the ECT-noise hook installed.
fn churn_with_noise(
    policy: BatchPolicy,
    noise: Option<EctNoise>,
    ops: Vec<RawOp>,
) -> Result<(), TestCaseError> {
    let mut c = Cluster::new(ClusterSpec::new("diff", TOTAL, 1.0), policy);
    c.set_ect_noise(noise);
    let mut completions: Vec<(JobId, SimTime)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;

    for (step, &(kind, a, b, procs)) in ops.iter().enumerate() {
        match kind {
            // Submit a fresh job (honest, padded and killed walltimes mix
            // via the id parity).
            0..=2 => {
                let p = procs.clamp(1, TOTAL);
                let rt = b;
                let wt = match next_id % 3 {
                    0 => rt,
                    1 => rt + a % 200,
                    _ => (rt / 2).max(1),
                };
                let job = JobSpec::new(next_id, now.as_secs(), p, rt, wt);
                next_id += 1;
                c.submit(job, now).unwrap();
            }
            // Cancel a random waiting job.
            3 => {
                let ids: Vec<JobId> = c.waiting_jobs().map(|q| q.job.id).collect();
                if !ids.is_empty() {
                    let id = ids[a as usize % ids.len()];
                    c.cancel(id, now).expect("picked from the waiting queue");
                }
            }
            // Advance time, draining every completion / reservation event
            // on the way (start_due panics on a missed reservation, so
            // this also proves the probes never perturbed the schedule).
            4 | 5 => {
                let target = SimTime(now.as_secs() + a % 600);
                loop {
                    let t = [
                        completions.iter().map(|e| e.1).min(),
                        c.next_reservation(now),
                    ]
                    .into_iter()
                    .flatten()
                    .filter(|&t| t <= target)
                    .min();
                    let Some(t) = t else { break };
                    now = t;
                    let due: Vec<(JobId, SimTime)> =
                        completions.iter().filter(|e| e.1 == now).copied().collect();
                    for (id, end) in due {
                        c.complete(id, end);
                        completions.retain(|e| e.0 != id);
                    }
                    completions.extend(c.start_due(now));
                }
                now = target;
            }
            // Outage: everything dies, the profile truncates to the
            // recovery instant.
            6 => {
                let until = SimTime(now.as_secs() + 1 + b % 300);
                let (evicted_running, _waiting) = c.fail_until(until, now);
                completions.retain(|e| evicted_running.iter().all(|j| j.id != e.0));
            }
            // Probe-only quiet step: no churn, the snapshot from the
            // previous step's probe (if any) must be reused below.
            _ => {}
        }
        c.assert_invariants(now);

        // Differential probes: a plausible job, a tight full-width job,
        // and an infeasible one (procs may exceed the site — both paths
        // must agree on `None` too).
        let probes = [
            JobSpec::new(
                1_000_000 + step as u64,
                now.as_secs(),
                procs.min(TOTAL),
                b,
                b + a % 100,
            ),
            JobSpec::new(
                2_000_000 + step as u64,
                now.as_secs(),
                TOTAL,
                1 + a % 50,
                1 + a % 50,
            ),
            JobSpec::new(3_000_000 + step as u64, now.as_secs(), procs, b, b),
        ];
        for probe in &probes {
            check_probe(&mut c, probe, now)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FCFS: the snapshot caches the tail floor and answers from the
    /// post-floor staircase instead of a first-fit — a stale floor or a
    /// wrong step would show here.
    #[test]
    fn snapshot_matches_mutable_estimates_under_churn_fcfs(ops in ops_strategy(40)) {
        churn(BatchPolicy::Fcfs, ops)?;
    }

    /// The FCFS staircase under ECT noise: the perturbation applies to
    /// the staircase's start exactly as to the first-fit's.
    #[test]
    fn staircase_matches_first_fit_under_churn_with_ect_noise(
        ops in ops_strategy(40),
        seed in 0u64..1_000,
        sigma in prop::sample::select(vec![0.1, 0.5, 1.5]),
    ) {
        churn_with_noise(BatchPolicy::Fcfs, Some(EctNoise::new(seed, sigma)), ops)?;
    }

    /// Conservative backfilling: estimates descend through backfill
    /// holes, exercising the frontier-free single-probe path.
    #[test]
    fn snapshot_matches_mutable_estimates_under_churn_cbf(ops in ops_strategy(40)) {
        churn(BatchPolicy::Cbf, ops)?;
    }
}
