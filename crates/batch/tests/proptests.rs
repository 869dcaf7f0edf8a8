//! Property-based tests for the batch substrate: capacity safety, policy
//! guarantees and conservation laws under arbitrary rigid workloads.

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, EctNoise, JobId, JobSpec, Profile};
use grid_des::{Duration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Arbitrary job batch: (submit gap, procs, runtime, walltime margin).
fn jobs_strategy(max_procs: u32) -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((0u64..120, 1u32..=max_procs, 0u64..500, 1u64..300), 1..60).prop_map(
        |raw| {
            let mut t = 0;
            raw.iter()
                .enumerate()
                .map(|(i, &(gap, procs, rt, margin))| {
                    t += gap;
                    // Mix honest, over-estimating and killed jobs.
                    let wt = match i % 5 {
                        0 => rt.max(1),       // exact
                        4 => (rt / 2).max(1), // killed
                        _ => rt + margin,     // over-estimated
                    };
                    JobSpec::new(i as u64, t, procs, rt, wt)
                })
                .collect()
        },
    )
}

/// Event-accurate single-cluster driver mirroring the grid loop; panics on
/// any cluster invariant violation. Returns completion records.
fn drive(cluster: &mut Cluster, mut jobs: Vec<JobSpec>) -> Vec<(JobId, SimTime, SimTime)> {
    jobs.sort_by_key(|j| (j.submit, j.id));
    let mut arrivals: VecDeque<JobSpec> = jobs.into();
    let mut completions: Vec<(JobId, SimTime)> = Vec::new();
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        let t = [
            completions.iter().map(|c| c.1).min(),
            arrivals.front().map(|j| j.submit),
            cluster.next_reservation(now),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(t) = t else { break };
        assert!(t >= now);
        now = t;
        let due: Vec<(JobId, SimTime)> =
            completions.iter().filter(|c| c.1 == now).copied().collect();
        for (id, end) in due {
            let r = cluster.complete(id, end);
            completions.retain(|c| c.0 != id);
            out.push((id, r.start, end));
        }
        while arrivals.front().is_some_and(|j| j.submit == now) {
            let j = arrivals.pop_front().unwrap();
            cluster.submit(j, now).unwrap();
        }
        completions.extend(cluster.start_due(now));
        cluster.assert_invariants(now);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Profile: reserving at the spot earliest_fit returned never panics,
    /// and free counts never exceed the total.
    #[test]
    fn profile_fit_then_reserve_is_safe(
        ops in prop::collection::vec((0u64..2_000, 1u32..16, 1u64..400), 1..80),
    ) {
        let mut p = Profile::flat(16, SimTime(0));
        for &(after, procs, dur) in &ops {
            let start = p.earliest_fit(SimTime(after), procs, Duration(dur));
            prop_assert!(start >= SimTime(after));
            p.reserve(start, Duration(dur), procs);
            p.assert_invariants();
        }
    }

    /// Profile: earliest_fit returns the *earliest* feasible start — no
    /// feasible start exists strictly before it (checked at breakpoints).
    #[test]
    fn earliest_fit_is_earliest(
        ops in prop::collection::vec((0u64..500, 1u32..8, 1u64..200), 1..30),
        probe_procs in 1u32..8,
        probe_dur in 1u64..300,
    ) {
        let mut p = Profile::flat(8, SimTime(0));
        for &(after, procs, dur) in &ops {
            let s = p.earliest_fit(SimTime(after), procs, Duration(dur));
            p.reserve(s, Duration(dur), procs);
        }
        let d = Duration(probe_dur);
        let best = p.earliest_fit(SimTime(0), probe_procs, d);
        // Every candidate start before `best` (breakpoints and 0) fails.
        for (t, _) in p.points() {
            if t < best {
                prop_assert!(
                    p.min_free(t, d) < probe_procs,
                    "feasible start {t} found before earliest_fit result {best}"
                );
            }
        }
        prop_assert!(p.min_free(best, d) >= probe_procs);
    }

    /// Cluster: every submitted job completes exactly once, no capacity or
    /// ordering invariant breaks, and the kill rule bounds occupation.
    #[test]
    fn cluster_conserves_jobs(jobs in jobs_strategy(16)) {
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Easy] {
            let mut c = Cluster::new(ClusterSpec::new("p", 16, 1.0), policy);
            let n = jobs.len();
            let done = drive(&mut c, jobs.clone());
            prop_assert_eq!(done.len(), n);
            prop_assert!(c.is_idle());
            prop_assert_eq!(c.stats().completed as usize, n);
            // Kill rule: occupation <= scaled walltime.
            for (id, start, end) in &done {
                let spec = jobs.iter().find(|j| j.id == *id).unwrap();
                let scaled = spec.scaled(1.0);
                prop_assert!(end.since(*start) <= scaled.walltime);
                prop_assert_eq!(end.since(*start), scaled.effective_runtime());
                prop_assert!(*start >= spec.submit);
            }
        }
    }

    /// Cluster capacity: at any instant, the sum of processors of running
    /// jobs never exceeds the cluster size (verified via busy accounting).
    #[test]
    fn cluster_capacity_never_exceeded(jobs in jobs_strategy(12)) {
        // Use interval overlap counting on the completion records.
        let mut c = Cluster::new(ClusterSpec::new("p", 12, 1.0), BatchPolicy::Cbf);
        let done = drive(&mut c, jobs.clone());
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for (id, start, end) in &done {
            let procs = i64::from(jobs.iter().find(|j| j.id == *id).unwrap().procs);
            if start < end {
                events.push((*start, procs));
                events.push((*end, -procs));
            }
        }
        events.sort_by_key(|&(t, delta)| (t, delta)); // releases before acquires at ties
        let mut load = 0i64;
        for (_, delta) in events {
            load += delta;
            prop_assert!(load <= 12, "capacity exceeded: {load}");
        }
    }

    /// FCFS: start times are monotone in submission order.
    #[test]
    fn fcfs_starts_follow_submission_order(jobs in jobs_strategy(16)) {
        let mut c = Cluster::new(ClusterSpec::new("p", 16, 1.0), BatchPolicy::Fcfs);
        let mut done = drive(&mut c, jobs.clone());
        done.sort_by_key(|&(id, _, _)| id);
        // Jobs are ids 0..n in submission order (jobs_strategy builds them
        // sorted by submit); starts must be non-decreasing.
        let mut prev = SimTime::ZERO;
        for (_, start, _) in done {
            prop_assert!(start >= prev, "FCFS reordered starts");
            prev = start;
        }
    }

    /// The conservative guarantee: submitting a new job never changes any
    /// existing reservation, under either policy. (Note the makespan of CBF
    /// is *not* always <= FCFS's — early completions create classic
    /// scheduling anomalies — so the guarantee is about reservations.)
    #[test]
    fn submission_never_moves_existing_reservations(jobs in jobs_strategy(8)) {
        // EASY is excluded by design: an aggressive submit may legitimately
        // reshuffle unprotected tentative slots.
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            let mut c = Cluster::new(ClusterSpec::new("p", 8, 1.0), policy);
            // Fill the cluster so jobs queue up.
            c.submit(JobSpec::new(1_000, 0, 8, 5_000, 5_000), SimTime(0)).unwrap();
            c.start_due(SimTime(0));
            let now = SimTime(1);
            for j in &jobs {
                let mut j = *j;
                j.submit = now;
                let before: Vec<(JobId, SimTime)> = c
                    .waiting_jobs()
                    .map(|q| (q.job.id, q.reserved_start))
                    .collect();
                c.submit(j, now).unwrap();
                for (id, old) in before {
                    let new = c.current_ect(id, now).unwrap();
                    let wt = jobs.iter().chain(std::iter::once(&j))
                        .find(|x| x.id == id)
                        .map(|x| x.scaled(1.0).walltime)
                        .unwrap();
                    prop_assert_eq!(new, old + wt, "submission moved {}'s reservation", id);
                }
            }
        }
    }

    /// The monotone-estimate promise behind `incremental_tail`: under FCFS
    /// and CBF, with or without ECT noise, a tail submission never makes
    /// the dry-run estimate of any other job earlier (the reallocation
    /// round keeps pre-submit estimates as lower bounds on this).
    #[test]
    fn tail_submits_never_lower_estimates(
        jobs in jobs_strategy(8),
        probes in jobs_strategy(8),
        busy_procs in 1u32..=8,
        busy_for in 1u64..2_000,
        noise_seed in 0u64..4,
    ) {
        let probes: Vec<JobSpec> = probes.iter().map(|p| JobSpec { id: JobId(p.id.0 + 10_000), ..*p }).collect();
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            for noisy in [false, true] {
                let mut c = Cluster::new(ClusterSpec::new("p", 8, 1.3), policy);
                if noisy {
                    c.set_ect_noise(Some(EctNoise::new(noise_seed, 0.5)));
                }
                // A partly busy cluster, so tail jobs can back-fill holes.
                c.submit(JobSpec::new(1_000, 0, busy_procs, busy_for, busy_for), SimTime(0)).unwrap();
                c.start_due(SimTime(0));
                let now = SimTime(1);
                let estimates = |c: &mut Cluster| {
                    c.prepare_estimates(now);
                    probes.iter().map(|p| c.estimate_new_at(p, now)).collect::<Vec<_>>()
                };
                let mut before = estimates(&mut c);
                for j in &jobs {
                    c.submit(JobSpec { submit: now, ..*j }, now).unwrap();
                    let after = estimates(&mut c);
                    for (p, (old, new)) in probes.iter().zip(before.iter().zip(&after)) {
                        prop_assert!(
                            new >= old,
                            "{policy} noisy={noisy}: submitting {} lowered {}'s estimate {:?} -> {:?}",
                            j.id, p.id, old, new
                        );
                    }
                    before = after;
                }
            }
        }
    }

    /// Cancelling a waiting job never delays the *head* of the queue, and
    /// leaves every job queued before the victim untouched. (Jobs queued
    /// after it may legitimately move either way — Graham's anomalies.)
    #[test]
    fn cancel_prefix_and_head_guarantees(jobs in jobs_strategy(8), cancel_idx in 0usize..8) {
        for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
            let mut c = Cluster::new(ClusterSpec::new("p", 8, 1.0), policy);
            c.submit(JobSpec::new(1_000, 0, 8, 5_000, 5_000), SimTime(0)).unwrap();
            c.start_due(SimTime(0));
            let now = SimTime(1);
            for j in jobs.iter().take(8) {
                let mut j = *j;
                j.submit = now;
                let _ = c.submit(j, now);
            }
            let before: Vec<(JobId, SimTime)> = c
                .waiting_jobs()
                .map(|q| (q.job.id, q.reserved_start))
                .collect();
            prop_assume!(before.len() >= 2);
            let victim_pos = cancel_idx % before.len();
            let victim = before[victim_pos].0;
            c.cancel(victim, now).unwrap();
            let _ = c.next_reservation(now); // force recompute
            let after: Vec<(JobId, SimTime)> = c
                .waiting_jobs()
                .map(|q| (q.job.id, q.reserved_start))
                .collect();
            // Prefix before the victim is bit-identical.
            for i in 0..victim_pos {
                prop_assert_eq!(after[i], before[i], "cancel disturbed the prefix");
            }
            // The (possibly new) head never gets later.
            if let Some(&(_, new_head)) = after.first() {
                let old_first_surviving = before
                    .iter()
                    .find(|(id, _)| *id != victim)
                    .map(|&(_, t)| t)
                    .unwrap();
                prop_assert!(
                    new_head <= old_first_surviving,
                    "cancel delayed the head: {} -> {}",
                    old_first_surviving,
                    new_head
                );
            }
        }
    }

    /// Speed scaling: a faster cluster never finishes a lone job later.
    #[test]
    fn faster_cluster_is_not_slower(procs in 1u32..8, rt in 1u64..10_000, margin in 0u64..1_000) {
        let run = |speed: f64| {
            let mut c = Cluster::new(ClusterSpec::new("p", 8, speed), BatchPolicy::Fcfs);
            c.submit(JobSpec::new(0, 0, procs, rt, rt + margin), SimTime(0)).unwrap();
            let started = c.start_due(SimTime(0));
            started[0].1
        };
        prop_assert!(run(1.4) <= run(1.2));
        prop_assert!(run(1.2) <= run(1.0));
    }
}
