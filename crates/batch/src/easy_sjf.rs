//! SJF-ordered EASY back-filling — the registry walkthrough policy.
//!
//! Classic EASY examines back-fill candidates in queue (submission) order;
//! a long-standing variant from the back-filling literature instead ranks
//! them shortest-job-first, which tightens packing around the protected
//! reservation at the cost of some fairness. The old `BatchPolicy` enum
//! could not express this (the examination *order* was hard-wired); with
//! the [`LocalScheduler`] seam it is this
//! one file plus one line in the `sched` registry.
//!
//! Semantics: jobs are examined in ascending scaled walltime (ties broken
//! by queue position, so the order is deterministic). The first job in
//! that order holds the protected reservation; every other job starts
//! immediately when it fits without delaying the already-admitted
//! reservations, and otherwise receives a tentative slot, exactly like
//! EASY's estimation phase.

use grid_des::SimTime;

use crate::profile::Profile;
use crate::sched::{BatchFit, LocalScheduler, QueueDelta, QueueScan};

/// EASY back-filling with shortest-job-first examination order.
#[derive(Debug)]
pub struct EasySjfScheduler;

impl LocalScheduler for EasySjfScheduler {
    fn name(&self) -> &'static str {
        "EASY-SJF"
    }

    // The SJF examination order is a function of the *whole* queue, so no
    // strictly-positive suffix index is ever repair-safe — but re-running
    // the full schedule against the warm running-set profile is exactly
    // what a rebuild would compute, without re-carving the running
    // reservations. Hence: always repair, always from index 0.
    fn repair_from(&self, _delta: QueueDelta) -> Option<usize> {
        Some(0)
    }

    fn tail_floor(&self, _reserved: &[SimTime], now: SimTime) -> SimTime {
        // Conservative dry-run estimate, like EASY: the aggressive case is
        // covered by the full recompute a real submission triggers.
        now
    }

    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        // `repair_from` always answers 0: the profile carries the running
        // set only and the whole queue is re-examined.
        debug_assert_eq!(from, 0, "EASY-SJF only schedules the full queue");
        if queue.is_empty() {
            return;
        }
        // Shortest (scaled) walltime first; queue position breaks ties.
        let mut order: Vec<usize> = (0..queue.len()).collect();
        order.sort_by_key(|&i| (queue.walltime[i], i));
        let mut fit = BatchFit::new();
        let mut pending: Vec<usize> = Vec::new();
        for (rank, &i) in order.iter().enumerate() {
            let (procs, walltime) = (queue.procs[i], queue.walltime[i]);
            if rank == 0 {
                // The SJF head holds the only protected reservation.
                queue.reserved[i] = fit.place(profile, now, procs, walltime);
                continue;
            }
            if profile.min_free(now, walltime) >= procs {
                profile.reserve(now, walltime, procs);
                queue.reserved[i] = now;
            } else {
                pending.push(i);
            }
        }
        for i in pending {
            queue.reserved[i] = fit.place(profile, now, queue.procs[i], queue.walltime[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::{JobId, JobSpec};
    use crate::platform::ClusterSpec;
    use crate::sched::BatchPolicy;

    fn cluster(procs: u32, policy: BatchPolicy) -> Cluster {
        Cluster::new(ClusterSpec::new("test", procs, 1.0), policy)
    }

    /// A short job submitted late overtakes longer waiting jobs under
    /// EASY-SJF but not under plain EASY.
    #[test]
    fn sjf_order_prefers_short_jobs() {
        let build = |policy| {
            let mut c = cluster(4, policy);
            // Fill the machine until t=1000.
            c.submit(JobSpec::new(100, 0, 4, 1_000, 1_000), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            // Two long jobs, then a short one — all 3 need the full width,
            // so only the examination order decides who goes first.
            c.submit(JobSpec::new(1, 0, 4, 900, 900), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(2, 1, 4, 800, 800), SimTime(1))
                .unwrap();
            c.submit(JobSpec::new(3, 2, 4, 50, 60), SimTime(2)).unwrap();
            c
        };
        let res = |c: &Cluster, id: u64| {
            c.waiting_jobs()
                .find(|q| q.job.id == JobId(id))
                .map(|q| q.reserved_start)
                .unwrap()
        };
        let easy = build(BatchPolicy::Easy);
        let sjf = build(BatchPolicy::EasySjf);
        // EASY protects the submission-order head (job 1).
        assert_eq!(res(&easy, 1), SimTime(1_000));
        assert!(res(&easy, 3) > res(&easy, 1));
        // EASY-SJF protects the shortest job instead: job 3 runs first.
        assert_eq!(res(&sjf, 3), SimTime(1_000));
        assert!(res(&sjf, 1) > res(&sjf, 3));
    }

    #[test]
    fn sjf_backfills_around_the_protected_short_job() {
        let mut c = cluster(8, BatchPolicy::EasySjf);
        // 6 procs busy until t=100.
        c.submit(JobSpec::new(100, 0, 6, 100, 100), SimTime(0))
            .unwrap();
        c.start_due(SimTime(0));
        // Wide short job (head under SJF) must wait for the release; a
        // narrow long job back-fills the two free processors right away.
        c.submit(JobSpec::new(1, 0, 8, 50, 50), SimTime(0)).unwrap();
        c.submit(JobSpec::new(2, 1, 2, 300, 400), SimTime(1))
            .unwrap();
        let starts: Vec<(JobId, SimTime)> = c
            .waiting_jobs()
            .map(|q| (q.job.id, q.reserved_start))
            .collect();
        // Job 1 (walltime 50) is the SJF head: reserved at 100. Job 2
        // would delay it (needs [1, 401) over 2 procs, leaving 6 procs —
        // but job 1 needs all 8), so job 2 waits until 150.
        assert!(starts.contains(&(JobId(1), SimTime(100))));
        assert!(starts.contains(&(JobId(2), SimTime(150))));
    }

    #[test]
    fn workload_conserves_jobs() {
        let mut c = cluster(16, BatchPolicy::EasySjf);
        let mut x: u64 = 999;
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
        let done = crate::cluster::tests::drive(&mut c, jobs);
        assert_eq!(done.len(), 200);
        assert!(c.is_idle());
    }
}
