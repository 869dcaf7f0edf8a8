//! Run outcomes and the reference-run comparison of §3.4.

use std::collections::BTreeMap;

use grid_batch::JobId;
use grid_des::{Duration, SimTime};

/// Final fate of one job in one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submission instant (arrival at the meta-scheduler).
    pub submit: SimTime,
    /// Instant execution began.
    pub start: SimTime,
    /// Instant execution ended (actual completion, kill included).
    pub completion: SimTime,
    /// Cluster index the job finally executed on.
    pub cluster: usize,
    /// How many times this job was migrated between clusters.
    pub reallocations: u32,
}

impl JobRecord {
    /// Response time: "the time spent in the system from the submission to
    /// the completion" (§3.4, citing Feitelson & Rudolph).
    pub fn response(&self) -> Duration {
        self.completion.since(self.submit)
    }

    /// Waiting time: submission to start.
    pub fn wait(&self) -> Duration {
        self.start.since(self.submit)
    }
}

/// Everything a single simulation run produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Per-job records, keyed (and therefore ordered) by job id.
    pub records: BTreeMap<JobId, JobRecord>,
    /// Total migrations performed ("a job can be counted several times if
    /// it was migrated several times").
    pub total_reallocations: u64,
    /// Number of reallocation events (hourly ticks) that migrated at least
    /// one job.
    pub active_ticks: u64,
    /// Number of reallocation events triggered in total.
    pub total_ticks: u64,
    /// ECT contract violations observed at migration time (§6 "contract
    /// checking"); always zero on a dedicated platform without injected
    /// estimation noise.
    pub contract_violations: u64,
    /// Jobs evicted by injected site outages (each eviction counts once,
    /// running or waiting); always zero on a healthy grid.
    pub outage_evictions: u64,
    /// Virtual instant the last job completed.
    pub makespan: SimTime,
}

impl RunOutcome {
    /// Insert one job record, updating the makespan.
    pub fn push(&mut self, rec: JobRecord) {
        self.makespan = self.makespan.max(rec.completion);
        self.records.insert(rec.id, rec);
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no job completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Mean response time over all jobs, in seconds.
    pub fn mean_response(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let sum: u128 = self
            .records
            .values()
            .map(|r| u128::from(r.response().as_secs()))
            .sum();
        sum as f64 / self.records.len() as f64
    }

    /// Mean waiting time over all jobs, in seconds.
    pub fn mean_wait(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let sum: u128 = self
            .records
            .values()
            .map(|r| u128::from(r.wait().as_secs()))
            .sum();
        sum as f64 / self.records.len() as f64
    }

    /// Largest per-job reallocation count (starvation indicator, §4.3).
    pub fn max_job_reallocations(&self) -> u32 {
        self.records
            .values()
            .map(|r| r.reallocations)
            .max()
            .unwrap_or(0)
    }
}

/// The §3.4 metrics of a run measured against its no-reallocation
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Jobs present in both runs.
    pub n_jobs: usize,
    /// Jobs whose completion time changed.
    pub impacted: usize,
    /// Of the impacted, jobs that finished strictly earlier.
    pub earlier: usize,
    /// Of the impacted, jobs that finished strictly later.
    pub later: usize,
    /// Total migrations in the reallocation run.
    pub reallocations: u64,
    /// `impacted / n_jobs * 100`.
    pub pct_impacted: f64,
    /// `earlier / impacted * 100` (0 when nothing was impacted).
    pub pct_earlier: f64,
    /// Mean response of impacted jobs with reallocation divided by the same
    /// mean without; `< 1` is a gain. 1.0 when nothing was impacted.
    pub rel_avg_response: f64,
    /// Starvation (§4.3 warns Algorithm 2 "can produce starvation"): the
    /// most migrations any one job suffered.
    pub max_migrations: u32,
    /// Mean migrations over the jobs migrated at least once (0 when
    /// none was).
    pub mean_migrations_of_migrated: f64,
    /// Jobs migrated at least three times (churn candidates).
    pub churned_jobs: usize,
    /// Worst single-job response time in the reallocation run, seconds.
    pub worst_response_s: u64,
}

impl Comparison {
    /// Compare `run` (with reallocation) against `baseline` (without).
    ///
    /// # Panics
    /// Panics if the two runs do not contain exactly the same job ids —
    /// comparing different workloads is always a harness bug.
    pub fn against_baseline(baseline: &RunOutcome, run: &RunOutcome) -> Comparison {
        assert_eq!(
            baseline.records.len(),
            run.records.len(),
            "runs must cover the same jobs"
        );
        let mut impacted = 0usize;
        let mut earlier = 0usize;
        let mut later = 0usize;
        let mut resp_base: u128 = 0;
        let mut resp_run: u128 = 0;
        let (mut max_migrations, mut migrated, mut migrations) = (0u32, 0usize, 0u64);
        let (mut churned_jobs, mut worst_response_s) = (0usize, 0u64);
        for (id, b) in &baseline.records {
            let r = run
                .records
                .get(id)
                .unwrap_or_else(|| panic!("job {id} missing from reallocation run"));
            if r.reallocations > 0 {
                max_migrations = max_migrations.max(r.reallocations);
                migrated += 1;
                migrations += u64::from(r.reallocations);
                churned_jobs += usize::from(r.reallocations >= 3);
            }
            worst_response_s = worst_response_s.max(r.response().as_secs());
            if r.completion != b.completion {
                impacted += 1;
                if r.completion < b.completion {
                    earlier += 1;
                } else {
                    later += 1;
                }
                resp_base += u128::from(b.response().as_secs());
                resp_run += u128::from(r.response().as_secs());
            }
        }
        let n_jobs = baseline.records.len();
        let pct_impacted = if n_jobs == 0 {
            0.0
        } else {
            impacted as f64 / n_jobs as f64 * 100.0
        };
        let pct_earlier = if impacted == 0 {
            0.0
        } else {
            earlier as f64 / impacted as f64 * 100.0
        };
        let rel_avg_response = if impacted == 0 || resp_base == 0 {
            1.0
        } else {
            resp_run as f64 / resp_base as f64
        };
        Comparison {
            n_jobs,
            impacted,
            earlier,
            later,
            reallocations: run.total_reallocations,
            pct_impacted,
            pct_earlier,
            rel_avg_response,
            max_migrations,
            mean_migrations_of_migrated: if migrated == 0 {
                0.0
            } else {
                migrations as f64 / migrated as f64
            },
            churned_jobs,
            worst_response_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, submit: u64, start: u64, completion: u64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            submit: SimTime(submit),
            start: SimTime(start),
            completion: SimTime(completion),
            cluster: 0,
            reallocations: 0,
        }
    }

    fn outcome(recs: &[JobRecord]) -> RunOutcome {
        let mut o = RunOutcome::default();
        for r in recs {
            o.push(*r);
        }
        o
    }

    #[test]
    fn response_and_wait() {
        let r = rec(1, 10, 30, 100);
        assert_eq!(r.response(), Duration(90));
        assert_eq!(r.wait(), Duration(20));
    }

    #[test]
    fn identical_runs_have_no_impact() {
        let a = outcome(&[rec(1, 0, 0, 10), rec(2, 0, 10, 30)]);
        let c = Comparison::against_baseline(&a, &a.clone());
        assert_eq!(c.impacted, 0);
        assert_eq!(c.pct_impacted, 0.0);
        assert_eq!(c.pct_earlier, 0.0);
        assert_eq!(c.rel_avg_response, 1.0);
    }

    #[test]
    fn impacted_jobs_counted_and_classified() {
        let base = outcome(&[
            rec(1, 0, 0, 100),
            rec(2, 0, 0, 100),
            rec(3, 0, 0, 100),
            rec(4, 0, 0, 100),
        ]);
        // Job 1 earlier, job 2 later, jobs 3-4 unchanged.
        let run = outcome(&[
            rec(1, 0, 0, 50),
            rec(2, 0, 0, 200),
            rec(3, 0, 0, 100),
            rec(4, 0, 0, 100),
        ]);
        let c = Comparison::against_baseline(&base, &run);
        assert_eq!(c.impacted, 2);
        assert_eq!(c.earlier, 1);
        assert_eq!(c.later, 1);
        assert_eq!(c.pct_impacted, 50.0);
        assert_eq!(c.pct_earlier, 50.0);
        // Impacted responses: base 100+100=200, run 50+200=250.
        assert!((c.rel_avg_response - 1.25).abs() < 1e-12);
    }

    #[test]
    fn rel_avg_response_gain() {
        let base = outcome(&[rec(1, 0, 0, 1000), rec(2, 0, 0, 500)]);
        let run = outcome(&[rec(1, 0, 0, 400), rec(2, 0, 0, 350)]);
        let c = Comparison::against_baseline(&base, &run);
        assert_eq!(c.impacted, 2);
        assert_eq!(c.pct_earlier, 100.0);
        assert!((c.rel_avg_response - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unchanged_jobs_excluded_from_response_ratio() {
        // A huge unchanged job must not dilute the ratio.
        let base = outcome(&[rec(1, 0, 0, 100), rec(2, 0, 0, 1_000_000)]);
        let run = outcome(&[rec(1, 0, 0, 50), rec(2, 0, 0, 1_000_000)]);
        let c = Comparison::against_baseline(&base, &run);
        assert_eq!(c.impacted, 1);
        assert!((c.rel_avg_response - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same jobs")]
    fn mismatched_job_sets_panic() {
        let a = outcome(&[rec(1, 0, 0, 10)]);
        let b = outcome(&[rec(1, 0, 0, 10), rec(2, 0, 0, 10)]);
        let _ = Comparison::against_baseline(&a, &b);
    }

    #[test]
    fn outcome_aggregates() {
        let mut o = outcome(&[rec(1, 0, 10, 110), rec(2, 50, 60, 160)]);
        assert_eq!(o.len(), 2);
        assert_eq!(o.makespan, SimTime(160));
        assert!((o.mean_response() - 110.0).abs() < 1e-12);
        assert!((o.mean_wait() - 10.0).abs() < 1e-12);
        o.records.get_mut(&JobId(1)).unwrap().reallocations = 3;
        assert_eq!(o.max_job_reallocations(), 3);
    }

    #[test]
    fn empty_outcome_defaults() {
        let o = RunOutcome::default();
        assert!(o.is_empty());
        assert_eq!(o.mean_response(), 0.0);
        assert_eq!(o.max_job_reallocations(), 0);
    }
}
