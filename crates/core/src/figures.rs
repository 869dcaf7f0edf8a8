//! Reproductions of the paper's two illustrative figures.
//!
//! * **Figure 1** — "Example of reallocation between two clusters": a task
//!   finishing before its walltime frees resources; at the next
//!   reallocation event, waiting tasks whose expected completion time is
//!   better on the other batch system migrate there.
//! * **Figure 2** — "Side effects of a reallocation": a reallocation
//!   back-fills freed space, and combined with another job's early
//!   completion this can *delay* some jobs while others finish earlier —
//!   why the paper's metrics count both directions.
//!
//! Both figures are regenerated as before/after ASCII Gantt charts from
//! actual simulations (not hand-drawn), so they double as end-to-end
//! demonstrations of the mechanism.

use grid_batch::{BatchPolicy, ClusterSpec, GanttChart, JobId, JobSpec, Platform};
use grid_des::{Duration, SimTime};
use grid_metrics::RunOutcome;

use crate::grid::{simulate, GridConfig};
use crate::heuristics::Heuristic;
use crate::realloc::{ReallocAlgorithm, ReallocConfig};

/// Two small identical clusters, as in both figures.
fn two_cluster_platform(procs: u32) -> Platform {
    Platform::new(
        "figure",
        vec![
            ClusterSpec::new("Cluster 1", procs, 1.0),
            ClusterSpec::new("Cluster 2", procs, 1.0),
        ],
    )
}

/// Render one run's two clusters over `[0, horizon)`.
fn render_clusters(outcome: &RunOutcome, procs: u32, horizon: SimTime, width: usize) -> String {
    let mut out = String::new();
    for cluster in 0..2 {
        let mut chart = GanttChart::new();
        for r in outcome.records.values() {
            if r.cluster == cluster {
                chart.push(grid_batch::GanttEntry {
                    job: r.id,
                    procs: job_procs(r.id),
                    start: r.start,
                    end: r.completion,
                });
            }
        }
        out.push_str(&format!("Cluster {}:\n", cluster + 1));
        out.push_str(&chart.render(procs, SimTime::ZERO, horizon, width));
    }
    out
}

/// The figure workloads give job `i` a deterministic processor count so
/// the renderer can reconstruct it from the record alone.
fn job_procs(id: JobId) -> u32 {
    FIGURE_JOBS
        .iter()
        .find(|j| j.0 == id.0)
        .map(|j| j.2)
        .unwrap_or(1)
}

/// `(id, submit, procs, runtime, walltime)` — the figure-1 workload.
///
/// Shape (4-processor clusters):
/// * jobs 0/1 fill both clusters until t=600;
/// * job 2 ("f" in the paper) is reserved for 1200 s on cluster 1 but
///   actually finishes at t=900 — the walltime error;
/// * jobs 3..6 queue behind it; once job 2 ends early, the hourly
///   reallocation event finds better completion times for some of them on
///   cluster 2 and migrates them ("h" and "i" in the paper).
const FIGURE_JOBS: &[(u64, u64, u32, u64, u64)] = &[
    (0, 0, 4, 600, 600),     // fills cluster 1
    (1, 0, 4, 2_000, 2_100), // fills cluster 2 (long)
    (2, 10, 4, 300, 1_200),  // "f": big over-estimation, ends at 910
    (3, 20, 2, 600, 700),    // "g": waits on cluster 1
    (4, 30, 2, 600, 700),    // "h": waits, will migrate
    (5, 40, 4, 500, 600),    // "i": waits, will migrate
    (6, 50, 2, 300, 400),    // "j": tail job
];

fn figure_workload() -> Vec<JobSpec> {
    FIGURE_JOBS
        .iter()
        .map(|&(id, submit, procs, rt, wt)| JobSpec::new(id, submit, procs, rt, wt))
        .collect()
}

/// Run the figure workload with and without reallocation.
pub fn figure1_runs() -> (RunOutcome, RunOutcome) {
    let platform = two_cluster_platform(4);
    let base = simulate(
        GridConfig::new(platform.clone(), BatchPolicy::Fcfs),
        figure_workload(),
    )
    .expect("figure workload is schedulable");
    let realloc = simulate(
        GridConfig::new(platform, BatchPolicy::Fcfs).with_realloc(
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct)
                .with_period(Duration::minutes(20)),
        ),
        figure_workload(),
    )
    .expect("figure workload is schedulable");
    (base, realloc)
}

/// Figure 1 as printable text.
pub fn figure1() -> String {
    let (base, realloc) = figure1_runs();
    let horizon = base.makespan.max(realloc.makespan);
    let mut out = String::new();
    out.push_str("Figure 1: Example of reallocation between two clusters\n");
    out.push_str("(labels assigned per cluster in start order; time flows right)\n\n");
    out.push_str("== Before reallocation (no mechanism) ==\n");
    out.push_str(&render_clusters(&base, 4, horizon, 72));
    out.push_str("\n== After reallocation (hourly event, Algorithm 1, MCT) ==\n");
    out.push_str(&render_clusters(&realloc, 4, horizon, 72));
    out.push('\n');
    let migrated: Vec<String> = realloc
        .records
        .values()
        .filter(|r| r.reallocations > 0)
        .map(|r| {
            format!(
                "  job {} migrated to cluster {} — completion {} -> {}",
                r.id,
                r.cluster + 1,
                base.records[&r.id].completion.as_secs(),
                r.completion.as_secs()
            )
        })
        .collect();
    out.push_str(&format!(
        "Reallocations: {}\n{}\n",
        realloc.total_reallocations,
        migrated.join("\n")
    ));
    out
}

/// `(id, submit, procs, runtime, walltime)` — the figure-2 workload.
///
/// Platform: cluster 1 has 4 processors, cluster 2 has 2.
///
/// * job 0 fills cluster 1 but hugely over-estimates (ends at 1300, not
///   3600);
/// * job 1 fills cluster 2 honestly until 2600;
/// * job 2 maps to cluster 2 (ECT 3500 beats 4500) and waits there;
/// * at the t=2400 reallocation event, cluster 1 is empty, so job 2
///   migrates and starts at once (finishing **earlier**: 3200 < 3400);
/// * job 3 (4 processors) arrives at 2450: without reallocation it starts
///   immediately on the now-empty cluster 1, but with reallocation job 2's
///   migrated reservation blocks it — job 3 finishes **later** (4200 >
///   3450). Both side effects of the paper's Figure 2 in one run.
const FIGURE2_JOBS: &[(u64, u64, u32, u64, u64)] = &[
    (0, 0, 4, 1_300, 3_600),
    (1, 0, 2, 2_600, 2_600),
    (2, 50, 2, 800, 900),
    (3, 2_450, 4, 1_000, 1_100),
];

fn figure2_workload() -> Vec<JobSpec> {
    FIGURE2_JOBS
        .iter()
        .map(|&(id, submit, procs, rt, wt)| JobSpec::new(id, submit, procs, rt, wt))
        .collect()
}

/// The asymmetric figure-2 platform.
fn figure2_platform() -> Platform {
    Platform::new(
        "figure2",
        vec![
            ClusterSpec::new("Cluster 1", 4, 1.0),
            ClusterSpec::new("Cluster 2", 2, 1.0),
        ],
    )
}

/// Run the figure-2 workload with and without reallocation.
pub fn figure2_runs() -> (RunOutcome, RunOutcome) {
    let base = simulate(
        GridConfig::new(figure2_platform(), BatchPolicy::Fcfs),
        figure2_workload(),
    )
    .expect("figure workload is schedulable");
    let realloc = simulate(
        GridConfig::new(figure2_platform(), BatchPolicy::Fcfs).with_realloc(
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct)
                .with_period(Duration::minutes(20)),
        ),
        figure2_workload(),
    )
    .expect("figure workload is schedulable");
    (base, realloc)
}

/// Figure 2 as printable text.
pub fn figure2() -> String {
    let (base, realloc) = figure2_runs();
    let horizon = base.makespan.max(realloc.makespan);
    let mut out = String::new();
    out.push_str("Figure 2: Side effects of a reallocation\n\n");
    out.push_str("== Without reallocation ==\n");
    out.push_str(&render_clusters2(&base, horizon, 72));
    out.push_str("\n== With reallocation (Algorithm 1, MCT) ==\n");
    out.push_str(&render_clusters2(&realloc, horizon, 72));
    out.push('\n');
    for r in realloc.records.values() {
        let b = base.records[&r.id];
        let delta = r.completion.as_secs() as i64 - b.completion.as_secs() as i64;
        let verdict = match delta {
            d if d < 0 => "EARLIER",
            0 => "unchanged",
            _ => "LATER",
        };
        out.push_str(&format!(
            "  job {}: completion {} -> {} ({verdict})\n",
            r.id,
            b.completion.as_secs(),
            r.completion.as_secs()
        ));
    }
    out
}

/// Like [`render_clusters`] but sizing jobs from the figure-2 table and
/// using the asymmetric cluster sizes.
fn render_clusters2(outcome: &RunOutcome, horizon: SimTime, width: usize) -> String {
    let mut out = String::new();
    for (cluster, procs) in [(0usize, 4u32), (1, 2)] {
        let mut chart = GanttChart::new();
        for r in outcome.records.values() {
            if r.cluster == cluster {
                let p = FIGURE2_JOBS
                    .iter()
                    .find(|j| j.0 == r.id.0)
                    .map(|j| j.2)
                    .unwrap_or(1);
                chart.push(grid_batch::GanttEntry {
                    job: r.id,
                    procs: p,
                    start: r.start,
                    end: r.completion,
                });
            }
        }
        out.push_str(&format!("Cluster {}:\n", cluster + 1));
        out.push_str(&chart.render(procs, SimTime::ZERO, horizon, width));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_actually_reallocates_and_improves() {
        let (base, realloc) = figure1_runs();
        assert!(
            realloc.total_reallocations >= 1,
            "figure 1 needs a migration"
        );
        // At least one migrated job finishes earlier than without.
        let improved = realloc
            .records
            .values()
            .any(|r| r.reallocations > 0 && r.completion < base.records[&r.id].completion);
        assert!(improved, "figure 1's migration must pay off");
    }

    #[test]
    fn figure1_renders_both_panels() {
        let s = figure1();
        assert!(s.contains("Before reallocation"));
        assert!(s.contains("After reallocation"));
        assert!(s.contains("Cluster 1"));
        assert!(s.contains("Cluster 2"));
        assert!(s.contains("migrated"));
    }

    #[test]
    fn figure2_shows_both_side_effects() {
        let (base, realloc) = figure2_runs();
        let earlier = realloc
            .records
            .values()
            .filter(|r| r.completion < base.records[&r.id].completion)
            .count();
        let later = realloc
            .records
            .values()
            .filter(|r| r.completion > base.records[&r.id].completion)
            .count();
        assert!(earlier >= 1, "some job must finish earlier");
        assert!(later >= 1, "some job must finish later (the side effect)");
    }

    #[test]
    fn figure2_renders() {
        let s = figure2();
        assert!(s.contains("Side effects"));
        assert!(s.contains("EARLIER"));
        assert!(s.contains("LATER"));
    }
}
