//! Ablations and extensions beyond the paper's headline experiments,
//! numbered A1–A6 as the `tables --ablations` report prints them:
//!
//! * **A1 · Period sweep** — the paper fixes the reallocation period at
//!   one hour and argues it is "rare enough … and often enough"; the
//!   sweep quantifies that trade-off.
//! * **A2 · Threshold sweep** — Algorithm 1's one-minute improvement
//!   threshold.
//! * **A3 · Mapping ablation** — MCT vs Random vs Round-Robin initial
//!   mapping (§2.1 lists all three).
//! * **A4 · Starvation probe** — §4.3 warns Algorithm 2 "can produce
//!   starvation"; we measure per-job migration counts and worst response
//!   times.
//! * **A5 · Walltime adjustment** — §1's automatic scaling of walltimes
//!   to cluster speeds, switched off on a heterogeneous platform.
//! * **A6 · Multi-submission baseline** — the related-work alternative
//!   (Sonmez et al., reference 23 of the paper): submit a copy of each
//!   job to `k` clusters, cancel the other copies when one starts.
//!   Approximated a priori: each job is mapped to its best cluster at
//!   submission *and re-examined at every tick against all clusters with
//!   a zero threshold*, which bounds what duplicate submission can
//!   achieve without holding multiple queue slots.

use grid_batch::BatchPolicy;
use grid_des::Duration;
use grid_metrics::Comparison;
use grid_workload::Scenario;
use rayon::prelude::*;

use crate::experiments::{run_one, SuiteConfig};
use crate::grid::{GridConfig, GridSim};
use crate::heuristics::Heuristic;
use crate::mapping::Mapping;
use crate::realloc::{ReallocAlgorithm, ReallocConfig};

/// One point of the period sweep.
#[derive(Debug, Clone, Copy)]
pub struct PeriodPoint {
    /// Reallocation period.
    pub period: Duration,
    /// Comparison against the (period-independent) reference run.
    pub comparison: Comparison,
}

/// Sweep the reallocation period (A1).
pub fn period_sweep(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    algorithm: ReallocAlgorithm,
    heuristic: Heuristic,
    periods: &[Duration],
    suite: &SuiteConfig,
) -> Vec<PeriodPoint> {
    let baseline = run_one(scenario, heterogeneous, policy, None, suite);
    periods
        .par_iter()
        .map(|&period| {
            let cfg = ReallocConfig::new(algorithm, heuristic)
                .with_period(period)
                .with_threshold(suite.threshold);
            let run = run_one(scenario, heterogeneous, policy, Some(cfg), suite);
            PeriodPoint {
                period,
                comparison: Comparison::against_baseline(&baseline, &run),
            }
        })
        .collect()
}

/// One point of the threshold sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdPoint {
    /// Algorithm 1 improvement threshold.
    pub threshold: Duration,
    /// Comparison against the reference run.
    pub comparison: Comparison,
}

/// Sweep Algorithm 1's improvement threshold (A2).
pub fn threshold_sweep(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    heuristic: Heuristic,
    thresholds: &[Duration],
    suite: &SuiteConfig,
) -> Vec<ThresholdPoint> {
    let baseline = run_one(scenario, heterogeneous, policy, None, suite);
    thresholds
        .par_iter()
        .map(|&threshold| {
            let cfg = ReallocConfig::new(ReallocAlgorithm::NoCancel, heuristic)
                .with_period(suite.period)
                .with_threshold(threshold);
            let run = run_one(scenario, heterogeneous, policy, Some(cfg), suite);
            ThresholdPoint {
                threshold,
                comparison: Comparison::against_baseline(&baseline, &run),
            }
        })
        .collect()
}

/// One row of the mapping ablation.
#[derive(Debug, Clone, Copy)]
pub struct MappingPoint {
    /// The initial mapping policy.
    pub mapping: Mapping,
    /// Mean response time without reallocation, seconds.
    pub mean_response_no_realloc: f64,
    /// Mean response time with reallocation, seconds.
    pub mean_response_realloc: f64,
}

/// Compare initial mapping policies with and without reallocation (A3).
/// Reallocation should recover most of what a poor initial mapping loses.
pub fn mapping_ablation(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    realloc: ReallocConfig,
    suite: &SuiteConfig,
) -> Vec<MappingPoint> {
    let mappings = [Mapping::Mct, Mapping::Random, Mapping::RoundRobin];
    mappings
        .par_iter()
        .map(|&mapping| {
            let jobs = scenario.generate_fraction(suite.seed, suite.fraction);
            let platform = crate::experiments::platform_for(scenario, heterogeneous);
            let base_cfg = GridConfig::new(platform.clone(), policy)
                .with_mapping(mapping)
                .with_seed(suite.seed);
            let base = GridSim::new(base_cfg.clone(), jobs.clone())
                .run()
                .expect("schedulable");
            let with = GridSim::new(base_cfg.with_realloc(realloc), jobs)
                .run()
                .expect("schedulable");
            MappingPoint {
                mapping,
                mean_response_no_realloc: base.mean_response(),
                mean_response_realloc: with.mean_response(),
            }
        })
        .collect()
}

/// Starvation indicators for one configuration (A4).
#[derive(Debug, Clone, Copy)]
pub struct StarvationReport {
    /// Largest number of migrations any single job suffered.
    pub max_migrations: u32,
    /// Mean migrations over migrated jobs.
    pub mean_migrations_of_migrated: f64,
    /// Number of jobs migrated at least 3 times (churn candidates).
    pub churned_jobs: usize,
    /// Worst single-job response time, seconds.
    pub worst_response: u64,
}

/// Probe Algorithm 2's starvation behaviour (§4.3).
pub fn starvation_probe(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    algorithm: ReallocAlgorithm,
    heuristic: Heuristic,
    suite: &SuiteConfig,
) -> StarvationReport {
    let cfg = ReallocConfig::new(algorithm, heuristic)
        .with_period(suite.period)
        .with_threshold(suite.threshold);
    let run = run_one(scenario, heterogeneous, policy, Some(cfg), suite);
    let migrated: Vec<u32> = run
        .records
        .values()
        .map(|r| r.reallocations)
        .filter(|&m| m > 0)
        .collect();
    StarvationReport {
        max_migrations: run.max_job_reallocations(),
        mean_migrations_of_migrated: if migrated.is_empty() {
            0.0
        } else {
            migrated.iter().map(|&m| f64::from(m)).sum::<f64>() / migrated.len() as f64
        },
        churned_jobs: migrated.iter().filter(|&&m| m >= 3).count(),
        worst_response: run
            .records
            .values()
            .map(|r| r.response().as_secs())
            .max()
            .unwrap_or(0),
    }
}

/// Multi-submission-style aggressive reallocation (A6): Algorithm 1 with a
/// zero threshold fired at a short period approximates the related-work
/// multiple-submission scheme's "always sit in the best queue" behaviour.
pub fn aggressive_realloc_config(heuristic: Heuristic) -> ReallocConfig {
    ReallocConfig::new(ReallocAlgorithm::NoCancel, heuristic)
        .with_period(Duration::minutes(10))
        .with_threshold(Duration::ZERO)
}

/// One row of the mechanism comparison (A6).
#[derive(Debug, Clone)]
pub struct MechanismPoint {
    /// Row label.
    pub label: String,
    /// Mean response time, seconds.
    pub mean_response: f64,
    /// Control-plane actions: migrations for reallocation, extra copies
    /// submitted (and later cancelled) for multiple submission.
    pub control_actions: u64,
}

/// Head-to-head comparison of the paper's reallocation against the
/// related-work multiple-submission scheme (Sonmez et al.) and the plain
/// baseline, on identical workloads (A6).
pub fn mechanism_comparison(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    suite: &SuiteConfig,
) -> Vec<MechanismPoint> {
    let jobs = scenario.generate_fraction(suite.seed, suite.fraction);
    let platform = crate::experiments::platform_for(scenario, heterogeneous);
    let mut out = Vec::new();
    let base = GridSim::new(GridConfig::new(platform.clone(), policy), jobs.clone())
        .run()
        .expect("schedulable");
    out.push(MechanismPoint {
        label: "baseline (MCT only)".into(),
        mean_response: base.mean_response(),
        control_actions: 0,
    });
    for (label, algo, h) in [
        (
            "realloc Algorithm 1 / MCT",
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
        ),
        (
            "realloc Algorithm 2 / MinMin",
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
        ),
    ] {
        let run = GridSim::new(
            GridConfig::new(platform.clone(), policy).with_realloc(ReallocConfig::new(algo, h)),
            jobs.clone(),
        )
        .run()
        .expect("schedulable");
        out.push(MechanismPoint {
            label: label.into(),
            mean_response: run.mean_response(),
            control_actions: run.total_reallocations,
        });
    }
    for k in [2usize, 3] {
        let run = crate::multisub::simulate_multisub(
            crate::multisub::MultiSubConfig::new(platform.clone(), policy, k),
            jobs.clone(),
        );
        out.push(MechanismPoint {
            label: format!("multi-submission k={k}"),
            mean_response: run.mean_response(),
            // Each logical job posts up to k-1 extra copies.
            control_actions: (k as u64 - 1) * jobs.len() as u64,
        });
    }
    out
}

/// One row of the backfill-policy ablation (A7).
#[derive(Debug, Clone, Copy)]
pub struct BackfillPoint {
    /// Local batch policy.
    pub policy: BatchPolicy,
    /// Mean response time without reallocation, seconds.
    pub mean_response_no_realloc: f64,
    /// Mean response time with reallocation, seconds.
    pub mean_response_realloc: f64,
    /// Migrations performed in the reallocation run.
    pub reallocations: u64,
}

/// Compare FCFS, conservative (CBF) and aggressive (EASY) back-filling
/// with and without reallocation (A7). The paper's related work (Sabin et
/// al., reference 19) reports conservative back-filling superior to
/// aggressive in multi-site settings; this ablation lets the claim be
/// checked under the reallocation mechanism too.
pub fn backfill_ablation(
    scenario: Scenario,
    heterogeneous: bool,
    realloc: ReallocConfig,
    suite: &SuiteConfig,
) -> Vec<BackfillPoint> {
    [BatchPolicy::Fcfs, BatchPolicy::Cbf, BatchPolicy::Easy]
        .into_iter()
        .map(|policy| {
            let base = run_one(scenario, heterogeneous, policy, None, suite);
            let with = run_one(scenario, heterogeneous, policy, Some(realloc), suite);
            BackfillPoint {
                policy,
                mean_response_no_realloc: base.mean_response(),
                mean_response_realloc: with.mean_response(),
                reallocations: with.total_reallocations,
            }
        })
        .collect()
}

/// One row of the walltime-adjustment ablation (A5).
#[derive(Debug, Clone, Copy)]
pub struct WalltimeAdjustmentPoint {
    /// Whether walltimes were scaled to cluster speeds.
    pub adjusted: bool,
    /// Mean response time with reallocation, seconds.
    pub mean_response: f64,
    /// Migrations performed.
    pub reallocations: u64,
}

/// Quantify §1's "automatic adjustment of the walltime to the speed of the
/// cluster" on a heterogeneous platform (A5): without it, reservations on
/// fast clusters are oversized, packing degrades and ECT estimates for
/// migration candidates are inflated.
pub fn walltime_adjustment_ablation(
    scenario: Scenario,
    policy: BatchPolicy,
    realloc: ReallocConfig,
    suite: &SuiteConfig,
) -> Vec<WalltimeAdjustmentPoint> {
    [true, false]
        .into_iter()
        .map(|adjusted| {
            let jobs = scenario.generate_fraction(suite.seed, suite.fraction);
            let platform = crate::experiments::platform_for(scenario, true);
            let run = GridSim::new(
                GridConfig::new(platform, policy)
                    .with_realloc(realloc)
                    .with_walltime_adjustment(adjusted),
                jobs,
            )
            .run()
            .expect("schedulable");
            WalltimeAdjustmentPoint {
                adjusted,
                mean_response: run.mean_response(),
                reallocations: run.total_reallocations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SuiteConfig {
        SuiteConfig {
            fraction: 0.005,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn period_sweep_produces_points() {
        let periods = [Duration::minutes(30), Duration::hours(2)];
        let pts = period_sweep(
            Scenario::Jun,
            true,
            BatchPolicy::Fcfs,
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
            &periods,
            &quick(),
        );
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].period, Duration::minutes(30));
        assert!(pts.iter().all(|p| p.comparison.n_jobs > 0));
    }

    #[test]
    fn shorter_period_reallocates_at_least_as_much() {
        let periods = [Duration::minutes(15), Duration::hours(4)];
        let pts = period_sweep(
            Scenario::Apr,
            false,
            BatchPolicy::Fcfs,
            ReallocAlgorithm::NoCancel,
            Heuristic::MinMin,
            &periods,
            &quick(),
        );
        // More frequent events examine more states; on loaded traces this
        // produces at least as many migrations.
        assert!(
            pts[0].comparison.reallocations >= pts[1].comparison.reallocations,
            "15min: {} vs 4h: {}",
            pts[0].comparison.reallocations,
            pts[1].comparison.reallocations,
        );
    }

    #[test]
    fn zero_threshold_migrates_at_least_as_much_as_large() {
        let thresholds = [Duration::ZERO, Duration::minutes(30)];
        let pts = threshold_sweep(
            Scenario::Apr,
            true,
            BatchPolicy::Fcfs,
            Heuristic::Mct,
            &thresholds,
            &quick(),
        );
        assert!(pts[0].comparison.reallocations >= pts[1].comparison.reallocations);
    }

    #[test]
    fn mapping_ablation_runs_all_policies() {
        let pts = mapping_ablation(
            Scenario::Jun,
            true,
            BatchPolicy::Cbf,
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
            &quick(),
        );
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.mean_response_no_realloc >= 0.0);
            assert!(p.mean_response_realloc >= 0.0);
        }
    }

    #[test]
    fn starvation_probe_reports() {
        let rep = starvation_probe(
            Scenario::Apr,
            false,
            BatchPolicy::Fcfs,
            ReallocAlgorithm::CancelAll,
            Heuristic::MinMin,
            &quick(),
        );
        assert!(rep.worst_response > 0);
        assert!(rep.mean_migrations_of_migrated >= 0.0);
    }

    #[test]
    fn aggressive_config_shape() {
        let cfg = aggressive_realloc_config(Heuristic::Mct);
        assert_eq!(cfg.period, Duration::minutes(10));
        assert_eq!(cfg.threshold, Duration::ZERO);
    }

    #[test]
    fn backfill_ablation_covers_three_policies() {
        let pts = backfill_ablation(
            Scenario::Jun,
            false,
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
            &quick(),
        );
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].policy, BatchPolicy::Fcfs);
        assert_eq!(pts[1].policy, BatchPolicy::Cbf);
        assert_eq!(pts[2].policy, BatchPolicy::Easy);
        // Back-filling (either flavour) should beat plain FCFS on mean
        // response for the paper-style workloads.
        assert!(pts[1].mean_response_no_realloc <= pts[0].mean_response_no_realloc);
    }

    #[test]
    fn mechanism_comparison_has_all_rows() {
        let pts = mechanism_comparison(Scenario::Jun, true, BatchPolicy::Fcfs, &quick());
        assert_eq!(pts.len(), 5);
        assert!(pts[0].label.contains("baseline"));
        assert!(pts.iter().all(|p| p.mean_response > 0.0));
        assert_eq!(pts[0].control_actions, 0);
        assert!(pts[3].label.contains("k=2") && pts[4].label.contains("k=3"));
    }

    #[test]
    fn walltime_ablation_runs_both_modes() {
        let pts = walltime_adjustment_ablation(
            Scenario::Jun,
            BatchPolicy::Cbf,
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
            &quick(),
        );
        assert_eq!(pts.len(), 2);
        assert!(pts[0].adjusted && !pts[1].adjusted);
        assert!(pts.iter().all(|p| p.mean_response > 0.0));
    }
}
