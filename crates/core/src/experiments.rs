//! The paper's experiment grid (§4) and table builders.
//!
//! 364 experiments: 7 traces × {homogeneous, heterogeneous} × {FCFS, CBF}
//! gives 28 *reference* runs without reallocation; each is then re-run
//! under 2 reallocation algorithms × 6 heuristics (336 runs). Tables 2–17
//! are four metrics × two algorithms × two heterogeneity levels.
//!
//! This module holds the single-run entry points ([`run_one`],
//! [`run_one_observed`]) and the table builders; the matrix itself is
//! expanded, executed and aggregated by the `grid-campaign` crate, which
//! folds back into [`SuiteResults`]. Every run is deterministic per
//! `(scenario, seed)`.

use std::collections::HashMap;

use grid_batch::{BatchPolicy, Platform};
use grid_des::Duration;
use grid_fault::Fault;
use grid_metrics::{Comparison, PaperTable, RunOutcome};
use grid_workload::Scenario;

use crate::grid::{GridConfig, GridSim};
use crate::heuristics::Heuristic;
use crate::realloc::{ReallocAlgorithm, ReallocConfig};

/// Which §3.4 metric a table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// % of jobs whose completion time changed (Tables 2, 3, 10, 11).
    PctImpacted,
    /// Number of reallocations (Tables 4, 5, 12, 13).
    Reallocations,
    /// % of impacted jobs finishing earlier (Tables 6, 7, 14, 15).
    PctEarlier,
    /// Relative average response time (Tables 8, 9, 16, 17).
    RelAvgResponse,
}

impl Metric {
    /// All metrics, in the paper's table order.
    pub const ALL: [Metric; 4] = [
        Metric::PctImpacted,
        Metric::Reallocations,
        Metric::PctEarlier,
        Metric::RelAvgResponse,
    ];

    /// Extract the metric value from a comparison.
    pub fn of(self, c: &Comparison) -> f64 {
        match self {
            Metric::PctImpacted => c.pct_impacted,
            Metric::Reallocations => c.reallocations as f64,
            Metric::PctEarlier => c.pct_earlier,
            Metric::RelAvgResponse => c.rel_avg_response,
        }
    }

    /// Does the paper's table carry an AVG column for this metric?
    /// (The reallocation-count tables 4/5/12/13 do not.)
    pub fn has_avg(self) -> bool {
        !matches!(self, Metric::Reallocations)
    }

    /// Decimal places used in the paper.
    pub fn decimals(self) -> usize {
        match self {
            Metric::Reallocations => 0,
            _ => 2,
        }
    }

    /// Human description used in table titles.
    pub fn describe(self) -> &'static str {
        match self {
            Metric::PctImpacted => "Percentage of jobs that have their completion time changed",
            Metric::Reallocations => "Number of reallocations",
            Metric::PctEarlier => "Percentage of jobs finishing earlier",
            Metric::RelAvgResponse => "Relative average response time",
        }
    }
}

/// Global knobs for a suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Workload seed.
    pub seed: u64,
    /// Per-site job-count fraction (1.0 = the paper's Table 1 counts; small
    /// values give quick smoke suites).
    pub fraction: f64,
    /// Reallocation period.
    pub period: Duration,
    /// Algorithm 1 improvement threshold.
    pub threshold: Duration,
    /// Fault injection ([`Fault::NONE`] = the paper's healthy grid).
    pub fault: Fault,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: 42,
            fraction: 1.0,
            period: Duration::hours(1),
            threshold: Duration::secs(60),
            fault: Fault::NONE,
        }
    }
}

impl SuiteConfig {
    /// A fast configuration for tests and smoke benches.
    pub fn smoke() -> Self {
        SuiteConfig {
            fraction: 0.01,
            ..SuiteConfig::default()
        }
    }
}

/// The platform a scenario runs on (§3.2).
pub fn platform_for(scenario: Scenario, heterogeneous: bool) -> Platform {
    match scenario {
        Scenario::PwaG5k => Platform::pwa_g5k(heterogeneous),
        _ => Platform::grid5000(heterogeneous),
    }
}

/// Identifier of one reallocation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentKey {
    /// Workload scenario (table column).
    pub scenario: Scenario,
    /// Local batch policy (table row group).
    pub policy: BatchPolicy,
    /// Reallocation algorithm (table family).
    pub algorithm: ReallocAlgorithm,
    /// Selection heuristic (table row).
    pub heuristic: Heuristic,
}

/// All comparisons for one heterogeneity level.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// `true` for the heterogeneous platforms.
    pub heterogeneous: bool,
    /// Comparison against the reference run, per experiment.
    pub comparisons: HashMap<ExperimentKey, Comparison>,
}

/// Run one simulation (reference when `realloc` is `None`).
pub fn run_one(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    realloc: Option<ReallocConfig>,
    suite: &SuiteConfig,
) -> RunOutcome {
    build_sim(scenario, heterogeneous, policy, realloc, suite)
        .run()
        .expect("paper scenarios are schedulable")
}

/// [`run_one`] with an instrumentation handle attached and the
/// per-cluster [`ClusterStats`](grid_batch::ClusterStats) plus the
/// grid-level [`GridStats`](crate::GridStats) returned alongside the
/// outcome. The outcome is byte-identical to `run_one`'s — the recorder
/// observes, it never steers — so campaign cache records are unaffected
/// by whether a run was observed.
pub fn run_one_observed(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    realloc: Option<ReallocConfig>,
    suite: &SuiteConfig,
    obs: &grid_obs::Obs,
) -> (RunOutcome, Vec<grid_batch::ClusterStats>, crate::GridStats) {
    let mut sim = build_sim(scenario, heterogeneous, policy, realloc, suite);
    sim.set_obs(obs.clone());
    sim.run_instrumented()
        .expect("paper scenarios are schedulable")
}

/// The simulator both entry points run: the scenario's workload (with
/// trace perturbation applied before the driver sees it; outages and ECT
/// noise are injected by the driver itself) on the scenario's platform.
fn build_sim(
    scenario: Scenario,
    heterogeneous: bool,
    policy: BatchPolicy,
    realloc: Option<ReallocConfig>,
    suite: &SuiteConfig,
) -> GridSim {
    let mut jobs = scenario.generate_fraction(suite.seed, suite.fraction);
    if let Some(perturb) = &suite.fault.config().perturb {
        perturb.apply(&mut jobs, suite.seed);
    }
    let mut config = GridConfig::new(platform_for(scenario, heterogeneous), policy)
        .with_seed(suite.seed)
        .with_fault(suite.fault);
    if let Some(r) = realloc {
        config = config.with_realloc(r);
    }
    GridSim::new(config, jobs)
}

/// Row-group (policy) rendering order: registered policies in registry
/// order first, then expression-only handles (parameterised variants,
/// per-site mixes — which `BatchPolicy::all()` does not list) in
/// canonical-name order. Deduplicated, deterministic.
pub fn ordered_policies<'a>(keys: impl IntoIterator<Item = &'a ExperimentKey>) -> Vec<BatchPolicy> {
    let mut present: Vec<BatchPolicy> = Vec::new();
    for k in keys {
        if !present.contains(&k.policy) {
            present.push(k.policy);
        }
    }
    let registry = BatchPolicy::all();
    present.sort_by_key(|p| {
        (
            registry
                .iter()
                .position(|r| r == p)
                .unwrap_or(registry.len()),
            p.name(),
        )
    });
    present
}

/// Row (heuristic) rendering order, analogous to [`ordered_policies`].
pub fn ordered_heuristics<'a>(keys: impl IntoIterator<Item = &'a ExperimentKey>) -> Vec<Heuristic> {
    let mut present: Vec<Heuristic> = Vec::new();
    for k in keys {
        if !present.contains(&k.heuristic) {
            present.push(k.heuristic);
        }
    }
    let registry = Heuristic::all();
    present.sort_by_key(|h| {
        (
            registry
                .iter()
                .position(|r| r == h)
                .unwrap_or(registry.len()),
            h.label(),
        )
    });
    present
}

impl SuiteResults {
    /// Build the paper table for `(algorithm, metric)` from these results.
    pub fn table(
        &self,
        algorithm: ReallocAlgorithm,
        metric: Metric,
        scenarios: &[Scenario],
    ) -> PaperTable {
        let columns: Vec<String> = scenarios.iter().map(|s| s.label().to_string()).collect();
        let flavour = if self.heterogeneous {
            "heterogeneous"
        } else {
            "homogeneous"
        };
        let note = algorithm.strategy().title_note();
        let title = match table_number(algorithm, metric, self.heterogeneous) {
            Some(number) => format!(
                "Table {number}: {} when reallocation is performed on {flavour} platforms{note}",
                metric.describe(),
            ),
            // Strategies beyond the paper's two have no table numbers.
            None => format!(
                "{} when reallocation is performed on {flavour} platforms{note} [{algorithm}]",
                metric.describe(),
            ),
        };
        let mut table =
            PaperTable::new(title, columns, metric.has_avg()).decimals(metric.decimals());
        // Render only the (policy, heuristic) rows the results actually
        // cover — campaigns may restrict either axis, use registry
        // policies the paper's tables don't list, or use expression-only
        // handles (parameterised variants, per-site mixes) no registry
        // enumerates — registered entries first in registry order.
        let has_row = |policy: BatchPolicy, heuristic: Heuristic| {
            self.comparisons
                .keys()
                .any(|k| k.policy == policy && k.heuristic == heuristic && k.algorithm == algorithm)
        };
        for policy in ordered_policies(self.comparisons.keys()) {
            for heuristic in ordered_heuristics(self.comparisons.keys()) {
                if !has_row(policy, heuristic) {
                    continue;
                }
                let values: Vec<f64> = scenarios
                    .iter()
                    .map(|&scenario| {
                        let key = ExperimentKey {
                            scenario,
                            policy,
                            algorithm,
                            heuristic,
                        };
                        self.comparisons
                            .get(&key)
                            .map(|c| metric.of(c))
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                let label = format!("{}{}", heuristic.label(), algorithm.suffix());
                table.push_row(&policy.to_string(), label, values);
            }
        }
        table
    }
}

/// The paper's table number for `(algorithm, metric, heterogeneity)`;
/// `None` for registry strategies the paper has no tables for.
pub fn table_number(
    algorithm: ReallocAlgorithm,
    metric: Metric,
    heterogeneous: bool,
) -> Option<usize> {
    let base = algorithm.strategy().paper_table_base()?;
    let metric_off = match metric {
        Metric::PctImpacted => 0,
        Metric::Reallocations => 2,
        Metric::PctEarlier => 4,
        Metric::RelAvgResponse => 6,
    };
    Some(base + metric_off + usize::from(heterogeneous))
}

/// Table 1 of the paper: job counts per month and site.
pub fn table1() -> PaperTable {
    let months = [
        Scenario::Jan,
        Scenario::Feb,
        Scenario::Mar,
        Scenario::Apr,
        Scenario::May,
        Scenario::Jun,
    ];
    let mut t = PaperTable::new(
        "Table 1: Number of jobs per month and in total for each site trace",
        vec![
            "Bordeaux".into(),
            "Lyon".into(),
            "Toulouse".into(),
            "Total".into(),
        ],
        false,
    )
    .decimals(0);
    for m in months {
        let c = m.site_counts();
        t.push_row(
            "2008",
            m.label(),
            vec![c[0] as f64, c[1] as f64, c[2] as f64, m.total_jobs() as f64],
        );
    }
    t
}

/// One qualitative "shape" expectation from the paper, evaluated against
/// measured results (EXPERIMENTS.md records these).
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Short name.
    pub name: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// What we measured (human-readable).
    pub measured: String,
    /// Whether the expectation holds.
    pub pass: bool,
}

/// Mean of a metric over every cell matching the filter.
fn mean_metric(
    results: &SuiteResults,
    metric: Metric,
    filter: impl Fn(&ExperimentKey) -> bool,
) -> f64 {
    let vals: Vec<f64> = results
        .comparisons
        .iter()
        .filter(|(k, _)| filter(k))
        .map(|(_, c)| metric.of(c))
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Evaluate the paper's headline qualitative claims against two suites
/// (homogeneous and heterogeneous).
pub fn shape_checks(hom: &SuiteResults, het: &SuiteResults) -> Vec<ShapeCheck> {
    assert!(!hom.heterogeneous && het.heterogeneous);
    let mut out = Vec::new();

    // 1. Reallocation is beneficial on average (rel. response < 1).
    for (label, res) in [("homogeneous", hom), ("heterogeneous", het)] {
        let v = mean_metric(res, Metric::RelAvgResponse, |_| true);
        out.push(ShapeCheck {
            name: "reallocation helps on average",
            paper: "§6: 'on average reallocation is beneficial on the considered metrics'",
            measured: format!("mean relative response ({label}) = {v:.3}"),
            pass: v < 1.0,
        });
    }

    // 2. Cancel-all beats no-cancel on relative response time.
    for (label, res) in [("homogeneous", hom), ("heterogeneous", het)] {
        let nc = mean_metric(res, Metric::RelAvgResponse, |k| {
            k.algorithm == ReallocAlgorithm::NoCancel
        });
        let ca = mean_metric(res, Metric::RelAvgResponse, |k| {
            k.algorithm == ReallocAlgorithm::CancelAll
        });
        out.push(ShapeCheck {
            name: "cancellation improves response gains",
            paper: "§4.3: 'cancellation usually brings improvement over the first version'",
            measured: format!("{label}: no-cancel {nc:.3} vs cancel-all {ca:.3}"),
            pass: ca < nc,
        });
    }

    // 3. More reallocations with cancellation.
    for (label, res) in [("homogeneous", hom), ("heterogeneous", het)] {
        let nc = mean_metric(res, Metric::Reallocations, |k| {
            k.algorithm == ReallocAlgorithm::NoCancel
        });
        let ca = mean_metric(res, Metric::Reallocations, |k| {
            k.algorithm == ReallocAlgorithm::CancelAll
        });
        out.push(ShapeCheck {
            name: "cancellation migrates more",
            paper: "§4.3: 'the number of reallocations is higher when cancellations are involved'",
            measured: format!("{label}: no-cancel {nc:.0} vs cancel-all {ca:.0} mean migrations"),
            pass: ca > nc,
        });
    }

    // 4. FCFS yields more impacted jobs than CBF on homogeneous platforms.
    let fcfs = mean_metric(hom, Metric::PctImpacted, |k| k.policy == BatchPolicy::Fcfs);
    let cbf = mean_metric(hom, Metric::PctImpacted, |k| k.policy == BatchPolicy::Cbf);
    out.push(ShapeCheck {
        name: "FCFS exposes more jobs to reallocation than CBF",
        paper: "§4.1: 'this percentage is higher on platforms using FCFS'",
        measured: format!("homogeneous: FCFS {fcfs:.1}% vs CBF {cbf:.1}%"),
        pass: fcfs > cbf,
    });

    // 5. More reallocations under FCFS than CBF.
    for (label, res) in [("homogeneous", hom), ("heterogeneous", het)] {
        let f = mean_metric(res, Metric::Reallocations, |k| {
            k.policy == BatchPolicy::Fcfs
        });
        let c = mean_metric(res, Metric::Reallocations, |k| k.policy == BatchPolicy::Cbf);
        out.push(ShapeCheck {
            name: "more reallocations under FCFS",
            paper: "§4.2: 'there are more reallocations on FCFS platforms'",
            measured: format!("{label}: FCFS {f:.0} vs CBF {c:.0}"),
            pass: f > c,
        });
    }

    // 6. April (heavily loaded) is impacted more than January (lightly).
    if hom.comparisons.keys().any(|k| k.scenario == Scenario::Apr)
        && hom.comparisons.keys().any(|k| k.scenario == Scenario::Jan)
    {
        let apr = mean_metric(hom, Metric::PctImpacted, |k| k.scenario == Scenario::Apr);
        let jan = mean_metric(hom, Metric::PctImpacted, |k| k.scenario == Scenario::Jan);
        out.push(ShapeCheck {
            name: "load drives impact (April >> January)",
            paper: "Table 2: April ~36% impacted vs January ~3.8%",
            measured: format!("homogeneous: April {apr:.1}% vs January {jan:.1}%"),
            pass: apr > jan,
        });
    }

    // 7. Most impacted jobs finish earlier under cancellation.
    let earlier = mean_metric(hom, Metric::PctEarlier, |k| {
        k.algorithm == ReallocAlgorithm::CancelAll
    });
    out.push(ShapeCheck {
        name: "majority of impacted jobs finish earlier (cancel-all)",
        paper: "§4.2: 'most of the time higher than 60%'",
        measured: format!("homogeneous cancel-all mean: {earlier:.1}% earlier"),
        pass: earlier > 50.0,
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_numbers_match_paper() {
        use Metric::*;
        let nc = ReallocAlgorithm::NoCancel;
        let ca = ReallocAlgorithm::CancelAll;
        assert_eq!(table_number(nc, PctImpacted, false), Some(2));
        assert_eq!(table_number(nc, PctImpacted, true), Some(3));
        assert_eq!(table_number(nc, Reallocations, false), Some(4));
        assert_eq!(table_number(nc, Reallocations, true), Some(5));
        assert_eq!(table_number(nc, PctEarlier, false), Some(6));
        assert_eq!(table_number(nc, PctEarlier, true), Some(7));
        assert_eq!(table_number(nc, RelAvgResponse, false), Some(8));
        assert_eq!(table_number(nc, RelAvgResponse, true), Some(9));
        assert_eq!(table_number(ca, PctImpacted, false), Some(10));
        assert_eq!(table_number(ca, PctImpacted, true), Some(11));
        assert_eq!(table_number(ca, Reallocations, false), Some(12));
        assert_eq!(table_number(ca, Reallocations, true), Some(13));
        assert_eq!(table_number(ca, PctEarlier, false), Some(14));
        assert_eq!(table_number(ca, PctEarlier, true), Some(15));
        assert_eq!(table_number(ca, RelAvgResponse, false), Some(16));
        assert_eq!(table_number(ca, RelAvgResponse, true), Some(17));
        // Registry-only strategies sit outside the paper's numbering.
        assert_eq!(
            table_number(ReallocAlgorithm::LoadThreshold, PctImpacted, false),
            None
        );
    }

    #[test]
    fn table1_matches_paper_counts() {
        let t = table1();
        assert_eq!(t.get("2008", "jan", "Bordeaux"), Some(13_084.0));
        assert_eq!(t.get("2008", "apr", "Total"), Some(36_041.0));
        assert_eq!(t.get("2008", "jun", "Lyon"), Some(3_540.0));
    }

    /// The harness applies trace perturbation before the driver runs:
    /// the perturbed suite differs from the healthy one, deterministically.
    #[test]
    fn suite_fault_perturbs_the_trace_deterministically() {
        let perturbed_suite = SuiteConfig {
            fault: Fault::resolve_expr("perturb(jitter_s=1800, runtime_factor=1.3)").unwrap(),
            ..SuiteConfig::smoke()
        };
        let run =
            |suite: &SuiteConfig| run_one(Scenario::Jun, false, BatchPolicy::Fcfs, None, suite);
        let healthy = run(&SuiteConfig::smoke());
        let perturbed = run(&perturbed_suite);
        assert_eq!(perturbed.records.len(), healthy.records.len());
        assert_ne!(perturbed.records, healthy.records);
        assert_eq!(perturbed.records, run(&perturbed_suite).records);
    }

    #[test]
    fn metric_extraction() {
        let c = Comparison {
            n_jobs: 100,
            impacted: 10,
            earlier: 7,
            later: 3,
            reallocations: 5,
            pct_impacted: 10.0,
            pct_earlier: 70.0,
            rel_avg_response: 0.9,
        };
        assert_eq!(Metric::PctImpacted.of(&c), 10.0);
        assert_eq!(Metric::Reallocations.of(&c), 5.0);
        assert_eq!(Metric::PctEarlier.of(&c), 70.0);
        assert_eq!(Metric::RelAvgResponse.of(&c), 0.9);
        assert!(!Metric::Reallocations.has_avg());
        assert!(Metric::PctImpacted.has_avg());
    }
}
