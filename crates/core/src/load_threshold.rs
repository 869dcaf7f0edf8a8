//! Load-threshold-triggered reallocation — the strategy-registry
//! walkthrough entry.
//!
//! Savvas & Kechadi (*Dynamic Task Scheduling in Computing Cluster
//! Environments*) reschedule only when a node's load crosses a threshold,
//! instead of on every periodic event. This strategy brings that trigger
//! to the paper's mechanism: each tick it measures every cluster's load
//! and runs Algorithm 1's migration pass **only when the grid is
//! imbalanced**; on balanced ticks it does nothing, saving the O(n²) ECT
//! probing entirely.
//!
//! *Load* is queued work per processor: Σ(procs × scaled walltime) over a
//! cluster's waiting jobs, divided by the cluster's processor count — an
//! estimate of how many seconds of backlog each processor carries. The
//! event fires when
//!
//! ```text
//! max_load ≥ factor × min_load + floor
//! ```
//!
//! Savvas & Kechadi's mechanism is explicitly parameterised by the
//! imbalance factor, and both knobs are policy-expression parameters
//! here:
//!
//! * `factor` (float, default 2) — how many times the least-loaded
//!   cluster's backlog the most-loaded one must carry;
//! * `floor_s` (int, default: the run's improvement threshold,
//!   `ReallocConfig::threshold`, the paper's 60 s) — an absolute backlog
//!   floor so near-empty queues never trigger.
//!
//! The old `ReallocAlgorithm` enum could not express this — triggering
//! was hard-wired as "every tick". With the
//! [`ReallocStrategy`] seam it is this
//! one file plus one line in the `realloc` registry, and campaign specs
//! reach it as `algorithms = ["load-threshold"]` — or sweep the factor
//! with `["load-threshold(factor=1.5)", "load-threshold(factor=3)"]`.

use grid_batch::Cluster;
use grid_des::SimTime;
use grid_ser::expr::{BoundArgs, ParamSpec};

use crate::ect::WaitingJob;
use crate::realloc::{run_no_cancel, ReallocConfig, ReallocStrategy, TickReport};

/// Algorithm 1 gated by a per-processor queued-work imbalance test.
#[derive(Debug)]
pub struct LoadThresholdStrategy {
    /// Imbalance factor (Savvas & Kechadi's knob).
    factor: f64,
    /// Absolute backlog floor in seconds; `None` inherits the run's
    /// improvement threshold.
    floor_s: Option<u64>,
}

/// Queued work per processor, in seconds, for one cluster.
fn load_secs(cluster: &Cluster) -> u64 {
    let work: u64 = cluster
        .waiting_jobs()
        .map(|q| u64::from(q.scaled.procs) * q.scaled.walltime.as_secs())
        .sum();
    work / u64::from(cluster.spec().procs.max(1))
}

impl LoadThresholdStrategy {
    /// The default configuration: factor 2, floor = run threshold.
    pub const DEFAULT: LoadThresholdStrategy = LoadThresholdStrategy {
        factor: 2.0,
        floor_s: None,
    };

    /// The imbalance test (public so tests and docs can pin it).
    pub fn is_imbalanced(&self, clusters: &[Cluster], cfg: &ReallocConfig) -> bool {
        let loads: Vec<u64> = clusters.iter().map(load_secs).collect();
        let (Some(&max), Some(&min)) = (loads.iter().max(), loads.iter().min()) else {
            return false;
        };
        let floor = self
            .floor_s
            .unwrap_or_else(|| cfg.threshold.as_secs())
            .max(1);
        max as f64 >= self.factor * min as f64 + floor as f64
    }
}

impl ReallocStrategy for LoadThresholdStrategy {
    fn name(&self) -> &'static str {
        "load-threshold"
    }

    fn suffix(&self) -> &'static str {
        "-LT"
    }

    fn title_note(&self) -> &'static str {
        " (load-threshold trigger)"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::float("factor", Some(2.0), "imbalance factor over the min load"),
            ParamSpec::int(
                "floor_s",
                None,
                "absolute backlog floor in seconds (default: the run's threshold)",
            ),
        ]
    }

    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn ReallocStrategy>, String> {
        let factor = args.f64("factor").expect("declared with a default");
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(format!(
                "`load-threshold` needs factor >= 1 (got {factor}); below 1 the trigger \
                 fires on balanced grids"
            ));
        }
        if let Some(floor) = args.i64("floor_s") {
            if floor < 0 {
                return Err(format!("`load-threshold` needs floor_s >= 0, got {floor}"));
            }
        }
        Ok(Box::new(LoadThresholdStrategy {
            factor,
            floor_s: args.u64("floor_s"),
        }))
    }

    fn tick(
        &self,
        clusters: &mut [Cluster],
        jobs: &[WaitingJob],
        cfg: &ReallocConfig,
        now: SimTime,
        report: &mut TickReport,
    ) {
        if !self.is_imbalanced(clusters, cfg) {
            return; // balanced grid: skip the whole migration pass
        }
        run_no_cancel(clusters, jobs, cfg, now, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Heuristic;
    use crate::realloc::{run_tick, ReallocAlgorithm};
    use grid_batch::{BatchPolicy, ClusterSpec, JobSpec};

    fn cluster(name: &str, procs: u32) -> Cluster {
        Cluster::new(ClusterSpec::new(name, procs, 1.0), BatchPolicy::Fcfs)
    }

    fn cfg() -> ReallocConfig {
        ReallocConfig::new(ReallocAlgorithm::LoadThreshold, Heuristic::Mct)
    }

    /// Cluster 0 severely backlogged, cluster 1 idle: the trigger fires
    /// and the pass migrates like Algorithm 1.
    #[test]
    fn imbalance_triggers_migration() {
        let mut c0 = cluster("c0", 4);
        let c1 = cluster("c1", 4);
        c0.submit(JobSpec::new(100, 0, 4, 1_000, 1_000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        c0.submit(JobSpec::new(1, 0, 2, 60, 500), SimTime(0))
            .unwrap();
        let mut clusters = vec![c0, c1];
        assert!(LoadThresholdStrategy::DEFAULT.is_imbalanced(&clusters, &cfg()));
        let report = run_tick(&mut clusters, &cfg(), SimTime(10));
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(clusters[1].waiting_count(), 1);
    }

    /// Equally loaded clusters stay untouched even though plain
    /// Algorithm 1 would have examined every job.
    #[test]
    fn balanced_grid_skips_the_pass() {
        let mut clusters: Vec<Cluster> = (0..2).map(|i| cluster(&format!("c{i}"), 4)).collect();
        for (i, c) in clusters.iter_mut().enumerate() {
            c.submit(JobSpec::new(100 + i as u64, 0, 4, 1_000, 1_000), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(i as u64, 0, 2, 60, 500), SimTime(0))
                .unwrap();
        }
        assert!(!LoadThresholdStrategy::DEFAULT.is_imbalanced(&clusters, &cfg()));
        let report = run_tick(&mut clusters, &cfg(), SimTime(10));
        assert!(report.migrations.is_empty());
        // Examined counts the snapshot; the pass itself never ran, so no
        // contract activity either.
        assert_eq!(report.contract_violations, 0);
    }

    /// Tiny backlogs sit under the absolute threshold floor.
    #[test]
    fn threshold_floor_suppresses_noise() {
        let mut c0 = cluster("c0", 4);
        let c1 = cluster("c1", 4);
        c0.submit(JobSpec::new(100, 0, 4, 50, 50), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        // 2 procs x 30 s / 4 procs = 15 s of backlog < 60 s threshold.
        c0.submit(JobSpec::new(1, 0, 2, 20, 30), SimTime(0))
            .unwrap();
        let clusters = vec![c0, c1];
        assert!(!LoadThresholdStrategy::DEFAULT.is_imbalanced(&clusters, &cfg()));
    }

    /// The imbalance factor is a real parameter: a grid the default 2×
    /// trigger leaves alone migrates under `factor=1.2` and stays quiet
    /// under `factor=10`, end to end through `run_tick`.
    #[test]
    fn factor_parameter_changes_the_trigger_point() {
        // Loads (queued work / procs): c0 = 2×500/4 = 250 s, c1 =
        // 2×200/4 = 100 s. Default: 250 < 2×100+60 → skip. factor=1.2:
        // 250 ≥ 120+60 → the pass runs, and c0's waiting job improves by
        // moving (c1 frees at 1000 with room beside its queued job).
        let build = || {
            let mut c0 = cluster("c0", 4);
            let mut c1 = cluster("c1", 4);
            c0.submit(JobSpec::new(100, 0, 4, 10_000, 10_000), SimTime(0))
                .unwrap();
            c0.start_due(SimTime(0));
            c0.submit(JobSpec::new(1, 0, 2, 400, 500), SimTime(0))
                .unwrap();
            c1.submit(JobSpec::new(101, 0, 4, 1_000, 1_000), SimTime(0))
                .unwrap();
            c1.start_due(SimTime(0));
            c1.submit(JobSpec::new(2, 0, 2, 150, 200), SimTime(0))
                .unwrap();
            vec![c0, c1]
        };
        let migrations = |expr: &str| {
            let algo = ReallocAlgorithm::resolve_expr(expr).unwrap();
            let mut clusters = build();
            let cfg = ReallocConfig::new(algo, Heuristic::Mct);
            run_tick(&mut clusters, &cfg, SimTime(10)).migrations.len()
        };
        assert_eq!(migrations("load-threshold"), 0, "2x trigger stays quiet");
        assert_eq!(migrations("load-threshold(factor=1.2)"), 1);
        assert_eq!(migrations("load-threshold(factor=10)"), 0);
    }

    /// `floor_s` overrides the inherited run threshold.
    #[test]
    fn floor_parameter_overrides_run_threshold() {
        // Loads 15 s vs 0 s: the inherited 60 s floor suppresses the
        // trigger; an explicit 5 s floor lets the pass run, and the
        // waiting job gains 500 s by moving to the idle cluster.
        let build = || {
            let mut c0 = cluster("c0", 4);
            let c1 = cluster("c1", 4);
            c0.submit(JobSpec::new(100, 0, 4, 500, 500), SimTime(0))
                .unwrap();
            c0.start_due(SimTime(0));
            c0.submit(JobSpec::new(1, 0, 2, 20, 30), SimTime(0))
                .unwrap();
            vec![c0, c1]
        };
        let migrations = |expr: &str| {
            let algo = ReallocAlgorithm::resolve_expr(expr).unwrap();
            let mut clusters = build();
            let cfg = ReallocConfig::new(algo, Heuristic::Mct);
            run_tick(&mut clusters, &cfg, SimTime(10)).migrations.len()
        };
        assert_eq!(migrations("load-threshold"), 0, "60 s floor suppresses");
        assert_eq!(migrations("load-threshold(floor_s=5)"), 1);
    }

    /// Expression canonicalisation and validation on this entry.
    #[test]
    fn expressions_canonicalise_and_validate() {
        let resolve = |s: &str| ReallocAlgorithm::resolve_expr(s).unwrap();
        // Explicit defaults are the default handle.
        assert_eq!(
            resolve("load-threshold(factor=2)"),
            ReallocAlgorithm::LoadThreshold
        );
        assert_eq!(resolve("load-threshold()").name(), "load-threshold");
        assert_eq!(
            resolve("load-threshold(factor=1.5)").name(),
            "load-threshold(factor=1.5)"
        );
        // Same canonical expression, same interned handle.
        assert_eq!(
            resolve("load-threshold(factor=1.5)"),
            resolve("LOAD-THRESHOLD( factor = 1.5 )")
        );
        // Parameterised variants keep the table suffix and title note.
        assert_eq!(resolve("load-threshold(factor=1.5)").suffix(), "-LT");
        // Validation catches nonsense factors and floors.
        assert!(ReallocAlgorithm::resolve_expr("load-threshold(factor=0.5)")
            .unwrap_err()
            .contains("factor >= 1"));
        assert!(ReallocAlgorithm::resolve_expr("load-threshold(floor_s=-3)")
            .unwrap_err()
            .contains("floor_s >= 0"));
        // Unknown/ill-typed args list the accepted parameters.
        let err = ReallocAlgorithm::resolve_expr("load-threshold(facter=2)").unwrap_err();
        assert!(err.contains("unknown parameter `facter`"), "{err}");
        assert!(err.contains("factor: float = 2"), "{err}");
        assert!(err.contains("floor_s: int"), "{err}");
    }

    #[test]
    fn registry_exposes_the_strategy() {
        let handle = ReallocAlgorithm::resolve("load-threshold").unwrap();
        assert_eq!(handle, ReallocAlgorithm::LoadThreshold);
        assert_eq!(handle.suffix(), "-LT");
        assert_eq!(handle.to_string(), "load-threshold");
        // Not part of the paper's two-algorithm default axis.
        assert!(!ReallocAlgorithm::ALL.contains(&handle));
        assert!(ReallocAlgorithm::BUILTINS.contains(&handle));
    }
}
