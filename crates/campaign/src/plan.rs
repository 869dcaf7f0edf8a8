//! Concrete run units and the expanded campaign plan.

use grid_batch::BatchPolicy;
use grid_des::Duration;
use grid_fault::Fault;
use grid_realloc::{Heuristic, ReallocAlgorithm, ReallocConfig};
use grid_ser::Value;
use grid_workload::Scenario;

use crate::ENGINE_VERSION;

/// The reallocation configuration of a non-reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReallocSetting {
    /// Algorithm 1 (no-cancel) or Algorithm 2 (cancel-all).
    pub algorithm: ReallocAlgorithm,
    /// Ordering heuristic inside a reallocation round.
    pub heuristic: Heuristic,
    /// Reallocation period.
    pub period: Duration,
    /// Algorithm 1 improvement threshold.
    pub threshold: Duration,
}

impl ReallocSetting {
    /// The simulator configuration for this setting.
    pub fn to_config(self) -> ReallocConfig {
        ReallocConfig::new(self.algorithm, self.heuristic)
            .with_period(self.period)
            .with_threshold(self.threshold)
    }
}

/// Reference run (no reallocation) or a reallocation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// The no-reallocation baseline shared by every reallocation run of
    /// the same (scenario, platform flavour, policy, seed, fraction).
    Reference,
    /// One reallocation configuration.
    Realloc(ReallocSetting),
}

/// One fully-specified simulation run — the unit of execution, caching
/// and work claiming.
#[derive(Debug, Clone, PartialEq)]
pub struct RunUnit {
    /// Workload scenario.
    pub scenario: Scenario,
    /// Heterogeneous platform flavour?
    pub heterogeneous: bool,
    /// Local batch policy on every cluster.
    pub policy: BatchPolicy,
    /// Workload seed.
    pub seed: u64,
    /// Per-site job-count fraction (1.0 = the paper's Table 1 counts).
    pub fraction: f64,
    /// Injected faults ([`Fault::NONE`] = the paper's healthy grid).
    pub fault: Fault,
    /// Reference or reallocation run.
    pub kind: RunKind,
}

impl RunUnit {
    /// Compact human-readable identifier, e.g.
    /// `apr/het/FCFS/cancel-all/MinMin/p3600/t60/s42`; fault-injected
    /// units append the canonical fault expression.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}",
            self.scenario.label(),
            if self.heterogeneous { "het" } else { "hom" },
            self.policy,
        );
        let mut label = match self.kind {
            RunKind::Reference => format!("{base}/reference/s{}", self.seed),
            RunKind::Realloc(r) => format!(
                "{base}/{}/{}/p{}/t{}/s{}",
                r.algorithm,
                r.heuristic.label(),
                r.period.as_secs(),
                r.threshold.as_secs(),
                self.seed,
            ),
        };
        if !self.fault.is_none() {
            label.push('/');
            label.push_str(self.fault.name());
        }
        label
    }

    /// The canonical JSON descriptor this unit is content-addressed by.
    ///
    /// Includes the engine version: records from another version are
    /// treated as misses. Must stay injective over everything that can
    /// influence the outcome.
    pub fn descriptor(&self) -> Value {
        let mut d = Value::object();
        d.insert("schema", "grid-campaign/run/v1");
        d.insert("engine", ENGINE_VERSION);
        d.insert("scenario", self.scenario.label());
        d.insert("heterogeneous", self.heterogeneous);
        d.insert("policy", self.policy.to_string());
        d.insert("seed", self.seed);
        d.insert("fraction", self.fraction);
        // Healthy-grid units omit the key entirely, so every cache
        // record and key written before fault injection existed stays
        // reachable (pinned by `default_expression_cache_keys_are_pinned`).
        if !self.fault.is_none() {
            d.insert("fault", self.fault.name());
        }
        match self.kind {
            RunKind::Reference => d.insert("kind", "reference"),
            RunKind::Realloc(r) => {
                let mut k = Value::object();
                k.insert("algorithm", r.algorithm.to_string());
                k.insert("heuristic", r.heuristic.label());
                k.insert("period_s", r.period.as_secs());
                k.insert("threshold_s", r.threshold.as_secs());
                d.insert("kind", k);
            }
        }
        d
    }

    /// The key of the reference run this unit compares against (itself
    /// for reference units). Faulted runs compare against the reference
    /// under the *same* fault, so a campaign measures the reallocation
    /// gain that survives the fault, not the fault itself.
    pub fn baseline_key(&self) -> BaselineKey {
        (
            self.scenario,
            self.heterogeneous,
            self.policy,
            self.seed,
            self.fault,
        )
    }
}

/// The identity of a reference run, as [`RunUnit::baseline_key`]
/// returns it: every reallocation unit sharing this key compares
/// against the same reference outcome.
pub type BaselineKey = (Scenario, bool, BatchPolicy, u64, Fault);

/// Deterministic expansion of a [`crate::CampaignSpec`].
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// All run units, in expansion order (references first, then
    /// reallocation runs — so early progress unblocks comparisons).
    pub units: Vec<RunUnit>,
}

impl CampaignPlan {
    /// Total number of runs.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// `true` when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of reference runs.
    pub fn reference_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.kind == RunKind::Reference)
            .count()
    }

    /// Number of reallocation runs.
    pub fn realloc_count(&self) -> usize {
        self.len() - self.reference_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(kind: RunKind) -> RunUnit {
        RunUnit {
            scenario: Scenario::Jun,
            heterogeneous: true,
            policy: BatchPolicy::Fcfs,
            seed: 42,
            fraction: 0.01,
            fault: Fault::NONE,
            kind,
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(
            unit(RunKind::Reference).label(),
            "jun/het/FCFS/reference/s42"
        );
        let r = RunKind::Realloc(ReallocSetting {
            algorithm: ReallocAlgorithm::CancelAll,
            heuristic: Heuristic::MinMin,
            period: Duration::hours(1),
            threshold: Duration::secs(60),
        });
        assert_eq!(
            unit(r).label(),
            "jun/het/FCFS/cancel-all/MinMin/p3600/t60/s42"
        );
    }

    #[test]
    fn fault_units_extend_labels_and_descriptors() {
        let fault = Fault::resolve_expr("outage(mtbf_h=12)").unwrap();
        let mut u = unit(RunKind::Reference);
        u.fault = fault;
        assert_eq!(u.label(), "jun/het/FCFS/reference/s42/outage(mtbf_h=12)");
        let enc = u.descriptor().encode();
        assert!(enc.contains("\"fault\":\"outage(mtbf_h=12)\""), "{enc}");
        assert_ne!(enc, unit(RunKind::Reference).descriptor().encode());
        // The healthy unit's descriptor carries no fault key at all, so
        // pre-fault cache records stay byte-reachable.
        assert!(!unit(RunKind::Reference)
            .descriptor()
            .encode()
            .contains("fault"));
        // The baseline of a faulted run is the faulted reference.
        assert_eq!(u.baseline_key().4, fault);
    }

    #[test]
    fn descriptor_distinguishes_everything() {
        let a = unit(RunKind::Reference);
        let mut b = a.clone();
        b.seed = 43;
        let mut c = a.clone();
        c.heterogeneous = false;
        let mut d = a.clone();
        d.fraction = 0.02;
        let encs: Vec<String> = [&a, &b, &c, &d]
            .iter()
            .map(|u| u.descriptor().encode())
            .collect();
        for i in 0..encs.len() {
            for j in i + 1..encs.len() {
                assert_ne!(encs[i], encs[j]);
            }
        }
        // Same unit, same bytes.
        assert_eq!(
            a.descriptor().encode(),
            unit(RunKind::Reference).descriptor().encode()
        );
    }
}
