//! Concrete run units and the expanded campaign plan.

use std::collections::HashSet;
use std::hash::Hash;

use grid_batch::BatchPolicy;
use grid_des::Duration;
use grid_fault::Fault;
use grid_realloc::{Heuristic, Mapping, ReallocAlgorithm, ReallocConfig};
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
    /// Initial mapping policy ([`Mapping::Mct`] = the paper's).
    pub mapping: Mapping,
    /// Walltimes scaled to cluster speeds (`true` = the paper's §1).
    pub walltime_adjustment: bool,
    /// Reference or reallocation run.
    pub kind: RunKind,
}

impl RunUnit {
    /// Compact human-readable identifier, e.g.
    /// `apr/het/FCFS/cancel-all/MinMin/p3600/t60/s42`; units off the
    /// paper's defaults append the canonical fault expression,
    /// `mapping=NAME` and `walltime_adjustment=false`.
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
        if self.mapping != Mapping::Mct {
            label.push_str("/mapping=");
            label.push_str(self.mapping.name());
        }
        if !self.walltime_adjustment {
            label.push_str("/walltime_adjustment=false");
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
        // Likewise for the mapping and walltime-scaling axes.
        if self.mapping != Mapping::Mct {
            d.insert("mapping", self.mapping.name());
        }
        if !self.walltime_adjustment {
            d.insert("walltime_adjustment", false);
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
    /// gain that survives the fault, not the fault itself; likewise for
    /// the mapping and walltime-scaling axes.
    pub fn baseline_key(&self) -> BaselineKey {
        (self.seed, self.setup_key())
    }

    /// Everything but the seed that the unit's reference run depends on.
    pub fn setup_key(&self) -> SetupKey {
        (
            self.scenario,
            self.heterogeneous,
            self.policy,
            self.fault,
            self.mapping,
            self.walltime_adjustment,
        )
    }
}

/// The seedless part of a [`BaselineKey`], as [`RunUnit::setup_key`]
/// returns it: scenario, flavour, policy, fault, mapping and walltime
/// scaling.
pub type SetupKey = (Scenario, bool, BatchPolicy, Fault, Mapping, bool);

/// The identity of a reference run, as [`RunUnit::baseline_key`]
/// returns it: every reallocation unit sharing this key compares
/// against the same reference outcome.
pub type BaselineKey = (u64, SetupKey);

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

    /// The plan's matrix as `(axis, distinct values)`, counted from the
    /// units: the setup axes over the reference runs, the
    /// (algorithm, heuristic) pairs, periods and thresholds over the
    /// reallocation runs. The setup axes multiply out to
    /// [`CampaignPlan::reference_count`] and all of them to
    /// [`CampaignPlan::realloc_count`]; the spec's own axis lengths
    /// overcount when an algorithm runs under fewer heuristics than the
    /// axis lists (multiple submission runs under `Mct` alone).
    pub fn matrix(&self) -> Vec<(&'static str, usize)> {
        fn count<T: Eq + Hash>(values: impl Iterator<Item = T>) -> usize {
            values.collect::<HashSet<T>>().len()
        }
        let refs = || self.units.iter().filter(|u| u.kind == RunKind::Reference);
        let settings = || {
            self.units.iter().filter_map(|u| match u.kind {
                RunKind::Realloc(s) => Some(s),
                RunKind::Reference => None,
            })
        };
        vec![
            ("scenarios", count(refs().map(|u| u.scenario))),
            ("platforms", count(refs().map(|u| u.heterogeneous))),
            ("policies", count(refs().map(|u| u.policy))),
            (
                "algorithm-heuristic pairs",
                count(settings().map(|s| (s.algorithm, s.heuristic))),
            ),
            ("faults", count(refs().map(|u| u.fault))),
            ("mappings", count(refs().map(|u| u.mapping))),
            (
                "walltime_adjustment",
                count(refs().map(|u| u.walltime_adjustment)),
            ),
            ("periods_s", count(settings().map(|s| s.period))),
            ("thresholds_s", count(settings().map(|s| s.threshold))),
            ("seeds", count(refs().map(|u| u.seed))),
        ]
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
            mapping: Mapping::Mct,
            walltime_adjustment: true,
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
        assert_eq!(u.setup_key().3, fault);
    }

    #[test]
    fn non_default_mapping_and_walltime_extend_labels_and_descriptors() {
        let plain = unit(RunKind::Reference);
        let mut u = plain.clone();
        u.mapping = Mapping::resolve_expr("RoundRobin(offset=1)").unwrap();
        u.walltime_adjustment = false;
        assert_eq!(
            u.label(),
            "jun/het/FCFS/reference/s42/mapping=RoundRobin(offset=1)/walltime_adjustment=false"
        );
        let enc = u.descriptor().encode();
        assert!(
            enc.contains("\"mapping\":\"RoundRobin(offset=1)\""),
            "{enc}"
        );
        assert!(enc.contains("\"walltime_adjustment\":false"), "{enc}");
        // The defaults leave no trace in the descriptor.
        let base = plain.descriptor().encode();
        assert!(
            !base.contains("mapping") && !base.contains("walltime"),
            "{base}"
        );
        // Each axis moves the baseline on its own.
        assert_ne!(u.baseline_key(), plain.baseline_key());
        let mut w = plain.clone();
        w.walltime_adjustment = false;
        assert_ne!(w.baseline_key(), plain.baseline_key());
        assert_ne!(w.descriptor().encode(), u.descriptor().encode());
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
