//! The benchmark's workloads, and the operations a campaign user runs on
//! them: load and expand a spec, drain it into a fresh result cache,
//! resume against the full cache, and report from it.

use std::collections::HashSet;
use std::path::Path;

use grid_campaign::{
    aggregate_streamed, execute, stream_csv, CampaignPlan, CampaignSpec, ExecOptions, ResultCache,
    RunKind, RunRecord, RunUnit,
};
use grid_des::SimRng;
use grid_metrics::RunOutcome;

use crate::sha256::{self, Sha256};

/// The trace seed the paper spec is written with; the pinned outputs
/// exist for it alone.
pub const PAPER_SEED: u64 = 42;

/// Job-count fraction of `reference-runs`. Large enough that the
/// no-reallocation engine's superlinear pwa-g5k runs dominate, small
/// enough for several drains per timed run.
pub const REFERENCE_FRACTION: f64 = 0.05;

/// The spec both workloads expand, relative to the root.
const SPEC_PATH: &str = "examples/paper_campaign.toml";

/// The pinned 1% report hashes of the paper spec, relative to the root.
const PINNED_REPORT_HASHES: &str = "tests/golden/paper_suite_001.sha256";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 364 runs of `examples/paper_campaign.toml` at 1%.
    Paper1pct,
    /// The campaign's 28 reference runs at [`REFERENCE_FRACTION`].
    ReferenceRuns,
}

impl Workload {
    /// Every workload, as `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Paper1pct, Workload::ReferenceRuns];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1pct => "paper-1pct",
            Workload::ReferenceRuns => "reference-runs",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one drain resolved.
#[derive(Debug, Default)]
pub struct Drained {
    /// Units simulated.
    pub computed: usize,
    /// Units answered from the cache.
    pub cached: usize,
    /// Failed units and unpersisted records, as `label: message`.
    pub failures: Vec<String>,
}

/// Every record, read back from the cache.
#[derive(Debug, PartialEq, Eq)]
pub struct ReadBack {
    /// SHA-256 over the record bytes, in plan order.
    pub digest: String,
    /// Failed output checks.
    pub problems: Vec<String>,
}

/// A workload after set-up: its spec, plan and fresh cache.
pub struct Campaign {
    /// Which workload.
    pub workload: Workload,
    /// The spec, with its seeds shifted to the input seed.
    pub spec: CampaignSpec,
    /// The spec's expansion (reference units only for `reference-runs`).
    pub plan: CampaignPlan,
    /// The result cache the drains fill.
    pub cache: ResultCache,
    /// Whether the inputs are the spec's own, whose outputs are pinned.
    pub pinned: bool,
    /// Plan indices in the order the executor receives them.
    pub order: Vec<usize>,
}

impl Campaign {
    /// Set-up: load and expand the workload's spec, with every spec seed
    /// shifted by `input_seed − 42` (so 42 runs the spec as written),
    /// shuffle the dispatch order with `order_seed`, and create the cache
    /// directory `dir`.
    pub fn setup(
        workload: Workload,
        root: &Path,
        input_seed: u64,
        order_seed: u64,
        dir: &Path,
    ) -> Result<Campaign, String> {
        let path = root.join(SPEC_PATH);
        let mut spec = CampaignSpec::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let shift = input_seed.wrapping_sub(PAPER_SEED);
        for seed in &mut spec.seeds {
            *seed = seed.wrapping_add(shift);
        }
        if workload == Workload::ReferenceRuns {
            spec.fraction = REFERENCE_FRACTION;
        }
        let mut plan = spec.expand();
        if workload == Workload::ReferenceRuns {
            plan.units.retain(|u| u.kind == RunKind::Reference);
        }
        let mut order: Vec<usize> = (0..plan.len()).collect();
        SimRng::seed_from_u64(order_seed).shuffle(&mut order);
        let cache = ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Campaign {
            workload,
            spec,
            plan,
            cache,
            pinned: input_seed == PAPER_SEED,
            order,
        })
    }

    /// Drain the plan into the cache on `workers` threads the way
    /// `campaign run` does: through the static executor, in the shuffled
    /// order.
    pub fn drain(&self, workers: usize) -> Drained {
        let opts = ExecOptions {
            threads: Some(workers),
            ..ExecOptions::default()
        };
        let units: Vec<RunUnit> = self
            .order
            .iter()
            .map(|&i| self.plan.units[i].clone())
            .collect();
        let (_, s) = execute(&units, Some(&self.cache), &opts);
        Drained {
            computed: s.computed,
            cached: s.cached,
            failures: s
                .failures
                .iter()
                .chain(&s.store_errors)
                .map(|f| format!("{}: {}", f.unit, f.message))
                .collect(),
        }
    }

    /// Simulation wall time of every computed unit in ms (whole ms), by
    /// plan index, from the telemetry sidecar the executor writes next to
    /// each record.
    pub fn run_walls_ms(&self) -> Vec<(usize, f64)> {
        self.plan
            .units
            .iter()
            .enumerate()
            .filter_map(|(i, unit)| {
                let sidecar = self.cache.load_obs(unit)?;
                Some((i, sidecar.get("wall_ms")?.as_u64()? as f64))
            })
            .collect()
    }

    /// The user's report: the paper tables and the per-seed CSV, streamed
    /// from the cache (`campaign report`, `--format csv`).
    pub fn render(&self) -> Result<(String, Vec<u8>), String> {
        let none = HashSet::new();
        let tables =
            aggregate_streamed(&self.spec, &self.plan, &self.cache, &none)?.render_tables();
        let mut csv = Vec::new();
        stream_csv(&self.plan, &self.cache, &none, &mut csv)?;
        Ok((tables, csv))
    }

    /// Read every record back: digest its bytes and check its descriptor
    /// and outcome.
    pub fn read_back(&self) -> Result<ReadBack, String> {
        let mut digest = Sha256::default();
        let mut problems = Vec::new();
        for unit in &self.plan.units {
            let path = self.cache.path(unit);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {}: {e}", unit.label(), path.display()))?;
            let record = RunRecord::decode(&text).map_err(|e| format!("{}: {e}", unit.label()))?;
            if record.descriptor.encode() != unit.descriptor().encode() {
                problems.push(format!("{}: record holds another unit", unit.label()));
            }
            problems.extend(check_outcome(unit, &record.outcome));
            digest.update(text.as_bytes());
        }
        Ok(ReadBack {
            digest: digest.hex(),
            problems,
        })
    }

    /// The pinned check, which holds only for the spec's own inputs: the
    /// 1% report hashes of the paper matrix.
    pub fn check_pinned(&self, root: &Path, tables: &str, csv: &[u8]) -> Result<(), String> {
        if !self.pinned || self.workload != Workload::Paper1pct {
            return Ok(());
        }
        let path = root.join(PINNED_REPORT_HASHES);
        let pinned =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let hash_of = |suffix: &str| {
            pinned
                .lines()
                .find(|l| l.ends_with(suffix))
                .and_then(|l| l.split_whitespace().next())
                .ok_or(format!("{}: no hash for {suffix}", path.display()))
        };
        for (what, bytes, suffix) in [
            ("tables", tables.as_bytes(), "tables_001.txt"),
            ("csv", csv, "csv_001.csv"),
        ] {
            let (got, want) = (sha256::hex(bytes), hash_of(suffix)?);
            if got != want {
                return Err(format!("1% {what} hash {got} differs from pinned {want}"));
            }
        }
        Ok(())
    }
}

/// Output checks every run must pass: every job of the unit's trace
/// completed, and no ECT contract was violated.
pub fn check_outcome(unit: &RunUnit, outcome: &RunOutcome) -> Option<String> {
    let expected = unit
        .scenario
        .generate_fraction(unit.seed, unit.fraction)
        .len();
    if outcome.len() != expected {
        return Some(format!(
            "{}: {} of {expected} jobs completed",
            unit.label(),
            outcome.len()
        ));
    }
    if outcome.contract_violations != 0 {
        return Some(format!(
            "{}: {} ECT contract violations",
            unit.label(),
            outcome.contract_violations
        ));
    }
    None
}
