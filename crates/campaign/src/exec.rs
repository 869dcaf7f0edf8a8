//! Simulating one unit (`compute_and_store`, shared by every drain, so
//! all of them write byte-identical caches), and the in-process entry
//! points of the drain loop ([`crate::drain`]): [`execute`] returns each
//! outcome in input order, [`execute_plan`] (`campaign run`) applies the
//! convergence frontier and keeps no outcomes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use grid_batch::ClusterStats;
use grid_metrics::RunOutcome;
use grid_obs::Obs;
use grid_realloc::experiments::platform_for;
use grid_realloc::{GridConfig, GridSim};
use grid_ser::Value;

use crate::cache::{ResultCache, RunRecord};
use crate::drain::{Drain, DrainSummary, Resolution};
use crate::fleet::ConvergenceTracker;
use crate::plan::{CampaignPlan, RunKind, RunUnit};
use crate::spec::{CampaignSpec, Converge};

/// Executor knobs.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker threads; `None` = all available cores.
    pub threads: Option<usize>,
    /// Emit per-run progress lines on stderr.
    pub progress: bool,
    /// Re-render a single live status line on stderr (cells done/total,
    /// runs/s, cache mix, CI-half-width ETA) instead of per-run lines.
    pub status: bool,
    /// Write a Chrome trace-event file and a JSONL event stream per
    /// computed run into this directory. Tracing enables the recorder;
    /// outcome and cache bytes stay identical either way.
    pub trace: Option<PathBuf>,
}

/// The simulation a unit describes, with no instrumentation handle
/// attached: the scenario's workload (trace perturbation applied to the
/// jobs up front; outages and ECT noise are injected by `GridSim`
/// itself) on the scenario's platform, under the unit's seed, fault,
/// mapping, walltime adjustment and reallocation setting.
pub fn grid_sim(unit: &RunUnit) -> GridSim {
    let mut jobs = unit.scenario.generate_fraction(unit.seed, unit.fraction);
    if let Some(perturb) = &unit.fault.config().perturb {
        perturb.apply(&mut jobs, unit.seed);
    }
    let config = GridConfig::new(platform_for(unit.scenario, unit.heterogeneous), unit.policy)
        .with_seed(unit.seed)
        .with_fault(unit.fault)
        .with_mapping(unit.mapping)
        .with_walltime_adjustment(unit.walltime_adjustment);
    let config = match unit.kind {
        RunKind::Reference => config,
        RunKind::Realloc(setting) => config.with_realloc(setting.to_config()),
    };
    GridSim::new(config, jobs)
}

/// Simulate one unit (no cache, no isolation) with `obs` attached — the
/// pure function the executor wraps. The outcome does not depend on the
/// handle: the recorder is write-only. The per-site scheduler counters
/// and the grid-level engine counters come back alongside it.
pub fn simulate_observed(
    unit: &RunUnit,
    obs: &Obs,
) -> (RunOutcome, Vec<ClusterStats>, grid_realloc::GridStats) {
    let mut sim = grid_sim(unit);
    sim.set_obs(obs.clone());
    sim.run().expect("paper scenarios are schedulable")
}

/// The telemetry sidecar stored next to (but never inside) the record.
fn obs_sidecar(
    unit: &RunUnit,
    wall_ms: u64,
    jobs: usize,
    stats: &[ClusterStats],
    grid: grid_realloc::GridStats,
    recorder: Option<&grid_obs::Recorder>,
) -> Value {
    let mut v = Value::object();
    v.insert("schema", "obs-sidecar/1");
    v.insert("label", unit.label());
    v.insert("wall_ms", wall_ms);
    v.insert("jobs", jobs as u64);
    v.insert(
        "cluster_stats",
        Value::Arr(stats.iter().map(|s| s.to_json()).collect()),
    );
    // Zero-omitted, like the optional ClusterStats counters: sidecars
    // from a heap-backend build stay byte-identical.
    if grid.queue_bucket_spills > 0 {
        v.insert("queue_bucket_spills", grid.queue_bucket_spills);
    }
    if let Some(rec) = recorder {
        v.insert("events", rec.events().len() as u64);
        v.insert("spans", rec.spans_value());
    }
    v
}

/// Simulate one unit under `catch_unwind`, persist its record and
/// telemetry sidecar (when a cache is given) and its trace files (when a
/// trace directory is given). The drain loop's one compute path, so
/// every drain writes byte-identical cache contents and identical
/// warning lines.
///
/// `metrics` mirrors engine counters into a live [`MetricsRegistry`]
/// (the runner's `/metrics` endpoint); like tracing, it enables the
/// recorder but leaves outcome and cache bytes identical.
pub(crate) fn compute_and_store(
    unit: &RunUnit,
    cache: Option<&ResultCache>,
    trace: Option<&std::path::Path>,
    metrics: Option<&grid_obs::MetricsRegistry>,
) -> Resolution {
    let t0 = Instant::now();
    let obs = match (metrics, trace) {
        (Some(reg), _) => Obs::with_metrics(reg.clone()),
        (None, Some(_)) => Obs::enabled(),
        (None, None) => Obs::disabled(),
    };
    match catch_unwind(AssertUnwindSafe(|| simulate_observed(unit, &obs))) {
        Ok((outcome, stats, grid)) => {
            let wall = t0.elapsed();
            let recorder = obs.snapshot();
            let mut store_error = None;
            if let Some(cache) = cache {
                let record = RunRecord::new(unit, outcome.clone());
                if let Err(e) = cache.store(unit, &record) {
                    eprintln!("[WARN] {}: result not persisted: {e}", unit.label());
                    store_error = Some(e.to_string());
                }
                // Telemetry, not results: a failed sidecar write is
                // worth a warning but never an execution error.
                let sidecar = obs_sidecar(
                    unit,
                    wall.as_millis() as u64,
                    outcome.len(),
                    &stats,
                    grid,
                    recorder.as_ref(),
                );
                if let Err(e) = cache.store_obs(unit, &sidecar) {
                    eprintln!("[WARN] {}: sidecar not persisted: {e}", unit.label());
                }
            }
            if let (Some(dir), Some(rec)) = (trace, &recorder) {
                let stem = safe_stem(&unit.label());
                let written =
                    std::fs::write(dir.join(format!("{stem}.trace.json")), rec.chrome_trace())
                        .and_then(|_| {
                            std::fs::write(
                                dir.join(format!("{stem}.events.jsonl")),
                                rec.events_jsonl(),
                            )
                        });
                if let Err(e) = written {
                    eprintln!("[WARN] {}: trace not written: {e}", unit.label());
                }
            }
            Resolution::Computed {
                outcome,
                wall,
                store_error,
            }
        }
        Err(payload) => {
            let message = panic_message(&payload);
            eprintln!("[FAIL] {}: {message}", unit.label());
            Resolution::Failed(message)
        }
    }
}

/// A unit label reduced to filesystem-safe characters.
pub(crate) fn safe_stem(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Execute `units` in this process, returning each unit's outcome in
/// input order (`None` for failed units) plus a summary.
pub fn execute(
    units: &[RunUnit],
    cache: Option<&ResultCache>,
    opts: &ExecOptions,
) -> (Vec<Option<RunOutcome>>, DrainSummary) {
    in_process(units, cache, opts, None, true)
}

/// Drain `plan` (the expansion of `spec`) in this process, as `campaign
/// run` does: [`execute`]'s loop under the convergence frontier of
/// `converge` (falling back to the spec's `[converge]`), the same
/// frontier `campaign runner` and `campaign report` apply. Outcomes are
/// not kept, so memory stays flat as the plan grows.
pub fn execute_plan(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    cache: &ResultCache,
    converge: Option<Converge>,
    opts: &ExecOptions,
) -> DrainSummary {
    let frontier = converge
        .or(spec.converge)
        .map(|conf| ConvergenceTracker::new(spec, plan, conf));
    in_process(&plan.units, Some(cache), opts, frontier, false).1
}

fn in_process(
    units: &[RunUnit],
    cache: Option<&ResultCache>,
    opts: &ExecOptions,
    frontier: Option<ConvergenceTracker>,
    keep_outcomes: bool,
) -> (Vec<Option<RunOutcome>>, DrainSummary) {
    let drain = Drain {
        units,
        cache,
        threads: opts.threads,
        lines: opts.progress,
        status: opts.status,
        trace: opts.trace.as_deref(),
        metrics: None,
        frontier,
        leases: None,
        keep_outcomes,
    };
    drain.run().expect("in-process claims touch no lease file")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use grid_batch::BatchPolicy;
    use grid_workload::Scenario;

    fn tiny_units() -> Vec<RunUnit> {
        let mut spec = CampaignSpec::paper();
        spec.scenarios = vec![Scenario::Jun];
        spec.heterogeneity = vec![false];
        spec.policies = vec![BatchPolicy::Fcfs];
        spec.heuristics = vec![grid_realloc::Heuristic::Mct];
        spec.fraction = 0.01;
        spec.expand().units
    }

    #[test]
    fn executes_all_units_deterministically() {
        let units = tiny_units();
        assert_eq!(units.len(), 3); // 1 reference + 2 algorithms × 1 heuristic.
        let opts = ExecOptions::default();
        let (a, sa) = execute(&units, None, &opts);
        let (b, sb) = execute(&units, None, &opts);
        assert_eq!(sa.computed, 3);
        assert_eq!(sb.computed, 3);
        assert!(sa.failures.is_empty());
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.records, y.records);
            assert_eq!(x.total_reallocations, y.total_reallocations);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let units = tiny_units();
        let (seq, _) = execute(
            &units,
            None,
            &ExecOptions {
                threads: Some(1),
                ..ExecOptions::default()
            },
        );
        let (par, _) = execute(
            &units,
            None,
            &ExecOptions {
                threads: Some(4),
                ..ExecOptions::default()
            },
        );
        for (x, y) in seq.iter().zip(&par) {
            assert_eq!(x.as_ref().unwrap().records, y.as_ref().unwrap().records);
        }
    }

    #[test]
    fn store_errors_do_not_count_as_run_failures() {
        let units = tiny_units();
        let dir = std::env::temp_dir().join(format!("grid-campaign-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::ResultCache::open(&dir).unwrap();
        // Yank the directory out from under the cache: every store fails,
        // but the simulations themselves succeed.
        std::fs::remove_dir_all(&dir).unwrap();
        let (outcomes, summary) = execute(&units, Some(&cache), &ExecOptions::default());
        assert_eq!(summary.computed, units.len());
        assert!(summary.failures.is_empty(), "sim succeeded — not a failure");
        assert_eq!(summary.store_errors.len(), units.len());
        assert!(outcomes.iter().all(Option::is_some));
    }

    #[test]
    fn tracing_leaves_outcomes_and_cache_bytes_identical_and_writes_sidecars() {
        let units = tiny_units();
        let base = std::env::temp_dir().join(format!("grid-campaign-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let plain_cache = crate::cache::ResultCache::open(base.join("plain")).unwrap();
        let traced_cache = crate::cache::ResultCache::open(base.join("traced")).unwrap();
        let trace_dir = base.join("traces");

        let (plain, _) = execute(&units, Some(&plain_cache), &ExecOptions::default());
        let (traced, summary) = execute(
            &units,
            Some(&traced_cache),
            &ExecOptions {
                trace: Some(trace_dir.clone()),
                ..ExecOptions::default()
            },
        );
        assert_eq!(summary.computed, units.len());
        for (unit, (x, y)) in units.iter().zip(plain.iter().zip(&traced)) {
            assert_eq!(
                x.as_ref().unwrap().records,
                y.as_ref().unwrap().records,
                "tracing must not perturb outcomes"
            );
            // Record files must be byte-identical whether or not the
            // recorder was attached.
            let a = std::fs::read(plain_cache.path(unit)).unwrap();
            let b = std::fs::read(traced_cache.path(unit)).unwrap();
            assert_eq!(a, b, "cache bytes diverged for {}", unit.label());
            // Both executions leave a telemetry sidecar; the traced one
            // additionally carries event counts and span timings.
            let plain_side = plain_cache.load_obs(unit).expect("plain sidecar");
            assert!(plain_side.get("wall_ms").is_some());
            assert!(
                plain_side.get("events").is_none(),
                "disabled obs: no events"
            );
            let traced_side = traced_cache.load_obs(unit).expect("traced sidecar");
            assert!(traced_side.get("events").and_then(Value::as_u64).unwrap() > 0);
            assert_eq!(
                traced_side
                    .get("cluster_stats")
                    .and_then(Value::as_arr)
                    .map(<[Value]>::len),
                plain_side
                    .get("cluster_stats")
                    .and_then(Value::as_arr)
                    .map(<[Value]>::len),
            );
            // And a parseable Chrome trace + event stream per computed run.
            let stem = safe_stem(&unit.label());
            let trace_text =
                std::fs::read_to_string(trace_dir.join(format!("{stem}.trace.json"))).unwrap();
            let trace = Value::parse(&trace_text).expect("trace is valid JSON");
            assert!(trace.get("traceEvents").and_then(Value::as_arr).is_some());
            let jsonl =
                std::fs::read_to_string(trace_dir.join(format!("{stem}.events.jsonl"))).unwrap();
            assert!(jsonl.lines().all(|l| Value::parse(l).is_ok()));
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn cache_hits_skip_sidecar_rewrites() {
        let units = tiny_units();
        let base =
            std::env::temp_dir().join(format!("grid-campaign-obs-hit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let cache = crate::cache::ResultCache::open(&base).unwrap();
        let (_, first) = execute(&units, Some(&cache), &ExecOptions::default());
        assert_eq!(first.computed, units.len());
        let before: Vec<String> = units
            .iter()
            .map(|u| cache.load_obs(u).unwrap().encode())
            .collect();
        let (_, second) = execute(&units, Some(&cache), &ExecOptions::default());
        assert_eq!(second.cached, units.len());
        for (unit, old) in units.iter().zip(&before) {
            assert_eq!(
                &cache.load_obs(unit).unwrap().encode(),
                old,
                "a cache hit must not touch telemetry"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `grid_sim` applies trace perturbation before the simulation runs:
    /// the perturbed unit differs from the healthy one, deterministically.
    #[test]
    fn suite_fault_perturbs_the_trace_deterministically() {
        let healthy_unit = RunUnit {
            scenario: Scenario::Jun,
            heterogeneous: false,
            policy: BatchPolicy::Fcfs,
            seed: 42,
            fraction: 0.01,
            fault: grid_fault::Fault::NONE,
            mapping: grid_realloc::Mapping::Mct,
            walltime_adjustment: true,
            kind: RunKind::Reference,
        };
        let perturbed_unit = RunUnit {
            fault: grid_fault::Fault::resolve_expr("perturb(jitter_s=1800, runtime_factor=1.3)")
                .unwrap(),
            ..healthy_unit.clone()
        };
        let run = |unit: &RunUnit| grid_sim(unit).run().unwrap().0;
        let healthy = run(&healthy_unit);
        let perturbed = run(&perturbed_unit);
        assert_eq!(perturbed.records.len(), healthy.records.len());
        assert_ne!(perturbed.records, healthy.records);
        assert_eq!(perturbed.records, run(&perturbed_unit).records);
    }

    #[test]
    fn safe_stem_strips_path_hazards() {
        assert_eq!(safe_stem("jun/hom FCFS s42"), "jun-hom-FCFS-s42");
        assert_eq!(safe_stem("a_b-c.1"), "a_b-c.1");
    }

    #[test]
    fn panics_are_isolated_per_unit() {
        // fraction is validated at spec load; a hand-built unit can still
        // carry a poisoned value — the executor must contain the blast.
        let mut units = tiny_units();
        units[1].fraction = -1.0; // generate_fraction panics on this
        let (outcomes, summary) = execute(&units, None, &ExecOptions::default());
        assert_eq!(summary.failures.len(), 1);
        assert!(outcomes[1].is_none());
        assert!(outcomes[0].is_some(), "healthy units must still complete");
        assert!(outcomes[2].is_some());
        assert_eq!(summary.computed, 2);
    }
    /// A seed that fails leaves no record for the frontier to wait on:
    /// its cell never converges, and every later seed runs.
    #[test]
    fn a_failed_seed_lets_the_frontier_run_its_cell_out() {
        let mut spec = CampaignSpec::paper();
        spec.scenarios = vec![Scenario::Jun];
        spec.heterogeneity = vec![false];
        spec.policies = vec![BatchPolicy::Fcfs];
        spec.algorithms = vec![grid_realloc::ReallocAlgorithm::resolve("no-cancel").unwrap()];
        spec.heuristics = vec![grid_realloc::Heuristic::Mct];
        spec.seeds = vec![1, 2, 3, 4];
        spec.fraction = 0.005;
        let mut plan = spec.expand();
        assert_eq!(plan.len(), 8);
        let poisoned = plan
            .units
            .iter()
            .position(|u| u.seed == 1 && u.kind != RunKind::Reference)
            .unwrap();
        plan.units[poisoned].fraction = -1.0;
        let dir = std::env::temp_dir().join(format!("grid-campaign-conv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        // A generous target would stop every cell at two seeds.
        let conf = Converge {
            target: 1e9,
            min_seeds: 2,
        };
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let summary = execute_plan(&spec, &plan, &cache, Some(conf), &ExecOptions::default());
            let _ = std::fs::remove_dir_all(cache.dir());
            done.send(summary).unwrap();
        });
        let summary = finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the drain finishes instead of waiting on the failed seed");
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.computed, 7);
    }

    /// Workers drop the lock while a record loads; a resolve in that
    /// window must not leave a worker asleep on a deferred unit that
    /// nothing will wake it for.
    #[test]
    fn deferring_drains_never_sleep_through_their_last_wake_up() {
        let mut spec = CampaignSpec::paper();
        spec.scenarios = vec![Scenario::Jun];
        spec.heterogeneity = vec![false];
        spec.policies = vec![BatchPolicy::Fcfs];
        spec.heuristics = vec![
            grid_realloc::Heuristic::Mct,
            grid_realloc::Heuristic::MinMin,
        ];
        spec.seeds = (1..=6).collect();
        spec.fraction = 0.002;
        let plan = spec.expand();
        assert_eq!(plan.len(), 30);
        let conf = Converge {
            target: 1e9,
            min_seeds: 3,
        };
        let base = std::env::temp_dir().join(format!("grid-campaign-wake-{}", std::process::id()));
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..20 {
                let cache = ResultCache::open(base.join(round.to_string())).unwrap();
                let opts = ExecOptions {
                    threads: Some(3),
                    ..ExecOptions::default()
                };
                done.send(execute_plan(&spec, &plan, &cache, Some(conf), &opts))
                    .unwrap();
            }
            let _ = std::fs::remove_dir_all(&base);
        });
        for _ in 0..20 {
            let summary = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("every drain finishes");
            assert_eq!((summary.computed, summary.skipped), (15, 15));
        }
    }
}
