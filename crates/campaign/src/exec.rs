//! Parallel executor with panic isolation and caching.
//!
//! Work units are pulled off a shared atomic cursor by a scoped worker
//! pool (dynamic load balancing with an explicit thread count, so
//! benchmarks and the CLI can pin parallelism). Each unit:
//!
//! 1. probes the [`ResultCache`] (when configured) — a hit skips the
//!    simulation entirely;
//! 2. otherwise runs the simulation inside `catch_unwind`, so one
//!    poisoned scenario fails that unit, not the campaign;
//! 3. persists the record back to the cache before reporting progress.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use grid_batch::ClusterStats;
use grid_des::Duration;
use grid_metrics::RunOutcome;
use grid_obs::{Obs, ProgressView};
use grid_realloc::experiments::{run_one, run_one_observed, SuiteConfig};
use grid_realloc::ReallocConfig;
use grid_ser::Value;

use crate::cache::{ResultCache, RunRecord};
use crate::plan::{RunKind, RunUnit};

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

/// What one unit did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitDisposition {
    Cached,
    Computed,
    Failed,
}

/// One failed unit.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Label of the failing unit.
    pub unit: String,
    /// Panic payload or I/O error, as text.
    pub message: String,
}

/// Campaign-level execution summary.
#[derive(Debug, Clone, Default)]
pub struct ExecSummary {
    /// Units simulated this invocation.
    pub computed: usize,
    /// Units answered from the cache.
    pub cached: usize,
    /// Units that panicked — no outcome exists for these.
    pub failures: Vec<RunFailure>,
    /// Units that simulated fine but whose record could not be written
    /// to the cache. Their outcomes are valid in-process; a later
    /// `report` run against the cache will find them missing.
    pub store_errors: Vec<RunFailure>,
}

/// Simulate one unit (no cache, no isolation) — the pure function the
/// executor wraps.
pub fn simulate(unit: &RunUnit) -> RunOutcome {
    let (realloc, suite) = run_setup(unit);
    run_one(
        unit.scenario,
        unit.heterogeneous,
        unit.policy,
        realloc,
        &suite,
    )
}

/// Simulate one unit with an [`Obs`] recorder attached. The outcome is
/// byte-identical to [`simulate`] — the recorder is write-only — and the
/// per-site scheduler counters plus the grid-level engine counters come
/// back alongside it.
pub fn simulate_observed(
    unit: &RunUnit,
    obs: &Obs,
) -> (RunOutcome, Vec<ClusterStats>, grid_realloc::GridStats) {
    let (realloc, suite) = run_setup(unit);
    run_one_observed(
        unit.scenario,
        unit.heterogeneous,
        unit.policy,
        realloc,
        &suite,
        obs,
    )
}

/// A unit's reallocation setting (`None` for a reference run) and the
/// suite knobs it runs under.
fn run_setup(unit: &RunUnit) -> (Option<ReallocConfig>, SuiteConfig) {
    let (realloc, period, threshold) = match unit.kind {
        RunKind::Reference => (None, Duration::hours(1), Duration::secs(60)),
        RunKind::Realloc(setting) => (Some(setting.to_config()), setting.period, setting.threshold),
    };
    let suite = SuiteConfig {
        seed: unit.seed,
        fraction: unit.fraction,
        period,
        threshold,
        fault: unit.fault,
    };
    (realloc, suite)
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

/// What [`compute_and_store`] did with one unit.
#[derive(Debug)]
pub(crate) enum Computed {
    /// Simulation succeeded (record + sidecar stored when a cache was
    /// given; `store_error` carries a failed record write).
    Done {
        /// The simulation outcome.
        outcome: RunOutcome,
        /// Simulation wall time.
        wall: std::time::Duration,
        /// Record-store failure, if any (the outcome is still valid).
        store_error: Option<String>,
    },
    /// The simulation panicked.
    Panicked {
        /// Panic payload as text.
        message: String,
    },
}

/// Simulate one unit under `catch_unwind`, persist its record and
/// telemetry sidecar (when a cache is given) and its trace files (when a
/// trace directory is given). The one compute path shared by the
/// in-process executor and the fleet runner, so both produce
/// byte-identical cache contents and identical warning lines.
///
/// `metrics` mirrors engine counters into a live [`MetricsRegistry`]
/// (the runner's `/metrics` endpoint); like tracing, it enables the
/// recorder but leaves outcome and cache bytes identical.
pub(crate) fn compute_and_store(
    unit: &RunUnit,
    cache: Option<&ResultCache>,
    trace: Option<&std::path::Path>,
    metrics: Option<&grid_obs::MetricsRegistry>,
) -> Computed {
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
            Computed::Done {
                outcome,
                wall,
                store_error,
            }
        }
        Err(payload) => {
            let message = panic_message(&payload);
            eprintln!("[FAIL] {}: {message}", unit.label());
            Computed::Panicked { message }
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

/// Execute `units`, returning each unit's outcome in input order
/// (`None` for failed units) plus a summary.
pub fn execute(
    units: &[RunUnit],
    cache: Option<&ResultCache>,
    opts: &ExecOptions,
) -> (Vec<Option<RunOutcome>>, ExecSummary) {
    let n = units.len();
    let threads = opts
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, n.max(1));
    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    let store_errors = Mutex::new(Vec::new());
    let view = Mutex::new(ProgressView::new(n));
    if let Some(dir) = &opts.trace {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[WARN] trace dir {}: {e}", dir.display());
        }
    }

    let run_unit = |i: usize| -> (UnitDisposition, Option<RunOutcome>) {
        let unit = &units[i];
        if let Some(cache) = cache {
            if let Some(record) = cache.load(unit) {
                if opts.status {
                    let mut v = view.lock().unwrap();
                    v.on_cached();
                    v.elapsed_ms = started.elapsed().as_millis() as u64;
                    eprint!("\r{}", v.render());
                }
                return (UnitDisposition::Cached, Some(record.outcome));
            }
        }
        match compute_and_store(unit, cache, opts.trace.as_deref(), None) {
            Computed::Done {
                outcome,
                wall,
                store_error,
            } => {
                if let Some(message) = store_error {
                    store_errors.lock().unwrap().push(RunFailure {
                        unit: unit.label(),
                        message,
                    });
                }
                if opts.progress {
                    let k = done.load(Ordering::Relaxed) + 1;
                    eprintln!(
                        "[{k:>4}/{n}] {} ({} jobs, {wall:.1?})",
                        unit.label(),
                        outcome.len(),
                    );
                }
                if opts.status {
                    let mut v = view.lock().unwrap();
                    v.on_computed(wall.as_millis() as u64);
                    v.elapsed_ms = started.elapsed().as_millis() as u64;
                    eprint!("\r{}", v.render());
                }
                (UnitDisposition::Computed, Some(outcome))
            }
            Computed::Panicked { message } => {
                failures.lock().unwrap().push(RunFailure {
                    unit: unit.label(),
                    message,
                });
                if opts.status {
                    let mut v = view.lock().unwrap();
                    v.on_failed();
                    v.elapsed_ms = started.elapsed().as_millis() as u64;
                    eprint!("\r{}", v.render());
                }
                (UnitDisposition::Failed, None)
            }
        }
    };

    let mut merged: Vec<(usize, (UnitDisposition, Option<RunOutcome>))> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let result = run_unit(i);
                            done.fetch_add(1, Ordering::Relaxed);
                            local.push((i, result));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("campaign worker never panics"))
                .collect()
        });
    merged.sort_by_key(|&(i, _)| i);

    let mut summary = ExecSummary {
        failures: failures.into_inner().unwrap(),
        store_errors: store_errors.into_inner().unwrap(),
        ..ExecSummary::default()
    };
    let outcomes: Vec<Option<RunOutcome>> = merged
        .into_iter()
        .map(|(_, (disposition, outcome))| {
            match disposition {
                UnitDisposition::Cached => summary.cached += 1,
                UnitDisposition::Computed => summary.computed += 1,
                UnitDisposition::Failed => {}
            }
            outcome
        })
        .collect();
    if opts.status {
        let mut v = view.lock().unwrap();
        v.elapsed_ms = started.elapsed().as_millis() as u64;
        eprintln!("\r{}", v.render());
    }
    if opts.progress {
        eprintln!(
            "campaign: {} runs in {:.1?} ({} computed, {} cached, {} failed, {} unpersisted, {threads} threads)",
            n,
            started.elapsed(),
            summary.computed,
            summary.cached,
            summary.failures.len(),
            summary.store_errors.len(),
        );
    }
    (outcomes, summary)
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
}
