//! Integration tests pinning the runner-fleet contracts:
//!
//! * an N-runner dynamic-claim drain writes the byte-identical cache of
//!   a single-runner drain;
//! * a crashed runner's expired lease is re-claimed (stolen) and the
//!   final cache still matches a clean single-runner drain sha-for-sha;
//! * active foreign leases are honoured, failure markers stop fleets
//!   from retrying deterministic panics forever;
//! * the convergence frontier stops tail seeds identically for any
//!   fleet size, and `convergence_skips` (the report's view) agrees
//!   with what the runners actually skipped.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use grid_batch::BatchPolicy;
use grid_campaign::{
    convergence_skips, execute, run_fleet, CampaignSpec, Claim, Converge, ExecOptions,
    FleetOptions, LeaseDir, ResultCache,
};
use grid_realloc::Heuristic;
use grid_workload::Scenario;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 2 refs + 8 realloc runs on 1% of June (same shape as the engine
/// tests' tiny campaign).
fn tiny_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper();
    spec.name = "fleet-tiny".into();
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false, true];
    spec.policies = vec![BatchPolicy::Fcfs];
    spec.heuristics = vec![Heuristic::Mct, Heuristic::MinMin];
    spec.fraction = 0.01;
    spec
}

/// Six-seed single-cell campaign for the convergence frontier: 6 refs +
/// 6 realloc runs, one table cell replicated across seeds.
fn multi_seed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper();
    spec.name = "fleet-seeds".into();
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false];
    spec.policies = vec![BatchPolicy::Fcfs];
    spec.algorithms = vec![grid_realloc::ReallocAlgorithm::resolve("no-cancel").unwrap()];
    spec.heuristics = vec![Heuristic::Mct];
    spec.seeds = vec![1, 2, 3, 4, 5, 6];
    spec.fraction = 0.005;
    spec
}

fn fleet_opts(id: &str) -> FleetOptions {
    FleetOptions {
        runner_id: Some(id.into()),
        poll_ms: 10,
        threads: Some(1),
        ..FleetOptions::default()
    }
}

/// Record files (top level only — leases and sidecars excluded), keyed
/// by file name.
fn cache_bytes(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let path = entry.unwrap().path();
        if path.is_file() && path.extension().is_some_and(|e| e == "json") {
            out.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    out
}

fn lease_files(dir: &Path) -> Vec<String> {
    let leases = dir.join("leases");
    if !leases.is_dir() {
        return Vec::new();
    }
    std::fs::read_dir(leases)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".lease"))
        .collect()
}

#[test]
fn three_runner_drain_is_byte_identical_to_single_runner() {
    let spec = tiny_spec();
    let plan = spec.expand();

    let dir_single = scratch("single");
    let cache_single = ResultCache::open(&dir_single).unwrap();
    let summary = run_fleet(&spec, &plan, &cache_single, &fleet_opts("solo")).unwrap();
    assert_eq!(summary.computed, plan.len());
    assert!(summary.failures.is_empty());
    assert_eq!(summary.stolen, 0);

    let dir_fleet = scratch("trio");
    let cache_fleet = ResultCache::open(&dir_fleet).unwrap();
    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let spec = &spec;
                let plan = &plan;
                let cache = &cache_fleet;
                scope.spawn(move || {
                    run_fleet(spec, plan, cache, &fleet_opts(&format!("r{i}"))).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Every runner accounts for the full plan; the fleet as a whole
    // computed everything at least once (benign duplicate work can only
    // arise from claim races, never divergent bytes).
    let mut total_computed = 0;
    for s in &summaries {
        assert_eq!(
            s.computed + s.cached + s.skipped + s.failures.len(),
            plan.len()
        );
        assert!(s.failures.is_empty());
        total_computed += s.computed;
    }
    assert!(total_computed >= plan.len());
    assert_eq!(
        cache_bytes(&dir_single),
        cache_bytes(&dir_fleet),
        "3-runner dynamic drain must write the single-runner bytes"
    );
    assert!(
        lease_files(&dir_fleet).is_empty(),
        "all leases released after the drain"
    );
}

#[test]
fn expired_lease_of_a_crashed_runner_is_reclaimed() {
    let spec = tiny_spec();
    let plan = spec.expand();

    // Golden: a clean single-runner drain.
    let dir_clean = scratch("crash-clean");
    let cache_clean = ResultCache::open(&dir_clean).unwrap();
    run_fleet(&spec, &plan, &cache_clean, &fleet_opts("clean")).unwrap();

    // Crash scenario: a runner claimed two units and died without
    // releasing (TTL 0 ⇒ already expired, like a dead runner's lease
    // after its TTL passes).
    let dir_crash = scratch("crash-recover");
    let cache_crash = ResultCache::open(&dir_crash).unwrap();
    let leases = LeaseDir::open(&cache_crash).unwrap();
    for unit in plan.units.iter().take(2) {
        assert_eq!(
            leases
                .try_claim(&ResultCache::key(unit), &unit.label(), "dead", 0)
                .unwrap(),
            Claim::Claimed { stolen: false }
        );
    }
    let summary = run_fleet(&spec, &plan, &cache_crash, &fleet_opts("rescuer")).unwrap();
    assert_eq!(summary.stolen, 2, "both expired leases re-claimed");
    assert_eq!(summary.computed, plan.len(), "crashed work retried");
    assert_eq!(
        cache_bytes(&dir_clean),
        cache_bytes(&dir_crash),
        "post-recovery cache must be byte-identical to a clean drain"
    );
}

#[test]
fn active_foreign_lease_is_honoured_until_its_record_lands() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let dir = scratch("foreign");
    let cache = ResultCache::open(&dir).unwrap();
    let leases = LeaseDir::open(&cache).unwrap();
    let foreign_unit = plan.units[0].clone();
    assert_eq!(
        leases
            .try_claim(
                &ResultCache::key(&foreign_unit),
                &foreign_unit.label(),
                "other",
                600,
            )
            .unwrap(),
        Claim::Claimed { stolen: false }
    );
    let summary = std::thread::scope(|scope| {
        // The "other runner": finishes its claimed unit shortly after
        // the local fleet starts polling around it.
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(150));
            let (_, s) = execute(
                std::slice::from_ref(&foreign_unit),
                Some(&cache),
                &ExecOptions {
                    progress: false,
                    ..ExecOptions::default()
                },
            );
            assert!(s.failures.is_empty());
            leases.release(&ResultCache::key(&foreign_unit));
        });
        run_fleet(&spec, &plan, &cache, &fleet_opts("local")).unwrap()
    });
    assert_eq!(summary.stolen, 0, "an unexpired lease is never stolen");
    assert_eq!(summary.cached, 1, "the foreign unit arrived as a record");
    assert_eq!(summary.computed, plan.len() - 1);
}

#[test]
fn failure_marker_resolves_the_unit_instead_of_retrying_forever() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let dir = scratch("marker");
    let cache = ResultCache::open(&dir).unwrap();
    let leases = LeaseDir::open(&cache).unwrap();
    let poisoned = &plan.units[3];
    leases.mark_failed(
        &ResultCache::key(poisoned),
        &poisoned.label(),
        "earlier-runner",
        "deterministic panic: boom",
    );
    let summary = run_fleet(&spec, &plan, &cache, &fleet_opts("local")).unwrap();
    assert_eq!(summary.failures.len(), 1);
    assert_eq!(summary.computed, plan.len() - 1);
    assert!(
        summary.failures[0].message.contains("boom"),
        "{:?}",
        summary.failures
    );
    assert!(
        !cache.contains(poisoned),
        "marked unit must not have been recomputed"
    );
}

#[test]
fn convergence_frontier_is_identical_for_any_fleet_size() {
    let mut spec = multi_seed_spec();
    // A generous target converges every cell right at min_seeds.
    spec.converge = Some(Converge {
        target: 1e9,
        min_seeds: 3,
    });
    let plan = spec.expand();
    assert_eq!(plan.len(), 12, "6 refs + 6 realloc");

    let dir_single = scratch("conv-single");
    let cache_single = ResultCache::open(&dir_single).unwrap();
    let summary = run_fleet(&spec, &plan, &cache_single, &fleet_opts("solo")).unwrap();
    assert_eq!(summary.computed, 6, "3 seeds × (ref + realloc)");
    assert_eq!(summary.skipped, 6, "seeds 4..6 stopped by the CI rule");

    let dir_fleet = scratch("conv-trio");
    let cache_fleet = ResultCache::open(&dir_fleet).unwrap();
    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let spec = &spec;
                let plan = &plan;
                let cache = &cache_fleet;
                scope.spawn(move || {
                    run_fleet(spec, plan, cache, &fleet_opts(&format!("r{i}"))).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for s in &summaries {
        assert_eq!(s.skipped, 6, "every runner reaches the same frontier");
        assert_eq!(s.computed + s.cached, 6);
    }
    assert_eq!(
        cache_bytes(&dir_single),
        cache_bytes(&dir_fleet),
        "fleet size must not change which seeds run or their bytes"
    );

    // The report recomputes the same frontier from the records alone.
    let skips = convergence_skips(&spec, &plan, &cache_fleet, None);
    assert_eq!(skips.len(), 6);
    for (i, unit) in plan.units.iter().enumerate() {
        assert_eq!(
            cache_fleet.contains(unit),
            !skips.contains(&i),
            "every unit is either recorded or skipped: {}",
            unit.label()
        );
    }
    // Raising min_seeds to the full seed count disables the rule: no
    // prefix of length ≥ 6 exists before any unit, so nothing may skip
    // regardless of the target — and seeds 4..6 defer on their missing
    // records rather than converging.
    let gated = convergence_skips(
        &spec,
        &plan,
        &cache_fleet,
        Some(Converge {
            target: 1e9,
            min_seeds: 6,
        }),
    );
    assert!(gated.is_empty(), "{gated:?}");
}

#[test]
fn metrics_and_heartbeats_leave_cache_bytes_identical() {
    let spec = tiny_spec();
    let plan = spec.expand();

    // Golden: a telemetry-free drain.
    let dir_plain = scratch("telemetry-plain");
    let cache_plain = ResultCache::open(&dir_plain).unwrap();
    run_fleet(&spec, &plan, &cache_plain, &fleet_opts("plain")).unwrap();

    // Live drain: metrics registry attached (the runner's `/metrics`
    // endpoint reads this concurrently in production).
    let dir_live = scratch("telemetry-live");
    let cache_live = ResultCache::open(&dir_live).unwrap();
    let registry = grid_obs::MetricsRegistry::new();
    let opts = FleetOptions {
        metrics: Some(registry.clone()),
        ..fleet_opts("tele")
    };
    let summary = run_fleet(&spec, &plan, &cache_live, &opts).unwrap();
    assert_eq!(summary.computed, plan.len());
    assert_eq!(
        cache_bytes(&dir_plain),
        cache_bytes(&dir_live),
        "telemetry is sidecar-only: record bytes must not move"
    );

    // The registry ends the drain agreeing with the summary, carrying
    // both the fleet counters and the mirrored engine counters.
    let page = registry.render();
    assert!(
        page.contains(&format!(
            "campaign_units_computed_total {}\n",
            summary.computed
        )),
        "{page}"
    );
    assert!(
        page.contains(&format!("campaign_units_total {}\n", plan.len())),
        "{page}"
    );
    assert!(page.contains("campaign_units_in_flight 0\n"), "{page}");
    assert!(page.contains("campaign_run_wall_ms_count"), "{page}");
    assert!(page.contains("campaign_heartbeats_written_total"), "{page}");
    assert!(
        page.contains("grid_sim_batches_total"),
        "engine counters mirror into the same registry: {page}"
    );

    // A cleanly exited runner leaves no heartbeat behind.
    assert!(
        !grid_campaign::heartbeat_file(&dir_live, "tele").exists(),
        "heartbeat removed on clean exit"
    );
    let hb_dir = dir_live.join("leases/runners");
    let left: Vec<_> = std::fs::read_dir(&hb_dir)
        .map(|rd| rd.filter_map(Result::ok).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn converge_free_fleet_matches_single_execute() {
    // One in-process `execute` over the whole plan and the fleet must
    // agree byte-for-byte on a multi-seed campaign without a
    // convergence rule.
    let spec = multi_seed_spec();
    let plan = spec.expand();

    let dir_single = scratch("whole-execute");
    let cache_single = ResultCache::open(&dir_single).unwrap();
    let (_, s) = execute(&plan.units, Some(&cache_single), &ExecOptions::default());
    assert!(s.failures.is_empty());

    let dir_fleet = scratch("dynamic");
    let cache_fleet = ResultCache::open(&dir_fleet).unwrap();
    let summary = run_fleet(&spec, &plan, &cache_fleet, &fleet_opts("solo")).unwrap();
    assert_eq!(summary.skipped, 0, "no converge rule, nothing skipped");
    assert_eq!(cache_bytes(&dir_single), cache_bytes(&dir_fleet));
}

#[test]
fn a_truncated_record_is_recomputed_and_restored() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let dir = scratch("truncated");
    let cache = ResultCache::open(&dir).unwrap();
    run_fleet(&spec, &plan, &cache, &fleet_opts("first")).unwrap();
    let golden = cache_bytes(&dir);
    // A torn write from outside the runner's atomic rename (a full disk,
    // a copy cut short): the file exists but holds no record.
    std::fs::write(cache.path(&plan.units[3]), "").unwrap();
    let summary = run_fleet(&spec, &plan, &cache, &fleet_opts("repair")).unwrap();
    assert_eq!(summary.computed, 1, "the hit test decodes the record");
    assert_eq!(summary.cached, plan.len() - 1);
    assert_eq!(
        cache_bytes(&dir),
        golden,
        "the repaired record is byte-identical"
    );
}

#[test]
fn runner_creates_a_missing_trace_directory() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let dir = scratch("trace-dir");
    let cache = ResultCache::open(dir.join("cache")).unwrap();
    let traces = dir.join("traces/nested");
    let opts = FleetOptions {
        trace: Some(traces.clone()),
        ..fleet_opts("tracer")
    };
    let summary = run_fleet(&spec, &plan, &cache, &opts).unwrap();
    assert_eq!(summary.computed, plan.len());
    let names: Vec<String> = std::fs::read_dir(&traces)
        .expect("the drain creates the trace directory")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for suffix in [".trace.json", ".events.jsonl"] {
        let count = names.iter().filter(|n| n.ends_with(suffix)).count();
        assert_eq!(count, summary.computed, "{suffix}: {names:?}");
    }
}

#[test]
fn an_idle_worker_does_not_sleep_out_the_poll_interval() {
    let spec = tiny_spec();
    let plan = spec.expand();
    assert!(plan.len() >= 3);
    let cache = ResultCache::open(scratch("tail-wait")).unwrap();
    let opts = FleetOptions {
        threads: Some(2),
        poll_ms: 30_000,
        ..fleet_opts("tail")
    };
    let started = std::time::Instant::now();
    let summary = run_fleet(&spec, &plan, &cache, &opts).unwrap();
    assert_eq!(summary.computed, plan.len());
    // Without foreign leases nothing needs polling: the worker that runs
    // out of units waits for its peer's last resolve, not for the poll
    // interval.
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 10, "drain took {elapsed:?}");
}

/// A worker that dies outside the per-unit panic isolation, here on a
/// warning written to a stderr nobody reads any more, ends the runner
/// instead of leaving its heartbeat thread waiting for that worker.
#[test]
fn a_dead_worker_does_not_hang_the_runner() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let dir = scratch("dead-worker");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("not-a-dir"), "").unwrap();
    let spec = dir.join("seeds.toml");
    std::fs::write(
        &spec,
        "name = \"seeds\"\nfraction = 0.002\nseeds = \"1..=50\"\n[matrix]\n\
         scenarios = [\"jun\"]\nplatforms = [\"homogeneous\"]\npolicies = [\"fcfs\"]\n\
         algorithms = [\"no-cancel\"]\nheuristics = [\"mct\"]\n",
    )
    .unwrap();
    let mut runner = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["runner", "--quiet", "--threads", "1", "--spec"])
        .arg(&spec)
        .arg("--cache")
        .arg(dir.join("cache"))
        // Every computed unit warns that its trace cannot be written.
        .arg("--trace")
        .arg(dir.join("not-a-dir/traces"))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = std::io::BufReader::new(runner.stderr.take().unwrap());
    stderr.read_line(&mut String::new()).unwrap();
    drop(stderr);
    let started = Instant::now();
    while runner.try_wait().unwrap().is_none() {
        if started.elapsed() > Duration::from_secs(60) {
            runner.kill().unwrap();
            panic!("the runner hung after its worker died");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
