//! `fleet` — the dynamic-claiming throughput contract.
//!
//! One cost-skewed campaign, two drain strategies:
//!
//! * **static** — a fixed 4-way round-robin partition of the plan (the
//!   baseline dynamic claiming replaced), four workers each executing
//!   their fixed shard. The matrix is built so the expensive axis
//!   aligns with the shard stride: the reallocation
//!   block cycles through four periods (one hot 120 s period, three
//!   cold ~4 h periods), so round-robin hands *every* hot unit to one
//!   shard and the other three go idle early.
//! * **dynamic** — the same four workers as a coordinator-free fleet
//!   ([`grid_campaign::run_fleet`]): units are claimed one at a time
//!   through lease files in the shared cache, so the hot units spread
//!   across whoever is free.
//!
//! Byte-identity is asserted first — every drain (static, and dynamic
//! at 1/2/4 runners) must write the exact record bytes of a
//! single-runner drain; the speed-up is only meaningful because the
//! answers are equal. The contract: the 4-runner dynamic drain is at
//! least **2×** faster than the static 4-shard drain.
//!
//! Timings are the minimum over the measured passes
//! ([`grid_bench::min_of`]). `BENCH_QUICK=1` shrinks the workload and
//! skips the speed-up assertion (byte-identity still enforced); the
//! assertion is also skipped on hosts with fewer than four CPUs, where a
//! wall-clock speed-up is physically impossible — the ledger records
//! `cpus` and `speedup_asserted` so a gate can tell the difference.
//! Results land in `BENCH_fleet.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use grid_batch::BatchPolicy;
use grid_campaign::{
    execute, run_fleet, CampaignPlan, CampaignSpec, ExecOptions, FleetOptions, ResultCache,
};
use grid_realloc::{Heuristic, ReallocAlgorithm};
use grid_workload::Scenario;

/// The cost-skewed campaign: one June reference plus a 2 algorithms ×
/// 2 heuristics × 4 periods reallocation block. The period axis cycles
/// innermost (thresholds collapse to one value), so consecutive
/// reallocation units walk `120, 14400, 14410, 14420` — and a 4-way
/// round-robin shard pins the hot 120 s period to a single shard.
fn skewed_spec(fraction: f64) -> CampaignSpec {
    let mut spec = CampaignSpec::paper();
    spec.name = "fleet-bench".into();
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false];
    spec.policies = vec![BatchPolicy::Fcfs];
    spec.algorithms = vec![
        ReallocAlgorithm::resolve("no-cancel").unwrap(),
        ReallocAlgorithm::resolve("cancel-all").unwrap(),
    ];
    spec.heuristics = vec![Heuristic::Mct, Heuristic::MinMin];
    // Distinct cold periods (specs reject duplicate axis values) that
    // all behave identically: a handful of reallocation ticks, against
    // hundreds for the hot 120 s period.
    spec.periods_s = vec![120, 14_400, 14_410, 14_420];
    spec.fraction = fraction;
    spec
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Record files by name — leases and sidecars excluded.
fn cache_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
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

/// FNV-1a over the sorted record files — the identity digest every
/// drain must agree on.
fn digest(bytes: &BTreeMap<String, Vec<u8>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, content) in bytes {
        for b in name.bytes().chain(content.iter().copied()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Static round-robin drain: `workers` threads, worker `i` executing
/// plan units `i, i + workers, ...` single-threaded.
fn drain_static(plan: &CampaignPlan, cache: &ResultCache, workers: usize) {
    std::thread::scope(|scope| {
        for index in 0..workers {
            let units: Vec<_> = plan
                .units
                .iter()
                .skip(index)
                .step_by(workers)
                .cloned()
                .collect();
            scope.spawn(move || {
                let (_, summary) = execute(
                    &units,
                    Some(cache),
                    &ExecOptions {
                        threads: Some(1),
                        progress: false,
                        ..ExecOptions::default()
                    },
                );
                assert!(summary.failures.is_empty(), "{:?}", summary.failures);
            });
        }
    });
}

/// Dynamic lease-claiming drain: `runners` fleet workers over one
/// shared cache.
fn drain_dynamic(spec: &CampaignSpec, plan: &CampaignPlan, cache: &ResultCache, runners: usize) {
    std::thread::scope(|scope| {
        for i in 0..runners {
            scope.spawn(move || {
                let summary = run_fleet(
                    spec,
                    plan,
                    cache,
                    &FleetOptions {
                        runner_id: Some(format!("bench-r{i}")),
                        poll_ms: 5,
                        threads: Some(1),
                        ..FleetOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(summary.failed, 0, "{:?}", summary.failures);
            });
        }
    });
}

/// Best-of-`passes` wall time of `drain` into a fresh cache; every
/// pass's record bytes must hash to `golden`.
fn measure(passes: usize, tag: &str, golden: u64, drain: impl Fn(&ResultCache)) -> f64 {
    grid_bench::min_of(
        passes,
        || {
            let dir = scratch(tag);
            let cache = ResultCache::open(&dir).unwrap();
            (dir, cache)
        },
        |(dir, cache)| {
            drain(&cache);
            dir
        },
        |dir| {
            assert_eq!(
                golden,
                digest(&cache_bytes(&dir)),
                "drain changed the campaign's bytes"
            );
            let _ = std::fs::remove_dir_all(&dir);
        },
    )
}

fn main() {
    let quick = grid_bench::quick();
    let passes = if quick { 1 } else { 2 };
    let fraction = if quick { 0.005 } else { 0.1 };
    let cpus = grid_bench::cpus();
    let spec = skewed_spec(fraction);
    let plan = spec.expand();
    println!(
        "bench: fleet — {} runs (hot period 120s on a {}% June workload), {cpus} cpu(s)",
        plan.len(),
        fraction * 100.0
    );

    // Golden: a plain single-runner drain.
    let dir = scratch("golden");
    drain_dynamic(&spec, &plan, &ResultCache::open(&dir).unwrap(), 1);
    let golden = cache_bytes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(golden.len(), plan.len());
    let golden = digest(&golden);

    let mut json = grid_ser::Value::object();
    json.insert("runs", plan.len() as u64);
    json.insert("fraction", fraction);
    json.insert("digest", format!("{golden:016x}"));

    let static_ms = measure(passes, "static4", golden, |cache| {
        drain_static(&plan, cache, 4)
    });
    println!("bench: fleet/static  4 shards  {static_ms:>9.1} ms");
    json.insert("static_4shard_ms", static_ms);

    let mut dynamic_json = grid_ser::Value::object();
    let mut dyn4_ms = f64::INFINITY;
    for runners in [1usize, 2, 4] {
        let ms = measure(passes, &format!("dyn{runners}"), golden, |cache| {
            drain_dynamic(&spec, &plan, cache, runners)
        });
        let runs_per_s = plan.len() as f64 / (ms / 1e3);
        println!("bench: fleet/dynamic {runners} runner(s) {ms:>9.1} ms ({runs_per_s:.1} runs/s)");
        let mut r = grid_ser::Value::object();
        r.insert("wall_ms", ms);
        r.insert("runs_per_s", runs_per_s);
        dynamic_json.insert(format!("{runners}"), r);
        if runners == 4 {
            dyn4_ms = ms;
        }
    }
    json.insert("dynamic", dynamic_json);

    let speedup = static_ms / dyn4_ms.max(f64::MIN_POSITIVE);
    println!("bench: fleet — 4-runner dynamic vs static 4-shard: {speedup:.2}x");
    json.insert("speedup_4runner_vs_static", speedup);

    let assert_speedup = !quick && cpus >= 4;
    json.insert("speedup_asserted", assert_speedup);
    if assert_speedup {
        assert!(
            speedup >= 2.0,
            "dynamic claiming must drain the skewed campaign >= 2x faster than \
             static 4-shard round-robin (measured {speedup:.2}x)"
        );
    } else if quick {
        println!("bench: quick mode — speed-up assertion skipped (byte-identity enforced)");
    } else {
        println!(
            "bench: only {cpus} cpu(s) — a parallel speed-up is physically impossible \
             here, assertion skipped (byte-identity enforced)"
        );
    }

    grid_bench::write("fleet", json);
}
