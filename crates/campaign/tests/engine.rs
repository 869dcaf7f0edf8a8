//! Integration tests pinning the campaign engine's contracts:
//!
//! * the paper spec expands to exactly its 364 runs;
//! * the cache resumes campaigns and is byte-deterministic (same spec +
//!   seed ⇒ byte-identical record files);
//! * executing disjoint slices of the plan against one shared cache
//!   reproduces the single-process tables exactly.

use std::collections::BTreeMap;
use std::path::PathBuf;

use grid_batch::BatchPolicy;
use grid_campaign::{aggregate, execute, CampaignSpec, ExecOptions, ResultCache};
use grid_realloc::Heuristic;
use grid_workload::Scenario;

/// Fresh scratch directory under the cargo-provided tmp root.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("engine-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A campaign small enough for tests: 2 refs + 8 realloc runs on 1% of
/// June.
fn tiny_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper();
    spec.name = "tiny".into();
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false, true];
    spec.policies = vec![BatchPolicy::Fcfs];
    spec.heuristics = vec![Heuristic::Mct, Heuristic::MinMin];
    spec.fraction = 0.01;
    spec
}

/// Read every record file in a cache directory, keyed by file name.
fn cache_bytes(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            out.insert(
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&path).unwrap(),
            );
        }
    }
    out
}

#[test]
fn paper_spec_expands_to_exactly_364_runs() {
    let plan = CampaignSpec::paper().expand();
    assert_eq!(plan.len(), 364, "the paper's campaign is 364 runs");
    assert_eq!(plan.reference_count(), 28);
    assert_eq!(plan.realloc_count(), 336);
}

#[test]
fn example_spec_file_is_the_scaled_paper_campaign() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/paper_campaign.toml");
    let spec = CampaignSpec::load(&path).expect("example spec parses");
    assert_eq!(spec.total_runs(), 364, "example spans the full matrix");
    assert!(spec.fraction < 1.0, "example is scaled down");
    assert_eq!(spec.expand().len(), 364);
}

#[test]
fn cache_resume_is_deterministic_and_byte_identical() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let opts = ExecOptions::default();

    // First run: everything computed, records persisted.
    let dir_a = scratch("resume-a");
    let cache_a = ResultCache::open(&dir_a).unwrap();
    let (outcomes_a, summary_a) = execute(&plan.units, Some(&cache_a), &opts);
    assert_eq!(summary_a.computed, plan.len());
    assert_eq!(summary_a.cached, 0);
    assert!(summary_a.failures.is_empty());
    let bytes_a = cache_bytes(&dir_a);
    assert_eq!(bytes_a.len(), plan.len());

    // Second run over the same cache: pure cache hits, same outcomes,
    // files untouched byte-for-byte.
    let (outcomes_b, summary_b) = execute(&plan.units, Some(&cache_a), &opts);
    assert_eq!(summary_b.computed, 0, "resume must not recompute anything");
    assert_eq!(summary_b.cached, plan.len());
    assert_eq!(bytes_a, cache_bytes(&dir_a));
    for (a, b) in outcomes_a.iter().zip(&outcomes_b) {
        assert_eq!(a.as_ref().unwrap().records, b.as_ref().unwrap().records);
    }

    // Fresh cache directory, same spec: byte-identical record files.
    let dir_c = scratch("resume-c");
    let cache_c = ResultCache::open(&dir_c).unwrap();
    let (_, summary_c) = execute(&plan.units, Some(&cache_c), &opts);
    assert_eq!(summary_c.computed, plan.len());
    assert_eq!(
        bytes_a,
        cache_bytes(&dir_c),
        "same spec + seed must produce byte-identical result records"
    );

    // Partial-resume: delete a few records, re-run, only those recompute.
    let victims: Vec<String> = bytes_a.keys().take(3).cloned().collect();
    for name in &victims {
        std::fs::remove_file(dir_a.join(name)).unwrap();
    }
    let (_, summary_d) = execute(&plan.units, Some(&cache_a), &opts);
    assert_eq!(summary_d.computed, victims.len());
    assert_eq!(summary_d.cached, plan.len() - victims.len());
    assert_eq!(
        bytes_a,
        cache_bytes(&dir_a),
        "recomputed records match originals"
    );
}

#[test]
fn sharded_execution_reproduces_single_shard_tables() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let opts = ExecOptions::default();

    // Single process, no sharding.
    let dir_single = scratch("shard-single");
    let cache_single = ResultCache::open(&dir_single).unwrap();
    let (outcomes, _) = execute(&plan.units, Some(&cache_single), &opts);
    let single = aggregate(&spec, &plan, &outcomes).unwrap();

    // Four disjoint slices executed independently against a shared
    // cache, then a report assembled purely from that cache.
    let dir_sharded = scratch("shard-4way");
    let cache_sharded = ResultCache::open(&dir_sharded).unwrap();
    for units in plan.units.chunks(plan.len().div_ceil(4)) {
        let (_, summary) = execute(units, Some(&cache_sharded), &opts);
        assert!(summary.failures.is_empty());
    }
    let from_cache: Vec<_> = plan
        .units
        .iter()
        .map(|u| cache_sharded.load(u).map(|r| r.outcome))
        .collect();
    let sharded = aggregate(&spec, &plan, &from_cache).unwrap();

    assert_eq!(single.render_tables(), sharded.render_tables());
    assert_eq!(single.to_csv(), sharded.to_csv());
    assert_eq!(
        single.to_json().encode(),
        sharded.to_json().encode(),
        "sharded campaign must reproduce the single-shard report exactly"
    );
    // And the two caches hold identical bytes.
    assert_eq!(cache_bytes(&dir_single), cache_bytes(&dir_sharded));
}

/// The registry-only axes (`EASY-SJF`, `load-threshold`) plan, run and
/// report end-to-end from a spec file that names them as strings.
#[test]
fn extended_policy_spec_runs_end_to_end() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/extended_policies.toml");
    let mut spec = CampaignSpec::load(&path).expect("extended spec parses");
    assert!(spec
        .policies
        .contains(&grid_batch::BatchPolicy::resolve("easy-sjf").unwrap()));
    assert!(spec
        .algorithms
        .contains(&grid_realloc::ReallocAlgorithm::resolve("load-threshold").unwrap()));
    // Shrink for test speed: one scenario, smaller fraction.
    spec.scenarios = vec![Scenario::Jun];
    spec.fraction = 0.005;
    let plan = spec.expand();
    // 2 policies -> 2 refs; × 2 algorithms × 2 heuristics -> 8 realloc.
    assert_eq!(plan.reference_count(), 2);
    assert_eq!(plan.realloc_count(), 8);
    let dir = scratch("extended");
    let cache = ResultCache::open(&dir).unwrap();
    let (outcomes, summary) = execute(&plan.units, Some(&cache), &ExecOptions::default());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    let results = aggregate(&spec, &plan, &outcomes).expect("complete campaign");
    let tables = results.render_tables();
    assert!(
        tables.contains("EASY-SJF"),
        "policy rows rendered:\n{tables}"
    );
    assert!(
        tables.contains("Mct-LT"),
        "load-threshold suffix rendered:\n{tables}"
    );
    assert!(
        tables.contains("(load-threshold trigger)"),
        "strategy title note rendered"
    );
    let csv = results.to_csv();
    assert!(csv.contains("load-threshold"));
    assert!(csv.contains("EASY-SJF"));
    assert_eq!(csv.lines().count(), 1 + 8);
    // Cached resume works for registry policies too.
    let (_, resumed) = execute(&plan.units, Some(&cache), &ExecOptions::default());
    assert_eq!(resumed.cached, plan.len());
}

/// Cache keys of default-expression units, pinned to the values the
/// engine produced before the policy-expression refactor: expression
/// canonicalisation must not perturb descriptors, or every existing
/// cache directory would silently recompute from scratch.
#[test]
fn default_expression_cache_keys_are_pinned() {
    let mut spec = CampaignSpec::paper();
    spec.fraction = 0.01;
    let plan = spec.expand();
    let pinned = [
        (
            "87d001711d9230fe17e62d641663ab6c",
            "jan/hom/FCFS/reference/s42",
        ),
        (
            "0b0971410fb995bbc8a895f4afbc04e6",
            "jan/hom/CBF/reference/s42",
        ),
        (
            "93258ef359ae625d80ee1728f471371e",
            "jan/hom/FCFS/no-cancel/Mct/p3600/t60/s42",
        ),
        (
            "6599a2f33e516975dea96af2b9fe9f3c",
            "jan/hom/FCFS/no-cancel/MinMin/p3600/t60/s42",
        ),
        (
            "69e0e0fe6934e3acea55581680139e50",
            "pwa-g5k/het/CBF/cancel-all/Sufferage/p3600/t60/s42",
        ),
    ];
    for (key, label) in pinned {
        let unit = plan
            .units
            .iter()
            .find(|u| u.label() == label)
            .unwrap_or_else(|| panic!("no unit labelled {label}"));
        assert_eq!(
            ResultCache::key(unit),
            key,
            "cache key drifted for {label} — existing caches would miss"
        );
    }
}

/// The heterogeneous/parameterised example campaign runs end to end:
/// mixed FCFS/CBF sites and a load-threshold factor sweep, with every
/// cell distinguishable in the report keys.
#[test]
fn heterogeneous_grid_spec_runs_end_to_end() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/heterogeneous_grid.toml");
    let mut spec = CampaignSpec::load(&path).expect("heterogeneous spec parses");
    assert!(
        spec.policies.iter().any(|p| p.is_mix()),
        "example must mix at least two batch policies across clusters"
    );
    assert!(
        spec.algorithms.iter().any(|a| a.name().contains("factor=")),
        "example must sweep a numeric policy parameter"
    );
    // Shrink for test speed: one scenario.
    spec.scenarios = vec![Scenario::Jun];
    let plan = spec.expand();
    // 3 policies -> 3 refs; × 3 algorithms × 2 heuristics -> 18 realloc.
    assert_eq!(plan.reference_count(), 3);
    assert_eq!(plan.realloc_count(), 18);
    let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    let results = aggregate(&spec, &plan, &outcomes).expect("complete campaign");

    let csv = results.to_csv();
    assert_eq!(csv.lines().count(), 1 + 18);
    // Per-cell keys: the mix policy and each sweep point are their own
    // rows, never merged with the uniform/default cells.
    for needle in [
        "FCFS+CBF+CBF",
        "load-threshold(factor=1.5)",
        "load-threshold(factor=3)",
    ] {
        assert!(csv.contains(needle), "CSV must key cells by `{needle}`");
    }
    let factor_rows = |f: &str| {
        csv.lines()
            .filter(|l| l.contains(&format!("load-threshold(factor={f})")))
            .count()
    };
    assert_eq!(factor_rows("1.5"), 6, "3 policies × 2 heuristics");
    assert_eq!(factor_rows("3"), 6);

    let tables = results.render_tables();
    assert!(
        tables.contains("[load-threshold(factor=1.5)]"),
        "sweep points get their own table sets:\n{tables}"
    );
    assert!(
        tables.contains("FCFS+CBF+CBF"),
        "mix rows render under their canonical expression"
    );
    // JSON keeps the same keys.
    let json = results.to_json().encode();
    assert!(json.contains("FCFS+CBF+CBF"));
    assert!(json.contains("load-threshold(factor=3)"));
}

/// A spec spelling `faults = ["none"]` is the healthy campaign: same
/// expansion, same descriptors, same cache keys — so every cache
/// directory written before fault injection existed keeps hitting
/// (together with `default_expression_cache_keys_are_pinned`, which
/// pins the absolute key values).
#[test]
fn fault_none_is_byte_identical_to_the_pre_fault_engine() {
    let healthy = tiny_spec();
    let spelled = CampaignSpec::from_toml_str(
        r#"
name = "tiny"
fraction = 0.01
[matrix]
scenarios = ["jun"]
policies = ["FCFS"]
heuristics = ["Mct", "MinMin"]
faults = ["none"]
"#,
    )
    .unwrap();
    assert_eq!(spelled.faults, healthy.faults);
    let (a, b) = (healthy.expand(), spelled.expand());
    assert_eq!(a.len(), b.len());
    for (ua, ub) in a.units.iter().zip(&b.units) {
        assert_eq!(ua.label(), ub.label());
        assert_eq!(
            ua.descriptor().encode(),
            ub.descriptor().encode(),
            "explicit none must not perturb descriptors"
        );
        assert!(
            !ua.descriptor().encode().contains("fault"),
            "healthy descriptors must not mention faults at all"
        );
    }
}

/// The acceptance path of the fault subsystem: the example robustness
/// sweep runs end to end; the report carries reallocation-vs-none
/// metrics for every fault intensity; and the whole campaign is
/// byte-deterministic — a fresh single-process run and a fresh run in
/// three disjoint plan slices produce identical cache bytes, CSV and
/// tables.
#[test]
fn fault_sweep_campaign_runs_end_to_end_deterministically() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fault_sweep.toml");
    let mut spec = CampaignSpec::load(&path).expect("fault sweep spec parses");
    assert!(
        spec.faults.len() >= 4,
        "the sweep must cover several fault intensities"
    );
    assert!(spec.faults.contains(&grid_fault::Fault::NONE));
    // Shrink for test speed: two fault points beyond the healthy grid.
    spec.faults.truncate(3);
    spec.fraction = 0.005;
    let plan = spec.expand();
    assert_eq!(plan.reference_count(), 3, "one reference per fault point");
    assert_eq!(plan.realloc_count(), 3 * 2);

    let dir_a = scratch("fault-single");
    let cache_a = ResultCache::open(&dir_a).unwrap();
    let (outcomes, summary) = execute(&plan.units, Some(&cache_a), &ExecOptions::default());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    let results = aggregate(&spec, &plan, &outcomes).expect("complete campaign");

    // Sharded re-run from scratch: identical bytes everywhere.
    let dir_b = scratch("fault-sharded");
    let cache_b = ResultCache::open(&dir_b).unwrap();
    for units in plan.units.chunks(plan.len().div_ceil(3)) {
        let (_, s) = execute(units, Some(&cache_b), &ExecOptions::default());
        assert!(s.failures.is_empty());
    }
    assert_eq!(
        cache_bytes(&dir_a),
        cache_bytes(&dir_b),
        "sharded fault campaign must write byte-identical records"
    );
    let from_cache: Vec<_> = plan
        .units
        .iter()
        .map(|u| cache_b.load(u).map(|r| r.outcome))
        .collect();
    let sharded = aggregate(&spec, &plan, &from_cache).unwrap();
    assert_eq!(results.to_csv(), sharded.to_csv());
    assert_eq!(results.render_tables(), sharded.render_tables());

    // The CSV gains the fault column and keys every cell by the
    // canonical fault expression.
    let csv = results.to_csv();
    let header = csv.lines().next().unwrap();
    assert!(header.contains(",seed,fault,"), "{header}");
    assert_eq!(csv.lines().count(), 1 + 6, "one row per realloc cell");
    for fault in &spec.faults {
        // Expressions with a two-argument component carry a comma and
        // are RFC-4180-quoted in the export; bare names are not.
        let field = if fault.name().contains(',') {
            format!(",\"{}\",", fault.name().replace('"', "\"\""))
        } else {
            format!(",{},", fault.name())
        };
        let rows = csv.lines().filter(|l| l.contains(&field)).count();
        assert_eq!(rows, 2, "2 heuristics per fault point `{fault}`");
    }

    // Each fault point is its own table group with realloc-vs-none
    // metrics (relative response per cell), so the report reads as the
    // gain degrading with intensity.
    let tables = results.render_tables();
    for fault in &spec.faults {
        assert!(
            tables.contains(&format!("/ fault {fault}")),
            "missing group for `{fault}`:\n{tables}"
        );
    }
    assert!(tables.contains("Relative average response time"));
    // Outages really fired in the faulted runs.
    let evictions: u64 = outcomes.iter().flatten().map(|o| o.outage_evictions).sum();
    assert!(evictions > 0, "the sweep's outages must actually evict");
}

#[test]
fn report_fails_cleanly_on_incomplete_cache() {
    let spec = tiny_spec();
    let plan = spec.expand();
    let dir = scratch("incomplete");
    let cache = ResultCache::open(&dir).unwrap();
    // Execute only the first half of the plan.
    let half = &plan.units[..plan.len() / 2];
    let (_, summary) = execute(half, Some(&cache), &ExecOptions::default());
    assert!(summary.failures.is_empty());
    let outcomes: Vec<_> = plan
        .units
        .iter()
        .map(|u| cache.load(u).map(|r| r.outcome))
        .collect();
    let err = aggregate(&spec, &plan, &outcomes).unwrap_err();
    assert!(err.contains("unavailable"), "{err}");
}
