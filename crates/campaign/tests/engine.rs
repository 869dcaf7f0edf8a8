//! Integration tests pinning the campaign engine's contracts:
//!
//! * the paper spec expands to exactly its 364 runs;
//! * the cache resumes campaigns and is byte-deterministic (same spec +
//!   seed ⇒ byte-identical record files);
//! * executing disjoint slices of the plan against one shared cache
//!   reproduces the single-process tables exactly;
//! * the A1–A7 ablation studies run on the engine from their specs, and
//!   keep the paper-level relations they were written to show;
//! * `campaign report --check` prints Table 1 and the shape checks.

use std::collections::BTreeMap;
use std::path::PathBuf;

use grid_batch::BatchPolicy;
use grid_campaign::{
    aggregate, execute, CampaignResults, CampaignSpec, ExecOptions, ResultCache, RunKind,
};
use grid_metrics::RunOutcome;
use grid_realloc::Heuristic;
use grid_ser::Value;
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

/// The example campaigns' non-default expressions — a per-site policy
/// mix, a parameterised algorithm, `EASY-SJF`, the off-default mappings,
/// multiple submission and a compound fault — keep their cache keys and
/// labels, and spellings of a base entry keep collapsing onto it.
#[test]
fn non_default_expression_cache_keys_are_pinned() {
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let pinned = [
        (
            "heterogeneous_grid.toml",
            "f13abc3411b7913da99075268d8b6ac6",
            "jun/het/FCFS+CBF+CBF/reference/s42",
        ),
        (
            "heterogeneous_grid.toml",
            "12f03fdf3a90af49720f9872aa2a685e",
            "jun/het/FCFS/load-threshold(factor=1.5)/Mct/p3600/t60/s42",
        ),
        (
            "extended_policies.toml",
            "e3e1459704d3a4d3e3ea2d4443227f06",
            "jun/het/EASY-SJF/reference/s42",
        ),
        (
            "extended_policies.toml",
            "3910a6290690a9b9d6135fde6b4b469c",
            "jun/het/CBF/load-threshold/Mct/p3600/t60/s42",
        ),
        (
            "ablation_a3_mapping.toml",
            "a4ea98370cce492f7a103073fe4ee61a",
            "apr/het/CBF/reference/s42/mapping=Random",
        ),
        (
            "ablation_a3_mapping.toml",
            "b51595b55bc869d474a3c5dc60119170",
            "apr/het/CBF/reference/s42/mapping=RoundRobin",
        ),
        (
            "ablation_a6_multisub.toml",
            "c138117a96823223882d16a06268e5f4",
            "apr/het/FCFS/multisub(k=3)/Mct/p3600/t60/s42",
        ),
        (
            "fault_sweep.toml",
            "6b11a2c974b0d6aa67665505d1f34ce0",
            "apr/het/FCFS/reference/s42/outage(mtbf_h=12, mttr_h=2)+ect-noise(sigma=0.5)",
        ),
    ];
    for (file, key, label) in pinned {
        let plan = CampaignSpec::load(&examples.join(file))
            .unwrap_or_else(|e| panic!("{file}: {e}"))
            .expand();
        let unit = plan
            .units
            .iter()
            .find(|u| u.label() == label)
            .unwrap_or_else(|| panic!("{file}: no unit labelled {label}"));
        assert_eq!(
            ResultCache::key(unit),
            key,
            "cache key drifted for {label} — existing caches would miss"
        );
    }

    let algorithm =
        |s: &str| grid_realloc::ReallocAlgorithm::resolve_expr(s).map(|h| h.to_string());
    let policy = |s: &str| BatchPolicy::resolve_assignment(s).map(|h| h.to_string());
    let mapping = |s: &str| grid_realloc::Mapping::resolve_expr(s).map(|h| h.to_string());
    let heuristic = |s: &str| Heuristic::resolve_expr(s).map(|h| h.to_string());
    let fault = |s: &str| grid_fault::Fault::resolve_expr(s).map(|h| h.to_string());
    for (resolved, expected) in [
        (algorithm("multisub(k=2)"), "multisub"),
        (algorithm("MULTISUB()"), "multisub"),
        (algorithm("load-threshold(factor=2)"), "load-threshold"),
        (
            algorithm("load-threshold(factor=1.50)"),
            "load-threshold(factor=1.5)",
        ),
        (policy("EASY(protected=1)"), "EASY"),
        (policy("CBF+CBF+CBF"), "CBF"),
        (policy("fcfs()+cbf+CBF(  )"), "FCFS+CBF+CBF"),
        (policy("easy(protected=2)+FCFS"), "EASY(protected=2)+FCFS"),
        (mapping("RoundRobin(offset=0)"), "RoundRobin"),
        (mapping("mct()"), "MCT"),
        (mapping("roundrobin(offset=2)"), "RoundRobin(offset=2)"),
        (heuristic("Sufferage(rank=1)"), "Sufferage"),
        (heuristic("minmin"), "MinMin"),
        (heuristic("sufferage(rank=2)"), "Sufferage(rank=2)"),
        (fault("outage(mtbf_h=24)"), "outage"),
        (fault("none()"), "none"),
        (
            fault("ect-noise(sigma=0.5)+outage(mttr_h=2, mtbf_h=12)"),
            "outage(mtbf_h=12, mttr_h=2)+ect-noise(sigma=0.5)",
        ),
    ] {
        assert_eq!(resolved.as_deref(), Ok(expected));
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
mappings = ["MCT"]
walltime_adjustment = [true]
"#,
    )
    .unwrap();
    assert_eq!(spelled.faults, healthy.faults);
    assert_eq!(spelled.mappings, healthy.mappings);
    assert_eq!(spelled.walltime_adjustment, healthy.walltime_adjustment);
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
        assert_eq!(ResultCache::key(ua), ResultCache::key(ub));
        let enc = ua.descriptor().encode();
        assert!(
            !enc.contains("mapping") && !enc.contains("walltime"),
            "{enc}"
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

/// A study spec from the `examples/` directory.
fn example_spec(file: &str) -> CampaignSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(file);
    CampaignSpec::load(&path).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// Run a study in-process: outcomes by plan index, and the aggregate.
fn run_study(spec: &CampaignSpec) -> (Vec<Option<RunOutcome>>, CampaignResults) {
    let plan = spec.expand();
    let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    let results = aggregate(spec, &plan, &outcomes).expect("complete study");
    (outcomes, results)
}

/// Migrations of each table group, in group order (one cell a group).
fn migrations_by_group(results: &CampaignResults) -> Vec<u64> {
    results
        .groups
        .values()
        .map(|suite| {
            assert_eq!(suite.comparisons.len(), 1, "one cell per group");
            suite.comparisons.values().next().unwrap().reallocations
        })
        .collect()
}

/// Every ablation spec loads, plans, and names its study.
#[test]
fn ablation_specs_parse_and_expand() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ablation_") && n.ends_with(".toml"))
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "ablation_a1_period.toml",
            "ablation_a2_threshold.toml",
            "ablation_a3_mapping.toml",
            "ablation_a4_starvation.toml",
            "ablation_a5_walltime.toml",
            "ablation_a6_multisub.toml",
            "ablation_a6b_aggressive.toml",
            "ablation_a7_backfill.toml",
        ]
    );
    for name in &names {
        let spec = example_spec(name);
        assert!(spec.name.starts_with("ablation-"), "{name}");
        assert!(spec.expand().realloc_count() > 0, "{name}");
    }
}

/// A1: each period is a table group of its own, in period order, and
/// every point compares a non-empty workload.
#[test]
fn period_study_produces_a_point_per_period() {
    let mut spec = example_spec("ablation_a1_period.toml");
    spec.scenarios = vec![Scenario::Jun];
    spec.periods_s = vec![1_800, 7_200];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    let periods: Vec<u64> = results.groups.keys().map(|k| k.period_s).collect();
    assert_eq!(periods, [1_800, 7_200]);
    assert!(
        results
            .groups
            .values()
            .all(|s| s.comparisons.values().all(|c| c.n_jobs > 0)),
        "every period point compares a non-empty workload"
    );
}

/// A1: more frequent reallocation events examine more states; on the
/// loaded April trace they migrate at least as much as rare ones.
#[test]
fn period_study_shorter_period_migrates_at_least_as_much() {
    let mut spec = example_spec("ablation_a1_period.toml");
    spec.heterogeneity = vec![false];
    spec.heuristics = vec![Heuristic::MinMin];
    spec.periods_s = vec![900, 14_400];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    // Groups sort by period: 15 min first, then 4 h.
    let by_period = migrations_by_group(&results);
    assert_eq!(by_period.len(), 2);
    assert!(
        by_period[0] >= by_period[1],
        "15min: {} vs 4h: {}",
        by_period[0],
        by_period[1]
    );
}

/// A2: a zero threshold migrates at least as much as a 30-minute one.
#[test]
fn threshold_study_zero_threshold_migrates_at_least_as_much() {
    let mut spec = example_spec("ablation_a2_threshold.toml");
    spec.thresholds_s = vec![0, 1_800];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    let by_threshold = migrations_by_group(&results);
    assert_eq!(by_threshold.len(), 2);
    assert!(
        by_threshold[0] >= by_threshold[1],
        "0 s: {} vs 30 min: {}",
        by_threshold[0],
        by_threshold[1]
    );
}

/// A7: conservative back-filling responds no slower than FCFS without
/// reallocation; every policy, EASY included, runs through the study.
#[test]
fn backfill_study_cbf_reference_responds_no_slower_than_fcfs() {
    let mut spec = example_spec("ablation_a7_backfill.toml");
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false];
    spec.fraction = 0.005;
    let plan = spec.expand();
    let (outcomes, results) = run_study(&spec);
    let reference = |policy: BatchPolicy| -> f64 {
        let i = plan
            .units
            .iter()
            .position(|u| u.kind == RunKind::Reference && u.policy == policy)
            .unwrap();
        outcomes[i].as_ref().unwrap().mean_response()
    };
    assert!(reference(BatchPolicy::Cbf) <= reference(BatchPolicy::Fcfs));
    let cells = &results.groups.values().next().unwrap().comparisons;
    let policies: Vec<String> = {
        let mut p: Vec<String> = cells.keys().map(|k| k.policy.to_string()).collect();
        p.sort();
        p
    };
    assert_eq!(policies, ["CBF", "EASY", "FCFS"]);
}

/// A3: every mapping is a table group of its own, named in the group
/// headers and the CSV.
#[test]
fn mapping_study_renders_every_mapping_group() {
    let mut spec = example_spec("ablation_a3_mapping.toml");
    spec.scenarios = vec![Scenario::Jun];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    assert_eq!(results.groups.len(), 3);
    let tables = results.render_tables();
    for mapping in ["MCT", "Random", "RoundRobin"] {
        assert!(
            tables.contains(&format!("/ mapping {mapping}\n")),
            "no group for {mapping}:\n{tables}"
        );
    }
    let csv = results.to_csv();
    assert!(csv
        .lines()
        .next()
        .unwrap()
        .contains(",seed,mapping,n_jobs,"));
    assert_eq!(csv.lines().count(), 1 + 3);
}

/// A5: both walltime modes are table groups of their own; the JSON rows
/// name the axis only off its default.
#[test]
fn walltime_study_renders_both_modes() {
    let mut spec = example_spec("ablation_a5_walltime.toml");
    spec.scenarios = vec![Scenario::Jun];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    assert_eq!(results.groups.len(), 2);
    let tables = results.render_tables();
    assert!(tables.contains("/ walltime_adjustment true\n"), "{tables}");
    assert!(tables.contains("/ walltime_adjustment false\n"), "{tables}");
    let json = results.to_json();
    let cells = json.get("cells").and_then(Value::as_arr).unwrap();
    assert_eq!(cells.len(), 2);
    // Only the off-default cell names the axis.
    let flagged = cells
        .iter()
        .filter(|c| c.get("walltime_adjustment").is_some())
        .count();
    assert_eq!(flagged, 1);
    assert!(cells.iter().all(|c| c.get("mapping").is_none()));
}

/// A6: multiple submission is one row per `k` in every group, under MCT,
/// with no migration and no reallocation tick.
#[test]
fn multisub_study_has_one_row_per_k_in_every_group() {
    let mut spec = example_spec("ablation_a6_multisub.toml");
    spec.periods_s = vec![1_800, 3_600];
    spec.fraction = 0.005;
    let plan = spec.expand();
    let (outcomes, results) = run_study(&spec);
    assert_eq!(results.groups.len(), 2);
    for suite in results.groups.values() {
        let mut ks: Vec<usize> = suite
            .comparisons
            .iter()
            .filter(|(cell, _)| cell.algorithm.name().starts_with("multisub"))
            .map(|(cell, comparison)| {
                assert_eq!(cell.heuristic, Heuristic::Mct);
                assert_eq!(comparison.reallocations, 0, "{}", cell.algorithm);
                cell.algorithm.strategy().copies()
            })
            .collect();
        ks.sort_unstable();
        assert_eq!(ks, [2, 3]);
    }
    for (unit, outcome) in plan.units.iter().zip(&outcomes) {
        if let RunKind::Realloc(setting) = unit.kind {
            if setting.algorithm.strategy().copies() > 1 {
                let outcome = outcome.as_ref().unwrap();
                assert_eq!(outcome.total_ticks, 0, "{}", unit.label());
                assert_eq!(outcome.total_reallocations, 0, "{}", unit.label());
            }
        }
    }
    let csv = results.to_csv();
    assert_eq!(
        csv.lines().filter(|l| l.contains(",multisub,Mct,")).count(),
        2
    );
}

/// A4: the starvation indicators ride in the JSON report rows.
#[test]
fn starvation_study_reports_in_json_rows() {
    let mut spec = example_spec("ablation_a4_starvation.toml");
    spec.algorithms = vec![grid_realloc::ReallocAlgorithm::CancelAll];
    spec.fraction = 0.005;
    let (_, results) = run_study(&spec);
    let json = results.to_json();
    let cells = json.get("cells").and_then(Value::as_arr).unwrap();
    assert_eq!(cells.len(), 1);
    let cell = &cells[0];
    let field = |k: &str| {
        cell.get(k)
            .unwrap_or_else(|| panic!("no `{k}` in {cell:?}"))
    };
    assert!(field("worst_response_s").as_u64().unwrap() > 0);
    assert!(field("mean_migrations_of_migrated").as_f64().unwrap() >= 0.0);
    let max = field("max_migrations").as_u64().unwrap();
    let churned = field("churned_jobs").as_u64().unwrap();
    assert!(
        churned == 0 || max >= 3,
        "churned jobs moved at least 3 times"
    );
}

/// `campaign plan`'s matrix line counts what the plan runs: A6's two
/// `multisub` entries run under `Mct` alone, so its 4 algorithms and 2
/// heuristics make 6 reallocation settings, not 8.
#[test]
fn plan_matrix_line_counts_the_a6_settings_from_the_plan() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/ablation_a6_multisub.toml");
    let plan = example_spec("ablation_a6_multisub.toml").expand();
    let matrix = plan.matrix();
    let count = |axis: &str| matrix.iter().find(|(name, _)| *name == axis).unwrap().1;
    assert_eq!(count("algorithm-heuristic pairs"), 6);
    let setups: usize = ["scenarios", "platforms", "policies", "faults", "mappings"]
        .into_iter()
        .chain(["walltime_adjustment", "seeds"])
        .map(count)
        .product();
    assert_eq!(setups, plan.reference_count());
    let all: usize = matrix.iter().map(|(_, n)| n).product();
    assert_eq!(all, plan.realloc_count());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["plan", "--spec"])
        .arg(&path)
        .arg("--cache")
        .arg(scratch("cli-plan").join("absent"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().find(|l| l.starts_with("matrix: ")).unwrap();
    assert!(line.contains(" x 6 algorithm-heuristic pairs x "), "{line}");
    assert!(
        stdout.contains("total runs: 7 (1 reference + 6 reallocation)"),
        "{stdout}"
    );
}

/// A reader that closes early (`report --format csv | head -1`) ends
/// the CSV stream cleanly, as it ends the table and JSON reports.
#[test]
fn csv_report_exits_cleanly_when_its_reader_closes_early() {
    use std::io::BufRead;
    let dir = scratch("cli-pipe");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("tiny.toml");
    std::fs::write(
        &spec,
        "name = \"tiny\"\nfraction = 0.002\n[matrix]\nscenarios = [\"jun\"]\n",
    )
    .unwrap();
    let cache = dir.join("cache");
    let campaign = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .arg("--spec")
            .arg(&spec)
            .arg("--cache")
            .arg(&cache)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let run = campaign(&["run", "--quiet"]).wait_with_output().unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    // Close the pipe before the header, and after reading one line.
    for lines in [0, 1] {
        let mut report = campaign(&["report", "--format", "csv"]);
        let mut stdout = std::io::BufReader::new(report.stdout.take().unwrap());
        for _ in 0..lines {
            let mut line = String::new();
            stdout.read_line(&mut line).unwrap();
            assert!(line.starts_with("scenario,platform,"), "{line}");
        }
        drop(stdout);
        let report = report.wait_with_output().unwrap();
        assert!(
            report.status.success(),
            "{}",
            String::from_utf8_lossy(&report.stderr)
        );
    }
}

/// `campaign report --check` prints the tables, then Table 1 and the
/// eleven shape checks — at 0.2% byte for byte the goldens of
/// `tests/golden_paper_suite.rs`.
#[test]
fn report_check_prints_table1_and_the_shape_checks() {
    let dir = scratch("cli-check");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("paper.toml");
    std::fs::write(&spec, "name = \"paper-0002\"\nfraction = 0.002\n").unwrap();
    let cache = dir.join("cache");
    let campaign = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .arg("--spec")
            .arg(&spec)
            .arg("--cache")
            .arg(&cache)
            .output()
            .unwrap()
    };
    let run = campaign(&["run", "--quiet"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = campaign(&["report", "--check"]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let golden = concat!(
        include_str!("../../../tests/golden/paper_suite_0002_tables.txt"),
        include_str!("../../../tests/golden/paper_suite_0002_checks.txt"),
    );
    assert_eq!(String::from_utf8(report.stdout).unwrap(), golden);
    // The checks render after the tables only.
    let csv = campaign(&["report", "--check", "--format", "csv"]);
    assert!(!csv.status.success());
}

/// `campaign run` applies the spec's convergence frontier, as `runner`
/// and `report` do: on `examples/converge_sweep.toml` it computes the
/// runner's 15 units, skips the other 15 and writes the runner's bytes.
#[test]
fn run_stops_at_the_convergence_frontier_like_the_runner() {
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/converge_sweep.toml");
    let dir = scratch("cli-converge");
    let campaign = |args: &[&str], cache: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .arg("--spec")
            .arg(&spec)
            .arg("--cache")
            .arg(dir.join(cache))
            .arg("--quiet")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let run = campaign(&["run"], "run");
    assert!(
        run.contains(": 15 computed, 0 cached, 0 failed, 15 skipped"),
        "{run}"
    );
    let resumed = campaign(&["run"], "run");
    assert!(
        resumed.contains(": 0 computed, 15 cached, 0 failed, 15 skipped"),
        "{resumed}"
    );
    let runner = campaign(&["runner", "--runner-id", "conv"], "runner");
    assert!(
        runner.contains(": 15 computed, 0 cached, 15 skipped, 0 failed"),
        "{runner}"
    );
    assert_eq!(
        cache_bytes(&dir.join("run")),
        cache_bytes(&dir.join("runner"))
    );
}
