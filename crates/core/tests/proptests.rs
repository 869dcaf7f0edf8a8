//! Property-based tests for the meta-scheduler and reallocation layer.

use grid_batch::{BatchPolicy, ClusterSpec, JobSpec, Platform};
use grid_des::Duration;
use grid_fault::Fault;
use grid_metrics::Comparison;
use grid_realloc::{simulate, GridConfig, Heuristic, Mapping, ReallocAlgorithm, ReallocConfig};
use proptest::prelude::*;

/// Arbitrary grid workload over a two-cluster platform.
fn jobs_strategy() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((0u64..3_000, 1u32..=12, 0u64..2_000, 1u64..1_500), 1..80).prop_map(
        |raw| {
            let mut t = 0;
            raw.iter()
                .enumerate()
                .map(|(i, &(gap, procs, rt, margin))| {
                    t += gap;
                    let wt = if i % 6 == 5 {
                        (rt / 2).max(1)
                    } else {
                        rt + margin
                    };
                    JobSpec::new(i as u64, t, procs, rt, wt)
                })
                .collect()
        },
    )
}

fn platform() -> Platform {
    Platform::new(
        "prop",
        vec![
            ClusterSpec::new("c0", 12, 1.0),
            ClusterSpec::new("c1", 8, 1.2),
        ],
    )
}

fn heuristic_strategy() -> impl Strategy<Value = Heuristic> {
    prop::sample::select(Heuristic::ALL.to_vec())
}

fn algorithm_strategy() -> impl Strategy<Value = ReallocAlgorithm> {
    prop::sample::select(ReallocAlgorithm::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every submitted job completes exactly once, under
    /// every algorithm/heuristic pair, and record timestamps are ordered.
    #[test]
    fn all_jobs_complete(
        jobs in jobs_strategy(),
        h in heuristic_strategy(),
        algo in algorithm_strategy(),
        policy in prop::sample::select(vec![BatchPolicy::Fcfs, BatchPolicy::Cbf]),
    ) {
        let n = jobs.len();
        let out = simulate(
            GridConfig::new(platform(), policy)
                .with_realloc(ReallocConfig::new(algo, h).with_period(Duration::minutes(30))),
            jobs.clone(),
        )
        .unwrap();
        prop_assert_eq!(out.records.len(), n);
        for j in &jobs {
            let r = &out.records[&j.id];
            prop_assert_eq!(r.submit, j.submit);
            prop_assert!(r.start >= r.submit);
            prop_assert!(r.completion >= r.start);
            // Kill rule holds across migration and speed scaling.
            let speed = [1.0, 1.2][r.cluster];
            prop_assert!(
                r.completion.since(r.start) <= j.walltime_ref.scale_by_speed(speed) + Duration(1)
            );
        }
    }

    /// Determinism: identical inputs give identical outcomes.
    #[test]
    fn runs_are_deterministic(
        jobs in jobs_strategy(),
        h in heuristic_strategy(),
        algo in algorithm_strategy(),
    ) {
        let mk = || {
            simulate(
                GridConfig::new(platform(), BatchPolicy::Cbf)
                    .with_realloc(ReallocConfig::new(algo, h)),
                jobs.clone(),
            )
            .unwrap()
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.records, b.records);
        prop_assert_eq!(a.total_reallocations, b.total_reallocations);
    }

    /// The comparison metrics are internally consistent for arbitrary runs.
    #[test]
    fn comparison_consistency(
        jobs in jobs_strategy(),
        h in heuristic_strategy(),
        algo in algorithm_strategy(),
    ) {
        let base = simulate(GridConfig::new(platform(), BatchPolicy::Fcfs), jobs.clone())
            .unwrap();
        let run = simulate(
            GridConfig::new(platform(), BatchPolicy::Fcfs)
                .with_realloc(ReallocConfig::new(algo, h)),
            jobs,
        )
        .unwrap();
        let c = Comparison::against_baseline(&base, &run);
        prop_assert_eq!(c.earlier + c.later, c.impacted);
        prop_assert!(c.impacted <= c.n_jobs);
        prop_assert!(c.pct_impacted >= 0.0 && c.pct_impacted <= 100.0);
        prop_assert!(c.pct_earlier >= 0.0 && c.pct_earlier <= 100.0);
        prop_assert!(c.rel_avg_response > 0.0);
        // Per-job migration counts sum to the run total.
        let per_job: u64 = run.records.values().map(|r| u64::from(r.reallocations)).sum();
        prop_assert_eq!(per_job, run.total_reallocations);
        // Dedicated platform: every migration honours its ECT contract.
        prop_assert_eq!(run.contract_violations, 0);
    }

    /// Algorithm 1 with an enormous threshold never migrates anything, and
    /// the run then matches the baseline exactly.
    #[test]
    fn infinite_threshold_is_baseline(jobs in jobs_strategy(), h in heuristic_strategy()) {
        let base = simulate(GridConfig::new(platform(), BatchPolicy::Cbf), jobs.clone())
            .unwrap();
        let run = simulate(
            GridConfig::new(platform(), BatchPolicy::Cbf).with_realloc(
                ReallocConfig::new(ReallocAlgorithm::NoCancel, h)
                    .with_threshold(Duration(u64::MAX / 4)),
            ),
            jobs,
        )
        .unwrap();
        prop_assert_eq!(run.total_reallocations, 0);
        prop_assert_eq!(base.records, run.records);
    }

    /// A heterogeneous (per-site) grid that assigns the *same* policy to
    /// every cluster is byte-identical to the homogeneous `GridConfig`:
    /// the mix plumbing may not perturb scheduling, ECT estimation or
    /// reallocation in any way. Covers FCFS, CBF and EASY, reallocation
    /// on, over arbitrary workloads.
    #[test]
    fn uniform_mix_is_byte_identical_to_homogeneous(
        jobs in jobs_strategy(),
        h in heuristic_strategy(),
        algo in algorithm_strategy(),
        policy in prop::sample::select(vec![
            BatchPolicy::Fcfs,
            BatchPolicy::Cbf,
            BatchPolicy::Easy,
        ]),
    ) {
        let run = |p: BatchPolicy| {
            simulate(
                GridConfig::new(platform(), p)
                    .with_realloc(ReallocConfig::new(algo, h).with_period(Duration::minutes(30))),
                jobs.clone(),
            )
            .unwrap()
        };
        let homogeneous = run(policy);
        let mixed = run(BatchPolicy::mix(&[policy, policy]));
        prop_assert_eq!(&homogeneous.records, &mixed.records);
        prop_assert_eq!(homogeneous.total_reallocations, mixed.total_reallocations);
        prop_assert_eq!(
            homogeneous.to_json().encode(),
            mixed.to_json().encode(),
            "uniform mix must serialise byte-identically"
        );
    }

    /// A single-cluster platform can never migrate anything under
    /// Algorithm 1, and cancel-all must reproduce a valid schedule.
    #[test]
    fn single_cluster_never_migrates(jobs in jobs_strategy(), algo in algorithm_strategy()) {
        let single = Platform::new("one", vec![ClusterSpec::new("c0", 12, 1.0)]);
        let out = simulate(
            GridConfig::new(single, BatchPolicy::Fcfs)
                .with_realloc(ReallocConfig::new(algo, Heuristic::MinMin)),
            jobs.clone(),
        )
        .unwrap();
        prop_assert_eq!(out.total_reallocations, 0);
        prop_assert_eq!(out.records.len(), jobs.len());
    }
}

/// Every built-in entry name of the five policy axes.
fn entry_names() -> Vec<&'static str> {
    BatchPolicy::BUILTINS
        .iter()
        .map(|p| p.name())
        .chain(ReallocAlgorithm::BUILTINS.iter().map(|a| a.name()))
        .chain(Heuristic::ALL.iter().map(|h| h.label()))
        .chain(Mapping::BUILTINS.iter().map(|m| m.name()))
        .chain(["none", "outage", "ect-noise", "perturb"])
        .collect()
}

/// Every parameter a built-in entry declares, with its entry.
const PARAMS: [(&str, &str); 14] = [
    ("EASY", "protected"),
    ("load-threshold", "factor"),
    ("load-threshold", "floor_s"),
    ("multisub", "k"),
    ("Sufferage", "rank"),
    ("RoundRobin", "offset"),
    ("outage", "mtbf_h"),
    ("outage", "mttr_h"),
    ("outage", "seed"),
    ("ect-noise", "sigma"),
    ("ect-noise", "seed"),
    ("perturb", "jitter_s"),
    ("perturb", "runtime_factor"),
    ("perturb", "seed"),
];

/// Token soup: entry and parameter names, the expression punctuation,
/// digits, spaces and a few hostile characters.
fn hostile_expression() -> impl Strategy<Value = String> {
    let mut tokens: Vec<String> = entry_names().into_iter().map(String::from).collect();
    tokens.extend(PARAMS.map(|(_, key)| key.to_string()));
    tokens.extend(["(", ")", "=", ",", "+", ".", "-", " "].map(String::from));
    tokens.extend((0..10).map(|d| d.to_string()));
    tokens.extend(["\"", "\\", "\t", "\0", "é", "e", "true", "\u{202e}"].map(String::from));
    prop::collection::vec(prop::sample::select(tokens), 0..16).prop_map(|t| t.concat())
}

/// Well-formed-looking expressions: `+`-joined `name(key=value, …)`
/// parts, half of them led by one of the entry's own parameters, so
/// many resolve and exercise canonicalisation and interning.
fn structured_expression() -> impl Strategy<Value = String> {
    let values = [
        "0", "1", "2", "3", "-1", "0.5", "1.5", "2.0", "24", "1e3", "x", "true",
    ];
    let value = || prop::sample::select(values.to_vec());
    let arg = (
        prop::sample::select(PARAMS.map(|(_, key)| key).to_vec()),
        value(),
    );
    let part = (
        prop::sample::select(PARAMS.to_vec()),
        value(),
        prop::sample::select(entry_names()),
        prop::collection::vec(arg, 0..2),
        any::<bool>(),
    )
        .prop_map(|((entry, key), value, name, args, own)| {
            let mut args: Vec<String> = args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let name = if own {
                args.insert(0, format!("{key}={value}"));
                entry
            } else {
                name
            };
            if args.is_empty() {
                name.to_string()
            } else {
                format!("{name}({})", args.join(", "))
            }
        });
    prop::collection::vec(part, 1..4).prop_map(|parts| parts.join("+"))
}

/// Resolve `input` with one resolver; an `Ok` handle must re-resolve from
/// its canonical spelling to itself, under the same name.
fn round_trips<H: PartialEq + std::fmt::Display + std::fmt::Debug>(
    input: &str,
    resolve: impl Fn(&str) -> Result<H, String>,
) -> Result<(), String> {
    if let Ok(handle) = resolve(input) {
        let canonical = handle.to_string();
        match resolve(&canonical) {
            Ok(again) if again == handle && again.to_string() == canonical => {}
            again => return Err(format!("{input:?} → {canonical:?} → {again:?}")),
        }
    }
    Ok(())
}

/// Every expression resolver, on one input: none may panic.
fn resolve_everywhere(input: &str) -> Result<(), String> {
    std::panic::catch_unwind(|| {
        round_trips(input, BatchPolicy::resolve_expr)?;
        round_trips(input, BatchPolicy::resolve_assignment)?;
        round_trips(input, ReallocAlgorithm::resolve_expr)?;
        round_trips(input, Heuristic::resolve_expr)?;
        round_trips(input, Mapping::resolve_expr)?;
        round_trips(input, Fault::resolve_expr)
    })
    .unwrap_or_else(|_| Err(format!("{input:?} panicked")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile policy expressions produce errors, never panics, and
    /// whatever resolves round-trips through its canonical spelling.
    #[test]
    fn hostile_expressions_error_or_round_trip(input in hostile_expression()) {
        let checked = resolve_everywhere(&input);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// Near-valid expressions resolve to handles that round-trip.
    #[test]
    fn structured_expressions_round_trip(input in structured_expression()) {
        let checked = resolve_everywhere(&input);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
