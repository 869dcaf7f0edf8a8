//! Regenerate the paper's Tables 1–17 (and the DESIGN.md ablations).
//!
//! A thin consumer of the `grid-campaign` engine: the option set below is
//! translated into a [`CampaignSpec`], executed (optionally against a
//! resumable result cache shared with the `campaign` CLI), and aggregated
//! back into the paper's tables.
//!
//! ```text
//! cargo run --release -p grid-bench --bin tables -- [OPTIONS]
//!
//! OPTIONS:
//!   --fraction F       per-site job-count fraction, 0 < F <= 1 (default 1.0;
//!                      the paper's full Table 1 counts)
//!   --seed S           workload seed (default 42)
//!   --table N          print only table N (repeatable; default: all 17)
//!   --scenarios a,b    comma-separated subset of jan,feb,mar,apr,may,jun,pwa-g5k
//!   --cache DIR        reuse/populate a campaign result cache
//!   --ablations        additionally run the A1-A6 ablation studies
//!   --no-shape-checks  skip the paper-vs-measured shape summary
//! ```
//!
//! At `--fraction 1.0` this reproduces the paper's full 364-experiment
//! grid; expect tens of minutes on a single core (interruptible and
//! resumable when `--cache` is given).

use std::collections::BTreeSet;
use std::time::Instant;

use grid_batch::BatchPolicy;
use grid_campaign::{aggregate, execute, CampaignSpec, ExecOptions, ResultCache};
use grid_des::Duration;
use grid_realloc::ablation;
use grid_realloc::experiments::{
    shape_checks, table1, table_number, Metric, SuiteConfig, SuiteResults,
};
use grid_realloc::{Heuristic, ReallocAlgorithm, ReallocConfig};
use grid_workload::Scenario;

struct Options {
    suite: SuiteConfig,
    tables: Option<BTreeSet<usize>>,
    scenarios: Vec<Scenario>,
    cache: Option<std::path::PathBuf>,
    ablations: bool,
    shape_checks: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        suite: SuiteConfig::default(),
        tables: None,
        scenarios: Scenario::ALL.to_vec(),
        cache: None,
        ablations: false,
        shape_checks: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fraction" => {
                let v = args.next().expect("--fraction needs a value");
                opts.suite.fraction = v.parse().expect("invalid fraction");
            }
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                opts.suite.seed = v.parse().expect("invalid seed");
            }
            "--table" => {
                let v: usize = args
                    .next()
                    .expect("--table needs a number")
                    .parse()
                    .expect("invalid table number");
                assert!((1..=17).contains(&v), "tables are numbered 1-17");
                opts.tables.get_or_insert_with(BTreeSet::new).insert(v);
            }
            "--scenarios" => {
                let v = args.next().expect("--scenarios needs a list");
                opts.scenarios = v
                    .split(',')
                    .map(|s| {
                        Scenario::ALL
                            .into_iter()
                            .find(|sc| sc.label() == s.trim())
                            .unwrap_or_else(|| panic!("unknown scenario {s:?}"))
                    })
                    .collect();
            }
            "--cache" => {
                let v = args.next().expect("--cache needs a directory");
                opts.cache = Some(v.into());
            }
            "--ablations" => opts.ablations = true,
            "--no-shape-checks" => opts.shape_checks = false,
            "--help" | "-h" => {
                println!("see the module docs: cargo doc -p grid-bench");
                std::process::exit(0);
            }
            other => panic!("unknown option {other:?}"),
        }
    }
    opts
}

fn wants(opts: &Options, n: usize) -> bool {
    opts.tables.as_ref().is_none_or(|t| t.contains(&n))
}

/// Translate the CLI options into a one-flavour campaign spec, run it
/// through the engine (cached when `--cache` is set) and aggregate back
/// into the classic `SuiteResults`.
fn campaign_suite(heterogeneous: bool, opts: &Options) -> SuiteResults {
    let mut spec = CampaignSpec::paper();
    spec.name = format!("tables-{}", if heterogeneous { "het" } else { "hom" });
    spec.scenarios = opts.scenarios.clone();
    spec.heterogeneity = vec![heterogeneous];
    spec.seeds = vec![opts.suite.seed];
    spec.fraction = opts.suite.fraction;
    spec.periods_s = vec![opts.suite.period.as_secs()];
    spec.thresholds_s = vec![opts.suite.threshold.as_secs()];
    let plan = spec.expand();
    let cache = opts.cache.as_ref().map(|dir| {
        ResultCache::open(dir)
            .unwrap_or_else(|e| panic!("cannot open cache {}: {e}", dir.display()))
    });
    let (outcomes, summary) = execute(
        &plan.units,
        cache.as_ref(),
        &ExecOptions {
            progress: true,
            ..ExecOptions::default()
        },
    );
    assert!(
        summary.failures.is_empty(),
        "{} runs failed; {}",
        summary.failures.len(),
        if opts.cache.is_some() {
            "completed runs are cached — rerun to resume the rest"
        } else {
            "completed runs were not persisted (pass --cache DIR to make reruns resumable)"
        }
    );
    let results = aggregate(&spec, &plan, &outcomes).expect("all runs present");
    let (_, suite) = results
        .groups
        .into_iter()
        .next()
        .expect("single-flavour campaign yields one group");
    suite
}

fn main() {
    let opts = parse_args();
    println!(
        "# caniou-realloc table harness — fraction {}, seed {}, scenarios: {}",
        opts.suite.fraction,
        opts.suite.seed,
        opts.scenarios
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(",")
    );
    println!();

    if wants(&opts, 1) {
        println!("{}", table1());
    }

    let need_hom = (2..=17).any(|n| n % 2 == 0 && wants(&opts, n));
    let need_het = (2..=17).any(|n| n % 2 == 1 && n >= 3 && wants(&opts, n));
    let run = |het: bool| -> SuiteResults {
        let t0 = Instant::now();
        let r = campaign_suite(het, &opts);
        eprintln!(
            "[suite {} done in {:.1?}: {} experiments]",
            if het { "heterogeneous" } else { "homogeneous" },
            t0.elapsed(),
            r.comparisons.len()
        );
        r
    };
    let hom = need_hom.then(|| run(false));
    let het = need_het.then(|| run(true));

    // Paper order: for each algorithm, metric-major, homogeneous first.
    for algorithm in ReallocAlgorithm::ALL {
        for metric in Metric::ALL {
            for (results, heterogeneous) in [(&hom, false), (&het, true)] {
                let n = table_number(algorithm, metric, heterogeneous)
                    .expect("paper algorithms have table numbers");
                if !wants(&opts, n) {
                    continue;
                }
                if let Some(res) = results {
                    println!("{}", res.table(algorithm, metric, &opts.scenarios));
                }
            }
        }
    }

    if opts.shape_checks {
        if let (Some(hom), Some(het)) = (&hom, &het) {
            println!("## Shape checks (paper vs measured)");
            for check in shape_checks(hom, het) {
                println!(
                    "[{}] {}\n    paper:    {}\n    measured: {}",
                    if check.pass { "PASS" } else { "MISS" },
                    check.name,
                    check.paper,
                    check.measured
                );
            }
            println!();
        }
    }

    if opts.ablations {
        run_ablations(&opts);
    }
}

fn run_ablations(opts: &Options) {
    let suite = &opts.suite;
    let scenario = if opts.scenarios.contains(&Scenario::Apr) {
        Scenario::Apr
    } else {
        opts.scenarios[0]
    };
    println!("## Ablation A1: reallocation period sweep ({scenario}, het, FCFS, no-cancel/MCT)");
    let periods = [
        Duration::minutes(15),
        Duration::minutes(30),
        Duration::hours(1),
        Duration::hours(2),
        Duration::hours(4),
    ];
    for p in ablation::period_sweep(
        scenario,
        true,
        BatchPolicy::Fcfs,
        ReallocAlgorithm::NoCancel,
        Heuristic::Mct,
        &periods,
        suite,
    ) {
        println!(
            "  period {:>8}: impacted {:5.2}%, reallocs {:6}, earlier {:5.2}%, rel.resp {:.3}",
            p.period.to_string(),
            p.comparison.pct_impacted,
            p.comparison.reallocations,
            p.comparison.pct_earlier,
            p.comparison.rel_avg_response
        );
    }
    println!();

    println!("## Ablation A2: Algorithm-1 threshold sweep ({scenario}, het, FCFS, MCT)");
    let thresholds = [
        Duration::ZERO,
        Duration::secs(60),
        Duration::minutes(5),
        Duration::minutes(30),
    ];
    for p in ablation::threshold_sweep(
        scenario,
        true,
        BatchPolicy::Fcfs,
        Heuristic::Mct,
        &thresholds,
        suite,
    ) {
        println!(
            "  threshold {:>8}: impacted {:5.2}%, reallocs {:6}, rel.resp {:.3}",
            p.threshold.to_string(),
            p.comparison.pct_impacted,
            p.comparison.reallocations,
            p.comparison.rel_avg_response
        );
    }
    println!();

    println!("## Ablation A3: initial mapping policy ({scenario}, het, CBF, no-cancel/MCT)");
    for p in ablation::mapping_ablation(
        scenario,
        true,
        BatchPolicy::Cbf,
        ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        suite,
    ) {
        println!(
            "  {:<10}: mean response {:>9.0}s without realloc, {:>9.0}s with (gain {:.1}%)",
            p.mapping.to_string(),
            p.mean_response_no_realloc,
            p.mean_response_realloc,
            (1.0 - p.mean_response_realloc / p.mean_response_no_realloc.max(1.0)) * 100.0
        );
    }
    println!();

    println!("## Ablation A4: starvation probe ({scenario}, hom, FCFS)");
    for (algo, h) in [
        (ReallocAlgorithm::NoCancel, Heuristic::MinMin),
        (ReallocAlgorithm::CancelAll, Heuristic::MinMin),
    ] {
        let rep = ablation::starvation_probe(scenario, false, BatchPolicy::Fcfs, algo, h, suite);
        println!(
            "  {algo}: max migrations/job {}, mean (migrated) {:.2}, jobs moved >=3 times {}, worst response {}s",
            rep.max_migrations, rep.mean_migrations_of_migrated, rep.churned_jobs, rep.worst_response
        );
    }
    println!();

    println!("## Ablation A7: back-filling flavours ({scenario}, het, no-cancel/MCT)");
    for p in ablation::backfill_ablation(
        scenario,
        true,
        ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        suite,
    ) {
        println!(
            "  {:<5}: mean response {:>9.0}s base, {:>9.0}s with realloc ({} migrations)",
            p.policy.to_string(),
            p.mean_response_no_realloc,
            p.mean_response_realloc,
            p.reallocations
        );
    }
    println!();

    println!("## Ablation A5: walltime speed-adjustment ({scenario}, het, CBF, no-cancel/MCT)");
    for p in ablation::walltime_adjustment_ablation(
        scenario,
        BatchPolicy::Cbf,
        ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        suite,
    ) {
        println!(
            "  adjustment {:<5}: mean response {:>9.0}s, reallocs {:>6}",
            p.adjusted, p.mean_response, p.reallocations
        );
    }
    println!();

    println!("## Ablation A6: reallocation vs multiple submission ({scenario}, het, FCFS)");
    for p in ablation::mechanism_comparison(scenario, true, BatchPolicy::Fcfs, suite) {
        println!(
            "  {:<30}: mean response {:>9.0}s, control actions {:>7}",
            p.label, p.mean_response, p.control_actions
        );
    }
    println!();

    println!("## Ablation A6b: aggressive reallocation settings ({scenario}, het, FCFS)");
    let base = grid_realloc::experiments::run_one(scenario, true, BatchPolicy::Fcfs, None, suite);
    for (label, cfg) in [
        (
            "paper (1h, 60s)",
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        ),
        (
            "aggressive (10min, 0s)",
            ablation::aggressive_realloc_config(Heuristic::Mct),
        ),
    ] {
        let run =
            grid_realloc::experiments::run_one(scenario, true, BatchPolicy::Fcfs, Some(cfg), suite);
        let cmp = grid_metrics::Comparison::against_baseline(&base, &run);
        println!(
            "  {label:<22}: reallocs {:6}, impacted {:5.2}%, rel.resp {:.3}",
            cmp.reallocations, cmp.pct_impacted, cmp.rel_avg_response
        );
    }
}
