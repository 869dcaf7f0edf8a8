//! The motivating case of the paper's introduction: a submission burst
//! overwhelms one cluster's batch queue while the rest of the grid has
//! room, and walltime over-estimation makes the queue estimates wrong.
//! Reallocation drains the backlog onto the other sites.
//!
//! ```text
//! cargo run --release --example heterogeneous_burst
//! ```

use caniou_realloc::prelude::*;
use caniou_realloc::workload::swf::merge_traces;
use caniou_realloc::workload::ArrivalSpec;

fn main() {
    // The heterogeneous Grid'5000 platform of the paper (§3.2).
    let platform = Platform::grid5000(true);

    // Site 0 (Bordeaux, 640 cores) produces a extremely bursty stream:
    // most of its 2000 jobs arrive inside a handful of short windows.
    let mut bordeaux = SiteWorkloadSpec::new(2_000, 640, Duration::days(3)).with_utilization(0.9);
    bordeaux.arrival = ArrivalSpec {
        n_bursts: 6,
        burst_len: (600, 1_800),
        burst_weight: 300.0,
        ..ArrivalSpec::default()
    };
    // The other sites are quiet.
    let lyon = SiteWorkloadSpec::new(200, 270, Duration::days(3)).with_utilization(0.3);
    let toulouse = SiteWorkloadSpec::new(200, 434, Duration::days(3)).with_utilization(0.3);

    let mut rng = SimRng::seed_from_u64(2024);
    let jobs = merge_traces(vec![
        bordeaux.generate(&mut rng),
        lyon.generate(&mut rng),
        toulouse.generate(&mut rng),
    ]);
    println!(
        "{} jobs over 3 days; bursts of hundreds of submissions",
        jobs.len()
    );

    for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
        let baseline =
            simulate(GridConfig::new(platform.clone(), policy), jobs.clone()).expect("schedulable");
        println!();
        println!("== {policy} ==");
        println!(
            "  no reallocation:           mean wait {:>7.0} s, mean response {:>7.0} s",
            baseline.mean_wait(),
            baseline.mean_response()
        );
        for (label, algo, heuristic) in [
            (
                "Algorithm 1 (MCT)",
                ReallocAlgorithm::NoCancel,
                Heuristic::Mct,
            ),
            (
                "Algorithm 2 (MinMin-C)",
                ReallocAlgorithm::CancelAll,
                Heuristic::MinMin,
            ),
        ] {
            let run = simulate(
                GridConfig::new(platform.clone(), policy)
                    .with_realloc(ReallocConfig::new(algo, heuristic)),
                jobs.clone(),
            )
            .expect("schedulable");
            let cmp = Comparison::against_baseline(&baseline, &run);
            println!(
                "  {label:<26} mean wait {:>7.0} s, mean response {:>7.0} s  \
                 ({} reallocs, {:.1}% impacted, rel.resp {:.3})",
                run.mean_wait(),
                run.mean_response(),
                cmp.reallocations,
                cmp.pct_impacted,
                cmp.rel_avg_response
            );
        }
    }
}
