//! Replay one month of the paper's Grid'5000 scenario and compare all six
//! reallocation heuristics under both algorithms, like one column of the
//! paper's Tables 2-17.
//!
//! ```text
//! cargo run --release --example grid5000_month -- [month] [fraction]
//!   month    jan|feb|mar|apr|may|jun|pwa-g5k   (default jun)
//!   fraction 0 < f <= 1                        (default 0.1)
//! ```

use caniou_realloc::prelude::*;
use caniou_realloc::realloc::experiments::platform_for;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = args
        .first()
        .map(|s| {
            Scenario::ALL
                .into_iter()
                .find(|sc| sc.label() == s)
                .unwrap_or_else(|| panic!("unknown month {s:?}"))
        })
        .unwrap_or(Scenario::Jun);
    let fraction: f64 = args
        .get(1)
        .map_or(0.1, |s| s.parse().expect("bad fraction"));

    let jobs = scenario.generate_fraction(42, fraction);
    let platform = platform_for(scenario, true); // heterogeneous, like §4's "most realistic" setup
    let policy = BatchPolicy::Cbf;
    println!(
        "scenario {} at fraction {}: {} jobs on {} ({} cores), {policy} everywhere",
        scenario.label(),
        fraction,
        jobs.len(),
        platform.name,
        platform.total_procs()
    );

    let baseline =
        simulate(GridConfig::new(platform.clone(), policy), jobs.clone()).expect("schedulable");
    println!(
        "baseline (no reallocation): mean response {:.0} s, makespan {}",
        baseline.mean_response(),
        baseline.makespan
    );
    println!();
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9}",
        "heuristic", "impacted%", "earlier%", "reallocs", "rel.resp"
    );
    for algorithm in ReallocAlgorithm::ALL {
        for heuristic in Heuristic::ALL {
            let cfg = ReallocConfig::new(algorithm, heuristic);
            let run = simulate(
                GridConfig::new(platform.clone(), policy).with_realloc(cfg),
                jobs.clone(),
            )
            .expect("schedulable");
            let cmp = Comparison::against_baseline(&baseline, &run);
            println!(
                "{:<14} {:>9.2} {:>9.2} {:>9} {:>9.3}",
                cfg.row_label(),
                cmp.pct_impacted,
                cmp.pct_earlier,
                cmp.reallocations,
                cmp.rel_avg_response
            );
        }
    }
}
