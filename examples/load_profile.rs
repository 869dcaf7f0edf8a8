//! Visualize why the paper's months behave so differently: sparklines of
//! platform utilization and waiting-queue length over a month, with and
//! without reallocation.
//!
//! ```text
//! cargo run --release --example load_profile -- [month] [fraction]
//! ```

use caniou_realloc::metrics::timeseries::{queue_length_series, sparkline, utilization_series};
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
        .unwrap_or(Scenario::Apr);
    let fraction: f64 = args
        .get(1)
        .map_or(0.05, |s| s.parse().expect("bad fraction"));

    let jobs = scenario.generate_fraction(42, fraction);
    let platform = platform_for(scenario, true);
    let total = platform.total_procs();
    let width = 72;

    println!(
        "{} at fraction {fraction}: {} jobs on {} cores (heterogeneous, FCFS)",
        scenario.label(),
        jobs.len(),
        total
    );
    for (label, realloc) in [
        ("no reallocation", None),
        (
            "cancel-all / MinMin",
            Some(ReallocConfig::new(
                ReallocAlgorithm::CancelAll,
                Heuristic::MinMin,
            )),
        ),
    ] {
        let mut config = GridConfig::new(platform.clone(), BatchPolicy::Fcfs);
        if let Some(r) = realloc {
            config = config.with_realloc(r);
        }
        let out = simulate(config, jobs.clone()).expect("schedulable");
        let util: Vec<f64> = utilization_series(&jobs, &out, total, width)
            .into_iter()
            .map(|(_, u)| u)
            .collect();
        let queue: Vec<f64> = queue_length_series(&out, width)
            .into_iter()
            .map(|(_, n)| n as f64)
            .collect();
        let peak_queue = queue.iter().copied().fold(0.0f64, f64::max);
        println!();
        println!(
            "== {label}: mean response {:.0} s, makespan {} ==",
            out.mean_response(),
            out.makespan
        );
        println!("utilization  |{}|", sparkline(&util));
        println!("queue length |{}|  (peak {peak_queue})", sparkline(&queue));
    }
}
