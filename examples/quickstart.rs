//! Quickstart: simulate one day of bursty traffic on a two-cluster grid,
//! with and without the paper's reallocation mechanism.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use caniou_realloc::prelude::*;

fn main() {
    // A small dedicated grid: a slow 64-core cluster and a 20%-faster
    // 32-core one, both running conservative back-filling.
    let platform = Platform::new(
        "quickstart",
        vec![
            ClusterSpec::new("alpha", 64, 1.0),
            ClusterSpec::new("beta", 32, 1.2),
        ],
    );

    // One day of synthetic load for each site, merged into one arrival
    // stream (ids re-assigned in submission order).
    let mut rng = SimRng::seed_from_u64(7);
    let site_a = SiteWorkloadSpec::new(400, 64, Duration::days(1))
        .with_utilization(0.85)
        .generate(&mut rng);
    let site_b = SiteWorkloadSpec::new(150, 32, Duration::days(1))
        .with_utilization(0.7)
        .generate(&mut rng);
    let jobs = caniou_realloc::workload::swf::merge_traces(vec![site_a, site_b]);
    let stats = WorkloadStats::compute(&jobs);
    println!(
        "workload: {} jobs, mean size {:.1} procs, mean runtime {:.0} s, {} killed at walltime",
        stats.n_jobs, stats.mean_procs, stats.mean_runtime, stats.killed
    );

    // Reference run: MCT mapping, no reallocation.
    let baseline = simulate(
        GridConfig::new(platform.clone(), BatchPolicy::Cbf),
        jobs.clone(),
    )
    .expect("schedulable");

    // Same workload with hourly reallocation (Algorithm 1, MCT ordering).
    let with_realloc = simulate(
        GridConfig::new(platform, BatchPolicy::Cbf).with_realloc(ReallocConfig::new(
            ReallocAlgorithm::NoCancel,
            Heuristic::Mct,
        )),
        jobs,
    )
    .expect("schedulable");

    let cmp = Comparison::against_baseline(&baseline, &with_realloc);
    println!();
    println!(
        "without reallocation: mean response {:>7.0} s",
        baseline.mean_response()
    );
    println!(
        "with    reallocation: mean response {:>7.0} s",
        with_realloc.mean_response()
    );
    println!();
    println!(
        "jobs impacted:            {:>6.2}% ({} of {})",
        cmp.pct_impacted, cmp.impacted, cmp.n_jobs
    );
    println!(
        "of those, finished earlier: {:>5.2}% ({} earlier / {} later)",
        cmp.pct_earlier, cmp.earlier, cmp.later
    );
    println!("reallocations performed:  {:>6}", cmp.reallocations);
    println!(
        "relative avg response:    {:>6.3}  ({}{}%)",
        cmp.rel_avg_response,
        if cmp.rel_avg_response <= 1.0 {
            "gain "
        } else {
            "loss "
        },
        ((1.0 - cmp.rel_avg_response).abs() * 100.0).round()
    );
}
