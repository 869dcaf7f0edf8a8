//! Head-to-head: the related-work multiple-submission scheme (Sonmez et
//! al.) against the plain MCT baseline on identical workloads — the
//! multiple-submission rows of ablation A6.
//!
//! Multiple submission posts a copy of each job to the k best clusters and
//! cancels the siblings when one starts; reallocation keeps one copy per
//! job and migrates it at hourly events. The paper argues reallocation
//! "will keep the local resources management system less loaded because
//! each job is only in one queue" (§5) — this example puts numbers on the
//! trade-off. Multiple submission is its own event loop, not a
//! reallocation strategy, so it runs here rather than on the campaign
//! engine; the reallocation rows come from the A6 spec:
//!
//! ```text
//! cargo run --release --example multisub_comparison -- [fraction]
//! campaign run    --spec examples/ablation_a6_multisub.toml
//! campaign report --spec examples/ablation_a6_multisub.toml
//! ```

use caniou_realloc::prelude::*;
use caniou_realloc::realloc::experiments::platform_for;
use caniou_realloc::realloc::multisub::{simulate_multisub, MultiSubConfig};

fn main() {
    let fraction: f64 = std::env::args()
        .nth(1)
        .map_or(0.05, |s| s.parse().expect("bad fraction"));
    let (scenario, policy) = (Scenario::Apr, BatchPolicy::Fcfs);
    let jobs = scenario.generate_fraction(42, fraction);
    println!("April scenario at fraction {fraction}, heterogeneous platform, FCFS everywhere");
    println!(
        "{:<32} {:>16} {:>16}",
        "mechanism", "mean resp (s)", "control actions"
    );
    let baseline = simulate(
        GridConfig::new(platform_for(scenario, true), policy).with_seed(42),
        jobs.clone(),
    )
    .expect("schedulable");
    println!(
        "{:<32} {:>16.0} {:>16}",
        "baseline (MCT only)",
        baseline.mean_response(),
        0
    );
    for k in [2usize, 3] {
        let run = simulate_multisub(
            MultiSubConfig::new(platform_for(scenario, true), policy, k),
            jobs.clone(),
        );
        // Each logical job posts up to k-1 extra copies.
        println!(
            "{:<32} {:>16.0} {:>16}",
            format!("multi-submission k={k}"),
            run.mean_response(),
            (k as u64 - 1) * jobs.len() as u64
        );
    }
    println!();
    println!(
        "'Control actions' counts extra queue entries (multiple submission) — the load the\n\
         mechanism puts on the batch systems; the A6 spec's report counts migrations for\n\
         reallocation on the same workload."
    );
}
