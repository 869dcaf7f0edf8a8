//! Work with real traces: export a synthetic scenario to the Parallel
//! Workload Archive's Standard Workload Format, read it back, and simulate
//! from the parsed file — the exact path a user with real SWF logs (CTC,
//! SDSC, ...) follows.
//!
//! ```text
//! cargo run --release --example swf_roundtrip [path/to/log.swf]
//! ```
//!
//! Without an argument, a small synthetic trace is written to a temporary
//! file first.

use caniou_realloc::prelude::*;
use caniou_realloc::workload::swf;

fn main() {
    let path = std::env::args().nth(1).map(std::path::PathBuf::from);
    let (path, generated) = match path {
        Some(p) => (p, false),
        None => {
            let jobs = Scenario::Jun.generate_fraction(42, 0.01);
            let text = swf::write(
                &jobs,
                &[
                    "Synthetic trace in the style of the paper's June 2008 scenario".into(),
                    "Generated by caniou-realloc's swf_roundtrip example".into(),
                ],
            );
            let p = std::env::temp_dir().join("caniou_realloc_roundtrip.swf");
            std::fs::write(&p, text).expect("write temp SWF");
            (p, true)
        }
    };
    println!("reading {}", path.display());
    let text = std::fs::read_to_string(&path).expect("readable SWF file");
    let parsed = swf::parse(&text).expect("valid SWF");
    println!(
        "parsed {} jobs ({} header comments, {} unusable lines skipped)",
        parsed.jobs.len(),
        parsed.comments.len(),
        parsed.skipped.len()
    );
    let stats = WorkloadStats::compute(&parsed.jobs);
    println!(
        "mean size {:.1} procs, mean runtime {:.0} s, walltime over-estimation ×{:.1}, {} killed",
        stats.mean_procs, stats.mean_runtime, stats.mean_overestimation, stats.killed
    );

    // Simulate the parsed trace on the paper's platform 2.
    let outcome = simulate(
        GridConfig::new(Platform::pwa_g5k(true), BatchPolicy::Cbf).with_realloc(
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        ),
        parsed.jobs,
    )
    .expect("trace must fit the platform");
    println!(
        "simulated: mean response {:.0} s, {} reallocations, makespan {}",
        outcome.mean_response(),
        outcome.total_reallocations,
        outcome.makespan
    );
    if generated {
        println!("(trace was synthesized at {})", path.display());
    }
}
