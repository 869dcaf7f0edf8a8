//! `scale` — how the campaign's slowest cell grows with its workload.
//!
//! The paper campaign's critical cell, `pwa-g5k/hom/FCFS/cancel-all/MaxMin`,
//! runs at size fractions 0.5%, 1% and 2% of the Table 1 job counts
//! (`BENCH_QUICK=1`: 0.5% and 1% only). Each fraction records:
//!
//! * `wall_ms`, the plain run (no recorder attached);
//! * `tick_ms`, the `realloc.tick` span total of a traced run;
//! * the traced run's `realloc.examined`, `ect.walked` and `ect.rekeys`
//!   counters.
//!
//! Every run's outcome digest must equal the one pinned per fraction
//! ([`PINNED`]), and the exponent fitted to `tick_ms` over the fractions
//! (least squares on log–log: cost ∝ fraction^exponent) must stay at or
//! below [`MAX_EXPONENT`]. Timings are the minimum of the measured passes
//! ([`grid_bench::min_of`]). Results land in `BENCH_scale.json`.

use grid_batch::BatchPolicy;
use grid_obs::Obs;
use grid_realloc::experiments::{run_one, run_one_observed, SuiteConfig};
use grid_realloc::{Heuristic, ReallocAlgorithm, ReallocConfig};
use grid_workload::Scenario;

/// Outcome digest ([`grid_bench::outcome_digest`]) per size fraction.
const PINNED: &[(f64, u64)] = &[
    (0.005, 0x3e537b9119f5b3e5),
    (0.01, 0xb3132c46af9b78f2),
    (0.02, 0x533236ee25c7e95c),
];

/// The largest exponent the tick cost may grow with: below the 4.26
/// (full mode) and 4.30 (quick mode) of the per-row walk this bench was
/// pinned from, above the width-class walk's 3.5 (full) and 3.5–4.0
/// (quick) on a 2-CPU host.
const MAX_EXPONENT: f64 = 4.15;

fn suite(fraction: f64) -> SuiteConfig {
    SuiteConfig {
        seed: 42,
        fraction,
        period: grid_des::Duration::hours(1),
        threshold: grid_des::Duration::secs(60),
        fault: grid_fault::Fault::NONE,
    }
}

fn config() -> ReallocConfig {
    ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MaxMin)
}

/// Least-squares slope of `ln y` over `ln x`.
fn exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (mx, my) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x / n, b + y / n));
    let (num, den) = logs.iter().fold((0.0, 0.0), |(num, den), &(x, y)| {
        (num + (x - mx) * (y - my), den + (x - mx) * (x - mx))
    });
    num / den
}

fn main() {
    // Two passes in quick mode too: the exponent gate compares runs.
    let passes = 2;
    let fractions = if grid_bench::quick() {
        &PINNED[..2]
    } else {
        PINNED
    };

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &(fraction, pinned) in fractions {
        let suite = suite(fraction);
        let check = |out: &grid_metrics::RunOutcome| {
            assert_eq!(
                grid_bench::outcome_digest(out),
                pinned,
                "engine changed the answer at fraction {fraction}"
            );
        };
        let wall_ms = grid_bench::min_of(
            passes,
            || (),
            |()| {
                run_one(
                    Scenario::PwaG5k,
                    false,
                    BatchPolicy::Fcfs,
                    Some(config()),
                    &suite,
                )
            },
            |out| check(&out),
        );
        let mut tick_ms = f64::INFINITY;
        let mut counts = [0; 3];
        for _ in 0..passes {
            let obs = Obs::enabled();
            let (out, _, _) = run_one_observed(
                Scenario::PwaG5k,
                false,
                BatchPolicy::Fcfs,
                Some(config()),
                &suite,
                &obs,
            );
            check(&out);
            obs.with(|r| {
                let tick = r.spans().get("realloc.tick").map_or(0, |s| s.total_ns);
                tick_ms = tick_ms.min(tick as f64 / 1e6);
                counts = ["realloc.examined", "ect.walked", "ect.rekeys"].map(|c| r.counter(c));
            });
        }
        let [examined, walked, rekeys] = counts;
        println!(
            "bench: scale {:>4.1}% wall {wall_ms:>9.1} ms tick {tick_ms:>9.1} ms | \
             examined {examined} walked {walked} rekeys {rekeys}",
            fraction * 100.0
        );
        points.push((fraction, tick_ms));
        let mut row = grid_ser::Value::object();
        row.insert("fraction", fraction);
        row.insert("wall_ms", wall_ms);
        row.insert("tick_ms", tick_ms);
        row.insert("realloc_examined", examined);
        row.insert("ect_walked", walked);
        row.insert("ect_rekeys", rekeys);
        row.insert("digest", format!("{pinned:016x}"));
        rows.push(row);
    }
    let fitted = exponent(&points);
    println!(
        "bench: scale tick-cost exponent {fitted:.2} ({:.1}x per doubling), bound {MAX_EXPONENT}",
        2f64.powf(fitted)
    );
    assert!(
        fitted <= MAX_EXPONENT,
        "tick cost grows with fraction^{fitted:.2}, above the bound {MAX_EXPONENT}"
    );

    let mut json = grid_ser::Value::object();
    json.insert("cell", "pwa-g5k/hom/FCFS/cancel-all/MaxMin");
    json.insert("passes", passes as u64);
    json.insert("fractions", rows);
    json.insert("exponent", fitted);
    json.insert("max_exponent", MAX_EXPONENT);
    grid_bench::write("scale", json);
}
