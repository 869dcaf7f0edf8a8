//! `obs-overhead` — the zero-cost-when-disabled contract of `grid-obs`.
//!
//! The instrumentation layer promises that a simulation with a
//! *disabled* recorder attached is indistinguishable from one that
//! never heard of observability: every call site is a single
//! `Option`-is-`None` check, no allocation, no formatting. This bench
//! enforces that promise with a head-to-head timing of the same paper
//! run three ways:
//!
//! 1. **baseline** — `run_one`, the uninstrumented entry point every
//!    pre-observability caller uses;
//! 2. **disabled** — `run_one_observed` with `Obs::disabled()`, the
//!    path `campaign run` takes when neither `--trace` nor any exporter
//!    is requested;
//! 3. **enabled** — `run_one_observed` with a live recorder (reported
//!    for context, not gated: recording cost is opt-in by design).
//!
//! The disabled path must stay within 2% of the baseline (min-of-N
//! interleaved passes; the minimum is the standard noise-robust
//! estimator for a deterministic workload, and the comparison is
//! re-measured before a failure is believed). All three runs must also
//! produce identical outcomes — tracing that changed the answer would
//! be worse than slow tracing.
//!
//! Results go to `BENCH_obs.json`; `BENCH_QUICK=1` shrinks the pass
//! count for CI smoke runs without weakening the assertion.

use std::hint::black_box;

use grid_obs::Obs;
use grid_realloc::experiments::{run_one, run_one_observed, SuiteConfig};
use grid_realloc::{Heuristic, ReallocAlgorithm, ReallocConfig};
use grid_workload::Scenario;

/// The workload, as `BENCH_obs.json` names it.
const SCENARIO: &str = "pwa-g5k/hom/FCFS/cancel-all+MCT @ 0.01";

fn suite() -> SuiteConfig {
    SuiteConfig {
        seed: 42,
        // One run takes about 85 ms on a 2-CPU host: a 2% gate then has
        // about 1.7 ms of margin. On a run of about a millisecond it
        // would gate on timer noise.
        fraction: 0.01,
        period: grid_des::Duration::hours(1),
        threshold: grid_des::Duration::secs(60),
        fault: grid_fault::Fault::NONE,
    }
}

fn config() -> ReallocConfig {
    // CancelAll + MCT exercises the realloc tick, migration and
    // repair/rebuild call sites — the densest instrumentation surface.
    ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Mct)
}

/// The three variants, in the order every pass runs them.
const VARIANTS: [&str; 3] = ["baseline", "disabled", "enabled"];

/// One simulation of the selected variant.
fn run_variant(variant: &str) -> grid_metrics::RunOutcome {
    let suite = suite();
    match variant {
        "baseline" => run_one(
            Scenario::PwaG5k,
            false,
            grid_batch::BatchPolicy::Fcfs,
            Some(config()),
            &suite,
        ),
        "disabled" => {
            run_one_observed(
                Scenario::PwaG5k,
                false,
                grid_batch::BatchPolicy::Fcfs,
                Some(config()),
                &suite,
                &Obs::disabled(),
            )
            .0
        }
        "enabled" => {
            // A fresh recorder per pass, like the executor attaches one
            // per traced run.
            run_one_observed(
                Scenario::PwaG5k,
                false,
                grid_batch::BatchPolicy::Fcfs,
                Some(config()),
                &suite,
                &Obs::enabled(),
            )
            .0
        }
        other => unreachable!("unknown variant {other}"),
    }
}

/// Min-of-`passes` wall time in ms per variant (in [`VARIANTS`] order),
/// interleaved so a co-tenant CPU spike on a shared runner hits all
/// variants alike.
fn measure(passes: usize) -> [f64; 3] {
    let mut best = [f64::INFINITY; 3];
    for _ in 0..passes {
        for (ms, variant) in best.iter_mut().zip(VARIANTS) {
            *ms = ms.min(grid_bench::min_of(
                1,
                || (),
                |()| run_variant(variant),
                |outcome| drop(black_box(outcome)),
            ));
        }
    }
    best
}

fn main() {
    let passes = if grid_bench::quick() { 3 } else { 5 };

    // Correctness first: all three paths must agree exactly.
    let baseline_outcome = run_variant("baseline");
    for variant in ["disabled", "enabled"] {
        let outcome = run_variant(variant);
        assert_eq!(
            outcome.records, baseline_outcome.records,
            "{variant} path changed the outcome"
        );
        assert_eq!(
            outcome.total_reallocations,
            baseline_outcome.total_reallocations
        );
    }

    // Then the overhead gate, re-measured before a failure is believed.
    let [mut base, mut disabled, mut enabled] = measure(passes);
    const GATE: f64 = 0.02;
    for _ in 0..2 {
        if disabled <= base * (1.0 + GATE) {
            break;
        }
        let [b, d, e] = measure(passes);
        base = base.min(b);
        disabled = disabled.min(d);
        enabled = enabled.min(e);
    }
    let overhead = |ms: f64| ms / base - 1.0;
    println!(
        "bench: obs-overhead baseline {base:.1} ms | disabled {disabled:.1} ms ({:+.2}%) | \
         enabled {enabled:.1} ms ({:+.2}%)",
        overhead(disabled) * 100.0,
        overhead(enabled) * 100.0,
    );
    assert!(
        disabled <= base * (1.0 + GATE),
        "disabled instrumentation must cost < {:.0}% over the uninstrumented baseline \
         ({disabled:.1} vs {base:.1} ms)",
        GATE * 100.0,
    );

    let mut json = grid_ser::Value::object();
    json.insert("scenario", SCENARIO);
    json.insert("passes", passes as u64);
    json.insert("baseline_ms", base);
    json.insert("disabled_ms", disabled);
    json.insert("enabled_ms", enabled);
    json.insert("disabled_overhead", overhead(disabled));
    json.insert("enabled_overhead", overhead(enabled));
    json.insert("gate", GATE);
    grid_bench::write("obs", json);
}
