//! `obs-overhead` — the cost of attaching a disabled `grid-obs` handle.
//!
//! Every instrumentation call site in the engine is compiled in; there
//! is no uninstrumented build to compare against. What the
//! zero-cost-when-disabled contract promises is that *attaching* a
//! disabled handle costs nothing measurable: each call site is a single
//! `Option`-is-`None` check, no allocation, no formatting. This bench
//! times the same paper run three ways:
//!
//! 1. **baseline** — the unit's `GridSim` (`exec::grid_sim`) run with no
//!    handle attached;
//! 2. **disabled** — `simulate_observed` with `Obs::disabled()`, the
//!    path `campaign run` takes when neither `--trace` nor any exporter
//!    is requested;
//! 3. **enabled** — `simulate_observed` with a live recorder (reported
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

use grid_campaign::exec::{grid_sim, simulate_observed};
use grid_obs::Obs;
use grid_realloc::Heuristic;

/// The workload, as `BENCH_obs.json` names it.
const SCENARIO: &str = "pwa-g5k/hom/FCFS/cancel-all+MCT @ 0.01";

/// The run's job-count fraction. One run takes about 85 ms on a 2-CPU
/// host: a 2% gate then has about 1.7 ms of margin. On a run of about a
/// millisecond it would gate on timer noise. CancelAll + MCT exercises
/// the realloc tick, migration and repair/rebuild call sites — the
/// densest instrumentation surface.
const FRACTION: f64 = 0.01;

/// The three variants, in the order every pass runs them.
const VARIANTS: [&str; 3] = ["baseline", "disabled", "enabled"];

/// One simulation of the selected variant.
fn run_variant(variant: &str) -> grid_metrics::RunOutcome {
    let unit = grid_bench::cancel_all_unit(Heuristic::Mct, FRACTION);
    match variant {
        "baseline" => {
            grid_sim(&unit)
                .run()
                .expect("paper scenarios are schedulable")
                .0
        }
        "disabled" => simulate_observed(&unit, &Obs::disabled()).0,
        // A fresh recorder per pass, like the executor attaches one per
        // traced run.
        "enabled" => simulate_observed(&unit, &Obs::enabled()).0,
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
        "attaching a disabled handle must cost < {:.0}% over the run with none attached \
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
