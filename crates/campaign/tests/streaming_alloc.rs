//! Bounded-allocations proof of the streaming fold: peak heap growth of
//! a [`StreamAgg`] fold is set by the number of distinct table cells,
//! not the run count — a 10k-run synthetic fold allocates no more than a
//! 1k-run fold over the same cells.
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use grid_campaign::aggregate::GroupKey;
use grid_campaign::StreamAgg;
use grid_metrics::Comparison;
use grid_realloc::experiments::ExperimentKey;
use grid_realloc::{Heuristic, ReallocAlgorithm};
use grid_workload::Scenario;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Synthetic comparison whose metrics vary by seed, so the Welford
/// accumulators do real arithmetic.
fn synthetic(seed: u64) -> Comparison {
    let x = seed as f64;
    Comparison {
        n_jobs: 100,
        impacted: 50,
        earlier: 30,
        later: 20,
        reallocations: seed,
        pct_impacted: 50.0 + (x % 7.0),
        pct_earlier: 60.0 - (x % 5.0),
        rel_avg_response: 0.9 + (x % 13.0) / 100.0,
        max_migrations: 3,
        mean_migrations_of_migrated: 1.5,
        churned_jobs: 1,
        worst_response_s: 3600,
    }
}

/// Fold `seeds` seeds × 8 cells (= 8·seeds runs) and return the peak
/// heap growth of the fold in bytes.
fn fold_peak(seeds: u64) -> usize {
    let cells: Vec<ExperimentKey> = [Scenario::Jun, Scenario::Jan]
        .into_iter()
        .flat_map(|scenario| {
            [grid_batch::BatchPolicy::Fcfs, grid_batch::BatchPolicy::Cbf]
                .into_iter()
                .flat_map(move |policy| {
                    [Heuristic::Mct, Heuristic::MinMin]
                        .into_iter()
                        .map(move |heuristic| ExperimentKey {
                            scenario,
                            policy,
                            algorithm: ReallocAlgorithm::resolve("no-cancel").unwrap(),
                            heuristic,
                        })
                })
        })
        .collect();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut agg = StreamAgg::default();
    // Ascending GroupKey order, as the streaming entry points push.
    for seed in 0..seeds {
        let group = GroupKey {
            heterogeneous: false,
            seed,
            period_s: 3600,
            threshold_s: 60,
            fault: grid_fault::Fault::NONE,
            mapping: grid_realloc::Mapping::Mct,
            walltime_adjustment: true,
        };
        for &cell in &cells {
            agg.push(&group, cell, &synthetic(seed));
        }
    }
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    // The result must still be right, not just small.
    let finished = agg.seed_aggregates();
    assert_eq!(finished.len(), 1);
    let group = finished.values().next().unwrap();
    assert_eq!(group.n_seeds, seeds as usize);
    assert!(group.cells.len() >= cells.len());
    peak
}

#[test]
fn stream_fold_peak_memory_is_constant_in_run_count() {
    // Warm-up so one-time lazy allocations don't charge either side.
    let _ = fold_peak(10);
    let small = fold_peak(125); // 1k runs
    let large = fold_peak(1_250); // 10k runs
    assert!(
        large <= small.max(4096) * 2,
        "10k-run fold must not allocate beyond the 1k-run fold's peak: \
         1k-run peak {small} B, 10k-run peak {large} B"
    );
    // And the absolute footprint stays tiny — accumulators, not records.
    assert!(
        large < 256 * 1024,
        "fold peak should be a few KB of accumulators, got {large} B"
    );
}
