//! Streaming aggregation must be bit-for-bit equivalent to the
//! materialised path: the per-cell mean/CI folded from cache records
//! ([`aggregate_streamed`] then `seed_aggregates`) equals the
//! vector-based [`CampaignResults::seed_aggregates`], [`stream_csv`] writes the exact
//! bytes of [`CampaignResults::to_csv`], and [`aggregate_streamed`]
//! reproduces every rendered export of [`aggregate`] — on multi-seed and
//! faulted specs alike.

use std::collections::HashSet;
use std::path::PathBuf;

use grid_campaign::{
    aggregate, aggregate_streamed, execute, stream_csv, CampaignSpec, ExecOptions, ResultCache,
};
use grid_realloc::Heuristic;
use grid_workload::Scenario;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("streaming-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three seeds over a 2×2×2 matrix: 6 refs + 24 realloc runs on 1% of
/// June — small enough to execute, rich enough to exercise the
/// cross-seed fold.
fn multi_seed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::paper();
    spec.name = "streaming-multi-seed".into();
    spec.scenarios = vec![Scenario::Jun];
    spec.heterogeneity = vec![false, true];
    spec.policies = vec![grid_batch::BatchPolicy::Fcfs];
    spec.heuristics = vec![Heuristic::Mct, Heuristic::MinMin];
    spec.seeds = vec![41, 42, 43];
    spec.fraction = 0.01;
    spec
}

/// Run the spec to completion into a fresh cache and return both the
/// cache and the classic materialised results.
fn run_and_aggregate(
    spec: &CampaignSpec,
    tag: &str,
) -> (ResultCache, grid_campaign::CampaignResults) {
    let plan = spec.expand();
    let cache = ResultCache::open(scratch(tag)).unwrap();
    let (outcomes, summary) = execute(&plan.units, Some(&cache), &ExecOptions::default());
    assert!(summary.failures.is_empty(), "{:?}", summary.failures);
    let results = aggregate(spec, &plan, &outcomes).expect("complete campaign");
    (cache, results)
}

#[test]
fn streamed_aggregate_matches_materialised_exports_bit_for_bit() {
    let spec = multi_seed_spec();
    let plan = spec.expand();
    let (cache, vector) = run_and_aggregate(&spec, "agg");
    let streamed = aggregate_streamed(&spec, &plan, &cache, &HashSet::new()).unwrap();
    assert_eq!(vector.to_csv(), streamed.to_csv());
    assert_eq!(vector.render_tables(), streamed.render_tables());
    assert_eq!(
        vector.to_json().encode_pretty(),
        streamed.to_json().encode_pretty(),
        "record-streaming aggregation must reproduce the outcome-vector path exactly"
    );
}

#[test]
fn stream_csv_writes_the_exact_to_csv_bytes() {
    let spec = multi_seed_spec();
    let plan = spec.expand();
    let (cache, vector) = run_and_aggregate(&spec, "csv");
    let mut streamed = Vec::new();
    stream_csv(&plan, &cache, &HashSet::new(), &mut streamed).unwrap();
    assert_eq!(
        vector.to_csv().into_bytes(),
        streamed,
        "streamed CSV must be byte-identical"
    );
}

#[test]
fn fold_based_seed_statistics_equal_vector_based_seed_agg() {
    let spec = multi_seed_spec();
    let plan = spec.expand();
    let (cache, vector) = run_and_aggregate(&spec, "seedagg");
    let folded = aggregate_streamed(&spec, &plan, &cache, &HashSet::new())
        .unwrap()
        .seed_aggregates();
    let materialised = vector.seed_aggregates();
    assert_eq!(folded.len(), materialised.len());
    for ((fk, fa), (mk, ma)) in folded.iter().zip(&materialised) {
        assert_eq!(fk, mk);
        assert_eq!(fa.n_seeds, ma.n_seeds);
        assert_eq!(fa.cells.len(), ma.cells.len());
        for (cell, fv) in &fa.cells {
            let mv = ma.cells.get(cell).expect("same cells");
            // Bit-for-bit: the two paths share one Welford kernel and
            // one fold order, so not even the last ulp may differ.
            assert_eq!(fv.n, mv.n);
            assert_eq!(fv.mean.to_bits(), mv.mean.to_bits(), "{cell:?}");
            assert_eq!(fv.ci95.to_bits(), mv.ci95.to_bits(), "{cell:?}");
        }
    }
}

#[test]
fn streaming_matches_on_a_faulted_campaign() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fault_sweep.toml");
    let mut spec = CampaignSpec::load(&path).expect("fault sweep spec parses");
    spec.faults.truncate(2);
    spec.fraction = 0.005;
    let plan = spec.expand();
    let (cache, vector) = run_and_aggregate(&spec, "faulted");
    let streamed = aggregate_streamed(&spec, &plan, &cache, &HashSet::new()).unwrap();
    assert_eq!(vector.to_csv(), streamed.to_csv());
    assert_eq!(vector.render_tables(), streamed.render_tables());
    let mut csv = Vec::new();
    stream_csv(&plan, &cache, &HashSet::new(), &mut csv).unwrap();
    assert_eq!(vector.to_csv().into_bytes(), csv);
}

#[test]
fn streaming_fails_cleanly_on_incomplete_cache() {
    let spec = multi_seed_spec();
    let plan = spec.expand();
    let cache = ResultCache::open(scratch("incomplete")).unwrap();
    let half = &plan.units[..plan.len() / 2];
    let (_, summary) = execute(half, Some(&cache), &ExecOptions::default());
    assert!(summary.failures.is_empty());
    let err = aggregate_streamed(&spec, &plan, &cache, &HashSet::new()).unwrap_err();
    assert!(err.contains("unavailable"), "{err}");
    let mut out = Vec::new();
    let err = stream_csv(&plan, &cache, &HashSet::new(), &mut out).unwrap_err();
    assert!(err.contains("unavailable"), "{err}");
    assert!(out.is_empty(), "no torn export on failure");
}
