//! `hotpath` — the million-job end-to-end perf contract.
//!
//! Two scenarios:
//!
//! 1. **1M jobs end-to-end** (16-site grid, CBF, over-estimated
//!    walltimes): adaptive inline/tree profiles, the bucketed event
//!    queue, batch first-fit floors and the completion skip all carry
//!    load here.
//! 2. **1k-job queue depth** (one site, the whole workload queued at
//!    once): the deep-queue regime that the tree backend exists for.
//!
//! Every job record — id, submit, start, completion, site,
//! reallocations — is hashed, and each scenario's digest must equal its
//! pinned constant ([`PINNED`]): the digest both the pre-hot-path engine
//! and the current one produce. So every optimisation stays
//! byte-identical without rebuilding the engine it replaced in this
//! binary. End-to-end speed is gated by the campaign ledger
//! (`perfbench/`), not here.
//!
//! Timings are the minimum of the measured passes ([`grid_bench::min_of`]).
//! `BENCH_QUICK=1` shrinks the grid workload (50k jobs, one pass); the
//! digests are enforced either way. Results land in `BENCH_hotpath.json`.

use grid_batch::{BatchPolicy, ClusterSpec, JobSpec, Platform};
use grid_realloc::{simulate, GridConfig};

/// Outcome digest ([`grid_bench::outcome_digest`]) per `(scenario, jobs)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("grid", 1_000_000, 0xeede0dc039694a35),
    ("grid", 50_000, 0x9ac632e8dba853b3),
    ("deep", 1_000, 0x451903d17480e4b5),
];

/// Deterministic LCG stream (same constants as the repo's other
/// hand-rolled bench generators).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// The 1M-job grid workload: 16 sites, Poisson-ish arrivals tuned to
/// keep tens of jobs waiting per site, walltimes over-estimated by
/// 25–100% so every completion frees a window the scheduler must
/// reconsider (or, often, provably skip).
fn grid_workload(jobs: usize) -> (Platform, Vec<JobSpec>) {
    let clusters = (0..16)
        .map(|i| ClusterSpec::new(format!("site{i}"), 64 + (i % 4) * 32, 1.0))
        .collect();
    let platform = Platform::new("hotpath", clusters);
    let mut rng = Lcg(0x5EED_CAFE_F00D_0001);
    let mut specs = Vec::with_capacity(jobs);
    let mut submit = 0u64;
    for id in 0..jobs as u64 {
        // Mean service demand ~5,940 proc-s/job against 1,792 procs:
        // inter-arrival mean 4s puts the grid near 0.85 load — queues
        // stay tens deep (busy, but stable over a million jobs).
        submit += rng.next() % 9;
        let procs = (rng.next() % 32 + 1) as u32;
        let runtime = 60 + rng.next() % 600;
        let walltime = runtime + runtime / 4 + rng.next() % runtime;
        specs.push(JobSpec::new(id, submit, procs, runtime, walltime));
    }
    (platform, specs)
}

/// The deep-queue workload: one site, everything submitted in the first
/// instants, so the queue holds ~`jobs` entries and placement cost is
/// dominated by profile depth — the regime the tree backend covers.
fn deep_workload(jobs: usize) -> (Platform, Vec<JobSpec>) {
    let platform = Platform::new("deep", vec![ClusterSpec::new("site0", 256, 1.0)]);
    let mut rng = Lcg(0x5EED_CAFE_F00D_0002);
    let mut specs = Vec::with_capacity(jobs);
    for id in 0..jobs as u64 {
        let procs = (rng.next() % 64 + 1) as u32;
        let runtime = 60 + rng.next() % 600;
        let walltime = runtime + runtime / 4 + rng.next() % runtime;
        specs.push(JobSpec::new(id, id % 16, procs, runtime, walltime));
    }
    (platform, specs)
}

/// Best-of-`passes` wall time for one scenario, checking every pass's
/// digest against [`PINNED`].
fn measure(
    scenario: &str,
    platform: &Platform,
    specs: &[JobSpec],
    passes: usize,
) -> grid_ser::Value {
    let jobs = specs.len();
    let pinned = PINNED
        .iter()
        .find(|&&(s, n, _)| (s, n) == (scenario, jobs))
        .map(|&(_, _, d)| d)
        .expect("every scenario size has a pinned digest");
    let best = grid_bench::min_of(
        passes,
        || GridConfig::new(platform.clone(), BatchPolicy::Cbf).with_seed(42),
        |config| simulate(config, specs.to_vec()).expect("bench workload is schedulable"),
        |out| {
            assert_eq!(
                grid_bench::outcome_digest(&out),
                pinned,
                "engine changed the answer on the {scenario} workload ({jobs} jobs)"
            )
        },
    );
    println!("bench: hotpath/{scenario} {jobs:>7} jobs {best:>9.1} ms");
    let mut json = grid_ser::Value::object();
    json.insert("jobs", jobs as u64);
    json.insert("ms", best);
    json.insert("digest", format!("{pinned:016x}"));
    json
}

fn main() {
    let quick = grid_bench::quick();
    let passes = if quick { 1 } else { 2 };
    let grid_jobs = if quick { 50_000 } else { 1_000_000 };

    let mut json = grid_ser::Value::object();
    let (platform, specs) = grid_workload(grid_jobs);
    json.insert("grid", measure("grid", &platform, &specs, passes));
    let (platform, specs) = deep_workload(1_000);
    json.insert("deep", measure("deep", &platform, &specs, 3));
    grid_bench::write("hotpath", json);
}
