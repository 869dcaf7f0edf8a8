//! `scheduling-incremental` — the availability engine's perf contract.
//!
//! Three layers, each with assertions that turn a regression into a
//! bench failure:
//!
//! 1. **Cluster churn**: warm-profile schedule maintenance vs the
//!    historical full-rebuild baseline for FCFS/CBF at 1k/10k/50k-job
//!    queues — the reallocation hot path ("cancel a waiting job, re-read
//!    the schedule"). The warm path must perform strictly fewer full
//!    recomputes over the identical op sequence.
//! 2. **EASY repair**: the protected-head-aware suffix repair the
//!    availability engine opened to the aggressive family. EASY must
//!    perform strictly fewer full rebuilds than the forced-rebuild
//!    baseline while repairing at least once.
//! 3. **Profile backend**: the tree backend vs a profile that never
//!    leaves its flat sorted-Vec backend (the differential oracle) on a
//!    release/first-fit/reserve churn over 1k/10k/50k-reservation
//!    timelines. The tree must beat the Vec at 10k and 50k and scale
//!    sub-linearly from 1k→10k→50k.
//!
//! Every churn is timed as the minimum of its passes
//! ([`grid_bench::min_of`]) on fresh clones. Layers 1–2 record
//! `warm_ms`/`rebuild_ms` per churn next to their recompute counters,
//! layer 3 its ns per profile op; all land in `BENCH_sched.json`.
//! `BENCH_QUICK=1` shrinks the pass counts and skips the (minutes-long)
//! 50k cluster-churn layer for smoke runs without weakening any
//! assertion.

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, ClusterStats, JobId, JobSpec, Profile};
use grid_des::{Duration, SimTime};
use std::hint::black_box;

const PROCS: u32 = 640;
/// The EASY runners over-estimate: reserved to 50_000, actually end here.
const RUNNER_END: u64 = 40_000;

/// The layer-1 blocker's actual end: safely after the last churn op
/// (cancels run at `depth + k`), well before its reserved walltime.
fn blocker_end(depth: usize) -> u64 {
    depth as u64 + 10_000
}

// ---------------------------------------------------------------------
// Layer 1: cluster churn (warm profile vs forced full rebuilds)
// ---------------------------------------------------------------------

/// A cluster whose full width is taken by one over-estimated running job
/// (runtime 40k, walltime 50k) with `depth` mixed jobs queued behind it.
fn deep_cluster(policy: BatchPolicy, depth: usize) -> Cluster {
    let mut c = Cluster::new(ClusterSpec::new("bench", PROCS, 1.0), policy);
    c.submit(
        JobSpec::new(
            1_000_000,
            0,
            PROCS,
            blocker_end(depth),
            blocker_end(depth) + 10_000,
        ),
        SimTime(0),
    )
    .expect("blocker fits");
    c.start_due(SimTime(0));
    for i in 0..depth {
        let p = (i as u32 % (PROCS / 4).max(1)) + 1;
        let wt = 600 + (i as u64 % 7) * 600;
        c.submit(
            JobSpec::new(i as u64, i as u64, p, wt - 60, wt),
            SimTime(i as u64),
        )
        .expect("bench job fits");
    }
    c
}

/// The measured operation sequence: `cancels` reallocation-style
/// cancel+query pairs spread through the queue, then the blocker's early
/// completion followed by a final schedule query.
///
/// Time starts past the last submission instant (`depth`) so the clock
/// never runs backwards and the warm profile built during setup stays
/// reusable from the first operation on.
fn churn(cluster: &mut Cluster, depth: usize, cancels: usize) -> Option<SimTime> {
    for k in 0..cancels {
        // Victims spread over the back half of the queue, so the suffix
        // repair has a prefix to skip.
        let idx = (depth / 4 + k * (depth / 2) / cancels.max(1)) as u64;
        let t = SimTime((depth + k) as u64 + 1);
        if cluster.cancel(JobId(idx), t).is_some() {
            black_box(cluster.next_reservation(t));
        }
    }
    let end = SimTime(blocker_end(depth));
    cluster.complete(JobId(1_000_000), end);
    cluster.next_reservation(end)
}

/// Best-of-`passes` wall time of `churn` on fresh clones of `base`, and
/// the counters it leaves behind (identical on every pass).
fn time_churn(base: &Cluster, passes: usize, churn: impl Fn(&mut Cluster)) -> (f64, ClusterStats) {
    let mut stats = ClusterStats::default();
    let ms = grid_bench::min_of(
        passes,
        || base.clone(),
        |mut c| {
            churn(&mut c);
            c
        },
        |c| stats = *c.stats(),
    );
    (ms, stats)
}

/// Passes per cluster churn: as many as fit a budget of queued jobs, so
/// the deepest (seconds-long) rebuilds run once or twice.
fn churn_passes(quick: bool, depth: usize) -> usize {
    let budget = if quick { 30_000 } else { 100_000 };
    (budget / depth).clamp(1, 10)
}

// ---------------------------------------------------------------------
// Layer 2: EASY protected-head suffix repair
// ---------------------------------------------------------------------

const EASY_RUNNERS: u64 = 512;

/// An EASY cluster with many narrow running jobs (an expensive running
/// set to re-carve on rebuild) and `depth` wide jobs queued behind them —
/// the regime where the protected-head repair beats a rebuild.
fn easy_cluster(depth: usize, incremental: bool) -> Cluster {
    let mut c = Cluster::new(ClusterSpec::new("easy", PROCS, 1.0), BatchPolicy::Easy);
    c.set_incremental(incremental);
    for i in 0..EASY_RUNNERS {
        c.submit(
            JobSpec::new(1_000_000 + i, 0, 1, RUNNER_END, 50_000),
            SimTime(0),
        )
        .expect("runner fits");
    }
    c.start_due(SimTime(0));
    for i in 0..depth {
        let wt = 600 + (i as u64 % 7) * 600;
        // Wider than the free width, so every job queues.
        c.submit(
            JobSpec::new(i as u64, 0, 256 + (i as u32 % 64), wt - 60, wt),
            SimTime(0),
        )
        .expect("queued job fits");
    }
    c
}

/// Cancels of unprotected jobs (repair past the protected head) followed
/// by early completions of runners (whole-queue repair on the freed
/// window).
fn easy_churn(c: &mut Cluster, depth: usize, cancels: usize) {
    for k in 0..cancels {
        let idx = (depth / 4 + k * (depth / 2) / cancels.max(1)) as u64;
        let t = SimTime(k as u64 + 1);
        if c.cancel(JobId(idx), t).is_some() {
            black_box(c.next_reservation(t));
        }
    }
    for i in 0..16u64 {
        c.complete(JobId(1_000_000 + i), SimTime(RUNNER_END));
        black_box(c.next_reservation(SimTime(RUNNER_END)));
    }
}

// ---------------------------------------------------------------------
// Layer 3: profile backends head to head (tree vs legacy Vec)
// ---------------------------------------------------------------------

/// The two backends under comparison, as [`Profile`] promotion
/// crossovers: `0` pins the tree from birth (`Profile::flat` is adaptive,
/// and this layer's assertions describe the treap); `usize::MAX` never
/// promotes, so the profile runs the flat sorted-buffer algorithms alone.
const TREE: usize = 0;
const FLAT: usize = usize::MAX;

/// Seed `depth` stacked reservations (FCFS-style monotone placement, so
/// seeding stays cheap on both backends) and return the ledger.
fn seed(crossover: usize, depth: usize) -> (Profile, Vec<(SimTime, Duration, u32)>) {
    let mut p = Profile::flat_with_crossover(PROCS, SimTime(0), crossover);
    let mut ledger = Vec::with_capacity(depth);
    let mut after = SimTime(0);
    for i in 0..depth {
        let procs = (i as u32 % (PROCS / 4).max(1)) + 1;
        let dur = Duration(600 + (i as u64 % 7) * 600);
        let start = p.first_fit(after, dur, procs);
        p.reserve(start, dur, procs);
        ledger.push((start, dur, procs));
        after = start;
    }
    (p, ledger)
}

/// One churn pass: release a pseudo-random live reservation, find the
/// earliest hole for its replacement from the timeline start (the CBF
/// placement shape), re-reserve. 3 profile ops per round.
const CHURN_ROUNDS: usize = 256;

fn backend_churn(p: &mut Profile, ledger: &mut [(SimTime, Duration, u32)]) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CHURN_ROUNDS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (x >> 16) as usize % ledger.len();
        let (start, dur, procs) = ledger[i];
        p.release(start, dur, procs);
        let again = p.first_fit(SimTime(0), dur, procs);
        p.reserve(again, dur, procs);
        ledger[i] = (again, dur, procs);
    }
}

/// ns per profile op, taken as the fastest of `iters` churn passes on
/// fresh clones after one untimed warm-up pass.
fn backend_ns_per_op(crossover: usize, depth: usize, iters: usize) -> f64 {
    let (p, ledger) = seed(crossover, depth);
    backend_churn(&mut p.clone(), &mut ledger.clone());
    let ms = grid_bench::min_of(
        iters.max(2),
        || (p.clone(), ledger.clone()),
        |(mut p, mut ledger)| {
            backend_churn(&mut p, &mut ledger);
            (p, ledger)
        },
        |(p, _)| {
            black_box(p.first_fit(SimTime(0), Duration(1), 1));
        },
    );
    ms * 1e6 / (CHURN_ROUNDS * 3) as f64
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn main() {
    let quick = grid_bench::quick();
    let mut json = grid_ser::Value::object();

    // ---- Layer 1: cluster churn -------------------------------------
    let mut churn_json = grid_ser::Value::object();
    // Quick (CI smoke) mode skips the 50k cluster-churn layer: a single
    // CBF rebuild pass over a 50k queue runs tens of seconds, which is a
    // perf data point, not a smoke test. The profile-backend layer below
    // covers 50k in every mode.
    let churn_depths: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    for policy in [BatchPolicy::Fcfs, BatchPolicy::Cbf] {
        let mut policy_json = grid_ser::Value::object();
        for &depth in churn_depths {
            // Recompute accounting over the identical op sequence.
            let [(warm_ms, warm), (rebuild_ms, full)] = [true, false].map(|incremental| {
                let mut base = deep_cluster(policy, depth);
                base.set_incremental(incremental);
                time_churn(&base, churn_passes(quick, depth), |c| {
                    black_box(churn(c, depth, 32));
                })
            });
            println!(
                "bench: churn {policy}/{depth:<6} warm {warm_ms:>9.2} ms ({} full rebuilds + {} \
                 suffix repairs) | rebuild {rebuild_ms:>9.2} ms ({} full rebuilds)",
                warm.recomputes, warm.suffix_repairs, full.recomputes
            );
            assert!(
                warm.recomputes < full.recomputes,
                "{policy}/{depth}: warm path must perform strictly fewer full recomputes \
                 ({} vs {})",
                warm.recomputes,
                full.recomputes
            );
            assert!(warm.suffix_repairs > 0, "warm path never repaired");
            let mut cell = grid_ser::Value::object();
            cell.insert("warm_ms", warm_ms);
            cell.insert("rebuild_ms", rebuild_ms);
            cell.insert("warm_recomputes", warm.recomputes);
            cell.insert("warm_suffix_repairs", warm.suffix_repairs);
            cell.insert("full_recomputes", full.recomputes);
            policy_json.insert(depth.to_string(), cell);
        }
        churn_json.insert(policy.to_string(), policy_json);
    }
    json.insert("cluster_churn", churn_json);

    // ---- Layer 2: EASY protected-head repair ------------------------
    let easy_depth = 96;
    let [(easy_warm_ms, easy_warm), (easy_rebuild_ms, easy_full)] =
        [true, false].map(|incremental| {
            let base = easy_cluster(easy_depth, incremental);
            time_churn(&base, churn_passes(quick, easy_depth), |c| {
                easy_churn(c, easy_depth, 32)
            })
        });
    println!(
        "bench: churn EASY/{easy_depth:<6} warm {easy_warm_ms:>9.2} ms ({} full rebuilds + {} \
         suffix repairs) | rebuild {easy_rebuild_ms:>9.2} ms ({} full rebuilds)",
        easy_warm.recomputes, easy_warm.suffix_repairs, easy_full.recomputes
    );
    assert!(
        easy_warm.recomputes < easy_full.recomputes,
        "EASY must perform strictly fewer full rebuilds with the protected-head repair \
         ({} vs {})",
        easy_warm.recomputes,
        easy_full.recomputes
    );
    assert!(
        easy_warm.suffix_repairs > 0,
        "EASY warm path never repaired"
    );
    assert_eq!(
        easy_full.suffix_repairs, 0,
        "the forced-rebuild baseline must never repair"
    );
    let mut easy_json = grid_ser::Value::object();
    easy_json.insert("depth", easy_depth as u64);
    easy_json.insert("warm_ms", easy_warm_ms);
    easy_json.insert("rebuild_ms", easy_rebuild_ms);
    easy_json.insert("warm_recomputes", easy_warm.recomputes);
    easy_json.insert("warm_suffix_repairs", easy_warm.suffix_repairs);
    easy_json.insert("full_recomputes", easy_full.recomputes);
    json.insert("easy_repair", easy_json);

    // ---- Layer 3: profile backends head to head ---------------------
    let depths = [1_000usize, 10_000, 50_000];
    let iters = |depth: usize| -> usize {
        let base = if quick { 60_000 } else { 300_000 };
        (base / depth).clamp(1, 30)
    };
    let mut tree_ns = Vec::new();
    let mut vec_ns = Vec::new();
    let mut tree_json = grid_ser::Value::object();
    let mut vec_json = grid_ser::Value::object();
    for &depth in &depths {
        let mut t = backend_ns_per_op(TREE, depth, iters(depth));
        let mut v = backend_ns_per_op(FLAT, depth, iters(depth));
        // Head-to-head asserts below gate CI on a shared runner: if a
        // comparison that must hold looks inverted, re-measure once
        // before believing it — min-of-passes absorbs spikes inside a
        // measurement, this absorbs a spike spanning one.
        if depth >= 10_000 && t >= v {
            t = t.min(backend_ns_per_op(TREE, depth, iters(depth)));
            v = v.min(backend_ns_per_op(FLAT, depth, iters(depth)));
        }
        println!(
            "bench: profile-backend/{depth:<6} tree {t:>10.1} ns/op | vec {v:>12.1} ns/op \
             ({:.1}x)",
            v / t.max(f64::MIN_POSITIVE)
        );
        tree_json.insert(depth.to_string(), t);
        vec_json.insert(depth.to_string(), v);
        tree_ns.push(t);
        vec_ns.push(v);
    }
    assert!(
        tree_ns[1] < vec_ns[1],
        "tree backend must beat the Vec backend at 10k-deep timelines \
         ({:.1} vs {:.1} ns/op)",
        tree_ns[1],
        vec_ns[1]
    );
    assert!(
        tree_ns[2] < vec_ns[2],
        "tree backend must beat the Vec backend at 50k-deep timelines \
         ({:.1} vs {:.1} ns/op)",
        tree_ns[2],
        vec_ns[2]
    );
    // Sub-linear scaling: per-op cost may grow far slower than the
    // timeline (10x and 5x size steps; log-factor growth expected, wide
    // margins against timer noise).
    assert!(
        tree_ns[1] < tree_ns[0] * 8.0,
        "tree per-op cost must scale sub-linearly 1k->10k ({:.1} vs {:.1} ns/op)",
        tree_ns[0],
        tree_ns[1]
    );
    assert!(
        tree_ns[2] < tree_ns[1] * 4.0,
        "tree per-op cost must scale sub-linearly 10k->50k ({:.1} vs {:.1} ns/op)",
        tree_ns[1],
        tree_ns[2]
    );
    let mut backend_json = grid_ser::Value::object();
    backend_json.insert("tree", tree_json);
    backend_json.insert("vec", vec_json);
    json.insert("profile_backend_ns_per_op", backend_json);

    grid_bench::write("sched", json);
}
