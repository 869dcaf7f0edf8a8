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
//!    leaves its flat sorted-Vec backend (the differential oracle) on two
//!    release + place churns over 1k/10k/50k/200k-reservation timelines.
//!    The *replace* churn puts each job back where it was, from the
//!    timeline start: no breakpoint moves, the first-fit scan is the
//!    cost, and the flat buffer wins at every depth. The
//!    *insert-heavy* churn re-places each job with a shorter walltime,
//!    so every op inserts or removes a breakpoint: the tree must beat
//!    the Vec there from 50k reservations on, and scale sub-linearly
//!    from 1k→10k→50k on the replace churn.
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

/// The shallowest measured depth (in reservations) at which the tree
/// must beat the flat buffer on the insert-heavy churn.
const TREE_WINS_FROM: usize = 50_000;

/// The width and walltime of seeded reservation `i`.
fn seeded(i: usize) -> (u32, Duration) {
    let procs = (i as u32 % (PROCS / 4).max(1)) + 1;
    (procs, Duration(600 + (i as u64 % 7) * 600))
}

/// Seed `depth` stacked reservations (FCFS-style monotone placement, so
/// seeding stays cheap on both backends) and return the ledger.
fn seed(crossover: usize, depth: usize) -> (Profile, Vec<(SimTime, Duration, u32)>) {
    let mut p = Profile::flat_with_crossover(PROCS, SimTime(0), crossover);
    let mut ledger = Vec::with_capacity(depth);
    let mut after = SimTime(0);
    for i in 0..depth {
        let (procs, dur) = seeded(i);
        let start = p.place(after, dur, procs);
        ledger.push((start, dur, procs));
        after = start;
    }
    (p, ledger)
}

/// Churn rounds per pass; each round is 2 profile ops: release a
/// pseudo-random live reservation, then place its replacement.
const CHURN_ROUNDS: usize = 256;

/// The two churns, by what a replacement does to the breakpoints.
#[derive(Clone, Copy)]
enum Churn {
    /// Same walltime, placed from the timeline start (the CBF placement
    /// shape): the job goes back where it was, so a round moves no
    /// breakpoint and the first-fit scan carries the cost.
    Replace,
    /// A walltime 1–299 s shorter than the seeded one, placed from the
    /// released start: it fits there at once, but it ends on an instant
    /// no other edge uses, so every placement inserts a breakpoint and
    /// every release of a replaced job removes one. The flat buffer
    /// shifts its tail each time; the tree pays O(log n).
    Insert,
}

fn backend_churn(churn: Churn, p: &mut Profile, ledger: &mut [(SimTime, Duration, u32)]) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..CHURN_ROUNDS {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (x >> 16) as usize % ledger.len();
        let (start, dur, procs) = ledger[i];
        p.release(start, dur, procs);
        let (after, dur) = match churn {
            Churn::Replace => (SimTime(0), dur),
            Churn::Insert => (start, seeded(i).1 - Duration(1 + (x >> 40) % 299)),
        };
        let again = p.place(after, dur, procs);
        ledger[i] = (again, dur, procs);
    }
}

/// ns per profile op of `churn` on a `depth`-reservation timeline, taken
/// as the fastest of `iters` passes on fresh clones after one untimed
/// warm-up pass.
fn backend_ns_per_op(churn: Churn, crossover: usize, depth: usize, iters: usize) -> f64 {
    let (p, ledger) = seed(crossover, depth);
    backend_churn(churn, &mut p.clone(), &mut ledger.clone());
    let ms = grid_bench::min_of(
        iters.max(2),
        || (p.clone(), ledger.clone()),
        |(mut p, mut ledger)| {
            backend_churn(churn, &mut p, &mut ledger);
            (p, ledger)
        },
        |(p, _)| {
            black_box(p.first_fit(SimTime(0), Duration(1), 1));
        },
    );
    ms * 1e6 / (CHURN_ROUNDS * 2) as f64
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
    let depths = [1_000usize, 10_000, 50_000, 200_000];
    let iters = |depth: usize| -> usize {
        let base = if quick { 60_000 } else { 300_000 };
        (base / depth).clamp(1, 30)
    };
    let mut ns = Vec::new();
    for (key, churn) in [
        ("profile_backend_ns_per_op", Churn::Replace),
        ("profile_backend_insert_ns_per_op", Churn::Insert),
    ] {
        let mut tree_ns = Vec::new();
        let mut vec_ns = Vec::new();
        let mut tree_json = grid_ser::Value::object();
        let mut vec_json = grid_ser::Value::object();
        for &depth in &depths {
            let mut t = backend_ns_per_op(churn, TREE, depth, iters(depth));
            let mut v = backend_ns_per_op(churn, FLAT, depth, iters(depth));
            // The head-to-head assert below gates CI on a shared runner:
            // if the comparison that must hold looks inverted, re-measure
            // once before believing it — min-of-passes absorbs spikes
            // inside a measurement, this absorbs a spike spanning one.
            if matches!(churn, Churn::Insert) && depth >= TREE_WINS_FROM && t >= v {
                t = t.min(backend_ns_per_op(churn, TREE, depth, iters(depth)));
                v = v.min(backend_ns_per_op(churn, FLAT, depth, iters(depth)));
            }
            println!(
                "bench: {key}/{depth:<6} tree {t:>10.1} ns/op | vec {v:>10.1} ns/op ({:.2}x)",
                v / t.max(f64::MIN_POSITIVE)
            );
            tree_json.insert(depth.to_string(), t);
            vec_json.insert(depth.to_string(), v);
            tree_ns.push(t);
            vec_ns.push(v);
        }
        let mut backend_json = grid_ser::Value::object();
        backend_json.insert("tree", tree_json);
        backend_json.insert("vec", vec_json);
        json.insert(key, backend_json);
        ns.push((tree_ns, vec_ns));
    }
    // The crossover counts breakpoints, the depths reservations.
    let mut breakpoints_json = grid_ser::Value::object();
    for &depth in &depths {
        let breakpoints = seed(FLAT, depth).0.len();
        println!("bench: profile_backend_breakpoints/{depth:<6} {breakpoints}");
        breakpoints_json.insert(depth.to_string(), breakpoints as u64);
    }
    json.insert("profile_backend_breakpoints", breakpoints_json);
    let [(tree_ns, _), (tree_insert_ns, vec_insert_ns)] = &ns[..] else {
        unreachable!("two churns")
    };
    // Where the flat buffer must shift its tail on every op, the tree's
    // O(log n) mutations win at depth. (On the replace churn both
    // backends are bound by the first-fit scan and the flat buffer stays
    // ahead at every measured depth.)
    for ((&depth, t), v) in depths.iter().zip(tree_insert_ns).zip(vec_insert_ns) {
        assert!(
            depth < TREE_WINS_FROM || t < v,
            "tree backend must beat the Vec backend on the insert-heavy churn at \
             {depth}-deep timelines ({t:.1} vs {v:.1} ns/op)"
        );
    }
    // Sub-linear scaling: per-op cost may grow far slower than the
    // timeline (10x and 5x size steps; wide margins against timer noise).
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

    grid_bench::write("sched", json);
}
