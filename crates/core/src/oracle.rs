//! Test-only exhaustive oracle for the offline heuristics, and the
//! differential test pinning the pruned selection to it.
//!
//! The oracle is the literal reading of §2.2.2: every decision re-reads
//! every remaining job's exact ECTs — a full row of fresh estimates per
//! job — and takes the arg-best, the earliest-submitted job on ties. The
//! production orderings must pick the same jobs in the same order while
//! re-probing far less (see `EctView::select`).

use std::sync::Mutex;

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, EctNoise, JobSpec};
use grid_des::{SimRng, SimTime};

use crate::ect::EctView;
use crate::heuristics::{Heuristic, OrderingHeuristic};
use crate::realloc::{run_tick, ReallocAlgorithm, ReallocConfig, TickReport};

/// Index minimising (or maximising) `key`, first index on ties.
fn arg_best(alive: &[usize], mut key: impl FnMut(usize) -> i128, maximise: bool) -> Option<usize> {
    let mut best: Option<(i128, usize)> = None;
    for &i in alive {
        let v = key(i);
        let better = match best {
            None => true,
            Some((bv, _)) => {
                if maximise {
                    v > bv
                } else {
                    v < bv
                }
            }
        };
        if better {
            best = Some((v, i));
        }
    }
    best.map(|(_, i)| i)
}

/// Current ECT minus the best target ECT, from a full exact row
/// (`i128::MIN` with no target).
fn gain(view: &mut EctView<'_>, i: usize) -> i128 {
    let cur = i128::from(view.cur_ect(i).as_secs());
    view.exhaustive_target(i)
        .map_or(i128::MIN, |e| cur - i128::from(e.as_secs()))
}

/// The exhaustive re-ranking of each paper ordering.
#[derive(Debug)]
enum Oracle {
    Mct,
    MinMin,
    MaxMin,
    MaxGain,
    MaxRelGain,
    Sufferage(usize),
}

impl OrderingHeuristic for Oracle {
    fn label(&self) -> &'static str {
        "Oracle"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        let alive: Vec<usize> = view.alive_indices().collect();
        let best_ect = |view: &mut EctView<'_>, i| i128::from(view.best_ect(i).as_secs());
        match *self {
            Oracle::Mct => alive.first().copied(),
            Oracle::MinMin => arg_best(&alive, |i| best_ect(view, i), false),
            Oracle::MaxMin => arg_best(&alive, |i| best_ect(view, i), true),
            Oracle::MaxGain => arg_best(&alive, |i| gain(view, i), true),
            Oracle::MaxRelGain => arg_best(
                &alive,
                |i| {
                    let g = gain(view, i);
                    if g == i128::MIN {
                        return i128::MIN;
                    }
                    (g << 20) / i128::from(view.jobs()[i].spec.procs.max(1))
                },
                true,
            ),
            Oracle::Sufferage(rank) => arg_best(
                &alive,
                |i| {
                    let options = view.ect_options(i);
                    match (options.first(), options.get(rank)) {
                        (Some(best), Some(alt)) => i128::from(alt.as_secs() - best.as_secs()),
                        _ => i128::MIN,
                    }
                },
                true,
            ),
        }
    }
}

/// An ordering that logs every pick it makes.
#[derive(Debug)]
struct Logged {
    inner: &'static dyn OrderingHeuristic,
    picks: Mutex<Vec<usize>>,
}

impl Logged {
    fn leak(inner: &'static dyn OrderingHeuristic) -> &'static Logged {
        Box::leak(Box::new(Logged {
            inner,
            picks: Mutex::new(Vec::new()),
        }))
    }

    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut self.picks.lock().unwrap())
    }
}

impl OrderingHeuristic for Logged {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn is_offline(&self) -> bool {
        self.inner.is_offline()
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        let pick = self.inner.select(view);
        self.picks.lock().unwrap().extend(pick);
        pick
    }
}

const NOW: SimTime = SimTime(1_000);

/// A random grid at `NOW`: one to four sites under random policies, each
/// fully busy until a random horizon, with up to 24 waiting jobs of
/// random shape spread over the sites that fit them (half on site 0 when
/// it fits). With `noisy`, every site perturbs its estimates.
fn random_grid(seed: u64, noisy: bool) -> Vec<Cluster> {
    let mut rng = SimRng::seed_from_u64(seed);
    let policies = [
        BatchPolicy::Fcfs,
        BatchPolicy::Cbf,
        BatchPolicy::Easy,
        BatchPolicy::EasySjf,
    ];
    let sites = rng.gen_range(1..=4usize);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|s| {
            let procs = rng.gen_range(4..=32u32);
            let speed = 1.0 + 0.25 * rng.gen_range(0..4u32) as f64;
            let policy = policies[rng.gen_range(0..policies.len())];
            let mut c = Cluster::new(ClusterSpec::new(format!("s{s}"), procs, speed), policy);
            if noisy {
                c.set_ect_noise(Some(EctNoise::new(seed ^ s as u64, 0.4)));
            }
            // Busy past `NOW` at any speed (walltimes scale with it).
            let horizon = rng.gen_range(1..3_000u64) + 2 * NOW.as_secs();
            c.submit(
                JobSpec::new(1_000 + s as u64, 0, procs, horizon, horizon),
                SimTime(0),
            )
            .unwrap();
            c.start_due(SimTime(0));
            c
        })
        .collect();
    let max_procs = clusters.iter().map(|c| c.spec().procs).max().unwrap();
    let waiting = rng.gen_range(0..=24u64);
    for id in 0..waiting {
        let procs = rng.gen_range(1..=max_procs);
        let runtime = rng.gen_range(10..2_000u64);
        let walltime = runtime + rng.gen_range(0..1_000u64);
        let fits: Vec<usize> = (0..sites)
            .filter(|&s| clusters[s].spec().procs >= procs)
            .collect();
        let site = if fits[0] == 0 && rng.gen_bool(0.5) {
            0
        } else {
            fits[rng.gen_range(0..fits.len())]
        };
        let submit = SimTime(id * 40);
        clusters[site]
            .submit(
                JobSpec::new(id, submit.as_secs(), procs, runtime, walltime),
                submit,
            )
            .unwrap();
    }
    clusters
}

/// Everything a tick left behind: each site's queue (ids and
/// reservations, schedule forced clean) and running set.
fn final_state(clusters: &mut [Cluster]) -> Vec<Vec<(u64, SimTime)>> {
    clusters
        .iter_mut()
        .map(|c| {
            c.next_reservation(NOW);
            let mut state: Vec<(u64, SimTime)> = c
                .waiting_jobs()
                .map(|q| (q.job.id.0, q.reserved_start))
                .collect();
            state.extend(c.running_jobs().map(|r| (r.job.id.0, r.start)));
            state
        })
        .collect()
}

/// What one tick did: its picks, then either its report and final state,
/// or the panic that stopped it.
type Outcome = (
    Vec<usize>,
    Result<(TickReport, Vec<Vec<(u64, SimTime)>>), String>,
);

/// One tick under `order`. EASY-family estimates can break the §6
/// contract even without noise (aggressive back-filling may place a job
/// elsewhere than its dry run did), which the contract check's debug
/// assertion turns into a panic — so a panic is an outcome too, and both
/// sides must hit it at the same pick.
fn run(grid: &[Cluster], algorithm: ReallocAlgorithm, order: &'static Logged) -> Outcome {
    let mut clusters = grid.to_vec();
    let cfg = ReallocConfig::new(algorithm, Heuristic::wrap(order));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let report = run_tick(&mut clusters, &cfg, NOW);
        (report, final_state(&mut clusters))
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_string())
    });
    (order.take(), result)
}

/// Every paper ordering, plus `Sufferage(rank=2)`, next to its
/// exhaustive oracle, both logging their picks.
fn logged_pairs() -> Vec<(&'static Logged, &'static Logged)> {
    let sufferage2 = Heuristic::resolve_expr("Sufferage(rank=2)").unwrap();
    [
        (Heuristic::Mct, Oracle::Mct),
        (Heuristic::MinMin, Oracle::MinMin),
        (Heuristic::MaxMin, Oracle::MaxMin),
        (Heuristic::MaxGain, Oracle::MaxGain),
        (Heuristic::MaxRelGain, Oracle::MaxRelGain),
        (Heuristic::Sufferage, Oracle::Sufferage(1)),
        (sufferage2, Oracle::Sufferage(2)),
    ]
    .into_iter()
    .map(|(h, oracle)| {
        let oracle: &'static Oracle = Box::leak(Box::new(oracle));
        (Logged::leak(h.order()), Logged::leak(oracle))
    })
    .collect()
}

/// Both paper algorithms and the load-threshold trigger.
const ALGORITHMS: [ReallocAlgorithm; 3] = [
    ReallocAlgorithm::NoCancel,
    ReallocAlgorithm::CancelAll,
    ReallocAlgorithm::LoadThreshold,
];

/// Tally of [`assert_matches_oracle`] runs.
#[derive(Debug, Default)]
struct Tally {
    ticks: usize,
    completed: usize,
    migrations: usize,
}

/// One tick of every ordering under every algorithm on `grid`, each
/// asserted equal to its oracle's tick.
fn assert_matches_oracle(
    grid: &[Cluster],
    what: &str,
    pairs: &[(&'static Logged, &'static Logged)],
    tally: &mut Tally,
) {
    for algorithm in ALGORITHMS {
        for &(indexed, oracle) in pairs {
            let got = run(grid, algorithm, indexed);
            let want = run(grid, algorithm, oracle);
            assert_eq!(got, want, "{what}, {algorithm}, {}", indexed.inner.label());
            tally.ticks += 1;
            if let Ok((report, _)) = &got.1 {
                tally.completed += 1;
                tally.migrations += report.migrations.len();
            }
        }
    }
}

/// The indexed, cache-driven orderings pick exactly what the exhaustive
/// oracle picks — same order, same tick report, same final queues and
/// reservations — on random grids mixing FCFS, CBF, EASY and EASY-SJF
/// sites, with and without ECT noise, under both paper algorithms and
/// the load-threshold trigger.
#[test]
fn pruned_selection_matches_exhaustive_oracle() {
    let pairs = logged_pairs();
    let mut tally = Tally::default();
    for seed in 0..200u64 {
        let grid = random_grid(seed, seed % 2 == 1);
        assert_matches_oracle(&grid, &format!("seed {seed}"), &pairs, &mut tally);
    }
    let Tally {
        ticks,
        completed,
        migrations,
    } = tally;
    assert!(
        migrations > 1_000,
        "grids exercise migrations ({migrations})"
    );
    assert!(
        completed * 5 > ticks * 4,
        "{completed} of {ticks} ticks completed"
    );
}

/// A wide random grid at `NOW`: five to nine sites under random
/// policies, each fully busy until a random horizon, with 100 to 300
/// waiting jobs of six shapes spread over the sites (half on site 0).
/// Jobs of one shape queued on one site share every estimate, so equal
/// scores — and the index's earliest-submitted tie-break — are common.
/// With `noisy`, every site perturbs its estimates.
fn wide_grid(seed: u64, noisy: bool) -> Vec<Cluster> {
    const SHAPES: [(u32, u64); 6] = [
        (1, 600),
        (2, 600),
        (4, 1_200),
        (8, 600),
        (8, 3_600),
        (16, 1_200),
    ];
    let mut rng = SimRng::seed_from_u64(seed);
    let policies = [
        BatchPolicy::Fcfs,
        BatchPolicy::Cbf,
        BatchPolicy::Easy,
        BatchPolicy::EasySjf,
    ];
    let sites = rng.gen_range(5..=9usize);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|s| {
            let procs = 16 << rng.gen_range(0..3u32);
            let speed = 1.0 + 0.25 * rng.gen_range(0..2u32) as f64;
            let policy = policies[rng.gen_range(0..policies.len())];
            let mut c = Cluster::new(ClusterSpec::new(format!("s{s}"), procs, speed), policy);
            if noisy {
                c.set_ect_noise(Some(EctNoise::new(seed ^ s as u64, 0.4)));
            }
            let horizon = rng.gen_range(1..3_000u64) + 2 * NOW.as_secs();
            c.submit(
                JobSpec::new(1_000 + s as u64, 0, procs, horizon, horizon),
                SimTime(0),
            )
            .unwrap();
            c.start_due(SimTime(0));
            c
        })
        .collect();
    let waiting = rng.gen_range(100..=300u64);
    for id in 0..waiting {
        let (procs, walltime) = SHAPES[rng.gen_range(0..SHAPES.len())];
        let site = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0..sites)
        };
        let submit = SimTime(id * 3);
        clusters[site]
            .submit(
                JobSpec::new(id, submit.as_secs(), procs, walltime, walltime),
                submit,
            )
            .unwrap();
    }
    clusters
}

/// The differential above on wide grids: more sites and an order of
/// magnitude more waiting jobs, with few distinct job shapes, so ties
/// between equal scores are decided by the index's tie-break.
#[test]
fn pruned_selection_matches_exhaustive_oracle_on_wide_grids() {
    let pairs = logged_pairs();
    let mut tally = Tally::default();
    for seed in 0..4u64 {
        let grid = wide_grid(seed, seed % 2 == 1);
        assert_matches_oracle(&grid, &format!("wide seed {seed}"), &pairs, &mut tally);
    }
    eprintln!("{tally:?}");
    assert!(tally.migrations > 1_000, "{tally:?}");
    assert!(tally.completed * 2 > tally.ticks, "{tally:?}");
}

/// An all-FCFS grid at `NOW`: three to nine sites, each running one to
/// three jobs of random width until random horizons past `NOW` — so its
/// free counts climb in several steps — with 40 to 120 waiting jobs of
/// five shapes queued at `NOW` over the sites (half on site 0). Every column of a
/// round on it is closed, so every change is walked. With `noisy`, every
/// site perturbs its estimates.
fn fcfs_grid(seed: u64, noisy: bool) -> Vec<Cluster> {
    const SHAPES: [(u32, u64); 5] = [(1, 600), (2, 600), (4, 1_200), (8, 600), (16, 1_200)];
    let mut rng = SimRng::seed_from_u64(seed);
    let sites = rng.gen_range(3..=9usize);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|s| {
            let procs = 16 << rng.gen_range(0..3u32);
            let speed = 1.0 + 0.25 * rng.gen_range(0..2u32) as f64;
            let spec = ClusterSpec::new(format!("s{s}"), procs, speed);
            let mut c = Cluster::new(spec, BatchPolicy::Fcfs);
            if noisy {
                c.set_ect_noise(Some(EctNoise::new(seed ^ s as u64, 0.4)));
            }
            let mut free = procs;
            for r in 0..rng.gen_range(1..=3u64) {
                let width = rng.gen_range(1..=free);
                let horizon = rng.gen_range(1..3_000u64) + 2 * NOW.as_secs();
                let id = 1_000 + 10 * s as u64 + r;
                c.submit(JobSpec::new(id, 0, width, horizon, horizon), SimTime(0))
                    .unwrap();
                free -= width;
                if free == 0 {
                    break;
                }
            }
            c.start_due(SimTime(0));
            c
        })
        .collect();
    for id in 0..rng.gen_range(40..=120u64) {
        let (procs, walltime) = SHAPES[rng.gen_range(0..SHAPES.len())];
        let site = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0..sites)
        };
        // Queued at `NOW`, so no reservation starts before the tick.
        clusters[site]
            .submit(JobSpec::new(id, id * 3, procs, walltime, walltime), NOW)
            .unwrap();
    }
    clusters
}

/// The differential on all-FCFS grids, where every column change is a
/// walk: its early stop, the pivot rule and the antitone top check all
/// decide picks here.
#[test]
fn pruned_selection_matches_exhaustive_oracle_on_fcfs_grids() {
    let pairs = logged_pairs();
    let mut tally = Tally::default();
    for seed in 0..24u64 {
        let grid = fcfs_grid(seed, seed % 2 == 1);
        assert_matches_oracle(&grid, &format!("FCFS seed {seed}"), &pairs, &mut tally);
    }
    eprintln!("{tally:?}");
    assert_eq!(
        tally.completed, tally.ticks,
        "FCFS estimates keep contracts"
    );
    assert!(tally.migrations > 1_000, "{tally:?}");
}
