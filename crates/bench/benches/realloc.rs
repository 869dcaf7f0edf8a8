//! `realloc` — the reallocation-round perf contract.
//!
//! The workload drives single reallocation ticks over grids of 3/6/9
//! sites with 128/512/2048 waiting jobs, under both paper algorithms
//! and representative heuristics, and times each tick.
//!
//! Every layer's outcome — migrations, report counters, final queue
//! contents and reservations, hashed — must equal the digest the
//! engine produced before the incremental selection landed
//! ([`PINNED`]), so every optimisation of the tick stays byte-identical
//! without keeping the engine it replaced alive in this binary.
//!
//! Each layer's row also records what the tick cost in the batch layer
//! beneath it: first-fit probes, ECT column refills, snapshot reuses,
//! full recomputes and suffix repairs, counted during the tick.
//!
//! Timings are the minimum of the measured passes ([`grid_bench::min_of`]).
//! `BENCH_QUICK=1` shrinks the workload (depths 128/512, one pass);
//! byte-identity is enforced at every layer that runs. Results land in
//! `BENCH_realloc.json`.

use grid_batch::{BatchPolicy, Cluster, ClusterSpec, JobSpec};
use grid_des::SimTime;
use grid_realloc::realloc::{run_tick, ReallocConfig, TickReport};
use grid_realloc::{Heuristic, ReallocAlgorithm};

/// Outcome digest per `(sites, depth, config)` layer, as the
/// full-re-ranking engine computed them.
const PINNED: &[(usize, usize, &str, u64)] = &[
    (3, 128, "no-cancel/MCT", 0xd42ec608496ab103),
    (3, 128, "no-cancel/MinMin", 0xe85b8053f32e5ed6),
    (3, 128, "cancel-all/MinMin", 0xb25b34ce4ff8f01b),
    (3, 128, "cancel-all/MaxMin", 0x8cec1b0e21f6fa90),
    (3, 128, "cancel-all/Sufferage", 0x2bbc95cc6fe06b94),
    (6, 128, "no-cancel/MCT", 0x6d83d56a604ba038),
    (6, 128, "no-cancel/MinMin", 0xe8746b32bed3a10a),
    (6, 128, "cancel-all/MinMin", 0xe09a5cc2ab023326),
    (6, 128, "cancel-all/MaxMin", 0x3e3d219e66ce2267),
    (6, 128, "cancel-all/Sufferage", 0x8a83789dd9782b96),
    (9, 128, "no-cancel/MCT", 0x81231423b5d54238),
    (9, 128, "no-cancel/MinMin", 0x44b7622c7d055685),
    (9, 128, "cancel-all/MinMin", 0xf0c67319ee3fdfac),
    (9, 128, "cancel-all/MaxMin", 0x868b6fb66928df64),
    (9, 128, "cancel-all/Sufferage", 0xd8fb793960f485a4),
    (3, 512, "no-cancel/MCT", 0x78632a306acec43f),
    (3, 512, "no-cancel/MinMin", 0x2e932ab82047e511),
    (3, 512, "cancel-all/MinMin", 0xfb5eb017cb468e09),
    (3, 512, "cancel-all/MaxMin", 0x093172b08bfdfb05),
    (3, 512, "cancel-all/Sufferage", 0xca1e1cccb5c2ec3a),
    (6, 512, "no-cancel/MCT", 0x439e91aac7efaea3),
    (6, 512, "no-cancel/MinMin", 0x578fa5fb90edf255),
    (6, 512, "cancel-all/MinMin", 0x353a232dac293f48),
    (6, 512, "cancel-all/MaxMin", 0x82c4a3868984a71d),
    (6, 512, "cancel-all/Sufferage", 0xf7d68938ceea2982),
    (9, 512, "no-cancel/MCT", 0xa7b00c47f3ad26cd),
    (9, 512, "no-cancel/MinMin", 0x942bcd9324a541bf),
    (9, 512, "cancel-all/MinMin", 0xe03b30177dba46a1),
    (9, 512, "cancel-all/MaxMin", 0xca3b32255fae3012),
    (9, 512, "cancel-all/Sufferage", 0x77df7050bca04c12),
    (3, 2048, "no-cancel/MCT", 0x73944006f999c522),
    (3, 2048, "no-cancel/MinMin", 0xd9e4596320907fb6),
    (3, 2048, "cancel-all/MinMin", 0xed6e967de4c7ab56),
    (3, 2048, "cancel-all/MaxMin", 0xb12df072d12e8bf7),
    (3, 2048, "cancel-all/Sufferage", 0x660a1ba63d428b5d),
    (6, 2048, "no-cancel/MCT", 0xcf6bcddbe9f52fa1),
    (6, 2048, "no-cancel/MinMin", 0x6113fbf41206f04c),
    (6, 2048, "cancel-all/MinMin", 0xb806508f7d1ad3f7),
    (6, 2048, "cancel-all/MaxMin", 0xb1345581c68088af),
    (6, 2048, "cancel-all/Sufferage", 0x1d92ff784891cfec),
    (9, 2048, "no-cancel/MCT", 0xdfe7f03c84c7e948),
    (9, 2048, "no-cancel/MinMin", 0xcf2ce776d116d3cc),
    (9, 2048, "cancel-all/MinMin", 0x66ee7be7017ddd92),
    (9, 2048, "cancel-all/MaxMin", 0x707b49425348e28b),
    (9, 2048, "cancel-all/Sufferage", 0xcce90f77ec7bf21b),
];

/// Every grid is frozen (all sites fully busy) until well past this
/// instant, so no reservation can be missed when the tick fires.
const NOW: SimTime = SimTime(3_000);

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

/// A grid in the state that makes a reallocation round do real work:
/// every site fully occupied by a running head job with staggered
/// recovery horizons (so ECT gradients exist), and a waiting queue
/// skewed onto site 0 (half the jobs) with the rest spread around.
/// All sites run FCFS — its tail floor is a max-scan over every queued
/// reservation, so the historical path pays O(queue) per dry-run
/// estimate while the batched column fill computes the floor once and
/// threads the shared dominance frontier through the rest.
fn grid(sites: usize, depth: usize) -> Vec<Cluster> {
    let mut rng = Lcg(0x5EED_CAFE ^ ((sites as u64) << 32) ^ depth as u64);
    let mut clusters: Vec<Cluster> = (0..sites)
        .map(|i| {
            // Heterogeneous grid with one big fast site: placements
            // concentrate there, so its queue — and the per-estimate
            // FCFS floor scan the historical path keeps re-paying on
            // the hottest column — grows with the round.
            let (procs, speed) = if i == 0 {
                (256, 2.0)
            } else {
                (128 + (i as u32 % 3) * 32, 1.0 + (i % 4) as f64 * 0.15)
            };
            Cluster::new(
                ClusterSpec::new(format!("site{i}"), procs, speed),
                BatchPolicy::Fcfs,
            )
        })
        .collect();
    for (i, c) in clusters.iter_mut().enumerate() {
        let procs = c.spec().procs;
        let horizon = 5_000 + (i as u64) * 1_500;
        c.submit(
            JobSpec::new(9_000_000 + i as u64, 0, procs, horizon, horizon + 1_000),
            SimTime(0),
        )
        .unwrap();
        c.start_due(SimTime(0));
    }
    for id in 0..depth as u64 {
        let procs = (rng.next() % 48 + 1) as u32;
        let runtime = 300 + rng.next() % 2_400;
        let walltime = runtime + runtime / 4 + rng.next() % runtime;
        let site = if id % 2 == 0 {
            0
        } else {
            1 + (rng.next() as usize % (sites - 1))
        };
        clusters[site]
            .submit(JobSpec::new(id, id, procs, runtime, walltime), SimTime(id))
            .unwrap();
    }
    clusters
}

/// FNV-1a over everything the tick decided and everything it left
/// behind: the migration sequence, the report counters, and each
/// cluster's final queue (ids and reservations, schedule forced clean)
/// and running set.
fn state_digest(clusters: &mut [Cluster], report: &TickReport, now: SimTime) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for m in &report.migrations {
        mix(m.job.0);
        mix(m.from as u64);
        mix(m.to as u64);
    }
    mix(report.examined as u64);
    mix(report.attempted as u64);
    mix(report.rejected as u64);
    mix(report.contract_violations as u64);
    for c in clusters {
        // Outside the timed region; forces the schedule clean so the
        // reservations below are the ones the next event would see.
        c.next_reservation(now);
        for q in c.waiting_jobs() {
            mix(q.job.id.0);
            mix(q.reserved_start.as_secs());
        }
        for r in c.running_jobs() {
            mix(r.job.id.0);
        }
    }
    h
}

/// The batch-layer counters a layer's row records, summed over the grid:
/// first-fit probes, ECT column refills, snapshot reuses, recomputes and
/// suffix repairs.
const COUNTERS: [&str; 5] = [
    "first_fit_probes",
    "ect_column_refills",
    "ect_snapshot_reuses",
    "recomputes",
    "suffix_repairs",
];

fn counters(clusters: &[Cluster]) -> [u64; 5] {
    let mut sums = [0; 5];
    for c in clusters {
        let s = c.stats();
        let row = [
            s.first_fit_probes,
            s.ect_column_refills,
            s.ect_snapshot_reuses,
            s.recomputes,
            s.suffix_repairs,
        ];
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
    }
    sums
}

fn main() {
    let quick = grid_bench::quick();
    let passes = if quick { 1 } else { 3 };
    let depths: &[usize] = if quick {
        &[128, 512]
    } else {
        &[128, 512, 2048]
    };
    let sites: &[usize] = &[3, 6, 9];
    let configs = [
        (
            "no-cancel/MCT",
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct),
        ),
        (
            "no-cancel/MinMin",
            ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::MinMin),
        ),
        (
            "cancel-all/MinMin",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin),
        ),
        (
            "cancel-all/MaxMin",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MaxMin),
        ),
        (
            "cancel-all/Sufferage",
            ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::Sufferage),
        ),
    ];

    let mut json = grid_ser::Value::object();
    let mut layers = Vec::new();
    let mut totals: std::collections::BTreeMap<usize, f64> = Default::default();

    for &depth in depths {
        for &s in sites {
            let g = grid(s, depth);
            let before = counters(&g);
            for (name, cfg) in &configs {
                let pinned = PINNED
                    .iter()
                    .find(|&&(ps, pd, pc, _)| (ps, pd, pc) == (s, depth, *name))
                    .map(|&(_, _, _, d)| d)
                    .expect("every layer has a pinned digest");
                let mut during = [0; 5];
                let ms = grid_bench::min_of(
                    passes,
                    || g.clone(),
                    |mut g| {
                        let report = run_tick(&mut g, cfg, NOW);
                        (g, report)
                    },
                    |(mut g, report)| {
                        // Read before the digest, whose schedule queries
                        // count too.
                        let after = counters(&g);
                        for ((d, a), b) in during.iter_mut().zip(after).zip(before) {
                            *d = a - b;
                        }
                        assert_eq!(
                            state_digest(&mut g, &report, NOW),
                            pinned,
                            "tick changed the answer: {s} sites, {depth} jobs, {name}"
                        );
                    },
                );
                println!("bench: realloc {s} sites x {depth:>4} jobs {name:<20} {ms:>8.2} ms");
                *totals.entry(depth).or_insert(0.0) += ms;
                let mut layer = grid_ser::Value::object();
                layer.insert("sites", s as u64);
                layer.insert("depth", depth as u64);
                layer.insert("config", *name);
                layer.insert("tick_ms", ms);
                layer.insert("digest", format!("{pinned:016x}"));
                for (key, v) in COUNTERS.iter().zip(during) {
                    layer.insert(*key, v);
                }
                layers.push(layer);
            }
        }
    }
    json.insert("layers", layers);

    let mut total = grid_ser::Value::object();
    for (&depth, &ms) in &totals {
        println!("bench: realloc depth {depth:>4} total {ms:>8.2} ms");
        total.insert(format!("depth_{depth}"), ms);
    }
    json.insert("totals_ms", total);
    grid_bench::write("realloc", json);
}
