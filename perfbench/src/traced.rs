//! The traced run. Every resolved unit is simulated again through
//! `simulate_observed` with a recording `Obs`, which yields the engine's
//! own `sim.run`, `phase.*` and `realloc.tick` spans and its counters.
//! The layers the executors hide are then replayed on the same inputs,
//! each timed from outside around one public call.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use grid_batch::ClusterStats;
use grid_campaign::exec::simulate_observed;
use grid_campaign::{Claim, LeaseDir, ResultCache, RunKind, RunRecord, RunUnit};
use grid_metrics::RunOutcome;
use grid_obs::Obs;
use grid_realloc::experiments::platform_for;
use grid_realloc::{GridConfig, GridSim};

use crate::sha256::Sha256;
use crate::stats::{ratio, self_time};

/// The child spans of `sim.run`: one per event-loop phase.
pub const PHASES: [&str; 5] = [
    "phase.completions",
    "phase.arrivals",
    "phase.outages",
    "phase.realloc",
    "phase.start_due",
];

/// One unit's traced simulation.
pub struct TracedRun {
    /// Plan index.
    pub index: usize,
    /// Wall time of the traced `simulate_observed` call.
    pub wall_ms: f64,
    /// Wall time of an untraced `simulate_observed` call made just before
    /// it on the same thread, so the pair sees the same host.
    pub plain_ms: f64,
    /// The outcome, which must equal the untraced one.
    pub outcome: RunOutcome,
    /// Span totals by name, ms.
    pub span_ms: BTreeMap<&'static str, f64>,
    /// Recorder counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-site scheduler counters.
    pub sites: Vec<ClusterStats>,
    /// Event-queue overflow spills.
    pub bucket_spills: u64,
}

impl TracedRun {
    /// A span's total, ms (0 when it never opened).
    pub fn span(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0)
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Event-loop self time: `sim.run` minus its phase spans.
    pub fn self_ms(&self) -> f64 {
        let phases: Vec<f64> = PHASES.iter().map(|p| self.span(p)).collect();
        self_time(self.span("sim.run"), &phases)
    }
}

/// Simulate `units[i]` without and then with tracing for every `i` in
/// `order`, on `workers` threads pulling from a shared cursor like the
/// executor's.
/// Returns the runs in plan order and the labels of units that panicked.
pub fn trace(units: &[RunUnit], order: &[usize], workers: usize) -> (Vec<TracedRun>, Vec<String>) {
    let cursor = AtomicUsize::new(0);
    let results: Vec<(usize, Option<TracedRun>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        local.push((
                            i,
                            catch_unwind(AssertUnwindSafe(|| trace_one(&units[i], i))).ok(),
                        ));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("traced workers catch unit panics"))
            .collect()
    });
    let mut runs = Vec::new();
    let mut failed = Vec::new();
    for (i, run) in results {
        match run {
            Some(run) => runs.push(run),
            None => failed.push(units[i].label()),
        }
    }
    runs.sort_by_key(|r| r.index);
    (runs, failed)
}

fn trace_one(unit: &RunUnit, index: usize) -> TracedRun {
    let t = Instant::now();
    std::hint::black_box(simulate_observed(unit, &Obs::disabled()));
    let plain_ms = ms_since(t);
    let obs = Obs::enabled();
    let t = Instant::now();
    let (outcome, sites, grid) = simulate_observed(unit, &obs);
    let wall_ms = ms_since(t);
    let recorder = obs.snapshot().expect("an enabled handle records");
    TracedRun {
        index,
        wall_ms,
        plain_ms,
        outcome,
        span_ms: recorder
            .spans()
            .iter()
            .map(|(&name, s)| (name, s.total_ns as f64 / 1e6))
            .collect(),
        counters: recorder.counters().collect(),
        sites,
        bucket_spills: grid.queue_bucket_spills,
    }
}

/// Outside-in timings of the layers the executors hide, replayed on the
/// traced runs' inputs and outputs. Times are totals over the runs, ms.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Scenario::generate_fraction`.
    pub generate_ms: f64,
    /// Jobs generated.
    pub jobs: usize,
    /// `GridSim::new`.
    pub build_ms: f64,
    /// `RunRecord::encode`.
    pub encode_ms: f64,
    /// `RunRecord::decode`.
    pub decode_ms: f64,
    /// `ResultCache::store`.
    pub store_ms: f64,
    /// `ResultCache::load`.
    pub load_ms: f64,
    /// `LeaseDir::try_claim` plus `release`.
    pub claim_ms: f64,
    /// SHA-256 over the encoded records, in plan order: equals the plain
    /// drain's read-back digest when tracing changed no outcome.
    pub digest: String,
    /// Failed checks.
    pub problems: Vec<String>,
}

/// Replay the hidden layers for every traced run, storing records and
/// leases in the scratch cache `scratch`.
pub fn replay(
    units: &[RunUnit],
    runs: &[TracedRun],
    scratch: &ResultCache,
) -> Result<Replay, String> {
    let leases = LeaseDir::open(scratch).map_err(|e| format!("lease dir: {e}"))?;
    let mut r = Replay::default();
    let mut digest = Sha256::default();
    for run in runs {
        let unit = &units[run.index];
        let label = unit.label();

        let t = Instant::now();
        let mut jobs = unit.scenario.generate_fraction(unit.seed, unit.fraction);
        r.generate_ms += ms_since(t);
        r.jobs += jobs.len();
        if jobs.len() != run.outcome.len() {
            r.problems.push(format!(
                "{label}: {} of {} jobs completed",
                run.outcome.len(),
                jobs.len()
            ));
        }
        if let Some(perturb) = &unit.fault.config().perturb {
            perturb.apply(&mut jobs, unit.seed);
        }
        let config = sim_config(unit);
        let t = Instant::now();
        let sim = GridSim::new(config, jobs);
        r.build_ms += ms_since(t);
        drop(sim);

        let record = RunRecord::new(unit, run.outcome.clone());
        let t = Instant::now();
        let text = record.encode();
        r.encode_ms += ms_since(t);
        digest.update(text.as_bytes());
        let t = Instant::now();
        let decoded = RunRecord::decode(&text);
        r.decode_ms += ms_since(t);
        if let Err(e) = decoded {
            r.problems
                .push(format!("{label}: record does not decode: {e}"));
        }

        let t = Instant::now();
        scratch
            .store(unit, &record)
            .map_err(|e| format!("{label}: store: {e}"))?;
        r.store_ms += ms_since(t);
        let t = Instant::now();
        let loaded = scratch.load(unit);
        r.load_ms += ms_since(t);
        if loaded.is_none() {
            r.problems
                .push(format!("{label}: stored record does not load"));
        }

        let key = ResultCache::key(unit);
        let t = Instant::now();
        let claim = leases
            .try_claim(&key, &label, "perfbench", 600)
            .map_err(|e| format!("{label}: claim: {e}"))?;
        leases.release(&key);
        r.claim_ms += ms_since(t);
        if !matches!(claim, Claim::Claimed { .. }) {
            r.problems.push(format!("{label}: fresh lease not claimed"));
        }
    }
    r.digest = digest.hex();
    Ok(r)
}

/// The simulator configuration `simulate_observed` builds for `unit`.
fn sim_config(unit: &RunUnit) -> GridConfig {
    let config = GridConfig::new(platform_for(unit.scenario, unit.heterogeneous), unit.policy)
        .with_seed(unit.seed)
        .with_fault(unit.fault);
    match unit.kind {
        RunKind::Reference => config,
        RunKind::Realloc(setting) => config.with_realloc(setting.to_config()),
    }
}

/// The per-cell ledger: one row per traced run, most expensive first
/// (by untraced wall time), as tab-separated text.
pub fn ledger(units: &[RunUnit], runs: &[TracedRun], plain_ms: &BTreeMap<usize, f64>) -> String {
    let mut rows: Vec<&TracedRun> = runs.iter().collect();
    let plain = |r: &TracedRun| plain_ms.get(&r.index).copied().unwrap_or(0.0);
    rows.sort_by(|a, b| plain(b).total_cmp(&plain(a)).then(a.index.cmp(&b.index)));
    let mut out = String::from(
        "label\twall_ms\tplain_wall_ms\ttraced_wall_ms\tsim_run_ms\tself_ms\trealloc_tick_ms\ttick_share\tticks\tactive_ticks\tjobs\n",
    );
    for r in rows {
        let run_ms = r.span("sim.run");
        let tick_ms = r.span("realloc.tick");
        out.push_str(&format!(
            "{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.4}\t{}\t{}\t{}\n",
            units[r.index].label(),
            plain(r),
            r.plain_ms,
            r.wall_ms,
            run_ms,
            r.self_ms(),
            tick_ms,
            ratio(tick_ms, run_ms),
            r.outcome.total_ticks,
            r.outcome.active_ticks,
            r.outcome.len(),
        ));
    }
    out
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
