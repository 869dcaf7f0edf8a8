//! `perfbench` — the paper campaign's cost ledger.
//!
//! ```text
//! perfbench --workload paper-1pct|reference-runs
//!           [--seed N] [--seconds S] [--trace 0|1] [--input-seed N]
//! ```
//!
//! Run it from the repository root; `perfbench/run.py` builds it and
//! does so. A timed run (`--trace 0`) repeats a cold drain into a fresh
//! cache and a checked warm drain for about `--seconds`, with tracing off,
//! while a side thread samples set-up, and prints the medians of the
//! end-to-end metrics. A traced
//! run (`--trace 1`) drains once, times warm drains and reports,
//! simulates every unit again with a recording `Obs`, replays the
//! layers the executors hide, writes the per-cell ledger to `.bench_out/`,
//! and prints the per-layer metrics.
//!
//! `--input-seed` (default 42, the paper spec's seed) shifts every trace
//! seed of the workload's spec; outputs are pinned for 42 alone, so other
//! values are checked by their plain-vs-traced digest and the outcome
//! invariants instead. `--seed` shuffles the order in which the plan's
//! units reach the executor: with one worker the order changes neither
//! the work nor, by the determinism contract, any output. It does not
//! pick the traces, because a trace seed moves the campaign's cost by
//! more than an order of magnitude (see `README.md`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod sha256;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use grid_batch::ClusterStats;
use grid_campaign::ResultCache;

use stats::{median, ratio, top_share};
use traced::ms_since;
use workload::{Campaign, ReadBack, Workload, PAPER_SEED};

const USAGE: &str = "usage: perfbench --workload paper-1pct|reference-runs \
[--seed N] [--seconds S] [--trace 0|1] [--input-seed N]";

/// Interval of the set-up sampler. A set-up takes 0.3-0.5 ms, about half
/// of it creating the cache directory, so a side thread times one every
/// interval for the whole run. Set-ups timed back to back before the
/// drains, with 1 or 20 ms between them, spread more between runs (quartile
/// distance 40% and 37% of the median over 14 runs of `reference-runs`,
/// against 28% for this sampler).
const SETUP_EVERY: Duration = Duration::from_millis(100);
/// Warm drains, each followed by a report, timed in a traced run.
const RESUME_REPS: usize = 3;
/// Drain workers of a timed run. On the 2-CPU host the baseline was
/// measured on, two workers spread `wall_s`, `cpu_s` and
/// `critical_path_s` over 18-22% of their median between runs (quartile
/// distance, five runs of `reference-runs`); one worker kept them at 4-8%.
const TIMED_WORKERS: usize = 1;
/// Workers of a traced run, for its plain drain and its traced pass alike:
/// the per-layer numbers need no bound, and two workers keep a traced
/// `paper-1pct` run well inside its time limit.
const TRACED_WORKERS: usize = 2;
/// `CampaignSpec::expand` calls timed in a traced run.
const EXPAND_REPS: usize = 5;

/// End-to-end metrics, printed by timed runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("critical_path_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("realloc.tick_ms", "ms"),
    ("realloc.ticks", "count"),
    ("realloc.active_ticks", "count"),
    ("realloc.active_ratio", "ratio"),
    ("realloc.examined", "count"),
    ("realloc.migrations", "count"),
    ("ect.column_refills", "count"),
    ("ect.snapshot_reuses", "count"),
    ("batch.submitted", "count"),
    ("batch.canceled", "count"),
    ("batch.first_fit_probes", "count"),
    ("batch.probes_per_submit", "ratio"),
    ("batch.recomputes", "count"),
    ("batch.suffix_repairs", "count"),
    ("batch.repair_ratio", "ratio"),
    ("batch.batch_fast_placements", "count"),
    ("batch.profile_promotions", "count"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("phase.completions_ms", "ms"),
    ("phase.arrivals_ms", "ms"),
    ("phase.start_due_ms", "ms"),
    ("phase.realloc_ms", "ms"),
    ("sim.batches", "count"),
    ("des.bucket_spills", "count"),
    ("workload.generate_ms", "ms"),
    ("workload.jobs", "count"),
    ("campaign.expand_ms", "ms"),
    ("campaign.computed", "count"),
    ("campaign.cached", "count"),
    ("cache.store_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("fleet.claim_ms", "ms"),
    ("aggregate.ms", "ms"),
    ("warm_wall_s", "s"),
    ("ser.encode_ms", "ms"),
    ("ser.decode_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("cell.slowest_ms", "ms"),
    ("cell.top2_share", "ratio"),
    ("cell.slowest_tick_share", "ratio"),
    ("failed_frac", "ratio"),
    ("traced.wall_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    input_seed: u64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::Paper1pct,
        seed: PAPER_SEED,
        seconds: 45.0,
        trace: false,
        input_seed: PAPER_SEED,
    };
    let mut workload = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--input-seed" => parsed.input_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    /// Units the drains and the traced pass attempted.
    attempted: usize,
    /// Units that failed.
    failed_units: usize,
    /// Failed output checks.
    problems: Vec<String>,
    /// `(name, value)`, in declaration order.
    metrics: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: current directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = ScratchDir(root.join(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    let result = if args.trace {
        traced_run(&args, &root, &work.0)
    } else {
        timed_run(&args, &root, &work.0)
    };
    drop(work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = outcome.metrics.iter().map(|&(n, _)| n).collect();
    let expected: Vec<&str> = declared.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, expected, "metrics must match their declaration");
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .zip(declared)
        .map(|(&(name, value), &(_, unit))| {
            eprintln!("{name:<28} {value:>16.6} {unit}");
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed_units == 0 && outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed_units + outcome.problems.len(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// A scratch directory removed when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds elapsed since `t`.
fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set the workload up with its cache at `dir`.
fn set_up(args: &Args, root: &Path, dir: &Path) -> Result<Campaign, String> {
    Campaign::setup(args.workload, root, args.input_seed, args.seed, dir)
}

/// Time one set-up under `dir` every [`SETUP_EVERY`] until `stop` is
/// raised, deleting each cache again; returns the timings in seconds.
fn sample_setups(
    args: &Args,
    root: &Path,
    dir: &Path,
    stop: &AtomicBool,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    for k in 0.. {
        let t = Instant::now();
        let campaign = set_up(args, root, &dir.join(k.to_string()))?;
        samples.push(secs_since(t));
        let _ = std::fs::remove_dir_all(campaign.cache.dir());
        let next = Instant::now() + SETUP_EVERY;
        while Instant::now() < next {
            if stop.load(Ordering::SeqCst) {
                return Ok(samples);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    unreachable!("the sampler loops until stopped")
}

/// The user's report and the read-back of every record.
#[derive(PartialEq, Eq)]
struct Report {
    tables: String,
    csv: Vec<u8>,
    read: ReadBack,
}

/// The report, and the ms its rendering (aggregation and CSV) took.
fn report(campaign: &Campaign) -> Result<(Report, f64), String> {
    let t = Instant::now();
    let (tables, csv) = campaign.render()?;
    let render_ms = ms_since(t);
    let read = campaign.read_back()?;
    Ok((Report { tables, csv, read }, render_ms))
}

/// Record the cold drain's failures and the first report's checks.
fn check_cold(
    out: &mut Outcome,
    root: &Path,
    campaign: &Campaign,
    cold: &workload::Drained,
    first: &Report,
) {
    out.attempted += campaign.plan.len();
    out.failed_units += cold.failures.len();
    for failure in &cold.failures {
        eprintln!("unit failed: {failure}");
    }
    out.problems.extend(first.read.problems.iter().cloned());
    if let Err(e) = campaign.check_pinned(root, &first.tables, &first.csv) {
        out.problems.push(e);
    }
}

/// One warm drain and report, checked against the cold report.
struct Resumed {
    cached: usize,
    warm_s: f64,
    render_ms: f64,
}

fn resume(
    out: &mut Outcome,
    campaign: &Campaign,
    workers: usize,
    cold: &Report,
) -> Result<Resumed, String> {
    let t = Instant::now();
    let drained = campaign.drain(workers);
    let warm_s = secs_since(t);
    if drained.computed != 0 || !drained.failures.is_empty() {
        out.problems.push(format!(
            "warm drain computed {} and failed {} units",
            drained.computed,
            drained.failures.len()
        ));
    }
    let (again, render_ms) = report(campaign)?;
    if again != *cold {
        out.problems
            .push("the report after a warm drain differs from the cold one".into());
    }
    Ok(Resumed {
        cached: drained.cached,
        warm_s,
        render_ms,
    })
}

/// Tracing off: repeat the cold drain and a checked warm drain for about
/// `--seconds` while a side thread samples set-up, and report the medians.
fn timed_run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_setups(args, root, &work.join("setup"), &stop));
        let drained = drain_repeatedly(args, root, work);
        stop.store(true, Ordering::SeqCst);
        let setup = sampler
            .join()
            .expect("the set-up sampler returns its errors")?;
        let mut out = drained?;
        let setup_s = median(&setup).expect("the sampler times at least one set-up");
        eprintln!("setup samples {}: median {setup_s:.6} s", setup.len());
        out.metrics.insert(0, ("setup_s", setup_s));
        Ok(out)
    })
}

/// The timed loop of [`timed_run`]: every metric but `setup_s`.
fn drain_repeatedly(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::default();
    let [mut wall, mut rate, mut critical, mut cpu] =
        std::array::from_fn::<Vec<f64>, 4, _>(|_| Vec::new());
    for iteration in 0.. {
        let iteration_start = Instant::now();
        let dir = work.join(format!("i{iteration}"));
        let campaign = set_up(args, root, &dir)?;

        let t = Instant::now();
        let cold = campaign.drain(TIMED_WORKERS);
        let cold_s = secs_since(t);
        wall.push(cold_s);
        rate.push(campaign.plan.len() as f64 / cold_s);
        let runs: Vec<f64> = campaign
            .run_walls_ms()
            .iter()
            .map(|&(_, ms)| ms / 1e3)
            .collect();
        critical.push(runs.iter().copied().fold(0.0, f64::max));
        cpu.push(runs.iter().sum());

        let (first, _) = report(&campaign)?;
        check_cold(&mut out, root, &campaign, &cold, &first);
        resume(&mut out, &campaign, TIMED_WORKERS, &first)?;
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "iteration {iteration}: cold {:.3} s, critical path {:.3} s, cpu {:.3} s, \
             {} computed",
            wall[iteration], critical[iteration], cpu[iteration], cold.computed,
        );
        if secs_since(started) + secs_since(iteration_start) > args.seconds {
            break;
        }
    }
    let med = |v: &[f64]| median(v).expect("every iteration takes samples");
    out.metrics = vec![
        ("wall_s", med(&wall)),
        ("units_per_s", med(&rate)),
        ("critical_path_s", med(&critical)),
        ("cpu_s", med(&cpu)),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    Ok(out)
}

/// Tracing on: one plain drain and report, then the traced pass, the
/// replays and the per-cell ledger.
fn traced_run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let campaign = set_up(args, root, &work.join("plain"))?;
    let expand_ms: Vec<f64> = (0..EXPAND_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(campaign.spec.expand());
            ms_since(t)
        })
        .collect();

    let cold = campaign.drain(TRACED_WORKERS);
    let plain_ms: BTreeMap<usize, f64> = campaign.run_walls_ms().into_iter().collect();
    let (first, first_render_ms) = report(&campaign)?;
    check_cold(&mut out, root, &campaign, &cold, &first);
    let resumed = (0..RESUME_REPS)
        .map(|_| resume(&mut out, &campaign, TRACED_WORKERS, &first))
        .collect::<Result<Vec<_>, _>>()?;
    let mut render_ms: Vec<f64> = resumed.iter().map(|r| r.render_ms).collect();
    render_ms.push(first_render_ms);
    let warm_s: Vec<f64> = resumed.iter().map(|r| r.warm_s).collect();

    let t = Instant::now();
    let (runs, panicked) = traced::trace(&campaign.plan.units, &campaign.order, TRACED_WORKERS);
    let traced_wall_s = secs_since(t);
    out.attempted += campaign.order.len();
    out.failed_units += panicked.len();
    for label in &panicked {
        eprintln!("traced unit failed: {label}");
    }
    let scratch =
        ResultCache::open(work.join("replay")).map_err(|e| format!("replay cache: {e}"))?;
    let replay = traced::replay(&campaign.plan.units, &runs, &scratch)?;
    if replay.digest != first.read.digest {
        out.problems
            .push("traced outcomes differ from the plain drain's records".into());
    }
    out.problems.extend(replay.problems.iter().cloned());

    let dir = root.join(".bench_out");
    let path = dir.join(format!(
        "ledger-{}-input{}.tsv",
        args.workload.name(),
        args.input_seed
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                traced::ledger(&campaign.plan.units, &runs, &plain_ms),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("per-cell ledger: {}", path.display());

    let span = |name: &str| runs.iter().map(|r| r.span(name)).sum::<f64>();
    let counter = |name: &str| runs.iter().map(|r| r.counter(name)).sum::<u64>() as f64;
    let sites = |field: fn(&ClusterStats) -> u64| {
        runs.iter().flat_map(|r| &r.sites).map(field).sum::<u64>() as f64
    };
    let ticks = runs.iter().map(|r| r.outcome.total_ticks).sum::<u64>() as f64;
    let active = runs.iter().map(|r| r.outcome.active_ticks).sum::<u64>() as f64;
    let submitted = sites(|s| s.submitted);
    let probes = sites(|s| s.first_fit_probes);
    let recomputes = sites(|s| s.recomputes);
    let repairs = sites(|s| s.suffix_repairs);
    let plain_walls: Vec<f64> = plain_ms.values().copied().collect();
    let plain_total: f64 = runs.iter().map(|r| r.plain_ms).sum();
    let traced_total: f64 = runs.iter().map(|r| r.wall_ms).sum();
    let slowest = plain_ms
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .and_then(|(i, _)| runs.iter().find(|r| r.index == *i));
    let slowest_tick_share =
        slowest.map_or(0.0, |r| ratio(r.span("realloc.tick"), r.span("sim.run")));
    let failed = (out.failed_units + out.problems.len()) as f64;
    let med = |v: &[f64]| median(v).expect("the repetition counts are positive");

    out.metrics = vec![
        ("realloc.tick_ms", span("realloc.tick")),
        ("realloc.ticks", ticks),
        ("realloc.active_ticks", active),
        ("realloc.active_ratio", ratio(active, ticks)),
        ("realloc.examined", counter("realloc.examined")),
        ("realloc.migrations", counter("realloc.migrations")),
        ("ect.column_refills", sites(|s| s.ect_column_refills)),
        ("ect.snapshot_reuses", sites(|s| s.ect_snapshot_reuses)),
        ("batch.submitted", submitted),
        ("batch.canceled", sites(|s| s.canceled)),
        ("batch.first_fit_probes", probes),
        ("batch.probes_per_submit", ratio(probes, submitted)),
        ("batch.recomputes", recomputes),
        ("batch.suffix_repairs", repairs),
        ("batch.repair_ratio", ratio(repairs, repairs + recomputes)),
        (
            "batch.batch_fast_placements",
            sites(|s| s.batch_fast_placements),
        ),
        ("batch.profile_promotions", sites(|s| s.profile_promotions)),
        ("sim.build_ms", replay.build_ms),
        ("sim.run_ms", span("sim.run")),
        (
            "sim.self_ms",
            runs.iter().map(traced::TracedRun::self_ms).sum(),
        ),
        ("phase.completions_ms", span("phase.completions")),
        ("phase.arrivals_ms", span("phase.arrivals")),
        ("phase.start_due_ms", span("phase.start_due")),
        ("phase.realloc_ms", span("phase.realloc")),
        ("sim.batches", counter("sim.batches")),
        (
            "des.bucket_spills",
            runs.iter().map(|r| r.bucket_spills).sum::<u64>() as f64,
        ),
        ("workload.generate_ms", replay.generate_ms),
        ("workload.jobs", replay.jobs as f64),
        ("campaign.expand_ms", med(&expand_ms)),
        ("campaign.computed", cold.computed as f64),
        ("campaign.cached", resumed[0].cached as f64),
        ("cache.store_ms", replay.store_ms),
        ("cache.load_ms", replay.load_ms),
        ("fleet.claim_ms", replay.claim_ms),
        ("aggregate.ms", med(&render_ms)),
        ("warm_wall_s", med(&warm_s)),
        ("ser.encode_ms", replay.encode_ms),
        ("ser.decode_ms", replay.decode_ms),
        ("obs.overhead_ratio", ratio(traced_total, plain_total)),
        (
            "cell.slowest_ms",
            plain_walls.iter().copied().fold(0.0, f64::max),
        ),
        ("cell.top2_share", top_share(&plain_walls, 2)),
        ("cell.slowest_tick_share", slowest_tick_share),
        ("failed_frac", ratio(failed, out.attempted as f64)),
        ("traced.wall_s", traced_wall_s),
    ];
    Ok(out)
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_campaign::RunRecord;
    use grid_ser::Value;

    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives one level below the root")
    }

    #[test]
    fn declared_metrics_and_workloads_match_benchmark_json() {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap();
        let json = Value::parse(&text).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let pairs = |key: &str| -> Vec<(String, String)> {
            listed(key, "name")
                .into_iter()
                .zip(listed(key, "unit"))
                .collect()
        };
        let declared = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), declared(&END_TO_END));
        assert_eq!(pairs("per_layer"), declared(&PER_LAYER));
        for name in listed("workloads", "name") {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
    }

    /// The whole pipeline on the paper matrix at fraction 0.002: the
    /// report reproduces the checked-in goldens, the traced outcomes hash
    /// like the plain records, and a lost job is caught.
    #[test]
    fn digest_check_on_the_0002_paper_matrix() {
        let work = ScratchDir(
            root()
                .join(".bench_work")
                .join(format!("test-{}", std::process::id())),
        );
        let mut campaign = Campaign::setup(
            Workload::Paper1pct,
            root(),
            PAPER_SEED,
            7,
            &work.0.join("plain"),
        )
        .unwrap();
        campaign.spec.fraction = 0.002;
        campaign.plan = campaign.spec.expand();
        let n = campaign.plan.len();

        let cold = campaign.drain(2);
        assert!(cold.failures.is_empty(), "{:?}", cold.failures);
        assert_eq!(cold.computed, n);
        let (tables, csv) = campaign.render().unwrap();
        let golden = |name: &str| std::fs::read(root().join("tests/golden").join(name)).unwrap();
        assert_eq!(tables.as_bytes(), golden("paper_suite_0002_tables.txt"));
        assert_eq!(csv, golden("paper_suite_0002.csv"));
        let read = campaign.read_back().unwrap();
        assert!(read.problems.is_empty(), "{:?}", read.problems);
        assert_eq!(campaign.run_walls_ms().len(), n);

        let (runs, failed) = traced::trace(&campaign.plan.units, &campaign.order, 2);
        assert!(failed.is_empty());
        assert_eq!(runs.len(), n);
        assert!(runs.iter().all(|r| r.self_ms() <= r.span("sim.run")));
        let scratch = ResultCache::open(work.0.join("replay")).unwrap();
        let replay = traced::replay(&campaign.plan.units, &runs, &scratch).unwrap();
        assert!(replay.problems.is_empty(), "{:?}", replay.problems);
        assert_eq!(
            replay.digest, read.digest,
            "tracing must not change outcomes"
        );
        let ledger = traced::ledger(&campaign.plan.units, &runs, &BTreeMap::new());
        assert_eq!(ledger.lines().count(), n + 1);

        // Drop one job from a stored record: the read-back must flag it.
        let unit = &campaign.plan.units[n - 1];
        let mut record = campaign.cache.load(unit).unwrap();
        let first = *record.outcome.records.keys().next().unwrap();
        record.outcome.records.remove(&first);
        campaign
            .cache
            .store(unit, &RunRecord::new(unit, record.outcome))
            .unwrap();
        let tampered = campaign.read_back().unwrap();
        assert_eq!(tampered.problems.len(), 1, "{:?}", tampered.problems);
        assert_ne!(tampered.digest, read.digest);
    }
}
