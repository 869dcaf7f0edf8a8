//! The campaign CLI: plan, execute, report and garbage-collect
//! experiment campaigns.
//!
//! ```text
//! campaign plan   --spec FILE
//! campaign run    --spec FILE [--cache DIR] [--threads N]
//!                 [--converge TARGET] [--min-seeds N]
//!                 [--quiet] [--progress] [--trace DIR]
//! campaign runner --spec FILE [--cache DIR] [--threads N]
//!                 [--runner-id ID] [--lease-ttl SECS] [--poll-ms MS]
//!                 [--converge TARGET] [--min-seeds N]
//!                 [--quiet] [--progress] [--trace DIR]
//!                 [--metrics-addr ADDR]
//! campaign status [DIR] --spec FILE [--cache DIR] [--json]
//!                 [--serve ADDR]
//! campaign report --spec FILE [--cache DIR] [--format tables|csv|json]
//!                 [--out FILE] [--stats] [--check] [--converge TARGET]
//! campaign gc     --spec FILE [--spec FILE ...] [--cache DIR]
//! ```
//!
//! `run --progress` replaces per-run lines with one live status line
//! (cells done/total, runs/s, cache mix, CI-half-width ETA); `--trace`
//! additionally records every computed run and writes a Chrome
//! trace-event file (open at `ui.perfetto.dev` or `chrome://tracing`)
//! plus a JSONL event stream per run into the given directory — outcome
//! and cache bytes are identical with or without it. `report --stats`
//! appends the per-site scheduler counters harvested from the runs'
//! telemetry sidecars as extra CSV/JSON columns — including the
//! reallocation-round snapshot economy (`ect_snapshot_reuses`, how often
//! a frozen estimate snapshot answered another ECT column without a
//! rebuild, and `ect_column_refills`, how many batched column fills the
//! dry-run cache paid for).
//!
//! `run` executes the spec's expansion in one process, resuming from
//! the content-addressed cache; `report` then aggregates the campaign
//! into the paper's tables or CSV/JSON. `report --check` appends Table 1
//! and the paper's qualitative shape checks (PASS/MISS) to the tables;
//! it needs a campaign with one homogeneous and one heterogeneous group.
//!
//! `runner` spreads the same drain over several processes: start any
//! number of `campaign runner` processes against the same cache
//! directory and they drain the plan through atomic lease files —
//! dynamic work claiming, no coordinator, crash recovery via lease
//! expiry, and byte-identical records regardless of fleet size. `run`
//! and `runner` share one drain loop and differ only in how they claim
//! units: in memory, or through leases. With a convergence target (spec
//! `[converge]` or `--converge`, `--min-seeds`), both stop scheduling
//! new seeds of a multi-seed cell once the 95% CI half-width of
//! `rel_avg_response` meets the target, and `report` excludes the same
//! skipped runs. `status` reports fleet progress
//! (done/claimed/failed, live runners, runs/s, ETA) purely from the
//! cache + lease directory — run it from anywhere, attached to nothing.
//! Runners leave periodic heartbeat files (`leases/runners/*.hb`) that
//! `status` prefers over its record-mtime heuristic; `status --json`
//! prints the snapshot as JSON and `status --serve ADDR` keeps serving
//! it over HTTP (`/status`, `/metrics`, `/healthz`). `runner
//! --metrics-addr ADDR` additionally exposes that runner's live engine
//! and fleet counters as a Prometheus `/metrics` endpoint — telemetry
//! is sidecar-only, so records and reports stay byte-identical with
//! every endpoint enabled.
//!
//! `gc` deletes every cached record not reachable from the given spec(s)
//! under the current engine version — stale engine versions and retired
//! spec digests hash to keys no live plan produces — and prints the
//! bytes reclaimed plus the bytes each campaign still holds.
//!
//! The spec path defaults to `examples/paper_campaign.toml`; the cache
//! directory defaults to `campaign-cache/`.

use std::path::PathBuf;
use std::process::ExitCode;

use grid_campaign::{
    execute_plan, CampaignSpec, Converge, DrainSummary, ExecOptions, FleetOptions, ResultCache,
};
use grid_obs::{HttpServer, MetricsRegistry, Response};

struct CommonArgs {
    specs: Vec<PathBuf>,
    cache: PathBuf,
    threads: Option<usize>,
    quiet: bool,
    progress: bool,
    trace: Option<PathBuf>,
    stats: bool,
    check: bool,
    format: String,
    out: Option<PathBuf>,
    runner_id: Option<String>,
    lease_ttl: u64,
    poll_ms: u64,
    converge: Option<f64>,
    min_seeds: Option<usize>,
    json: bool,
    serve: Option<String>,
    metrics_addr: Option<String>,
}

impl CommonArgs {
    /// The single spec path of plan/run/report (gc takes several).
    fn spec(&self) -> Result<&PathBuf, String> {
        match self.specs.as_slice() {
            [one] => Ok(one),
            _ => Err("this command takes exactly one --spec".into()),
        }
    }
}

const USAGE: &str = "usage: campaign <plan|run|runner|status|report|gc> [--spec FILE]... \
[--cache DIR] [--threads N] [--format tables|csv|json] [--out FILE] \
[--quiet] [--progress] [--trace DIR] [--stats] [--check] [--runner-id ID] [--lease-ttl SECS] \
[--poll-ms MS] [--converge TARGET] [--min-seeds N] [--json] [--serve ADDR] \
[--metrics-addr ADDR]";

fn parse_args(mut args: std::env::Args) -> Result<(String, CommonArgs), String> {
    let command = args.next().ok_or(USAGE)?;
    let mut parsed = CommonArgs {
        specs: Vec::new(),
        cache: PathBuf::from("campaign-cache"),
        threads: None,
        quiet: false,
        progress: false,
        trace: None,
        stats: false,
        check: false,
        format: "tables".into(),
        out: None,
        runner_id: None,
        lease_ttl: 0,
        poll_ms: 0,
        converge: None,
        min_seeds: None,
        json: false,
        serve: None,
        metrics_addr: None,
    };
    let value =
        |args: &mut std::env::Args, flag: &str| args.next().ok_or(format!("{flag} needs a value"));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => parsed
                .specs
                .push(PathBuf::from(value(&mut args, "--spec")?)),
            "--cache" => parsed.cache = PathBuf::from(value(&mut args, "--cache")?),
            "--threads" => {
                parsed.threads = Some(
                    value(&mut args, "--threads")?
                        .parse()
                        .map_err(|_| "invalid --threads")?,
                )
            }
            "--format" => parsed.format = value(&mut args, "--format")?,
            "--out" => parsed.out = Some(PathBuf::from(value(&mut args, "--out")?)),
            "--quiet" => parsed.quiet = true,
            "--progress" => parsed.progress = true,
            "--trace" => parsed.trace = Some(PathBuf::from(value(&mut args, "--trace")?)),
            "--stats" => parsed.stats = true,
            "--check" => parsed.check = true,
            "--runner-id" => parsed.runner_id = Some(value(&mut args, "--runner-id")?),
            "--lease-ttl" => {
                parsed.lease_ttl = value(&mut args, "--lease-ttl")?
                    .parse()
                    .map_err(|_| "invalid --lease-ttl")?
            }
            "--poll-ms" => {
                parsed.poll_ms = value(&mut args, "--poll-ms")?
                    .parse()
                    .map_err(|_| "invalid --poll-ms")?
            }
            "--converge" => {
                parsed.converge = Some(
                    value(&mut args, "--converge")?
                        .parse()
                        .map_err(|_| "invalid --converge")?,
                )
            }
            "--min-seeds" => {
                parsed.min_seeds = Some(
                    value(&mut args, "--min-seeds")?
                        .parse()
                        .map_err(|_| "invalid --min-seeds")?,
                )
            }
            "--json" => parsed.json = true,
            "--serve" => parsed.serve = Some(value(&mut args, "--serve")?),
            "--metrics-addr" => parsed.metrics_addr = Some(value(&mut args, "--metrics-addr")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            // `campaign status DIR` — the one positional operand.
            other if command == "status" && !other.starts_with('-') => {
                parsed.cache = PathBuf::from(other)
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    if let Some(target) = parsed.converge {
        if target.is_nan() || target <= 0.0 {
            return Err("--converge must be a positive CI half-width target".into());
        }
    }
    if parsed.min_seeds.is_some_and(|m| m < 2) {
        return Err("--min-seeds must be at least 2 (a CI needs two samples)".into());
    }
    if !["tables", "csv", "json"].contains(&parsed.format.as_str()) {
        return Err(format!("unknown --format {:?}", parsed.format));
    }
    if parsed.check && parsed.format != "tables" {
        return Err("--check prints after the tables: it needs --format tables".into());
    }
    if parsed.specs.is_empty() {
        parsed
            .specs
            .push(PathBuf::from("examples/paper_campaign.toml"));
    }
    Ok((command, parsed))
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _binary = args.next();
    let (command, opts) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "plan" => cmd_plan(&opts),
        "run" => cmd_run(&opts),
        "runner" => cmd_runner(&opts),
        "status" => cmd_status(&opts),
        "report" => cmd_report(&opts),
        "gc" => cmd_gc(&opts),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign {command}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_spec(opts: &CommonArgs) -> Result<CampaignSpec, String> {
    CampaignSpec::load(opts.spec()?).map_err(|e| e.to_string())
}

fn cmd_plan(opts: &CommonArgs) -> Result<(), String> {
    let spec = load_spec(opts)?;
    let plan = spec.expand();
    println!("campaign: {}", spec.name);
    if !spec.description.is_empty() {
        println!("  {}", spec.description);
    }
    // One shared canonicalisation path for every axis, current and
    // future ([`CampaignSpec::axes`]): the values printed here are the
    // exact canonical expressions the handles hash into cache keys —
    // `load-threshold`, `load-threshold()` and `load-threshold(factor=2)`
    // all print identically, and a newly added axis appears here without
    // touching the CLI.
    let axes = spec.axes();
    println!(
        "matrix: {} @ fraction {}",
        plan.matrix()
            .iter()
            .map(|(name, count)| format!("{count} {name}"))
            .collect::<Vec<_>>()
            .join(" x "),
        spec.fraction,
    );
    for (name, values) in &axes {
        // A range-expanded axis (e.g. a thousand-seed Monte-Carlo sweep)
        // would swamp the plan with one enormous line: elide the middle.
        if values.len() > 16 {
            println!(
                "  {name:<12}: {}, ..., {} ({} values)",
                values[..8].join(", "),
                values[values.len() - 1],
                values.len()
            );
        } else {
            println!("  {name:<12}: {}", values.join(", "));
        }
    }
    println!(
        "total runs: {} ({} reference + {} reallocation)",
        plan.len(),
        plan.reference_count(),
        plan.realloc_count()
    );
    // Preview only: never create the cache directory as a side effect.
    if opts.cache.is_dir() {
        let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
        let cached = plan.units.iter().filter(|u| cache.contains(u)).count();
        println!(
            "cache: {} of {} runs already present in {}",
            cached,
            plan.len(),
            opts.cache.display()
        );
    } else {
        println!(
            "cache: {} does not exist yet (created on first `run`)",
            opts.cache.display()
        );
    }
    Ok(())
}

fn cmd_run(opts: &CommonArgs) -> Result<(), String> {
    let spec = load_spec(opts)?;
    let plan = spec.expand();
    let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
    if !opts.quiet {
        eprintln!(
            "campaign {}: {} runs, cache {}",
            spec.name,
            plan.len(),
            opts.cache.display(),
        );
    }
    let summary = execute_plan(
        &spec,
        &plan,
        &cache,
        effective_converge(&spec, opts),
        &ExecOptions {
            threads: opts.threads,
            // The live status line supersedes per-run progress lines.
            progress: !opts.quiet && !opts.progress,
            status: opts.progress && !opts.quiet,
            trace: opts.trace.clone(),
        },
    );
    finish(
        format!(
            "campaign {}: {} computed, {} cached, {} failed, {} skipped",
            spec.name,
            summary.computed,
            summary.cached,
            summary.failures.len(),
            summary.skipped
        ),
        &summary,
    )
}

/// Print a drain's summary line and what it could not resolve; any
/// failure or unpersisted record fails the command.
fn finish(line: String, summary: &DrainSummary) -> Result<(), String> {
    println!("{line}");
    for f in &summary.failures {
        eprintln!("  failed: {} — {}", f.unit, f.message);
    }
    for f in &summary.store_errors {
        eprintln!("  not persisted: {} — {}", f.unit, f.message);
    }
    match (summary.failures.len(), summary.store_errors.len()) {
        (0, 0) => Ok(()),
        (0, stores) => Err(format!(
            "{stores} result(s) could not be written to the cache — \
             a later `report` will find them missing"
        )),
        (fails, _) => Err(format!("{fails} run(s) failed")),
    }
}

/// The convergence rule in force: `--converge`/`--min-seeds` override
/// the spec's `[converge]` table field-by-field; no flag and no table
/// means no stopping rule.
fn effective_converge(spec: &CampaignSpec, opts: &CommonArgs) -> Option<Converge> {
    let base = spec.converge;
    match (opts.converge, base) {
        (Some(target), _) => Some(Converge {
            target,
            min_seeds: opts
                .min_seeds
                .or(base.map(|b| b.min_seeds))
                .unwrap_or(Converge::DEFAULT_MIN_SEEDS),
        }),
        (None, Some(b)) => Some(Converge {
            target: b.target,
            min_seeds: opts.min_seeds.unwrap_or(b.min_seeds),
        }),
        (None, None) => None,
    }
}

fn cmd_runner(opts: &CommonArgs) -> Result<(), String> {
    let spec = load_spec(opts)?;
    let plan = spec.expand();
    let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
    let runner_id = opts
        .runner_id
        .clone()
        .unwrap_or_else(|| format!("r{}", std::process::id()));
    if !opts.quiet {
        eprintln!(
            "campaign {}: runner {} joining fleet over {} runs, cache {}",
            spec.name,
            runner_id,
            plan.len(),
            opts.cache.display(),
        );
    }
    // `--metrics-addr`: serve this runner's live registry (engine
    // counters mirrored from every computed unit plus the fleet
    // counters) and its own heartbeat for the duration of the drain.
    // Telemetry is sidecar-only — cache bytes are identical either way.
    let registry = opts.metrics_addr.as_ref().map(|_| MetricsRegistry::new());
    let _server = match (&opts.metrics_addr, &registry) {
        (Some(addr), Some(registry)) => {
            let reg = registry.clone();
            let hb_path = grid_campaign::heartbeat_file(&opts.cache, &runner_id);
            let server = HttpServer::serve(addr, move |path| match path {
                "/metrics" => Some(Response::metrics(reg.render())),
                "/status" => Some(Response::json(
                    std::fs::read_to_string(&hb_path)
                        .unwrap_or_else(|_| "{\"status\":\"starting\"}".into()),
                )),
                "/healthz" => Some(Response::text("ok\n")),
                _ => None,
            })
            .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            if !opts.quiet {
                eprintln!(
                    "runner {}: serving /metrics /status /healthz on http://{}",
                    runner_id,
                    server.local_addr()
                );
            }
            Some(server)
        }
        _ => None,
    };
    let summary = grid_campaign::run_fleet(
        &spec,
        &plan,
        &cache,
        &FleetOptions {
            runner_id: Some(runner_id.clone()),
            lease_ttl_s: opts.lease_ttl,
            poll_ms: opts.poll_ms,
            threads: opts.threads,
            progress: opts.progress && !opts.quiet,
            trace: opts.trace.clone(),
            converge: effective_converge(&spec, opts),
            metrics: registry,
        },
    )?;
    finish(
        format!(
            "runner {}: {} computed, {} cached, {} skipped, {} failed, {} lease(s) reclaimed",
            runner_id,
            summary.computed,
            summary.cached,
            summary.skipped,
            summary.failures.len(),
            summary.stolen
        ),
        &summary,
    )
}

fn cmd_status(opts: &CommonArgs) -> Result<(), String> {
    let spec = load_spec(opts)?;
    let plan = spec.expand();
    if !opts.cache.is_dir() {
        return Err(format!(
            "cache directory {} does not exist (no fleet has run yet)",
            opts.cache.display()
        ));
    }
    let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
    // `--serve ADDR`: keep serving the snapshot over HTTP. Each request
    // recomputes fleet_status from the cache + heartbeats, so `/status`
    // and `/metrics` always show the current drain, not a stale copy.
    if let Some(addr) = &opts.serve {
        let shared = std::sync::Arc::new((spec, plan, cache, opts.lease_ttl));
        let handler_state = std::sync::Arc::clone(&shared);
        let server = HttpServer::serve(addr, move |path| {
            let (spec, plan, cache, ttl) = &*handler_state;
            let snapshot = || grid_campaign::fleet_status(spec, plan, cache, *ttl);
            match path {
                "/healthz" => Some(Response::text("ok\n")),
                "/status" => Some(match snapshot() {
                    Ok(s) => Response::json(s.to_json(&spec.name).encode_pretty()),
                    Err(e) => error_response(&e),
                }),
                "/metrics" => Some(match snapshot() {
                    Ok(s) => Response::metrics(s.render_metrics()),
                    Err(e) => error_response(&e),
                }),
                _ => None,
            }
        })
        .map_err(|e| format!("--serve {addr}: {e}"))?;
        eprintln!(
            "campaign {}: serving /status /metrics /healthz on http://{} (Ctrl-C to stop)",
            shared.0.name,
            server.local_addr()
        );
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let status = grid_campaign::fleet_status(&spec, &plan, &cache, opts.lease_ttl)?;
    if opts.json {
        println!("{}", status.to_json(&spec.name).encode_pretty());
        return Ok(());
    }
    println!(
        "campaign {}: {}/{} runs done, {} skipped (converged), {} failed",
        spec.name, status.done, status.total, status.skipped, status.failed
    );
    // Heartbeats name the live runners authoritatively; a heartbeat-less
    // cache falls back to the distinct runner ids on active leases.
    let mut runners: Vec<&str> = if status.from_heartbeats {
        status.runners.iter().map(|r| r.runner.as_str()).collect()
    } else {
        status.active.iter().map(|l| l.runner.as_str()).collect()
    };
    runners.sort_unstable();
    runners.dedup();
    println!(
        "fleet: {} live runner(s){}, {} claimed, {} expired lease(s){}",
        runners.len(),
        if runners.is_empty() {
            String::new()
        } else {
            format!(" [{}]", runners.join(", "))
        },
        status.active.len(),
        status.expired_leases,
        if status.stale_runners > 0 {
            format!(", {} stale heartbeat(s)", status.stale_runners)
        } else {
            String::new()
        }
    );
    println!("{}", status.view.render());
    for row in status.view.render_runners() {
        println!("{row}");
    }
    if !status.from_heartbeats && status.done > 0 {
        println!("  (no heartbeats — rate estimated from record mtimes)");
    }
    Ok(())
}

/// A 500 for snapshot failures behind `--serve` (e.g. the spec's cache
/// directory vanished mid-campaign).
fn error_response(message: &str) -> Response {
    Response {
        status: 500,
        content_type: "text/plain; charset=utf-8",
        body: format!("{message}\n"),
    }
}

fn cmd_gc(opts: &CommonArgs) -> Result<(), String> {
    if !opts.cache.is_dir() {
        return Err(format!(
            "cache directory {} does not exist",
            opts.cache.display()
        ));
    }
    let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
    // Reachable = every key of every provided spec's expansion under the
    // current engine version.
    let mut keep = std::collections::HashSet::new();
    let mut campaigns = Vec::new();
    for path in &opts.specs {
        let spec = CampaignSpec::load(path).map_err(|e| e.to_string())?;
        let keys: Vec<String> = spec.expand().units.iter().map(ResultCache::key).collect();
        campaigns.push((spec.name.clone(), keys.clone()));
        keep.extend(keys);
    }
    let report = cache.gc(&keep).map_err(|e| e.to_string())?;
    // Per-campaign footprint of what survived.
    for (name, keys) in &campaigns {
        let mut bytes = 0u64;
        let mut present = 0usize;
        for key in keys {
            let path = cache.dir().join(format!("{key}.json"));
            if let Ok(meta) = std::fs::metadata(&path) {
                bytes += meta.len();
                present += 1;
            }
        }
        println!(
            "campaign {name}: {present}/{} runs cached, {bytes} bytes",
            keys.len()
        );
    }
    println!(
        "gc: scanned {} records, kept {} ({} bytes), deleted {} records + {} temp files + \
         {} sidecars + {} lease files + {} heartbeats, reclaimed {} bytes",
        report.scanned,
        report.kept,
        report.kept_bytes,
        report.deleted,
        report.tmp_deleted,
        report.obs_deleted,
        report.leases_deleted,
        report.heartbeats_deleted,
        report.reclaimed_bytes
    );
    Ok(())
}

fn cmd_report(opts: &CommonArgs) -> Result<(), String> {
    let spec = load_spec(opts)?;
    let plan = spec.expand();
    let cache = ResultCache::open(&opts.cache).map_err(|e| e.to_string())?;
    // Units a convergence rule (spec or CLI) excludes: the same frontier
    // the runner fleet stopped scheduling at, recomputed from records.
    let skips =
        grid_campaign::convergence_skips(&spec, &plan, &cache, effective_converge(&spec, opts));
    if !skips.is_empty() && !opts.quiet {
        eprintln!(
            "convergence: {} run(s) excluded (cells met the CI target early)",
            skips.len()
        );
    }
    // Plain CSV streams record-at-a-time — constant memory in the run
    // count, the path a million-run campaign exports through.
    if opts.format == "csv" && !opts.stats {
        match &opts.out {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let mut w = std::io::BufWriter::new(file);
                grid_campaign::stream_csv(&plan, &cache, &skips, &mut w)?;
                use std::io::Write;
                w.flush()
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                println!("report written to {}", path.display());
            }
            None => {
                let stdout = std::io::stdout();
                grid_campaign::stream_csv(&plan, &cache, &skips, &mut stdout.lock())?;
            }
        }
        return Ok(());
    }
    let results = grid_campaign::aggregate_streamed(&spec, &plan, &cache, &skips)?;
    // --stats harvests scheduler-effort counters from the telemetry
    // sidecars `run` left in the cache (CSV/JSON only; the paper tables
    // have no column for them).
    let stats = opts
        .stats
        .then(|| grid_campaign::stats_index(&plan, &cache));
    let rendered = match (opts.format.as_str(), &stats) {
        ("tables", _) if opts.check => results.render_tables() + &results.render_checks()?,
        ("tables", _) => results.render_tables(),
        ("csv", Some(stats)) => results.to_csv_with_stats(stats),
        ("csv", None) => unreachable!("plain CSV streams above"),
        ("json", Some(stats)) => results.to_json_with_stats(stats).encode_pretty(),
        ("json", None) => results.to_json().encode_pretty(),
        _ => unreachable!("validated in parse_args"),
    };
    match &opts.out {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("report written to {}", path.display());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}
