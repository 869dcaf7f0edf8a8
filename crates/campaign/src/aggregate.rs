//! Fold run outcomes back into paper tables and machine-readable exports.
//!
//! Reference runs and reallocation runs are paired by
//! `(scenario, flavour, policy, seed)`; each pairing yields the §3.4
//! [`Comparison`]. Comparisons are then grouped by
//! `(flavour, seed, period, threshold)` — for the paper's spec that is
//! exactly the two groups (homogeneous, heterogeneous) whose tables the
//! paper prints; sweep specs get one table set per sweep point.
//!
//! Multi-seed campaigns additionally aggregate *across* seeds: the
//! rendered report shows one table group per
//! `(flavour, period, threshold)` with per-cell means and 95% confidence
//! intervals ([`CampaignResults::seed_aggregates`]), while the CSV export
//! keeps the raw per-seed rows for downstream analysis.
//!
//! ## Streaming aggregation
//!
//! [`aggregate`] and [`aggregate_streamed`] run the same fold over the
//! plan and differ only in where a unit's outcome comes from. The first
//! reads a pre-materialised outcome vector — fine for the paper's 364
//! runs, hopeless for million-run campaigns (every [`RunOutcome`] holds
//! per-job record maps). The streaming entry points read cache records
//! one at a time instead:
//!
//! * [`aggregate_streamed`] — loads each reallocation record exactly
//!   once, pairs it with its reference through a single-slot baseline
//!   memo (plan order keeps one baseline live at a time), and retains
//!   only the per-cell [`Comparison`] (a few dozen bytes) — peak memory
//!   is proportional to the number of *cells*, never to job counts;
//! * [`stream_csv`] — writes the per-seed CSV rows during the fold,
//!   byte-identical to [`CampaignResults::to_csv`], holding one record
//!   at a time;
//! * [`Welford`] — the constant-memory mean/M2 accumulator both
//!   [`mean_ci`] and the cross-seed fold run on, so the vector-based and
//!   fold-based statistics are the *same* operation sequence and render
//!   bit-identically.

use std::collections::{BTreeMap, HashMap, HashSet};

use grid_batch::BatchPolicy;
use grid_fault::Fault;
use grid_metrics::{Comparison, PaperTable, RunOutcome};
use grid_realloc::experiments::{table_number, ExperimentKey, Metric, SuiteResults};
use grid_realloc::Heuristic;
use grid_ser::Value;

use crate::cache::ResultCache;
use crate::plan::{BaselineKey, CampaignPlan, ReallocSetting, RunKind, RunUnit};
use crate::spec::CampaignSpec;

/// Identifies one table-set group of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    /// Heterogeneous platform flavour?
    pub heterogeneous: bool,
    /// Workload seed.
    pub seed: u64,
    /// Reallocation period, seconds.
    pub period_s: u64,
    /// Algorithm-1 threshold, seconds.
    pub threshold_s: u64,
    /// Injected faults — each fault point is its own table group, so a
    /// sweep reads as "the same tables, degrading with intensity".
    pub fault: Fault,
}

/// Aggregated campaign: suite results per group.
#[derive(Debug, Clone)]
pub struct CampaignResults {
    /// The producing spec.
    pub spec: CampaignSpec,
    /// Comparisons per group, in deterministic group order.
    pub groups: BTreeMap<GroupKey, SuiteResults>,
}

/// Pair every reallocation outcome with its reference and build the
/// grouped suite results.
///
/// `outcomes[i]` must correspond to `plan.units[i]` (the executor's
/// output contract); `None` entries (failed or missing runs) are
/// reported in the error when they break a pairing.
pub fn aggregate(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    outcomes: &[Option<RunOutcome>],
) -> Result<CampaignResults, String> {
    assert_eq!(
        plan.units.len(),
        outcomes.len(),
        "outcome vector must match the plan"
    );
    let mut references: HashMap<BaselineKey, &RunOutcome> = HashMap::new();
    for (unit, outcome) in plan.units.iter().zip(outcomes) {
        if let (RunKind::Reference, Some(outcome)) = (unit.kind, outcome) {
            references.insert(unit.baseline_key(), outcome);
        }
    }
    fold_groups(spec, plan, &HashSet::new(), |i, unit| {
        let outcome = outcomes[i].as_ref().ok_or_else(|| unit.label())?;
        let baseline = references
            .get(&unit.baseline_key())
            .ok_or_else(|| format!("{} (reference missing)", unit.label()))?;
        Ok(Comparison::against_baseline(baseline, outcome))
    })
}

/// The one aggregation loop: compare every reallocation unit not in
/// `skips` against its reference and group the comparisons. `compare`
/// says where a unit's outcome comes from (an outcome vector or the
/// cache); its `Err` is the label the missing-run error lists.
fn fold_groups(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    skips: &HashSet<usize>,
    mut compare: impl FnMut(usize, &RunUnit) -> Result<Comparison, String>,
) -> Result<CampaignResults, String> {
    let mut groups: BTreeMap<GroupKey, SuiteResults> = BTreeMap::new();
    let mut missing = Vec::new();
    for (i, unit) in plan.units.iter().enumerate() {
        let RunKind::Realloc(setting) = unit.kind else {
            continue;
        };
        if skips.contains(&i) {
            continue;
        }
        let comparison = match compare(i, unit) {
            Ok(c) => c,
            Err(label) => {
                missing.push(label);
                continue;
            }
        };
        let (group, cell) = group_cell(unit, &setting);
        groups
            .entry(group)
            .or_insert_with(|| SuiteResults {
                heterogeneous: unit.heterogeneous,
                comparisons: HashMap::new(),
            })
            .comparisons
            .insert(cell, comparison);
    }
    if !missing.is_empty() {
        return Err(missing_error(&missing));
    }
    Ok(CampaignResults {
        spec: spec.clone(),
        groups,
    })
}

/// The shared "runs unavailable" error of every aggregation path.
fn missing_error(missing: &[String]) -> String {
    let shown = 8.min(missing.len());
    let mut list = missing[..shown].join(", ");
    if missing.len() > shown {
        list.push_str(&format!(", … and {} more", missing.len() - shown));
    }
    format!(
        "{} run(s) unavailable (run the campaign first, or check failures): {list}",
        missing.len(),
    )
}

/// The `(group, cell)` addresses of one reallocation unit.
fn group_cell(unit: &RunUnit, setting: &ReallocSetting) -> (GroupKey, ExperimentKey) {
    (
        GroupKey {
            heterogeneous: unit.heterogeneous,
            seed: unit.seed,
            period_s: setting.period.as_secs(),
            threshold_s: setting.threshold.as_secs(),
            fault: unit.fault,
        },
        ExperimentKey {
            scenario: unit.scenario,
            policy: unit.policy,
            algorithm: setting.algorithm,
            heuristic: setting.heuristic,
        },
    )
}

/// Load one reallocation unit's record and compare it against its
/// reference through a single-slot baseline memo. Plan order iterates
/// the reallocation axes under a fixed baseline key, so the one slot
/// gives near-perfect reuse without an outcome table; a memo miss costs
/// one extra reference load, never a wrong pairing.
fn comparison_for(
    unit: &RunUnit,
    cache: &ResultCache,
    baseline: &mut Option<(BaselineKey, RunOutcome)>,
) -> Result<Comparison, String> {
    let Some(record) = cache.load(unit) else {
        return Err(unit.label());
    };
    let key = unit.baseline_key();
    let memo_hit = matches!(baseline, Some((k, _)) if *k == key);
    if !memo_hit {
        let reference = RunUnit {
            kind: RunKind::Reference,
            ..unit.clone()
        };
        let Some(r) = cache.load(&reference) else {
            return Err(format!("{} (reference missing)", unit.label()));
        };
        *baseline = Some((key, r.outcome));
    }
    let (_, base) = baseline.as_ref().expect("memo just filled");
    Ok(Comparison::against_baseline(base, &record.outcome))
}

/// [`aggregate`] without the outcome vector: fold cache records one at a
/// time into the grouped suite results. Peak memory holds one
/// [`RunOutcome`] pair (the record being folded and the memoised
/// baseline) plus the per-cell [`Comparison`]s — never the whole
/// campaign's job records. `skips` (by plan index) excludes units a
/// convergence frontier decided not to run.
pub fn aggregate_streamed(
    spec: &CampaignSpec,
    plan: &CampaignPlan,
    cache: &ResultCache,
    skips: &HashSet<usize>,
) -> Result<CampaignResults, String> {
    let mut baseline = None;
    fold_groups(spec, plan, skips, |_, unit| {
        comparison_for(unit, cache, &mut baseline)
    })
}

/// Reallocation units in export order — ascending [`GroupKey`], then the
/// CSV row sort within each group — with convergence skips removed.
fn export_order(plan: &CampaignPlan, skips: &HashSet<usize>) -> Vec<(GroupKey, usize)> {
    let mut rows: Vec<(GroupKey, usize)> = plan
        .units
        .iter()
        .enumerate()
        .filter_map(|(i, unit)| {
            let RunKind::Realloc(setting) = unit.kind else {
                return None;
            };
            if skips.contains(&i) {
                return None;
            }
            Some((group_cell(unit, &setting).0, i))
        })
        .collect();
    rows.sort_by_cached_key(|&(group, i)| {
        let unit = &plan.units[i];
        let RunKind::Realloc(setting) = unit.kind else {
            unreachable!("export_order keeps only reallocation units");
        };
        (
            group,
            unit.scenario.label(),
            unit.policy.to_string(),
            setting.algorithm.to_string(),
            setting.heuristic.label(),
        )
    });
    rows
}

/// Stream the per-seed CSV export straight into `out`, loading one
/// record at a time — byte-identical to [`CampaignResults::to_csv`] over
/// the same cache and skips, with peak memory of one record pair plus an
/// O(#units) ordering index instead of every outcome.
pub fn stream_csv<W: std::io::Write>(
    plan: &CampaignPlan,
    cache: &ResultCache,
    skips: &HashSet<usize>,
    out: &mut W,
) -> Result<(), String> {
    let rows = export_order(plan, skips);
    // Cheap existence pre-pass so an incomplete campaign fails with the
    // aggregate error instead of a torn export.
    let missing: Vec<String> = rows
        .iter()
        .filter(|&&(_, i)| !cache.contains(&plan.units[i]))
        .map(|&(_, i)| plan.units[i].label())
        .collect();
    if !missing.is_empty() {
        return Err(missing_error(&missing));
    }
    let faulted = rows.iter().any(|(g, _)| !g.fault.is_none());
    let io = |e: std::io::Error| format!("csv stream: {e}");
    out.write_all(csv_header(faulted, false).as_bytes())
        .map_err(io)?;
    let mut baseline = None;
    for &(group, i) in &rows {
        let unit = &plan.units[i];
        let comparison =
            comparison_for(unit, cache, &mut baseline).map_err(|label| missing_error(&[label]))?;
        let (_, cell) = match unit.kind {
            RunKind::Realloc(setting) => group_cell(unit, &setting),
            RunKind::Reference => unreachable!("export_order keeps only reallocation units"),
        };
        out.write_all(csv_row(&group, &cell, &comparison, faulted, "").as_bytes())
            .map_err(io)?;
    }
    Ok(())
}

/// Per-cell scheduler-effort totals, summed over a run's sites.
///
/// Harvested from the telemetry sidecars [`crate::execute`] leaves in
/// the cache's `obs/` subdirectory; surfaced as opt-in report columns
/// (`campaign report --stats`), never in the default exports — those
/// stay byte-identical to the pre-observability engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellStats {
    /// `Profile::first_fit` placement queries, all sites.
    pub first_fit_probes: u64,
    /// Warm-profile suffix repairs that replaced full recomputations.
    pub suffix_repairs: u64,
    /// Full schedule recomputations.
    pub recomputes: u64,
    /// Jobs evicted by site outages.
    pub evicted: u64,
    /// Inline→tree profile backend promotions, all sites.
    pub profile_promotions: u64,
    /// Placements whose first-fit probe started from a batch
    /// dominance-floor above `now` (the batch first-fit fast path).
    pub batch_fast_placements: u64,
    /// Events the bucketed event queue routed through its overflow
    /// spill path (grid-level, from the sidecar's own counter).
    pub queue_bucket_spills: u64,
    /// ECT dry-run passes that re-used a still-valid profile snapshot
    /// instead of re-freezing one, all sites.
    pub ect_snapshot_reuses: u64,
    /// Batched ECT column fills answered against frozen snapshots, all
    /// sites.
    pub ect_column_refills: u64,
}

/// Sidecar-derived scheduler stats per group and table cell.
pub type StatsIndex = BTreeMap<GroupKey, HashMap<ExperimentKey, CellStats>>;

/// Harvest per-cell [`CellStats`] from the cache's telemetry sidecars.
/// Units without a sidecar (runs that predate instrumentation, or a
/// cache populated by another engine build) are simply absent — their
/// report cells render empty rather than zero.
pub fn stats_index(plan: &CampaignPlan, cache: &ResultCache) -> StatsIndex {
    let mut index: StatsIndex = BTreeMap::new();
    for unit in &plan.units {
        let RunKind::Realloc(setting) = unit.kind else {
            continue;
        };
        let Some(sidecar) = cache.load_obs(unit) else {
            continue;
        };
        let Some(sites) = sidecar.get("cluster_stats").and_then(Value::as_arr) else {
            continue;
        };
        let mut totals = CellStats::default();
        for site in sites {
            let Ok(s) = grid_batch::ClusterStats::from_json(site) else {
                continue;
            };
            totals.first_fit_probes += s.first_fit_probes;
            totals.suffix_repairs += s.suffix_repairs;
            totals.recomputes += s.recomputes;
            totals.evicted += s.evicted;
            totals.profile_promotions += s.profile_promotions;
            totals.batch_fast_placements += s.batch_fast_placements;
            totals.ect_snapshot_reuses += s.ect_snapshot_reuses;
            totals.ect_column_refills += s.ect_column_refills;
        }
        // Grid-level counter, zero-omitted in the sidecar.
        totals.queue_bucket_spills += sidecar
            .get("queue_bucket_spills")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let (group, cell) = group_cell(unit, &setting);
        index.entry(group).or_default().insert(cell, totals);
    }
    index
}

/// Sample mean and 95% confidence interval of one table cell across
/// seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval
    /// (`t(0.975, n−1) · s/√n`, Student-t so the handful-of-seeds
    /// campaigns specs actually run get honest intervals; zero for a
    /// single sample).
    pub ci95: f64,
    /// Number of seeds the cell was observed under.
    pub n: usize,
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom.
/// Specs list a handful of seeds, where the normal approximation's 1.96
/// would understate the interval by up to 2.2× (df = 2); beyond the
/// table the quantile is within 2% of the normal limit.
fn t_975(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::NAN,
        _ => TABLE.get(df - 1).copied().unwrap_or(1.96),
    }
}

/// Constant-memory running mean/M2 accumulator (Welford's algorithm).
///
/// The *only* statistics kernel in the crate: [`mean_ci`] folds its
/// slice through one and the streaming seed aggregation keeps one per
/// table cell, so a value sequence yields bit-identical [`MeanCi`]s
/// whether it arrives as a vector or one record at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Samples folded so far.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Mean/95%-CI summary of everything folded so far.
    pub fn finish(&self) -> MeanCi {
        let n = self.n as usize;
        match n {
            0 => MeanCi {
                mean: f64::NAN,
                ci95: f64::NAN,
                n: 0,
            },
            1 => MeanCi {
                mean: self.mean,
                ci95: 0.0,
                n,
            },
            _ => {
                let var = self.m2 / (self.n as f64 - 1.0);
                MeanCi {
                    mean: self.mean,
                    ci95: t_975(n - 1) * (var / self.n as f64).sqrt(),
                    n,
                }
            }
        }
    }
}

/// Mean/CI of a sample (sample standard deviation, n−1 denominator): a
/// [`Welford`] fold over the slice, so the vector and incremental paths
/// share one operation sequence.
pub fn mean_ci(values: &[f64]) -> MeanCi {
    let mut w = Welford::default();
    for &v in values {
        w.push(v);
    }
    w.finish()
}

/// One cross-seed table-set group: everything but the seed axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeedAggKey {
    /// Heterogeneous platform flavour?
    pub heterogeneous: bool,
    /// Reallocation period, seconds.
    pub period_s: u64,
    /// Algorithm-1 threshold, seconds.
    pub threshold_s: u64,
    /// Injected faults.
    pub fault: Fault,
}

/// Cross-seed statistics of one group.
#[derive(Debug, Clone)]
pub struct SeedAggregate {
    /// Seeds folded into this group.
    pub n_seeds: usize,
    /// Mean/CI per table cell and metric.
    pub cells: HashMap<(ExperimentKey, Metric), MeanCi>,
}

/// Constant-memory cross-seed fold: one [`Welford`] per
/// `(group-sans-seed, cell, metric)` plus a last-seed counter, instead
/// of the per-seed value vectors — peak memory is proportional to the
/// number of distinct table cells, never to the seed count or run count.
///
/// Push comparisons in ascending [`GroupKey`] order (the order the
/// per-seed group map iterates) and [`StreamAgg::seed_aggregates`] is
/// bit-identical to [`CampaignResults::seed_aggregates`].
#[derive(Debug, Clone, Default)]
pub struct StreamAgg {
    groups: BTreeMap<SeedAggKey, StreamGroup>,
}

#[derive(Debug, Clone, Default)]
struct StreamGroup {
    /// Seed counting exploits the ascending push order: within one
    /// cross-seed group, a seed's cells arrive contiguously, so a
    /// last-seed edge detector counts distinct seeds in O(1) memory —
    /// no seed set that would grow with thousand-seed cells.
    last_seed: Option<u64>,
    n_seeds: usize,
    cells: HashMap<(ExperimentKey, Metric), Welford>,
}

impl StreamAgg {
    /// Fold one cell comparison of one per-seed group.
    pub fn push(&mut self, group: &GroupKey, cell: ExperimentKey, comparison: &Comparison) {
        let key = SeedAggKey {
            heterogeneous: group.heterogeneous,
            period_s: group.period_s,
            threshold_s: group.threshold_s,
            fault: group.fault,
        };
        let g = self.groups.entry(key).or_default();
        if g.last_seed != Some(group.seed) {
            g.last_seed = Some(group.seed);
            g.n_seeds += 1;
        }
        for metric in Metric::ALL {
            g.cells
                .entry((cell, metric))
                .or_default()
                .push(metric.of(comparison));
        }
    }

    /// Finish every accumulator into the cross-seed aggregate map.
    pub fn seed_aggregates(&self) -> BTreeMap<SeedAggKey, SeedAggregate> {
        self.groups
            .iter()
            .map(|(key, g)| {
                let aggregate = SeedAggregate {
                    n_seeds: g.n_seeds,
                    cells: g
                        .cells
                        .iter()
                        .map(|(cell, w)| (*cell, w.finish()))
                        .collect(),
                };
                (*key, aggregate)
            })
            .collect()
    }
}

impl CampaignResults {
    /// `true` when any group carries an injected fault — the single
    /// gate for every fault-aware export surface (group headers, the
    /// CSV `fault` column): healthy campaigns must stay byte-identical
    /// to the pre-fault engine everywhere at once.
    fn faulted(&self) -> bool {
        self.groups.keys().any(|g| !g.fault.is_none())
    }

    /// Fold the per-seed groups into per-`(flavour, period, threshold)`
    /// cross-seed statistics — a [`StreamAgg`] fold in group order, so
    /// the materialised and record-streaming paths share one kernel.
    pub fn seed_aggregates(&self) -> BTreeMap<SeedAggKey, SeedAggregate> {
        let mut agg = StreamAgg::default();
        for (group, results) in &self.groups {
            for (cell, comparison) in &results.comparisons {
                agg.push(group, *cell, comparison);
            }
        }
        agg.seed_aggregates()
    }

    /// Build one cross-seed table (means or CI half-widths) in the same
    /// layout as the per-seed paper tables.
    fn agg_table(
        &self,
        agg: &SeedAggregate,
        key: SeedAggKey,
        algorithm: grid_realloc::ReallocAlgorithm,
        metric: Metric,
        ci: bool,
    ) -> PaperTable {
        let columns: Vec<String> = self
            .spec
            .scenarios
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        let flavour = if key.heterogeneous {
            "heterogeneous"
        } else {
            "homogeneous"
        };
        let what = if ci { "95% CI half-width" } else { "mean" };
        // Like the per-seed tables: paper strategies carry their table
        // number, registry-only strategies carry their name instead so
        // two of them in one spec stay distinguishable.
        let (number, algo_tag) = match table_number(algorithm, metric, key.heterogeneous) {
            Some(n) => (format!("Table {n}, "), String::new()),
            None => (String::new(), format!(" [{algorithm}]")),
        };
        let title = format!(
            "{number}{} on {flavour} platforms{}{algo_tag} — {what} over {} seeds",
            metric.describe(),
            algorithm.strategy().title_note(),
            agg.n_seeds,
        );
        let mut table = PaperTable::new(title, columns, metric.has_avg()).decimals(
            // CI half-widths of integer metrics still need decimals.
            if ci {
                metric.decimals().max(2)
            } else {
                metric.decimals()
            },
        );
        let has_row = |policy: BatchPolicy, heuristic: Heuristic| {
            agg.cells.keys().any(|(k, _)| {
                k.policy == policy && k.heuristic == heuristic && k.algorithm == algorithm
            })
        };
        let cell_keys = || agg.cells.keys().map(|(k, _)| k);
        for policy in grid_realloc::experiments::ordered_policies(cell_keys()) {
            for heuristic in grid_realloc::experiments::ordered_heuristics(cell_keys()) {
                if !has_row(policy, heuristic) {
                    continue;
                }
                let values: Vec<f64> = self
                    .spec
                    .scenarios
                    .iter()
                    .map(|&scenario| {
                        let cell = ExperimentKey {
                            scenario,
                            policy,
                            algorithm,
                            heuristic,
                        };
                        agg.cells
                            .get(&(cell, metric))
                            .map(|s| if ci { s.ci95 } else { s.mean })
                            .unwrap_or(f64::NAN)
                    })
                    .collect();
                let label = format!("{}{}", heuristic.label(), algorithm.suffix());
                table.push_row(&policy.to_string(), label, values);
            }
        }
        table
    }

    /// Render every paper table of every group, in paper order.
    ///
    /// Single-seed campaigns render one table set per
    /// `(flavour, seed, period, threshold)` group, exactly as the paper
    /// prints them. Multi-seed campaigns render one *aggregated* set per
    /// `(flavour, period, threshold)` instead: per-cell means followed by
    /// the 95% CI half-widths (the per-seed rows stay available in the
    /// CSV export).
    pub fn render_tables(&self) -> String {
        if self.spec.seeds.len() > 1 {
            return self.render_seed_aggregated_tables();
        }
        self.render_per_seed_tables()
    }

    /// The classic per-seed rendering.
    fn render_per_seed_tables(&self) -> String {
        let mut out = String::new();
        let faulted = self.faulted();
        let multi_group = self.groups.len() > 1 || faulted;
        for (key, results) in &self.groups {
            if multi_group {
                // The fault segment appears only in faulted campaigns,
                // keeping healthy-campaign reports byte-identical to the
                // pre-fault engine (golden suite).
                let fault = if faulted {
                    format!(" / fault {}", key.fault)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "## group: {} / seed {} / period {}s / threshold {}s{fault}\n\n",
                    if key.heterogeneous {
                        "heterogeneous"
                    } else {
                        "homogeneous"
                    },
                    key.seed,
                    key.period_s,
                    key.threshold_s,
                ));
            }
            for algorithm in &self.spec.algorithms {
                for metric in Metric::ALL {
                    out.push_str(&format!(
                        "{}\n",
                        results.table(*algorithm, metric, &self.spec.scenarios)
                    ));
                }
            }
        }
        out
    }

    /// The multi-seed rendering: one group per sweep point, mean + CI.
    fn render_seed_aggregated_tables(&self) -> String {
        let mut out = String::new();
        let faulted = self.faulted();
        for (key, agg) in self.seed_aggregates() {
            let fault = if faulted {
                format!(" / fault {}", key.fault)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "## group: {} / period {}s / threshold {}s{fault} — mean ± 95% CI over {} seeds\n\n",
                if key.heterogeneous {
                    "heterogeneous"
                } else {
                    "homogeneous"
                },
                key.period_s,
                key.threshold_s,
                agg.n_seeds,
            ));
            for &algorithm in &self.spec.algorithms {
                for metric in Metric::ALL {
                    out.push_str(&format!(
                        "{}\n{}\n",
                        self.agg_table(&agg, key, algorithm, metric, false),
                        self.agg_table(&agg, key, algorithm, metric, true),
                    ));
                }
            }
        }
        out
    }

    /// Flat CSV export: one row per comparison cell.
    ///
    /// Policy-expression fields may contain commas
    /// (`load-threshold(factor=1.5, floor_s=30)`); such fields are
    /// CSV-quoted. Bare names are emitted unquoted, byte-identical to
    /// the pre-expression exports. Campaigns with a fault axis gain a
    /// `fault` column (canonical fault expression per cell); healthy
    /// campaigns keep the historical header byte for byte.
    pub fn to_csv(&self) -> String {
        self.csv_with(None)
    }

    /// [`CampaignResults::to_csv`] plus nine scheduler-effort columns
    /// per row (`first_fit_probes,suffix_repairs,recomputes,evicted,
    /// profile_promotions,batch_fast_placements,queue_bucket_spills,
    /// ect_snapshot_reuses,ect_column_refills`) filled from the
    /// telemetry sidecars; cells without a sidecar render as empty
    /// fields.
    pub fn to_csv_with_stats(&self, stats: &StatsIndex) -> String {
        self.csv_with(Some(stats))
    }

    fn csv_with(&self, stats: Option<&StatsIndex>) -> String {
        let faulted = self.faulted();
        let mut out = csv_header(faulted, stats.is_some());
        for (group, results) in &self.groups {
            let mut keys: Vec<&ExperimentKey> = results.comparisons.keys().collect();
            keys.sort_by_key(|k| {
                (
                    k.scenario.label(),
                    k.policy.to_string(),
                    k.algorithm.to_string(),
                    k.heuristic.label(),
                )
            });
            for key in keys {
                let c = &results.comparisons[key];
                let stats_field = match stats {
                    None => String::new(),
                    Some(index) => match index.get(group).and_then(|cells| cells.get(key)) {
                        Some(s) => format!(
                            ",{},{},{},{},{},{},{},{},{}",
                            s.first_fit_probes,
                            s.suffix_repairs,
                            s.recomputes,
                            s.evicted,
                            s.profile_promotions,
                            s.batch_fast_placements,
                            s.queue_bucket_spills,
                            s.ect_snapshot_reuses,
                            s.ect_column_refills
                        ),
                        None => ",,,,,,,".to_string(),
                    },
                };
                out.push_str(&csv_row(group, key, c, faulted, &stats_field));
            }
        }
        out
    }

    /// JSON export mirroring the CSV rows, plus table numbers for the
    /// cells that correspond to paper tables.
    pub fn to_json(&self) -> Value {
        self.json_with(None)
    }

    /// [`CampaignResults::to_json`] with a `sched_stats` object per cell
    /// row (sidecar-derived scheduler-effort counters); rows without a
    /// sidecar omit the key.
    pub fn to_json_with_stats(&self, stats: &StatsIndex) -> Value {
        self.json_with(Some(stats))
    }

    fn json_with(&self, stats: Option<&StatsIndex>) -> Value {
        let mut rows = Vec::new();
        for (group, results) in &self.groups {
            let mut keys: Vec<&ExperimentKey> = results.comparisons.keys().collect();
            keys.sort_by_key(|k| {
                (
                    k.scenario.label(),
                    k.policy.to_string(),
                    k.algorithm.to_string(),
                    k.heuristic.label(),
                )
            });
            for key in keys {
                let c = &results.comparisons[key];
                let mut row = c.to_json();
                row.insert("scenario", key.scenario.label());
                row.insert("platform", if group.heterogeneous { "het" } else { "hom" });
                row.insert("policy", key.policy.to_string());
                row.insert("algorithm", key.algorithm.to_string());
                row.insert("heuristic", key.heuristic.label());
                row.insert("period_s", group.period_s);
                row.insert("threshold_s", group.threshold_s);
                row.insert("seed", group.seed);
                // Healthy cells omit the key (byte-compat with pre-fault
                // exports); faulted cells carry the canonical expression.
                if !group.fault.is_none() {
                    row.insert("fault", group.fault.name());
                }
                if let Some(s) = stats.and_then(|index| index.get(group)?.get(key)) {
                    let mut sched = Value::object();
                    sched.insert("first_fit_probes", s.first_fit_probes);
                    sched.insert("suffix_repairs", s.suffix_repairs);
                    sched.insert("recomputes", s.recomputes);
                    sched.insert("evicted", s.evicted);
                    sched.insert("profile_promotions", s.profile_promotions);
                    sched.insert("batch_fast_placements", s.batch_fast_placements);
                    sched.insert("queue_bucket_spills", s.queue_bucket_spills);
                    sched.insert("ect_snapshot_reuses", s.ect_snapshot_reuses);
                    sched.insert("ect_column_refills", s.ect_column_refills);
                    row.insert("sched_stats", sched);
                }
                row.insert(
                    "paper_tables",
                    Value::Arr(
                        Metric::ALL
                            .iter()
                            .filter_map(|&m| table_number(key.algorithm, m, group.heterogeneous))
                            .map(|n| Value::UInt(n as u64))
                            .collect(),
                    ),
                );
                rows.push(row);
            }
        }
        let mut root = Value::object();
        root.insert("campaign", self.spec.name.as_str());
        root.insert("engine", crate::ENGINE_VERSION);
        root.insert("cells", Value::Arr(rows));
        if self.spec.seeds.len() > 1 {
            let mut agg_rows = Vec::new();
            for (key, agg) in self.seed_aggregates() {
                let mut cells: Vec<(&ExperimentKey, &Metric, &MeanCi)> =
                    agg.cells.iter().map(|((k, m), s)| (k, m, s)).collect();
                cells.sort_by_key(|(k, m, _)| {
                    (
                        k.scenario.label(),
                        k.policy.to_string(),
                        k.algorithm.to_string(),
                        k.heuristic.label(),
                        format!("{m:?}"),
                    )
                });
                for (cell, metric, stats) in cells {
                    let mut row = Value::object();
                    row.insert("scenario", cell.scenario.label());
                    row.insert("platform", if key.heterogeneous { "het" } else { "hom" });
                    row.insert("policy", cell.policy.to_string());
                    row.insert("algorithm", cell.algorithm.to_string());
                    row.insert("heuristic", cell.heuristic.label());
                    row.insert("period_s", key.period_s);
                    row.insert("threshold_s", key.threshold_s);
                    if !key.fault.is_none() {
                        row.insert("fault", key.fault.name());
                    }
                    row.insert("metric", format!("{metric:?}"));
                    row.insert("mean", stats.mean);
                    row.insert("ci95", stats.ci95);
                    row.insert("seeds", stats.n as u64);
                    agg_rows.push(row);
                }
            }
            root.insert("seed_aggregates", Value::Arr(agg_rows));
        }
        root
    }
}

/// The CSV header line, shared by the materialised and streaming
/// exports so they cannot drift.
fn csv_header(faulted: bool, stats: bool) -> String {
    let fault_col = if faulted { ",fault" } else { "" };
    let stats_col = if stats {
        // New columns append after `evicted` — tooling that greps the
        // original four keeps matching.
        ",first_fit_probes,suffix_repairs,recomputes,evicted,\
         profile_promotions,batch_fast_placements,queue_bucket_spills,\
         ect_snapshot_reuses,ect_column_refills"
    } else {
        ""
    };
    format!(
        "scenario,platform,policy,algorithm,heuristic,period_s,threshold_s,seed{fault_col},\
         n_jobs,impacted,earlier,later,reallocations,pct_impacted,pct_earlier,rel_avg_response\
         {stats_col}\n",
    )
}

/// One CSV row (with trailing newline), shared by the materialised and
/// streaming exports.
fn csv_row(
    group: &GroupKey,
    key: &ExperimentKey,
    c: &Comparison,
    faulted: bool,
    stats_field: &str,
) -> String {
    let fault_field = if faulted {
        format!(",{}", csv_field(group.fault.name()))
    } else {
        String::new()
    };
    format!(
        "{},{},{},{},{},{},{},{}{fault_field},{},{},{},{},{},{},{},{}{stats_field}\n",
        key.scenario.label(),
        if group.heterogeneous { "het" } else { "hom" },
        csv_field(key.policy.name()),
        csv_field(key.algorithm.name()),
        csv_field(key.heuristic.label()),
        group.period_s,
        group.threshold_s,
        group.seed,
        c.n_jobs,
        c.impacted,
        c.earlier,
        c.later,
        c.reallocations,
        c.pct_impacted,
        c.pct_earlier,
        c.rel_avg_response,
    )
}

/// Quote a CSV field if it contains a delimiter or quote (RFC 4180);
/// bare policy names pass through untouched.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Convenience used by tests and the facade: aggregate into the two
/// classic suite-result objects when the campaign has exactly the
/// paper's (hom, het) group structure.
pub fn paper_suites(results: &CampaignResults) -> Option<(SuiteResults, SuiteResults)> {
    if results.groups.len() != 2 {
        return None;
    }
    let mut hom = None;
    let mut het = None;
    for (key, suite) in &results.groups {
        if key.heterogeneous {
            het = Some(suite.clone());
        } else {
            hom = Some(suite.clone());
        }
    }
    Some((hom?, het?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use grid_realloc::{Heuristic, ReallocAlgorithm};
    use grid_workload::Scenario;

    fn mini_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::paper();
        spec.name = "mini".into();
        spec.scenarios = vec![Scenario::Jun];
        spec.heterogeneity = vec![false, true];
        spec.policies = vec![BatchPolicy::Fcfs];
        spec.heuristics = vec![Heuristic::Mct, Heuristic::MinMin];
        spec.fraction = 0.01;
        spec
    }

    #[test]
    fn aggregation_matches_direct_comparison() {
        let spec = mini_spec();
        let plan = spec.expand();
        let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
        assert!(summary.failures.is_empty());
        let results = aggregate(&spec, &plan, &outcomes).unwrap();
        assert_eq!(results.groups.len(), 2); // hom + het

        // Recompute one cell by hand and compare.
        let reference_idx = plan
            .units
            .iter()
            .position(|u| u.kind == RunKind::Reference && !u.heterogeneous)
            .unwrap();
        let run_idx = plan
            .units
            .iter()
            .position(|u| {
                !u.heterogeneous
                    && matches!(u.kind, RunKind::Realloc(s) if s.heuristic == Heuristic::MinMin
                        && s.algorithm == ReallocAlgorithm::NoCancel)
            })
            .unwrap();
        let expected = Comparison::against_baseline(
            outcomes[reference_idx].as_ref().unwrap(),
            outcomes[run_idx].as_ref().unwrap(),
        );
        let group = results.groups.values().find(|g| !g.heterogeneous).unwrap();
        let got = group.comparisons[&ExperimentKey {
            scenario: Scenario::Jun,
            policy: BatchPolicy::Fcfs,
            algorithm: ReallocAlgorithm::NoCancel,
            heuristic: Heuristic::MinMin,
        }];
        assert_eq!(got, expected);

        // Exports include every cell.
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 2 * 2); // header + cells
        let json = results.to_json();
        assert_eq!(json.req_arr("cells").unwrap().len(), 8);
        let tables = results.render_tables();
        assert!(tables.contains("Table 2"));
        assert!(tables.contains("## group"));
    }

    /// The paper's matrix for one scenario and flavour at smoke scale
    /// (1% of the jobs), executed and aggregated by the engine.
    fn smoke_suite(scenario: Scenario, heterogeneous: bool) -> SuiteResults {
        let mut spec = CampaignSpec::paper();
        spec.scenarios = vec![scenario];
        spec.heterogeneity = vec![heterogeneous];
        spec.fraction = 0.01;
        let plan = spec.expand();
        let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
        assert!(summary.failures.is_empty());
        let mut groups = aggregate(&spec, &plan, &outcomes).unwrap().groups;
        assert_eq!(groups.len(), 1, "one flavour, one seed");
        groups.pop_first().unwrap().1
    }

    #[test]
    fn smoke_suite_produces_all_cells() {
        let scenarios = [Scenario::Jun];
        let results = smoke_suite(Scenario::Jun, false);
        assert_eq!(results.comparisons.len(), 2 * 2 * 6);
        for metric in Metric::ALL {
            for algo in ReallocAlgorithm::ALL {
                let t = results.table(algo, metric, &scenarios);
                for policy in ["FCFS", "CBF"] {
                    for h in Heuristic::ALL {
                        let label = format!("{}{}", h.label(), algo.suffix());
                        let v = t.get(policy, &label, "jun").unwrap();
                        assert!(v.is_finite(), "{policy}/{label}/{metric:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_suite_reallocation_is_meaningful() {
        // At least one configuration must actually migrate jobs, otherwise
        // the mechanism is dead code.
        let results = smoke_suite(Scenario::Apr, true);
        let total: u64 = results.comparisons.values().map(|c| c.reallocations).sum();
        assert!(total > 0, "no migrations in the whole smoke suite");
    }

    #[test]
    fn csv_fields_with_commas_are_quoted() {
        assert_eq!(csv_field("FCFS"), "FCFS");
        assert_eq!(csv_field("FCFS+CBF+CBF"), "FCFS+CBF+CBF");
        assert_eq!(
            csv_field("load-threshold(factor=1.5)"),
            "load-threshold(factor=1.5)"
        );
        // A two-argument canonical expression carries a comma: quoted.
        assert_eq!(
            csv_field("load-threshold(factor=1.5, floor_s=30)"),
            "\"load-threshold(factor=1.5, floor_s=30)\""
        );
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    /// A two-argument expression flows through the whole aggregation
    /// pipeline with intact (quoted) CSV rows.
    #[test]
    fn two_arg_expressions_survive_csv_export() {
        let mut spec = mini_spec();
        spec.heterogeneity = vec![false];
        spec.heuristics = vec![Heuristic::Mct];
        spec.algorithms = vec![grid_realloc::ReallocAlgorithm::resolve_expr(
            "load-threshold(factor=1.5, floor_s=30)",
        )
        .unwrap()];
        let plan = spec.expand();
        let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
        assert!(summary.failures.is_empty());
        let results = aggregate(&spec, &plan, &outcomes).unwrap();
        let csv = results.to_csv();
        let row = csv.lines().nth(1).expect("one cell row");
        assert!(
            row.contains("\"load-threshold(factor=1.5, floor_s=30)\""),
            "{row}"
        );
        // Field count is stable when the quoted comma is accounted for.
        assert_eq!(row.split(',').count(), 17, "16 fields + 1 quoted comma");
    }

    #[test]
    fn stats_columns_are_opt_in_and_sidecar_fed() {
        let mut spec = mini_spec();
        spec.heterogeneity = vec![false];
        spec.heuristics = vec![Heuristic::Mct];
        let plan = spec.expand();
        let dir = std::env::temp_dir().join(format!("grid-campaign-agg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let (outcomes, summary) = execute(&plan.units, Some(&cache), &ExecOptions::default());
        assert!(summary.failures.is_empty());
        let results = aggregate(&spec, &plan, &outcomes).unwrap();

        let index = stats_index(&plan, &cache);
        assert_eq!(index.len(), 1, "one group");
        let cells = index.values().next().unwrap();
        assert_eq!(cells.len(), 2, "one cell per algorithm");
        assert!(
            cells.values().all(|s| s.first_fit_probes > 0),
            "every run probes the profile"
        );

        // Plain CSV is byte-identical to the no-stats path; the stats
        // CSV appends exactly the nine columns (the original four first,
        // so pre-existing header greps keep matching).
        let plain = results.to_csv();
        let with = results.to_csv_with_stats(&index);
        assert!(!plain.contains("first_fit_probes"));
        let header = with.lines().next().unwrap();
        assert!(
            header.ends_with(
                "rel_avg_response,first_fit_probes,suffix_repairs,recomputes,evicted,\
                 profile_promotions,batch_fast_placements,queue_bucket_spills,\
                 ect_snapshot_reuses,ect_column_refills"
            ),
            "{header}"
        );
        for (a, b) in plain.lines().zip(with.lines()) {
            assert!(b.starts_with(a), "stats columns append, never rewrite");
            assert_eq!(b.split(',').count(), a.split(',').count() + 9);
        }

        // JSON rows gain a sched_stats object only on the stats path.
        let json = results.to_json_with_stats(&index);
        for row in json.req_arr("cells").unwrap() {
            let sched = row.get("sched_stats").expect("sidecar present for all");
            assert!(
                sched
                    .get("first_fit_probes")
                    .and_then(Value::as_u64)
                    .unwrap()
                    > 0
            );
            // The reallocation-round counters ride along (zero is fine —
            // a run without ticks never fills a column).
            assert!(sched.get("ect_snapshot_reuses").is_some());
            assert!(sched.get("ect_column_refills").is_some());
        }
        assert!(results.to_json().req_arr("cells").unwrap()[0]
            .get("sched_stats")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mean_ci_basics() {
        let single = mean_ci(&[3.0]);
        assert_eq!(single.mean, 3.0);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(single.n, 1);
        let s = mean_ci(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // s = 1, t(0.975, df=2) = 4.303: 4.303/sqrt(3) ≈ 2.4843 — the
        // honest small-sample interval, not the normal 1.96.
        assert!((s.ci95 - 4.303 / 3.0_f64.sqrt()).abs() < 1e-9);
        // Large samples converge to the normal quantile.
        let wide: Vec<f64> = (0..60).map(|i| f64::from(i % 7)).collect();
        let w = mean_ci(&wide);
        let var = wide.iter().map(|v| (v - w.mean).powi(2)).sum::<f64>() / 59.0;
        assert!((w.ci95 - 1.96 * (var / 60.0).sqrt()).abs() < 1e-9);
        assert!(mean_ci(&[]).mean.is_nan());
    }

    #[test]
    fn multi_seed_campaign_aggregates_across_seeds() {
        let mut spec = mini_spec();
        spec.seeds = vec![1, 2, 3];
        spec.heterogeneity = vec![false];
        let plan = spec.expand();
        let (outcomes, summary) = execute(&plan.units, None, &ExecOptions::default());
        assert!(summary.failures.is_empty());
        let results = aggregate(&spec, &plan, &outcomes).unwrap();
        // Per-seed groups remain (CSV keeps per-seed rows)…
        assert_eq!(results.groups.len(), 3);
        let csv = results.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3 * 4, "one CSV row per seed");
        // …but the rendered report is one aggregated group.
        let aggs = results.seed_aggregates();
        assert_eq!(aggs.len(), 1);
        let agg = aggs.values().next().unwrap();
        assert_eq!(agg.n_seeds, 3);
        // Pin one cell's mean against the raw per-seed values.
        let cell = ExperimentKey {
            scenario: Scenario::Jun,
            policy: BatchPolicy::Fcfs,
            algorithm: ReallocAlgorithm::NoCancel,
            heuristic: Heuristic::MinMin,
        };
        let per_seed: Vec<f64> = results
            .groups
            .values()
            .map(|g| g.comparisons[&cell].rel_avg_response)
            .collect();
        let expected = mean_ci(&per_seed);
        let got = agg.cells[&(cell, Metric::RelAvgResponse)];
        assert!((got.mean - expected.mean).abs() < 1e-12);
        assert!((got.ci95 - expected.ci95).abs() < 1e-12);
        // Rendering switches to the aggregated layout.
        let tables = results.render_tables();
        assert!(tables.contains("mean ± 95% CI over 3 seeds"), "{tables}");
        assert!(tables.contains("95% CI half-width"));
        assert!(!tables.contains("seed 1 /"), "no per-seed groups rendered");
        // JSON gains the aggregate block.
        let json = results.to_json();
        assert!(json.req_arr("seed_aggregates").unwrap().len() >= 4);
    }

    #[test]
    fn single_seed_rendering_is_unchanged_by_aggregation_support() {
        let spec = mini_spec();
        let plan = spec.expand();
        let (outcomes, _) = execute(&plan.units, None, &ExecOptions::default());
        let results = aggregate(&spec, &plan, &outcomes).unwrap();
        let tables = results.render_tables();
        assert!(tables.contains("## group"));
        assert!(!tables.contains("95% CI"));
    }

    #[test]
    fn missing_runs_are_reported() {
        let spec = mini_spec();
        let plan = spec.expand();
        let mut outcomes: Vec<Option<RunOutcome>> = plan
            .units
            .iter()
            .map(|_| Some(RunOutcome::default()))
            .collect();
        outcomes[3] = None;
        let err = aggregate(&spec, &plan, &outcomes).unwrap_err();
        assert!(err.contains("unavailable"), "{err}");
    }
}
