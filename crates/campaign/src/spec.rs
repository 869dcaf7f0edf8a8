//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] names every axis of the experiment matrix; it loads
//! from TOML or JSON and [expands](CampaignSpec::expand) into the run
//! units the engine executes. Axes omitted from a spec file default to the paper's values, so the
//! minimal spec `name = "paper"` *is* the paper's 364-run campaign.

use grid_batch::BatchPolicy;
use grid_des::Duration;
use grid_fault::Fault;
use grid_realloc::{Heuristic, ReallocAlgorithm};
use grid_ser::json::SerError;
use grid_ser::{toml, Value};
use grid_workload::Scenario;

use crate::plan::{CampaignPlan, ReallocSetting, RunKind, RunUnit};

/// Sequential-stopping rule for multi-seed campaigns: once the Student-t
/// 95% CI half-width of a cell's `rel_avg_response` (over the seeds run
/// so far, in spec seed order) falls to `target` or below, later seeds
/// of that cell are skipped. Declared as a `[converge]` table so every
/// runner of a fleet — and the report — applies the same frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Converge {
    /// CI half-width at or below which a cell stops scheduling seeds.
    pub target: f64,
    /// Seeds every cell runs before the rule may trigger (≥ 2 — one
    /// sample has no interval).
    pub min_seeds: usize,
}

impl Converge {
    /// Default minimum seeds before the stopping rule may trigger.
    pub const DEFAULT_MIN_SEEDS: usize = 3;
}

/// A declarative experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (used in reports and progress output).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Workload scenarios (paper: all seven traces).
    pub scenarios: Vec<Scenario>,
    /// Platform flavours: `false` = homogeneous, `true` = heterogeneous.
    pub heterogeneity: Vec<bool>,
    /// Local batch policies (paper: FCFS and CBF).
    pub policies: Vec<BatchPolicy>,
    /// Reallocation algorithms (paper: both).
    pub algorithms: Vec<ReallocAlgorithm>,
    /// Scheduling heuristics (paper: all six).
    pub heuristics: Vec<Heuristic>,
    /// Injected faults (paper: the healthy grid, `none`). Every fault
    /// point gets its own reference runs, so reallocation-vs-none
    /// comparisons measure the gain *under* the fault.
    pub faults: Vec<Fault>,
    /// Reallocation periods, seconds (paper: one hour).
    pub periods_s: Vec<u64>,
    /// Algorithm-1 improvement thresholds, seconds (paper: one minute).
    pub thresholds_s: Vec<u64>,
    /// Workload seeds — more than one turns the campaign into
    /// repetitions.
    pub seeds: Vec<u64>,
    /// Per-site job-count fraction, in `(0, 1]`.
    pub fraction: f64,
    /// Per-cell CI-convergence stopping for multi-seed campaigns
    /// (`None` = run every seed).
    pub converge: Option<Converge>,
}

impl CampaignSpec {
    /// The paper's full campaign: expands to exactly 364 runs
    /// (28 references + 336 reallocation runs).
    pub fn paper() -> CampaignSpec {
        CampaignSpec {
            name: "paper".into(),
            description: "Tables 2-17 of Caniou, Charrier, Desprez (RR-7226)".into(),
            scenarios: Scenario::ALL.to_vec(),
            heterogeneity: vec![false, true],
            policies: vec![BatchPolicy::Fcfs, BatchPolicy::Cbf],
            algorithms: ReallocAlgorithm::ALL.to_vec(),
            heuristics: Heuristic::ALL.to_vec(),
            faults: vec![Fault::NONE],
            periods_s: vec![3_600],
            thresholds_s: vec![60],
            seeds: vec![42],
            fraction: 1.0,
            converge: None,
        }
    }

    /// Load a spec from a file, dispatching on the `.toml` / `.json`
    /// extension.
    pub fn load(path: &std::path::Path) -> Result<CampaignSpec, SerError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SerError::new(format!("cannot read {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            _ => Self::from_toml_str(&text),
        }
    }

    /// Parse the TOML form.
    pub fn from_toml_str(text: &str) -> Result<CampaignSpec, SerError> {
        Self::from_value(&toml::parse(text)?)
    }

    /// Parse the JSON form.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, SerError> {
        Self::from_value(&Value::parse(text)?)
    }

    /// Build from a parsed [`Value`] tree (shared by both formats).
    ///
    /// Matrix axes live under a `[matrix]` table (or inline at top level
    /// for JSON convenience); every axis is optional and defaults to the
    /// paper's value.
    pub fn from_value(v: &Value) -> Result<CampaignSpec, SerError> {
        let paper = CampaignSpec::paper();
        if v.as_obj().is_none() {
            return Err(SerError::new(
                "campaign spec must be a table/object at the top level",
            ));
        }
        if let Some(m) = v.get("matrix") {
            if m.as_obj().is_none() {
                return Err(SerError::new("`matrix` must be a table of axes"));
            }
        }
        let matrix = v.get("matrix").unwrap_or(v);
        // A typoed or misplaced key silently falling back to a paper
        // default would run the wrong matrix under the user's label, so
        // reject anything unrecognised.
        reject_unknown_keys(v, matrix)?;
        let spec = CampaignSpec {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("unnamed")
                .to_string(),
            description: v
                .get("description")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            scenarios: parse_axis(matrix, "scenarios", &paper.scenarios, parse_scenario)?,
            heterogeneity: parse_axis(matrix, "platforms", &paper.heterogeneity, parse_flavour)?,
            policies: parse_axis(matrix, "policies", &paper.policies, parse_policy)?,
            algorithms: parse_axis(matrix, "algorithms", &paper.algorithms, parse_algorithm)?,
            heuristics: parse_axis(matrix, "heuristics", &paper.heuristics, parse_heuristic)?,
            faults: parse_axis(matrix, "faults", &paper.faults, parse_fault)?,
            periods_s: parse_u64_axis(matrix, "periods_s", &paper.periods_s)?,
            thresholds_s: parse_u64_axis(matrix, "thresholds_s", &paper.thresholds_s)?,
            seeds: parse_u64_axis(v, "seeds", &paper.seeds)?,
            fraction: v
                .get("fraction")
                .map(|f| {
                    f.as_f64()
                        .ok_or_else(|| SerError::new("`fraction` must be a number"))
                })
                .transpose()?
                .unwrap_or(paper.fraction),
            converge: v.get("converge").map(parse_converge).transpose()?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check the matrix is well-formed (non-empty axes, no duplicates,
    /// fraction in range).
    pub fn validate(&self) -> Result<(), SerError> {
        fn check<T: PartialEq + std::fmt::Debug>(axis: &str, items: &[T]) -> Result<(), SerError> {
            if items.is_empty() {
                return Err(SerError::new(format!("axis `{axis}` is empty")));
            }
            for (i, a) in items.iter().enumerate() {
                if items[..i].contains(a) {
                    return Err(SerError::new(format!(
                        "axis `{axis}` lists {a:?} twice — the expansion would double-count it"
                    )));
                }
            }
            Ok(())
        }
        check("scenarios", &self.scenarios)?;
        check("platforms", &self.heterogeneity)?;
        check("policies", &self.policies)?;
        check("algorithms", &self.algorithms)?;
        check("heuristics", &self.heuristics)?;
        check("faults", &self.faults)?;
        check("periods_s", &self.periods_s)?;
        check("thresholds_s", &self.thresholds_s)?;
        check("seeds", &self.seeds)?;
        // A per-site policy mix must assign exactly one policy per
        // cluster of every platform it will run on; catching it here
        // turns a mid-campaign run failure into a load-time spec error.
        for policy in &self.policies {
            let Some(sites) = policy.site_count() else {
                continue;
            };
            for &scenario in &self.scenarios {
                for &het in &self.heterogeneity {
                    let clusters = grid_realloc::experiments::platform_for(scenario, het).len();
                    if sites != clusters {
                        return Err(SerError::new(format!(
                            "policy mix `{policy}` assigns {sites} sites but scenario \
                             `{}`'s platform has {clusters} clusters",
                            scenario.label()
                        )));
                    }
                }
            }
        }
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(SerError::new(format!(
                "`fraction` must be in (0, 1], got {}",
                self.fraction
            )));
        }
        Ok(())
    }

    /// Expand the matrix into the deterministic run plan: one reference
    /// run per (seed, scenario, flavour, policy), then the cross product
    /// of reallocation settings.
    pub fn expand(&self) -> CampaignPlan {
        let mut units = Vec::with_capacity(self.total_runs());
        for &seed in &self.seeds {
            for &fault in &self.faults {
                for &scenario in &self.scenarios {
                    for &heterogeneous in &self.heterogeneity {
                        for &policy in &self.policies {
                            units.push(RunUnit {
                                scenario,
                                heterogeneous,
                                policy,
                                seed,
                                fraction: self.fraction,
                                fault,
                                kind: RunKind::Reference,
                            });
                        }
                    }
                }
            }
        }
        for &seed in &self.seeds {
            for &fault in &self.faults {
                for &scenario in &self.scenarios {
                    for &heterogeneous in &self.heterogeneity {
                        for &policy in &self.policies {
                            for &algorithm in &self.algorithms {
                                for &heuristic in &self.heuristics {
                                    for &period in &self.periods_s {
                                        for &threshold in &self.thresholds_s {
                                            units.push(RunUnit {
                                                scenario,
                                                heterogeneous,
                                                policy,
                                                seed,
                                                fraction: self.fraction,
                                                fault,
                                                kind: RunKind::Realloc(ReallocSetting {
                                                    algorithm,
                                                    heuristic,
                                                    period: Duration::secs(period),
                                                    threshold: Duration::secs(threshold),
                                                }),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        CampaignPlan { units }
    }

    /// Run count the expansion will produce.
    pub fn total_runs(&self) -> usize {
        let base = self.seeds.len()
            * self.faults.len()
            * self.scenarios.len()
            * self.heterogeneity.len()
            * self.policies.len();
        base + base
            * self.algorithms.len()
            * self.heuristics.len()
            * self.periods_s.len()
            * self.thresholds_s.len()
    }

    /// Every axis of the spec with canonically rendered values, in
    /// declaration order — the single rendering path for axis values, so
    /// a new axis cannot print (or be grepped in CI as) anything but the
    /// canonical expressions its handles hash into cache keys.
    /// `campaign plan` prints exactly this.
    pub fn axes(&self) -> Vec<(&'static str, Vec<String>)> {
        fn strings<T: ToString>(items: &[T]) -> Vec<String> {
            items.iter().map(ToString::to_string).collect()
        }
        vec![
            (
                "scenarios",
                self.scenarios
                    .iter()
                    .map(|s| s.label().to_string())
                    .collect(),
            ),
            (
                "platforms",
                self.heterogeneity
                    .iter()
                    .map(|&h| if h { "heterogeneous" } else { "homogeneous" }.to_string())
                    .collect(),
            ),
            ("policies", strings(&self.policies)),
            ("algorithms", strings(&self.algorithms)),
            ("heuristics", strings(&self.heuristics)),
            ("faults", strings(&self.faults)),
            ("periods_s", strings(&self.periods_s)),
            ("thresholds_s", strings(&self.thresholds_s)),
            ("seeds", strings(&self.seeds)),
        ]
    }
}

/// The matrix-axis keys (valid under `[matrix]`, or at top level in the
/// JSON convenience form).
const AXIS_KEYS: [&str; 8] = [
    "scenarios",
    "platforms",
    "policies",
    "algorithms",
    "heuristics",
    "faults",
    "periods_s",
    "thresholds_s",
];

/// Campaign-level keys valid at the top level only.
const TOP_KEYS: [&str; 6] = [
    "name",
    "description",
    "fraction",
    "seeds",
    "matrix",
    "converge",
];

///// Parse the `[converge]` table: `target` (required, > 0) and
/// `min_seeds` (optional, ≥ 2, default [`Converge::DEFAULT_MIN_SEEDS`]).
fn parse_converge(v: &Value) -> Result<Converge, SerError> {
    let Some(obj) = v.as_obj() else {
        return Err(SerError::new(
            "`converge` must be a table with `target` (and optional `min_seeds`)",
        ));
    };
    for key in obj.keys() {
        if !["target", "min_seeds"].contains(&key.as_str()) {
            return Err(SerError::new(format!(
                "unknown key `{key}` in [converge] (takes: target, min_seeds)"
            )));
        }
    }
    let target = v
        .get("target")
        .and_then(Value::as_f64)
        .ok_or_else(|| SerError::new("[converge] needs a numeric `target`"))?;
    if target.is_nan() || target <= 0.0 {
        return Err(SerError::new(format!(
            "[converge] target must be > 0, got {target}"
        )));
    }
    let min_seeds = match v.get("min_seeds") {
        None => Converge::DEFAULT_MIN_SEEDS,
        Some(m) => m
            .as_u64()
            .ok_or_else(|| SerError::new("[converge] min_seeds must be an integer"))?
            as usize,
    };
    if min_seeds < 2 {
        return Err(SerError::new(format!(
            "[converge] min_seeds must be at least 2 (one sample has no CI), got {min_seeds}"
        )));
    }
    Ok(Converge { target, min_seeds })
}

fn reject_unknown_keys(v: &Value, matrix: &Value) -> Result<(), SerError> {
    let has_matrix_table = !std::ptr::eq(matrix, v);
    if let Some(obj) = v.as_obj() {
        for key in obj.keys() {
            let known = TOP_KEYS.contains(&key.as_str())
                // Axes may sit at top level only in the no-[matrix] form;
                // with a [matrix] table present they would be silently
                // shadowed by it.
                || (!has_matrix_table && AXIS_KEYS.contains(&key.as_str()));
            if !known {
                return Err(SerError::new(format!(
                    "unknown or misplaced key `{key}` in campaign spec \
                     (top level takes: {}; matrix axes are: {})",
                    TOP_KEYS.join(", "),
                    AXIS_KEYS.join(", ")
                )));
            }
        }
    }
    // The [matrix] table may only hold axis keys — `seeds`/`fraction`
    // there would otherwise be silently ignored.
    if has_matrix_table {
        if let Some(obj) = matrix.as_obj() {
            for key in obj.keys() {
                if !AXIS_KEYS.contains(&key.as_str()) {
                    return Err(SerError::new(format!(
                        "key `{key}` is not a matrix axis — move it to the top level \
                         (axes are: {})",
                        AXIS_KEYS.join(", ")
                    )));
                }
            }
        }
    }
    Ok(())
}

fn parse_axis<T>(
    v: &Value,
    key: &str,
    default: &[T],
    parse: fn(&str) -> Result<T, SerError>,
) -> Result<Vec<T>, SerError>
where
    T: Clone,
{
    let Some(raw) = v.get(key) else {
        return Ok(default.to_vec());
    };
    // The string "all" (or ["all"]) selects the full axis.
    if raw.as_str() == Some("all") {
        return Ok(default.to_vec());
    }
    let arr = raw
        .as_arr()
        .ok_or_else(|| SerError::new(format!("`{key}` must be an array of strings")))?;
    if arr.len() == 1 && arr[0].as_str() == Some("all") {
        return Ok(default.to_vec());
    }
    arr.iter()
        .map(|item| {
            let s = item
                .as_str()
                .ok_or_else(|| SerError::new(format!("`{key}` entries must be strings")))?;
            parse(s)
        })
        .collect()
}

fn parse_u64_axis(v: &Value, key: &str, default: &[u64]) -> Result<Vec<u64>, SerError> {
    let Some(raw) = v.get(key) else {
        return Ok(default.to_vec());
    };
    // Dense integer axes also accept a `"lo..=hi"` / `"lo..hi"` range
    // string — a thousand-seed Monte-Carlo sweep should not need a
    // thousand-entry literal. The expansion is the same `Vec<u64>` an
    // explicit array would produce, so cache keys are unaffected.
    if let Some(s) = raw.as_str() {
        return parse_u64_range(s, key);
    }
    let arr = raw.as_arr().ok_or_else(|| {
        SerError::new(format!(
            "`{key}` must be an array of integers or a `lo..=hi` range string"
        ))
    })?;
    arr.iter()
        .map(|item| {
            item.as_u64().ok_or_else(|| {
                SerError::new(format!("`{key}` entries must be non-negative integers"))
            })
        })
        .collect()
}

/// Expand `"lo..=hi"` (inclusive) or `"lo..hi"` (half-open) into the
/// integer sequence it denotes. Empty and absurdly large ranges are
/// rejected up front — an empty axis would fail [`CampaignSpec::validate`]
/// anyway, but the message here names the actual mistake.
fn parse_u64_range(s: &str, key: &str) -> Result<Vec<u64>, SerError> {
    let bad = || {
        SerError::new(format!(
            "`{key}` range must look like `lo..=hi` or `lo..hi`, got `{s}`"
        ))
    };
    let (lo_str, hi_str, inclusive) = match (s.split_once("..="), s.split_once("..")) {
        (Some((lo, hi)), _) => (lo, hi, true),
        (None, Some((lo, hi))) => (lo, hi, false),
        _ => return Err(bad()),
    };
    let lo: u64 = lo_str.trim().parse().map_err(|_| bad())?;
    let hi: u64 = hi_str.trim().parse().map_err(|_| bad())?;
    let end = if inclusive {
        hi.checked_add(1).ok_or_else(bad)?
    } else {
        hi
    };
    if end <= lo {
        return Err(SerError::new(format!("`{key}` range `{s}` is empty")));
    }
    if end - lo > 1_000_000 {
        return Err(SerError::new(format!(
            "`{key}` range `{s}` expands to over a million entries"
        )));
    }
    Ok((lo..end).collect())
}

fn parse_scenario(s: &str) -> Result<Scenario, SerError> {
    Scenario::ALL
        .into_iter()
        .find(|sc| sc.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            SerError::new(format!(
                "unknown scenario `{s}` (expected one of {})",
                Scenario::ALL.map(|sc| sc.label()).join(", ")
            ))
        })
}

fn parse_flavour(s: &str) -> Result<bool, SerError> {
    match s.to_ascii_lowercase().as_str() {
        "homogeneous" | "hom" => Ok(false),
        "heterogeneous" | "het" => Ok(true),
        _ => Err(SerError::new(format!(
            "unknown platform flavour `{s}` (expected homogeneous/heterogeneous)"
        ))),
    }
}

/// Policies are full expressions, optionally per-site assignments:
/// `FCFS`, `EASY(protected=4)`, `FCFS+CBF+CBF`. Canonicalisation in the
/// registry makes `FCFS`, `fcfs()` and `CBF+CBF+CBF`→`CBF` identical
/// handles, so spelling variants collide in the duplicate check instead
/// of silently double-counting runs.
fn parse_policy(s: &str) -> Result<BatchPolicy, SerError> {
    BatchPolicy::resolve_assignment(s).map_err(SerError::new)
}

/// Algorithms are expressions too: `load-threshold(factor=1.5)` sweeps
/// Savvas & Kechadi's imbalance factor from the spec file.
fn parse_algorithm(s: &str) -> Result<ReallocAlgorithm, SerError> {
    ReallocAlgorithm::resolve_expr(s).map_err(SerError::new)
}

fn parse_heuristic(s: &str) -> Result<Heuristic, SerError> {
    Heuristic::resolve_expr(s).map_err(SerError::new)
}

/// Faults are (compound) expressions: `none`, `outage(mtbf_h=12)`,
/// `outage(mtbf_h=12)+ect-noise(sigma=0.5)`. Canonicalisation makes
/// spelling variants of one configuration collide in the duplicate
/// check instead of silently doubling the axis.
fn parse_fault(s: &str) -> Result<Fault, SerError> {
    Fault::resolve_expr(s).map_err(SerError::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_expands_to_364_runs() {
        let plan = CampaignSpec::paper().expand();
        assert_eq!(plan.len(), 364);
        assert_eq!(plan.reference_count(), 28);
        assert_eq!(plan.realloc_count(), 336);
        assert_eq!(CampaignSpec::paper().total_runs(), 364);
    }

    #[test]
    fn minimal_toml_defaults_to_the_paper_matrix() {
        let spec = CampaignSpec::from_toml_str("name = \"paper\"").unwrap();
        assert_eq!(spec.total_runs(), 364);
        assert_eq!(spec.fraction, 1.0);
    }

    #[test]
    fn axes_can_be_restricted() {
        let spec = CampaignSpec::from_toml_str(
            r#"
name = "quick"
fraction = 0.01
seeds = [1, 2]

[matrix]
scenarios = ["jun"]
platforms = ["heterogeneous"]
policies = ["FCFS"]
algorithms = ["cancel-all"]
heuristics = ["Mct", "MinMin"]
periods_s = [1800, 3600]
"#,
        )
        .unwrap();
        // refs: 2 seeds * 1 * 1 * 1 = 2; realloc: 2 * 1*2*2*1 = 8.
        assert_eq!(spec.total_runs(), 10);
        let plan = spec.expand();
        assert_eq!(plan.len(), 10);
        assert_eq!(plan.reference_count(), 2);
    }

    #[test]
    fn u64_axes_accept_range_strings() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"mc\"\nseeds = \"1..=1000\"\n[matrix]\nperiods_s = \"1800..1802\"",
        )
        .unwrap();
        assert_eq!(spec.seeds.len(), 1000);
        assert_eq!(spec.seeds[0], 1);
        assert_eq!(spec.seeds[999], 1000);
        assert_eq!(spec.periods_s, vec![1800, 1801]);
        // The expansion is indistinguishable from the literal array form.
        let lit = CampaignSpec::from_toml_str("name = \"mc\"\nseeds = [1, 2, 3]").unwrap();
        let rng = CampaignSpec::from_toml_str("name = \"mc\"\nseeds = \"1..=3\"").unwrap();
        assert_eq!(lit.seeds, rng.seeds);
        for bad in ["3..=1", "5..5", "1..=", "..7", "a..b"] {
            let toml = format!("name = \"mc\"\nseeds = \"{bad}\"");
            assert!(
                CampaignSpec::from_toml_str(&toml).is_err(),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn json_form_is_equivalent() {
        let spec = CampaignSpec::from_json_str(
            r#"{"name":"q","fraction":0.5,"matrix":{"scenarios":["apr"],"platforms":["hom"]}}"#,
        )
        .unwrap();
        assert_eq!(spec.scenarios, vec![Scenario::Apr]);
        assert_eq!(spec.heterogeneity, vec![false]);
        assert_eq!(spec.fraction, 0.5);
        // Unrestricted axes keep the paper defaults.
        assert_eq!(spec.heuristics.len(), 6);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(CampaignSpec::from_toml_str("fraction = 0.0").is_err());
        assert!(CampaignSpec::from_toml_str("fraction = 1.5").is_err());
        assert!(
            CampaignSpec::from_toml_str("[matrix]\nscenarios = [\"jan\", \"jan\"]").is_err(),
            "duplicate axis entries must be rejected"
        );
        assert!(CampaignSpec::from_toml_str("[matrix]\nscenarios = []").is_err());
        assert!(CampaignSpec::from_toml_str("[matrix]\nscenarios = [\"nope\"]").is_err());
        assert!(CampaignSpec::from_toml_str("[matrix]\nheuristics = [\"nope\"]").is_err());
    }

    #[test]
    fn unknown_and_misplaced_keys_are_rejected() {
        // Typoed axis name: would otherwise silently run all 7 scenarios.
        let err = CampaignSpec::from_toml_str("[matrix]\nsenarios = [\"jun\"]").unwrap_err();
        assert!(err.to_string().contains("senarios"), "{err}");
        // Campaign-level key misplaced under [matrix]: would otherwise
        // silently keep seed 42.
        let err = CampaignSpec::from_toml_str("[matrix]\nseeds = [1, 2]").unwrap_err();
        assert!(err.to_string().contains("seeds"), "{err}");
        // Unknown top-level key.
        assert!(CampaignSpec::from_toml_str("wat = 1").is_err());
        // Malformed documents must not fall back to the 364-run default.
        assert!(CampaignSpec::from_json_str("\"oops\"").is_err());
        assert!(CampaignSpec::from_json_str("[1,2]").is_err());
        assert!(CampaignSpec::from_toml_str("matrix = 3").is_err());
        // Axis at top level while a [matrix] table exists: shadowed.
        let err =
            CampaignSpec::from_toml_str("scenarios = [\"jun\"]\n[matrix]\npolicies = [\"FCFS\"]")
                .unwrap_err();
        assert!(err.to_string().contains("scenarios"), "{err}");
        // But axes at top level are fine in the matrix-less (JSON) form.
        let spec = CampaignSpec::from_json_str(r#"{"scenarios":["jun"],"seeds":[7]}"#).unwrap();
        assert_eq!(spec.scenarios, vec![Scenario::Jun]);
        assert_eq!(spec.seeds, vec![7]);
    }

    #[test]
    fn registry_policies_parse_by_name() {
        let spec = CampaignSpec::from_toml_str(
            r#"
name = "registry"
[matrix]
policies = ["easy-sjf"]
algorithms = ["load-threshold"]
"#,
        )
        .unwrap();
        assert_eq!(spec.policies, vec![BatchPolicy::EasySjf]);
        assert_eq!(spec.algorithms, vec![ReallocAlgorithm::LoadThreshold]);
        // Error messages list the live registry.
        let err = CampaignSpec::from_toml_str("[matrix]\npolicies = [\"nope\"]").unwrap_err();
        assert!(err.to_string().contains("EASY-SJF"), "{err}");
    }

    #[test]
    fn expression_axes_canonicalise_and_sweep() {
        // Spelling variants of the default all parse to the same spec.
        let canonical = CampaignSpec::from_toml_str(
            "[matrix]\nalgorithms = [\"load-threshold\"]\npolicies = [\"FCFS\"]",
        )
        .unwrap();
        for spelled in [
            "load-threshold()",
            "load-threshold(factor=2)",
            "Load-Threshold",
        ] {
            let spec = CampaignSpec::from_toml_str(&format!(
                "[matrix]\nalgorithms = [\"{spelled}\"]\npolicies = [\"FCFS\"]"
            ))
            .unwrap();
            assert_eq!(spec.algorithms, canonical.algorithms, "{spelled}");
        }
        // A parameter sweep is two distinct axis entries.
        let sweep = CampaignSpec::from_toml_str(
            r#"
[matrix]
algorithms = ["load-threshold(factor=1.5)", "load-threshold(factor=3)"]
"#,
        )
        .unwrap();
        assert_eq!(sweep.algorithms.len(), 2);
        assert_ne!(sweep.algorithms[0], sweep.algorithms[1]);
        assert_eq!(sweep.algorithms[0].name(), "load-threshold(factor=1.5)");
        assert_eq!(sweep.algorithms[1].name(), "load-threshold(factor=3)");
        // Spelling variants of one configuration are duplicates.
        let err = CampaignSpec::from_toml_str(
            "[matrix]\nalgorithms = [\"load-threshold\", \"load-threshold(factor=2)\"]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // Ill-typed arguments surface the accepted parameter list.
        let err =
            CampaignSpec::from_toml_str("[matrix]\nalgorithms = [\"load-threshold(factor=soon)\"]")
                .unwrap_err();
        assert!(err.to_string().contains("factor: float = 2"), "{err}");
    }

    #[test]
    fn per_site_policy_mixes_parse_and_validate() {
        let spec = CampaignSpec::from_toml_str(
            r#"
[matrix]
scenarios = ["jun"]
policies = ["FCFS", "FCFS+CBF+CBF"]
"#,
        )
        .unwrap();
        assert_eq!(spec.policies.len(), 2);
        assert!(spec.policies[1].is_mix());
        assert_eq!(spec.policies[1].name(), "FCFS+CBF+CBF");
        // A uniform assignment collapses to the plain policy — and then
        // collides with it in the duplicate check.
        let err = CampaignSpec::from_toml_str("[matrix]\npolicies = [\"CBF\", \"CBF+CBF+CBF\"]")
            .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // Wrong arity for the paper's three-site platforms.
        let err = CampaignSpec::from_toml_str("[matrix]\npolicies = [\"FCFS+CBF\"]").unwrap_err();
        assert!(
            err.to_string().contains("2 sites") && err.to_string().contains("3 clusters"),
            "{err}"
        );
    }

    #[test]
    fn fault_axis_parses_canonicalises_and_multiplies_runs() {
        // Omitted axis = the healthy grid; explicit "none" is identical.
        let implicit = CampaignSpec::from_toml_str("name = \"paper\"").unwrap();
        let explicit =
            CampaignSpec::from_toml_str("name = \"paper\"\n[matrix]\nfaults = [\"none\"]").unwrap();
        assert_eq!(implicit.faults, vec![Fault::NONE]);
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.total_runs(), 364);
        // A three-point sweep triples the whole matrix, references too.
        let sweep = CampaignSpec::from_toml_str(
            r#"
[matrix]
scenarios = ["jun"]
platforms = ["hom"]
policies = ["FCFS"]
algorithms = ["cancel-all"]
heuristics = ["Mct"]
faults = ["none", "outage(mtbf_h=12)", "ECT-Noise(sigma=0.5, seed=0)"]
"#,
        )
        .unwrap();
        assert_eq!(sweep.faults.len(), 3);
        assert_eq!(sweep.faults[2].name(), "ect-noise(sigma=0.5)");
        assert_eq!(sweep.total_runs(), 3 + 3);
        let plan = sweep.expand();
        assert_eq!(plan.reference_count(), 3, "one reference per fault point");
        // Spelling variants of one fault are duplicates.
        let err =
            CampaignSpec::from_toml_str("[matrix]\nfaults = [\"outage\", \"outage(mtbf_h=24)\"]")
                .unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
        // Unknown components list the registry.
        let err = CampaignSpec::from_toml_str("[matrix]\nfaults = [\"meteor\"]").unwrap_err();
        assert!(
            err.to_string().contains("outage, ect-noise, perturb"),
            "{err}"
        );
    }

    #[test]
    fn axes_render_every_axis_canonically() {
        let spec = CampaignSpec::from_toml_str(
            r#"
seeds = [1, 2]
[matrix]
scenarios = ["jun"]
algorithms = ["load-threshold(factor=2)"]
heuristics = ["Sufferage(rank=1)", "sufferage(rank=2)"]
faults = ["ect-noise(sigma=0.5)+outage(mtbf_h=24.0)"]
"#,
        )
        .unwrap();
        let axes = spec.axes();
        let get =
            |name: &str| -> &Vec<String> { &axes.iter().find(|(n, _)| *n == name).unwrap().1 };
        // Canonical spellings, not the spec file's.
        assert_eq!(get("algorithms"), &["load-threshold"]);
        assert_eq!(get("heuristics"), &["Sufferage", "Sufferage(rank=2)"]);
        assert_eq!(get("faults"), &["outage+ect-noise(sigma=0.5)"]);
        assert_eq!(get("seeds"), &["1", "2"]);
        assert_eq!(get("periods_s"), &["3600"]);
        // Every matrix axis key is covered (plus seeds), so `plan`
        // cannot silently skip a new axis.
        for key in super::AXIS_KEYS {
            assert!(axes.iter().any(|(n, _)| *n == key), "axis {key} missing");
        }
        assert_eq!(axes.len(), super::AXIS_KEYS.len() + 1);
    }

    #[test]
    fn all_keyword_selects_full_axis() {
        let spec =
            CampaignSpec::from_toml_str("[matrix]\nscenarios = [\"all\"]\nheuristics = \"all\"")
                .unwrap();
        assert_eq!(spec.scenarios.len(), 7);
        assert_eq!(spec.heuristics.len(), 6);
    }
}
