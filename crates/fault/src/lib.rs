//! # grid-fault — deterministic fault injection for robustness campaigns
//!
//! The paper evaluates task reallocation on a *healthy* dedicated grid;
//! the mechanism's whole point, though, is coping with a grid whose state
//! diverges from the plan. This crate supplies the three spec-level fault
//! models campaigns inject to measure that robustness, all seed-addressed
//! and byte-deterministic:
//!
//! * **Cluster outages** ([`OutageSpec`]) — sites go down and come back
//!   at stochastically drawn instants (exponential time-to-failure /
//!   time-to-repair). The grid driver kills the running jobs of a downed
//!   site, re-enters every evicted job into the grid mapper, and blocks
//!   the site's availability [`Profile`](grid_batch::Profile) until
//!   recovery.
//! * **ECT estimation noise** ([`EctNoiseSpec`]) — multiplicative
//!   lognormal error applied to the completion-time *estimates* the
//!   mapper and the reallocation heuristics see
//!   ([`grid_batch::EctNoise`] hooks the two middleware estimation
//!   queries), while true runtimes keep driving the discrete-event
//!   simulation.
//! * **Trace perturbation** ([`PerturbSpec`]) — per-job arrival jitter
//!   and runtime scaling over the SWF-derived workload, keyed by a
//!   perturbation seed.
//!
//! ## Fault expressions
//!
//! Faults are declared on the campaign-spec `faults` axis with the same
//! `name(key=value, …)` policy-expression machinery every other axis
//! uses ([`grid_ser::expr`]), and components compose with `+`:
//!
//! ```text
//! none                                      # the healthy grid (default)
//! outage(mtbf_h=12, mttr_h=2)               # site failures
//! ect-noise(sigma=0.5)                      # estimation error
//! perturb(jitter_s=600, runtime_factor=1.2) # trace perturbation
//! outage(mtbf_h=12)+ect-noise(sigma=0.5)    # combined
//! ```
//!
//! A [`Fault`] is a `Copy` handle whose identity is the canonical
//! expression: default-valued arguments drop away and components print
//! in a fixed order, so spelling variants collide instead of silently
//! doubling a campaign axis. The canonical `none` handle is
//! [`Fault::NONE`]; campaign descriptors omit the fault key entirely for
//! it, which keeps every pre-fault cache key and report byte-identical.

pub mod noise;
pub mod outage;
pub mod perturb;

pub use noise::EctNoiseSpec;
pub use outage::{OutageSpec, OutageWindow, OutageWindows};
pub use perturb::PerturbSpec;

use grid_ser::expr::{self, BoundArgs, Handle, PolicyExpr};

/// The resolved configuration of one fault expression: any combination
/// of the three fault models (all `None` = the healthy grid).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Cluster outage windows.
    pub outage: Option<OutageSpec>,
    /// Lognormal ECT estimation noise.
    pub ect_noise: Option<EctNoiseSpec>,
    /// Workload-trace perturbation.
    pub perturb: Option<PerturbSpec>,
}

/// Copyable, comparable handle to a resolved fault configuration.
///
/// Identity (equality, hashing, ordering, display, cache keys) is the
/// canonical fault expression, exactly like the policy handles of the
/// other campaign axes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault(Handle<FaultConfig>);

grid_ser::fmt_as_handle!(Fault, 0);

/// The component kinds, in canonical (display) order.
const KINDS: [&str; 3] = ["outage", "ect-noise", "perturb"];

impl Fault {
    /// The healthy grid: no faults injected. Campaign descriptors omit
    /// the fault key for this handle, so pre-fault cache keys survive.
    pub const NONE: Fault = Fault(Handle::new(
        "none",
        &FaultConfig {
            outage: None,
            ect_noise: None,
            perturb: None,
        },
    ));

    /// Canonical fault expression — the handle's identity.
    pub fn name(self) -> &'static str {
        self.0.key()
    }

    /// `true` for the healthy-grid handle.
    pub fn is_none(self) -> bool {
        self.name() == "none"
    }

    /// The resolved configuration.
    pub fn config(self) -> &'static FaultConfig {
        self.0.get()
    }

    /// Resolve a fault expression (`none`, `outage(mtbf_h=12)`,
    /// `outage(mtbf_h=12)+ect-noise(sigma=0.5)`) to a handle.
    ///
    /// Components are validated against their declared parameters —
    /// unknown or ill-typed keys error with the accepted list — and
    /// canonicalised: default-valued arguments drop away and components
    /// are ordered `outage`, `ect-noise`, `perturb`, so every spelling
    /// of one configuration is one handle.
    pub fn resolve_expr(input: &str) -> Result<Fault, String> {
        let parts = expr::split_plus(input);
        if parts.iter().any(|p| p.trim().is_empty()) {
            return Err(format!("`{input}`: empty fault component between `+`"));
        }
        let mut cfg = FaultConfig::default();
        // Canonical part per kind, indexed like `KINDS`.
        let mut canon: [Option<String>; 3] = [None, None, None];
        for part in &parts {
            let expr = PolicyExpr::parse(part)?;
            let kind = expr.name.to_ascii_lowercase();
            if kind == "none" {
                BoundArgs::bind(&expr, &[], "none")?;
                if parts.len() > 1 {
                    return Err(format!(
                        "`{input}`: `none` cannot be combined with other fault components"
                    ));
                }
                return Ok(Fault::NONE);
            }
            let slot = KINDS.iter().position(|k| *k == kind).ok_or_else(|| {
                format!(
                    "unknown fault component `{}` (registered: none, {})",
                    expr.name,
                    KINDS.join(", ")
                )
            })?;
            if canon[slot].is_some() {
                return Err(format!("`{input}`: fault component `{kind}` given twice"));
            }
            let bound = match slot {
                0 => {
                    let bound = BoundArgs::bind(&expr, &OutageSpec::params(), "outage")?;
                    cfg.outage = Some(OutageSpec::from_args(&bound)?);
                    bound
                }
                1 => {
                    let bound = BoundArgs::bind(&expr, &EctNoiseSpec::params(), "ect-noise")?;
                    cfg.ect_noise = Some(EctNoiseSpec::from_args(&bound)?);
                    bound
                }
                _ => {
                    let bound = BoundArgs::bind(&expr, &PerturbSpec::params(), "perturb")?;
                    cfg.perturb = Some(PerturbSpec::from_args(&bound)?);
                    bound
                }
            };
            canon[slot] = Some(bound.canonical(KINDS[slot]));
        }
        let key = canon
            .iter()
            .flatten()
            .cloned()
            .collect::<Vec<_>>()
            .join("+");
        debug_assert!(!key.is_empty(), "non-none expression must have a component");
        expr::intern(key, || Ok(Box::new(cfg))).map(Fault)
    }
}

/// Mix a fault-model seed into the run seed (SplitMix64-style), so a
/// spec-level `seed=` argument opens an independent stream family
/// without perturbing the workload seed's own streams.
pub(crate) fn mix_seed(run_seed: u64, fault_seed: u64) -> u64 {
    let mut z = run_seed ^ fault_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_resolves_to_the_const_handle() {
        for spelled in ["none", "NONE", " none ", "none()"] {
            let f = Fault::resolve_expr(spelled).unwrap();
            assert_eq!(f, Fault::NONE, "{spelled}");
            assert!(f.is_none());
            assert_eq!(f.name(), "none");
        }
        assert_eq!(Fault::NONE.config(), &FaultConfig::default());
    }

    #[test]
    fn default_valued_args_canonicalise_away() {
        let bare = Fault::resolve_expr("outage").unwrap();
        for spelled in [
            "outage()",
            "outage(mtbf_h=24)",
            "outage(mtbf_h=24.0, mttr_h=1)",
        ] {
            assert_eq!(Fault::resolve_expr(spelled).unwrap(), bare, "{spelled}");
        }
        assert_eq!(bare.name(), "outage");
        let cfg = bare.config().outage.expect("outage set");
        assert_eq!(cfg.mtbf_h, 24.0);
        assert_eq!(cfg.mttr_h, 1.0);
        // A non-default argument survives in the canonical key.
        let hot = Fault::resolve_expr("outage(mttr_h=1, mtbf_h=12)").unwrap();
        assert_eq!(hot.name(), "outage(mtbf_h=12)");
        assert_ne!(hot, bare);
    }

    #[test]
    fn compound_expressions_canonicalise_component_order() {
        let a = Fault::resolve_expr("ect-noise(sigma=0.5)+outage(mtbf_h=12)").unwrap();
        let b = Fault::resolve_expr("outage(mtbf_h=12)+ect-noise(sigma=0.5)").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.name(), "outage(mtbf_h=12)+ect-noise(sigma=0.5)");
        assert!(std::ptr::eq(a.name(), b.name()), "interned, not re-leaked");
        let cfg = a.config();
        assert!(cfg.outage.is_some() && cfg.ect_noise.is_some());
        assert!(cfg.perturb.is_none());
    }

    #[test]
    fn errors_name_the_component_and_list_params() {
        let err = Fault::resolve_expr("meteor(strength=9)").unwrap_err();
        assert!(err.contains("unknown fault component `meteor`"), "{err}");
        assert!(err.contains("outage, ect-noise, perturb"), "{err}");
        let err = Fault::resolve_expr("outage(mtbf=1)").unwrap_err();
        assert!(err.contains("unknown parameter `mtbf`"), "{err}");
        assert!(err.contains("mtbf_h: float = 24"), "{err}");
        let err = Fault::resolve_expr("ect-noise(sigma=loud)").unwrap_err();
        assert!(err.contains("expects float"), "{err}");
        let err = Fault::resolve_expr("outage(mtbf_h=0)").unwrap_err();
        assert!(err.contains("mtbf_h > 0"), "{err}");
        let err = Fault::resolve_expr("outage+outage(mtbf_h=12)").unwrap_err();
        assert!(err.contains("given twice"), "{err}");
        let err = Fault::resolve_expr("none+outage").unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
        let err = Fault::resolve_expr("none(x=1)").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
        assert!(Fault::resolve_expr("outage++perturb").is_err());
        let err = Fault::resolve_expr("perturb(runtime_factor=0)").unwrap_err();
        assert!(err.contains("runtime_factor > 0"), "{err}");
        let err = Fault::resolve_expr("ect-noise(sigma=-0.1)").unwrap_err();
        assert!(err.contains("sigma >= 0"), "{err}");
        // A clamped negative seed would keep a distinct cache key while
        // simulating identically to the default: rejected instead.
        for spelled in ["outage(seed=-1)", "ect-noise(seed=-1)", "perturb(seed=-1)"] {
            let err = Fault::resolve_expr(spelled).unwrap_err();
            assert!(err.contains("seed >= 0"), "{spelled}: {err}");
        }
    }

    #[test]
    fn handles_order_hash_and_display_by_key() {
        use std::collections::HashSet;
        let a = Fault::resolve_expr("ect-noise(sigma=0.5)").unwrap();
        let b = Fault::resolve_expr("ect-noise(sigma=0.5)").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "ect-noise(sigma=0.5)");
        assert_eq!(format!("{a:?}"), "ect-noise(sigma=0.5)");
        let set: HashSet<Fault> = [a, b, Fault::NONE].into();
        assert_eq!(set.len(), 2);
        assert!(a < Fault::NONE, "ordering is lexicographic on the key");
    }

    #[test]
    fn mix_seed_separates_fault_streams() {
        assert_ne!(mix_seed(42, 0), mix_seed(42, 1));
        assert_ne!(mix_seed(42, 0), mix_seed(43, 0));
        assert_eq!(mix_seed(42, 7), mix_seed(42, 7));
    }
}
