//! Initial mapping policies of the meta-scheduler (paper §2.1).
//!
//! "The two simplest are Random […] and Round Robin […]. A Grid middleware
//! may also use other online algorithms such as Minimum Completion Time
//! (MCT) if some monitoring and performance prediction are available. In
//! this study, we consider that the meta-scheduler uses a MCT policy."
//!
//! MCT is the paper's choice; Random and Round-Robin are provided for the
//! mapping study (a campaign's `mappings` axis; `examples/ablation_a3_mapping.toml`).
//!
//! A [`MappingPolicy`] registry entry names the policy and builds its
//! per-run state ([`MapperState`] — the Round-Robin cursor, the Random
//! stream). A [`Mapping`] is a `Copy` handle resolved by expression
//! ([`Mapping::resolve_expr`]), so campaign layers and CLIs select
//! mappings as strings and a new policy is one implementation plus one
//! [`Mapping::BUILTINS`] entry.

use grid_batch::{Cluster, JobSpec};
use grid_des::{SimRng, SimTime};
use grid_ser::expr::{self, BoundArgs, Entry, Handle, ParamSpec};

/// Identity + factory of a mapping policy (the registry entry).
pub trait MappingPolicy: std::fmt::Debug + Sync {
    /// Canonical name, e.g. `MCT`; the registry key (case-insensitive).
    fn name(&self) -> &'static str;

    /// Build the per-run mutable state; `seed` feeds stochastic policies.
    fn make(&self, seed: u64) -> Box<dyn MapperState>;

    /// Parameters this entry accepts in policy expressions
    /// (`RoundRobin(offset=1)`). Default: none.
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Build a configured instance from validated arguments. Called only
    /// when at least one argument differs from its declared default.
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn MappingPolicy>, String> {
        let _ = args;
        Err(format!("`{}` takes no parameters", self.name()))
    }
}

/// Per-run state of a mapping policy.
pub trait MapperState: std::fmt::Debug + Send {
    /// Pick a cluster index for `job` among `fits` (indices of clusters
    /// the job can ever run on, ascending, never empty).
    fn assign(
        &mut self,
        clusters: &mut [Cluster],
        fits: &[usize],
        job: &JobSpec,
        now: SimTime,
    ) -> usize;
}

/// Copyable, comparable handle to a registered [`MappingPolicy`].
///
/// Identity (equality, hashing, display) is the canonical policy
/// expression: `RoundRobin` for the default configuration,
/// `RoundRobin(offset=1)` for a parameterised variant
/// ([`Mapping::resolve_expr`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mapping(Handle<dyn MappingPolicy>);

grid_ser::fmt_as_handle!(Mapping, 0);

impl Entry for dyn MappingPolicy {
    fn params(&self) -> Vec<ParamSpec> {
        MappingPolicy::params(self)
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<Self>, String> {
        MappingPolicy::with_params(self, args)
    }
}

#[allow(non_upper_case_globals)]
impl Mapping {
    /// Minimum completion time: ask every (fitting) cluster for an ECT and
    /// pick the smallest; ties go to the lowest cluster index.
    pub const Mct: Mapping = Mapping(Handle::new("MCT", &MctMapping));
    /// Uniformly random fitting cluster.
    pub const Random: Mapping = Mapping(Handle::new("Random", &RandomMapping));
    /// Cycle through the clusters, skipping those the job does not fit.
    /// `RoundRobin(offset=K)` starts the cursor at cluster K.
    pub const RoundRobin: Mapping = Mapping(Handle::new("RoundRobin", &RoundRobinMapping::DEFAULT));

    /// The registry: every base mapping (parameterised instances are
    /// reachable through expressions, not listed). Each key must equal
    /// its policy's `name()`; a unit test pins this.
    pub const BUILTINS: [Mapping; 3] = [Mapping::Mct, Mapping::Random, Mapping::RoundRobin];

    /// Canonical policy expression (`MCT`, `RoundRobin(offset=1)`, …) —
    /// the handle's identity.
    pub fn name(self) -> &'static str {
        self.0.key()
    }

    /// Look a base mapping up by name (case-insensitive). Bare names
    /// only; use [`Mapping::resolve_expr`] for parameterised forms.
    pub fn resolve(name: &str) -> Option<Mapping> {
        Self::BUILTINS
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// Resolve a mapping expression (`MCT`, `RoundRobin(offset=1)`) to a
    /// handle, validating arguments against the entry's declared
    /// [`params`](MappingPolicy::params) and canonicalising
    /// (default-valued arguments drop away).
    pub fn resolve_expr(input: &str) -> Result<Mapping, String> {
        let registry = Self::BUILTINS.map(|m| m.0);
        expr::resolve(input, &registry, "mapping policy").map(Mapping)
    }
}

/// Stateful mapper driving one run: the policy handle plus its state.
#[derive(Debug)]
pub struct Mapper {
    policy: Mapping,
    state: Box<dyn MapperState>,
}

impl Mapper {
    /// Create a mapper; `seed` feeds stochastic policies only.
    pub fn new(policy: Mapping, seed: u64) -> Self {
        Mapper {
            policy,
            state: policy.0.get().make(seed),
        }
    }

    /// The policy this mapper runs.
    pub fn policy(&self) -> Mapping {
        self.policy
    }

    /// Pick a cluster index for `job`, or `None` when no cluster can ever
    /// run it.
    pub fn assign(
        &mut self,
        clusters: &mut [Cluster],
        job: &JobSpec,
        now: SimTime,
    ) -> Option<usize> {
        let fits: Vec<usize> = (0..clusters.len())
            .filter(|&c| job.procs <= clusters[c].spec().procs && job.procs > 0)
            .collect();
        if fits.is_empty() {
            return None;
        }
        Some(self.state.assign(clusters, &fits, job, now))
    }
}

// ---------------------------------------------------------------------
// The paper's three built-in mappings
// ---------------------------------------------------------------------

/// Minimum completion time (the paper's choice).
#[derive(Debug)]
pub struct MctMapping;

impl MappingPolicy for MctMapping {
    fn name(&self) -> &'static str {
        "MCT"
    }
    fn make(&self, _seed: u64) -> Box<dyn MapperState> {
        Box::new(MctState)
    }
}

#[derive(Debug)]
struct MctState;

impl MapperState for MctState {
    fn assign(
        &mut self,
        clusters: &mut [Cluster],
        fits: &[usize],
        job: &JobSpec,
        now: SimTime,
    ) -> usize {
        let mut best: Option<(SimTime, usize)> = None;
        for &c in fits {
            let ect = clusters[c]
                .estimate_new(job, now)
                .expect("fitting cluster must produce an estimate");
            // Strict `<` keeps the lowest index on ties.
            if best.is_none_or(|(b, _)| ect < b) {
                best = Some((ect, c));
            }
        }
        best.expect("fits is never empty").1
    }
}

/// Uniformly random fitting cluster.
#[derive(Debug)]
pub struct RandomMapping;

impl MappingPolicy for RandomMapping {
    fn name(&self) -> &'static str {
        "Random"
    }
    fn make(&self, seed: u64) -> Box<dyn MapperState> {
        Box::new(RandomState {
            rng: SimRng::derive(seed, 0x4D41_5050), // "MAPP" stream tag
        })
    }
}

#[derive(Debug)]
struct RandomState {
    rng: SimRng,
}

impl MapperState for RandomState {
    fn assign(
        &mut self,
        _clusters: &mut [Cluster],
        fits: &[usize],
        _job: &JobSpec,
        _now: SimTime,
    ) -> usize {
        fits[self.rng.gen_range(0..fits.len())]
    }
}

/// Cycle through the clusters, skipping those the job does not fit.
#[derive(Debug)]
pub struct RoundRobinMapping {
    /// Initial cursor position (cluster index the first assignment
    /// starts probing at).
    offset: usize,
}

impl RoundRobinMapping {
    /// The classic cursor-at-zero configuration.
    pub const DEFAULT: RoundRobinMapping = RoundRobinMapping { offset: 0 };
}

impl MappingPolicy for RoundRobinMapping {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }
    fn make(&self, _seed: u64) -> Box<dyn MapperState> {
        Box::new(RoundRobinState {
            cursor: self.offset,
        })
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int(
            "offset",
            Some(0),
            "cluster index the cursor starts at",
        )]
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn MappingPolicy>, String> {
        let offset = args.i64("offset").expect("declared with a default");
        if offset < 0 {
            return Err(format!("`RoundRobin` needs offset >= 0, got {offset}"));
        }
        Ok(Box::new(RoundRobinMapping {
            offset: offset as usize,
        }))
    }
}

#[derive(Debug)]
struct RoundRobinState {
    cursor: usize,
}

impl MapperState for RoundRobinState {
    fn assign(
        &mut self,
        clusters: &mut [Cluster],
        fits: &[usize],
        _job: &JobSpec,
        _now: SimTime,
    ) -> usize {
        // Advance the cursor once per assignment, then walk until a
        // fitting cluster is found.
        for step in 0..clusters.len() {
            let c = (self.cursor + step) % clusters.len();
            if fits.contains(&c) {
                self.cursor = (c + 1) % clusters.len();
                return c;
            }
        }
        unreachable!("fits is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_batch::{BatchPolicy, ClusterSpec};

    fn clusters() -> Vec<Cluster> {
        vec![
            Cluster::new(ClusterSpec::new("a", 8, 1.0), BatchPolicy::Fcfs),
            Cluster::new(ClusterSpec::new("b", 4, 1.0), BatchPolicy::Fcfs),
            Cluster::new(ClusterSpec::new("c", 16, 1.0), BatchPolicy::Fcfs),
        ]
    }

    #[test]
    fn mct_picks_min_ect() {
        let mut cs = clusters();
        // Load cluster 0 so cluster 1 wins for a small job.
        cs[0]
            .submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        cs[0].start_due(SimTime(0));
        let mut m = Mapper::new(Mapping::Mct, 0);
        let job = JobSpec::new(1, 0, 2, 10, 10);
        // Clusters 1 and 2 are both free: ECT ties at 10 -> lowest index 1.
        assert_eq!(m.assign(&mut cs, &job, SimTime(0)), Some(1));
    }

    #[test]
    fn mct_tie_break_is_lowest_index() {
        let mut cs = clusters();
        let mut m = Mapper::new(Mapping::Mct, 0);
        let job = JobSpec::new(1, 0, 2, 10, 10);
        assert_eq!(m.assign(&mut cs, &job, SimTime(0)), Some(0));
    }

    #[test]
    fn oversized_job_maps_nowhere() {
        let mut cs = clusters();
        let mut m = Mapper::new(Mapping::Mct, 0);
        let job = JobSpec::new(1, 0, 64, 10, 10);
        assert_eq!(m.assign(&mut cs, &job, SimTime(0)), None);
    }

    #[test]
    fn large_job_only_fits_big_cluster() {
        let mut cs = clusters();
        for policy in [Mapping::Mct, Mapping::Random, Mapping::RoundRobin] {
            let mut m = Mapper::new(policy, 1);
            let job = JobSpec::new(1, 0, 12, 10, 10);
            assert_eq!(m.assign(&mut cs, &job, SimTime(0)), Some(2), "{policy}");
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut cs = clusters();
        let mut m = Mapper::new(Mapping::RoundRobin, 0);
        let job = JobSpec::new(1, 0, 2, 10, 10);
        let seq: Vec<usize> = (0..6)
            .map(|_| m.assign(&mut cs, &job, SimTime(0)).unwrap())
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_small_clusters() {
        let mut cs = clusters();
        let mut m = Mapper::new(Mapping::RoundRobin, 0);
        let big = JobSpec::new(1, 0, 8, 10, 10); // fits a (8) and c (16), not b (4)
        let seq: Vec<usize> = (0..4)
            .map(|_| m.assign(&mut cs, &big, SimTime(0)).unwrap())
            .collect();
        assert_eq!(seq, vec![0, 2, 0, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers_clusters() {
        let mut cs = clusters();
        let job = JobSpec::new(1, 0, 2, 10, 10);
        let draw = |seed: u64| -> Vec<usize> {
            let mut m = Mapper::new(Mapping::Random, seed);
            let mut cs = clusters();
            (0..30)
                .map(|_| m.assign(&mut cs, &job, SimTime(0)).unwrap())
                .collect()
        };
        assert_eq!(draw(5), draw(5));
        let picks = draw(5);
        for c in 0..3 {
            assert!(picks.contains(&c), "cluster {c} never picked");
        }
        let mut m = Mapper::new(Mapping::Random, 5);
        assert!(m.assign(&mut cs, &job, SimTime(0)).is_some());
    }

    #[test]
    fn registry_resolves_by_name() {
        assert_eq!(Mapping::resolve("mct"), Some(Mapping::Mct));
        assert_eq!(Mapping::resolve("roundrobin"), Some(Mapping::RoundRobin));
        assert_eq!(Mapping::resolve("nope"), None);
        let names: Vec<&str> = Mapping::BUILTINS.iter().map(|m| m.name()).collect();
        assert!(names.starts_with(&["MCT", "Random", "RoundRobin"]));
    }

    #[test]
    fn expressions_resolve_and_parameterise() {
        // Canonicalisation: explicit defaults are the base handle.
        assert_eq!(Mapping::resolve_expr("mct()").unwrap(), Mapping::Mct);
        assert_eq!(
            Mapping::resolve_expr("RoundRobin(offset=0)").unwrap(),
            Mapping::RoundRobin
        );
        // A configured cursor starts the cycle elsewhere.
        let offset = Mapping::resolve_expr("RoundRobin(offset=1)").unwrap();
        assert_eq!(offset.name(), "RoundRobin(offset=1)");
        assert_ne!(offset, Mapping::RoundRobin);
        let mut cs = clusters();
        let mut m = Mapper::new(offset, 0);
        let job = JobSpec::new(1, 0, 2, 10, 10);
        let seq: Vec<usize> = (0..4)
            .map(|_| m.assign(&mut cs, &job, SimTime(0)).unwrap())
            .collect();
        assert_eq!(seq, vec![1, 2, 0, 1], "cursor starts at cluster 1");
        // Errors list the registry / accepted parameters.
        let err = Mapping::resolve_expr("nope").unwrap_err();
        assert!(err.contains("unknown mapping policy"), "{err}");
        assert!(err.contains("MCT, Random, RoundRobin"), "{err}");
        let err = Mapping::resolve_expr("RoundRobin(start=1)").unwrap_err();
        assert!(err.contains("offset: int = 0"), "{err}");
        let err = Mapping::resolve_expr("MCT(x=2)").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
        assert!(Mapping::resolve_expr("RoundRobin(offset=-1)")
            .unwrap_err()
            .contains("offset >= 0"));
    }

    #[test]
    fn builtin_keys_match_policy_names() {
        for m in Mapping::BUILTINS {
            assert_eq!(m.name(), m.0.get().name(), "const key drifted for {m}");
        }
    }
}
