//! Pluggable local batch schedulers.
//!
//! The paper's §3.1 policies (FCFS, conservative and aggressive
//! back-filling) used to be a closed `enum` matched all over
//! [`Cluster`](crate::Cluster); they are now implementations of the
//! [`LocalScheduler`] trait held in a string-keyed registry. A
//! [`BatchPolicy`] is a `Copy` handle to a registered scheduler — identity
//! is the canonical *policy expression*, so handles compare, hash and
//! print exactly like the old enum did for the paper's bare names.
//!
//! ## Policy expressions
//!
//! Registry entries are selected by [`grid_ser::expr`] expressions:
//! `EASY` is the classic aggressive back-filler, `EASY(protected=4)` a
//! configured variant protecting the first four queued reservations.
//! Each entry declares its accepted parameters
//! ([`LocalScheduler::params`]) and builds configured instances
//! ([`LocalScheduler::with_params`]); [`BatchPolicy::resolve_expr`]
//! validates, canonicalises (default-valued arguments are dropped, so
//! `EASY`, `EASY()` and `EASY(protected=1)` are the same handle) and
//! interns one instance per distinct canonical expression.
//!
//! ## Per-cluster policy mixes
//!
//! A handle can also name a *per-site assignment*: `FCFS+CBF+CBF` (one
//! expression per cluster, joined with `+`) resolves via
//! [`BatchPolicy::resolve_assignment`] into a mix handle whose
//! [`for_site`](BatchPolicy::for_site) yields the cluster-local policy.
//! The grid driver expands mixes at cluster construction; a uniform
//! assignment (`CBF+CBF+CBF`) collapses to the plain handle, so the
//! homogeneous spelling stays canonical.
//!
//! Adding a policy is one file implementing [`LocalScheduler`] plus one
//! registry line ([`easy_sjf`](crate::easy_sjf) is the worked example; at
//! runtime, [`BatchPolicy::register`] does the same for downstream
//! crates).
//!
//! ## Scheduler contract
//!
//! [`LocalScheduler::schedule`] (re)computes the reservations of
//! `queue[from..]` against an availability [`Profile`] that already
//! carries the running jobs and the reservations of `queue[..from]`. Two
//! capabilities tell [`Cluster`](crate::Cluster) how much of the schedule
//! survives a mutation:
//!
//! * [`incremental_tail`](LocalScheduler::incremental_tail) — a new tail
//!   job never disturbs existing reservations (true for FCFS/CBF, false
//!   for the aggressive EASY family, which re-examines the whole queue);
//! * [`repair_from`](LocalScheduler::repair_from) — given a
//!   [`QueueDelta`] describing *what* changed (cancel at an index, early
//!   completion, aggressive tail submission), the smallest index a
//!   warm-profile suffix repair may start from while staying
//!   byte-identical to a full rebuild. FCFS/CBF repair from the dirty
//!   index itself (prefix placements never depend on the suffix); EASY
//!   repairs from the end of its *protected head* (protected
//!   reservations are placed in queue order against the running set
//!   only, so they are suffix-independent — everything after them must
//!   be re-examined together); EASY-SJF repairs from 0 (its examination
//!   order is a function of the whole queue, but re-running it against
//!   the warm running-set profile equals a rebuild). `None` keeps the
//!   conservative invalidate-and-rebuild behaviour.
//!
//! ## Batch first-fit
//!
//! A rebuild or repair places a whole queue suffix in one walk. Within
//! one [`schedule`](LocalScheduler::schedule) call capacity only ever
//! *decreases* (each placement carves a reservation), so a job at least
//! as wide and at least as long as an already-placed one can never start
//! earlier than it did. `BatchFit` tracks the dominance frontier of
//! this walk's placements and raises the `first_fit` search floor
//! accordingly — the descent resumes from the previous placement instead
//! of restarting at `now`, with byte-identical results. Placements that
//! actually rode a raised floor are counted via
//! [`Profile::note_batch_fast`].

use std::sync::Mutex;

use grid_des::{Duration, SimTime};
use grid_ser::expr::{BoundArgs, ParamSpec};

use crate::profile::Profile;

/// What changed in the waiting queue — the input to
/// [`LocalScheduler::repair_from`], so schedulers can pick a repair
/// point per mutation kind instead of per worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDelta {
    /// A new job was pushed at `index` (the queue tail).
    Submit {
        /// Queue index of the new job.
        index: usize,
    },
    /// The waiting job previously at `index` was removed.
    Cancel {
        /// Queue index the victim occupied.
        index: usize,
    },
    /// A running job completed before its walltime: the freed window
    /// starts at the completion instant, so every queued reservation may
    /// move earlier.
    Completion,
}

impl QueueDelta {
    /// First queue index whose placement the mutation can affect.
    pub fn dirty_from(self) -> usize {
        match self {
            QueueDelta::Submit { index } | QueueDelta::Cancel { index } => index,
            QueueDelta::Completion => 0,
        }
    }
}

/// Struct-of-arrays view of the waiting queue handed to
/// [`LocalScheduler::schedule`]: position-aligned slices of exactly the
/// fields the scheduler scan touches. `procs` and `walltime` are the
/// inputs, `reserved` the output (the computed start per queue
/// position).
#[derive(Debug)]
pub struct QueueScan<'a> {
    /// Processors required, per queue position.
    pub procs: &'a [u32],
    /// Scaled walltime, per queue position.
    pub walltime: &'a [Duration],
    /// Reserved start, per queue position — written by the scheduler.
    pub reserved: &'a mut [SimTime],
}

impl QueueScan<'_> {
    /// Queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` when the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

/// Dominance frontier over the placements of one `schedule` walk.
///
/// Soundness: within one walk capacity only decreases, so if a job of
/// `(p, d)` was placed at `s`, any later job with `procs >= p` and
/// `walltime >= d` cannot fit before `s` either — `first_fit` from
/// `max(now, s)` returns exactly what `first_fit` from `now` would.
/// Every recorded placement searched from the same base (`now`), which
/// keeps raised-floor results themselves recordable.
pub(crate) struct BatchFit {
    len: usize,
    entries: [(u32, Duration, SimTime); BatchFit::CAP],
}

impl BatchFit {
    const CAP: usize = 8;

    pub(crate) fn new() -> BatchFit {
        BatchFit {
            len: 0,
            entries: [(0, Duration(0), SimTime::ZERO); BatchFit::CAP],
        }
    }

    /// The highest start this walk has proven unreachable for a job at
    /// least `procs` wide and `walltime` long; never below `base`.
    pub(crate) fn floor(&self, base: SimTime, procs: u32, walltime: Duration) -> SimTime {
        let mut floor = base;
        for &(p, d, s) in &self.entries[..self.len] {
            if procs >= p && walltime >= d && s > floor {
                floor = s;
            }
        }
        floor
    }

    /// Record a placement of `(procs, walltime)` at `start`.
    pub(crate) fn note(&mut self, procs: u32, walltime: Duration, start: SimTime) {
        // Redundant when an existing entry applies at least as widely
        // and floors at least as high.
        if self.entries[..self.len]
            .iter()
            .any(|&(p, d, s)| p <= procs && d <= walltime && s >= start)
        {
            return;
        }
        // Drop entries the new placement subsumes.
        let mut keep = 0;
        for i in 0..self.len {
            let (p, d, s) = self.entries[i];
            if !(procs <= p && walltime <= d && start >= s) {
                self.entries[keep] = (p, d, s);
                keep += 1;
            }
        }
        self.len = keep;
        if self.len < BatchFit::CAP {
            self.entries[self.len] = (procs, walltime, start);
            self.len += 1;
        } else if let Some(i) = (0..self.len).min_by_key(|&i| self.entries[i].2) {
            // Frontier full: keep the tightest floors (any subset stays
            // sound, merely looser).
            if self.entries[i].2 < start {
                self.entries[i] = (procs, walltime, start);
            }
        }
    }
}

/// A local batch scheduling policy (the paper's LRMS algorithm).
///
/// Implementations are stateless: all scheduling state lives in the
/// cluster's queue and availability profile, so one `&'static` instance
/// serves every cluster.
pub trait LocalScheduler: std::fmt::Debug + Sync {
    /// Canonical name, e.g. `FCFS`. Registry lookups are
    /// case-insensitive; display, hashing and equality use this string.
    fn name(&self) -> &'static str;

    /// `true` when a tail submission can reuse the warm profile (the new
    /// job never moves an existing reservation).
    ///
    /// **Opt-in.** Defaults to `false` — the trait cannot verify the
    /// invariant, so a scheduler must claim it explicitly, as FCFS and
    /// CBF do. Leaving it `false` only costs a full recompute per
    /// submission; claiming it wrongly silently corrupts schedules.
    ///
    /// A claim also promises **monotone estimates**: a submission only
    /// carves one more reservation and never lowers the tail floor, so
    /// it never makes a dry-run estimate (`Cluster::estimate_new_at`)
    /// of any other job earlier — with or without `EctNoise`, whose
    /// perturbation is monotone. The reallocation round's ECT cache
    /// relies on this: after a submit it keeps the cluster's old
    /// estimates as lower bounds instead of discarding them.
    fn incremental_tail(&self) -> bool {
        false
    }

    /// Given a [`QueueDelta`] describing a mutation (cancel at an index,
    /// early completion, aggressive tail submission), the smallest index
    /// a warm-profile suffix repair may start from so that re-placing
    /// `queue[from..]` is **byte-identical** to a full rebuild. `None`
    /// disables the warm path entirely.
    ///
    /// **Opt-in**, like [`incremental_tail`](Self::incremental_tail): the
    /// default is `None` because the trait cannot verify the invariant —
    /// claiming an index whose prefix placements *do* depend on the
    /// suffix silently corrupts schedules. The returned index must be
    /// `<= delta.dirty_from()`; `Cluster` releases the suffix
    /// reservations and calls [`schedule`](Self::schedule) with it.
    fn repair_from(&self, delta: QueueDelta) -> Option<usize> {
        let _ = delta;
        None
    }

    /// Floor instant for placing a brand-new tail job against the current
    /// profile, given the reserved starts of the waiting queue (FCFS: no
    /// start before the last queued reservation).
    fn tail_floor(&self, reserved: &[SimTime], now: SimTime) -> SimTime;

    /// (Re)compute the reservations of queue positions `from..`, carving
    /// them into `profile`. On entry the profile holds the running jobs
    /// and the reservations of positions `..from` only.
    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime);

    /// Policy-specific invariants over the reserved starts (test helper;
    /// FCFS checks start-order monotonicity).
    fn check_invariants(&self, reserved: &[SimTime]) {
        let _ = reserved;
    }

    /// Parameters this entry accepts in policy expressions
    /// (`EASY(protected=4)`). Default: none — bare-name entries reject
    /// any argument with an error listing this (empty) set.
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Build a configured instance from validated arguments. Called only
    /// when at least one argument differs from its declared default, so
    /// entries without parameters never see it.
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn LocalScheduler>, String> {
        let _ = args;
        Err(format!("`{}` takes no parameters", self.name()))
    }
}

/// Copyable, comparable handle to a registered [`LocalScheduler`] — or
/// to a per-site mix of them.
///
/// Replaces the old three-variant enum of the same name: the historical
/// `BatchPolicy::Fcfs` / `Cbf` / `Easy` spellings are associated
/// constants, so existing call sites read unchanged, while
/// [`BatchPolicy::resolve_expr`] opens the axis to any registered name
/// with parameters (`EASY(protected=4)`) and
/// [`BatchPolicy::resolve_assignment`] to per-cluster mixes
/// (`FCFS+CBF+CBF`). Identity (equality, hashing, display, cache keys)
/// is the canonical expression string.
#[derive(Clone, Copy)]
pub struct BatchPolicy {
    sched: &'static dyn LocalScheduler,
    /// Canonical expression — the handle's identity. Equals the entry
    /// name for default-parameter handles.
    key: &'static str,
    /// Per-site assignment when this handle is a mix (`FCFS+CBF+CBF`);
    /// the elements are never mixes themselves.
    sites: Option<&'static [BatchPolicy]>,
}

#[allow(non_upper_case_globals)] // mirror the historical enum variants
impl BatchPolicy {
    /// First-come-first-served: "the earliest slot at the end of the job
    /// queue" (Schwiegelshohn & Yahyapour). Default policy of PBS, SGE,
    /// Maui.
    pub const Fcfs: BatchPolicy = BatchPolicy::base("FCFS", &FcfsScheduler);
    /// Conservative back-filling (Lifka): earliest slot anywhere that does
    /// not delay any earlier-queued job. Available in Maui, LoadLeveler,
    /// OAR.
    pub const Cbf: BatchPolicy = BatchPolicy::base("CBF", &CbfScheduler);
    /// EASY (aggressive) back-filling (Lifka's ANL/IBM SP scheduler): only
    /// the queue *head* holds a protected reservation; any other job may
    /// start immediately if it does not delay the head — even if that
    /// pushes other queued jobs back. The paper's evaluation uses FCFS and
    /// CBF; EASY is provided for the related-work ablation (Sabin et al.
    /// found conservative back-filling superior to aggressive, §5).
    /// `EASY(protected=K)` protects the first K queued reservations
    /// instead of only the head.
    pub const Easy: BatchPolicy = BatchPolicy::base("EASY", &EasyScheduler::CLASSIC);
    /// SJF-ordered EASY back-filling (see [`crate::easy_sjf`]); reachable
    /// from specs as `EASY-SJF` — the first policy the old enum could not
    /// express.
    pub const EasySjf: BatchPolicy =
        BatchPolicy::base("EASY-SJF", &crate::easy_sjf::EasySjfScheduler);

    /// A base (unparameterised) handle. `key` must equal `sched.name()`;
    /// a unit test pins this for every built-in.
    const fn base(key: &'static str, sched: &'static dyn LocalScheduler) -> BatchPolicy {
        BatchPolicy {
            sched,
            key,
            sites: None,
        }
    }
}

/// Built-in registry entries, in canonical (paper-table) order.
static BUILTINS: [BatchPolicy; 4] = [
    BatchPolicy::Fcfs,
    BatchPolicy::Cbf,
    BatchPolicy::Easy,
    BatchPolicy::EasySjf, // <- one line per new in-tree policy
];

/// Schedulers registered at runtime by downstream crates.
static EXTRAS: Mutex<Vec<BatchPolicy>> = Mutex::new(Vec::new());

/// Interned parameterised instances (`EASY(protected=4)`), one per
/// distinct canonical expression; interning keeps handles `Copy` and
/// bounds the leaked instances to one per configuration per process.
static CONFIGURED: Mutex<Vec<BatchPolicy>> = Mutex::new(Vec::new());

/// Interned per-site mixes (`FCFS+CBF+CBF`).
static MIXES: Mutex<Vec<BatchPolicy>> = Mutex::new(Vec::new());

impl BatchPolicy {
    /// The underlying scheduler implementation.
    ///
    /// # Panics
    /// Panics on a mix handle — a per-site assignment has no single
    /// scheduler; expand it with [`BatchPolicy::for_site`] first.
    #[inline]
    pub fn scheduler(self) -> &'static dyn LocalScheduler {
        assert!(
            self.sites.is_none(),
            "policy mix `{}` has no single scheduler; resolve per site with for_site()",
            self.key
        );
        self.sched
    }

    /// Canonical policy expression (`FCFS`, `EASY(protected=4)`,
    /// `FCFS+CBF+CBF`, …) — the handle's identity.
    #[inline]
    pub fn name(self) -> &'static str {
        self.key
    }

    /// Per-site policies when this handle is a mix.
    #[inline]
    pub fn site_policies(self) -> Option<&'static [BatchPolicy]> {
        self.sites
    }

    /// `true` when this handle assigns different policies per site.
    #[inline]
    pub fn is_mix(self) -> bool {
        self.sites.is_some()
    }

    /// Number of sites a mix assigns; `None` for uniform handles (which
    /// fit any platform).
    pub fn site_count(self) -> Option<usize> {
        self.sites.map(<[BatchPolicy]>::len)
    }

    /// The policy of cluster `site`: the mix element for mixes, `self`
    /// otherwise.
    ///
    /// # Panics
    /// Panics when `site` is out of range for a mix.
    pub fn for_site(self, site: usize) -> BatchPolicy {
        match self.sites {
            Some(sites) => sites[site],
            None => self,
        }
    }

    /// Every registered policy, built-ins first, in registration order
    /// (base entries only — parameterised instances and mixes are
    /// reachable through expressions, not listed).
    pub fn all() -> Vec<BatchPolicy> {
        let mut out = BUILTINS.to_vec();
        out.extend(
            EXTRAS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter(),
        );
        out
    }

    /// Look a base policy up by name (case-insensitive). Bare names
    /// only; use [`BatchPolicy::resolve_expr`] for parameterised forms.
    pub fn resolve(name: &str) -> Option<BatchPolicy> {
        Self::all()
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }

    /// Resolve a policy expression (`EASY`, `easy()`,
    /// `EASY(protected=4)`) to a handle.
    ///
    /// Arguments are validated against the entry's declared
    /// [`params`](LocalScheduler::params) — unknown or ill-typed keys
    /// error with the accepted list — and canonicalised: an expression
    /// whose arguments all equal their defaults resolves to the base
    /// handle itself, anything else to an interned configured instance.
    pub fn resolve_expr(input: &str) -> Result<BatchPolicy, String> {
        grid_ser::expr::resolve_configured(
            input,
            Self::resolve,
            |name| {
                format!(
                    "unknown batch policy `{name}` (registered: {})",
                    Self::all()
                        .iter()
                        .map(|p| p.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            },
            |p| p.key,
            |p| p.sched.params(),
            |key, bound, base| {
                let mut interned = CONFIGURED
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Some(hit) = interned.iter().find(|p| p.key == key) {
                    return Ok(*hit);
                }
                let policy = BatchPolicy {
                    sched: Box::leak(base.sched.with_params(&bound)?),
                    key: String::leak(key),
                    sites: None,
                };
                interned.push(policy);
                Ok(policy)
            },
        )
    }

    /// Resolve a per-site assignment: one policy expression per cluster,
    /// joined with `+` (`FCFS+CBF+CBF`), in platform site order. A
    /// single expression resolves like [`BatchPolicy::resolve_expr`]; a
    /// uniform assignment (`CBF+CBF+CBF`) collapses to the plain handle,
    /// so the homogeneous spelling stays canonical.
    pub fn resolve_assignment(input: &str) -> Result<BatchPolicy, String> {
        let parts = split_sites(input);
        if parts.iter().any(|p| p.trim().is_empty()) {
            return Err(format!("`{input}`: empty policy between `+` separators"));
        }
        let handles = parts
            .iter()
            .map(|p| Self::resolve_expr(p))
            .collect::<Result<Vec<_>, _>>()?;
        if handles.len() == 1 || handles.iter().all(|h| *h == handles[0]) {
            return Ok(handles[0]);
        }
        Ok(Self::mix(&handles))
    }

    /// Intern a per-site mix of (non-mix) policies.
    ///
    /// Unlike [`BatchPolicy::resolve_assignment`], a uniform list is
    /// *not* collapsed — `mix(&[CBF; 3])` keys as `CBF+CBF+CBF` — which
    /// is what the heterogeneous-grid equivalence tests exercise.
    ///
    /// # Panics
    /// Panics on an empty list or nested mixes.
    pub fn mix(sites: &[BatchPolicy]) -> BatchPolicy {
        assert!(!sites.is_empty(), "a policy mix needs at least one site");
        assert!(
            sites.iter().all(|s| !s.is_mix()),
            "policy mixes cannot nest"
        );
        let key = sites.iter().map(|s| s.name()).collect::<Vec<_>>().join("+");
        let mut interned = MIXES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = interned.iter().find(|p| p.key == key) {
            return *hit;
        }
        let policy = BatchPolicy {
            sched: sites[0].sched,
            key: String::leak(key),
            sites: Some(Vec::leak(sites.to_vec())),
        };
        interned.push(policy);
        policy
    }

    /// Register a scheduler implementation and return its handle.
    ///
    /// # Panics
    /// Panics if the name is already taken — two policies answering to
    /// one name would make spec files ambiguous.
    pub fn register(scheduler: &'static dyn LocalScheduler) -> BatchPolicy {
        // Check and push under one lock acquisition, so two concurrent
        // registrations of the same name cannot both pass the check.
        let mut extras = EXTRAS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let taken = BUILTINS
            .iter()
            .chain(extras.iter())
            .any(|p| p.name().eq_ignore_ascii_case(scheduler.name()));
        assert!(
            !taken,
            "batch policy `{}` is already registered",
            scheduler.name()
        );
        let policy = BatchPolicy {
            sched: scheduler,
            key: scheduler.name(),
            sites: None,
        };
        extras.push(policy);
        policy
    }
}

/// Split a per-site assignment on `+` outside parentheses, so
/// expression arguments stay intact (`EASY(protected=2)+FCFS`).
fn split_sites(input: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in input.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '+' if depth == 0 => {
                parts.push(&input[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&input[start..]);
    parts
}

impl std::fmt::Debug for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl PartialEq for BatchPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for BatchPolicy {}

impl std::hash::Hash for BatchPolicy {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

// ---------------------------------------------------------------------
// The paper's three built-in schedulers
// ---------------------------------------------------------------------

/// First-come-first-served (no back-filling).
#[derive(Debug)]
pub struct FcfsScheduler;

impl LocalScheduler for FcfsScheduler {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    // A tail job can never start before the previous one, and earlier
    // placements never look at later queue entries: both fast paths are
    // sound.
    fn incremental_tail(&self) -> bool {
        true
    }

    fn repair_from(&self, delta: QueueDelta) -> Option<usize> {
        Some(delta.dirty_from())
    }

    fn tail_floor(&self, reserved: &[SimTime], now: SimTime) -> SimTime {
        reserved
            .iter()
            .copied()
            .max()
            .map_or(now, |last| last.max(now))
    }

    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        // Start times are non-decreasing in queue order; the floor chains
        // through the previous job's start (FCFS's own batch fast path —
        // the dominance frontier cannot beat it).
        let mut prev_start = if from == 0 {
            now
        } else {
            queue.reserved[from - 1].max(now)
        };
        for i in from..queue.len() {
            let start = profile.first_fit(prev_start, queue.walltime[i], queue.procs[i]);
            profile.reserve(start, queue.walltime[i], queue.procs[i]);
            queue.reserved[i] = start;
            prev_start = start;
        }
    }

    fn check_invariants(&self, reserved: &[SimTime]) {
        let mut prev = SimTime::ZERO;
        for (i, &start) in reserved.iter().enumerate() {
            assert!(
                start >= prev,
                "FCFS start order violated at queue position {i}"
            );
            prev = start;
        }
    }
}

/// Conservative back-filling.
#[derive(Debug)]
pub struct CbfScheduler;

impl LocalScheduler for CbfScheduler {
    fn name(&self) -> &'static str {
        "CBF"
    }

    // Conservative back-filling places each job against earlier-queued
    // reservations only: prefix placements never depend on later or
    // removed jobs, so both fast paths are sound.
    fn incremental_tail(&self) -> bool {
        true
    }

    fn repair_from(&self, delta: QueueDelta) -> Option<usize> {
        Some(delta.dirty_from())
    }

    fn tail_floor(&self, _reserved: &[SimTime], now: SimTime) -> SimTime {
        now
    }

    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        // Each job takes the earliest hole given all earlier-queued
        // reservations; later jobs may jump ahead in time but can never
        // delay an earlier job (its reservation is already carved). The
        // dominance frontier resumes each descent from the highest
        // placement that provably blocks this job.
        let mut fit = BatchFit::new();
        for i in from..queue.len() {
            let (procs, walltime) = (queue.procs[i], queue.walltime[i]);
            let floor = fit.floor(now, procs, walltime);
            if floor > now {
                profile.note_batch_fast();
            }
            let start = profile.first_fit(floor, walltime, procs);
            profile.reserve(start, walltime, procs);
            queue.reserved[i] = start;
            fit.note(procs, walltime, start);
        }
    }
}

/// EASY (aggressive) back-filling: the first `protected` queued jobs
/// hold protected reservations (classic EASY: only the head).
#[derive(Debug)]
pub struct EasyScheduler {
    /// Number of queue-head jobs whose reservations back-fills may not
    /// delay. 1 is Lifka's EASY; larger values interpolate towards
    /// conservative back-filling; 0 is fully aggressive.
    protected: usize,
}

impl EasyScheduler {
    /// Classic EASY: only the queue head is protected.
    pub const CLASSIC: EasyScheduler = EasyScheduler { protected: 1 };
}

impl LocalScheduler for EasyScheduler {
    fn name(&self) -> &'static str {
        "EASY"
    }

    // Aggressive back-filling re-examines the whole *unprotected* queue
    // on every change, so `incremental_tail` stays off (a tail submission
    // may legitimately reshuffle tentative slots). The warm profile is
    // still usable: the protected head is placed in queue order against
    // the running set alone, so its reservations never depend on the
    // suffix — a repair that re-runs the aggressive + estimation phases
    // from the end of the (clean part of the) protected head is
    // byte-identical to a full rebuild.

    fn repair_from(&self, delta: QueueDelta) -> Option<usize> {
        Some(delta.dirty_from().min(self.protected))
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int(
            "protected",
            Some(1),
            "queue-head reservations back-fills may not delay",
        )]
    }

    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn LocalScheduler>, String> {
        let protected = args.i64("protected").expect("declared with a default");
        if protected < 0 {
            return Err(format!("`EASY` needs protected >= 0, got {protected}"));
        }
        Ok(Box::new(EasyScheduler {
            protected: protected as usize,
        }))
    }

    fn tail_floor(&self, _reserved: &[SimTime], now: SimTime) -> SimTime {
        // Conservative estimate for dry runs; the aggressive "may start
        // right now" case is handled by the full recompute in `submit`.
        now
    }

    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        // The protected head segment is placed in queue order, like CBF.
        // `from` is 0 (full rebuild) or the index `repair_from` returned:
        // at most `protected`, so skipping positions `..from` (whose
        // reservations the profile already carries) re-places exactly the
        // jobs a rebuild would place after them, in the same order. The
        // dominance frontier is valid across all three phases: capacity
        // only decreases within this call, and every recorded placement
        // searched from the same base `now`.
        debug_assert!(from == 0 || from <= self.protected);
        let mut fit = BatchFit::new();
        let mut pending: Vec<usize> = Vec::new();
        for i in from..queue.len() {
            let (procs, walltime) = (queue.procs[i], queue.walltime[i]);
            if i < self.protected {
                let floor = fit.floor(now, procs, walltime);
                if floor > now {
                    profile.note_batch_fast();
                }
                let start = profile.first_fit(floor, walltime, procs);
                profile.reserve(start, walltime, procs);
                queue.reserved[i] = start;
                fit.note(procs, walltime, start);
                continue;
            }
            // Aggressive phase: start immediately if that does not delay
            // any protected reservation (already carved into the
            // profile) or any already-admitted backfill.
            if profile.min_free(now, walltime) >= procs {
                profile.reserve(now, walltime, procs);
                queue.reserved[i] = now;
            } else {
                pending.push(i);
            }
        }
        // Estimation phase: tentative (unprotected) slots for the rest,
        // so ECT queries and wake-ups have something to read.
        for i in pending {
            let (procs, walltime) = (queue.procs[i], queue.walltime[i]);
            let floor = fit.floor(now, procs, walltime);
            if floor > now {
                profile.note_batch_fast();
            }
            let start = profile.first_fit(floor, walltime, procs);
            profile.reserve(start, walltime, procs);
            queue.reserved[i] = start;
            fit.note(procs, walltime, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// The batch first-fit floor never changes an answer: along one
        /// walk of placements (capacity only decreases), after each
        /// `note` every probe answers from its raised floor exactly what
        /// it answers from the walk's base.
        #[test]
        fn batch_floor_never_changes_first_fit(
            tree in proptest::any::<bool>(),
            total in 1u32..32,
            busy in proptest::prop::collection::vec((0u64..400, 1u32..32, 1u64..300), 0..6),
            base in 0u64..200,
            walk in proptest::prop::collection::vec((1u32..32, 1u64..300), 1..40),
            probes in proptest::prop::collection::vec((1u32..32, 1u64..300), 1..6),
        ) {
            let mut profile = if tree {
                Profile::flat_tree(total, SimTime::ZERO)
            } else {
                Profile::flat(total, SimTime::ZERO)
            };
            let procs = |p: u32| (p - 1) % total + 1;
            // Reservations already carved before the walk starts.
            for &(at, p, d) in &busy {
                let start = profile.first_fit(SimTime(at), Duration(d), procs(p));
                profile.reserve(start, Duration(d), procs(p));
            }
            let base = SimTime(base);
            let mut fit = BatchFit::new();
            for &(p, d) in &walk {
                let (p, d) = (procs(p), Duration(d));
                let start = profile.first_fit(base, d, p);
                profile.reserve(start, d, p);
                fit.note(p, d, start);
                for &(q, e) in probes.iter().chain(&walk) {
                    let (q, e) = (procs(q), Duration(e));
                    proptest::prop_assert_eq!(
                        profile.first_fit(fit.floor(base, q, e), e, q),
                        profile.first_fit(base, e, q),
                        "floor changed the fit of ({}, {:?})", q, e
                    );
                }
            }
        }
    }

    #[test]
    fn builtins_resolve_by_name_case_insensitively() {
        assert_eq!(BatchPolicy::resolve("FCFS"), Some(BatchPolicy::Fcfs));
        assert_eq!(BatchPolicy::resolve("fcfs"), Some(BatchPolicy::Fcfs));
        assert_eq!(BatchPolicy::resolve("cbf"), Some(BatchPolicy::Cbf));
        assert_eq!(BatchPolicy::resolve("Easy"), Some(BatchPolicy::Easy));
        assert_eq!(BatchPolicy::resolve("easy-sjf"), Some(BatchPolicy::EasySjf));
        assert_eq!(BatchPolicy::resolve("nope"), None);
    }

    #[test]
    fn registry_order_is_canonical() {
        let names: Vec<&str> = BatchPolicy::all().iter().map(|p| p.name()).collect();
        assert!(names.starts_with(&["FCFS", "CBF", "EASY", "EASY-SJF"]));
    }

    #[test]
    fn handles_compare_and_hash_by_name() {
        use std::collections::HashSet;
        assert_eq!(BatchPolicy::Fcfs, BatchPolicy::resolve("fcfs").unwrap());
        assert_ne!(BatchPolicy::Fcfs, BatchPolicy::Cbf);
        let set: HashSet<BatchPolicy> =
            [BatchPolicy::Fcfs, BatchPolicy::Fcfs, BatchPolicy::Cbf].into();
        assert_eq!(set.len(), 2);
        assert_eq!(BatchPolicy::Easy.to_string(), "EASY");
        assert_eq!(format!("{:?}", BatchPolicy::Cbf), "CBF");
    }

    #[test]
    fn runtime_registration_extends_the_axis() {
        #[derive(Debug)]
        struct Custom;
        impl LocalScheduler for Custom {
            fn name(&self) -> &'static str {
                "TEST-CUSTOM"
            }
            fn tail_floor(&self, _reserved: &[SimTime], now: SimTime) -> SimTime {
                now
            }
            fn schedule(&self, p: &mut Profile, q: QueueScan<'_>, from: usize, now: SimTime) {
                CbfScheduler.schedule(p, q, from, now);
            }
        }
        let handle = BatchPolicy::register(&Custom);
        assert_eq!(BatchPolicy::resolve("test-custom"), Some(handle));
        assert!(BatchPolicy::all().contains(&handle));
    }

    #[test]
    fn builtin_keys_match_scheduler_names() {
        for p in &BUILTINS {
            assert_eq!(p.key, p.sched.name(), "const key drifted for {}", p.key);
            assert!(!p.is_mix());
        }
    }

    #[test]
    fn expressions_canonicalise_to_base_handles() {
        for spelled in ["EASY", "easy", "EASY()", "EASY(protected=1)", " easy( ) "] {
            assert_eq!(
                BatchPolicy::resolve_expr(spelled).unwrap(),
                BatchPolicy::Easy,
                "{spelled}"
            );
        }
        assert_eq!(
            BatchPolicy::resolve_expr("fcfs()").unwrap(),
            BatchPolicy::Fcfs
        );
        assert_eq!(BatchPolicy::resolve_expr("EASY").unwrap().name(), "EASY");
    }

    #[test]
    fn parameterised_expressions_intern_one_instance() {
        let a = BatchPolicy::resolve_expr("EASY(protected=4)").unwrap();
        let b = BatchPolicy::resolve_expr("easy( protected = 4 )").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.name(), "EASY(protected=4)");
        assert!(std::ptr::eq(a.name(), b.name()), "interned, not re-leaked");
        assert_ne!(a, BatchPolicy::Easy);
        assert_eq!(a.scheduler().name(), "EASY", "entry name is unchanged");
        assert_eq!(a.to_string(), "EASY(protected=4)");
    }

    #[test]
    fn expression_errors_list_registry_and_params() {
        let err = BatchPolicy::resolve_expr("nope(x=1)").unwrap_err();
        assert!(err.contains("unknown batch policy `nope`"), "{err}");
        assert!(err.contains("FCFS, CBF, EASY, EASY-SJF"), "{err}");
        let err = BatchPolicy::resolve_expr("EASY(depth=2)").unwrap_err();
        assert!(err.contains("unknown parameter `depth`"), "{err}");
        assert!(err.contains("protected: int = 1"), "{err}");
        let err = BatchPolicy::resolve_expr("EASY(protected=soon)").unwrap_err();
        assert!(err.contains("expects int"), "{err}");
        let err = BatchPolicy::resolve_expr("FCFS(x=1)").unwrap_err();
        assert!(err.contains("`FCFS` takes no parameters"), "{err}");
        let err = BatchPolicy::resolve_expr("EASY(protected=-1)").unwrap_err();
        assert!(err.contains("protected >= 0"), "{err}");
    }

    #[test]
    fn protected_depth_shields_more_reservations() {
        use crate::cluster::Cluster;
        use crate::job::{JobId, JobSpec};
        use crate::platform::ClusterSpec;
        // 8 procs; running job holds 2 until t=1000. Queue: H (8 procs),
        // A (5 procs, wt 300), B (4 procs, wt 450). Classic EASY lets B
        // start now and push A back; EASY(protected=2) shields A too.
        let build = |policy: BatchPolicy| {
            let mut c = Cluster::new(ClusterSpec::new("t", 8, 1.0), policy);
            c.submit(JobSpec::new(100, 0, 2, 1000, 1000), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(101, 0, 2, 200, 200), SimTime(0))
                .unwrap();
            c.start_due(SimTime(0));
            c.submit(JobSpec::new(1, 0, 8, 100, 100), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(2, 0, 5, 300, 300), SimTime(0))
                .unwrap();
            c.submit(JobSpec::new(3, 0, 4, 450, 450), SimTime(0))
                .unwrap();
            c
        };
        let res = |c: &Cluster, id: u64| {
            c.waiting_jobs()
                .find(|q| q.job.id == JobId(id))
                .map(|q| q.reserved_start)
                .unwrap()
        };
        let classic = build(BatchPolicy::Easy);
        let deep = build(BatchPolicy::resolve_expr("EASY(protected=2)").unwrap());
        // Classic: B back-fills at t=0, A pushed to 450.
        assert_eq!(res(&classic, 3), SimTime(0));
        assert_eq!(res(&classic, 2), SimTime(450));
        // protected=2: A's reservation at 200 is protected, so B may not
        // delay it and waits until A's window ends.
        assert_eq!(res(&deep, 2), SimTime(200));
        assert!(
            res(&deep, 3) >= SimTime(500),
            "B delayed: {:?}",
            res(&deep, 3)
        );
    }

    #[test]
    fn assignments_resolve_split_and_collapse() {
        let mixed = BatchPolicy::resolve_assignment("FCFS+CBF+CBF").unwrap();
        assert!(mixed.is_mix());
        assert_eq!(mixed.name(), "FCFS+CBF+CBF");
        assert_eq!(mixed.site_count(), Some(3));
        assert_eq!(mixed.for_site(0), BatchPolicy::Fcfs);
        assert_eq!(mixed.for_site(1), BatchPolicy::Cbf);
        assert_eq!(mixed.for_site(2), BatchPolicy::Cbf);
        // Interned: same assignment, same handle.
        assert_eq!(
            BatchPolicy::resolve_assignment("fcfs+cbf+CBF").unwrap(),
            mixed
        );
        // A uniform assignment collapses to the plain handle.
        assert_eq!(
            BatchPolicy::resolve_assignment("CBF+CBF+CBF").unwrap(),
            BatchPolicy::Cbf
        );
        // Parameterised elements keep their arguments intact.
        let with_params = BatchPolicy::resolve_assignment("EASY(protected=2)+FCFS").unwrap();
        assert_eq!(with_params.name(), "EASY(protected=2)+FCFS");
        assert_eq!(
            with_params.for_site(0),
            BatchPolicy::resolve_expr("EASY(protected=2)").unwrap()
        );
        // Errors propagate with context.
        assert!(BatchPolicy::resolve_assignment("FCFS++CBF")
            .unwrap_err()
            .contains("empty policy"));
        assert!(BatchPolicy::resolve_assignment("FCFS+nope")
            .unwrap_err()
            .contains("unknown batch policy"));
    }

    #[test]
    fn uniform_handles_fit_any_site() {
        assert_eq!(BatchPolicy::Fcfs.site_count(), None);
        assert_eq!(BatchPolicy::Fcfs.for_site(7), BatchPolicy::Fcfs);
    }

    #[test]
    #[should_panic(expected = "no single scheduler")]
    fn mix_handles_refuse_single_scheduler_access() {
        let mixed = BatchPolicy::mix(&[BatchPolicy::Fcfs, BatchPolicy::Cbf]);
        let _ = mixed.scheduler();
    }

    #[test]
    fn uniform_mix_keys_do_not_collapse_via_mix() {
        let m = BatchPolicy::mix(&[BatchPolicy::Cbf, BatchPolicy::Cbf]);
        assert_eq!(m.name(), "CBF+CBF");
        assert_ne!(m, BatchPolicy::Cbf);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected() {
        #[derive(Debug)]
        struct Dup;
        impl LocalScheduler for Dup {
            fn name(&self) -> &'static str {
                "FCFS"
            }
            fn tail_floor(&self, _reserved: &[SimTime], now: SimTime) -> SimTime {
                now
            }
            fn schedule(&self, _p: &mut Profile, _q: QueueScan<'_>, _f: usize, _n: SimTime) {}
        }
        BatchPolicy::register(&Dup);
    }
}
