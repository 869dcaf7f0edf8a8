//! Pluggable local batch schedulers.
//!
//! The paper's §3.1 policies (FCFS, conservative and aggressive
//! back-filling) and EASY-SJF implement the [`LocalScheduler`] trait in
//! a string-keyed registry. A [`BatchPolicy`] is a `Copy` handle to a
//! registered scheduler whose identity is its canonical *policy
//! expression*.
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
//! line in [`BatchPolicy::BUILTINS`] ([`easy_sjf`](crate::easy_sjf) is
//! the worked example).
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
//! ## FCFS release sweep
//!
//! FCFS never calls `first_fit` in a rebuild or repair. Every reservation
//! on an FCFS profile starts at or before the *floor* — the start of the
//! last reservation kept: running jobs start in the past, an outage
//! blackout starts now, and FCFS starts are non-decreasing in queue
//! order. So on `[floor, ∞)` the free count only ever rises, and a job
//! fits at the first instant its processors are free, whatever its
//! walltime. Placing the suffix is then one sweep over the post-floor
//! breakpoints ([`Profile::breakpoints_from`]) merged with a min-heap of
//! the ends of the jobs it has already placed; the placements are carved
//! afterwards in one merge ([`Profile::reserve_many`]). That costs
//! O(B + m log m) for B breakpoints and m placed jobs where a first-fit
//! plus a reserve per job cost O(m·B), and every start is exactly the
//! `first_fit(previous start, walltime, procs)` answer the per-job loop
//! gave (a test-only oracle pins it). Sweep placements are counted apart
//! from first-fit probes ([`Profile::note_sweep_placements`]). The same
//! rule serves ECT dry runs: [`Staircase`] holds the post-floor free
//! counts of a frozen FCFS profile, so a tail estimate is a binary search
//! over procs ([`LocalScheduler::tail_staircase`]), and a whole column of
//! estimates read in width order is one merge ([`Staircase::walk`]).
//! This module is the one place that relies on the rule.
//!
//! ## Batch first-fit
//!
//! A CBF or EASY rebuild or repair places a whole queue suffix in one
//! walk. Within one [`schedule`](LocalScheduler::schedule) call capacity
//! only ever *decreases* (each placement carves a reservation), so a job
//! at least as wide and at least as long as an already-placed one can
//! never start earlier than it did. `BatchFit` tracks the dominance frontier of
//! this walk's placements and raises the search floor accordingly — the
//! descent resumes from the previous placement instead of restarting at
//! `now`, with byte-identical results. `BatchFit::place` is every such
//! placement: floor, [`Profile::place`] (a first fit that carves its own
//! answer), then the frontier update. Placements that actually rode a
//! raised floor are counted via [`Profile::note_batch_fast`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grid_des::{Duration, SimTime};
use grid_ser::expr::{self, BoundArgs, Entry, Handle, ParamSpec};

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

    /// Place and carve a job of `(procs, walltime)` searching from
    /// `base` ([`Profile::place`] from this walk's floor), count the
    /// placement as batch-fast when the floor skipped part of the search,
    /// and record it. Returns the start.
    pub(crate) fn place(
        &mut self,
        profile: &mut Profile,
        base: SimTime,
        procs: u32,
        walltime: Duration,
    ) -> SimTime {
        let floor = self.floor(base, procs, walltime);
        if floor > base {
            profile.note_batch_fast();
        }
        let start = profile.place(floor, walltime, procs);
        self.note(procs, walltime, start);
        start
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
    /// estimates as lower bounds instead of discarding them (or, under a
    /// [`tail_staircase`](Self::tail_staircase), re-reads only the widths
    /// the new reservation can have moved).
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

    /// The post-floor free counts of `profile`, when every reservation on
    /// this scheduler's profile starts at or before `floor` (its
    /// [`tail_floor`](Self::tail_floor)): the free count then never falls
    /// after the floor, and a new tail job starts at the first instant its
    /// processors are free, whatever its walltime. Dry-run estimates read
    /// the returned [`Staircase`] instead of running a first-fit per job.
    ///
    /// **Opt-in**, like [`incremental_tail`](Self::incremental_tail):
    /// returning a staircase wrongly silently corrupts estimates. FCFS
    /// returns one; `None` keeps the first-fit.
    fn tail_staircase(&self, _profile: &Profile, _floor: SimTime) -> Option<Staircase> {
        None
    }

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
/// [`BatchPolicy::resolve_expr`] opens the axis to any registered name
/// with parameters (`EASY(protected=4)`) and
/// [`BatchPolicy::resolve_assignment`] to per-cluster mixes
/// (`FCFS+CBF+CBF`). Identity (equality, hashing, display, cache keys)
/// is the canonical expression string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchPolicy {
    /// The scheduler under its canonical expression. A mix keys as its
    /// joined site expressions.
    handle: Handle<dyn LocalScheduler>,
    /// Per-site assignment when this handle is a mix (`FCFS+CBF+CBF`);
    /// the elements are never mixes themselves. The key determines it,
    /// so it never splits identity.
    sites: Option<&'static [BatchPolicy]>,
}

grid_ser::fmt_as_handle!(BatchPolicy, handle);

impl Entry for dyn LocalScheduler {
    fn params(&self) -> Vec<ParamSpec> {
        LocalScheduler::params(self)
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<Self>, String> {
        LocalScheduler::with_params(self, args)
    }
}

#[allow(non_upper_case_globals)]
impl BatchPolicy {
    /// First-come-first-served: "the earliest slot at the end of the job
    /// queue" (Schwiegelshohn & Yahyapour). Default policy of PBS, SGE,
    /// Maui.
    pub const Fcfs: BatchPolicy = BatchPolicy::uniform(Handle::new("FCFS", &FcfsScheduler));
    /// Conservative back-filling (Lifka): earliest slot anywhere that does
    /// not delay any earlier-queued job. Available in Maui, LoadLeveler,
    /// OAR.
    pub const Cbf: BatchPolicy = BatchPolicy::uniform(Handle::new("CBF", &CbfScheduler));
    /// EASY (aggressive) back-filling (Lifka's ANL/IBM SP scheduler): only
    /// the queue *head* holds a protected reservation; any other job may
    /// start immediately if it does not delay the head — even if that
    /// pushes other queued jobs back. The paper's evaluation uses FCFS and
    /// CBF; EASY is provided for the related-work ablation (Sabin et al.
    /// found conservative back-filling superior to aggressive, §5).
    /// `EASY(protected=K)` protects the first K queued reservations
    /// instead of only the head.
    pub const Easy: BatchPolicy =
        BatchPolicy::uniform(Handle::new("EASY", &EasyScheduler::CLASSIC));
    /// SJF-ordered EASY back-filling (see [`crate::easy_sjf`]); reachable
    /// from specs as `EASY-SJF`.
    pub const EasySjf: BatchPolicy =
        BatchPolicy::uniform(Handle::new("EASY-SJF", &crate::easy_sjf::EasySjfScheduler));

    /// The registry: every base policy, in canonical (paper-table)
    /// order. Parameterised instances and mixes are reachable through
    /// expressions, not listed. Each key must equal its scheduler's
    /// `name()`; a unit test pins this.
    pub const BUILTINS: [BatchPolicy; 4] = [
        BatchPolicy::Fcfs,
        BatchPolicy::Cbf,
        BatchPolicy::Easy,
        BatchPolicy::EasySjf, // <- one line per new in-tree policy
    ];

    /// A single-scheduler (non-mix) policy.
    const fn uniform(handle: Handle<dyn LocalScheduler>) -> BatchPolicy {
        BatchPolicy {
            handle,
            sites: None,
        }
    }

    /// The underlying scheduler implementation.
    ///
    /// # Panics
    /// Panics on a mix handle — a per-site assignment has no single
    /// scheduler; expand it with [`BatchPolicy::for_site`] first.
    #[inline]
    pub fn scheduler(self) -> &'static dyn LocalScheduler {
        assert!(
            self.sites.is_none(),
            "policy mix `{self}` has no single scheduler; resolve per site with for_site()"
        );
        self.handle.get()
    }

    /// Canonical policy expression (`FCFS`, `EASY(protected=4)`,
    /// `FCFS+CBF+CBF`, …) — the handle's identity.
    #[inline]
    pub fn name(self) -> &'static str {
        self.handle.key()
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

    /// Look a base policy up by name (case-insensitive). Bare names
    /// only; use [`BatchPolicy::resolve_expr`] for parameterised forms.
    pub fn resolve(name: &str) -> Option<BatchPolicy> {
        Self::BUILTINS
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
        let registry = Self::BUILTINS.map(|p| p.handle);
        expr::resolve(input, &registry, "batch policy").map(BatchPolicy::uniform)
    }

    /// Resolve a per-site assignment: one policy expression per cluster,
    /// joined with `+` (`FCFS+CBF+CBF`), in platform site order. A
    /// single expression resolves like [`BatchPolicy::resolve_expr`]; a
    /// uniform assignment (`CBF+CBF+CBF`) collapses to the plain handle,
    /// so the homogeneous spelling stays canonical.
    pub fn resolve_assignment(input: &str) -> Result<BatchPolicy, String> {
        let parts = expr::split_plus(input);
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
        let mix = expr::intern(key, || Ok(Box::<[BatchPolicy]>::from(sites)))
            .expect("a mix of resolved sites always builds");
        BatchPolicy {
            handle: Handle::new(mix.key(), sites[0].handle.get()),
            sites: Some(mix.get()),
        }
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

    // Starts are non-decreasing in queue order, so the last is the latest.
    fn tail_floor(&self, reserved: &[SimTime], now: SimTime) -> SimTime {
        reserved.last().map_or(now, |&last| last.max(now))
    }

    fn tail_staircase(&self, profile: &Profile, floor: SimTime) -> Option<Staircase> {
        Some(Staircase::read(profile, floor))
    }

    fn schedule(&self, profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        // The same sweep serves a rebuild (`from == 0`, floor `now`) and a
        // suffix repair (floor: the last kept start); see the module docs.
        let floor = match from {
            0 => now,
            _ => queue.reserved[from - 1].max(now),
        };
        let placed = release_sweep(
            profile,
            floor,
            &queue.procs[from..],
            &queue.walltime[from..],
        );
        for (reserved, &(start, _, _)) in queue.reserved[from..].iter_mut().zip(&placed) {
            *reserved = start;
        }
        profile.note_sweep_placements(placed.len() as u64);
        profile.reserve_many(&placed);
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

/// Place FCFS jobs `(procs, walltime)` in queue order against a profile
/// whose free count never falls after `floor`, without carving them:
/// returns each job's `(start, walltime, procs)` window.
///
/// The free count after the previous start is the profile's, which only
/// rises (at its breakpoints), minus the jobs placed so far, which only
/// leave (at their ends, kept in a min-heap). Each job starts at the first
/// release instant from which its processors are free — exactly
/// `first_fit(previous start, walltime, procs)` on the carved profile.
///
/// # Panics
/// Panics like [`Profile::first_fit`] when a job needs more processors
/// than the cluster owns or has a zero walltime.
fn release_sweep(
    profile: &Profile,
    floor: SimTime,
    procs: &[u32],
    walltime: &[Duration],
) -> Vec<(SimTime, Duration, u32)> {
    let total = profile.total();
    let mut steps = profile.breakpoints_from(floor).peekable();
    let (_, mut free) = steps.next().expect("a profile has a breakpoint");
    let mut ends: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
    let mut held = 0u32;
    let mut at = floor.max(profile.origin());
    let mut placed = Vec::with_capacity(procs.len());
    for (&p, &d) in procs.iter().zip(walltime) {
        assert!(p <= total, "job needs {p} procs, cluster has {total}");
        assert!(d > Duration::ZERO, "placement window must be non-empty");
        while free - held < p {
            let next_step = steps.peek().map(|s| s.0);
            let next_end = ends.peek().map(|e| e.0 .0);
            at = next_step
                .into_iter()
                .chain(next_end)
                .min()
                .expect("profile tail must have free >= procs");
            while let Some((_, v)) = steps.next_if(|s| s.0 <= at) {
                debug_assert!(v >= free, "FCFS profile falls after its floor");
                free = v;
            }
            while let Some(Reverse((_, q))) = ends.peek().copied().filter(|e| e.0 .0 <= at) {
                ends.pop();
                held -= q;
            }
        }
        ends.push(Reverse((at + d, p)));
        held += p;
        placed.push((at, d, p));
    }
    placed
}

/// The free counts of an FCFS profile from its tail floor on, where they
/// never fall: `(instant, free)` steps with strictly rising `free`, the
/// first at the floor and the last at the cluster's total. Read once per
/// estimate freeze ([`LocalScheduler::tail_staircase`]).
#[derive(Debug, Clone)]
pub struct Staircase(Vec<(SimTime, u32)>);

impl Staircase {
    fn read(profile: &Profile, floor: SimTime) -> Staircase {
        let steps: Vec<(SimTime, u32)> = profile
            .breakpoints_from(floor)
            .map(|(t, free)| (t.max(floor), free))
            .collect();
        debug_assert!(
            steps.windows(2).all(|w| w[0].1 < w[1].1),
            "FCFS profile falls after its floor"
        );
        Staircase(steps)
    }

    /// The first instant at least `procs` processors are free — where a
    /// tail job of that width starts, whatever its walltime.
    ///
    /// # Panics
    /// Panics if `procs` exceeds the cluster's total.
    pub fn first_free(&self, procs: u32) -> SimTime {
        self.0[self.0.partition_point(|&(_, free)| free < procs)].0
    }

    /// The free count at instant `t`, at or after the floor.
    pub fn free_at(&self, t: SimTime) -> u32 {
        debug_assert!(t >= self.0[0].0, "instant before the staircase's floor");
        self.0[self.0.partition_point(|&(at, _)| at <= t) - 1].1
    }

    /// A cursor answering [`first_free`](Self::first_free) for widths
    /// asked in non-decreasing order, in one merge over the steps.
    pub fn walk(&self) -> StaircaseWalk<'_> {
        StaircaseWalk(&self.0)
    }
}

/// A merge cursor over a [`Staircase`] ([`Staircase::walk`]): the steps
/// not yet passed by the widths asked so far.
#[derive(Debug, Clone)]
pub struct StaircaseWalk<'a>(&'a [(SimTime, u32)]);

impl StaircaseWalk<'_> {
    /// [`Staircase::first_free`] of `procs`, which must be at least every
    /// width this cursor answered before.
    ///
    /// # Panics
    /// Panics if `procs` exceeds the cluster's total.
    pub fn first_free(&mut self, procs: u32) -> SimTime {
        while self.0[0].1 < procs {
            self.0 = &self.0[1..];
        }
        self.0[0].0
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
            queue.reserved[i] = fit.place(profile, now, queue.procs[i], queue.walltime[i]);
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
                queue.reserved[i] = fit.place(profile, now, procs, walltime);
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
            queue.reserved[i] = fit.place(profile, now, queue.procs[i], queue.walltime[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-job FCFS loop the release sweep replaced: a first-fit from
    /// the previous start and a reserve per job. Test-only oracle.
    fn fcfs_per_job(profile: &mut Profile, queue: QueueScan<'_>, from: usize, now: SimTime) {
        let mut prev_start = match from {
            0 => now,
            _ => queue.reserved[from - 1].max(now),
        };
        for i in from..queue.len() {
            let start = profile.first_fit(prev_start, queue.walltime[i], queue.procs[i]);
            profile.reserve(start, queue.walltime[i], queue.procs[i]);
            queue.reserved[i] = start;
            prev_start = start;
        }
    }

    proptest::proptest! {
        /// The release sweep plus one bulk carve places and carves exactly
        /// what the per-job first-fit + reserve loop does: on rebuilds and
        /// mid-queue repairs, against running jobs or an outage blackout,
        /// with releases colliding on one instant (walltimes are multiples
        /// of 25 s), over never-carved `SimTime::MAX` suffix entries, on
        /// the inline buffer, the tree and across the promotion boundary.
        #[test]
        fn release_sweep_matches_per_job_first_fit(
            crossover in proptest::prop::sample::select(vec![0, 1, 2, 3, 5, usize::MAX]),
            total in 1u32..24,
            now in 0u64..50,
            running in proptest::prop::collection::vec((1u32..24, 1u64..8), 0..6),
            outage in (proptest::any::<bool>(), 1u64..8),
            queue in proptest::prop::collection::vec((1u32..24, 1u64..8), 0..40),
            from in proptest::prop::sample::select(vec![0usize, 1, 2, 5, 13, 39]),
            never_carved in proptest::any::<bool>(),
        ) {
            let now = SimTime(now);
            let procs: Vec<u32> = queue.iter().map(|&(p, _)| (p - 1) % total + 1).collect();
            let walltime: Vec<Duration> = queue.iter().map(|&(_, d)| Duration(d * 25)).collect();
            let from = from.min(queue.len());
            let mut profile = Profile::flat_with_crossover(total, now, crossover);
            match outage {
                (true, until) => profile.reserve(now, Duration(until * 25), total),
                (false, _) => {
                    for &(p, d) in &running {
                        let (p, d) = ((p - 1) % total + 1, Duration(d * 25));
                        if profile.min_free(now, d) >= p {
                            profile.reserve(now, d, p);
                        }
                    }
                }
            }
            // Entry state of `schedule(.., from, ..)`: the prefix carved.
            let mut reserved = vec![SimTime::MAX; queue.len()];
            fcfs_per_job(
                &mut profile,
                QueueScan { procs: &procs[..from], walltime: &walltime[..from], reserved: &mut reserved[..from] },
                0,
                now,
            );
            if !never_carved {
                reserved[from..].fill(now);
            }
            let _ = profile.take_probes();
            let (mut swept, mut oracle) = (profile.clone(), profile);
            let (mut swept_reserved, mut oracle_reserved) = (reserved.clone(), reserved);
            FcfsScheduler.schedule(
                &mut swept,
                QueueScan { procs: &procs, walltime: &walltime, reserved: &mut swept_reserved },
                from,
                now,
            );
            fcfs_per_job(
                &mut oracle,
                QueueScan { procs: &procs, walltime: &walltime, reserved: &mut oracle_reserved },
                from,
                now,
            );
            proptest::prop_assert_eq!(&swept_reserved, &oracle_reserved);
            proptest::prop_assert_eq!(swept.points(), oracle.points());
            swept.assert_invariants();
            FcfsScheduler.check_invariants(&swept_reserved);
            proptest::prop_assert_eq!(swept.take_probes(), 0, "the sweep asks no first-fit");
            proptest::prop_assert_eq!(swept.take_sweep_placements(), (queue.len() - from) as u64);
            proptest::prop_assert_eq!(
                FcfsScheduler.tail_floor(&swept_reserved, now),
                swept_reserved.iter().copied().max().map_or(now, |last| last.max(now)),
                "the O(1) tail floor is the latest start"
            );
        }
    }

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

    /// A staircase's walk answers `first_free` for ascending widths in
    /// one merge, and `free_at` reads the free count at any instant from
    /// the floor on.
    #[test]
    fn staircase_walk_and_free_counts_read_the_steps() {
        let mut profile = Profile::flat(8, SimTime(0));
        profile.reserve(SimTime(0), Duration(100), 6);
        profile.reserve(SimTime(0), Duration(300), 1);
        // From the floor at 10: 1 free, 7 from 100, 8 from 300.
        let stairs = Staircase::read(&profile, SimTime(10));
        let mut walk = stairs.walk();
        let starts: Vec<SimTime> = (1..=8).map(|procs| walk.first_free(procs)).collect();
        let expected: Vec<SimTime> = (1..=8).map(|procs| stairs.first_free(procs)).collect();
        assert_eq!(starts, expected);
        assert_eq!(expected[..3], [SimTime(10), SimTime(100), SimTime(100)]);
        assert_eq!(expected[7], SimTime(300));
        let free: Vec<u32> = [10, 99, 100, 299, 300, 5_000]
            .map(|t| stairs.free_at(SimTime(t)))
            .to_vec();
        assert_eq!(free, [1, 1, 7, 7, 8, 8]);
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
        let names: Vec<&str> = BatchPolicy::BUILTINS.iter().map(|p| p.name()).collect();
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
    fn builtin_keys_match_scheduler_names() {
        for p in &BatchPolicy::BUILTINS {
            assert_eq!(p.name(), p.scheduler().name(), "const key drifted for {p}");
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
}
