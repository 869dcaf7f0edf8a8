//! The (re)scheduling heuristics of §2.2.2, as pluggable trait objects.
//!
//! One *online* heuristic (MCT) processes jobs in their submission order;
//! five *offline* heuristics rank the whole remaining set anew for every
//! decision (the paper notes their O(n²) cost):
//!
//! * **MCT** — take jobs sequentially in submission order.
//! * **MinMin / MaxMin** — rank by each task's best achievable ECT; pick
//!   the minimum (favours small tasks) / maximum (favours large tasks).
//! * **MaxGain** — pick the task with the largest absolute gain
//!   `CurrentECT − NewECT`.
//! * **MaxRelGain** — same, gain divided by the task's processor count
//!   ("preferring small tasks, except if a large task has a very large
//!   gain").
//! * **Sufferage** — pick the task with the largest difference between its
//!   two best ECTs (the task that would "suffer" most from not getting its
//!   best placement).
//!
//! Semantically every offline decision re-reads every remaining job's
//! ECTs — n decisions over n jobs and k clusters, O(n²·k) estimates per
//! round. Operationally each of the five is a `TargetRank`: a score
//! over a job's cheapest target ECTs, plus a bound on that score when
//! some ECTs are only bracketed. After a placement only one cluster's
//! estimates move (and, under FCFS/CBF, only upwards), so
//! `EctView::select` keeps every job's score — or its bound — in a
//! per-round priority index, re-keys only the jobs the placement can
//! move, and re-probes only the jobs whose bound tops the index.
//!
//! In Algorithm 2 over FCFS sites (no ECT noise), every job of one
//! width starts at the same instant on a site, so MinMin and MaxMin rank
//! the jobs of one width by their walltime alone
//! (`TargetRank::by_walltime`), and Sufferage scores them all alike when
//! every site runs at the same speed (`TargetRank::shift_invariant`):
//! the index then keeps one key per width instead of one per job.
//!
//! MinMin, MaxGain and MaxRelGain are **antitone**
//! (`TargetRank::antitone`): a job's merit can only fall when one of its
//! ECTs rises. A placement on an FCFS site only pushes that site's
//! estimates later, so it re-keys no job at all — every stored key is
//! still an upper bound — and the index re-checks only the job that
//! reaches its top. MaxMin favours late completions and Sufferage wide
//! spreads, so under either a rising ECT can raise a merit.
//!
//! The pick — the earliest-submitted job on ties — is exactly the
//! exhaustive re-ranking's (a test-only oracle pins this on random
//! grids).
//!
//! Each of these is an [`OrderingHeuristic`] implementation; a
//! [`Heuristic`] is a `Copy` handle into the string-keyed registry
//! ([`Heuristic::resolve`]), so campaign specs select heuristics by name
//! and a new ordering is one implementation plus one
//! [`Heuristic::register`] call.

use std::sync::Mutex;

use grid_des::SimTime;
use grid_ser::expr::{BoundArgs, ParamSpec};

use crate::ect::{Candidate, EctView, TargetRank, ViewMode};

/// Job-selection order of a reallocation round.
///
/// Implementations are stateless; one `&'static` instance serves every
/// round.
pub trait OrderingHeuristic: std::fmt::Debug + Sync {
    /// Row label used in the paper's tables (without the `-C` suffix);
    /// also the registry key (case-insensitive).
    fn label(&self) -> &'static str;

    /// `true` for heuristics that must re-rank all remaining jobs at
    /// every step.
    fn is_offline(&self) -> bool {
        true
    }

    /// Select the next job (index into the round's job list) from the
    /// remaining ones, or `None` when the list is exhausted.
    ///
    /// Ties are broken towards the earliest-submitted remaining job (the
    /// job list is sorted by submission, and comparisons are strict).
    fn select(&self, view: &mut EctView<'_>) -> Option<usize>;

    /// Parameters this entry accepts in policy expressions. Default:
    /// none — the paper's six orderings are parameter-free.
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Build a configured instance from validated arguments. Called only
    /// when at least one argument differs from its declared default.
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn OrderingHeuristic>, String> {
        let _ = args;
        Err(format!("`{}` takes no parameters", self.label()))
    }
}

/// Copyable, comparable handle to a registered [`OrderingHeuristic`].
///
/// Identity (equality, hashing, display, table rows) is the canonical
/// policy expression — the bare label for the paper's six
/// parameter-free orderings ([`Heuristic::resolve_expr`]).
#[derive(Clone, Copy)]
pub struct Heuristic {
    order: &'static dyn OrderingHeuristic,
    /// Canonical expression — the handle's identity.
    key: &'static str,
}

#[allow(non_upper_case_globals)] // mirror the historical enum variants
impl Heuristic {
    /// Online: submission order.
    pub const Mct: Heuristic = Heuristic::base("Mct", &MctOrder);
    /// Offline: smallest best-ECT first.
    pub const MinMin: Heuristic = Heuristic::base("MinMin", &MinMinOrder);
    /// Offline: largest best-ECT first.
    pub const MaxMin: Heuristic = Heuristic::base("MaxMin", &MaxMinOrder);
    /// Offline: largest absolute reallocation gain first.
    pub const MaxGain: Heuristic = Heuristic::base("MaxGain", &MaxGainOrder);
    /// Offline: largest per-processor gain first.
    pub const MaxRelGain: Heuristic = Heuristic::base("MaxRelGain", &MaxRelGainOrder);
    /// Offline: largest sufferage (2nd-best − best ECT) first.
    /// `Sufferage(rank=K)` measures against the (K+1)-th best instead.
    pub const Sufferage: Heuristic = Heuristic::base("Sufferage", &SufferageOrder::CLASSIC);

    /// All heuristics in the paper's table order.
    pub const ALL: [Heuristic; 6] = [
        Heuristic::Mct,
        Heuristic::MinMin,
        Heuristic::MaxMin,
        Heuristic::MaxGain,
        Heuristic::MaxRelGain,
        Heuristic::Sufferage,
    ];

    /// A base (unparameterised) handle. `key` must equal
    /// `order.label()`; a unit test pins this for every built-in.
    const fn base(key: &'static str, order: &'static dyn OrderingHeuristic) -> Heuristic {
        Heuristic { order, key }
    }

    /// An unregistered handle around `order` (test wrappers).
    #[cfg(test)]
    pub(crate) fn wrap(order: &'static dyn OrderingHeuristic) -> Heuristic {
        Heuristic {
            order,
            key: order.label(),
        }
    }

    /// The ordering behind the handle.
    #[cfg(test)]
    pub(crate) fn order(self) -> &'static dyn OrderingHeuristic {
        self.order
    }
}

/// Heuristics registered at runtime by downstream crates.
static EXTRAS: Mutex<Vec<Heuristic>> = Mutex::new(Vec::new());

/// Interned parameterised instances, one per canonical expression.
static CONFIGURED: Mutex<Vec<Heuristic>> = Mutex::new(Vec::new());

impl Heuristic {
    /// Row label used in the paper's tables (without the `-C` suffix):
    /// the canonical expression.
    pub fn label(self) -> &'static str {
        self.key
    }

    /// `true` for the heuristics that must re-rank all remaining jobs at
    /// every step (everything but MCT).
    pub fn is_offline(self) -> bool {
        self.order.is_offline()
    }

    /// Select the next job from the remaining ones (see
    /// [`OrderingHeuristic::select`]).
    pub fn select(self, view: &mut EctView<'_>) -> Option<usize> {
        self.order.select(view)
    }

    /// Every registered heuristic, the paper's six first, then runtime
    /// registrations in registration order (base entries only).
    pub fn all() -> Vec<Heuristic> {
        let mut out = Self::ALL.to_vec();
        out.extend(
            EXTRAS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .iter(),
        );
        out
    }

    /// Look a base heuristic up by label (case-insensitive). Bare labels
    /// only; use [`Heuristic::resolve_expr`] for parameterised forms.
    pub fn resolve(name: &str) -> Option<Heuristic> {
        Self::all()
            .into_iter()
            .find(|h| h.label().eq_ignore_ascii_case(name))
    }

    /// Resolve a heuristic expression to a handle, validating arguments
    /// against the entry's declared [`params`](OrderingHeuristic::params)
    /// and canonicalising (default-valued arguments drop away; the
    /// paper's six orderings accept none, so `MinMin()` is `MinMin`).
    pub fn resolve_expr(input: &str) -> Result<Heuristic, String> {
        grid_ser::expr::resolve_configured(
            input,
            Self::resolve,
            |name| {
                format!(
                    "unknown heuristic `{name}` (registered: {})",
                    Self::all()
                        .iter()
                        .map(|h| h.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            },
            |h| h.key,
            |h| h.order.params(),
            |key, bound, base| {
                let mut interned = CONFIGURED
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Some(hit) = interned.iter().find(|h| h.key == key) {
                    return Ok(*hit);
                }
                let handle = Heuristic {
                    order: Box::leak(base.order.with_params(&bound)?),
                    key: String::leak(key),
                };
                interned.push(handle);
                Ok(handle)
            },
        )
    }

    /// Register an ordering heuristic and return its handle.
    ///
    /// # Panics
    /// Panics if the label is already taken.
    pub fn register(heuristic: &'static dyn OrderingHeuristic) -> Heuristic {
        // Check and push under one lock acquisition, so two concurrent
        // registrations of the same label cannot both pass the check.
        let mut extras = EXTRAS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let taken = Self::ALL
            .iter()
            .chain(extras.iter())
            .any(|h| h.label().eq_ignore_ascii_case(heuristic.label()));
        assert!(
            !taken,
            "heuristic `{}` is already registered",
            heuristic.label()
        );
        let handle = Heuristic {
            order: heuristic,
            key: heuristic.label(),
        };
        extras.push(handle);
        handle
    }
}

impl std::fmt::Debug for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl PartialEq for Heuristic {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

impl Eq for Heuristic {}

impl std::hash::Hash for Heuristic {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.label().hash(state);
    }
}

impl PartialOrd for Heuristic {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Heuristic {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.label().cmp(other.label())
    }
}

// ---------------------------------------------------------------------
// Shared ranking helpers
// ---------------------------------------------------------------------

fn secs(t: SimTime) -> i128 {
    i128::from(t.as_secs())
}

/// A ranking by a score monotone in the job's best target ECT alone —
/// MinMin, MaxMin, MaxGain and MaxRelGain. Monotonicity is what makes
/// the bound cheap: the score's extremes over a bracketed best target
/// sit at the bracket's ends. Its direction decides whether the ranking
/// is antitone: the merit falls as an ECT rises when the score rises
/// with the best target and the lowest wins (MinMin), or falls with it
/// and the highest wins (MaxGain, MaxRelGain), but not for MaxMin.
trait ByBestTarget {
    /// `true` when the highest score wins.
    fn maximise(&self) -> bool;
    /// `true` when the score rises with the best target ECT (a job's
    /// best ECT), `false` when it falls (a gain).
    fn rises(&self) -> bool;
    /// `true` when the score reads the job's current ECT too (a gain),
    /// `false` when, in `Cancelled` mode, it reads the best target alone.
    fn reads_cur(&self) -> bool;
    /// Score given the best target ECT (`SimTime::MAX`: no target).
    fn score_best(&self, job: &Candidate, best: SimTime) -> i128;
}

fn min_ect(ects: &[SimTime]) -> SimTime {
    ects.iter().copied().min().unwrap_or(SimTime::MAX)
}

impl<T: ByBestTarget> TargetRank for T {
    fn maximise(&self) -> bool {
        ByBestTarget::maximise(self)
    }
    fn antitone(&self) -> bool {
        ByBestTarget::maximise(self) != self.rises()
    }
    fn by_walltime(&self) -> Option<bool> {
        (!self.reads_cur()).then(|| ByBestTarget::maximise(self) == self.rises())
    }
    fn score(&self, job: &Candidate, ects: &[SimTime]) -> i128 {
        self.score_best(job, min_ect(ects))
    }
    fn bound(&self, job: &Candidate, lo: &[SimTime], hi: &[SimTime]) -> i128 {
        let (a, b) = (
            self.score_best(job, min_ect(lo)),
            self.score_best(job, min_ect(hi)),
        );
        if ByBestTarget::maximise(self) {
            a.max(b)
        } else {
            a.min(b)
        }
    }
}

/// A job's best achievable ECT given its best target `best`
/// (`SimTime::MAX`: none): in `Queued` mode staying put is an option too.
/// This is the "expected completion time of a task" MinMin and MaxMin
/// rank by.
fn best_ect(job: &Candidate, best: SimTime) -> i128 {
    match job.mode {
        ViewMode::Queued => secs(best.min(job.cur)),
        ViewMode::Cancelled => secs(best),
    }
}

/// Reallocation gain: current ECT minus best target ECT (negative when
/// every move would hurt; `i128::MIN` with no target).
fn gain(job: &Candidate, best: SimTime) -> i128 {
    if best == SimTime::MAX {
        return i128::MIN;
    }
    secs(job.cur) - secs(best)
}

/// A job's options as brackets `lo <= ect <= hi`: one per target cluster
/// (`lo == SimTime::MAX`: not a target), plus staying put in `Queued`
/// mode.
struct Options<'a> {
    lo: &'a [SimTime],
    hi: &'a [SimTime],
    stay: Option<SimTime>,
}

impl<'a> Options<'a> {
    fn new(job: &Candidate, lo: &'a [SimTime], hi: &'a [SimTime]) -> Self {
        let stay = (job.mode == ViewMode::Queued).then_some(job.cur);
        Options { lo, hi, stay }
    }

    fn len(&self) -> usize {
        self.lo.len() + usize::from(self.stay.is_some())
    }

    fn bracket(&self, j: usize) -> Option<(SimTime, SimTime)> {
        match self.lo.get(j) {
            Some(&SimTime::MAX) => None,
            Some(&lo) => Some((lo, self.hi[j])),
            None => self.stay.map(|cur| (cur, cur)),
        }
    }

    /// Call `f` with the `n` smallest `(upper end, option)` pairs in
    /// ascending order (ties by position), padded with `SimTime::MAX`.
    fn with_smallest_hi<R>(&self, n: usize, f: impl FnOnce(&[(SimTime, usize)]) -> R) -> R {
        const PAD: (SimTime, usize) = (SimTime::MAX, usize::MAX);
        let mut inline = [PAD; 4];
        let mut spilled = Vec::new();
        let out = if n <= inline.len() {
            &mut inline[..n]
        } else {
            spilled.resize(n, PAD);
            &mut spilled[..]
        };
        for j in 0..self.len() {
            let Some((_, hi)) = self.bracket(j) else {
                continue;
            };
            // Insertion step, shifting the larger ones up; a later
            // option loses ties.
            let mut at = n;
            while at > 0 && out[at - 1].0 > hi {
                if at < n {
                    out[at] = out[at - 1];
                }
                at -= 1;
            }
            if at < n {
                out[at] = (hi, j);
            }
        }
        f(out)
    }
}

// ---------------------------------------------------------------------
// The paper's six orderings
// ---------------------------------------------------------------------

/// Online: submission order.
#[derive(Debug)]
pub struct MctOrder;

impl OrderingHeuristic for MctOrder {
    fn label(&self) -> &'static str {
        "Mct"
    }
    fn is_offline(&self) -> bool {
        false
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.alive_indices().next()
    }
}

/// Offline: smallest best-ECT first.
#[derive(Debug)]
pub struct MinMinOrder;

impl ByBestTarget for MinMinOrder {
    fn maximise(&self) -> bool {
        false
    }
    fn rises(&self) -> bool {
        true
    }
    fn reads_cur(&self) -> bool {
        false
    }
    fn score_best(&self, job: &Candidate, best: SimTime) -> i128 {
        best_ect(job, best)
    }
}

impl OrderingHeuristic for MinMinOrder {
    fn label(&self) -> &'static str {
        "MinMin"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.select(self)
    }
}

/// Offline: largest best-ECT first.
#[derive(Debug)]
pub struct MaxMinOrder;

impl ByBestTarget for MaxMinOrder {
    fn maximise(&self) -> bool {
        true
    }
    fn rises(&self) -> bool {
        true
    }
    fn reads_cur(&self) -> bool {
        false
    }
    fn score_best(&self, job: &Candidate, best: SimTime) -> i128 {
        best_ect(job, best)
    }
}

impl OrderingHeuristic for MaxMinOrder {
    fn label(&self) -> &'static str {
        "MaxMin"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.select(self)
    }
}

/// Offline: largest absolute reallocation gain first.
#[derive(Debug)]
pub struct MaxGainOrder;

impl ByBestTarget for MaxGainOrder {
    fn maximise(&self) -> bool {
        true
    }
    fn rises(&self) -> bool {
        false
    }
    fn reads_cur(&self) -> bool {
        true
    }
    fn score_best(&self, job: &Candidate, best: SimTime) -> i128 {
        gain(job, best)
    }
}

impl OrderingHeuristic for MaxGainOrder {
    fn label(&self) -> &'static str {
        "MaxGain"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.select(self)
    }
}

/// Offline: largest per-processor gain first.
#[derive(Debug)]
pub struct MaxRelGainOrder;

impl ByBestTarget for MaxRelGainOrder {
    fn maximise(&self) -> bool {
        true
    }
    fn rises(&self) -> bool {
        false
    }
    fn reads_cur(&self) -> bool {
        true
    }
    fn score_best(&self, job: &Candidate, best: SimTime) -> i128 {
        let g = gain(job, best);
        if g == i128::MIN {
            return i128::MIN; // no target at all
        }
        // Scale by 2^20 before the integer division so small
        // per-processor differences survive.
        (g << 20) / i128::from(job.procs.max(1))
    }
}

impl OrderingHeuristic for MaxRelGainOrder {
    fn label(&self) -> &'static str {
        "MaxRelGain"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.select(self)
    }
}

/// Offline: largest sufferage first. Classic sufferage (rank 1) ranks by
/// `2nd-best − best` ECT; `Sufferage(rank=K)` generalises to the
/// `(K+1)-th best − best` spread — how much the task suffers if denied
/// its K best placements — the first *parameterised* heuristic entry,
/// proving the registry's params machinery end to end.
#[derive(Debug)]
pub struct SufferageOrder {
    /// Which alternative the spread is measured against (1 = classic
    /// second-best).
    rank: usize,
}

impl SufferageOrder {
    /// The paper's classic sufferage: second-best minus best.
    pub const CLASSIC: SufferageOrder = SufferageOrder { rank: 1 };
}

impl TargetRank for SufferageOrder {
    // The rank-th option is at worst the rank-th target (0-based) when
    // staying put comes first.
    fn depth(&self) -> usize {
        self.rank + 1
    }
    fn maximise(&self) -> bool {
        true
    }
    // A spread between two options.
    fn shift_invariant(&self) -> bool {
        true
    }
    fn score(&self, job: &Candidate, ects: &[SimTime]) -> i128 {
        let options = Options::new(job, ects, ects);
        options.with_smallest_hi(self.rank + 1, |top| match top[self.rank].0 {
            // Too few options to suffer at this rank.
            SimTime::MAX => i128::MIN,
            alt => secs(alt) - secs(top[0].0),
        })
    }
    // Whichever option `m` turns out best (at least its lower end), the
    // rank-th best is the (rank−1)-th best of the others — at most the
    // (rank−1)-th smallest of their upper ends, which is the overall
    // rank-th smallest when `m` is among the first `rank`.
    fn bound(&self, job: &Candidate, lo: &[SimTime], hi: &[SimTime]) -> i128 {
        let options = Options::new(job, lo, hi);
        let rank = self.rank;
        options.with_smallest_hi(rank + 1, |top| {
            let spread = |alt: SimTime, best: SimTime| match alt {
                SimTime::MAX => i128::MAX,
                alt => secs(alt) - secs(best),
            };
            (0..options.len())
                .filter_map(|m| {
                    let (best, _) = options.bracket(m)?;
                    let ahead = top[..rank].iter().any(|&(_, j)| j == m);
                    Some(spread(top[if ahead { rank } else { rank - 1 }].0, best))
                })
                .max()
                .unwrap_or(i128::MIN)
        })
    }
}

impl OrderingHeuristic for SufferageOrder {
    fn label(&self) -> &'static str {
        "Sufferage"
    }
    fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
        view.select(self)
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int(
            "rank",
            Some(1),
            "which alternative the sufferage spread is measured against",
        )]
    }
    fn with_params(&self, args: &BoundArgs) -> Result<Box<dyn OrderingHeuristic>, String> {
        let rank = args.i64("rank").expect("declared with a default");
        if rank < 1 {
            return Err(format!("`Sufferage` needs rank >= 1, got {rank}"));
        }
        Ok(Box::new(SufferageOrder {
            rank: rank as usize,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ect::WaitingJob;
    use grid_batch::{BatchPolicy, Cluster, ClusterSpec, JobSpec};
    use grid_des::SimTime;

    /// Cluster 0 busy for 1000 s holds three waiting jobs with distinct
    /// shapes; clusters 1 and 2 are differently loaded targets.
    ///
    /// Waiting jobs (all on cluster 0, submitted in id order):
    ///   j1: 1 proc,  walltime 100
    ///   j2: 2 procs, walltime 400
    ///   j3: 8 procs, walltime 200   (only fits clusters 0 and 2)
    fn setup() -> (Vec<Cluster>, Vec<WaitingJob>) {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 8, 1.0), BatchPolicy::Fcfs);
        let mut c1 = Cluster::new(ClusterSpec::new("c1", 4, 1.0), BatchPolicy::Fcfs);
        let c2 = Cluster::new(ClusterSpec::new("c2", 8, 1.0), BatchPolicy::Fcfs);
        c0.submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        // Cluster 1 busy for 50 s on all procs.
        c1.submit(JobSpec::new(101, 0, 4, 50, 50), SimTime(0))
            .unwrap();
        c1.start_due(SimTime(0));
        let j1 = JobSpec::new(1, 0, 1, 80, 100);
        let j2 = JobSpec::new(2, 1, 2, 300, 400);
        let j3 = JobSpec::new(3, 2, 8, 150, 200);
        c0.submit(j1, SimTime(2)).unwrap();
        c0.submit(j2, SimTime(2)).unwrap();
        c0.submit(j3, SimTime(2)).unwrap();
        let jobs = vec![
            WaitingJob {
                spec: j1,
                cluster: 0,
            },
            WaitingJob {
                spec: j2,
                cluster: 0,
            },
            WaitingJob {
                spec: j3,
                cluster: 0,
            },
        ];
        (vec![c0, c1, c2], jobs)
    }

    /// ECT table for `setup` at t=2 (FCFS):
    ///   cur(j1)=1100, cur(j2)=1400, cur(j3)=1600.
    ///   new(j1): c1 -> 150, c2 -> 102.
    ///   new(j2): c1 -> 450, c2 -> 402.
    ///   new(j3): c1 -> none, c2 -> 202.
    fn view<'a>(clusters: &'a mut [Cluster], jobs: &'a [WaitingJob]) -> EctView<'a> {
        EctView::queued(clusters, jobs, SimTime(2))
    }

    /// Pin the fixture's exact ECT matrix: every ordering expectation
    /// below is derived from these numbers, so a drift in `EctView` or
    /// the fixture clusters shows up here first, with the changed value
    /// named.
    #[test]
    fn setup_ects_are_as_documented() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        assert_eq!(v.cur_ect(0), SimTime(1100));
        assert_eq!(v.cur_ect(1), SimTime(1400));
        assert_eq!(v.cur_ect(2), SimTime(1600));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(150)));
        assert_eq!(v.new_ect(0, 2), Some(SimTime(102)));
        assert_eq!(v.new_ect(1, 1), Some(SimTime(450)));
        assert_eq!(v.new_ect(1, 2), Some(SimTime(402)));
        assert_eq!(v.new_ect(2, 1), None);
        assert_eq!(v.new_ect(2, 2), Some(SimTime(202)));
    }

    #[test]
    fn mct_takes_submission_order() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        assert_eq!(Heuristic::Mct.select(&mut v), Some(0));
        v.remove(0);
        assert_eq!(Heuristic::Mct.select(&mut v), Some(1));
        v.remove(1);
        assert_eq!(Heuristic::Mct.select(&mut v), Some(2));
        v.remove(2);
        assert_eq!(Heuristic::Mct.select(&mut v), None);
    }

    #[test]
    fn minmin_picks_smallest_best_ect() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        // best ECTs: j1 -> 102, j2 -> 402, j3 -> 202.
        assert_eq!(Heuristic::MinMin.select(&mut v), Some(0));
        v.remove(0);
        assert_eq!(Heuristic::MinMin.select(&mut v), Some(2));
    }

    #[test]
    fn maxmin_picks_largest_best_ect() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        assert_eq!(Heuristic::MaxMin.select(&mut v), Some(1)); // 402
    }

    #[test]
    fn maxgain_picks_largest_gain() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        // gains: j1: 1100-102=998, j2: 1400-402=998, j3: 1600-202=1398.
        assert_eq!(Heuristic::MaxGain.select(&mut v), Some(2));
        v.remove(2);
        // Tie (998, 998) -> earliest submitted (j1).
        assert_eq!(Heuristic::MaxGain.select(&mut v), Some(0));
    }

    #[test]
    fn maxrelgain_divides_by_procs() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        // per-proc gains: j1: 998/1, j2: 998/2=499, j3: 1398/8=174.75.
        assert_eq!(Heuristic::MaxRelGain.select(&mut v), Some(0));
        v.remove(0);
        assert_eq!(Heuristic::MaxRelGain.select(&mut v), Some(1));
    }

    #[test]
    fn sufferage_picks_widest_spread_of_two_best() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        // options j1: {1100, 150, 102} -> suff 48
        //         j2: {1400, 450, 402} -> suff 48
        //         j3: {1600, 202}      -> suff 1398
        assert_eq!(Heuristic::Sufferage.select(&mut v), Some(2));
        v.remove(2);
        // Tie (48, 48) -> earliest submitted.
        assert_eq!(Heuristic::Sufferage.select(&mut v), Some(0));
    }

    #[test]
    fn empty_view_selects_none() {
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        v.remove(0);
        v.remove(1);
        v.remove(2);
        for h in Heuristic::ALL {
            assert_eq!(h.select(&mut v), None, "{h}");
        }
    }

    /// The rankings whose merit only falls as an ECT rises: the ones
    /// ranking by a best ECT to minimise or a gain to maximise.
    #[test]
    fn antitone_rankings_are_minmin_and_the_gains() {
        assert!(MinMinOrder.antitone());
        assert!(MaxGainOrder.antitone());
        assert!(MaxRelGainOrder.antitone());
        assert!(!MaxMinOrder.antitone());
        assert!(!SufferageOrder::CLASSIC.antitone());
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Heuristic::ALL.iter().map(|h| h.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Mct",
                "MinMin",
                "MaxMin",
                "MaxGain",
                "MaxRelGain",
                "Sufferage"
            ]
        );
    }

    #[test]
    fn only_mct_is_online() {
        assert!(!Heuristic::Mct.is_offline());
        for h in &Heuristic::ALL[1..] {
            assert!(h.is_offline(), "{h}");
        }
    }

    #[test]
    fn registry_resolves_by_label() {
        assert_eq!(Heuristic::resolve("minmin"), Some(Heuristic::MinMin));
        assert_eq!(Heuristic::resolve("SUFFERAGE"), Some(Heuristic::Sufferage));
        assert_eq!(Heuristic::resolve("nope"), None);
        assert_eq!(Heuristic::all()[..6], Heuristic::ALL);
        for h in Heuristic::ALL {
            assert_eq!(h.key, h.order.label(), "const key drifted for {}", h.key);
        }
    }

    #[test]
    fn expressions_resolve_and_reject_args() {
        assert_eq!(
            Heuristic::resolve_expr("MinMin()").unwrap(),
            Heuristic::MinMin
        );
        assert_eq!(
            Heuristic::resolve_expr("sufferage").unwrap(),
            Heuristic::Sufferage
        );
        let err = Heuristic::resolve_expr("nope").unwrap_err();
        assert!(err.contains("unknown heuristic"), "{err}");
        assert!(err.contains("Mct, MinMin, MaxMin"), "{err}");
        let err = Heuristic::resolve_expr("MinMin(k=2)").unwrap_err();
        assert!(err.contains("takes no parameters"), "{err}");
    }

    /// `Sufferage(rank=K)` — the first parameterised heuristic entry:
    /// canonicalisation, validation and a rank-2 selection that diverges
    /// from the classic ordering.
    #[test]
    fn sufferage_rank_parameterises_the_heuristic() {
        // rank=1 is the classic entry (default drops away).
        assert_eq!(
            Heuristic::resolve_expr("Sufferage(rank=1)").unwrap(),
            Heuristic::Sufferage
        );
        let rank2 = Heuristic::resolve_expr("sufferage(rank=2)").unwrap();
        assert_eq!(rank2.label(), "Sufferage(rank=2)");
        assert_ne!(rank2, Heuristic::Sufferage);
        assert_eq!(
            Heuristic::resolve_expr("Sufferage( rank = 2 )").unwrap(),
            rank2,
            "interned per canonical expression"
        );
        let err = Heuristic::resolve_expr("Sufferage(rank=0)").unwrap_err();
        assert!(err.contains("rank >= 1"), "{err}");
        let err = Heuristic::resolve_expr("Sufferage(rank=soon)").unwrap_err();
        assert!(err.contains("rank: int = 1"), "{err}");
        // Fixture spreads (see `setup_ects_are_as_documented`):
        //   options j1: {102, 150, 1100}, j2: {402, 450, 1400},
        //           j3: {202, 1600}.
        // rank 1 picks j3 (1398); rank 2 needs a third option, so j3
        // drops out and j2 wins (1400 − 402 = 998 > 1100 − 102 = 998 —
        // tie! → earliest submitted, j1).
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        assert_eq!(Heuristic::Sufferage.select(&mut v), Some(2));
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        assert_eq!(
            rank2.select(&mut v),
            Some(0),
            "rank-2 spread ties, j1 first"
        );
    }

    #[test]
    fn runtime_registration_extends_the_axis() {
        /// Largest processor count first — a shape the paper never uses.
        #[derive(Debug)]
        struct WidestFirst;
        impl OrderingHeuristic for WidestFirst {
            fn label(&self) -> &'static str {
                "TestWidest"
            }
            fn select(&self, view: &mut EctView<'_>) -> Option<usize> {
                let alive: Vec<usize> = view.alive_indices().collect();
                alive
                    .into_iter()
                    .max_by_key(|&i| (view.jobs()[i].spec.procs, std::cmp::Reverse(i)))
            }
        }
        let handle = Heuristic::register(&WidestFirst);
        assert_eq!(Heuristic::resolve("testwidest"), Some(handle));
        let (mut clusters, jobs) = setup();
        let mut v = view(&mut clusters, &jobs);
        // j3 (8 procs) first.
        assert_eq!(handle.select(&mut v), Some(2));
    }
}
