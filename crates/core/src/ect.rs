//! Cached estimated-completion-time (ECT) queries for reallocation rounds.
//!
//! The offline heuristics of §2.2.2 re-rank every remaining job after
//! each decision. Semantically each ranking asks the clusters for fresh
//! estimates; operationally an estimate can only change when the cluster
//! it concerns changed, and most changes can only push it *later*. The
//! [`EctView`] therefore memoises estimates per column (cluster), and
//! keeps them in one of two shapes:
//!
//! * **Closed columns hold one start per width class.** Under a
//!   scheduler that returns a
//!   [`tail_staircase`](grid_batch::LocalScheduler::tail_staircase)
//!   (FCFS), and without ECT noise, an entry has a closed form: the first
//!   instant the job's processors are free after the queue's tail, plus
//!   its scaled walltime. Every job of one width starts at the same
//!   instant, so the round groups its jobs into **width classes** (its
//!   distinct processor counts) and a closed column stores one start per
//!   class; a job's entry is read as its class's start plus its scaled
//!   walltime there, and is always exact. Once the round's selection
//!   index exists, every change of such a column — submit or cancel —
//!   re-reads the starts of the classes in one walk
//!   ([`Staircase::walk`]) over the widths in ascending order. A tail
//!   submit on `[s, e)` with `p` processors moves no width above the free
//!   count just before `e` plus `p` (free capacity after the floor only
//!   rises, and starts rise with width), so that walk stops at the first
//!   class wider than that;
//! * **bracket columns keep a matrix entry per job.** A submit to a
//!   cluster whose policy claims
//!   [`LocalScheduler::incremental_tail`](grid_batch::LocalScheduler::incremental_tail)
//!   without a clean staircase (CBF, and FCFS under ECT noise) only
//!   carves one more reservation behind the queue, so no estimate on that
//!   cluster can drop — ECT noise included, its perturbation being
//!   monotone — and no reservation moves. The column's entries become
//!   lower bounds ([`EctView::note_submit`]). A cancel, or a submit
//!   under any other policy (the EASY family re-examines the whole
//!   queue), makes them unknown ([`EctView::note_cancel`]).
//!
//! The bookkeeping is O(1) per change for a bracket column: every entry
//! records the logical clock of its probe, and every column the clocks
//! of its last change and last reset. Every class start records the clock
//! of its read; a walk sets the column's change clock back to its reset
//! clock, since every start read since the reset is exact again.
//!
//! A job's best targets (its `depth` cheapest clusters) need no separate
//! cache: they are known exactly whenever the row's smallest entries by
//! (known lower bound, cluster) are themselves exact — a best target
//! stays valid while its column is fresh, because every other entry
//! could only have risen.
//!
//! Selection runs on a per-round **priority index** (`EctView::select`),
//! keyed one of two ways:
//!
//! * **by class.** In `Cancelled` mode over closed columns only, under a
//!   ranking whose score reads nothing but the best target ECT
//!   (`TargetRank::by_walltime`: MinMin, MaxMin), a job's merit within
//!   its class moves one way with its walltime. The index then holds one
//!   key per class: the merit of its longest (MaxMin) or shortest
//!   (MinMin) job, and among the jobs of equal merit — the whole run,
//!   since rounding under heterogeneous speeds can tie distinct
//!   walltimes — the earliest submitted. A class is re-keyed when a
//!   walk moves its start across the pivot of that extreme job, of the
//!   pick, or of the nearest job outside the run (the only ones whose
//!   merits decide the key), or when its pick leaves the round;
//! * **by job** otherwise. Each job's key is its merit under the round's
//!   `TargetRank` — exact when its best targets are known, else the
//!   optimistic bound over its bracketed row. A walk re-keys a job of a
//!   class whose start moved only when its entry crosses the job's
//!   **pivot**, the `depth`-th smallest (estimate, cluster) pair at its
//!   last exact keying: the row's `depth` smallest pairs move iff the
//!   old pair was at most the pivot or the new one is below it. A
//!   bracket column re-keys the jobs exact in it (after a bound-keeping
//!   submit) or every job with an estimate there (after a reset); in
//!   `Queued` mode a reset also re-keys the jobs queued on the reset
//!   cluster, whose current ECT may move.
//!
//! The top key is the pick as soon as it is exact. Under an
//! **antitone** ranking (`TargetRank::antitone`: the merit only falls
//! when an ECT rises) a walk after a tail submit re-keys nothing — every
//! stored key stays an upper bound — and `select` re-checks the top key
//! before taking it. Probes only tighten brackets, so they never
//! invalidate a key.
//!
//! A cold bracket column (never filled this round) is answered in one
//! *batched* pass ([`Cluster::estimate_new_batch`]): the cluster freezes
//! its availability profile behind a copy-on-write snapshot, every alive
//! job estimates against that frozen store, and a shared dominance
//! frontier lets later (wider/longer) jobs resume their placement descent
//! from floors earlier jobs proved unreachable. Later misses re-probe
//! single entries against the same snapshot, re-frozen only when a
//! mutation came through the view since.

#[cfg(doc)]
use grid_batch::Staircase;
use grid_batch::{Cluster, JobSpec};
use grid_des::{Duration, SimTime};
use grid_obs::Obs;

/// A waiting job captured at the start of a reallocation round.
#[derive(Debug, Clone, Copy)]
pub struct WaitingJob {
    /// The job itself.
    pub spec: JobSpec,
    /// Cluster index it is (or was, for Algorithm 2) queued on.
    pub cluster: usize,
}

/// How the round interprets "current" ECT and candidate targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// Algorithm 1: jobs still wait in their queues. The current ECT is the
    /// live reservation; candidate targets are the *other* clusters.
    Queued,
    /// Algorithm 2: all jobs were cancelled. The current ECT is the
    /// snapshot taken before cancellation; every cluster is a candidate
    /// target (re-submission to the origin included).
    Cancelled,
}

/// What a [`TargetRank`] scores a job by, besides its best targets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    /// Current ECT (live reservation or pre-cancel snapshot).
    pub(crate) cur: SimTime,
    /// Processors the job needs.
    pub(crate) procs: u32,
    /// The round's mode (`Queued`: staying put is an option too).
    pub(crate) mode: ViewMode,
}

/// A job ranking in the shape [`EctView::select`] can index: a score
/// over the job's target ECTs that only its `depth` smallest decide.
pub(crate) trait TargetRank {
    /// How many of a job's smallest target ECTs [`score`](Self::score)
    /// reads (1: the best target only).
    fn depth(&self) -> usize {
        1
    }

    /// `true` when the highest score wins, `false` when the lowest does.
    fn maximise(&self) -> bool;

    /// `true` when the merit (the score, reversed when the lowest wins)
    /// can only fall when a target ECT rises. A tail submit to a closed
    /// column only pushes estimates later, so it leaves every stored key
    /// an upper bound and the selection index re-keys nothing for it.
    fn antitone(&self) -> bool {
        false
    }

    /// In `Cancelled` mode, when the score reads nothing but the target
    /// ECTs' minimum: whether the merit rises (`Some(true)`) or falls
    /// (`Some(false)`) as the minimum rises. Jobs of one width then rank
    /// by their walltime alone on closed columns, where every target ECT
    /// is the width's start plus the job's scaled walltime.
    fn by_walltime(&self) -> Option<bool> {
        None
    }

    /// In `Cancelled` mode: whether the score stays the same when every
    /// target ECT shifts by the same amount. Where every job's scaled
    /// walltime is the same on every closed column, jobs of one width
    /// then share their score.
    fn shift_invariant(&self) -> bool {
        false
    }

    /// Score of a job given its target ECT per cluster (`SimTime::MAX`:
    /// not a target). Only the `depth` smallest entries are exact; any
    /// other entry is merely known to be at least as late. For depth 1
    /// the view passes the row collapsed to its minimum.
    fn score(&self, job: &Candidate, ects: &[SimTime]) -> i128;

    /// The most favourable score (the highest when maximising, else the
    /// lowest) over every row with `lo[c] <= ects[c] <= hi[c]`, where
    /// `hi[c] == SimTime::MAX` leaves cluster `c` open-ended and
    /// `lo[c] == SimTime::MAX` means it is not a target.
    fn bound(&self, job: &Candidate, lo: &[SimTime], hi: &[SimTime]) -> i128;
}

/// Probe clock of entries that never change within a round: a job's own
/// cluster in `Queued` mode, and clusters too small for the job.
const STATIC: u32 = u32::MAX;

/// The `depth`-th smallest `(estimate, cluster)` pair of a row, ordered
/// by value then cluster — `(SimTime::MAX, usize::MAX)` when the row has
/// fewer entries. A change of one entry moves the row's `depth` smallest
/// pairs iff the old pair was at most this pivot or the new one is below
/// it.
type Pivot = (SimTime, usize);

/// The pivot of `row` for `depth`.
fn pivot_of(row: &[SimTime], depth: usize) -> Pivot {
    let mut pivot = None;
    for _ in 0..depth {
        pivot = row
            .iter()
            .copied()
            .zip(0..)
            .filter(|&pair| pivot.is_none_or(|p| pair > p))
            .min();
        if pivot.is_none() {
            break;
        }
    }
    pivot.unwrap_or((SimTime::MAX, usize::MAX))
}

/// Whether moving entry `c` of a row from `old` to `new` moves the row's
/// pairs up to `pivot`.
fn crosses(pivot: Pivot, c: usize, old: SimTime, new: SimTime) -> bool {
    (old, c) <= pivot || (new, c) < pivot
}

/// A score as a merit: higher is better either way (`!` reverses the
/// order of every i128 without overflow).
fn merit(maximise: bool, score: i128) -> i128 {
    if maximise {
        score
    } else {
        !score
    }
}

/// A row's place in the selection order, packed so that one unsigned
/// comparison decides a match: the merit, offset to unsigned, above the
/// row's complement, so the earliest submission (the lowest row) wins
/// ties. Every ranking's merits stay within ±2^86 — seconds, their
/// differences, per-processor gains scaled by 2^20 — or are the `i128`
/// extremes the rankings use as sentinels, which the 96-bit clamp keeps
/// at the ends of the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    /// An empty slot: below every row's key.
    const NONE: Key = Key(0);

    fn new(merit: i128, row: usize) -> Key {
        const LIMIT: i128 = 1 << 95;
        let clamped = merit.clamp(-LIMIT, LIMIT - 1);
        debug_assert!(
            clamped == merit || merit == i128::MIN || merit == i128::MAX,
            "merit {merit} outside the packed range"
        );
        Key(((clamped + LIMIT) as u128) << 32 | u128::from(!(row as u32)))
    }

    fn row(self) -> usize {
        !(self.0 as u32) as usize
    }
}

/// The round's selection index: a four-way winner tree over slots — one
/// per row, or one per width class when keyed by class ([`Heads`]).
/// Leaves sit at fixed slots and every inner node holds the best key
/// below it, so re-keying or removing a slot replays only the matches on
/// its path to the root, and stops where a winner stands. A popped bound
/// won every match on its path and replays all of it, so each node holds
/// four children — half a binary tree's path length, with a match's four
/// keys side by side in memory.
struct Index {
    /// The ranking the keys were computed for: its type and address.
    ranking: (&'static str, usize),
    /// Whether that ranking is antitone (`TargetRank::antitone`).
    antitone: bool,
    /// Inner node count; slot `s`'s leaf is `inner + s`.
    inner: usize,
    /// `tree[node]`: the best key in the node's subtree. Node 0 is the
    /// root, and node `v`'s children are `4v + 1 ..= 4v + 4`.
    tree: Vec<Key>,
    /// Per slot: its pivot when its merit was keyed as its exact score,
    /// `None` when the merit is an upper bound. Under an antitone
    /// ranking an exact key may since have become an upper bound too.
    pivot: Vec<Option<Pivot>>,
    /// Slots a change may have re-keyed since the last selection
    /// (`marked` deduplicates them).
    stale: Vec<u32>,
    marked: Vec<bool>,
    /// The alive rows by width class: the slots' heads when they are
    /// classes (`by_class`), else what a walk re-checks per moved class.
    classes: Heads,
    by_class: bool,
}

impl Index {
    /// An index over `n` slots, none of them keyed yet.
    fn new(
        ranking: (&'static str, usize),
        antitone: bool,
        n: usize,
        classes: Heads,
        by_class: bool,
    ) -> Index {
        let mut leaves = 1;
        while leaves < n {
            leaves *= 4;
        }
        let inner = (leaves - 1) / 3;
        Index {
            ranking,
            antitone,
            inner,
            tree: vec![Key::NONE; inner + leaves],
            pivot: vec![None; n],
            stale: Vec::new(),
            marked: vec![false; n],
            classes,
            by_class,
        }
    }

    /// Play every match, once each slot is keyed.
    fn play_all(&mut self) {
        for node in (0..self.inner).rev() {
            self.tree[node] = self.winner(node);
        }
    }

    fn winner(&self, node: usize) -> Key {
        let c = &self.tree[4 * node + 1..4 * node + 5];
        c[0].max(c[1]).max(c[2].max(c[3]))
    }

    /// The best alive row, if any.
    fn top(&self) -> Option<usize> {
        let top = self.tree[0];
        (top != Key::NONE).then(|| top.row())
    }

    fn is_alive(&self, slot: usize) -> bool {
        self.tree[self.inner + slot] != Key::NONE
    }

    /// Put `key` in `slot`'s leaf and replay the matches above it.
    fn place(&mut self, slot: usize, key: Key) {
        let mut node = self.inner + slot;
        self.tree[node] = key;
        while node > 0 {
            node = (node - 1) / 4;
            let won = self.winner(node);
            if won == self.tree[node] {
                break;
            }
            self.tree[node] = won;
        }
    }

    /// Key `slot` at `merit` for `row`, exact with `pivot` or a bound
    /// without; `None` empties it. Returns whether its key stood.
    fn set(&mut self, slot: usize, key: Option<(i128, usize, Option<Pivot>)>) -> bool {
        let (key, pivot) = key.map_or((Key::NONE, None), |(merit, row, pivot)| {
            (Key::new(merit, row), pivot)
        });
        self.pivot[slot] = pivot;
        let stands = self.tree[self.inner + slot] == key;
        if !stands {
            self.place(slot, key);
        }
        stands
    }

    /// Queue `slot` for re-keying, unless it already left the index.
    fn mark(&mut self, slot: u32) {
        let s = slot as usize;
        if self.is_alive(s) && !self.marked[s] {
            self.marked[s] = true;
            self.stale.push(slot);
        }
    }
}

/// How the merits of one width class's rows order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Rising with the walltime: the head is the longest row.
    Rising,
    /// Falling with the walltime: the head is the shortest row.
    Falling,
    /// Equal across the class.
    Flat,
}

/// An [`Index`]'s rows by width class: its slots' heads when it is keyed
/// by class, else (flat) the rows a walk re-checks per moved class. Each
/// class's alive rows form groups of equal merit — by walltime (equal
/// entries everywhere), or the whole class when [`Order::Flat`] — each
/// listed in ascending row order, so a group's earliest-submitted alive
/// row is its first alive member.
struct Heads {
    order: Order,
    /// The alive rows at the build, by class, then group, then row.
    members: Vec<u32>,
    /// Per group: the end of its members, and its first member that may
    /// still be alive.
    end: Vec<u32>,
    first: Vec<u32>,
    /// Per class: its groups `lo..hi`, narrowed past dead groups at the
    /// head's end.
    groups: Vec<(u32, u32)>,
    /// Per class: the (row, pivot) pairs a start change must not cross
    /// for its key to stand — its head's, its pick's and that of the
    /// first group past the pick's run of equal merit. A flat class is
    /// one group: its rows' entries differ by one shift on every column,
    /// so its pick's pivot decides for all of them.
    watch: Vec<[(u32, Pivot); 3]>,
}

impl Heads {
    /// The heads of `order` over the `alive` rows of `jobs` in their
    /// width classes (`class`, `classes` of them), grouped by reference
    /// walltime within each class unless flat.
    fn new(
        order: Order,
        jobs: &[WaitingJob],
        class: &[u32],
        classes: usize,
        alive: &[bool],
    ) -> Heads {
        let group = |i: u32| {
            let walltime = match order {
                Order::Flat => Duration::ZERO,
                _ => jobs[i as usize].spec.walltime_ref,
            };
            (class[i as usize], walltime)
        };
        let mut members: Vec<u32> = (0..jobs.len() as u32)
            .filter(|&i| alive[i as usize])
            .collect();
        members.sort_unstable_by_key(|&i| (group(i), i));
        let mut first = Vec::new();
        let mut groups = vec![(0, 0); classes];
        for at in 0..members.len() {
            let (w, walltime) = group(members[at]);
            let prev = at.checked_sub(1).map(|p| group(members[p]));
            if prev != Some((w, walltime)) {
                if prev.map(|(pw, _)| pw) != Some(w) {
                    groups[w as usize].0 = first.len() as u32;
                }
                first.push(at as u32);
                groups[w as usize].1 = first.len() as u32;
            }
        }
        let end = first
            .iter()
            .skip(1)
            .copied()
            .chain([members.len() as u32])
            .collect();
        Heads {
            order,
            members,
            end,
            first,
            groups,
            watch: vec![[(0, (SimTime::MAX, usize::MAX)); 3]; classes],
        }
    }

    /// Where class `w`'s rows, dead ones included, sit in `members`.
    fn span(&self, w: usize) -> std::ops::Range<usize> {
        match self.groups[w] {
            (lo, hi) if lo < hi => {
                self.first[lo as usize] as usize..self.end[hi as usize - 1] as usize
            }
            _ => 0..0,
        }
    }
}

/// Per column, the rows whose key a change of the column can move.
struct ColumnRows {
    /// The rows probed in each bracket column since its last change (its
    /// exact entries) and since its last reset (its exact and bounded
    /// entries). A change of the column moves no other row's bracket.
    /// Closed columns list no rows: their changes are walked.
    exact: Vec<Vec<u32>>,
    known: Vec<Vec<u32>>,
    /// Per cluster, in `Queued` mode: the rows queued there, whose
    /// current ECT a reset of the cluster may move.
    queued: Vec<Vec<u32>>,
}

/// Lazily filled ECT columns over the remaining jobs of one round, with
/// the round's selection index.
pub struct EctView<'a> {
    clusters: &'a mut [Cluster],
    jobs: &'a [WaitingJob],
    now: SimTime,
    mode: ViewMode,
    /// Per job: not yet processed.
    alive: Vec<bool>,
    alive_count: usize,
    /// Every job below this index is processed.
    first_alive: usize,
    /// Current ECT per job (`Queued`: live, valid while `cur_at[i]` is
    /// not older than its cluster's last change; `Cancelled`: the
    /// pre-cancel snapshot, always valid).
    cur: Vec<SimTime>,
    cur_at: Vec<u32>,
    /// Column count.
    k: usize,
    /// `est[i * k + c]`: last dry-run estimate of job `i` on bracket
    /// column `c`; `SimTime::MAX` means "cannot run there".
    est: Vec<SimTime>,
    /// Clock at which each bracket entry was probed (0: never), and
    /// [`STATIC`] in any column for an entry fixed for the round.
    probed_at: Vec<u32>,
    /// Per column: clock of its last change, and of its last reset.
    changed: Vec<u32>,
    reset: Vec<u32>,
    /// Logical clock; every column change advances it.
    clock: u32,
    /// The rows each column change can re-key, tracked from the first
    /// index build on.
    rows: Option<ColumnRows>,
    /// Per column: never opened this round. Every ranking reads a cold
    /// column in full at least once, so its first read — or the index
    /// build, for every column — opens it: a bracket column is filled in
    /// one batched pass, later misses re-probe single entries.
    cold: Vec<bool>,
    /// Per column: [`Cluster::prepare_estimates`] has run since the last
    /// change, so single probes can query the frozen snapshot directly.
    prepared: Vec<bool>,
    /// Per column: closed, i.e. its cluster answers from a staircase
    /// without noise (known once the column is opened).
    closed: Vec<bool>,
    /// The round's distinct job widths, ascending, and each row's class
    /// (its width's position there).
    widths: Vec<u32>,
    class: Vec<u32>,
    /// Per class: its alive rows; and the classes that have any, in
    /// ascending order.
    class_alive: Vec<u32>,
    live: Vec<u32>,
    /// `start[w * k + c]`: the start of class `w` on closed column `c`,
    /// and the clock it was read at.
    start: Vec<SimTime>,
    start_at: Vec<u32>,
    /// `walltime[i * k + c]`: job `i`'s scaled walltime on closed column
    /// `c` (rows stay contiguous, like `est`).
    walltime: Vec<Duration>,
    /// The selection index, built by the first [`EctView::select`].
    index: Option<Index>,
    /// Scratch: the row [`EctView::summarize`] brackets, and the classes
    /// a walk moved with their old and new starts.
    lo: Vec<SimTime>,
    hi: Vec<SimTime>,
    moved: Vec<(u32, SimTime, SimTime)>,
    /// Where the round's telemetry goes: its clusters' recorder.
    obs: Obs,
}

impl<'a> EctView<'a> {
    /// View for Algorithm 1 (jobs still queued).
    pub fn queued(clusters: &'a mut [Cluster], jobs: &'a [WaitingJob], now: SimTime) -> Self {
        let n = jobs.len();
        Self::new(
            clusters,
            jobs,
            now,
            ViewMode::Queued,
            vec![SimTime::ZERO; n],
            vec![0; n],
        )
    }

    /// View for Algorithm 2 (jobs cancelled; `pre_ects` is the snapshot of
    /// current ECTs taken before cancellation, in `jobs` order).
    pub fn cancelled(
        clusters: &'a mut [Cluster],
        jobs: &'a [WaitingJob],
        pre_ects: Vec<SimTime>,
        now: SimTime,
    ) -> Self {
        assert_eq!(jobs.len(), pre_ects.len());
        let n = jobs.len();
        Self::new(
            clusters,
            jobs,
            now,
            ViewMode::Cancelled,
            pre_ects,
            vec![STATIC; n],
        )
    }

    fn new(
        clusters: &'a mut [Cluster],
        jobs: &'a [WaitingJob],
        now: SimTime,
        mode: ViewMode,
        cur: Vec<SimTime>,
        cur_at: Vec<u32>,
    ) -> Self {
        let (n, k) = (jobs.len(), clusters.len());
        let mut probed_at = vec![0; n * k];
        for (row, w) in probed_at.chunks_mut(k.max(1)).zip(jobs) {
            for (c, cluster) in clusters.iter().enumerate() {
                let fits = w.spec.procs > 0 && w.spec.procs <= cluster.spec().procs;
                if !fits || (mode == ViewMode::Queued && c == w.cluster) {
                    row[c] = STATIC;
                }
            }
        }
        let mut widths: Vec<u32> = jobs.iter().map(|w| w.spec.procs).collect();
        widths.sort_unstable();
        widths.dedup();
        let class: Vec<u32> = jobs
            .iter()
            .map(|w| widths.partition_point(|&p| p < w.spec.procs) as u32)
            .collect();
        let mut class_alive = vec![0; widths.len()];
        for &w in &class {
            class_alive[w as usize] += 1;
        }
        let obs = clusters
            .first()
            .map(|c| c.obs().clone())
            .unwrap_or_default();
        EctView {
            clusters,
            jobs,
            now,
            mode,
            alive: vec![true; n],
            alive_count: n,
            first_alive: 0,
            cur,
            cur_at,
            k,
            est: vec![SimTime::MAX; n * k],
            probed_at,
            changed: vec![1; k],
            reset: vec![1; k],
            clock: 1,
            rows: None,
            cold: vec![true; k],
            prepared: vec![false; k],
            closed: vec![false; k],
            start: vec![SimTime::MAX; k * widths.len()],
            start_at: vec![0; k * widths.len()],
            live: (0..widths.len() as u32).collect(),
            widths,
            class,
            class_alive,
            walltime: vec![Duration::ZERO; n * k],
            index: None,
            lo: vec![SimTime::MAX; k.max(1)],
            hi: vec![SimTime::MAX; k.max(1)],
            moved: Vec::new(),
            obs,
        }
    }

    /// The round's jobs.
    pub fn jobs(&self) -> &[WaitingJob] {
        self.jobs
    }

    /// Remaining (not yet processed) job indices, ascending — i.e. in
    /// submission order, since callers sort the job list that way.
    pub fn alive_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (self.first_alive..self.alive.len()).filter(|&i| self.alive[i])
    }

    /// Count of remaining jobs.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Remove job `i` from the working list.
    pub fn remove(&mut self, i: usize) {
        assert!(
            std::mem::replace(&mut self.alive[i], false),
            "job removed twice"
        );
        self.alive_count -= 1;
        let w = self.class[i] as usize;
        self.class_alive[w] -= 1;
        if self.class_alive[w] == 0 {
            // Walks skip the class from now on; a read would find its
            // starts stale.
            self.live.retain(|&x| x as usize != w);
            self.start_at[w * self.k..(w + 1) * self.k].fill(0);
        }
        while self.alive.get(self.first_alive) == Some(&false) {
            self.first_alive += 1;
        }
        if let Some(index) = &mut self.index {
            if index.by_class {
                index.mark(self.class[i]);
            } else {
                index.set(i, None);
            }
        }
    }

    /// The telemetry handle of the round (the one its clusters report
    /// to; a grid attaches the same handle to every site).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current ECT of job `i` (live reservation or pre-cancel snapshot).
    pub fn cur_ect(&mut self, i: usize) -> SimTime {
        let w = &self.jobs[i];
        if self.cur_at[i] >= self.changed[w.cluster] {
            return self.cur[i];
        }
        debug_assert_eq!(self.mode, ViewMode::Queued);
        let v = self.clusters[w.cluster]
            .current_ect(w.spec.id, self.now)
            .unwrap_or_else(|| panic!("job {} not waiting on cluster {}", w.spec.id, w.cluster));
        self.cur[i] = v;
        self.cur_at[i] = self.clock;
        v
    }

    /// Dry-run estimate of job `i` on cluster `c`; `None` when the job
    /// cannot run there (or, in `Queued` mode, when `c` is its own
    /// cluster — its own cluster is not a migration target).
    pub fn new_ect(&mut self, i: usize, c: usize) -> Option<SimTime> {
        let v = self.read(i, c);
        (v != SimTime::MAX).then_some(v)
    }

    /// Entry `(i, c)`, made exact first (`SimTime::MAX`: not a target).
    fn read(&mut self, i: usize, c: usize) -> SimTime {
        let at = i * self.k + c;
        if self.probed_at[at] == STATIC {
            return SimTime::MAX;
        }
        if self.cold[c] {
            self.open(c, i);
        }
        if self.closed[c] {
            return self.class_start(c, self.class[i] as usize) + self.walltime[at];
        }
        if self.probed_at[at] < self.changed[c] {
            self.probe(i, c);
        }
        self.est[at]
    }

    /// Open cold column `c`, read by row `want`: a clean staircase closes
    /// it (its class starts are read on demand); anything else is a
    /// bracket column, filled in one batched pass.
    fn open(&mut self, c: usize, want: usize) {
        self.cold[c] = false;
        self.prepared[c] = true;
        let cluster = &mut self.clusters[c];
        if cluster.ect_noise().is_none() {
            cluster.prepare_estimates(self.now);
            if cluster.estimate_staircase().is_some() {
                self.closed[c] = true;
                for (i, w) in self.jobs.iter().enumerate() {
                    self.walltime[i * self.k + c] = cluster.scale_job(&w.spec).walltime;
                }
                return;
            }
        }
        self.fill_column(c, want);
    }

    /// The start of class `w` on closed column `c`, read off the frozen
    /// staircase when the column changed since.
    fn class_start(&mut self, c: usize, w: usize) -> SimTime {
        let at = w * self.k + c;
        if self.start_at[at] < self.changed[c] {
            let cluster = &mut self.clusters[c];
            if self.prepared[c] {
                cluster.note_snapshot_reuse();
            } else {
                cluster.prepare_estimates(self.now);
                self.prepared[c] = true;
            }
            let stairs = cluster
                .estimate_staircase()
                .expect("a closed column's scheduler has a staircase");
            self.start[at] = stairs.first_free(self.widths[w]);
            self.start_at[at] = self.clock;
        }
        self.start[at]
    }

    /// Entry `(i, c)` of a closed column (or of one no alive row fits),
    /// read off a fresh class start: once rows are tracked, every change
    /// of a closed column is walked, so every live start is fresh.
    fn closed_entry(&self, i: usize, c: usize) -> SimTime {
        if self.probed_at[i * self.k + c] == STATIC {
            return SimTime::MAX;
        }
        let at = self.class[i] as usize * self.k + c;
        debug_assert!(self.start_at[at] >= self.changed[c], "stale class start");
        self.start[at] + self.walltime[i * self.k + c]
    }

    /// Make bracket entry `(i, c)` exact: re-probe it against the frozen
    /// snapshot (re-freezing only after a change came through the view).
    fn probe(&mut self, i: usize, c: usize) {
        let cluster = &mut self.clusters[c];
        if self.prepared[c] {
            cluster.note_snapshot_reuse();
        } else {
            cluster.prepare_estimates(self.now);
            self.prepared[c] = true;
        }
        if self.probed_at[i * self.k + c] >= self.reset[c] {
            cluster.note_stale_refresh();
        }
        let est = cluster.estimate_new_at(&self.jobs[i].spec, self.now);
        self.store(i, c, est);
    }

    /// Record a fresh estimate of bracket entry `(i, c)`, listing row `i`
    /// among the column's exact rows, and among its known rows unless it
    /// already was, once rows are tracked.
    fn store(&mut self, i: usize, c: usize, est: Option<SimTime>) {
        let at = i * self.k + c;
        if let Some(rows) = &mut self.rows {
            if self.probed_at[at] < self.reset[c] {
                rows.known[c].push(i as u32);
            }
            rows.exact[c].push(i as u32);
        }
        self.est[at] = est.unwrap_or(SimTime::MAX);
        self.probed_at[at] = self.clock;
    }

    /// Fill every inexact entry of bracket column `c` among the alive
    /// jobs (plus the queried row `want`) in one batched snapshot pass.
    /// Estimates are bit-identical to per-entry
    /// [`Cluster::estimate_new_at`] calls: every query in the pass shares
    /// the same frozen profile and the same tail-floor base, so the
    /// threaded dominance frontier only skips descent work, never changes
    /// an answer.
    fn fill_column(&mut self, c: usize, want: usize) {
        let (k, jobs) = (self.k, self.jobs);
        let mut wanted: Vec<Option<&JobSpec>> = vec![None; jobs.len()];
        for i in self.alive_indices().chain(std::iter::once(want)) {
            if self.probed_at[i * k + c] < self.changed[c] {
                wanted[i] = Some(&jobs[i].spec);
            }
        }
        let ests = self.clusters[c].estimate_new_batch(wanted.iter().copied(), self.now);
        for (i, est) in ests.into_iter().enumerate() {
            if wanted[i].is_some() {
                self.store(i, c, est);
            }
        }
    }

    /// Best migration target for job `i`: `(cluster, ect)` minimising the
    /// estimate (lowest index on ties).
    pub fn best_target(&mut self, i: usize) -> Option<(usize, SimTime)> {
        let mut best = None;
        for c in 0..self.k {
            let e = self.read(i, c);
            if e != SimTime::MAX && best.is_none_or(|(_, b)| e < b) {
                best = Some((c, e));
            }
        }
        best
    }

    /// Make every entry of job `i`'s row exact, into `self.lo`. Each
    /// re-probe answers a change noted since the entry's last probe, so
    /// a round never probes more than re-reading every invalidated entry
    /// would.
    fn read_row(&mut self, i: usize) -> &[SimTime] {
        for c in 0..self.k {
            self.lo[c] = self.read(i, c);
        }
        &self.lo[..self.k]
    }

    /// Record that `job` was submitted to cluster `c` and reserved from
    /// `start`. A closed column is re-read once the index exists; under
    /// any other policy whose tail submissions never move a reservation
    /// the column's estimates stay valid lower bounds; otherwise it is
    /// reset.
    pub fn note_submit(&mut self, c: usize, job: &JobSpec, start: SimTime) {
        let cluster = &self.clusters[c];
        let tail = cluster
            .policy()
            .scheduler()
            .incremental_tail()
            .then(|| (start + cluster.scale_job(job).walltime, job.procs));
        self.note_change(c, tail);
    }

    /// Record that a waiting job was cancelled on cluster `c` (a hole
    /// opened: any estimate there may drop, so the column is reset).
    pub fn note_cancel(&mut self, c: usize) {
        self.note_change(c, None);
    }

    /// Advance column `c`'s clocks and mark for re-keying every slot
    /// whose key the change can move (see the module docs): a closed
    /// column is walked; in a bracket column the rows exact in `c` (their
    /// entry is now a bound), on a reset also the rows bounded there
    /// (their entry is now unknown); on a reset, the rows queued on the
    /// cluster. `tail` is the end and width of the reservation a
    /// bound-keeping submit carved; `None` resets the column.
    fn note_change(&mut self, c: usize, tail: Option<(SimTime, u32)>) {
        let reset = tail.is_none();
        self.clock += 1;
        self.changed[c] = self.clock;
        self.prepared[c] = false;
        if reset {
            self.reset[c] = self.clock;
        }
        let Some(rows) = &mut self.rows else {
            return;
        };
        let index = self.index.as_mut().expect("rows are tracked for an index");
        if reset {
            // Only `Queued` mode lists queued rows, and it keys rows.
            for &i in &rows.queued[c] {
                index.mark(i);
            }
        }
        if self.closed[c] {
            self.walk(c, tail);
            return;
        }
        let moved = if reset {
            &rows.known[c]
        } else {
            &rows.exact[c]
        };
        for &i in moved {
            index.mark(i);
        }
        rows.exact[c].clear();
        if reset {
            rows.known[c].clear();
        }
    }

    /// Re-read the class starts of closed column `c` off its fresh
    /// staircase, in one merge over the widths, and mark the slots whose
    /// keys the moved starts can move — none after a tail submit under an
    /// antitone ranking. After a tail submit (`tail`: the reservation's
    /// end and width) the walk stops at the first width it cannot have
    /// moved; after a reset it reads every class. Afterwards every start
    /// read since the column's last reset is exact, so the column's
    /// change clock goes back to its reset clock.
    fn walk(&mut self, c: usize, tail: Option<(SimTime, u32)>) {
        let k = self.k;
        self.clusters[c].prepare_estimates(self.now);
        self.prepared[c] = true;
        let cluster = &self.clusters[c];
        let stairs = cluster
            .estimate_staircase()
            .expect("a closed column's scheduler has a staircase");
        // Widths the free count never reached before the reservation's
        // end started at or after it, where nothing changed.
        let widest = tail
            .map_or(u32::MAX, |(end, procs)| {
                stairs.free_at(end - Duration(1)) + procs
            })
            .min(cluster.spec().procs);
        let mut steps = stairs.walk();
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        let mut walked = 0;
        for &w in &self.live {
            let width = self.widths[w as usize];
            if width > widest {
                break;
            }
            let at = w as usize * k + c;
            let new = steps.first_free(width);
            let old = std::mem::replace(&mut self.start[at], new);
            self.start_at[at] = self.clock;
            walked += 1;
            if new != old {
                moved.push((w, old, new));
            }
        }
        // (class, column) entries: one per class read.
        self.obs.count("ect.walked", walked);
        self.changed[c] = self.reset[c];
        // A tail submit under an antitone ranking re-keys nothing; before
        // the index exists there is nothing to re-key.
        if let Some(index) = self
            .index
            .as_mut()
            .filter(|x| tail.is_none() || !x.antitone)
        {
            let walltime = |i: u32| self.walltime[i as usize * k + c];
            if index.by_class {
                for &(w, old, new) in &moved {
                    let watched = index.classes.watch[w as usize].iter().any(|&(row, pivot)| {
                        let wt = walltime(row);
                        crosses(pivot, c, old + wt, new + wt)
                    });
                    if watched {
                        index.mark(w);
                    }
                }
            } else {
                if index.classes.members.len() > 2 * self.alive_count {
                    let nw = self.widths.len();
                    index.classes =
                        Heads::new(Order::Flat, self.jobs, &self.class, nw, &self.alive);
                }
                for &(w, old, new) in &moved {
                    for at in index.classes.span(w as usize) {
                        let row = index.classes.members[at];
                        let i = row as usize;
                        if !self.alive[i] || self.probed_at[i * self.k + c] == STATIC {
                            continue;
                        }
                        let wt = walltime(row);
                        if index.pivot[i].is_none_or(|p| crosses(p, c, old + wt, new + wt)) {
                            index.mark(row);
                        }
                    }
                }
            }
        }
        self.moved = moved;
    }

    /// Mutable access to a cluster (for the migration itself).
    pub fn cluster_mut(&mut self, c: usize) -> &mut Cluster {
        &mut self.clusters[c]
    }

    /// Simulation instant of the round.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

impl EctView<'_> {
    // -----------------------------------------------------------------
    // Best targets and indexed selection
    // -----------------------------------------------------------------

    /// Bracket job `i`'s row as it stands — `lo <= ect <= hi` per cluster
    /// (an exact entry has both ends equal; a lower bound leaves `hi`
    /// open at `SimTime::MAX`; an unknown entry is at least `now`) — into
    /// `self.lo`/`self.hi`, and return how many brackets it wrote plus,
    /// when the row's `d` smallest entries by (lower bound, cluster) are
    /// all exact, its pivot: `lo` then carries the job's exact best
    /// target ECTs, since every entry left out is at least as late.
    ///
    /// For `d == 1` the row is collapsed to a single bracket around its
    /// minimum, which a score of the best target alone cannot tell apart
    /// from the full row.
    fn summarize(&mut self, i: usize, d: usize) -> (usize, Option<Pivot>) {
        let row = i * self.k;
        // The first entry in (lower bound, cluster) order and whether it
        // is exact, the smallest exact value, and the first inexact entry.
        let mut first = ((SimTime::MAX, 0), true);
        let mut best_exact = SimTime::MAX;
        let mut first_inexact: Option<(SimTime, usize)> = None;
        for c in 0..self.k {
            let (lo, exact) = if self.closed[c] {
                (self.closed_entry(i, c), true)
            } else {
                let (probed, est) = (self.probed_at[row + c], self.est[row + c]);
                let exact = probed >= self.changed[c];
                let known = exact || probed >= self.reset[c];
                (if known { est } else { self.now }, exact)
            };
            if lo < first.0 .0 {
                first = ((lo, c), exact);
            }
            if exact {
                best_exact = best_exact.min(lo);
            } else if d > 1 && first_inexact.is_none_or(|(v, _)| lo < v) {
                first_inexact = Some((lo, c));
            }
            if d > 1 {
                self.lo[c] = lo;
                self.hi[c] = if exact { lo } else { SimTime::MAX };
            }
        }
        if d == 1 {
            (self.lo[0], self.hi[0]) = (first.0 .0, best_exact);
            return (1, first.1.then_some(first.0));
        }
        let known = first_inexact.is_none_or(|first_inexact| {
            let ahead = (0..self.k)
                .filter(|&c| self.lo[c] == self.hi[c] && (self.lo[c], c) < first_inexact)
                .count();
            ahead >= d
        });
        (self.k, known.then(|| pivot_of(&self.lo[..self.k], d)))
    }

    fn candidate(&mut self, i: usize) -> Candidate {
        Candidate {
            cur: self.cur_ect(i),
            procs: self.jobs[i].spec.procs,
            mode: self.mode,
        }
    }

    /// Job `i`'s key under `rank` as its row stands: its merit, and its
    /// pivot when that is its exact score rather than an upper bound.
    fn key<R: TargetRank + ?Sized>(&mut self, rank: &R, i: usize) -> (i128, Option<Pivot>) {
        let (len, pivot) = self.summarize(i, rank.depth().max(1));
        let job = self.candidate(i);
        let (lo, hi) = (&self.lo[..len], &self.hi[..len]);
        let score = match pivot {
            Some(_) => rank.score(&job, lo),
            None => rank.bound(&job, lo, hi),
        };
        (merit(rank.maximise(), score), pivot)
    }

    /// The exact merit and pivot under `rank` of row `rep` of class `w`,
    /// read off the class's starts: every column is closed and walked.
    fn class_merit<R: TargetRank + ?Sized>(
        &mut self,
        rank: &R,
        w: usize,
        rep: usize,
    ) -> (i128, Pivot) {
        let k = self.k;
        for c in 0..k {
            self.lo[c] = self.closed_entry(rep, c);
        }
        let job = Candidate {
            cur: self.cur[rep],
            procs: self.widths[w],
            mode: self.mode,
        };
        let row = &self.lo[..k];
        let score = rank.score(&job, row);
        (
            merit(rank.maximise(), score),
            pivot_of(row, rank.depth().max(1)),
        )
    }

    /// Class `w`'s key under `rank`: the best merit among its alive rows,
    /// and the earliest-submitted row holding it, found from the head's
    /// end of its groups; `None` when no row of the class is left. Also
    /// records the rows the key's standing hinges on (`Heads::watch`).
    fn class_key<R: TargetRank + ?Sized>(
        &mut self,
        rank: &R,
        heads: &mut Heads,
        w: usize,
    ) -> Option<(i128, usize, Option<Pivot>)> {
        let (mut lo, mut hi) = heads.groups[w];
        let rising = heads.order == Order::Rising;
        let mut best: Option<(i128, u32)> = None;
        let mut watch = [(0, (SimTime::MAX, usize::MAX)); 3];
        while lo < hi {
            let g = if rising { hi - 1 } else { lo } as usize;
            let end = heads.end[g];
            let first = &mut heads.first[g];
            while *first < end && !self.alive[heads.members[*first as usize] as usize] {
                *first += 1;
            }
            if *first == end {
                // A dead group; one at the head's end is dropped for good.
                if best.is_none() {
                    heads.groups[w] = if rising { (lo, hi - 1) } else { (lo + 1, hi) };
                }
            } else {
                // The group's earliest alive row; its entries stand for
                // every row of the group.
                let row = heads.members[*first as usize];
                let (m, pivot) = self.class_merit(rank, w, row as usize);
                match best {
                    None => {
                        best = Some((m, row));
                        watch = [(row, pivot); 3];
                    }
                    Some((top, pick)) if m == top => {
                        if row < pick {
                            best = Some((m, row));
                            watch[1] = (row, pivot);
                        }
                    }
                    Some(_) => {
                        watch[2] = (row, pivot);
                        break;
                    }
                }
            }
            if rising {
                hi -= 1;
            } else {
                lo += 1;
            }
        }
        heads.watch[w] = watch;
        best.map(|(m, row)| (m, row as usize, Some(watch[0].1)))
    }

    /// Re-key `slot` under `rank` and return whether its key stood.
    fn rekey<R: TargetRank + ?Sized>(&mut self, rank: &R, index: &mut Index, slot: usize) -> bool {
        if index.by_class {
            let key = self.class_key(rank, &mut index.classes, slot);
            index.set(slot, key)
        } else {
            let (merit, pivot) = self.key(rank, slot);
            index.set(slot, Some((merit, slot, pivot)))
        }
    }

    /// The alive job `rank` scores best — the earliest-submitted one on
    /// ties — or `None` when the round is over.
    ///
    /// Exactly the job an exhaustive re-ranking over exact estimates
    /// picks, read off the round's priority index. The first call keys
    /// every alive job (or class); later calls first re-key the slots the
    /// noted changes marked. Then the top key decides: an exact key is
    /// the pick (every other key is at least its slot's true merit, and
    /// the key order is the tie-break order), while a bound has its row
    /// re-probed and goes back in at its exact score. Under an antitone
    /// ranking an exact key may have gone stale since — bound-keeping
    /// changes re-key nothing — so the top slot is re-keyed first, and
    /// taken only if its key stands. The index serves one ranking; a call
    /// with another rebuilds it.
    pub(crate) fn select<R: TargetRank + ?Sized>(&mut self, rank: &R) -> Option<usize> {
        let ranking = (
            std::any::type_name::<R>(),
            (rank as *const R).cast::<()>() as usize,
        );
        let mut index = match self.index.take() {
            Some(mut index) if index.ranking == ranking => {
                self.rekey_marked(rank, &mut index);
                index
            }
            _ => self.build_index(rank, ranking),
        };
        let mut stale_tops = 0;
        let pick = loop {
            let Some(i) = index.top() else {
                break None;
            };
            let slot = if index.by_class {
                self.class[i] as usize
            } else {
                i
            };
            if index.pivot[slot].is_some() {
                if !index.antitone || self.rekey(rank, &mut index, slot) {
                    break Some(i);
                }
                stale_tops += 1;
                if index.pivot[slot].is_some() {
                    continue;
                }
            }
            // A bound (only ever a row's): re-probe the row, key it exact.
            let job = self.candidate(i);
            let depth = rank.depth().max(1);
            let row = self.read_row(i);
            let key = (
                merit(rank.maximise(), rank.score(&job, row)),
                i,
                Some(pivot_of(row, depth)),
            );
            index.set(i, Some(key));
        };
        if stale_tops > 0 {
            self.obs.count("ect.rekeys", stale_tops);
        }
        self.index = Some(index);
        pick
    }

    /// Re-key the alive slots the noted changes marked, counted as
    /// `ect.rekeys` (with the stale top slots `select` re-keys under an
    /// antitone ranking).
    fn rekey_marked<R: TargetRank + ?Sized>(&mut self, rank: &R, index: &mut Index) {
        let mut stale = std::mem::take(&mut index.stale);
        let mut rekeys = 0;
        for &slot in &stale {
            let slot = slot as usize;
            index.marked[slot] = false;
            if index.is_alive(slot) {
                self.rekey(rank, index, slot);
                rekeys += 1;
            }
        }
        if rekeys > 0 {
            self.obs.count("ect.rekeys", rekeys);
        }
        stale.clear();
        index.stale = stale;
    }

    /// List the alive rows by what the matrix knows of them per bracket
    /// column.
    fn column_rows(&self) -> ColumnRows {
        let k = self.k;
        let mut rows = ColumnRows {
            exact: vec![Vec::new(); k],
            known: vec![Vec::new(); k],
            queued: vec![Vec::new(); k],
        };
        for i in self.alive_indices() {
            if self.mode == ViewMode::Queued {
                rows.queued[self.jobs[i].cluster].push(i as u32);
            }
            for c in (0..k).filter(|&c| !self.closed[c]) {
                let probed = self.probed_at[i * k + c];
                if probed != STATIC && probed >= self.reset[c] {
                    rows.known[c].push(i as u32);
                }
                if probed != STATIC && probed >= self.changed[c] {
                    rows.exact[c].push(i as u32);
                }
            }
        }
        rows
    }

    /// Key every alive job — or, by class, every width class — under
    /// `rank` into a fresh index.
    fn build_index<R: TargetRank + ?Sized>(
        &mut self,
        rank: &R,
        ranking: (&'static str, usize),
    ) -> Index {
        // Open every cold column a remaining job can run on first, so no
        // key starts out bracketing an unknown entry. The first build
        // reads every closed column's class starts afresh.
        let (n, k) = (self.jobs.len(), self.k);
        for c in 0..k {
            let reader = self
                .alive_indices()
                .find(|&i| self.probed_at[i * k + c] != STATIC);
            if let Some(i) = reader.filter(|_| self.cold[c]) {
                self.open(c, i);
            }
        }
        if self.rows.is_none() {
            for c in 0..k {
                if self.closed[c] {
                    self.walk(c, None);
                }
            }
            self.rows = Some(self.column_rows());
        }
        let nw = self.widths.len();
        let Some(order) = self.class_order(rank) else {
            let rows = Heads::new(Order::Flat, self.jobs, &self.class, nw, &self.alive);
            let mut index = Index::new(ranking, rank.antitone(), n, rows, false);
            for i in self.first_alive..n {
                if self.alive[i] {
                    let (merit, pivot) = self.key(rank, i);
                    index.pivot[i] = pivot;
                    index.tree[index.inner + i] = Key::new(merit, i);
                }
            }
            index.play_all();
            return index;
        };
        let heads = Heads::new(order, self.jobs, &self.class, nw, &self.alive);
        let mut index = Index::new(ranking, rank.antitone(), nw, heads, true);
        for w in 0..nw {
            if let Some((merit, row, pivot)) = self.class_key(rank, &mut index.classes, w) {
                index.pivot[w] = pivot;
                index.tree[index.inner + w] = Key::new(merit, row);
            }
        }
        index.play_all();
        index
    }

    /// How `rank` orders the rows of a width class, when the index can
    /// key it by class: in `Cancelled` mode over closed columns only (a
    /// column no alive row fits stays cold), by walltime when the score
    /// reads the best target alone, flat when it is shift-invariant and
    /// every row's scaled walltime is the same on every column.
    fn class_order<R: TargetRank + ?Sized>(&self, rank: &R) -> Option<Order> {
        let closed = (0..self.k).all(|c| self.closed[c] || self.cold[c]);
        if self.mode != ViewMode::Cancelled || !closed {
            return None;
        }
        if let Some(rises) = rank.by_walltime() {
            return Some(if rises { Order::Rising } else { Order::Falling });
        }
        let closed: Vec<usize> = (0..self.k).filter(|&c| self.closed[c]).collect();
        let equal = self
            .walltime
            .chunks(self.k.max(1))
            .all(|row| closed.iter().all(|&c| row[c] == row[closed[0]]));
        (rank.shift_invariant() && equal).then_some(Order::Flat)
    }

    // -----------------------------------------------------------------
    // Exhaustive queries (the reference the pruned selection must match)
    // -----------------------------------------------------------------

    /// The job's best target ECT, from a full row of exact estimates.
    #[cfg(test)]
    pub(crate) fn exhaustive_target(&mut self, i: usize) -> Option<SimTime> {
        (0..self.k).filter_map(|c| self.new_ect(i, c)).min()
    }

    /// The job's best achievable ECT over *all* options (its current
    /// position included in `Queued` mode), from a full exact row.
    #[cfg(test)]
    pub(crate) fn best_ect(&mut self, i: usize) -> SimTime {
        let target = self.exhaustive_target(i);
        match self.mode {
            ViewMode::Queued => {
                let cur = self.cur_ect(i);
                target.map_or(cur, |t| t.min(cur))
            }
            ViewMode::Cancelled => target.unwrap_or(SimTime::MAX),
        }
    }

    /// Every ECT *value* among the job's options, ascending. In `Queued`
    /// mode the options are "stay" plus each foreign cluster; in
    /// `Cancelled` mode, each cluster.
    #[cfg(test)]
    pub(crate) fn ect_options(&mut self, i: usize) -> Vec<SimTime> {
        let mut options: Vec<SimTime> = (0..self.k).filter_map(|c| self.new_ect(i, c)).collect();
        if self.mode == ViewMode::Queued {
            options.push(self.cur_ect(i));
        }
        options.sort_unstable();
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid_batch::{BatchPolicy, ClusterSpec};

    /// What the view knows about one (job, cluster) estimate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Entry {
        Exact(SimTime),
        /// The estimate is at least this (the cluster only grew since).
        Bound(SimTime),
        Unknown,
    }

    impl EctView<'_> {
        fn entry(&self, i: usize, c: usize) -> Entry {
            let at = i * self.k + c;
            let probed = self.probed_at[at];
            if self.closed[c] && probed != STATIC {
                // A closed entry is its class's start plus its walltime,
                // exact while the start is fresh, else re-read on demand.
                let w = self.class[i] as usize * self.k + c;
                return if self.start_at[w] >= self.changed[c] {
                    Entry::Exact(self.start[w] + self.walltime[at])
                } else {
                    Entry::Unknown
                };
            }
            if probed >= self.changed[c] {
                Entry::Exact(self.est[at])
            } else if probed >= self.reset[c] {
                Entry::Bound(self.est[at])
            } else {
                Entry::Unknown
            }
        }

        /// Submit `job` to cluster `c` at the round's instant and note it.
        fn submit(&mut self, c: usize, job: JobSpec) {
            let now = self.now;
            let start = self.cluster_mut(c).submit(job, now).unwrap();
            self.note_submit(c, &job, start);
        }

        /// The slots the noted changes marked for re-keying, ascending:
        /// rows, or width classes when the index is keyed by class.
        fn marked(&self) -> Vec<u32> {
            let mut rows = self
                .index
                .as_ref()
                .expect("a select built it")
                .stale
                .clone();
            rows.sort_unstable();
            rows
        }
    }

    /// Two 4-proc clusters; cluster 0 (FCFS) busy for 1000 s, cluster 1
    /// (CBF, a bracket column) free.
    fn setup() -> (Vec<Cluster>, Vec<WaitingJob>) {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 4, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 4, 1.0), BatchPolicy::Cbf);
        c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        // Waiting job on cluster 0: 2 procs, walltime 100.
        let w = JobSpec::new(1, 0, 2, 60, 100);
        c0.submit(w, SimTime(0)).unwrap();
        (
            vec![c0, c1],
            vec![WaitingJob {
                spec: w,
                cluster: 0,
            }],
        )
    }

    #[test]
    fn queued_mode_reads_live_ects() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        // Current: waits behind the 1000 s job -> 1000 + 100.
        assert_eq!(v.cur_ect(0), SimTime(1100));
        // Own cluster is not a target.
        assert_eq!(v.new_ect(0, 0), None);
        // Foreign cluster is free -> ECT 100.
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        assert_eq!(v.best_target(0), Some((1, SimTime(100))));
        assert_eq!(v.best_ect(0), SimTime(100));
        assert_eq!(v.ect_options(0), vec![SimTime(100), SimTime(1100)]);
    }

    #[test]
    fn cancelled_mode_uses_snapshot_and_all_clusters() {
        let (mut clusters, jobs) = setup();
        let pre = vec![SimTime(1100)];
        // Cancel the waiting job as Algorithm 2 would.
        clusters[0].cancel(grid_batch::JobId(1), SimTime(0));
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        assert_eq!(v.cur_ect(0), SimTime(1100), "snapshot preserved");
        // Origin cluster is now a candidate again (queue emptied: the
        // running 1000 s job still blocks 4-proc... but 2 procs fit? The
        // running job holds all 4 procs, so origin ECT is 1100).
        assert_eq!(v.new_ect(0, 0), Some(SimTime(1100)));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        assert_eq!(v.best_target(0), Some((1, SimTime(100))));
        assert_eq!(v.best_ect(0), SimTime(100));
    }

    #[test]
    fn estimates_are_cached_until_noted() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        // Mutate cluster 1 behind the cache's back.
        let blocker = JobSpec::new(200, 0, 4, 500, 500);
        let start = v.cluster_mut(1).submit(blocker, SimTime(0)).unwrap();
        // Cached value still served (this is the memoisation contract).
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        // Once the submit is noted the entry is only a lower bound, and
        // an exact query re-probes it.
        v.note_submit(1, &blocker, start);
        assert_eq!(v.entry(0, 1), Entry::Bound(SimTime(100)));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(600)));
        assert_eq!(v.entry(0, 1), Entry::Exact(SimTime(600)));
        // A cancel resets the column: nothing is known any more.
        v.cluster_mut(1).cancel(grid_batch::JobId(200), SimTime(0));
        v.note_cancel(1);
        assert_eq!(v.entry(0, 1), Entry::Unknown);
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
    }

    /// Re-probing a lower bound is visible as the `ect.stale_refreshes`
    /// telemetry counter, and only there: `ClusterStats` has no field
    /// for it.
    #[test]
    fn stale_refreshes_are_counted_in_telemetry() {
        let (mut clusters, jobs) = setup();
        let obs = grid_obs::Obs::enabled();
        clusters[1].set_obs(obs.clone(), 1);
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        v.submit(1, JobSpec::new(200, 0, 4, 500, 500));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(600)));
        v.cluster_mut(1).cancel(grid_batch::JobId(200), SimTime(0));
        v.note_cancel(1);
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)), "unknown, not stale");
        assert_eq!(
            obs.with(|r| r.counter("ect.stale_refreshes")),
            Some(1),
            "one lower bound re-probed"
        );
    }

    /// Submits under the aggressive EASY family reset the column instead
    /// of keeping bounds: its back-filling may move other reservations.
    #[test]
    fn non_incremental_submits_reset_the_column() {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 4, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 4, 1.0), BatchPolicy::Easy);
        let w = JobSpec::new(1, 0, 2, 60, 100);
        c0.submit(w, SimTime(0)).unwrap();
        let mut clusters = vec![c0, c1];
        let jobs = vec![WaitingJob {
            spec: w,
            cluster: 0,
        }];
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.new_ect(0, 1), Some(SimTime(100)));
        v.submit(1, JobSpec::new(200, 0, 4, 500, 500));
        assert_eq!(v.entry(0, 1), Entry::Unknown);
        assert_eq!(v.new_ect(0, 1), Some(SimTime(600)));
    }

    /// A best target survives changes to other (bracket) columns; when
    /// its own column moves, it is bracketed from the row and re-probed
    /// only where it could still lead.
    #[test]
    fn best_targets_follow_their_columns() {
        let mut clusters: Vec<Cluster> = (0..3)
            .map(|c| Cluster::new(ClusterSpec::new(format!("c{c}"), 4, 1.0), BatchPolicy::Cbf))
            .collect();
        clusters[1]
            .submit(JobSpec::new(100, 0, 4, 50, 50), SimTime(0))
            .unwrap();
        clusters[2]
            .submit(JobSpec::new(101, 0, 4, 80, 80), SimTime(0))
            .unwrap();
        let w = JobSpec::new(1, 0, 2, 60, 100);
        let jobs = vec![WaitingJob {
            spec: w,
            cluster: 0,
        }];
        let mut v = EctView::cancelled(&mut clusters, &jobs, vec![SimTime(1_000)], SimTime(0));
        assert_eq!(v.best_target(0), Some((0, SimTime(100))));
        // Cluster 2 grows: the best target (cluster 0) stands.
        v.submit(2, JobSpec::new(102, 0, 4, 500, 500));
        assert_eq!(v.summarize(0, 1), (1, Some((SimTime(100), 0))));
        assert_eq!((v.lo[0], v.hi[0]), (SimTime(100), SimTime(100)));
        assert_eq!(v.summarize(0, 2), (3, Some((SimTime(150), 1))));
        assert_eq!(v.lo, [SimTime(100), SimTime(150), SimTime(180)]);
        assert_eq!(v.hi, [SimTime(100), SimTime(150), SimTime::MAX]);
        // Cluster 0 fills up: only a bound remains for it, so the best
        // target ECT lies between it and cluster 1's exact estimate.
        v.submit(0, JobSpec::new(103, 0, 4, 1_000, 1_000));
        assert_eq!(v.summarize(0, 1), (1, None), "the stale cluster 0 leads");
        assert_eq!((v.lo[0], v.hi[0]), (SimTime(100), SimTime(150)));
        assert_eq!(v.summarize(0, 2), (3, None));
        assert_eq!(v.lo, [SimTime(100), SimTime(150), SimTime(180)]);
        assert_eq!(v.hi, [SimTime::MAX, SimTime(150), SimTime::MAX]);
        assert_eq!(v.best_target(0), Some((1, SimTime(150))));
        assert_eq!(v.entry(0, 2), Entry::Exact(SimTime(680)));
    }

    #[test]
    fn oversized_target_is_none() {
        let mut c0 = Cluster::new(ClusterSpec::new("c0", 8, 1.0), BatchPolicy::Fcfs);
        let c1 = Cluster::new(ClusterSpec::new("c1", 2, 1.0), BatchPolicy::Fcfs);
        c0.submit(JobSpec::new(100, 0, 8, 1000, 1000), SimTime(0))
            .unwrap();
        c0.start_due(SimTime(0));
        let w = JobSpec::new(1, 0, 4, 60, 100);
        c0.submit(w, SimTime(0)).unwrap();
        let mut clusters = vec![c0, c1];
        let jobs = vec![WaitingJob {
            spec: w,
            cluster: 0,
        }];
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(
            v.new_ect(0, 1),
            None,
            "4-proc job cannot fit 2-proc cluster"
        );
        assert_eq!(v.best_target(0), None);
        // best_ect falls back to the current position.
        assert_eq!(v.best_ect(0), SimTime(1100));
        assert_eq!(v.ect_options(0), vec![SimTime(1100)]);
    }

    /// The batched snapshot fill produces exactly the matrix per-entry
    /// `estimate_new` calls on the untouched clusters produce, and leaves
    /// each cluster's snapshot cached for the next column.
    #[test]
    fn batched_fill_matches_per_entry_estimates() {
        let build = || {
            let mut c0 = Cluster::new(ClusterSpec::new("c0", 4, 1.0), BatchPolicy::Fcfs);
            let mut c1 = Cluster::new(ClusterSpec::new("c1", 8, 1.5), BatchPolicy::Cbf);
            let c2 = Cluster::new(ClusterSpec::new("c2", 2, 1.0), BatchPolicy::Fcfs);
            c0.submit(JobSpec::new(100, 0, 4, 1000, 1000), SimTime(0))
                .unwrap();
            c0.start_due(SimTime(0));
            c1.submit(JobSpec::new(101, 0, 8, 300, 400), SimTime(0))
                .unwrap();
            c1.start_due(SimTime(0));
            let w1 = JobSpec::new(1, 0, 2, 60, 100);
            let w2 = JobSpec::new(2, 1, 4, 200, 250);
            let w3 = JobSpec::new(3, 2, 1, 30, 50);
            c0.submit(w1, SimTime(0)).unwrap();
            c0.submit(w2, SimTime(1)).unwrap();
            c1.submit(w3, SimTime(2)).unwrap();
            let jobs = vec![
                WaitingJob {
                    spec: w1,
                    cluster: 0,
                },
                WaitingJob {
                    spec: w2,
                    cluster: 0,
                },
                WaitingJob {
                    spec: w3,
                    cluster: 1,
                },
            ];
            (vec![c0, c1, c2], jobs)
        };
        let (mut reference, jobs) = build();
        let mut expected = Vec::new();
        for w in &jobs {
            for (c, cluster) in reference.iter_mut().enumerate() {
                expected.push(if c == w.cluster {
                    None
                } else {
                    cluster.estimate_new(&w.spec, SimTime(5))
                });
            }
        }
        let (mut batched_clusters, jobs) = build();
        let mut v = EctView::queued(&mut batched_clusters, &jobs, SimTime(5));
        let mut batched = Vec::new();
        for i in 0..jobs.len() {
            for c in 0..3 {
                batched.push(v.new_ect(i, c));
            }
        }
        assert_eq!(batched, expected);
        for c in &batched_clusters[1..] {
            // A closed (FCFS) column reads class starts, not a fill.
            let fills = u64::from(c.policy() != BatchPolicy::Fcfs);
            assert_eq!(
                c.stats().ect_column_refills,
                fills,
                "{}: one batched fill per bracket column",
                c.spec().name
            );
        }
        // A noted change without mutation refills from the cached snapshot.
        let mut v = EctView::queued(&mut batched_clusters, &jobs, SimTime(5));
        let before = v.new_ect(0, 2);
        v.note_cancel(2);
        assert_eq!(v.new_ect(0, 2), before);
        assert!(
            batched_clusters[2].stats().ect_snapshot_reuses >= 1,
            "the lazy refill re-used the frozen snapshot"
        );
    }

    #[test]
    fn alive_tracking() {
        let (mut clusters, jobs) = setup();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert_eq!(v.alive_count(), 1);
        assert_eq!(v.alive_indices().collect::<Vec<_>>(), vec![0]);
        v.remove(0);
        assert_eq!(v.alive_count(), 0);
        assert!(v.alive_indices().next().is_none());
    }

    /// Three idle 4-proc sites under `policy` and three 1-proc jobs:
    /// every estimate ties, so each job's best target is site 0.
    fn idle_grid(policy: BatchPolicy) -> (Vec<Cluster>, Vec<WaitingJob>) {
        let clusters = (0..3)
            .map(|c| Cluster::new(ClusterSpec::new(format!("c{c}"), 4, 1.0), policy))
            .collect();
        let jobs = (0..3)
            .map(|i| WaitingJob {
                spec: JobSpec::new(i, 0, 1, 100, 100 * (i + 1)),
                cluster: 0,
            })
            .collect();
        (clusters, jobs)
    }

    /// In a bracket (CBF) column a bound-keeping submit re-keys only the
    /// rows exact in the column: a row already bounded there keeps its
    /// bracket, and with it its key. A cancel re-keys every row with an
    /// estimate in the column.
    #[test]
    fn submits_rekey_rows_exact_in_the_column_and_cancels_every_row_targeting_it() {
        let (mut clusters, jobs) = idle_grid(BatchPolicy::Cbf);
        let obs = grid_obs::Obs::enabled();
        clusters[0].set_obs(obs.clone(), 0);
        let mut v = EctView::cancelled(&mut clusters, &jobs, vec![SimTime(1_000); 3], SimTime(0));
        assert_eq!(v.select(&crate::heuristics::MinMinOrder), Some(0));
        v.submit(1, JobSpec::new(100, 0, 4, 500, 500));
        assert_eq!(v.marked(), [0, 1, 2], "the fill left every row exact");
        // Site 1 was nobody's best target: the re-keys keep every key
        // exact, so the next pick needs no probe.
        assert_eq!(v.select(&crate::heuristics::MinMinOrder), Some(0));
        assert_eq!(obs.with(|r| r.counter("ect.rekeys")), Some(3));
        assert_eq!(v.entry(1, 1), Entry::Bound(SimTime(200)));
        // Only row 2 is exact on site 1 again when it next grows.
        assert_eq!(v.new_ect(2, 1), Some(SimTime(800)));
        v.submit(1, JobSpec::new(101, 0, 4, 500, 500));
        assert_eq!(v.marked(), [2]);
        v.cluster_mut(1).cancel(grid_batch::JobId(101), SimTime(0));
        v.note_cancel(1);
        assert_eq!(v.marked(), [0, 1, 2], "bounded rows lose their bound");
        // A removed row is never re-keyed.
        v.remove(1);
        assert_eq!(v.select(&crate::heuristics::MinMinOrder), Some(0));
        v.cluster_mut(1).cancel(grid_batch::JobId(100), SimTime(0));
        v.note_cancel(1);
        assert!(!v.marked().contains(&1));
    }

    /// In `Queued` mode a reset also re-keys the rows queued on the
    /// reset cluster (their reservations may move), while a tail submit
    /// leaves them alone (it never moves a reservation).
    #[test]
    fn resets_rekey_the_rows_queued_on_the_cluster() {
        let (mut clusters, mut jobs) = idle_grid(BatchPolicy::Cbf);
        for w in &mut jobs[..2] {
            clusters[0].submit(w.spec, SimTime(0)).unwrap();
        }
        jobs[2].cluster = 1;
        clusters[1].submit(jobs[2].spec, SimTime(0)).unwrap();
        let mut v = EctView::queued(&mut clusters, &jobs, SimTime(0));
        assert!(v.select(&crate::heuristics::MinMinOrder).is_some());
        v.submit(1, JobSpec::new(100, 0, 1, 100, 100));
        assert_eq!(v.marked(), [0, 1], "row 2 has no estimate on its own site");
        v.cluster_mut(1).cancel(grid_batch::JobId(100), SimTime(0));
        v.note_cancel(1);
        assert_eq!(v.marked(), [0, 1, 2]);
    }

    /// Two 8-proc FCFS sites at `t = 0`, each running one job — site 0
    /// all its processors until `busy.0`, site 1 four of them until
    /// `busy.1`, none for 0 — and the given waiting jobs queued on
    /// site 1 behind it.
    fn fcfs_pair(busy: (u64, u64), queued: &[JobSpec]) -> Vec<Cluster> {
        let mut clusters: Vec<Cluster> = (0..2)
            .map(|c| Cluster::new(ClusterSpec::new(format!("c{c}"), 8, 1.0), BatchPolicy::Fcfs))
            .collect();
        let busy = [(8, busy.0), (4, busy.1)];
        for (c, (procs, until)) in busy.into_iter().enumerate().filter(|b| b.1 .1 > 0) {
            let running = JobSpec::new(100 + c as u64, 0, procs, until, until);
            clusters[c].submit(running, SimTime(0)).unwrap();
            clusters[c].start_due(SimTime(0));
        }
        for &job in queued {
            clusters[1].submit(job, SimTime(0)).unwrap();
        }
        clusters
    }

    /// Cancelled-mode rows of the given `(procs, walltime)` shapes.
    fn rows(shapes: &[(u32, u64)]) -> Vec<WaitingJob> {
        (0..)
            .zip(shapes)
            .map(|(i, &(procs, walltime))| WaitingJob {
                spec: JobSpec::new(i, 0, procs, walltime, walltime),
                cluster: 0,
            })
            .collect()
    }

    /// The `ect.walked` count so far.
    fn walked(obs: &grid_obs::Obs) -> u64 {
        obs.with(|r| r.counter("ect.walked")).unwrap()
    }

    /// A tail submit on a closed (FCFS) column re-reads its class starts
    /// in one walk that stops at the first width the submit cannot have
    /// moved, keeps every entry exact, and re-keys only the classes whose
    /// watched rows' pivots the moved start crosses. One row per class
    /// here, so each class is keyed by its row.
    #[test]
    fn tail_submits_walk_closed_columns_up_to_the_widths_they_can_move() {
        // Site 1: 4 procs busy until 1000, a 2-proc job queued on
        // [0, 200): free 2 from 0, 4 from 200, 8 from 1000.
        let mut clusters = fcfs_pair((550, 1_000), &[JobSpec::new(102, 0, 2, 200, 200)]);
        let obs = grid_obs::Obs::enabled();
        for (c, cluster) in clusters.iter_mut().enumerate() {
            cluster.set_obs(obs.clone(), c as u32);
        }
        let jobs = rows(&[(1, 100), (4, 100), (8, 100)]);
        let pre = vec![SimTime(5_000); 3];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let maxmin = crate::heuristics::MaxMinOrder;
        // Best ECTs 100 and 300 on site 1, 650 on site 0.
        assert_eq!(v.select(&maxmin), Some(2));
        assert_eq!(v.index.as_ref().unwrap().pivot[1], Some((SimTime(300), 1)));
        // A 1-proc job on [0, 300): free 1 from 0, 3 from 200, 4 from
        // 300. Widths above 3 + 1 started at or after 300 and stay put.
        let before = walked(&obs);
        v.submit(1, JobSpec::new(103, 0, 1, 300, 300));
        assert_eq!(walked(&obs) - before, 2);
        assert_eq!(v.entry(0, 1), Entry::Exact(SimTime(100)), "unmoved");
        assert_eq!(v.entry(1, 1), Entry::Exact(SimTime(400)), "its pivot");
        assert_eq!(v.entry(2, 1), Entry::Exact(SimTime(1_100)), "not walked");
        assert_eq!(v.marked(), [1]);
        assert_eq!(v.select(&maxmin), Some(2));
        assert_eq!(v.index.as_ref().unwrap().pivot[1], Some((SimTime(400), 1)));
        assert_eq!(obs.with(|r| r.counter("ect.stale_refreshes")), Some(0));
    }

    /// A reset walks every row of a closed column, and a changed entry
    /// re-keys its row when it falls below the row's pivot, not when it
    /// stays above it.
    #[test]
    fn resets_walk_every_row_and_rekey_rows_whose_pivot_they_cross() {
        // Site 1: 4 procs busy until 100, an 8-proc job queued on
        // [100, 1100).
        let mut clusters = fcfs_pair((50, 100), &[JobSpec::new(102, 0, 8, 1_000, 1_000)]);
        let jobs = rows(&[(1, 100), (8, 2_000)]);
        let pre = vec![SimTime(5_000); 2];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let maxmin = crate::heuristics::MaxMinOrder;
        assert_eq!(v.select(&maxmin), Some(1));
        assert_eq!(v.entry(0, 1), Entry::Exact(SimTime(1_200)));
        assert_eq!(v.entry(1, 1), Entry::Exact(SimTime(3_100)));
        v.cluster_mut(1).cancel(grid_batch::JobId(102), SimTime(0));
        v.note_cancel(1);
        // Row 0: 1200 -> 100, below its pivot (150 on site 0). Row 1:
        // 3100 -> 2100, still above its pivot (2050 on site 0).
        assert_eq!(v.entry(0, 1), Entry::Exact(SimTime(100)));
        assert_eq!(v.entry(1, 1), Entry::Exact(SimTime(2_100)));
        assert_eq!(v.marked(), [0]);
        assert_eq!(v.select(&maxmin), Some(1));
    }

    /// Under an antitone ranking a tail submit on a closed column
    /// re-keys no row; the stale top row is re-checked and placed again,
    /// so the pick is still the exact one. MaxGain reads the current
    /// ECTs, so it keys rows (equal here, so it ranks as MinMin would).
    #[test]
    fn antitone_rankings_rekey_no_row_on_tail_submits_and_recheck_the_top() {
        let mut clusters = fcfs_pair((0, 0), &[]);
        let obs = grid_obs::Obs::enabled();
        clusters[0].set_obs(obs.clone(), 0);
        let jobs = rows(&[(1, 100), (8, 200), (1, 300)]);
        let pre = vec![SimTime(5_000); 3];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let maxgain = crate::heuristics::MaxGainOrder;
        assert_eq!(v.select(&maxgain), Some(0));
        assert!(!v.index.as_ref().unwrap().by_class, "keyed by row");
        v.remove(0);
        // A 1-proc job on [0, 1000) on each site pushes row 1 (8 procs)
        // to 1200 everywhere; row 2 (1 proc) keeps 300.
        for c in 0..2 {
            v.submit(c, JobSpec::new(200 + c as u64, 0, 1, 1_000, 1_000));
        }
        assert_eq!(v.entry(1, 0), Entry::Exact(SimTime(1_200)));
        assert_eq!(v.entry(2, 1), Entry::Exact(SimTime(300)));
        assert_eq!(v.marked(), [] as [u32; 0]);
        assert_eq!(
            v.select(&maxgain),
            Some(2),
            "row 1's stale key is re-checked"
        );
        assert_eq!(obs.with(|r| r.counter("ect.rekeys")), Some(1));
        // MaxMin is not antitone: the same kind of change re-keys the
        // classes of both rows (width 1: row 2, width 8: row 1).
        let maxmin = crate::heuristics::MaxMinOrder;
        assert_eq!(v.select(&maxmin), Some(1));
        assert!(v.index.as_ref().unwrap().by_class, "keyed by class");
        v.submit(0, JobSpec::new(202, 0, 8, 10, 10));
        assert_eq!(v.marked(), [0, 1]);
    }

    /// A closed column changed before the index exists was never walked;
    /// the index build re-reads it whole, so no key starts from a stale
    /// entry.
    #[test]
    fn the_index_build_rereads_closed_columns_changed_before_it() {
        let mut clusters = fcfs_pair((0, 0), &[]);
        let jobs = rows(&[(1, 100), (8, 200)]);
        let pre = vec![SimTime(5_000); 2];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        assert_eq!(v.best_target(1), Some((0, SimTime(200))));
        v.submit(0, JobSpec::new(200, 0, 8, 1_000, 1_000));
        assert_eq!(v.entry(1, 0), Entry::Unknown, "its class start is stale");
        assert_eq!(v.select(&crate::heuristics::MaxMinOrder), Some(1));
        assert_eq!(v.entry(0, 0), Entry::Exact(SimTime(1_100)));
        assert_eq!(v.entry(1, 0), Entry::Exact(SimTime(1_200)));
    }
    /// A class walk on a hand-built two-site FCFS grid with several rows
    /// per width: the walk reads only the live classes up to the width
    /// the tail submit can move, and re-keys a moved class only when the
    /// move crosses a watched row's pivot. The class key is its longest
    /// row's merit (MaxMin) held by its earliest row, and a pick leaving
    /// the round re-keys its class to the next row.
    #[test]
    fn class_walks_stop_at_unmoved_widths_and_rekey_classes_whose_watched_rows_cross() {
        // Site 0: all 8 procs busy until 150. Site 1: 4 procs busy until
        // 1000, a 2-proc job queued on [0, 200): free 2 from 0, 4 from
        // 200, 8 from 1000.
        let mut clusters = fcfs_pair((150, 1_000), &[JobSpec::new(102, 0, 2, 200, 200)]);
        let obs = grid_obs::Obs::enabled();
        for (c, cluster) in clusters.iter_mut().enumerate() {
            cluster.set_obs(obs.clone(), c as u32);
        }
        // Classes: width 1 (rows 0-2), 2 (row 3), 4 (row 4), 8 (row 5).
        // Best ECTs: 100, 300, 300, 100 on site 1; 250, 250 on site 0.
        let jobs = rows(&[(1, 100), (1, 300), (1, 300), (2, 100), (4, 100), (8, 100)]);
        let pre = vec![SimTime(5_000); jobs.len()];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let maxmin = crate::heuristics::MaxMinOrder;
        assert_eq!(v.select(&maxmin), Some(1), "the earlier of rows 1 and 2");
        let index = v.index.as_ref().unwrap();
        assert!(index.by_class, "keyed by class");
        let watch = index.classes.watch[0];
        // Head and pick: the walltime-300 group (read at its earliest
        // row); past the run: the walltime-100 group.
        let (head, past) = ((1, (SimTime(300), 1)), (0, (SimTime(100), 1)));
        assert_eq!(watch, [head, head, past]);
        // A 1-proc job on [0, 300): free 1 from 0, 3 from 200, 4 from
        // 300. Width 1 keeps its start, width 2 moves 0 -> 200 across
        // row 3's pivot, width 4 moves 200 -> 300 on site 1 but its row
        // is best on site 0; width 8 (above 3 + 1) is not walked.
        let before = walked(&obs);
        v.submit(1, JobSpec::new(103, 0, 1, 300, 300));
        assert_eq!(walked(&obs) - before, 3);
        assert_eq!(v.entry(3, 1), Entry::Exact(SimTime(300)));
        assert_eq!(v.entry(4, 1), Entry::Exact(SimTime(400)));
        assert_eq!(v.entry(5, 1), Entry::Exact(SimTime(1_100)), "not walked");
        assert_eq!(v.marked(), [1]);
        // A pick leaving the round re-keys its class to the next row.
        v.remove(1);
        assert_eq!(v.marked(), [0, 1]);
        assert_eq!(v.select(&maxmin), Some(2));
        v.remove(2);
        // Rows 3 (now 250 on site 0), 4 and 5 tie at 250: the earliest.
        assert_eq!(v.select(&maxmin), Some(3));
        // A class left without rows leaves the walks.
        v.remove(3);
        let before = walked(&obs);
        // A 4-proc job on [300, 310): widths up to 0 + 4 can move.
        v.submit(1, JobSpec::new(104, 0, 4, 10, 10));
        assert_eq!(walked(&obs) - before, 2, "widths 1 and 4");
    }

    /// Rounding under a faster site ties distinct walltimes: the class
    /// key scans the whole run of equal merit for its earliest row, not
    /// just the group at the head's end.
    #[test]
    fn class_keys_take_the_earliest_row_of_a_run_of_equal_merit() {
        let mut clusters: Vec<Cluster> = [1.0, 1.2]
            .iter()
            .enumerate()
            .map(|(c, &speed)| {
                let spec = ClusterSpec::new(format!("c{c}"), 8, speed);
                Cluster::new(spec, BatchPolicy::Fcfs)
            })
            .collect();
        clusters[0]
            .submit(JobSpec::new(100, 0, 8, 1_000, 1_000), SimTime(0))
            .unwrap();
        clusters[0].start_due(SimTime(0));
        // On the 1.2 site 599 and 600 both scale to 500, 598 to 499.
        let jobs = rows(&[(1, 599), (1, 600), (1, 598)]);
        let pre = vec![SimTime(5_000); 3];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        assert_eq!(v.select(&crate::heuristics::MaxMinOrder), Some(0));
        let index = v.index.as_ref().unwrap();
        assert!(index.by_class, "keyed by class");
        let watch = index.classes.watch[0];
        assert_eq!(
            watch,
            [
                (1, (SimTime(500), 1)),
                (0, (SimTime(500), 1)),
                (2, (SimTime(499), 1))
            ]
        );
        assert_eq!(v.select(&crate::heuristics::MinMinOrder), Some(2));
    }
    /// On equal speeds a shift-invariant ranking (Sufferage) scores every
    /// row of a width class alike: the class is flat, keyed by its
    /// earliest alive row, and re-keyed when a moved start crosses that
    /// row's pivot (its second-smallest pair here).
    #[test]
    fn flat_classes_key_their_earliest_row() {
        let mut clusters = fcfs_pair((150, 1_000), &[JobSpec::new(102, 0, 2, 200, 200)]);
        // Spreads: 150 for widths 1 and 2 (site 1 at 0, site 0 at 150),
        // 50 for width 4 (200 vs 150), 850 for width 8 (1000 vs 150).
        let jobs = rows(&[(1, 300), (1, 100), (2, 100), (4, 100), (8, 100)]);
        let pre = vec![SimTime(5_000); jobs.len()];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let sufferage = crate::heuristics::SufferageOrder::CLASSIC;
        assert_eq!(v.select(&sufferage), Some(4));
        let index = v.index.as_ref().unwrap();
        assert!(index.by_class, "keyed by class");
        assert_eq!(index.classes.order, Order::Flat);
        v.remove(4);
        assert_eq!(v.select(&sufferage), Some(0), "widths 1 and 2 tie");
        // A 1-proc job on [0, 300) on site 1 moves width 2 (0 -> 200)
        // and width 4 (200 -> 300), not width 1.
        v.submit(1, JobSpec::new(103, 0, 1, 300, 300));
        assert_eq!(v.marked(), [1, 2]);
        v.remove(0);
        // Width 1 (row 1) spreads 150, width 2 now 50, width 4 150.
        assert_eq!(v.select(&sufferage), Some(1));
    }
    /// A class key hinges on more rows than its head: a row may join the
    /// pick's run of equal merit without the head's entries moving (so
    /// the first group past the run is watched), and the pick may leave
    /// it (so the pick is watched).
    #[test]
    fn class_keys_follow_rows_joining_and_leaving_their_run() {
        // Site 0 at speed 1.2, all 8 procs busy until 100; site 1 free.
        let mut clusters: Vec<Cluster> = [1.2, 1.0]
            .iter()
            .enumerate()
            .map(|(c, &speed)| {
                let spec = ClusterSpec::new(format!("c{c}"), 8, speed);
                Cluster::new(spec, BatchPolicy::Fcfs)
            })
            .collect();
        clusters[0]
            .submit(JobSpec::new(100, 0, 8, 120, 120), SimTime(0))
            .unwrap();
        clusters[0].start_due(SimTime(0));
        // 599 and 600 both scale to 500 on site 0: row 0 is best at 599
        // on site 1, row 1 at 600 on site 0 (600 on site 1 too).
        let jobs = rows(&[(1, 599), (1, 600)]);
        let pre = vec![SimTime(5_000); 2];
        let mut v = EctView::cancelled(&mut clusters, &jobs, pre, SimTime(0));
        let maxmin = crate::heuristics::MaxMinOrder;
        assert_eq!(v.select(&maxmin), Some(1));
        // An 8-proc job on [0, 10) on site 1: row 0 rises to 600 (on
        // site 0) and joins the run, ahead of row 1, whose best stays.
        v.submit(1, JobSpec::new(101, 0, 8, 10, 10));
        assert_eq!(v.select(&maxmin), Some(0));
        // Cancelling it drops row 0 back to 599: the pick leaves.
        v.cluster_mut(1).cancel(grid_batch::JobId(101), SimTime(0));
        v.note_cancel(1);
        assert_eq!(v.select(&maxmin), Some(1));
    }
}
