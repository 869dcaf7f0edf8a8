//! Processor availability profiles.
//!
//! A [`Profile`] is a step function mapping simulated time to the number of
//! free processors, starting at some horizon (usually "now") and extending
//! to infinity. It is the data structure every batch policy is built on:
//! FCFS, CBF and the EASY family differ only in *where* they look for a
//! hole, not in how holes are found.
//!
//! The backend is **adaptive**. The balanced, time-indexed
//! [`AvailTree`] (see the [`avail`](crate::avail) module) has O(log n)
//! mutations and an aggregate-pruned [`Profile::first_fit`] descent, but
//! `BENCH_sched.json` shows it *loses* to a flat sorted buffer below a
//! few thousand breakpoints (pointer chasing and per-node overhead
//! dominate). So a profile starts life as a `SmallProfile` — a
//! SmallVec-style inline point buffer — and promotes to the tree only
//! when it outgrows [`DEFAULT_CROSSOVER`] breakpoints. The switch is
//! invisible behind the `Profile` API and byte-identical by
//! construction, which the differential suite pins on every observation.
//! A profile that never promotes (crossover `usize::MAX`, see
//! [`Profile::flat_with_crossover`]) runs the flat algorithms alone: it
//! is the property-test oracle the tree is compared against and the
//! baseline of the `scheduling-incremental` benchmark.

use std::cell::Cell;
use std::sync::Arc;

use grid_des::{Duration, SimTime};

use crate::avail::{AvailTree, Breakpoints};

/// Promotion threshold of [`Profile::flat`]: a profile whose breakpoint
/// count *exceeds* this promotes from the inline buffer to the
/// [`AvailTree`]. Conservatively inside the 2–5k band where
/// `BENCH_sched.json` puts the flat-buffer/tree break-even.
pub const DEFAULT_CROSSOVER: usize = 2048;

/// Step function of free processors over time, with an adaptive backend:
/// a flat inline point buffer below the promotion crossover, the
/// [`AvailTree`] treap above it.
#[derive(Clone)]
pub struct Profile {
    /// The backing store, shared copy-on-write with outstanding
    /// [`ProfileSnapshot`]s: mutations go through [`Arc::make_mut`], so
    /// they stay in-place O(1) extra cost while no snapshot is live and
    /// clone-on-first-write when one is. [`Profile::snapshot`] is a
    /// refcount bump.
    repr: Arc<Repr>,
    /// Breakpoint count above which the flat representation promotes to
    /// the tree (fixed at construction; `0` = always tree).
    crossover: usize,
    /// [`Profile::first_fit`] queries answered since the last
    /// [`Profile::take_probes`] — the scheduler-effort counter surfaced
    /// as `ClusterStats::first_fit_probes`. Interior-mutable because
    /// placement probes are logically reads.
    probes: Cell<u64>,
    /// Small→tree promotions since the last harvest
    /// (`ClusterStats::profile_promotions`).
    promotions: Cell<u64>,
    /// Placements whose batch-first-fit floor skipped part of the
    /// descent (`ClusterStats::batch_fast_placements`); ticked by the
    /// schedulers via [`Profile::note_batch_fast`].
    batch_fast: Cell<u64>,
}

/// The two backends. Behaviourally identical (the differential suite
/// pins every observation); only the complexity profile differs.
#[derive(Clone)]
enum Repr {
    Small(SmallProfile),
    Tree(AvailTree),
}

impl Profile {
    /// A profile with all `total` processors free from `origin` onwards,
    /// promoting to the tree past [`DEFAULT_CROSSOVER`] breakpoints.
    pub fn flat(total: u32, origin: SimTime) -> Self {
        Self::flat_with_crossover(total, origin, DEFAULT_CROSSOVER)
    }

    /// A profile pinned to the tree backend from birth — what the
    /// `scheduling-incremental` benchmark measures, so its layer-3
    /// assertions keep describing the treap rather than the adaptive
    /// blend.
    #[doc(hidden)]
    pub fn flat_tree(total: u32, origin: SimTime) -> Self {
        Self::flat_with_crossover(total, origin, 0)
    }

    /// A profile with an explicit promotion crossover (test hook: a tiny
    /// crossover lets short op sequences straddle the promotion
    /// boundary, and `usize::MAX` never promotes — the flat-only oracle).
    #[doc(hidden)]
    pub fn flat_with_crossover(total: u32, origin: SimTime, crossover: usize) -> Self {
        let repr = if crossover == 0 {
            Repr::Tree(AvailTree::flat(total, origin))
        } else {
            Repr::Small(SmallProfile::flat(total, origin))
        };
        Profile {
            repr: Arc::new(repr),
            crossover,
            probes: Cell::new(0),
            promotions: Cell::new(0),
            batch_fast: Cell::new(0),
        }
    }

    /// An O(1) read-only snapshot sharing this profile's backing store.
    ///
    /// The snapshot answers the placement queries (`first_fit`,
    /// `free_at`, `min_free`) against the profile *as it is now*; later
    /// mutations of the live profile copy-on-write away from the shared
    /// store, so the snapshot's answers never change. Probe accounting is
    /// kept on the snapshot ([`ProfileSnapshot::take_probes`]) so the
    /// owner can fold it back into scheduler-effort stats.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            repr: Arc::clone(&self.repr),
            total: self.total(),
            probes: Cell::new(0),
        }
    }

    /// `true` when the profile currently sits on the tree backend
    /// (promotion-boundary test hook).
    #[doc(hidden)]
    pub fn backend_is_tree(&self) -> bool {
        matches!(*self.repr, Repr::Tree(_))
    }

    /// `true` when a [`ProfileSnapshot`] still shares this profile's
    /// backing store (the next mutation will clone; test hook).
    #[doc(hidden)]
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.repr) > 1
    }

    /// Promote the inline buffer to the tree once it outgrows the
    /// crossover: an O(n) build from the sorted points
    /// ([`AvailTree::from_points`]).
    fn maybe_promote(&mut self) {
        if let Repr::Small(s) = &*self.repr {
            if s.len() > self.crossover {
                let tree = AvailTree::from_points(s.total, s.points());
                self.repr = Arc::new(Repr::Tree(tree));
                self.promotions.set(self.promotions.get() + 1);
            }
        }
    }

    /// Demote the tree back to the inline buffer when it has shrunk well
    /// below the crossover (4× hysteresis so a profile oscillating around
    /// the threshold doesn't thrash O(n) rebuilds).
    fn maybe_demote(&mut self) {
        if self.crossover == 0 {
            return;
        }
        if let Repr::Tree(t) = &*self.repr {
            if t.len() <= self.crossover / 4 {
                let small = SmallProfile::from_points(t.total(), t.breakpoints());
                self.repr = Arc::new(Repr::Small(small));
            }
        }
    }

    /// Total processors of the underlying cluster (upper bound of `free`).
    #[inline]
    pub fn total(&self) -> u32 {
        match &*self.repr {
            Repr::Small(s) => s.total,
            Repr::Tree(t) => t.total(),
        }
    }

    /// Time of the first breakpoint (the horizon the profile starts at).
    pub fn origin(&self) -> SimTime {
        match &*self.repr {
            Repr::Small(s) => s.origin(),
            Repr::Tree(t) => t.origin(),
        }
    }

    /// Number of breakpoints (size of the representation).
    pub fn len(&self) -> usize {
        match &*self.repr {
            Repr::Small(s) => s.len(),
            Repr::Tree(t) => t.len(),
        }
    }

    /// `false` — a profile always has at least one breakpoint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Free processors at instant `t` (clamped to the profile origin).
    pub fn free_at(&self, t: SimTime) -> u32 {
        match &*self.repr {
            Repr::Small(s) => s.free_at(t),
            Repr::Tree(tr) => tr.value_at(t),
        }
    }

    /// Minimum number of free processors over `[start, start + dur)`.
    /// A zero-length window reads the instant `start`.
    pub fn min_free(&self, start: SimTime, dur: Duration) -> u32 {
        match &*self.repr {
            Repr::Small(s) => s.min_free(start, dur),
            Repr::Tree(t) => t.min_free(start, dur),
        }
    }

    /// Remove `procs` processors from the free pool over
    /// `[start, start + dur)`.
    ///
    /// # Panics
    /// Panics if the reservation would make the free count negative
    /// anywhere in the window, or if `start` precedes the profile origin.
    pub fn reserve(&mut self, start: SimTime, dur: Duration, procs: u32) {
        if dur == Duration::ZERO || procs == 0 {
            return;
        }
        assert!(
            start >= self.origin(),
            "reservation at {start} before profile origin {}",
            self.origin()
        );
        match Arc::make_mut(&mut self.repr) {
            Repr::Small(s) => s.reserve(start, dur, procs),
            Repr::Tree(t) => t.reserve(start, dur, procs),
        }
        self.maybe_promote();
    }

    /// Advance the profile origin to `now`, dropping breakpoints that lie
    /// entirely in the past. A long-lived warm profile accumulates one
    /// breakpoint per historical reservation edge; placements never look
    /// before `now`, so trimming is free of behavioural consequence and
    /// keeps every later operation O(log(live reservations)).
    pub fn advance_origin(&mut self, now: SimTime) {
        // No-op advances (both backends early-return when the origin is
        // already at or past `now`) must not touch the Arc: with a
        // snapshot outstanding, `make_mut` would clone the whole store
        // for nothing.
        if self.origin() >= now {
            return;
        }
        match Arc::make_mut(&mut self.repr) {
            Repr::Small(s) => s.advance_origin(now),
            Repr::Tree(t) => t.advance_origin(now),
        }
        self.maybe_demote();
    }

    /// Give `procs` processors back to the free pool over
    /// `[start, start + dur)` — the inverse of [`Profile::reserve`], used
    /// by the incremental schedule maintenance to un-carve a reservation
    /// (cancelled job, early completion) without rebuilding the profile.
    ///
    /// # Panics
    /// Panics if the release would push the free count above `total`
    /// anywhere in the window (releasing something that was never
    /// reserved), or if `start` precedes the profile origin.
    pub fn release(&mut self, start: SimTime, dur: Duration, procs: u32) {
        if dur == Duration::ZERO || procs == 0 {
            return;
        }
        assert!(
            start >= self.origin(),
            "release at {start} before profile origin {}",
            self.origin()
        );
        match Arc::make_mut(&mut self.repr) {
            Repr::Small(s) => s.release(start, dur, procs),
            Repr::Tree(t) => t.release(start, dur, procs),
        }
        self.maybe_promote();
    }

    /// Earliest `t >= after` such that at least `procs` processors are free
    /// for the whole window `[t, t + dur)`. Always succeeds provided
    /// `procs <= total` (the tail of the profile is eventually free).
    ///
    /// On the tree backend the search descends on subtree-min aggregates
    /// — alternating "next breakpoint with too little room" and "next
    /// breakpoint with enough room" probes — costing
    /// O(blocked runs · log n); the inline backend scans its flat buffer,
    /// which is faster below the promotion crossover.
    ///
    /// # Panics
    /// Panics if `procs > total` or `dur == 0`.
    pub fn first_fit(&self, after: SimTime, dur: Duration, procs: u32) -> SimTime {
        assert!(
            procs <= self.total(),
            "job needs {procs} procs, cluster has {}",
            self.total()
        );
        assert!(dur > Duration::ZERO, "placement window must be non-empty");
        self.probes.set(self.probes.get() + 1);
        match &*self.repr {
            Repr::Small(s) => s.earliest_fit(after, procs, dur),
            Repr::Tree(t) => t.first_fit(after, dur, procs),
        }
    }

    /// Historical spelling of [`Profile::first_fit`] (argument order
    /// `(after, procs, dur)`); same contract, same probe accounting.
    pub fn earliest_fit(&self, after: SimTime, procs: u32, dur: Duration) -> SimTime {
        self.first_fit(after, dur, procs)
    }

    /// Outage truncation: wipe every reservation (the cluster has evicted
    /// all its jobs) and block the whole machine over `[now, until)`, so
    /// nothing can be placed before the recovery instant — even when
    /// `now` or `until` falls strictly between existing breakpoints.
    /// The wiped profile has at most two breakpoints, so it restarts on
    /// the inline backend (unless pinned to the tree).
    pub fn fail_until(&mut self, now: SimTime, until: SimTime) {
        if self.crossover == 0 {
            match Arc::make_mut(&mut self.repr) {
                Repr::Small(_) => unreachable!("crossover 0 never builds the inline backend"),
                Repr::Tree(t) => t.fail_until(now, until),
            }
            return;
        }
        let mut s = SmallProfile::flat(self.total(), now);
        s.fail_until(now, until);
        self.repr = Arc::new(Repr::Small(s));
    }

    /// The breakpoints in time order — the public surface renderers and
    /// tests consume instead of poking at the backing store.
    pub fn breakpoints(&self) -> ProfileBreakpoints<'_> {
        match &*self.repr {
            Repr::Small(s) => ProfileBreakpoints::Small(s.points().iter()),
            Repr::Tree(t) => ProfileBreakpoints::Tree(t.breakpoints()),
        }
    }

    /// The breakpoints collected into a `Vec` (convenience for tests and
    /// rendering; prefer [`Profile::breakpoints`] for streaming access).
    pub fn points(&self) -> Vec<(SimTime, u32)> {
        self.breakpoints().collect()
    }

    /// Drain the first-fit probe counter (scheduler-effort accounting;
    /// harvested by `Cluster` into `ClusterStats::first_fit_probes`).
    #[doc(hidden)]
    pub fn take_probes(&self) -> u64 {
        self.probes.replace(0)
    }

    /// Drain the small→tree promotion counter
    /// (`ClusterStats::profile_promotions`).
    #[doc(hidden)]
    pub fn take_promotions(&self) -> u64 {
        self.promotions.replace(0)
    }

    /// Record one placement whose batch-first-fit floor started the
    /// descent past `now` (ticked by CBF/EASY batch walks).
    #[doc(hidden)]
    pub fn note_batch_fast(&self) {
        self.batch_fast.set(self.batch_fast.get() + 1);
    }

    /// Drain the batch-first-fit fast-placement counter
    /// (`ClusterStats::batch_fast_placements`).
    #[doc(hidden)]
    pub fn take_batch_fast(&self) -> u64 {
        self.batch_fast.replace(0)
    }

    /// Check internal invariants (test helper).
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        match &*self.repr {
            Repr::Small(s) => s.assert_invariants(),
            Repr::Tree(t) => t.assert_invariants(),
        }
    }
}

/// A read-only, immutable view of a [`Profile`] at the instant
/// [`Profile::snapshot`] was taken.
///
/// The snapshot shares the profile's backing store by reference count;
/// the live profile copies-on-write at its next mutation, so holding a
/// snapshot never blocks or perturbs the cluster it came from — which is
/// what lets ECT dry-runs drop their `&mut Cluster` requirement. Every
/// placement query ticks the snapshot's own probe counter; the owner
/// drains it with [`ProfileSnapshot::take_probes`] and folds it into the
/// same scheduler-effort stats the live profile feeds.
#[derive(Clone)]
pub struct ProfileSnapshot {
    repr: Arc<Repr>,
    total: u32,
    /// Placement queries answered since the last
    /// [`ProfileSnapshot::take_probes`].
    probes: Cell<u64>,
}

impl ProfileSnapshot {
    /// Total processors of the underlying cluster.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Earliest `t >= after` such that at least `procs` processors are
    /// free for the whole window `[t, t + dur)` — the same query, same
    /// backend dispatch and same panics as [`Profile::first_fit`],
    /// answered against the frozen store.
    pub fn first_fit(&self, after: SimTime, dur: Duration, procs: u32) -> SimTime {
        assert!(
            procs <= self.total,
            "job needs {procs} procs, cluster has {}",
            self.total
        );
        assert!(dur > Duration::ZERO, "placement window must be non-empty");
        self.probes.set(self.probes.get() + 1);
        match &*self.repr {
            Repr::Small(s) => s.earliest_fit(after, procs, dur),
            Repr::Tree(t) => t.first_fit(after, dur, procs),
        }
    }

    /// Free processors at instant `t` (clamped to the snapshot origin).
    pub fn free_at(&self, t: SimTime) -> u32 {
        match &*self.repr {
            Repr::Small(s) => s.free_at(t),
            Repr::Tree(tr) => tr.value_at(t),
        }
    }

    /// Minimum free count over `[start, start + dur)`.
    pub fn min_free(&self, start: SimTime, dur: Duration) -> u32 {
        match &*self.repr {
            Repr::Small(s) => s.min_free(start, dur),
            Repr::Tree(t) => t.min_free(start, dur),
        }
    }

    /// Time of the snapshot's first breakpoint.
    pub fn origin(&self) -> SimTime {
        match &*self.repr {
            Repr::Small(s) => s.origin(),
            Repr::Tree(t) => t.origin(),
        }
    }

    /// Drain the snapshot's probe counter (folded into
    /// `ClusterStats::first_fit_probes` by the owning cluster).
    #[doc(hidden)]
    pub fn take_probes(&self) -> u64 {
        self.probes.replace(0)
    }
}

impl std::fmt::Debug for ProfileSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSnapshot")
            .field("total", &self.total)
            .field("origin", &self.origin())
            .finish()
    }
}

/// Breakpoint iterator over either [`Profile`] backend; yields
/// `(t, free)` pairs in time order.
pub enum ProfileBreakpoints<'a> {
    /// Inline buffer: a plain slice walk.
    Small(std::slice::Iter<'a, (SimTime, u32)>),
    /// Treap: the in-order lazy-resolving descent.
    Tree(Breakpoints<'a>),
}

impl Iterator for ProfileBreakpoints<'_> {
    type Item = (SimTime, u32);

    fn next(&mut self) -> Option<(SimTime, u32)> {
        match self {
            ProfileBreakpoints::Small(it) => it.next().copied(),
            ProfileBreakpoints::Tree(it) => it.next(),
        }
    }
}

// ---------------------------------------------------------------------
// Inline small-profile backend
// ---------------------------------------------------------------------

/// Breakpoints kept inline before the first spill: covers the common
/// steady state of a shallow cluster (a handful of live reservations)
/// without touching the heap.
const INLINE_POINTS: usize = 16;

/// A SmallVec-style point buffer: the first [`INLINE_POINTS`]
/// breakpoints live inline; growing past that spills to a heap `Vec`
/// (and stays there — profiles that spilled once tend to spill again).
// The size skew is the design: the inline variant exists precisely to
// keep short profiles heap-free, so boxing it would defeat the type.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
enum PointBuf {
    Inline {
        len: u8,
        arr: [(SimTime, u32); INLINE_POINTS],
    },
    Spill(Vec<(SimTime, u32)>),
}

impl PointBuf {
    fn one(p: (SimTime, u32)) -> Self {
        let mut arr = [(SimTime(0), 0u32); INLINE_POINTS];
        arr[0] = p;
        PointBuf::Inline { len: 1, arr }
    }

    fn as_slice(&self) -> &[(SimTime, u32)] {
        match self {
            PointBuf::Inline { len, arr } => &arr[..*len as usize],
            PointBuf::Spill(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(SimTime, u32)] {
        match self {
            PointBuf::Inline { len, arr } => &mut arr[..*len as usize],
            PointBuf::Spill(v) => v,
        }
    }

    fn len(&self) -> usize {
        match self {
            PointBuf::Inline { len, .. } => *len as usize,
            PointBuf::Spill(v) => v.len(),
        }
    }

    fn insert(&mut self, i: usize, p: (SimTime, u32)) {
        match self {
            PointBuf::Inline { len, arr } => {
                let n = *len as usize;
                if n < INLINE_POINTS {
                    arr.copy_within(i..n, i + 1);
                    arr[i] = p;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_POINTS * 2);
                    v.extend_from_slice(&arr[..n]);
                    v.insert(i, p);
                    *self = PointBuf::Spill(v);
                }
            }
            PointBuf::Spill(v) => v.insert(i, p),
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            PointBuf::Inline { len, .. } => {
                if n < *len as usize {
                    *len = n as u8;
                }
            }
            PointBuf::Spill(v) => v.truncate(n),
        }
    }

    fn drain_front(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match self {
            PointBuf::Inline { len, arr } => {
                let l = *len as usize;
                arr.copy_within(n..l, 0);
                *len = (l - n) as u8;
            }
            PointBuf::Spill(v) => {
                v.drain(..n);
            }
        }
    }
}

/// The flat sorted-buffer backend of an adaptive [`Profile`]: O(n)
/// mutations over a [`PointBuf`]. Behaviour — including every panic
/// message — is identical to the tree, which is what makes backend
/// promotion invisible.
#[derive(Clone, Debug)]
struct SmallProfile {
    buf: PointBuf,
    total: u32,
}

impl SmallProfile {
    fn flat(total: u32, origin: SimTime) -> Self {
        SmallProfile {
            buf: PointBuf::one((origin, total)),
            total,
        }
    }

    /// Demotion path: rebuild from a tree's breakpoint stream.
    fn from_points(total: u32, points: impl Iterator<Item = (SimTime, u32)>) -> Self {
        SmallProfile {
            buf: PointBuf::Spill(points.collect()),
            total,
        }
    }

    fn origin(&self) -> SimTime {
        self.points()[0].0
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn points(&self) -> &[(SimTime, u32)] {
        self.buf.as_slice()
    }

    fn free_at(&self, t: SimTime) -> u32 {
        let points = self.points();
        match points.binary_search_by_key(&t, |p| p.0) {
            Ok(i) => points[i].1,
            Err(0) => points[0].1,
            Err(i) => points[i - 1].1,
        }
    }

    fn min_free(&self, start: SimTime, dur: Duration) -> u32 {
        if dur == Duration::ZERO {
            return self.free_at(start);
        }
        let points = self.points();
        let end = start + dur;
        let mut i = match points.binary_search_by_key(&start, |p| p.0) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let mut m = u32::MAX;
        while i < points.len() && points[i].0 < end {
            m = m.min(points[i].1);
            i += 1;
        }
        m
    }

    /// Caller (the [`Profile`] wrapper) guarantees `dur > 0`, `procs > 0`
    /// and `start >= origin`.
    fn reserve(&mut self, start: SimTime, dur: Duration, procs: u32) {
        let end = start + dur;
        let si = self.ensure_breakpoint(start);
        let ei = self.ensure_breakpoint(end);
        for p in &mut self.buf.as_mut_slice()[si..ei] {
            assert!(
                p.1 >= procs,
                "over-reservation: {} procs free at {}, need {procs}",
                p.1,
                p.0
            );
            p.1 -= procs;
        }
        self.coalesce();
    }

    /// Same caller guarantees as [`SmallProfile::reserve`].
    fn release(&mut self, start: SimTime, dur: Duration, procs: u32) {
        let end = start + dur;
        let si = self.ensure_breakpoint(start);
        let ei = self.ensure_breakpoint(end);
        for p in &mut self.buf.as_mut_slice()[si..ei] {
            assert!(
                p.1 + procs <= self.total,
                "over-release: {} procs free at {}, releasing {procs} of {}",
                p.1,
                p.0,
                self.total
            );
            p.1 += procs;
        }
        self.coalesce();
    }

    fn advance_origin(&mut self, now: SimTime) {
        if self.points()[0].0 >= now {
            return;
        }
        let cut = match self.points().binary_search_by_key(&now, |p| p.0) {
            Ok(i) => i,
            Err(i) => i - 1, // i >= 1 because origin < now
        };
        self.buf.drain_front(cut);
        self.buf.as_mut_slice()[0].0 = now;
    }

    fn earliest_fit(&self, after: SimTime, procs: u32, dur: Duration) -> SimTime {
        let points = self.points();
        let after = after.max(self.origin());
        let n = points.len();
        let mut i = match points.binary_search_by_key(&after, |p| p.0) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        let mut cand = after;
        'outer: loop {
            while i < n && points[i].1 < procs {
                i += 1;
            }
            if i >= n {
                unreachable!("profile tail must have free >= procs");
            }
            cand = cand.max(points[i].0);
            let end = cand + dur;
            let mut j = i;
            while j < n && points[j].0 < end {
                if points[j].1 < procs {
                    i = j;
                    cand = if j + 1 < n { points[j + 1].0 } else { end };
                    continue 'outer;
                }
                j += 1;
            }
            return cand;
        }
    }

    fn fail_until(&mut self, now: SimTime, until: SimTime) {
        self.buf = PointBuf::one((now, self.total));
        if until > now && self.total > 0 {
            self.reserve(now, until.since(now), self.total);
        }
    }

    /// Insert a breakpoint at `t` (if absent) and return its index.
    fn ensure_breakpoint(&mut self, t: SimTime) -> usize {
        match self.points().binary_search_by_key(&t, |p| p.0) {
            Ok(i) => i,
            Err(0) => {
                unreachable!("breakpoint before profile origin");
            }
            Err(i) => {
                let free = self.points()[i - 1].1;
                self.buf.insert(i, (t, free));
                i
            }
        }
    }

    /// Merge adjacent breakpoints with equal free counts (keeps the first
    /// of each run, like `Vec::dedup_by`).
    fn coalesce(&mut self) {
        let s = self.buf.as_mut_slice();
        let n = s.len();
        let mut w = 1;
        for r in 1..n {
            if s[r].1 != s[w - 1].1 {
                s[w] = s[r];
                w += 1;
            }
        }
        self.buf.truncate(w);
    }

    fn assert_invariants(&self) {
        let points = self.points();
        assert!(!points.is_empty(), "profile must be non-empty");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must strictly increase");
            assert_ne!(w[0].1, w[1].1, "adjacent breakpoints must be coalesced");
        }
        for p in points {
            assert!(p.1 <= self.total, "free exceeds total at {}", p.0);
        }
        assert_eq!(
            points.last().unwrap().1,
            self.total,
            "profile tail must be fully free"
        );
    }
}

impl PartialEq for Profile {
    /// Logical equality: same totals and same breakpoint sequence (the
    /// tree shape and the probe counter are representation details).
    fn eq(&self, other: &Self) -> bool {
        self.total() == other.total() && self.breakpoints().eq(other.breakpoints())
    }
}

impl Eq for Profile {}

impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("total", &self.total())
            .field("points", &self.points())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime(s)
    }
    fn d(s: u64) -> Duration {
        Duration(s)
    }

    #[test]
    fn flat_profile_is_all_free() {
        let p = Profile::flat(8, t(100));
        assert_eq!(p.free_at(t(100)), 8);
        assert_eq!(p.free_at(t(1_000_000)), 8);
        assert_eq!(p.total(), 8);
        assert_eq!(p.origin(), t(100));
        p.assert_invariants();
    }

    #[test]
    fn free_at_before_origin_clamps() {
        let p = Profile::flat(8, t(100));
        assert_eq!(p.free_at(t(0)), 8);
    }

    #[test]
    fn reserve_carves_a_window() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(5), 3);
        assert_eq!(p.free_at(t(9)), 8);
        assert_eq!(p.free_at(t(10)), 5);
        assert_eq!(p.free_at(t(14)), 5);
        assert_eq!(p.free_at(t(15)), 8);
        p.assert_invariants();
    }

    #[test]
    fn overlapping_reservations_stack() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(10), 4);
        p.reserve(t(5), d(10), 4);
        assert_eq!(p.free_at(t(0)), 4);
        assert_eq!(p.free_at(t(5)), 0);
        assert_eq!(p.free_at(t(9)), 0);
        assert_eq!(p.free_at(t(10)), 4);
        assert_eq!(p.free_at(t(15)), 8);
        p.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "over-reservation")]
    fn reserve_rejects_overflow() {
        let mut p = Profile::flat(4, t(0));
        p.reserve(t(0), d(10), 3);
        p.reserve(t(5), d(2), 3);
    }

    #[test]
    fn reserve_zero_len_or_zero_procs_is_noop() {
        let mut p = Profile::flat(4, t(0));
        p.reserve(t(5), Duration::ZERO, 3);
        p.reserve(t(5), d(10), 0);
        assert_eq!(p, Profile::flat(4, t(0)));
    }

    #[test]
    fn earliest_fit_on_empty_cluster_is_immediate() {
        let p = Profile::flat(8, t(50));
        assert_eq!(p.earliest_fit(t(60), 8, d(100)), t(60));
        // `after` before origin clamps to origin.
        assert_eq!(p.earliest_fit(t(0), 1, d(1)), t(50));
    }

    #[test]
    fn earliest_fit_waits_for_release() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(100), 6);
        // 3 procs don't fit until t=100.
        assert_eq!(p.earliest_fit(t(0), 3, d(10)), t(100));
        // 2 procs fit right away.
        assert_eq!(p.earliest_fit(t(0), 2, d(10)), t(0));
    }

    #[test]
    fn earliest_fit_finds_hole_between_reservations() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(10), 8); // busy [0,10)
        p.reserve(t(20), d(10), 8); // busy [20,30)
                                    // A 10s window fits exactly in the hole [10,20).
        assert_eq!(p.earliest_fit(t(0), 4, d(10)), t(10));
        // An 11s window must wait until t=30.
        assert_eq!(p.earliest_fit(t(0), 4, d(11)), t(30));
    }

    #[test]
    fn earliest_fit_respects_after() {
        let p = Profile::flat(8, t(0));
        assert_eq!(p.earliest_fit(t(500), 1, d(1)), t(500));
    }

    #[test]
    fn earliest_fit_window_straddles_segments() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(10), 5); // [10,20): 3 free
                                    // 3-proc job of 15s starting at 5 covers [5,20): min free = 3 -> ok.
        assert_eq!(p.earliest_fit(t(5), 3, d(15)), t(5));
        // 4-proc job of 15s can't overlap [10,20); must start at 20.
        assert_eq!(p.earliest_fit(t(5), 4, d(15)), t(20));
    }

    #[test]
    #[should_panic(expected = "cluster has")]
    fn earliest_fit_rejects_oversized_job() {
        let p = Profile::flat(4, t(0));
        let _ = p.earliest_fit(t(0), 5, d(1));
    }

    #[test]
    fn advance_origin_drops_the_past_only() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(20), 5); // [10,30): 3 free
        p.reserve(t(40), d(10), 2); // [40,50): 6 free
        let free_after_20 = [
            (t(20), p.free_at(t(20))),
            (t(35), p.free_at(t(35))),
            (t(45), p.free_at(t(45))),
            (t(60), p.free_at(t(60))),
        ];
        p.advance_origin(t(20));
        assert_eq!(p.origin(), t(20));
        for (at, free) in free_after_20 {
            assert_eq!(p.free_at(at), free, "value at {at} preserved");
        }
        p.assert_invariants();
        // Idempotent, and a no-op before the origin.
        let snapshot = p.clone();
        p.advance_origin(t(20));
        p.advance_origin(t(5));
        assert_eq!(p, snapshot);
        // Advancing past every breakpoint leaves the flat tail.
        p.advance_origin(t(100));
        assert_eq!(p.points(), &[(t(100), 8)]);
        p.assert_invariants();
    }

    #[test]
    fn release_is_the_inverse_of_reserve() {
        let mut p = Profile::flat(8, t(0));
        let flat = p.clone();
        p.reserve(t(10), d(20), 5);
        p.reserve(t(15), d(30), 3);
        p.release(t(15), d(30), 3);
        p.release(t(10), d(20), 5);
        assert_eq!(p, flat, "release must restore the profile exactly");
        p.assert_invariants();
    }

    #[test]
    fn partial_release_opens_the_window() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(100), 8); // fully busy [0,100)
        p.release(t(30), d(70), 8); // early completion at t=30
        assert_eq!(p.free_at(t(0)), 0);
        assert_eq!(p.free_at(t(30)), 8);
        assert_eq!(p.earliest_fit(t(0), 4, d(10)), t(30));
        p.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn release_rejects_unreserved_capacity() {
        let mut p = Profile::flat(4, t(0));
        p.release(t(0), d(10), 1);
    }

    /// Releasing more than was reserved anywhere in the window is
    /// rejected deterministically, even when part of the window *is*
    /// legitimately reserved.
    #[test]
    #[should_panic(expected = "over-release")]
    fn release_rejects_partially_unreserved_window() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(10), 3); // [10,20) reserved
        p.release(t(10), d(20), 3); // [20,30) was never reserved
    }

    /// A release whose window starts before the (advanced) origin is
    /// rejected: the dropped past cannot be un-carved.
    #[test]
    #[should_panic(expected = "before profile origin")]
    fn release_spanning_the_origin_is_rejected() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(40), 5); // [10,50)
        p.advance_origin(t(30));
        // The reservation's original start now lies in the dropped past.
        p.release(t(10), d(40), 5);
    }

    /// The live remainder of a reservation that straddles the origin can
    /// still be released (what `Cluster::complete` does at an early
    /// completion: release `[now, reserved_end)`).
    #[test]
    fn release_of_the_live_remainder_succeeds_after_advance() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(40), 5); // [10,50)
        p.advance_origin(t(30));
        p.release(t(30), d(20), 5); // the remaining [30,50)
        assert_eq!(p.points(), &[(t(30), 8)], "flat from the new origin");
        p.assert_invariants();
    }

    /// Releasing every reservation coalesces the representation all the
    /// way back to a single flat breakpoint, not just equal values.
    #[test]
    fn full_release_coalesces_back_to_flat() {
        let mut p = Profile::flat(16, t(5));
        p.reserve(t(10), d(20), 4);
        p.reserve(t(15), d(30), 8);
        p.reserve(t(50), d(5), 16);
        assert!(p.len() > 1);
        p.release(t(50), d(5), 16);
        p.release(t(10), d(20), 4);
        p.release(t(15), d(30), 8);
        assert_eq!(p.points(), &[(t(5), 16)], "single flat segment");
        assert_eq!(p, Profile::flat(16, t(5)));
        p.assert_invariants();
    }

    /// `advance_origin` to an instant between breakpoints lands the new
    /// origin exactly at `now` with the in-force free count.
    #[test]
    fn advance_origin_between_breakpoints_keeps_in_force_value() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(20), 5); // [10,30): 3 free
        p.advance_origin(t(17));
        assert_eq!(p.origin(), t(17));
        assert_eq!(p.free_at(t(17)), 3);
        assert_eq!(p.points()[0], (t(17), 3));
        p.assert_invariants();
        // Reservations against the trimmed profile still work.
        assert_eq!(p.earliest_fit(t(0), 8, d(5)), t(30));
    }

    /// `advance_origin` landing exactly on a breakpoint neither
    /// duplicates nor skips it.
    #[test]
    fn advance_origin_onto_a_breakpoint_is_exact() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(20), 5);
        p.advance_origin(t(10));
        assert_eq!(p.points()[0], (t(10), 3));
        assert_eq!(p.origin(), t(10));
        p.assert_invariants();
    }

    #[test]
    fn min_free_over_window() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(10), 5);
        assert_eq!(p.min_free(t(0), d(10)), 8); // [0,10) untouched
        assert_eq!(p.min_free(t(0), d(11)), 3); // touches the dip
        assert_eq!(p.min_free(t(10), d(5)), 3);
        assert_eq!(p.min_free(t(20), d(100)), 8);
        assert_eq!(p.min_free(t(15), Duration::ZERO), 3);
    }

    #[test]
    fn coalesce_merges_back_to_back_equal_segments() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(10), 4);
        p.reserve(t(10), d(10), 4);
        // [0,20) at 4 free should be a single segment.
        assert_eq!(p.points().len(), 2);
        p.assert_invariants();
    }

    #[test]
    fn dense_random_reservations_keep_invariants() {
        // Deterministic pseudo-random stress: pack many small reservations.
        let mut p = Profile::flat(16, t(0));
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let procs = (x >> 33) as u32 % 4 + 1;
            let dur = d((x >> 17) % 50 + 1);
            let start = p.earliest_fit(t(x % 1000), procs, dur);
            p.reserve(start, dur, procs);
            p.assert_invariants();
        }
    }

    // -- Availability-engine additions ---------------------------------

    /// `first_fit` is the same query as `earliest_fit` (issue-mandated
    /// argument order), and both feed the probe counter.
    #[test]
    fn first_fit_matches_earliest_fit_and_counts_probes() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(100), 6);
        p.reserve(t(150), d(50), 8);
        let _ = p.take_probes();
        assert_eq!(p.first_fit(t(0), d(10), 3), p.earliest_fit(t(0), 3, d(10)));
        assert_eq!(p.first_fit(t(0), d(60), 2), t(0));
        assert_eq!(p.first_fit(t(0), d(60), 4), t(200));
        assert_eq!(p.take_probes(), 4, "every placement query is a probe");
        assert_eq!(p.take_probes(), 0, "harvest drains the counter");
    }

    /// Outage truncation lands on the exact instant even when `now` and
    /// `until` fall strictly between existing breakpoints (the
    /// `fail_until` mirror of
    /// `advance_origin_between_breakpoints_keeps_in_force_value`).
    #[test]
    fn fail_until_truncates_to_the_exact_instant() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(10), d(20), 5); // breakpoints at 10 and 30
        p.reserve(t(40), d(10), 2); // breakpoints at 40 and 50
        p.fail_until(t(17), t(43));
        assert_eq!(p.origin(), t(17), "origin lands exactly on `now`");
        assert_eq!(
            p.points(),
            &[(t(17), 0), (t(43), 8)],
            "blackout to the exact recovery instant; old reservations wiped"
        );
        assert_eq!(p.first_fit(t(17), d(10), 1), t(43));
        p.assert_invariants();
        // Degenerate window: recovery not in the future leaves a flat
        // profile from `now`.
        p.fail_until(t(50), t(50));
        assert_eq!(p.points(), &[(t(50), 8)]);
        p.assert_invariants();
    }

    /// The streaming breakpoint iterator agrees with the collected form
    /// and resolves pending lazy deltas correctly.
    #[test]
    fn breakpoints_iterator_matches_points() {
        let mut p = Profile::flat(16, t(0));
        p.reserve(t(5), d(30), 7);
        p.reserve(t(10), d(10), 9);
        p.release(t(12), d(3), 9);
        let collected: Vec<(SimTime, u32)> = p.breakpoints().collect();
        assert_eq!(collected, p.points());
        assert_eq!(collected[0].0, p.origin());
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// The test-only oracle: a profile that never promotes, so it runs
    /// the flat sorted-buffer algorithms alone.
    fn flat_only(total: u32) -> Profile {
        Profile::flat_with_crossover(total, t(0), usize::MAX)
    }

    /// Dense deterministic differential sweep: a profile and the flat
    /// Vec oracle agree on every observation across a
    /// reserve/release/advance/fail_until churn (the in-crate smoke
    /// companion of `tests/differential.rs`). Returns the profile so
    /// callers can inspect backend counters.
    fn churn_against_oracle(mut tree: Profile) -> Profile {
        let mut vec = flat_only(16);
        let mut live: Vec<(SimTime, Duration, u32)> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for i in 0..800 {
            let r = step();
            match r % 5 {
                0 | 1 => {
                    let procs = (step() % 6 + 1) as u32;
                    let dur = d(step() % 60 + 1);
                    let after = t(tree.origin().0 + step() % 300);
                    let s_tree = tree.first_fit(after, dur, procs);
                    let s_vec = vec.first_fit(after, dur, procs);
                    assert_eq!(s_tree, s_vec, "first_fit diverged at op {i}");
                    tree.reserve(s_tree, dur, procs);
                    vec.reserve(s_vec, dur, procs);
                    live.push((s_tree, dur, procs));
                }
                2 => {
                    if !live.is_empty() {
                        let idx = (step() as usize) % live.len();
                        let (start, dur, procs) = live.swap_remove(idx);
                        let end = start + dur;
                        let origin = tree.origin();
                        if end > origin {
                            let eff = start.max(origin);
                            tree.release(eff, end.since(eff), procs);
                            vec.release(eff, end.since(eff), procs);
                        }
                    }
                }
                3 => {
                    let now = t(tree.origin().0 + step() % 40);
                    tree.advance_origin(now);
                    vec.advance_origin(now);
                }
                _ => {
                    let probe = t(tree.origin().0 + step() % 400);
                    let dur = d(step() % 80);
                    assert_eq!(tree.free_at(probe), vec.free_at(probe), "op {i}");
                    assert_eq!(
                        tree.min_free(probe, dur),
                        vec.min_free(probe, dur),
                        "op {i}"
                    );
                }
            }
            assert_eq!(tree.points(), vec.points(), "points at op {i}");
            assert_eq!(tree.origin(), vec.origin(), "origin at op {i}");
            assert_eq!(tree.len(), vec.len(), "len at op {i}");
            tree.assert_invariants();
            vec.assert_invariants();
        }
        // Finish with the outage truncation and a final agreement check.
        let now = t(tree.origin().0 + 13);
        tree.fail_until(now, now + d(57));
        vec.fail_until(now, now + d(57));
        assert_eq!(tree.points(), vec.points());
        assert!(!vec.backend_is_tree(), "the oracle never promotes");
        tree.assert_invariants();
        vec.assert_invariants();
        tree
    }

    #[test]
    fn tree_and_vec_backends_agree_on_dense_churn() {
        let p = churn_against_oracle(Profile::flat_tree(16, t(0)));
        assert!(p.take_promotions() == 0, "a pinned tree never promotes");
    }

    /// The same churn with a tiny promotion crossover, so the op
    /// sequence straddles the inline↔tree boundary many times.
    #[test]
    fn adaptive_backend_agrees_across_the_promotion_boundary() {
        let p = churn_against_oracle(Profile::flat_with_crossover(16, t(0), 8));
        assert!(
            p.take_promotions() > 0,
            "the churn must cross the promotion boundary"
        );
    }

    /// Promotion is an O(n) rebuild that must preserve the exact point
    /// sequence (and the tree's structural invariants); `fail_until`
    /// demotes back to the inline buffer.
    #[test]
    fn promotion_preserves_points_and_tree_invariants() {
        let mut p = Profile::flat_with_crossover(32, t(0), 4);
        let mut v = flat_only(32);
        assert!(!p.backend_is_tree());
        for i in 0..12u64 {
            let s = t(i * 10);
            p.reserve(s, d(5), i as u32 % 3 + 1);
            v.reserve(s, d(5), i as u32 % 3 + 1);
        }
        assert!(p.backend_is_tree(), "must promote past the crossover");
        assert_eq!(p.take_promotions(), 1);
        assert_eq!(p.points(), v.points());
        p.assert_invariants();
        p.fail_until(t(500), t(520));
        assert!(!p.backend_is_tree(), "outage truncation demotes");
        p.assert_invariants();
        assert_eq!(p.points(), &[(t(500), 0), (t(520), 32)]);
    }

    /// A snapshot freezes the profile at the instant it was taken:
    /// mutations of the live profile copy-on-write away from the shared
    /// store, leaving the snapshot's answers byte-identical — on both
    /// backends, and across a promotion.
    #[test]
    fn snapshot_is_frozen_under_mutation() {
        for mk in [
            (|| Profile::flat(8, t(0))) as fn() -> Profile,
            || Profile::flat_tree(8, t(0)),
            || Profile::flat_with_crossover(8, t(0), 2),
        ] {
            let mut p = mk();
            p.reserve(t(0), d(100), 6);
            let snap = p.snapshot();
            assert!(p.is_shared(), "snapshot shares the store");
            let before = (
                snap.first_fit(t(0), d(10), 3),
                snap.first_fit(t(0), d(10), 2),
                snap.free_at(t(50)),
                snap.min_free(t(0), d(200)),
                snap.origin(),
            );
            // Churn the live profile hard enough to promote (crossover 2)
            // and to change every answer the snapshot gave.
            p.reserve(t(0), d(100), 2);
            p.reserve(t(100), d(50), 8);
            p.advance_origin(t(40));
            assert!(!p.is_shared(), "first mutation un-shared the store");
            assert_eq!(snap.first_fit(t(0), d(10), 3), before.0);
            assert_eq!(snap.first_fit(t(0), d(10), 2), before.1);
            assert_eq!(snap.free_at(t(50)), before.2);
            assert_eq!(snap.min_free(t(0), d(200)), before.3);
            assert_eq!(snap.origin(), before.4);
            // And the live profile moved on.
            assert_eq!(p.free_at(t(50)), 0);
            p.assert_invariants();
        }
    }

    /// Snapshot queries agree with the live profile when nothing mutates
    /// in between, and probe accounting is kept per-snapshot.
    #[test]
    fn snapshot_matches_live_profile_and_counts_probes() {
        let mut p = Profile::flat(8, t(0));
        p.reserve(t(0), d(100), 6);
        p.reserve(t(150), d(50), 8);
        let _ = p.take_probes();
        let snap = p.snapshot();
        assert_eq!(snap.total(), p.total());
        assert_eq!(snap.first_fit(t(0), d(60), 4), p.first_fit(t(0), d(60), 4));
        assert_eq!(snap.first_fit(t(0), d(60), 2), p.first_fit(t(0), d(60), 2));
        assert_eq!(snap.take_probes(), 2, "snapshot counts its own probes");
        assert_eq!(snap.take_probes(), 0, "harvest drains the counter");
        assert_eq!(p.take_probes(), 2, "live probes unaffected by the snapshot");
        drop(snap);
        assert!(!p.is_shared(), "dropping the snapshot releases the store");
    }

    /// A pinned-tree profile built via `from_points` behaves exactly like
    /// one grown organically (the promotion constructor is only a faster
    /// route to an equivalent tree).
    #[test]
    fn from_points_build_matches_organic_tree() {
        let mut organic = Profile::flat_tree(16, t(0));
        organic.reserve(t(10), d(20), 5);
        organic.reserve(t(15), d(40), 3);
        organic.reserve(t(100), d(10), 16);
        let built = AvailTree::from_points(16, &organic.points());
        assert_eq!(
            built.breakpoints().collect::<Vec<_>>(),
            organic.points(),
            "construction preserves the point sequence"
        );
        built.assert_invariants();
        assert_eq!(
            built.first_fit(t(0), d(30), 10),
            organic.first_fit(t(0), d(30), 10)
        );
        assert_eq!(built.min_free(t(12), d(50)), organic.min_free(t(12), d(50)));
        assert_eq!(built.origin(), organic.origin());
    }
}
