//! The pending-event set: a deterministic priority queue of timestamped
//! events.
//!
//! Events that share a timestamp are delivered in the order they were
//! scheduled (FIFO within an instant), which makes every simulation replay
//! bit-identical. The grid layer additionally relies on
//! [`EventQueue::pop_batch`] to obtain *all* events of the current instant
//! at once, so that cluster schedules are recomputed once per instant.
//!
//! ## Layout
//!
//! A month-long trace preloads a million arrival events, so the queue is
//! a **bucketed (ladder) queue** with O(1) inserts and good locality:
//!
//! * a small sorted *current* window served O(1) from its tail,
//! * a ring of fixed-width future buckets (events land in their bucket
//!   with one push; a bucket is sorted only when it becomes current), and
//! * an *overflow* list for events beyond the ring horizon, redistributed
//!   into a fresh ring — sized from the live event span — when the ring
//!   drains ([`EventQueue::bucket_spills`] counts those far landings).
//!
//! Pops follow the total `(at, seq)` order exactly; the tests check the
//! queue against a sorted-map oracle keyed on `(at, seq)`.

use crate::time::SimTime;

/// An event of type `E` scheduled at a given simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number; breaks ties deterministically.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Ring sizing: aim for this many events per bucket at redistribution.
const TARGET_PER_BUCKET: usize = 16;
/// Ring size bounds (power-of-two bucket counts).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

/// The bucketed (ladder) queue. Every event lives in exactly one of
/// three tiers, ordered `current < ring < overflow` by timestamp:
///
/// * `current` — sorted descending by `(at, seq)`, popped from the tail;
///   holds every pending event with `at < current_bound`.
/// * ring — `buckets[i]` (for `i >= cursor`) holds unsorted events with
///   `at` in `[ring_base + i·width, ring_base + (i+1)·width)`.
/// * `overflow` — events at or beyond the ring horizon.
#[derive(Debug)]
struct Ladder<E> {
    current: Vec<Scheduled<E>>,
    /// Exclusive upper bound of the `current` window (seconds).
    current_bound: u64,
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Instant bucket 0 starts at (seconds).
    ring_base: u64,
    /// Bucket width in seconds (>= 1).
    width: u64,
    /// First bucket not yet drained into `current`.
    cursor: usize,
    overflow: Vec<Scheduled<E>>,
    len: usize,
    spills: u64,
}

impl<E> Ladder<E> {
    fn new() -> Self {
        Ladder {
            current: Vec::new(),
            current_bound: 0,
            buckets: Vec::new(),
            ring_base: 0,
            width: 1,
            cursor: 0,
            overflow: Vec::new(),
            len: 0,
            spills: 0,
        }
    }

    /// Exclusive end of the ring horizon (seconds).
    fn ring_end(&self) -> u64 {
        self.ring_base
            .saturating_add(self.width.saturating_mul(self.buckets.len() as u64))
    }

    fn insert_current(&mut self, s: Scheduled<E>) {
        let key = (s.at, s.seq);
        let i = self.current.partition_point(|x| (x.at, x.seq) > key);
        self.current.insert(i, s);
    }

    fn schedule(&mut self, s: Scheduled<E>) {
        let at = s.at.as_secs();
        self.len += 1;
        if self.len == 1 {
            // Empty queue: restart the era around this event. Everything
            // else is drained, so the stale ring state can be discarded.
            debug_assert!(self.buckets[self.cursor..].iter().all(Vec::is_empty));
            debug_assert!(self.overflow.is_empty());
            self.cursor = self.buckets.len();
            self.current_bound = at.saturating_add(1);
            self.current.push(s);
            return;
        }
        if at < self.current_bound {
            self.insert_current(s);
        } else if self.cursor < self.buckets.len() && at < self.ring_end() {
            let idx = ((at - self.ring_base) / self.width) as usize;
            debug_assert!(idx >= self.cursor, "scheduling into a drained bucket");
            self.buckets[idx].push(s);
        } else {
            self.overflow.push(s);
            self.spills += 1;
        }
    }

    /// Restore the invariant "`len > 0` implies `current` is non-empty"
    /// by pulling the next bucket — redistributing the overflow into a
    /// fresh ring first when the ring has drained.
    fn refill(&mut self) {
        while self.current.is_empty() && self.len > 0 {
            while self.cursor < self.buckets.len() && self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
            }
            if self.cursor < self.buckets.len() {
                self.current = std::mem::take(&mut self.buckets[self.cursor]);
                self.current
                    .sort_unstable_by_key(|s| std::cmp::Reverse((s.at, s.seq)));
                self.cursor += 1;
                self.current_bound = self
                    .ring_base
                    .saturating_add(self.width.saturating_mul(self.cursor as u64));
            } else {
                self.rebuild();
            }
        }
    }

    /// Redistribute the overflow into a fresh ring sized from its span,
    /// targeting [`TARGET_PER_BUCKET`] events per bucket.
    fn rebuild(&mut self) {
        debug_assert!(!self.overflow.is_empty(), "rebuild needs pending events");
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for s in &self.overflow {
            let at = s.at.as_secs();
            lo = lo.min(at);
            hi = hi.max(at);
        }
        let span = hi.saturating_sub(lo).saturating_add(1);
        let n = (self.overflow.len() / TARGET_PER_BUCKET + 1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.ring_base = lo;
        self.width = span.div_ceil(n as u64).max(1);
        self.cursor = 0;
        self.current_bound = lo;
        self.buckets.clear();
        self.buckets.resize_with(n, Vec::new);
        for s in std::mem::take(&mut self.overflow) {
            let idx = ((s.at.as_secs() - self.ring_base) / self.width) as usize;
            self.buckets[idx].push(s);
        }
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let s = self.current.pop()?;
        self.len -= 1;
        if self.current.is_empty() && self.len > 0 {
            self.refill();
        }
        Some(s)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.current.last().map(|s| s.at)
    }

    fn clear(&mut self) {
        self.current.clear();
        self.buckets.clear();
        self.cursor = 0;
        self.current_bound = 0;
        self.overflow.clear();
        self.len = 0;
    }
}

/// A deterministic future-event list.
///
/// ```
/// use grid_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(5), "b");
/// q.schedule(SimTime(3), "a");
/// q.schedule(SimTime(5), "c");
/// assert_eq!(q.pop().unwrap().event, "a");
/// // Equal timestamps pop in insertion order.
/// assert_eq!(q.pop().unwrap().event, "b");
/// assert_eq!(q.pop().unwrap().event, "c");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    ladder: Ladder<E>,
    next_seq: u64,
    /// Highest timestamp ever popped; used to reject scheduling in the past.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            ladder: Ladder::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Create an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.ladder.overflow.reserve(cap);
        q
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ladder.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that landed beyond the ring horizon (and were therefore
    /// redistributed from the overflow list later) — the bucketed
    /// queue's only non-O(1) insertion path, surfaced as a campaign
    /// stats counter.
    pub fn bucket_spills(&self) -> u64 {
        self.ladder.spills
    }

    /// Schedule `event` at time `at`.
    ///
    /// Scheduling *at* the current instant is allowed (the grid layer uses
    /// it for cascading same-instant work); scheduling strictly in the past
    /// is a logic error and panics in debug builds.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        debug_assert!(
            at >= self.watermark,
            "scheduling into the past: {at} < watermark {}",
            self.watermark
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ladder.schedule(Scheduled { at, seq, event });
        seq
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ladder.peek_time()
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.ladder.pop()?;
        self.watermark = entry.at;
        Some(entry)
    }

    /// Pop *all* events sharing the earliest pending timestamp, in
    /// scheduling order. Returns the timestamp and the batch.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<Scheduled<E>>)> {
        let at = self.peek_time()?;
        let mut batch = Vec::new();
        while self.peek_time() == Some(at) {
            batch.push(self.pop().expect("peeked event must pop"));
        }
        Some((at, batch))
    }

    /// Drop every pending event (the clock watermark is preserved).
    pub fn clear(&mut self) {
        self.ladder.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_batch_groups_equal_timestamps() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "a");
        q.schedule(SimTime(5), "b");
        q.schedule(SimTime(9), "c");
        let (t, batch) = q.pop_batch().unwrap();
        assert_eq!(t, SimTime(5));
        assert_eq!(
            batch.iter().map(|s| s.event).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        let (t2, batch2) = q.pop_batch().unwrap();
        assert_eq!(t2, SimTime(9));
        assert_eq!(batch2.len(), 1);
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_at_current_instant_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "first");
        let popped = q.pop().unwrap();
        assert_eq!(popped.at, SimTime(5));
        // Same instant: fine.
        q.schedule(SimTime(5), "again");
        assert_eq!(q.pop().unwrap().event, "again");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn schedule_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(9), ());
    }

    #[test]
    fn clear_removes_everything() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        q.clear();
        assert!(q.is_empty());
        // The queue stays usable after a clear.
        q.schedule(SimTime(3), 3);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn seq_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), ());
        let b = q.schedule(SimTime(1), ());
        let c = q.schedule(SimTime(0), ());
        assert!(a < b && b < c);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 0);
        q.schedule(SimTime(3), 3);
        assert_eq!(q.pop().unwrap().event, 0);
        q.schedule(SimTime(2), 1);
        q.schedule(SimTime(2), 2);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    /// A wide-span preload (the million-arrival shape) forces the ring
    /// rebuild path; pop order must match a sorted-map oracle keyed on
    /// `(at, seq)` exactly.
    #[test]
    fn queue_matches_oracle_on_wide_span_preload() {
        let mut q = EventQueue::new();
        let mut oracle = BTreeMap::new();
        let mut x: u64 = 0xDEAD_BEEF;
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime(x % 2_600_000);
            let seq = q.schedule(at, i as i32);
            oracle.insert((at, i), i as i32);
            assert_eq!(seq, i);
        }
        assert!(q.bucket_spills() > 0, "wide preload must spill");
        // Interleave near-term inserts with pops, like completions do.
        let mut next_seq = 5_000u64;
        let mut popped = 0u64;
        while let Some(a) = q.pop() {
            let ((at, seq), event) = oracle.pop_first().unwrap();
            assert_eq!((a.at, a.seq, a.event), (at, seq, event));
            popped += 1;
            if popped.is_multiple_of(7) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let at = a.at + crate::time::Duration(x % 500);
                assert_eq!(q.schedule(at, -(popped as i32)), next_seq);
                oracle.insert((at, next_seq), -(popped as i32));
                next_seq += 1;
            }
        }
        assert!(oracle.is_empty());
    }

    /// Draining the queue and restarting (the era reset) keeps ordering.
    #[test]
    fn era_reset_after_drain_keeps_ordering() {
        let mut q = EventQueue::new();
        for round in 0..5u64 {
            let base = round * 1_000_000;
            q.schedule(SimTime(base + 10), 1);
            q.schedule(SimTime(base + 900_000), 2);
            q.schedule(SimTime(base + 5), 0);
            assert_eq!(q.pop().unwrap().event, 0);
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.pop().unwrap().event, 2);
            assert!(q.is_empty());
        }
    }
}
