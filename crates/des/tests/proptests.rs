//! Property-based tests for the DES kernel.

use std::collections::BTreeMap;

use grid_des::{Duration, EventQueue, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue delivers exactly a stable sort by (time, insertion).
    #[test]
    fn queue_is_stable_time_sort(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.at.as_secs(), s.event))).collect();
        prop_assert_eq!(got, expected);
    }

    /// pop_batch partitions the stream into maximal equal-time groups.
    #[test]
    fn pop_batch_partitions(times in prop::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut total = 0usize;
        let mut prev: Option<SimTime> = None;
        while let Some((t, batch)) = q.pop_batch() {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.iter().all(|s| s.at == t));
            if let Some(p) = prev {
                prop_assert!(t > p, "batches must strictly advance time");
            }
            prev = Some(t);
            total += batch.len();
        }
        prop_assert_eq!(total, times.len());
    }

    /// The event queue is observationally identical to a sorted-map
    /// oracle keyed on `(time, seq)` under an arbitrary interleaving of
    /// schedule, pop, pop_batch and peek ops: the sequence numbers out of
    /// `schedule` count up from 0, every pop yields the map's first entry,
    /// and the lengths agree. Schedules land at `watermark + dt` so the
    /// mix stays legal.
    #[test]
    fn queue_agrees_with_sorted_map_oracle(
        ops in prop::collection::vec((0u8..10, 0u64..500), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut oracle: BTreeMap<(SimTime, u64), usize> = BTreeMap::new();
        let mut watermark = SimTime::ZERO;
        let mut next_seq = 0u64;
        for (kind, dt) in ops {
            match kind {
                // Schedule-heavy: keep the ladder populated enough to
                // trigger era rebuilds and overflow spills.
                0..=5 => {
                    let at = watermark + Duration(dt);
                    let event = next_seq as usize;
                    prop_assert_eq!(q.schedule(at, event), next_seq, "seq numbers diverged");
                    oracle.insert((at, next_seq), event);
                    next_seq += 1;
                }
                6 | 7 => {
                    let got = q.pop().map(|s| (s.at, s.seq, s.event));
                    let want = oracle.pop_first().map(|((at, seq), e)| (at, seq, e));
                    prop_assert_eq!(&got, &want, "pop diverged");
                    if let Some((at, _, _)) = got {
                        watermark = at;
                    }
                }
                8 => {
                    let got = q.pop_batch().map(|(t, v)| {
                        (t, v.into_iter().map(|s| (s.at, s.seq, s.event)).collect::<Vec<_>>())
                    });
                    let want = oracle.keys().next().map(|&(t, _)| t).map(|t| {
                        let mut batch = Vec::new();
                        while let Some(e) = oracle.first_entry().filter(|e| e.key().0 == t) {
                            let ((at, seq), event) = e.remove_entry();
                            batch.push((at, seq, event));
                        }
                        (t, batch)
                    });
                    prop_assert_eq!(&got, &want, "pop_batch diverged");
                    if let Some((t, _)) = got {
                        watermark = t;
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek_time(), oracle.keys().next().map(|&(t, _)| t));
                }
            }
            prop_assert_eq!(q.len(), oracle.len());
        }
        // Drain to the end: the tails must agree element-for-element.
        loop {
            let got = q.pop().map(|s| (s.at, s.seq, s.event));
            let want = oracle.pop_first().map(|((at, seq), e)| (at, seq, e));
            prop_assert_eq!(&got, &want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
    }

    /// SimTime arithmetic is consistent with u64 arithmetic (saturating).
    #[test]
    fn time_arithmetic(a in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 2) {
        prop_assert_eq!((SimTime(a) + Duration(d)).as_secs(), a + d);
        prop_assert_eq!((SimTime(a) + Duration(d)).since(SimTime(a)), Duration(d));
        prop_assert_eq!(SimTime(a) - Duration(a + d + 1), SimTime::ZERO);
    }

    /// Scaling by speed >= 1 never lengthens a duration, and scaling by 1.0
    /// is the identity.
    #[test]
    fn scaling_shrinks(d in 0u64..10_000_000, speed in 1.0f64..4.0) {
        let scaled = Duration(d).scale_by_speed(speed);
        prop_assert!(scaled <= Duration(d));
        // ceil semantics: scaled is the smallest integer >= d / speed.
        let exact = d as f64 / speed;
        prop_assert!(scaled.as_secs() as f64 >= exact - 1e-6);
        prop_assert!((scaled.as_secs() as f64) < exact + 1.0 + 1e-6);
        prop_assert_eq!(Duration(d).scale_by_speed(1.0), Duration(d));
    }

    /// Derived RNG streams are reproducible and (statistically) distinct.
    #[test]
    fn rng_streams(seed in any::<u64>(), s1 in 0u64..64, s2 in 0u64..64) {
        let mut a = SimRng::derive(seed, s1);
        let mut b = SimRng::derive(seed, s1);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        if s1 != s2 {
            let mut c = SimRng::derive(seed, s1);
            let mut d = SimRng::derive(seed, s2);
            // Not a hard guarantee per-draw, but 4 consecutive collisions
            // would indicate broken stream separation.
            let same = (0..4).filter(|_| c.next_u64() == d.next_u64()).count();
            prop_assert!(same < 4);
        }
    }

    /// log_uniform respects its bounds for arbitrary ranges.
    #[test]
    fn log_uniform_bounds(seed in any::<u64>(), lo in 1.0f64..100.0, width in 0.0f64..10_000.0) {
        let hi = lo + width;
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            let v = r.log_uniform(lo, hi);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{} not in [{lo}, {hi}]", v);
        }
    }

    /// weighted_index only returns indices with positive weight.
    #[test]
    fn weighted_index_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut r = SimRng::seed_from_u64(seed);
        for _ in 0..64 {
            let i = r.weighted_index(&weights);
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }
}
