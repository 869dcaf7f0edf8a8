//! Differential oracle for the availability engine: random
//! `reserve` / `release` / `advance_origin` / `fail_until` / `first_fit`
//! op sequences must agree **byte-for-byte** between the tree backend
//! (`Profile::flat_tree`) and the flat sorted-Vec backend of a profile
//! that never promotes (`Profile::flat_with_crossover(.., usize::MAX)`)
//! — same breakpoint sequences, same origins, same lengths, same query
//! answers. Every check also pins which backend each side runs on, so a
//! mix test cannot silently compare the flat backend with itself.
//!
//! The release generator deliberately reproduces the PR-3 edge cases:
//! whole-reservation releases (full coalesce back to flat when the last
//! one goes), live-remainder releases of reservations that straddle an
//! advanced origin (what `Cluster::complete` does), and dropping
//! reservations that fell entirely into the trimmed past. The *rejected*
//! edge cases (origin-spanning release, over-release of a partially
//! unreserved window) panic identically on both backends and are pinned
//! by `should_panic` unit tests in `profile.rs` — a panicking oracle
//! cannot be compared in-line here.

use grid_batch::Profile;
use grid_des::{Duration, SimTime};
use proptest::prelude::*;

const TOTAL: u32 = 16;

/// Both backends plus the ledger of live reservations the generator may
/// release.
struct Pair {
    tree: Profile,
    /// `tree` must sit on the tree backend after every op (`false` for
    /// the adaptive profile, which moves between the two).
    pinned_tree: bool,
    /// The oracle: never promotes, so it always runs the flat backend.
    vec: Profile,
    live: Vec<(SimTime, Duration, u32)>,
}

impl Pair {
    /// The tree backend against the flat-only oracle.
    fn new() -> Pair {
        Pair::with(Profile::flat_tree(TOTAL, SimTime(0)), true)
    }

    fn with(tree: Profile, pinned_tree: bool) -> Pair {
        Pair {
            tree,
            pinned_tree,
            vec: Profile::flat_with_crossover(TOTAL, SimTime(0), usize::MAX),
            live: Vec::new(),
        }
    }

    /// Full-state agreement after every op.
    fn check(&self) -> Result<(), TestCaseError> {
        if self.pinned_tree {
            prop_assert!(self.tree.backend_is_tree(), "tree side left the tree");
        }
        prop_assert!(!self.vec.backend_is_tree(), "oracle promoted");
        prop_assert_eq!(self.tree.points(), self.vec.points());
        prop_assert_eq!(self.tree.origin(), self.vec.origin());
        prop_assert_eq!(self.tree.len(), self.vec.len());
        prop_assert_eq!(self.tree.total(), self.vec.total());
        self.tree.assert_invariants();
        self.vec.assert_invariants();
        Ok(())
    }
}

/// One encoded op: `(kind, a, b, c)` interpreted per mix.
type RawOp = (u8, u64, u64, u32);

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u8..10, 0u64..2_000, 1u64..300, 1u32..=TOTAL), 1..max_ops)
}

/// Apply one op to both backends, comparing every observable on the way.
fn apply(pair: &mut Pair, op: RawOp, allow_fail_until: bool) -> Result<(), TestCaseError> {
    let (kind, a, b, c) = op;
    let origin = pair.tree.origin();
    match kind {
        // Reserve at the first-fit slot (the only spot guaranteed valid
        // on both) — also cross-checks the query itself.
        0..=3 => {
            let procs = c;
            let dur = Duration(b);
            let after = SimTime(origin.0 + a);
            let s_tree = pair.tree.first_fit(after, dur, procs);
            let s_vec = pair.vec.first_fit(after, dur, procs);
            prop_assert_eq!(s_tree, s_vec, "first_fit diverged");
            pair.tree.reserve(s_tree, dur, procs);
            pair.vec.reserve(s_vec, dur, procs);
            pair.live.push((s_tree, dur, procs));
        }
        // Release a live reservation: in full if still entirely live, as
        // its remainder `[origin, end)` when it straddles the origin
        // (the `Cluster::complete` early-completion shape), or not at
        // all when it fell into the trimmed past.
        4 | 5 => {
            if !pair.live.is_empty() {
                let idx = (a as usize) % pair.live.len();
                let (start, dur, procs) = pair.live.swap_remove(idx);
                let end = start + dur;
                if end > origin {
                    let eff = start.max(origin);
                    pair.tree.release(eff, end.since(eff), procs);
                    pair.vec.release(eff, end.since(eff), procs);
                }
            }
        }
        // Advance the origin a short hop (between, onto and past
        // breakpoints alike).
        6 => {
            let now = SimTime(origin.0 + a % 60);
            pair.tree.advance_origin(now);
            pair.vec.advance_origin(now);
        }
        // Outage truncation: both reset to "blocked until recovery";
        // every ledger entry dies with the evicted jobs.
        7 => {
            if allow_fail_until {
                let now = SimTime(origin.0 + a % 50);
                let until = now + Duration(b);
                pair.tree.fail_until(now, until);
                pair.vec.fail_until(now, until);
                pair.live.clear();
            }
        }
        // Pure queries at arbitrary instants (first_fit included — the
        // probe, unlike kind 0..=3, lands anywhere, not just where a
        // reservation follows).
        _ => {
            let at = SimTime(origin.0 + a);
            let dur = Duration(b % 200);
            prop_assert_eq!(pair.tree.free_at(at), pair.vec.free_at(at));
            prop_assert_eq!(pair.tree.min_free(at, dur), pair.vec.min_free(at, dur));
            let procs = c;
            let d = Duration(b);
            prop_assert_eq!(
                pair.tree.first_fit(at, d, procs),
                pair.vec.first_fit(at, d, procs),
                "query-only first_fit diverged"
            );
        }
    }
    pair.check()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full op mix, `fail_until` included: 256 random sequences, every
    /// observable compared after every op.
    #[test]
    fn tree_agrees_with_vec_oracle_full_mix(ops in ops_strategy(120)) {
        let mut pair = Pair::new();
        for op in ops {
            apply(&mut pair, op, true)?;
        }
    }

    /// The adaptive backend must agree with the oracle *across* the
    /// inline→tree promotion boundary. A tiny crossover forces repeated
    /// promotions (growth past the threshold mid-sequence) and demotions
    /// (`advance_origin`/`fail_until` shrinking the profile back), so the
    /// hand-off itself — `from_points` construction, counter carry-over,
    /// origin/total transfer — is what this mix exercises, not just one
    /// backend at a time.
    #[test]
    fn adaptive_backend_agrees_across_promotion_boundary(
        ops in ops_strategy(120),
        crossover in 0usize..12,
    ) {
        let adaptive = Profile::flat_with_crossover(TOTAL, SimTime(0), crossover);
        let mut pair = Pair::with(adaptive, false);
        let mut saw_tree = false;
        let mut saw_small = false;
        for op in ops {
            apply(&mut pair, op, true)?;
            if pair.tree.backend_is_tree() {
                saw_tree = true;
            } else {
                saw_small = true;
            }
        }
        // Crossover 0 pins the tree from the start; anything else starts
        // inline. Either way at least one backend must have been live —
        // and with crossover 0 it must have been the tree.
        prop_assert!(saw_tree || saw_small);
        if crossover == 0 {
            prop_assert!(saw_tree, "crossover 0 must run on the tree backend");
        }
    }

    /// Reserve/release-heavy mix with short horizons, no outages: forces
    /// dense stacking, exact-inverse releases and seam coalescing (the
    /// PR-3 edge cases) far more often than the uniform mix.
    #[test]
    fn tree_agrees_with_vec_oracle_churn_mix(
        ops in prop::collection::vec((0u8..6, 0u64..40, 1u64..25, 1u32..=TOTAL), 1..150),
    ) {
        let mut pair = Pair::new();
        for op in ops {
            apply(&mut pair, op, false)?;
        }
        // Drain the ledger completely: releasing everything must
        // coalesce the representation back to a single flat breakpoint
        // on both backends.
        let origin = pair.tree.origin();
        for (start, dur, procs) in std::mem::take(&mut pair.live) {
            let end = start + dur;
            if end > origin {
                let eff = start.max(origin);
                pair.tree.release(eff, end.since(eff), procs);
                pair.vec.release(eff, end.since(eff), procs);
            }
        }
        prop_assert_eq!(pair.tree.len(), 1, "full release must coalesce to flat");
        prop_assert_eq!(pair.tree.points(), pair.vec.points());
        pair.check()?;
    }
}
