//! The availability engine: a balanced time-indexed structure behind
//! [`Profile`](crate::profile::Profile).
//!
//! The free-capacity timeline is a step function over *breakpoints*
//! `(t, free)`. The legacy backend stored them in a sorted `Vec`, paying
//! O(n) per reservation (mid-vector inserts + a full coalescing pass) and
//! O(n) per earliest-fit scan — the dominant cost of deep-queue runs in
//! the `scheduling-incremental` benchmark. [`AvailTree`] replaces it with
//! an implicit treap keyed by breakpoint time where every node carries
//!
//! * a **lazy pending delta** (so `reserve`/`release` are range adds over
//!   the covered breakpoints: O(log n) split + O(1) tag + O(log n)
//!   merge), and
//! * **subtree min/max** of the free count (so feasibility checks and the
//!   [`first_fit`](AvailTree::first_fit) descent prune whole subtrees
//!   instead of scanning segments).
//!
//! ## Invariants
//!
//! 1. Breakpoint times are strictly increasing (BST order).
//! 2. Adjacent breakpoints carry *different* free counts — the tree
//!    coalesces eagerly at the two seam points of every range operation,
//!    exactly like the Vec backend's `dedup` pass, so the two
//!    representations are structurally identical (same `len()`, same
//!    breakpoint sequence), not merely value-equal.
//! 3. The last breakpoint's free count equals `total` (the tail of the
//!    timeline is eventually fully free).
//! 4. Treap priorities come from a deterministic SplitMix64 stream, so a
//!    run's tree shapes — and therefore its wall time — are reproducible.
//!
//! Nodes live in an arena (`Vec<Node>` + free list): clones are memcpys,
//! drops are trivial, and the recursion depth of every operation is the
//! tree height (expected O(log n)).

use grid_des::{Duration, SimTime};

/// Arena sentinel for "no child".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Breakpoint instant (BST key).
    t: SimTime,
    /// Free processors from `t` until the next breakpoint, pending the
    /// lazy deltas of this node's ancestors.
    val: u32,
    /// Treap heap priority.
    prio: u64,
    left: u32,
    right: u32,
    /// Subtree minimum of `val` (same pending-ancestor convention).
    min: u32,
    /// Subtree maximum of `val`.
    max: u32,
    /// Delta still to be pushed to both children (not to `val`/`min`/
    /// `max` of this node, which are already adjusted).
    lazy: i64,
}

/// Balanced availability timeline: an implicit treap over breakpoints
/// with lazy range adds and subtree min/max free-capacity aggregates.
#[derive(Debug, Clone)]
pub struct AvailTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    total: u32,
    len: usize,
    /// Cached time of the first breakpoint (mutations keep it current,
    /// saving a descent on every origin-clamped operation).
    origin: SimTime,
    /// Deterministic priority stream (SplitMix64 state).
    rng: u64,
}

impl AvailTree {
    /// A timeline with all `total` processors free from `origin` onwards.
    pub fn flat(total: u32, origin: SimTime) -> Self {
        let mut tree = AvailTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            total,
            len: 0,
            origin,
            rng: 0x243F_6A88_85A3_08D3,
        };
        tree.root = tree.alloc(origin, total);
        tree
    }

    /// Build a tree from an already sorted, coalesced breakpoint list in
    /// O(n): nodes are allocated left to right (drawing the same
    /// deterministic priority stream a fresh tree would), linked with the
    /// classic rightmost-spine Cartesian construction, and the min/max
    /// aggregates are fixed in one post-order pass. This is the promotion
    /// path of the adaptive [`Profile`](crate::profile::Profile) backend.
    ///
    /// # Panics
    /// Panics if `points` is empty (a timeline always has a breakpoint).
    pub fn from_points(total: u32, points: &[(SimTime, u32)]) -> Self {
        assert!(!points.is_empty(), "profile must be non-empty");
        let mut tree = AvailTree {
            nodes: Vec::with_capacity(points.len()),
            free: Vec::new(),
            root: NIL,
            total,
            len: 0,
            origin: points[0].0,
            rng: 0x243F_6A88_85A3_08D3,
        };
        // Rightmost spine, root first; priorities decrease along it.
        let mut spine: Vec<u32> = Vec::with_capacity(32);
        for &(t, v) in points {
            let x = tree.alloc(t, v);
            let prio = tree.node(x).prio;
            let mut displaced = NIL;
            while let Some(&top) = spine.last() {
                if tree.node(top).prio >= prio {
                    break;
                }
                displaced = top;
                spine.pop();
            }
            tree.node_mut(x).left = displaced;
            if let Some(&top) = spine.last() {
                tree.node_mut(top).right = x;
            }
            spine.push(x);
        }
        tree.root = spine[0];
        tree.fix_aggregates(tree.root);
        tree
    }

    /// Recompute min/max bottom-up after [`AvailTree::from_points`] has
    /// linked the nodes (no lazy deltas exist yet).
    fn fix_aggregates(&mut self, x: u32) {
        if x == NIL {
            return;
        }
        let (l, r) = {
            let n = self.node(x);
            (n.left, n.right)
        };
        self.fix_aggregates(l);
        self.fix_aggregates(r);
        self.pull(x);
    }

    /// Total processors (upper bound of every free count).
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Number of breakpoints.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `false` — the timeline always has at least one breakpoint.
    pub fn is_empty(&self) -> bool {
        false
    }

    // ------------------------------------------------------------------
    // Arena + treap primitives
    // ------------------------------------------------------------------

    fn next_prio(&mut self) -> u64 {
        // SplitMix64: deterministic, per-tree stream.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, t: SimTime, val: u32) -> u32 {
        let prio = self.next_prio();
        let node = Node {
            t,
            val,
            prio,
            left: NIL,
            right: NIL,
            min: val,
            max: val,
            lazy: 0,
        };
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn dealloc(&mut self, x: u32) {
        self.free.push(x);
        self.len -= 1;
    }

    fn free_subtree(&mut self, x: u32) {
        if x == NIL {
            return;
        }
        let (l, r) = {
            let n = &self.nodes[x as usize];
            (n.left, n.right)
        };
        self.free_subtree(l);
        self.free_subtree(r);
        self.dealloc(x);
    }

    #[inline]
    fn node(&self, x: u32) -> &Node {
        &self.nodes[x as usize]
    }

    #[inline]
    fn node_mut(&mut self, x: u32) -> &mut Node {
        &mut self.nodes[x as usize]
    }

    /// Add `d` to every free count in the subtree rooted at `x`.
    fn apply(&mut self, x: u32, d: i64) {
        if x == NIL || d == 0 {
            return;
        }
        let n = self.node_mut(x);
        n.val = (i64::from(n.val) + d) as u32;
        n.min = (i64::from(n.min) + d) as u32;
        n.max = (i64::from(n.max) + d) as u32;
        n.lazy += d;
    }

    fn push_down(&mut self, x: u32) {
        let lazy = self.node(x).lazy;
        if lazy != 0 {
            let (l, r) = {
                let n = self.node(x);
                (n.left, n.right)
            };
            self.apply(l, lazy);
            self.apply(r, lazy);
            self.node_mut(x).lazy = 0;
        }
    }

    /// Recompute `min`/`max` from children (children must not carry a
    /// pending delta relative to `x`, i.e. call after `push_down`).
    fn pull(&mut self, x: u32) {
        let (l, r, v) = {
            let n = self.node(x);
            (n.left, n.right, n.val)
        };
        let mut mn = v;
        let mut mx = v;
        if l != NIL {
            let ln = self.node(l);
            mn = mn.min(ln.min);
            mx = mx.max(ln.max);
        }
        if r != NIL {
            let rn = self.node(r);
            mn = mn.min(rn.min);
            mx = mx.max(rn.max);
        }
        let n = self.node_mut(x);
        n.min = mn;
        n.max = mx;
    }

    /// Split into `(keys < key, keys >= key)`.
    fn split(&mut self, x: u32, key: SimTime) -> (u32, u32) {
        if x == NIL {
            return (NIL, NIL);
        }
        self.push_down(x);
        if self.node(x).t < key {
            let r = self.node(x).right;
            let (a, b) = self.split(r, key);
            self.node_mut(x).right = a;
            self.pull(x);
            (x, b)
        } else {
            let l = self.node(x).left;
            let (a, b) = self.split(l, key);
            self.node_mut(x).left = b;
            self.pull(x);
            (a, x)
        }
    }

    /// Merge two trees where every key of `a` precedes every key of `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).prio >= self.node(b).prio {
            self.push_down(a);
            let r = self.node(a).right;
            let m = self.merge(r, b);
            self.node_mut(a).right = m;
            self.pull(a);
            a
        } else {
            self.push_down(b);
            let l = self.node(b).left;
            let m = self.merge(a, l);
            self.node_mut(b).left = m;
            self.pull(b);
            b
        }
    }

    // ------------------------------------------------------------------
    // Read-only descents (accumulate ancestor lazies in `acc`)
    // ------------------------------------------------------------------

    /// Time of the first breakpoint (cached; mutations keep it current).
    #[inline]
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    fn leftmost_key(&self, x: u32) -> SimTime {
        let mut x = x;
        loop {
            let n = self.node(x);
            if n.left == NIL {
                return n.t;
            }
            x = n.left;
        }
    }

    fn leftmost_val(&self) -> u32 {
        self.subtree_leftmost_val(self.root)
    }

    /// Value of the rightmost node of subtree `x` (must be non-NIL).
    fn rightmost_val(&self, x: u32) -> u32 {
        let mut x = x;
        let mut acc = 0i64;
        loop {
            let n = self.node(x);
            if n.right == NIL {
                return (i64::from(n.val) + acc) as u32;
            }
            acc += n.lazy;
            x = n.right;
        }
    }

    /// Value of the last breakpoint at or before `t`, if any.
    fn pred_val(&self, t: SimTime) -> Option<u32> {
        let mut x = self.root;
        let mut acc = 0i64;
        let mut best = None;
        while x != NIL {
            let n = self.node(x);
            if n.t <= t {
                best = Some((i64::from(n.val) + acc) as u32);
                acc += n.lazy;
                x = n.right;
            } else {
                acc += n.lazy;
                x = n.left;
            }
        }
        best
    }

    /// Free processors at instant `t` (clamped to the first breakpoint).
    pub fn value_at(&self, t: SimTime) -> u32 {
        self.pred_val(t).unwrap_or_else(|| self.leftmost_val())
    }

    /// Minimum free count over breakpoints with `after < t < before`
    /// (`after = None` means unbounded below). `u32::MAX` when the range
    /// holds no breakpoint.
    fn min_in(&self, after: Option<SimTime>, before: SimTime) -> u32 {
        self.min_in_rec(self.root, 0, after, before)
    }

    fn min_in_rec(&self, x: u32, acc: i64, after: Option<SimTime>, before: SimTime) -> u32 {
        if x == NIL {
            return u32::MAX;
        }
        let n = self.node(x);
        if after.is_some_and(|a| n.t <= a) {
            return self.min_in_rec(n.right, acc + n.lazy, after, before);
        }
        if n.t >= before {
            return self.min_in_rec(n.left, acc + n.lazy, after, before);
        }
        // `x` lies inside the range: its left subtree only needs the
        // lower bound, its right subtree only the upper — each of those
        // descents uses whole-subtree aggregates on the unconstrained
        // side, keeping the query O(height).
        let mut m = (i64::from(n.val) + acc) as u32;
        m = m.min(self.min_tail(n.left, acc + n.lazy, after));
        m.min(self.min_head(n.right, acc + n.lazy, before))
    }

    /// Minimum over subtree nodes with `key > after` (`None` = all).
    fn min_tail(&self, x: u32, acc: i64, after: Option<SimTime>) -> u32 {
        if x == NIL {
            return u32::MAX;
        }
        let n = self.node(x);
        let Some(a) = after else {
            return (i64::from(n.min) + acc) as u32;
        };
        if n.t <= a {
            return self.min_tail(n.right, acc + n.lazy, after);
        }
        let mut m = (i64::from(n.val) + acc) as u32;
        if n.right != NIL {
            m = m.min((i64::from(self.node(n.right).min) + acc + n.lazy) as u32);
        }
        m.min(self.min_tail(n.left, acc + n.lazy, after))
    }

    /// Minimum over subtree nodes with `key < before`.
    fn min_head(&self, x: u32, acc: i64, before: SimTime) -> u32 {
        if x == NIL {
            return u32::MAX;
        }
        let n = self.node(x);
        if n.t >= before {
            return self.min_head(n.left, acc + n.lazy, before);
        }
        let mut m = (i64::from(n.val) + acc) as u32;
        if n.left != NIL {
            m = m.min((i64::from(self.node(n.left).min) + acc + n.lazy) as u32);
        }
        m.min(self.min_head(n.right, acc + n.lazy, before))
    }

    /// Leftmost breakpoint with `key > after` (`None` = unbounded) whose
    /// value is `< limit` (`below = true`) or `>= limit` (`below =
    /// false`). The subtree min/max aggregates prune whole branches, so
    /// the descent is O(height) instead of a linear scan.
    fn first_match(
        &self,
        x: u32,
        acc: i64,
        after: Option<SimTime>,
        limit: i64,
        below: bool,
    ) -> Option<(SimTime, u32)> {
        if x == NIL {
            return None;
        }
        let n = self.node(x);
        if below {
            if i64::from(n.min) + acc >= limit {
                return None;
            }
        } else if i64::from(n.max) + acc < limit {
            return None;
        }
        if after.is_some_and(|a| n.t <= a) {
            return self.first_match(n.right, acc + n.lazy, after, limit, below);
        }
        if let Some(hit) = self.first_match(n.left, acc + n.lazy, after, limit, below) {
            return Some(hit);
        }
        let val = i64::from(n.val) + acc;
        if (below && val < limit) || (!below && val >= limit) {
            return Some((n.t, val as u32));
        }
        self.first_match(n.right, acc + n.lazy, after, limit, below)
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Detach the leftmost node of subtree `x`, returning `(min, rest)`.
    fn detach_min(&mut self, x: u32) -> (u32, u32) {
        self.push_down(x);
        let l = self.node(x).left;
        if l == NIL {
            let r = self.node(x).right;
            self.node_mut(x).right = NIL;
            self.pull(x);
            return (x, r);
        }
        let (m, rest) = self.detach_min(l);
        self.node_mut(x).left = rest;
        self.pull(x);
        (m, x)
    }

    /// Value of the leftmost node of subtree `x` (must be non-NIL).
    fn subtree_leftmost_val(&self, x: u32) -> u32 {
        let mut x = x;
        let mut acc = 0i64;
        loop {
            let n = self.node(x);
            if n.left == NIL {
                return (i64::from(n.val) + acc) as u32;
            }
            acc += n.lazy;
            x = n.left;
        }
    }

    /// The shared spine of [`AvailTree::reserve`] and
    /// [`AvailTree::release`]: one split pass that materialises the two
    /// seam breakpoints, feasibility-checks the covered range against its
    /// subtree aggregate, applies the delta lazily, re-coalesces the two
    /// seams and merges back — O(log n) total, where the Vec backend paid
    /// two mid-vector inserts plus a full coalescing pass.
    fn range_apply(&mut self, start: SimTime, dur: Duration, procs: u32, release: bool) {
        let end = start + dur;
        let (a, bc) = self.split(self.root, start);
        let (mut b, mut c) = self.split(bc, end);
        // Value in force just before `start` (`None` iff start == origin).
        let pred_start = if a == NIL {
            None
        } else {
            Some(self.rightmost_val(a))
        };
        // Materialise the start breakpoint at B's head.
        if b == NIL || self.leftmost_key(b) != start {
            let v = pred_start.expect("breakpoint before profile origin");
            let node = self.alloc(start, v);
            b = self.merge(node, b);
        }
        // Materialise the end breakpoint at C's head, carrying the
        // pre-mutation value in force at `end` (B is non-empty now).
        if c == NIL || self.leftmost_key(c) != end {
            let v = self.rightmost_val(b);
            let node = self.alloc(end, v);
            c = self.merge(node, c);
        }
        // Feasibility over the whole window via B's aggregate; on
        // failure, report the earliest offending breakpoint with the
        // legacy backend's message.
        if release {
            if i64::from(self.node(b).max) + i64::from(procs) > i64::from(self.total) {
                let limit = i64::from(self.total) - i64::from(procs) + 1;
                let (t, free) = self
                    .first_match(b, 0, None, limit, false)
                    .expect("subtree max over limit implies a matching node");
                let total = self.total;
                let ab = self.merge(a, b);
                self.root = self.merge(ab, c);
                panic!("over-release: {free} procs free at {t}, releasing {procs} of {total}");
            }
            self.apply(b, i64::from(procs));
        } else {
            if self.node(b).min < procs {
                let (t, free) = self
                    .first_match(b, 0, None, i64::from(procs), true)
                    .expect("subtree min < procs implies a matching node");
                let ab = self.merge(a, b);
                self.root = self.merge(ab, c);
                panic!("over-reservation: {free} procs free at {t}, need {procs}");
            }
            self.apply(b, -i64::from(procs));
        }
        // Re-coalesce the start seam: only the delta can have made the
        // start breakpoint equal to its predecessor (interior
        // inequalities are preserved by a constant shift).
        if let Some(pv) = pred_start {
            if self.subtree_leftmost_val(b) == pv {
                let (m, rest) = self.detach_min(b);
                self.dealloc(m);
                b = rest;
            }
        }
        // Re-coalesce the end seam against the last covered value.
        let before_end = match b {
            NIL => pred_start.expect("empty window implies a coalesced start"),
            _ => self.rightmost_val(b),
        };
        if self.subtree_leftmost_val(c) == before_end {
            let (m, rest) = self.detach_min(c);
            self.dealloc(m);
            c = rest;
        }
        let ab = self.merge(a, b);
        self.root = self.merge(ab, c);
    }

    /// Remove `procs` processors from the free pool over
    /// `[start, start + dur)`. Caller guarantees `dur > 0`, `procs > 0`
    /// and `start >= origin`.
    ///
    /// # Panics
    /// Panics (with the same message as the legacy backend) if any
    /// covered breakpoint would go negative.
    pub fn reserve(&mut self, start: SimTime, dur: Duration, procs: u32) {
        self.range_apply(start, dur, procs, false);
    }

    /// Give `procs` processors back over `[start, start + dur)` — the
    /// inverse of [`AvailTree::reserve`], same caller guarantees.
    ///
    /// # Panics
    /// Panics if any covered breakpoint would exceed `total`.
    pub fn release(&mut self, start: SimTime, dur: Duration, procs: u32) {
        self.range_apply(start, dur, procs, true);
    }

    /// Advance the timeline origin to `now`, dropping strictly-past
    /// breakpoints while keeping the in-force value (O(dropped · log n)
    /// amortised — each breakpoint is dropped at most once).
    pub fn advance_origin(&mut self, now: SimTime) {
        if self.origin >= now {
            return;
        }
        let (a, b) = self.split(self.root, now);
        debug_assert!(a != NIL, "origin < now implies a past breakpoint");
        let in_force = self.rightmost_val(a);
        self.free_subtree(a);
        if b != NIL && self.leftmost_key(b) == now {
            self.root = b;
        } else {
            let node = self.alloc(now, in_force);
            self.root = self.merge(node, b);
        }
        self.origin = now;
    }

    /// Earliest `t >= after` such that at least `procs` processors are
    /// free over the whole window `[t, t + dur)`. Instead of scanning
    /// segments, the search alternates two aggregate descents: *next
    /// breakpoint below `procs`* (is the candidate window clear?) and
    /// *next breakpoint at or above `procs`* (where does the blocking run
    /// end?), each O(height).
    ///
    /// Caller guarantees `procs <= total` and `dur > 0`.
    pub fn first_fit(&self, after: SimTime, dur: Duration, procs: u32) -> SimTime {
        let mut cand = after.max(self.origin());
        if self.value_at(cand) < procs {
            cand = self
                .first_match(self.root, 0, Some(cand), i64::from(procs), false)
                .expect("profile tail must have free >= procs")
                .0;
        }
        loop {
            match self.first_match(self.root, 0, Some(cand), i64::from(procs), true) {
                None => return cand,
                Some((blocked, _)) if blocked >= cand + dur => return cand,
                Some((blocked, _)) => {
                    cand = self
                        .first_match(self.root, 0, Some(blocked), i64::from(procs), false)
                        .expect("profile tail must have free >= procs")
                        .0;
                }
            }
        }
    }

    /// Minimum free count over `[start, start + dur)`, with the legacy
    /// backend's exact clamping semantics (including `u32::MAX` for a
    /// window entirely before the origin).
    pub fn min_free(&self, start: SimTime, dur: Duration) -> u32 {
        if dur == Duration::ZERO {
            return self.value_at(start);
        }
        let end = start + dur;
        if start < self.origin() {
            self.min_in(None, end)
        } else {
            self.value_at(start).min(self.min_in(Some(start), end))
        }
    }

    /// Reset to "`total` free from `now`, nothing before `until`" — the
    /// outage truncation: every reservation is wiped (the cluster has
    /// evicted all its jobs) and no processor is available before the
    /// recovery instant.
    pub fn fail_until(&mut self, now: SimTime, until: SimTime) {
        *self = AvailTree::flat(self.total, now);
        if until > now && self.total > 0 {
            self.reserve(now, until.since(now), self.total);
        }
    }

    /// Iterator over `(t, free)` breakpoints in time order.
    pub fn breakpoints(&self) -> Breakpoints<'_> {
        let mut it = Breakpoints {
            tree: self,
            stack: Vec::with_capacity(16),
        };
        it.push_left(self.root, 0);
        it
    }

    /// Iterator over the breakpoint in force at `t` (the first one when
    /// `t` precedes the origin) and every later one: one O(log n)
    /// descent to that breakpoint's key, then a lower-bound in-order
    /// walk, so the past is never visited.
    pub fn breakpoints_from(&self, t: SimTime) -> Breakpoints<'_> {
        let mut from = self.origin;
        let mut x = self.root;
        while x != NIL {
            let n = self.node(x);
            if n.t <= t {
                from = n.t;
                x = n.right;
            } else {
                x = n.left;
            }
        }
        let mut it = Breakpoints {
            tree: self,
            stack: Vec::with_capacity(16),
        };
        let (mut x, mut acc) = (self.root, 0i64);
        while x != NIL {
            let n = self.node(x);
            let next = if n.t >= from {
                it.stack.push((x, acc));
                n.left
            } else {
                n.right
            };
            acc += n.lazy;
            x = next;
        }
        it
    }

    /// Check every structural invariant (test helper).
    pub fn assert_invariants(&self) {
        let points: Vec<(SimTime, u32)> = self.breakpoints().collect();
        assert!(!points.is_empty(), "profile must be non-empty");
        assert_eq!(points.len(), self.len, "len drifted from the node count");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must strictly increase");
            assert_ne!(w[0].1, w[1].1, "adjacent breakpoints must be coalesced");
        }
        for p in &points {
            assert!(p.1 <= self.total, "free exceeds total at {}", p.0);
        }
        assert_eq!(
            points.last().unwrap().1,
            self.total,
            "profile tail must be fully free"
        );
        self.check_aggregates(self.root, 0);
    }

    /// Verify subtree min/max against a recomputation.
    fn check_aggregates(&self, x: u32, acc: i64) -> Option<(u32, u32)> {
        if x == NIL {
            return None;
        }
        let n = self.node(x);
        let val = (i64::from(n.val) + acc) as u32;
        let mut mn = val;
        let mut mx = val;
        if let Some((l_mn, l_mx)) = self.check_aggregates(n.left, acc + n.lazy) {
            mn = mn.min(l_mn);
            mx = mx.max(l_mx);
        }
        if let Some((r_mn, r_mx)) = self.check_aggregates(n.right, acc + n.lazy) {
            mn = mn.min(r_mn);
            mx = mx.max(r_mx);
        }
        assert_eq!((i64::from(n.min) + acc) as u32, mn, "stale subtree min");
        assert_eq!((i64::from(n.max) + acc) as u32, mx, "stale subtree max");
        Some((mn, mx))
    }
}

/// In-order breakpoint iterator over an [`AvailTree`]; yields `(t, free)`
/// pairs, resolving pending lazy deltas on the fly without mutating the
/// tree.
pub struct Breakpoints<'a> {
    tree: &'a AvailTree,
    /// Stack of `(node, accumulated ancestor lazy)` pairs.
    stack: Vec<(u32, i64)>,
}

impl Breakpoints<'_> {
    fn push_left(&mut self, mut x: u32, mut acc: i64) {
        while x != NIL {
            self.stack.push((x, acc));
            let n = self.tree.node(x);
            acc += n.lazy;
            x = n.left;
        }
    }
}

impl Iterator for Breakpoints<'_> {
    type Item = (SimTime, u32);

    fn next(&mut self) -> Option<(SimTime, u32)> {
        let (x, acc) = self.stack.pop()?;
        let n = self.tree.node(x);
        self.push_left(n.right, acc + n.lazy);
        Some((n.t, (i64::from(n.val) + acc) as u32))
    }
}
