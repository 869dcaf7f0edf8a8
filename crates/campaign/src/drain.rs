//! The one drain loop behind [`execute`](crate::execute()),
//! [`execute_plan`](crate::execute_plan) (`campaign run`) and
//! [`run_fleet`](crate::run_fleet) (`campaign runner`).
//!
//! Workers scan the units in input order under one lock. A scan resolves
//! what needs no simulation — a cache hit ([`ResultCache::load`]: the
//! record must decode and name its unit), a fleet failure marker, a
//! convergence skip — and claims the first unit left to compute, in
//! memory or through a fleet lease file. Every resolve updates the
//! summary, the [`ProgressView`] and the optional [`FleetMetrics`], and
//! wakes the waiting workers. A worker with nothing to claim exits,
//! unless a unit is deferred or leased by another process; a fleet
//! runner's wait also times out after the poll interval, since other
//! processes' records arrive without a wake-up.

use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use grid_metrics::RunOutcome;
use grid_obs::{MetricsRegistry, ProgressView};

use crate::cache::ResultCache;
use crate::exec::compute_and_store;
use crate::fleet::{
    now_unix, Claim, ConvergenceTracker, Decision, FleetMetrics, LeaseDir, RunnerHeartbeat,
    HEARTBEAT_INTERVAL_S,
};
use crate::plan::RunUnit;

const POISONED: &str = "a drain worker panicked while holding the drain state";

/// One failed unit.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Label of the failing unit.
    pub unit: String,
    /// Panic payload, failure marker or I/O error, as text.
    pub message: String,
}

/// What one drain did.
#[derive(Debug, Clone, Default)]
pub struct DrainSummary {
    /// Units simulated by this drain.
    pub computed: usize,
    /// Units answered from the cache (present before the drain, or
    /// stored by another fleet runner during it).
    pub cached: usize,
    /// Units the convergence frontier skipped.
    pub skipped: usize,
    /// Expired leases this drain reclaimed (fleet runners only).
    pub stolen: usize,
    /// Units that panicked, here or (per a failure marker) on another
    /// runner: no outcome exists for these.
    pub failures: Vec<RunFailure>,
    /// Units that simulated fine but whose record could not be written
    /// to the cache. Their outcomes are valid in-process; a later
    /// `report` run against the cache will find them missing.
    pub store_errors: Vec<RunFailure>,
}

/// A fleet runner's claim source: lease files in the shared cache.
pub(crate) struct Leases {
    pub(crate) dir: LeaseDir,
    pub(crate) runner: String,
    pub(crate) ttl_s: u64,
    pub(crate) poll: Duration,
    /// Cache key of every unit, in input order.
    pub(crate) keys: Vec<String>,
}

/// One drain: the units, where their results go, and how they are
/// claimed (`leases: None` claims in memory).
pub(crate) struct Drain<'a> {
    pub(crate) units: &'a [RunUnit],
    pub(crate) cache: Option<&'a ResultCache>,
    pub(crate) threads: Option<usize>,
    /// One stderr line per computed unit, and the closing status line.
    pub(crate) lines: bool,
    /// Re-render the live status line on stderr.
    pub(crate) status: bool,
    pub(crate) trace: Option<&'a Path>,
    pub(crate) metrics: Option<&'a MetricsRegistry>,
    /// Consulted only with a cache.
    pub(crate) frontier: Option<ConvergenceTracker>,
    pub(crate) leases: Option<Leases>,
    pub(crate) keep_outcomes: bool,
}

/// How a unit was resolved.
pub(crate) enum Resolution {
    Cached(RunOutcome),
    Computed {
        outcome: RunOutcome,
        wall: Duration,
        store_error: Option<String>,
    },
    Failed(String),
    Skipped,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pending,
    /// A worker is loading its record with the lock released.
    Loading,
    InFlight,
    Done,
}

struct State {
    slots: Vec<Slot>,
    /// Scan start: every slot below it is `Done`.
    next: usize,
    in_flight: usize,
    /// Workers still running; the heartbeat stops at zero.
    workers: usize,
    frontier: Option<ConvergenceTracker>,
    summary: DrainSummary,
    view: ProgressView,
    outcomes: Vec<Option<RunOutcome>>,
    error: Option<String>,
}

struct Pool<'d, 'a> {
    d: &'d Drain<'a>,
    fm: Option<FleetMetrics>,
    started: Instant,
    state: Mutex<State>,
    wake: Condvar,
}

impl Drain<'_> {
    /// Drain every unit: their outcomes in input order (all `None`
    /// unless `keep_outcomes`) and the summary. Fails only when a lease
    /// claim hits an I/O error.
    pub(crate) fn run(mut self) -> Result<(Vec<Option<RunOutcome>>, DrainSummary), String> {
        let n = self.units.len();
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            .clamp(1, n.max(1));
        if let Some(dir) = self.trace {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("[WARN] trace dir {}: {e}", dir.display());
            }
        }
        let fm = self.metrics.map(FleetMetrics::register);
        if let Some(fm) = &fm {
            fm.units_total.set(n as f64);
        }
        let state = State {
            slots: vec![Slot::Pending; n],
            next: 0,
            in_flight: 0,
            workers: threads,
            frontier: self.frontier.take(),
            summary: DrainSummary::default(),
            view: ProgressView::new(n),
            outcomes: vec![None; if self.keep_outcomes { n } else { 0 }],
            error: None,
        };
        let pool = Pool {
            d: &self,
            fm,
            started: Instant::now(),
            state: Mutex::new(state),
            wake: Condvar::new(),
        };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| pool.work());
            }
            if let Some(leases) = &self.leases {
                scope.spawn(|| pool.heartbeat(leases));
            }
        });
        let mut st = pool.state.into_inner().expect(POISONED);
        if let Some(leases) = &self.leases {
            // Clean exit: `status` never counts a finished runner live.
            leases.dir.remove_heartbeat(&leases.runner);
        }
        if let Some(e) = st.error {
            return Err(e);
        }
        if self.status || self.lines {
            st.view.elapsed_ms = pool.started.elapsed().as_millis() as u64;
            eprintln!("\r{}", st.view.render());
        }
        Ok((st.outcomes, st.summary))
    }
}

impl Pool<'_, '_> {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }

    fn work(&self) {
        let _count_out = CountOut(self);
        let mut st = self.lock();
        loop {
            let claimed;
            (st, claimed) = self.claim(st);
            let Some(i) = claimed else { break };
            drop(st);
            let resolution = self.compute(i);
            st = self.lock();
            self.resolve(&mut st, i, resolution);
        }
    }

    /// Scan the unresolved units in order, resolving what needs no
    /// simulation, until one is claimed (`Some`) or none can be (`None`).
    /// The lock is released while a record loads, so workers decode in
    /// parallel, and while the worker waits for deferred or leased units.
    fn claim<'p>(
        &'p self,
        mut st: MutexGuard<'p, State>,
    ) -> (MutexGuard<'p, State>, Option<usize>) {
        let leases = self.d.leases.as_ref();
        while st.error.is_none() {
            while st.slots.get(st.next) == Some(&Slot::Done) {
                st.next += 1;
            }
            let (mut waiting, resolved) = (false, st.view.done());
            for i in st.next..st.slots.len() {
                if st.slots[i] != Slot::Pending {
                    continue;
                }
                let unit = &self.d.units[i];
                if let Some(cache) = self.d.cache {
                    st.slots[i] = Slot::Loading;
                    drop(st);
                    let record = cache.load(unit);
                    st = self.lock();
                    st.slots[i] = Slot::Pending;
                    if let Some(record) = record {
                        self.resolve(&mut st, i, Resolution::Cached(record.outcome));
                        continue;
                    }
                }
                if let Some(message) = leases.and_then(|l| l.dir.failed_message(&l.keys[i])) {
                    self.resolve(&mut st, i, Resolution::Failed(message));
                    continue;
                }
                if let (Some(frontier), Some(cache)) = (&mut st.frontier, self.d.cache) {
                    match frontier.decision(i, self.d.units, cache, leases.map(|l| &l.dir)) {
                        Decision::Run => {}
                        Decision::Skip => {
                            self.resolve(&mut st, i, Resolution::Skipped);
                            continue;
                        }
                        Decision::Defer => {
                            waiting = true;
                            continue;
                        }
                    }
                }
                if let Some(l) = leases {
                    match l
                        .dir
                        .try_claim(&l.keys[i], &unit.label(), &l.runner, l.ttl_s)
                    {
                        Ok(Claim::Claimed { stolen: false }) => {}
                        Ok(Claim::Claimed { stolen: true }) => {
                            st.summary.stolen += 1;
                            if let Some(fm) = &self.fm {
                                fm.leases_stolen.inc();
                            }
                        }
                        Ok(Claim::Held { .. }) => {
                            waiting = true;
                            continue;
                        }
                        Err(e) => {
                            st.error.get_or_insert(format!("lease claim: {e}"));
                            return (st, None);
                        }
                    }
                }
                st.slots[i] = Slot::InFlight;
                st.in_flight += 1;
                self.render(&mut st);
                return (st, Some(i));
            }
            if !waiting {
                break;
            }
            if st.view.done() != resolved {
                // A unit resolved while this pass ran (and its wake-up
                // may have come while a record loaded): rescan first.
                continue;
            }
            st = match leases {
                Some(l) => self.wake.wait_timeout(st, l.poll).expect(POISONED).0,
                None => self.wake.wait(st).expect(POISONED),
            };
        }
        (st, None)
    }

    /// Simulate and store a claimed unit, then drop its lease.
    fn compute(&self, i: usize) -> Resolution {
        let unit = &self.d.units[i];
        let resolution = compute_and_store(unit, self.d.cache, self.d.trace, self.d.metrics);
        if let Some(l) = &self.d.leases {
            if let Resolution::Failed(message) = &resolution {
                l.dir
                    .mark_failed(&l.keys[i], &unit.label(), &l.runner, message);
            }
            // The record is stored before the lease drops: observers
            // never see a released unit without its record.
            l.dir.release(&l.keys[i]);
        }
        resolution
    }

    fn resolve(&self, st: &mut State, i: usize, resolution: Resolution) {
        if st.slots[i] == Slot::InFlight {
            st.in_flight -= 1;
        }
        st.slots[i] = Slot::Done;
        let label = || self.d.units[i].label();
        let fm = self.fm.as_ref();
        let (counter, outcome) = match resolution {
            Resolution::Cached(outcome) => {
                st.summary.cached += 1;
                st.view.on_cached();
                (fm.map(|m| &m.units_cached), Some(outcome))
            }
            Resolution::Computed {
                outcome,
                wall,
                store_error,
            } => {
                let wall_ms = wall.as_millis() as u64;
                st.summary.computed += 1;
                st.view.on_computed(wall_ms);
                if let Some(fm) = fm {
                    fm.run_wall_ms.observe(wall_ms);
                }
                if let Some(message) = store_error {
                    let unit = label();
                    st.summary.store_errors.push(RunFailure { unit, message });
                    // No record will appear for the frontier to wait on.
                    if let Some(frontier) = &mut st.frontier {
                        frontier.note_failed(i);
                    }
                }
                if self.d.lines {
                    let (done, n, jobs) = (st.view.done(), st.slots.len(), outcome.len());
                    eprintln!("[{done:>4}/{n}] {} ({jobs} jobs, {wall:.1?})", label());
                }
                (fm.map(|m| &m.units_computed), Some(outcome))
            }
            Resolution::Failed(message) => {
                let unit = label();
                st.summary.failures.push(RunFailure { unit, message });
                st.view.on_failed();
                if let Some(frontier) = &mut st.frontier {
                    frontier.note_failed(i);
                }
                (fm.map(|m| &m.units_failed), None)
            }
            Resolution::Skipped => {
                st.summary.skipped += 1;
                st.view.on_skipped();
                (fm.map(|m| &m.units_skipped), None)
            }
        };
        if let Some(counter) = counter {
            counter.inc();
        }
        if self.d.keep_outcomes {
            st.outcomes[i] = outcome;
        }
        self.render(st);
        self.wake.notify_all();
    }

    fn render(&self, st: &mut State) {
        if self.d.status {
            st.view.elapsed_ms = self.started.elapsed().as_millis() as u64;
            st.view.claimed = st.in_flight;
            eprint!("\r{}", st.view.render());
        }
    }

    /// Write `leases/runners/<id>.hb` every [`HEARTBEAT_INTERVAL_S`]
    /// while a worker runs, and leave the fleet gauges at their final
    /// values when the last one exits.
    fn heartbeat(&self, leases: &Leases) {
        let started_unix = now_unix();
        let mut st = self.lock();
        loop {
            let done = st.view.done();
            if let Some(fm) = &self.fm {
                fm.units_in_flight.set(st.in_flight as f64);
                fm.units_done.set(done as f64);
            }
            if st.workers == 0 {
                return;
            }
            let elapsed = self.started.elapsed().as_secs_f64();
            let hb = RunnerHeartbeat {
                runner: leases.runner.clone(),
                pid: std::process::id(),
                started_unix,
                beat_unix: now_unix(),
                current: (st.next..st.slots.len())
                    .find(|&i| st.slots[i] == Slot::InFlight)
                    .map(|i| leases.keys[i].clone()),
                in_flight: st.in_flight,
                computed: st.summary.computed,
                cached: st.summary.cached,
                failed: st.summary.failures.len(),
                skipped: st.summary.skipped,
                runs_per_s: if elapsed > 0.0 {
                    done as f64 / elapsed
                } else {
                    0.0
                },
            };
            drop(st);
            if let (Ok(()), Some(fm)) = (leases.dir.write_heartbeat(&hb), &self.fm) {
                fm.heartbeats_written.inc();
            }
            let interval = Duration::from_secs(HEARTBEAT_INTERVAL_S);
            st = self
                .wake
                .wait_timeout_while(self.lock(), interval, |st| st.workers > 0)
                .expect(POISONED)
                .0;
        }
    }
}

/// Counts a worker out when it returns or unwinds, so the heartbeat
/// thread stops even after a worker died outside the per-unit panic
/// isolation (say, on a warning written to a closed stderr).
struct CountOut<'p, 'd, 'a>(&'p Pool<'d, 'a>);

impl Drop for CountOut<'_, '_, '_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.workers -= 1;
        self.0.wake.notify_all();
    }
}
