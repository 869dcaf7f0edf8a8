//! # caniou-realloc — tasks reallocation in a dedicated grid environment
//!
//! A complete, from-scratch Rust reproduction of
//!
//! > Yves Caniou, Ghislain Charrier, Frédéric Desprez.
//! > *Analysis of Tasks Reallocation in a Dedicated Grid Environment.*
//! > INRIA Research Report RR-7226, March 2010 (CLUSTER 2010).
//!
//! The paper proposes a middleware-level mechanism that periodically
//! migrates *waiting* batch jobs between the clusters of a multi-cluster
//! grid whenever their estimated completion time would improve, and
//! evaluates two algorithms (with and without mass cancellation) × six
//! scheduling heuristics over six months of Grid'5000 traces and two
//! Parallel Workload Archive logs.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`des`] | deterministic discrete-event kernel (virtual clock, event queue, seeded RNG) |
//! | [`batch`] | Simbatch-equivalent cluster simulator: availability profiles, FCFS and conservative back-filling, the four middleware queries, ASCII Gantt charts |
//! | [`workload`] | SWF trace I/O and the calibrated synthetic generator reproducing the paper's Table 1 scenarios |
//! | [`realloc`] | the paper's contribution: MCT meta-scheduling, reallocation Algorithms 1 & 2, the six heuristics, the simulator (`GridSim::run`, `simulate`) and the paper's tables |
//! | [`metrics`] | the §3.4 evaluation metrics and paper-style table rendering |
//! | [`fault`] | deterministic fault injection: cluster outage windows, ECT estimation noise, trace perturbation |
//! | [`obs`] | deterministic, zero-cost-when-disabled instrumentation: recorder, Chrome-trace/JSONL exporters, campaign progress view |
//! | [`campaign`] | declarative experiment campaigns: spec files, parallel execution and a runner fleet, content-addressed result cache, aggregation and exports |
//!
//! ## Quick start
//!
//! ```
//! use caniou_realloc::prelude::*;
//!
//! // 1% of the paper's June 2008 scenario on the heterogeneous Grid'5000
//! // platform, CBF everywhere, hourly reallocation with cancellation.
//! let jobs = Scenario::Jun.generate_fraction(42, 0.01);
//! let baseline = simulate(
//!     GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf),
//!     jobs.clone(),
//! )
//! .unwrap();
//! let with_realloc = simulate(
//!     GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
//!         .with_realloc(ReallocConfig::new(ReallocAlgorithm::CancelAll, Heuristic::MinMin)),
//!     jobs,
//! )
//! .unwrap();
//! let cmp = Comparison::against_baseline(&baseline, &with_realloc);
//! println!(
//!     "{:.1}% of jobs impacted, {:.1}% of those earlier, relative response {:.2}",
//!     cmp.pct_impacted, cmp.pct_earlier, cmp.rel_avg_response
//! );
//! ```
//!
//! See `examples/` for runnable scenarios and spec files: `campaign report
//! --check` regenerates every table of the paper, the `figures` binary
//! in `crates/bench` every figure.

pub use grid_batch as batch;
pub use grid_campaign as campaign;
pub use grid_des as des;
pub use grid_fault as fault;
pub use grid_metrics as metrics;
pub use grid_obs as obs;
pub use grid_realloc as realloc;
pub use grid_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use grid_batch::{
        BatchPolicy, Cluster, ClusterSpec, GanttChart, JobId, JobSpec, LocalScheduler, Platform,
    };
    pub use grid_campaign::{CampaignPlan, CampaignSpec, ResultCache};
    pub use grid_des::{Duration, SimRng, SimTime};
    pub use grid_fault::{EctNoiseSpec, Fault, OutageSpec, PerturbSpec};
    pub use grid_metrics::{Comparison, JobRecord, PaperTable, RunOutcome};
    pub use grid_obs::{Obs, Recorder};
    pub use grid_realloc::{
        simulate, GridConfig, GridSim, Heuristic, Mapping, MappingPolicy, OrderingHeuristic,
        ReallocAlgorithm, ReallocConfig, ReallocStrategy,
    };
    pub use grid_workload::{Scenario, SiteWorkloadSpec, WorkloadStats};
}
