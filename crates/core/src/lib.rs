//! # grid-realloc — meta-scheduling and task reallocation
//!
//! The primary contribution of *"Analysis of Tasks Reallocation in a
//! Dedicated Grid Environment"* (Caniou, Charrier, Desprez, INRIA RR-7226 /
//! CLUSTER 2010), reproduced in full:
//!
//! * a GridRPC-style **meta-scheduler** (the paper's *agent*) that maps each
//!   incoming rigid job onto one cluster of a multi-cluster grid — by
//!   default with **MCT** (minimum completion time), with Random and
//!   Round-Robin also available (§2.1);
//! * a periodic **reallocation mechanism** migrating *waiting* jobs between
//!   clusters when their estimated completion time (ECT) improves, in two
//!   variants (§2.2.1):
//!   * [`ReallocAlgorithm::NoCancel`] — Algorithm 1: consider each selected
//!     job, migrate it iff the best foreign ECT beats its current ECT by
//!     more than a threshold (one minute in the paper);
//!   * [`ReallocAlgorithm::CancelAll`] — Algorithm 2: cancel every waiting
//!     job on every cluster, then re-submit them one by one, each to the
//!     cluster with the best ECT;
//! * the six **(re)scheduling heuristics** that order the jobs inside a
//!   reallocation round (§2.2.2): MCT, MinMin, MaxMin, MaxGain, MaxRelGain
//!   and Sufferage;
//! * the **simulation driver** gluing these to the `grid-batch` clusters,
//!   and the **single-run entry points and table builders** behind the
//!   paper's Tables 2–17 (the `grid-campaign` crate runs the 364-run
//!   matrix through them), plus the ablations described in `DESIGN.md`.
//!
//! ## Quick start
//!
//! ```
//! use grid_batch::{BatchPolicy, Platform};
//! use grid_realloc::{GridConfig, GridSim, Heuristic, ReallocAlgorithm, ReallocConfig};
//! use grid_workload::Scenario;
//!
//! // A small slice of the paper's January scenario.
//! let jobs = Scenario::Jan.generate_fraction(42, 0.01);
//! let config = GridConfig::new(Platform::grid5000(true), BatchPolicy::Cbf)
//!     .with_realloc(ReallocConfig::new(ReallocAlgorithm::NoCancel, Heuristic::Mct));
//! let outcome = GridSim::new(config, jobs).run().unwrap();
//! println!(
//!     "{} jobs, {} reallocations, mean response {:.0} s",
//!     outcome.records.len(),
//!     outcome.total_reallocations,
//!     outcome.mean_response()
//! );
//! ```

pub mod ablation;
pub mod ect;
pub mod experiments;
pub mod figures;
pub mod grid;
pub mod heuristics;
pub mod load_threshold;
pub mod mapping;
pub mod multisub;
#[cfg(test)]
mod oracle;
pub mod realloc;

pub use grid::{GridConfig, GridSim, GridStats, SimError};
pub use heuristics::{Heuristic, OrderingHeuristic};
pub use mapping::{Mapper, Mapping, MappingPolicy};
pub use realloc::{ReallocAlgorithm, ReallocConfig, ReallocStrategy, TickReport};
