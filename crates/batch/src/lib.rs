//! # grid-batch — batch-system simulator (the paper's "Simbatch" substrate)
//!
//! The paper simulates each cluster's local resource management system
//! (LRMS) with Simbatch, a C library on top of SimGrid. This crate is the
//! Rust equivalent: it models a cluster of processors managed by a batch
//! scheduler running any registered [`LocalScheduler`] — **FCFS**
//! (first-come-first-served, no back-filling — the job gets "the
//! earliest slot at the end of the job queue"), **CBF** (conservative
//! back-filling — the earliest slot anywhere that does not delay
//! previously queued jobs), **EASY** (aggressive back-filling) and
//! **EASY-SJF** (shortest-job-first EASY) ship in-tree; see the
//! [`sched`] module for the registry.
//!
//! A cluster exposes exactly the queries the paper's middleware is allowed
//! to use (§2.1): **submission**, **cancellation of a waiting job**,
//! **estimation of the completion time** of a job (queued or hypothetical)
//! and the **list of waiting jobs**. Scheduling decisions are based on user
//! *walltimes*; actual runtimes are only revealed when a job completes,
//! which is what creates the estimation errors reallocation exploits.
//!
//! ## Model
//!
//! * Jobs are **rigid**: they need a fixed number of processors for their
//!   whole execution.
//! * A job is **killed at its walltime** if still running, like PBS / OAR /
//!   Maui do (paper §1).
//! * On a cluster with relative speed *s*, both the runtime and the
//!   walltime of a job are divided by *s* (rounded up) — the "automatic
//!   adjustment of the walltime to the speed of the cluster".

pub mod avail;
pub mod cluster;
pub mod easy_sjf;
pub mod gantt;
pub mod job;
pub mod platform;
pub mod profile;
pub mod sched;

pub use avail::Breakpoints;
pub use cluster::{Cluster, ClusterStats, EctNoise, QueuedRef, Running, SubmitError};
pub use gantt::{availability_lane, GanttChart, GanttEntry};
pub use job::{JobId, JobSpec, ScaledJob};
pub use platform::{ClusterSpec, Platform};
pub use profile::{Profile, ProfileBreakpoints};
pub use sched::{BatchPolicy, LocalScheduler, QueueDelta, QueueScan};
