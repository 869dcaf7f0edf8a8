//! # grid-metrics — evaluation metrics and paper-style tables
//!
//! Implements the four metrics of the paper's §3.4 and the table layout of
//! its §4, so `campaign report` can print rows directly comparable to
//! Tables 2–17:
//!
//! * **System metrics** — percentage of jobs *impacted* by reallocation
//!   (completion time changed vs. the no-reallocation reference run) and
//!   the *number of reallocations* (a job migrated twice counts twice).
//! * **User metrics** — percentage of impacted jobs *finishing earlier*,
//!   and the *relative average response time* of impacted jobs (a value of
//!   0.85 means reallocation cut the average response time by 15%).

pub mod compare;
pub mod ser;
pub mod table;
pub mod timeseries;

pub use compare::{Comparison, JobRecord, RunOutcome};
pub use table::PaperTable;
