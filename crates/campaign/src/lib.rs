//! # grid-campaign — declarative experiment-campaign engine
//!
//! The paper's evaluation is a 364-run campaign (2 algorithms × 6
//! heuristics × 2 batch policies × 2 platform flavours × 7 traces, plus
//! the 28 no-reallocation reference runs). This crate is the one engine
//! that runs it:
//!
//! * [`CampaignSpec`] — a declarative scenario matrix, loadable from TOML
//!   or JSON (`examples/paper_campaign.toml` is annotated), that
//!   [expands](CampaignSpec::expand) into concrete run units;
//! * [`CampaignPlan`] — the deterministic expansion into run units;
//! * [`drain`] — the one parallel drain loop, with per-run panic
//!   isolation and progress reporting: [`execute`](exec::execute()) and
//!   [`execute_plan`] (`campaign run`) claim units in memory,
//!   [`run_fleet`] through lease files;
//! * [`ResultCache`] — a content-addressed on-disk cache (hash of the
//!   canonical run descriptor + engine version) so interrupted campaigns
//!   resume and unchanged runs are never recomputed;
//! * [`aggregate`](aggregate::aggregate) — folds cached outcomes back
//!   into `grid_realloc::experiments::SuiteResults`, the paper tables,
//!   and CSV/JSON exports, with constant-memory streaming variants
//!   ([`aggregate_streamed`], [`stream_csv`]) for million-run campaigns;
//! * [`fleet`] — a coordinator-free runner fleet: any number of
//!   `campaign runner` processes drain one plan by atomically claiming
//!   units through lease files in the shared cache directory
//!   ([`LeaseDir`]), with crash recovery via lease expiry, the per-cell
//!   CI-convergence frontier ([`Converge`], which `campaign run` applies
//!   too), and periodic
//!   runner heartbeats ([`RunnerHeartbeat`]) that feed live fleet
//!   telemetry — `campaign status` attribution, the `/status` JSON
//!   snapshot, and Prometheus `/metrics` pages served by
//!   `grid_obs::HttpServer`.
//!
//! The `campaign` binary wires these into `plan` / `run` / `runner` /
//! `status` / `report` / `gc` subcommands:
//!
//! ```text
//! cargo run -p grid-campaign --release -- run    --spec examples/paper_campaign.toml
//! cargo run -p grid-campaign --release -- report --spec examples/paper_campaign.toml
//! ```
//!
//! ## Determinism contract
//!
//! A run unit is a pure function of its descriptor (scenario, platform
//! flavour, policy, reallocation setting, seed, fraction). Cached records
//! are canonical JSON, so *the same spec always produces byte-identical
//! record files*, whether one process or a runner fleet drains it — the
//! integration tests pin this.

pub mod aggregate;
pub mod cache;
pub mod drain;
pub mod exec;
pub mod fleet;
pub mod plan;
pub mod spec;

pub use aggregate::{
    aggregate, aggregate_streamed, stats_index, stream_csv, CampaignResults, CellStats, MeanCi,
    SeedAggKey, SeedAggregate, StatsIndex, StreamAgg, Welford,
};
pub use cache::{GcReport, ResultCache, RunRecord};
pub use drain::{DrainSummary, RunFailure};
pub use exec::{execute, execute_plan, ExecOptions};
pub use fleet::{
    convergence_skips, fleet_status, heartbeat_file, run_fleet, Claim, ConvergenceTracker,
    Decision, FleetMetrics, FleetOptions, FleetStatus, LeaseDir, LeaseInfo, LeaseScan,
    RunnerHeartbeat, HEARTBEAT_INTERVAL_S, HEARTBEAT_STALE_S, RUNNER_SUBDIR,
};
pub use plan::{CampaignPlan, ReallocSetting, RunKind, RunUnit};
pub use spec::{CampaignSpec, Converge};

/// Version stamped into every cache descriptor: records written by a
/// different engine version are recomputed, not trusted.
pub const ENGINE_VERSION: &str = env!("CARGO_PKG_VERSION");
