//! Refrint: intelligent refresh for full-eDRAM multiprocessor cache
//! hierarchies.
//!
//! This crate is the top of the workspace: it assembles the substrates
//! (caches, directory MESI coherence, torus NoC, eDRAM refresh policies,
//! energy model, synthetic workloads) into the 16-core chip multiprocessor of
//! the paper's Table 5.1, runs 16-threaded workloads through it, and
//! regenerates the paper's evaluation artefacts.
//!
//! # Architecture
//!
//! ```text
//!  core 0..15 ──► private DL1 (WT) ──► private L2 (WB) ──┐
//!                                                        │  4x4 torus
//!                  shared L3, 16 banks, directory MESI ◄─┘
//!                                │
//!                              DRAM
//! ```
//!
//! Every cache can be built from SRAM (baseline: no refresh, full leakage) or
//! eDRAM (quarter leakage, needs refresh). For eDRAM, the refresh behaviour
//! is governed by a [`refrint_edram::policy::RefreshPolicy`]: `Periodic` or
//! `Refrint` timing combined with `All` / `Valid` / `Dirty` / `WB(n,m)` data
//! policies. The L1/L2 always run the `Valid` data policy, as in the paper's
//! evaluation (Section 6.2); the swept data policy applies to the L3.
//!
//! # Quickstart
//!
//! All entry points go through [`Simulation::builder`]: pick a preset,
//! layer overrides, `build()` (typed validation errors), `run()`:
//!
//! ```
//! use refrint::prelude::*;
//!
//! // A deliberately small run so the doctest is fast.
//! let mut simulation = Simulation::builder()
//!     .edram_recommended()
//!     .refs_per_thread(2_000)
//!     .build()
//!     .unwrap();
//! let outcome = simulation.run(AppPreset::Blackscholes);
//! assert!(outcome.execution_cycles() > 0);
//! assert!(outcome.breakdown().memory_total() > 0.0);
//! ```
//!
//! The L3 policy is always a [`refrint_edram::policy::RefreshPolicy`],
//! set with [`SimulationBuilder::policy`] or parsed from its label with
//! [`SimulationBuilder::policy_label`]; its closed-form
//! [`refrint_edram::schedule::DecaySchedule`] drives every eDRAM cache, and
//! the `refrint-oracle` crate checks it against an independent replay.
//!
//! The [`experiment`] module describes the paper's 42 + 1 configuration
//! sweep (Table 5.4); the [`sweep`] module runs it across worker threads
//! ([`SweepRunner`]) with [`ProgressObserver`] streaming and a merge that is
//! deterministic for every worker count; and the [`figures`] module turns
//! sweep results into the rows of Figures 6.1–6.4 and Table 6.1.
//!
//! # Trace capture & replay
//!
//! Any workload can be recorded to a compact trace file
//! ([`Simulation::capture`], crate `refrint-trace`) and replayed
//! bit-for-bit — the replayed [`SimReport`] is identical to the live
//! run's — through [`SimulationBuilder::trace`] + [`Simulation::replay`],
//! on this machine or another. Traces also join sweeps alongside the
//! presets via [`ExperimentConfig`]'s `traces` ([`TraceSpec`]); see the
//! [`replay`] module for the glue and `refrint-trace` for the format
//! specification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anomaly;
pub mod config;
pub mod cpu;
pub mod error;
pub mod experiment;
pub mod figures;
pub mod hierarchy;
pub mod json;
pub mod replay;
pub mod report;
pub mod simulation;
pub mod sweep;
pub mod system;

pub use anomaly::SweepAnomaly;
pub use config::SystemConfig;
pub use error::RefrintError;
pub use experiment::{ExperimentConfig, SweepResults, TraceSpec};
pub use refrint_coherence::protocol::CoherenceProtocol;
pub use refrint_edram::variation::RetentionProfile;
pub use report::SimReport;
pub use simulation::{
    BuildError, ObsConfig, ObsSummary, RelativeMetrics, RunOutcome, RunSpec, Simulation,
    SimulationBuilder,
};
pub use sweep::{ProgressObserver, SweepProgress, SweepRunner};
pub use system::CmpSystem;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::experiment::{ExperimentConfig, SweepResults, TraceSpec};
    pub use crate::report::SimReport;
    pub use crate::simulation::{BuildError, RunOutcome, Simulation, SimulationBuilder};
    pub use crate::sweep::{ProgressObserver, SweepProgress, SweepRunner};
    pub use crate::system::CmpSystem;
    pub use refrint_coherence::protocol::CoherenceProtocol;
    pub use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
    pub use refrint_edram::retention::RetentionConfig;
    pub use refrint_edram::schedule::LineKind;
    pub use refrint_edram::variation::RetentionProfile;
    pub use refrint_energy::tech::CellTech;
    pub use refrint_trace::{TraceError, TraceFile, TraceMeta, TraceSummary};
    pub use refrint_workloads::apps::AppPreset;
    pub use refrint_workloads::classify::AppClass;
}
