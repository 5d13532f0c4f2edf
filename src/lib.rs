//! `refrint-suite`: workspace-level examples and integration tests for the
//! Refrint reproduction.
//!
//! This crate re-exports the workspace crates so the examples under
//! `examples/` and the integration tests under `tests/` can use the whole
//! stack through a single dependency.
//!
//! # The API in one minute
//!
//! Everything starts at [`refrint::simulation::Simulation::builder`]:
//!
//! ```
//! use refrint_suite::refrint::prelude::*;
//!
//! let mut simulation = Simulation::builder()
//!     .edram_recommended()          // preset: Refrint WB(32,32) at 50 us
//!     .cores(2)                     // shrink the chip for this doctest
//!     .refs_per_thread(1_000)       // scale the workload
//!     .build()                      // typed BuildError on misconfiguration
//!     .unwrap();
//! let outcome = simulation.run(AppPreset::Lu);
//! assert!(outcome.execution_cycles() > 0);
//! ```
//!
//! Sweeps shard across worker threads with a deterministic merge:
//!
//! ```no_run
//! use refrint_suite::refrint::experiment::ExperimentConfig;
//! use refrint_suite::refrint::sweep::SweepRunner;
//!
//! let results = SweepRunner::new(ExperimentConfig::quick())
//!     .workers(8)
//!     .observer(|p: &refrint_suite::refrint::sweep::SweepProgress| {
//!         eprintln!("[{}/{}] {}", p.completed, p.total, p.config_label);
//!     })
//!     .run()
//!     .unwrap();
//! assert!(!results.sram.is_empty());
//! ```
//!
//! Every eDRAM cache runs a [`refrint_edram::policy::RefreshPolicy`]: a
//! time policy (Periodic or Refrint) times a data policy (all, valid,
//! dirty, WB(n,m)), settled in closed form by its
//! [`refrint_edram::schedule::DecaySchedule`].
//!
//! See the individual crates for the real functionality:
//!
//! * [`refrint`] — the CMP simulator, `Simulation` builder, parallel sweep
//!   runner and figure generators.
//! * [`refrint_edram`] — retention, sentry bits and the refresh policies.
//! * [`refrint_mem`] / [`refrint_coherence`] / [`refrint_noc`] — the cache,
//!   coherence and interconnect substrates.
//! * [`refrint_energy`] — technology parameters and energy accounting.
//! * [`refrint_workloads`] — synthetic application models and classification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use refrint;
pub use refrint_coherence;
pub use refrint_edram;
pub use refrint_energy;
pub use refrint_engine;
pub use refrint_mem;
pub use refrint_noc;
pub use refrint_workloads;

/// The version of the reproduction suite.
#[must_use]
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::version().is_empty());
    }
}
