//! eDRAM retention and intelligent-refresh policies — the paper's core
//! contribution.
//!
//! A full-eDRAM cache hierarchy must refresh every line once per retention
//! period or lose its contents. The paper proposes *Refrint*: a per-line
//! Sentry bit that decays slightly earlier than the line and interrupts the
//! cache controller exactly when a refresh is needed, combined with
//! *data policies* that decide whether a line is worth refreshing at all
//! (Table 3.1):
//!
//! | Time policy | When are refresh opportunities? |
//! |---|---|
//! | `Periodic` | At fixed period boundaries, a group of lines at a time |
//! | `Refrint`  | When the line's Sentry bit decays (one retention after its last touch, minus a safety margin) |
//!
//! | Data policy | What happens at an opportunity? |
//! |---|---|
//! | `All`   | refresh unconditionally (even invalid lines) |
//! | `Valid` | refresh valid lines, do nothing for invalid ones |
//! | `Dirty` | refresh dirty lines; invalidate valid-clean lines |
//! | `WB(n,m)` | refresh a dirty line `n` times, then write it back; refresh a clean line `m` times, then invalidate it |
//!
//! Module map:
//!
//! * [`retention`] — retention periods, temperature scaling, sentry margins.
//! * [`policy`] — the time/data policy types, parsing and the 42-point sweep.
//! * [`model`] — the open [`RefreshPolicyModel`] trait behind all policies,
//!   plus [`PolicyFactory`] and the label [`PolicyRegistry`] through which
//!   custom user policies plug into the simulator and the sweep runner.
//! * [`schedule`] — the *lazy decay-schedule algebra*: everything that
//!   happens to an untouched line between two touches is deterministic, so
//!   refresh counts, write-back times and invalidation times are computed in
//!   O(1) when the line is next touched (or at end of simulation).
//! * [`sentry`] — sentry-bit grouping and the priority-encoder service model.
//! * [`controller`] — periodic group-burst blocking and Refrint interrupt
//!   contention, the two execution-time costs of refreshing.
//!
//! # Example
//!
//! ```
//! use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
//! use refrint_edram::retention::RetentionConfig;
//! use refrint_edram::schedule::{DecaySchedule, LineKind};
//! use refrint_engine::time::Cycle;
//!
//! let policy = RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::write_back(4, 4));
//! let retention = RetentionConfig::microseconds_50();
//! let schedule = DecaySchedule::new(policy, retention.line_retention_cycles(), Cycle::new(1_000), Cycle::ZERO);
//! // A dirty line touched at cycle 0 and never touched again is written back
//! // after 5 opportunities and invalidated after 10.
//! let s = schedule.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(10_000_000));
//! assert!(s.writeback_at.is_some());
//! assert!(s.invalidated_at.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod error;
pub mod model;
pub mod policy;
pub mod retention;
pub mod schedule;
pub mod sentry;
pub mod variation;

pub use controller::{PeriodicBurstModel, RefrintContention};
pub use error::EdramError;
pub use model::{PolicyBinding, PolicyFactory, PolicyRegistry, RefreshAction, RefreshPolicyModel};
pub use policy::{DataPolicy, RefreshPolicy, TimePolicy};
pub use retention::RetentionConfig;
pub use schedule::{DecaySchedule, LineKind, Settlement};
pub use sentry::SentryGroupConfig;
pub use variation::RetentionProfile;
