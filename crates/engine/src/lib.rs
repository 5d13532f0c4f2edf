//! Discrete-event simulation kernel for the Refrint reproduction.
//!
//! This crate provides the foundational building blocks shared by every other
//! crate in the workspace:
//!
//! * [`time`] — strongly-typed cycles, durations and frequencies. The whole
//!   simulator operates in processor cycles at a configurable frequency
//!   (1 GHz in the paper's configuration, so one cycle is one nanosecond).
//! * [`event`] — a deterministic, time-bucketed event queue that pops in
//!   `(cycle, insertion)` order.
//! * [`stats`] — counters, histograms and a registry used to collect
//!   simulation statistics in a uniform way.
//! * [`rng`] — a deterministic, seedable random-number facade so that every
//!   simulation run is exactly reproducible.
//! * [`json`] — dependency-free JSON escaping, rendering helpers and a
//!   typed-error parser shared by every crate that emits or reads the
//!   suite's machine-readable documents.
//! * [`hash`] — FNV-1a, the deterministic hash behind ids, cache file
//!   names and output digests.
//!
//! # Example
//!
//! ```
//! use refrint_engine::time::{Cycle, Freq, SimDuration};
//!
//! let f = Freq::gigahertz(1);
//! // 50 microseconds of retention time is 50,000 cycles at 1 GHz.
//! assert_eq!(f.cycles_in(SimDuration::from_micros(50)), Cycle::new(50_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod hash;
pub mod json;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use hash::fnv1a;
pub use rng::DeterministicRng;
pub use stats::{Counter, Histogram, StatRegistry};
pub use time::{Cycle, Freq, SimDuration};
