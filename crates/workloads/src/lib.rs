//! Synthetic multi-threaded workloads for the Refrint reproduction.
//!
//! The paper evaluates 16-threaded SPLASH-2 and PARSEC applications
//! (Table 5.3) and then observes that, for refresh purposes, what matters is
//! only where an application sits on two axes (Figure 3.1):
//!
//! 1. **Footprint** relative to the last-level cache — large-footprint
//!    applications have long reuse distances, so idle lines can safely be
//!    discarded;
//! 2. **Visibility** of upper-level activity at the L3 — applications whose
//!    working set lives in the L1/L2 and is not shared give the L3 no signal
//!    that the data is still alive.
//!
//! Because the original binaries and their traces are not available in this
//! environment, this crate generates deterministic synthetic address streams
//! that are *parameterised directly on those two axes* (plus write fraction,
//! sharing degree and compute intensity), and provides one preset per paper
//! application with parameters chosen to land it in the class the paper
//! reports (Table 6.1); `gen-figures --table 6.1` prints the classes they
//! land in.
//!
//! * [`model`] — the tunable parameters of a synthetic application.
//! * [`trace`] — the memory-reference record and per-thread stream iterator.
//! * [`generator`] — the deterministic address-stream generator.
//! * [`apps`] — the 11 named presets and their expected classes.
//! * [`classify`] — footprint/visibility measurement and Class 1/2/3 binning
//!   (Table 6.1).
//!
//! # Example
//!
//! ```
//! use refrint_workloads::apps::AppPreset;
//! use refrint_workloads::generator::ThreadStream;
//!
//! let model = AppPreset::Fft.model();
//! let mut stream = ThreadStream::new(&model, 0, 42);
//! let first = stream.next().unwrap();
//! assert!(first.gap_cycles <= model.max_gap_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod classify;
pub mod error;
pub mod generator;
pub mod model;
pub mod trace;

pub use apps::AppPreset;
pub use classify::{AppClass, ClassificationReport};
pub use error::WorkloadError;
pub use generator::ThreadStream;
pub use model::WorkloadModel;
pub use trace::{AccessKind, MemRef};
