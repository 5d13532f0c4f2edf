//! Cache substrate for the Refrint reproduction.
//!
//! This crate provides the memory-system building blocks that the CMP
//! simulator (`refrint` crate) assembles into the three-level hierarchy of
//! the paper's Table 5.1:
//!
//! * [`addr`] — physical addresses, line addresses, and the static
//!   address-to-bank mapping used by the shared L3.
//! * [`line`](mod@line) — per-line coherence/validity state and the
//!   last-touch cycle the eDRAM refresh policies settle from.
//! * [`replacement`] — the per-set true-LRU order.
//! * [`set`] / [`cache`] — set-associative arrays with configurable geometry.
//! * [`config`] — cache geometry and latency configuration (paper Table 5.1).
//! * [`dram`] — the off-chip DRAM model (fixed 40 ns access in the paper).
//!
//! # Example
//!
//! ```
//! use refrint_mem::addr::Addr;
//! use refrint_mem::cache::Cache;
//! use refrint_mem::config::CacheGeometry;
//! use refrint_engine::time::Cycle;
//!
//! let geom = CacheGeometry::new(32 * 1024, 4, 64).unwrap();
//! let mut l1 = Cache::new("dl1", geom);
//! let addr = Addr::new(0x1000);
//! assert!(l1.lookup(addr.line(64), Cycle::ZERO).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod dram;
pub mod error;
pub mod line;
pub mod replacement;
pub mod set;

pub use addr::{Addr, LineAddr};
pub use cache::{Cache, EvictedLine, LookupOutcome};
pub use config::{CacheGeometry, CacheLevelConfig};
pub use dram::DramModel;
pub use error::MemError;
pub use line::{CacheLine, LineMeta, MesiState};
