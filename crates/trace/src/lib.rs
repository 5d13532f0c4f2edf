//! Trace capture & replay for the Refrint reproduction.
//!
//! The workloads crate synthesizes reference streams from statistical
//! presets; this crate records those streams (or any other source of
//! [`MemRef`]s) to a file and replays them later, so a workload can be
//! shared between machines, archived next to its results, or replayed
//! bit-for-bit through a different system configuration. Both the writer
//! and the reader are streaming: no path through this crate ever holds a
//! whole trace in memory (the writer buffers at most one thread block).
//!
//! # Format (version 1)
//!
//! All multi-byte integers are little-endian; `varint` is LEB128 (7 payload
//! bits per byte, high bit = continuation, at most 10 bytes).
//!
//! ```text
//! header:
//!   magic      4 bytes   b"RFRT"
//!   version    u16 LE    1
//!   flags      u8        0 (reserved)
//!   seed       u64 LE    workload seed the trace was captured with
//!                        (provenance only; replay does not use it)
//!   threads    varint    number of per-thread record blocks
//!   name_len   varint    byte length of the workload name
//!   name       bytes     UTF-8 workload name
//!
//! then exactly `threads` thread blocks, one per thread id (any order,
//! each id exactly once):
//!   thread_id  varint
//!   body_len   varint    byte length of the records + terminator below
//!   records:   per reference, two varints:
//!     tag      varint    ((gap_cycles << 1) | is_write) + 1
//!     delta    varint    zigzag(addr - previous addr in this thread),
//!                        where the previous address starts at 0
//!   term       varint    0 (end of this thread's records)
//! ```
//!
//! The `+1` on the tag makes `0` an unambiguous terminator, so records
//! need no per-record framing byte; `gap_cycles` must therefore be below
//! `2^62`, which every realistic gap is. Delta-encoding addresses makes
//! sequential runs (the common case for the synthetic workloads) cost two
//! bytes per reference.
//!
//! # Errors
//!
//! Malformed input never panics: every failure is a typed [`TraceError`]
//! carrying the byte offset of the offending data ([`TraceError::BadMagic`],
//! [`TraceError::UnsupportedVersion`], [`TraceError::Truncated`],
//! [`TraceError::Corrupt`], ...).
//!
//! # Example
//!
//! ```
//! use refrint_trace::{capture_model, TraceFile, TraceMeta, TraceWriter};
//! use refrint_workloads::apps::AppPreset;
//!
//! let model = AppPreset::Lu.model().with_threads(2).with_refs_per_thread(100);
//! let meta = TraceMeta::new(&model.name, model.threads, 42);
//! let mut writer = TraceWriter::new(Vec::new(), &meta).unwrap();
//! capture_model(&model, 42, &mut writer).unwrap();
//! let trace = TraceFile::from_bytes(writer.into_inner().unwrap()).unwrap();
//! assert_eq!(trace.meta().threads, 2);
//! let first = trace.thread(0).unwrap().next().unwrap().unwrap();
//! assert!(first.gap_cycles <= model.max_gap_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capture;
pub mod error;
pub mod format;
pub mod reader;
pub mod summary;
pub mod writer;

pub use capture::capture_model;
pub use error::TraceError;
pub use format::{TraceMeta, FORMAT_VERSION};
pub use reader::{ThreadRefs, TraceFile};
pub use summary::TraceSummary;
pub use writer::TraceWriter;

// Re-exported so trace consumers need not depend on refrint-workloads
// directly for the record type.
pub use refrint_workloads::trace::{AccessKind, MemRef};
