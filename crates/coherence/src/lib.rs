//! Directory coherence protocols (MESI and Dragon) for the Refrint
//! reproduction.
//!
//! The paper employs a directory MESI protocol with the directory maintained
//! at the shared, inclusive L3 (Chapter 5); an update-based Dragon variant
//! is provided behind the same directory abstraction as an experiment axis.
//! This crate provides the protocol-level pieces:
//!
//! * [`directory`] — per-line directory entries (owner / sharer bit-vector)
//!   and [`DirectoryArray`], the packed per-way entries each L3 bank keeps
//!   beside its cache array, so the directory lives in the L3 ways. (The
//!   sparse [`Directory`] map is kept only for perfbench's ledger.)
//! * [`protocol`] — the transaction-level transition logic: given a request
//!   (read / write / eviction / write-back) and the line's directory entry,
//!   [`protocol::CoherenceEngine`] updates the entry and computes the set of
//!   caches to invalidate, downgrade, or update, and the messages that must
//!   cross the network. The engine runs MESI or Dragon, chosen at
//!   construction time.
//!
//! The protocol is evaluated *transactionally*: the CMP simulator resolves an
//! entire request in one call and derives its latency from the message
//! descriptors returned, which is the usual approach in one-outstanding-miss
//! timing models. The state machines nevertheless enforce the MESI
//! invariants (single writer, inclusive sharers) and are property-tested.
//!
//! # Example
//!
//! ```
//! use refrint_coherence::{CoherenceEngine, CoherenceProtocol, CoreRequest, DirectoryEntry};
//! use refrint_mem::line::MesiState;
//!
//! let mut engine = CoherenceEngine::new(CoherenceProtocol::Mesi, 16);
//! let mut entry = DirectoryEntry::Uncached;
//! let outcome = engine.resolve(&mut entry, 0, CoreRequest::Read);
//! assert_eq!(outcome.fill_state, MesiState::Exclusive);
//! assert_eq!(entry, DirectoryEntry::Owned { owner: 0 });
//! // A second reader downgrades the owner; both tiles end up sharers.
//! let outcome = engine.resolve(&mut entry, 1, CoreRequest::Read);
//! assert_eq!(outcome.downgrade_owner, Some(0));
//! assert_eq!(entry.holders().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod directory;
pub mod protocol;

pub use directory::{Directory, DirectoryArray, DirectoryEntry, SharerSet};
pub use protocol::{AccessOutcome, CoherenceEngine, CoherenceProtocol, CoreRequest};
