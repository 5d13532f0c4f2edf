//! Directory coherence protocols (MESI and Dragon) for the Refrint
//! reproduction.
//!
//! The paper employs a directory MESI protocol with the directory maintained
//! at the shared, inclusive L3 (Chapter 5); an update-based Dragon variant
//! is provided behind the same directory abstraction as an experiment axis.
//! This crate provides the protocol-level pieces:
//!
//! * [`directory`] — per-line directory entries (owner / sharer bit-vector)
//!   and the directory array kept alongside each L3 bank.
//! * [`protocol`] — the transaction-level transition logic: given a request
//!   (read / write / eviction / write-back) and the current directory entry,
//!   it computes the new states, the set of caches to invalidate, downgrade,
//!   or update, and the messages that must cross the network. The
//!   [`protocol::CoherenceEngine`] enum selects MESI or Dragon at
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
//! use refrint_coherence::directory::Directory;
//! use refrint_coherence::protocol::{DirectoryProtocol, CoreRequest};
//! use refrint_mem::addr::LineAddr;
//!
//! let mut dir = Directory::new(16);
//! let mut proto = DirectoryProtocol::new(16);
//! let line = LineAddr::new(0x100);
//! let outcome = proto.access(&mut dir, line, 0, CoreRequest::Read);
//! assert!(outcome.fills_requester);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod directory;
pub mod error;
pub mod protocol;

pub use directory::{Directory, DirectoryEntry, SharerSet};
pub use error::CoherenceError;
pub use protocol::{
    AccessOutcome, CoherenceEngine, CoherenceProtocol, CoreRequest, DirectoryProtocol,
    DragonProtocol,
};
