//! Torus network-on-chip model for the Refrint reproduction.
//!
//! The paper's 16 cores are connected by a 4×4 torus; each L3 bank sits at a
//! vertex of the torus and addresses are statically mapped to banks
//! (Chapter 5). This crate models:
//!
//! * [`topology`] — k-ary 2-cube (torus) coordinates and node identifiers,
//! * [`routing`] — dimension-ordered routing with wraparound links and the
//!   resulting hop counts,
//! * [`latency`] — per-hop router/link latency and message serialisation into
//!   flits.
//!
//! # Example
//!
//! ```
//! use refrint_noc::topology::Torus;
//! use refrint_noc::routing::hop_count;
//!
//! let torus = Torus::new(4, 4).unwrap();
//! // Opposite corners of a 4x4 torus are only 1+1 hops apart thanks to wraparound.
//! let a = torus.node(0, 0).unwrap();
//! let b = torus.node(3, 3).unwrap();
//! assert_eq!(hop_count(&torus, a, b), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod latency;
pub mod routing;
pub mod topology;

pub use error::NocError;
pub use latency::LinkParams;
pub use routing::{hop_count, route};
pub use topology::{NodeId, Torus};
