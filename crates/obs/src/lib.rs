//! Span-based observability for the Refrint simulator.
//!
//! The paper's whole argument is an accounting argument — where do refresh
//! energy and cycles actually go across the cache hierarchy — and this crate
//! supplies the attribution layer: a cheap structured span/event recorder
//! that the simulator threads through its access path, plus the analytics
//! that turn sweeps into anomaly reports.
//!
//! Six pieces, all pure `std` like the rest of the workspace:
//!
//! * [`span`] — the [`Span`] record, the
//!   [`Subsystem`] taxonomy (cache / coherence / refresh /
//!   NoC / DRAM) and a fixed-size overwriting ring buffer;
//! * [`recorder`] — the [`Recorder`] the simulator owns:
//!   exact simulated-cycle attribution per subsystem, sampled host wall-time
//!   attribution, and a sampled span ring, summarised into an
//!   [`ObsSummary`];
//! * [`otlp`] — renders a summary as an OTLP-shaped JSON document through
//!   the shared `refrint_engine::json` emitter, including the per-request
//!   span-tree documents `refrint-serve` exposes at `GET /jobs/<id>/trace`;
//! * [`anomaly`] — robust z-scores (median/MAD) and a neighbourhood-slice
//!   outlier detector for sweep results, with validated tunables
//!   ([`anomaly::AnomalyTuning`]);
//! * [`critical_path`] — reduces a span tree to the chain that bounds it:
//!   the subsystem bounding a run's `execution_cycles`, the lifecycle
//!   stage bounding a request's wall latency, or — for a coordinator —
//!   whether a fanned-out request was bound by queueing, the network, or
//!   a straggler backend's sim time;
//! * [`log`] — a tiny levelled JSON/text line logger so serve-layer events
//!   carry the trace id of the request that caused them.
//!
//! The hard invariant is that instrumentation **observes without
//! perturbing**: a recorder never touches simulated state, so reports are
//! byte-identical with spans on or off (pinned by
//! `tests/hot_path_determinism.rs` at the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod critical_path;
pub mod log;
pub mod otlp;
pub mod recorder;
pub mod span;

pub use critical_path::{fleet_critical_path, CriticalPath, FleetPoint, PathStep};
pub use log::{Level, LogFormat, Logger};
pub use recorder::{ObsConfig, ObsSummary, Recorder, SubsystemTotals};
pub use span::{DispatchSpan, RequestTrace, Span, SpanRing, StageSpan, Subsystem, TraceContext};
