//! Technology parameters and energy accounting for the Refrint reproduction.
//!
//! The paper obtains timing/energy numbers from McPAT and CACTI and then
//! pins down the ratios that actually matter for the study in its Table 5.2:
//! SRAM and eDRAM have the same access time and access energy, eDRAM leaks a
//! quarter of what SRAM leaks, a refresh costs one line access, and a line
//! can be refreshed in a cycle. This crate encodes those relationships:
//!
//! * [`tech`] — per-structure access energies and leakage powers
//!   (representative CACTI-class values at 32 nm LOP, 330 K), the
//!   SRAM/eDRAM cell technology switch, and core / NoC / DRAM parameters.
//! * [`accounting`] — raw event counts gathered during simulation
//!   (accesses, refreshes, DRAM transactions, instructions, flit-hops,
//!   cycles).
//! * [`breakdown`] — turns counts + parameters into joules, split the two
//!   ways the paper reports them: by structure (L1/L2/L3/DRAM, Fig. 6.1) and
//!   by component (dynamic/leakage/refresh/DRAM, Fig. 6.2), plus total
//!   system energy (Fig. 6.3).
//! * [`report`] — normalisation against a baseline and text/CSV rendering of
//!   figure-shaped tables.
//!
//! # Example
//!
//! ```
//! use refrint_energy::tech::{CellTech, TechnologyParams};
//! use refrint_energy::accounting::EnergyCounts;
//! use refrint_energy::breakdown::EnergyBreakdown;
//!
//! let params = TechnologyParams::paper_default();
//! let mut counts = EnergyCounts::default();
//! counts.l3_accesses = 1_000_000;
//! counts.cycles = 2_000_000;
//! let sram = EnergyBreakdown::compute(&params, CellTech::Sram, &counts);
//! let edram = EnergyBreakdown::compute(&params, CellTech::Edram, &counts);
//! assert!(edram.on_chip_leakage() < sram.on_chip_leakage());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accounting;
pub mod breakdown;
pub mod report;
pub mod tech;

pub use accounting::EnergyCounts;
pub use breakdown::EnergyBreakdown;
pub use report::{NormalizedSeries, StackedBar};
pub use tech::{CacheEnergyParams, CellTech, TechnologyParams};
