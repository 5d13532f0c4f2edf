//! Technology parameters: access energies, leakage powers, cell technology.
//!
//! Absolute values are representative CACTI/McPAT-class numbers for a 32 nm
//! low-operating-power process at 330 K (the paper's Table 5.1 technology
//! point). Because every result in the paper is reported *normalised to the
//! full-SRAM baseline*, what matters is the set of ratios fixed by the
//! paper's Table 5.2, which this module encodes explicitly:
//!
//! * SRAM and eDRAM access time and access energy are equal,
//! * eDRAM leakage is one quarter of SRAM leakage,
//! * refreshing a line costs one line access worth of energy,
//! * a line is refreshed in one cycle (pipelined).

use std::fmt;

use refrint_engine::time::Freq;

/// The memory cell technology a cache hierarchy is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTech {
    /// Conventional 6T SRAM: no refresh, full leakage.
    Sram,
    /// Embedded DRAM (1T-1C): quarter leakage, needs refresh.
    Edram,
}

impl CellTech {
    /// Whether this technology requires refresh.
    #[must_use]
    pub const fn needs_refresh(self) -> bool {
        matches!(self, CellTech::Edram)
    }
}

impl fmt::Display for CellTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellTech::Sram => write!(f, "SRAM"),
            CellTech::Edram => write!(f, "eDRAM"),
        }
    }
}

/// Energy parameters of one cache structure (one L1, one L2, or one L3 bank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEnergyParams {
    /// Energy of one line access (read or write), in nanojoules.
    pub access_energy_nj: f64,
    /// Leakage power of the whole structure when built from SRAM, in watts.
    pub sram_leakage_w: f64,
    /// eDRAM leakage as a fraction of SRAM leakage (Table 5.2: 1/4).
    pub edram_leakage_ratio: f64,
}

impl CacheEnergyParams {
    /// Leakage power for the given cell technology, in watts.
    #[must_use]
    pub fn leakage_w(&self, tech: CellTech) -> f64 {
        match tech {
            CellTech::Sram => self.sram_leakage_w,
            CellTech::Edram => self.sram_leakage_w * self.edram_leakage_ratio,
        }
    }

    /// Refresh energy of one line, in nanojoules (equal to an access,
    /// Table 5.2).
    #[must_use]
    pub fn refresh_energy_nj(&self) -> f64 {
        self.access_energy_nj
    }
}

/// The full technology parameter set used by the energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyParams {
    /// One private instruction L1 (32 KB).
    pub il1: CacheEnergyParams,
    /// One private data L1 (32 KB).
    pub dl1: CacheEnergyParams,
    /// One private L2 (256 KB).
    pub l2: CacheEnergyParams,
    /// One shared L3 bank (1 MB).
    pub l3_bank: CacheEnergyParams,
    /// Energy of one off-chip DRAM line transfer, in nanojoules.
    pub dram_access_energy_nj: f64,
    /// Core dynamic energy per committed instruction, in nanojoules.
    pub core_energy_per_instr_nj: f64,
    /// Leakage power of one core (logic, not caches), in watts.
    pub core_leakage_w: f64,
    /// Network energy per flit-hop, in nanojoules.
    pub noc_energy_per_flit_hop_nj: f64,
    /// Leakage power of one router and its links, in watts.
    pub noc_leakage_w_per_node: f64,
    /// Clock frequency in hertz (converts cycles to seconds for leakage
    /// energy). Stored as a plain integer so the parameter set serialises.
    pub clock_hz: u64,
}

impl TechnologyParams {
    /// The clock frequency as a typed [`Freq`].
    #[must_use]
    pub fn clock(&self) -> Freq {
        Freq::hertz(self.clock_hz)
    }
}

impl TechnologyParams {
    /// Representative 32 nm LOP, 330 K, 1 GHz parameter set.
    ///
    /// The absolute values are CACTI-class estimates chosen so that the
    /// full-SRAM baseline exhibits the composition the paper reports
    /// (L3 ≈ 60 % of on-chip memory energy and dominated by leakage, L1
    /// dominated by dynamic energy); all results are normalised to that
    /// baseline, as in the paper.
    #[must_use]
    pub fn paper_default() -> Self {
        TechnologyParams {
            il1: CacheEnergyParams {
                access_energy_nj: 0.020,
                sram_leakage_w: 0.004,
                edram_leakage_ratio: 0.25,
            },
            dl1: CacheEnergyParams {
                access_energy_nj: 0.025,
                sram_leakage_w: 0.005,
                edram_leakage_ratio: 0.25,
            },
            l2: CacheEnergyParams {
                access_energy_nj: 0.060,
                sram_leakage_w: 0.060,
                edram_leakage_ratio: 0.25,
            },
            l3_bank: CacheEnergyParams {
                access_energy_nj: 0.150,
                sram_leakage_w: 0.300,
                edram_leakage_ratio: 0.25,
            },
            dram_access_energy_nj: 3.0,
            core_energy_per_instr_nj: 0.030,
            core_leakage_w: 0.100,
            noc_energy_per_flit_hop_nj: 0.010,
            noc_leakage_w_per_node: 0.008,
            clock_hz: 1_000_000_000,
        }
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edram_leaks_a_quarter_of_sram() {
        let p = TechnologyParams::paper_default();
        for c in [p.il1, p.dl1, p.l2, p.l3_bank] {
            assert!(
                (c.leakage_w(CellTech::Edram) - 0.25 * c.leakage_w(CellTech::Sram)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn refresh_energy_equals_access_energy() {
        let p = TechnologyParams::paper_default();
        assert_eq!(p.l3_bank.refresh_energy_nj(), p.l3_bank.access_energy_nj);
        assert_eq!(p.l2.refresh_energy_nj(), p.l2.access_energy_nj);
    }

    #[test]
    fn cell_tech_properties() {
        assert!(CellTech::Edram.needs_refresh());
        assert!(!CellTech::Sram.needs_refresh());
        assert_eq!(CellTech::Sram.to_string(), "SRAM");
        assert_eq!(CellTech::Edram.to_string(), "eDRAM");
    }

    #[test]
    fn l3_dominates_memory_leakage() {
        // The paper's observation that the L3 consumes the majority of the
        // on-chip memory energy hinges on its leakage dominating.
        let p = TechnologyParams::paper_default();
        let tiles = (p.il1.sram_leakage_w + p.dl1.sram_leakage_w + p.l2.sram_leakage_w) * 16.0;
        let l3 = p.l3_bank.sram_leakage_w * 16.0;
        let total = tiles + l3;
        assert!(l3 / total > 0.5, "L3 share is {}", l3 / total);
        assert!(total > 0.0);
    }

    #[test]
    fn l1_access_energy_is_smallest() {
        let p = TechnologyParams::paper_default();
        assert!(p.il1.access_energy_nj < p.l2.access_energy_nj);
        assert!(p.l2.access_energy_nj < p.l3_bank.access_energy_nj);
        assert!(p.l3_bank.access_energy_nj < p.dram_access_energy_nj);
    }

    #[test]
    fn default_matches_paper_default() {
        assert_eq!(
            TechnologyParams::default(),
            TechnologyParams::paper_default()
        );
    }

    #[test]
    fn params_are_plain_copyable_values() {
        fn assert_value<T: Copy + Send + Sync + 'static>() {}
        assert_value::<TechnologyParams>();
        assert_value::<CacheEnergyParams>();
        assert_value::<CellTech>();
    }
}
