//! Raw event counts gathered during a simulation run.

use std::ops::{Add, AddAssign};

/// Every countable event the energy model needs, accumulated over one run.
///
/// Counts are chip-wide (summed over all 16 cores / banks). The breakdown
/// module converts them to joules using [`crate::tech::TechnologyParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyCounts {
    /// Committed instructions across all cores.
    pub instructions: u64,
    /// Execution time of the run, in cycles.
    pub cycles: u64,

    /// Accesses to instruction L1 caches.
    pub il1_accesses: u64,
    /// Accesses to data L1 caches.
    pub dl1_accesses: u64,
    /// Accesses to private L2 caches.
    pub l2_accesses: u64,
    /// Accesses to shared L3 banks.
    pub l3_accesses: u64,

    /// Line refreshes performed in L1 caches (instruction + data).
    pub l1_refreshes: u64,
    /// Line refreshes performed in L2 caches.
    pub l2_refreshes: u64,
    /// Line refreshes performed in L3 banks.
    pub l3_refreshes: u64,

    /// DRAM line reads (LLC misses).
    pub dram_reads: u64,
    /// DRAM line writes (write-backs, including the end-of-run flush).
    pub dram_writes: u64,

    /// Network flit-hops (all message classes).
    pub noc_flit_hops: u64,
}

impl EnergyCounts {
    /// An empty set of counts.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total DRAM transactions.
    #[must_use]
    pub const fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// Total refreshes across the hierarchy.
    #[must_use]
    pub const fn total_refreshes(&self) -> u64 {
        self.l1_refreshes + self.l2_refreshes + self.l3_refreshes
    }
}

impl Add for EnergyCounts {
    type Output = EnergyCounts;
    fn add(self, rhs: EnergyCounts) -> EnergyCounts {
        EnergyCounts {
            instructions: self.instructions + rhs.instructions,
            cycles: self.cycles + rhs.cycles,
            il1_accesses: self.il1_accesses + rhs.il1_accesses,
            dl1_accesses: self.dl1_accesses + rhs.dl1_accesses,
            l2_accesses: self.l2_accesses + rhs.l2_accesses,
            l3_accesses: self.l3_accesses + rhs.l3_accesses,
            l1_refreshes: self.l1_refreshes + rhs.l1_refreshes,
            l2_refreshes: self.l2_refreshes + rhs.l2_refreshes,
            l3_refreshes: self.l3_refreshes + rhs.l3_refreshes,
            dram_reads: self.dram_reads + rhs.dram_reads,
            dram_writes: self.dram_writes + rhs.dram_writes,
            noc_flit_hops: self.noc_flit_hops + rhs.noc_flit_hops,
        }
    }
}

impl AddAssign for EnergyCounts {
    fn add_assign(&mut self, rhs: EnergyCounts) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_totals() {
        let c = EnergyCounts {
            il1_accesses: 10,
            dl1_accesses: 5,
            dram_reads: 3,
            dram_writes: 4,
            l1_refreshes: 1,
            l2_refreshes: 2,
            l3_refreshes: 3,
            ..EnergyCounts::default()
        };
        assert_eq!(c.dram_accesses(), 7);
        assert_eq!(c.total_refreshes(), 6);
    }

    #[test]
    fn addition_is_fieldwise() {
        let mut a = EnergyCounts {
            instructions: 1,
            cycles: 2,
            l3_accesses: 3,
            noc_flit_hops: 4,
            ..EnergyCounts::default()
        };
        let b = EnergyCounts {
            instructions: 10,
            cycles: 20,
            l3_accesses: 30,
            noc_flit_hops: 40,
            ..EnergyCounts::default()
        };
        let sum = a + b;
        assert_eq!(sum.instructions, 11);
        assert_eq!(sum.cycles, 22);
        assert_eq!(sum.l3_accesses, 33);
        assert_eq!(sum.noc_flit_hops, 44);
        a += b;
        assert_eq!(a, sum);
    }

    #[test]
    fn default_is_all_zero() {
        let c = EnergyCounts::new();
        assert_eq!(c.total_refreshes(), 0);
        assert_eq!(c.dram_accesses(), 0);
        assert_eq!(c, EnergyCounts::default());
    }
}
