//! Cache geometry and per-level configuration.
//!
//! Defaults follow the paper's Table 5.1: 32 KB 2-way IL1 and 32 KB 4-way
//! DL1 (write-through) at 1 ns, 256 KB 8-way write-back private L2 at 2 ns,
//! and a shared L3 of sixteen 1 MB 8-way banks at 4 ns, all with 64-byte
//! lines, backed by a 40 ns DRAM.

use std::fmt;

use refrint_engine::time::Cycle;

use crate::error::MemError;

/// Which level of the hierarchy a cache belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Private instruction L1.
    L1I,
    /// Private data L1 (write-through in the paper).
    L1D,
    /// Private unified L2 (write-back).
    L2,
    /// Shared, banked L3 (write-back, holds the directory).
    L3,
}

impl CacheLevel {
    /// All levels, in order from closest to the core outward.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::L1I,
        CacheLevel::L1D,
        CacheLevel::L2,
        CacheLevel::L3,
    ];

    /// Short lowercase label used in statistics and reports.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CacheLevel::L1I => "il1",
            CacheLevel::L1D => "dl1",
            CacheLevel::L2 => "l2",
            CacheLevel::L3 => "l3",
        }
    }

    /// Whether this is one of the two L1 caches.
    #[must_use]
    pub const fn is_l1(self) -> bool {
        matches!(self, CacheLevel::L1I | CacheLevel::L1D)
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The write policy of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Writes propagate to the next level immediately; lines are never dirty.
    WriteThrough,
    /// Writes dirty the local copy; data moves on eviction or write-back.
    #[default]
    WriteBack,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteThrough => write!(f, "WT"),
            WritePolicy::WriteBack => write!(f, "WB"),
        }
    }
}

/// Pure geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u8,
    line_size: u64,
}

impl CacheGeometry {
    /// Creates a geometry from total capacity, associativity and line size.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidGeometry`] if any parameter is zero, if the
    /// line size or resulting set count is not a power of two, or if the
    /// capacity is not divisible by `ways * line_size`.
    pub fn new(size_bytes: u64, ways: u8, line_size: u64) -> Result<Self, MemError> {
        if size_bytes == 0 || ways == 0 || line_size == 0 {
            return Err(MemError::InvalidGeometry {
                reason: "size, ways and line size must be non-zero".to_owned(),
            });
        }
        if !line_size.is_power_of_two() {
            return Err(MemError::InvalidGeometry {
                reason: format!("line size {line_size} is not a power of two"),
            });
        }
        let way_bytes = u64::from(ways) * line_size;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(MemError::InvalidGeometry {
                reason: format!(
                    "capacity {size_bytes} is not a multiple of ways*line = {way_bytes}"
                ),
            });
        }
        let sets = size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(MemError::InvalidGeometry {
                reason: format!("set count {sets} is not a power of two"),
            });
        }
        Ok(CacheGeometry {
            size_bytes,
            ways,
            line_size,
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub const fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    #[must_use]
    pub const fn ways(&self) -> u8 {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub const fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    #[must_use]
    pub const fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_size)
    }

    /// Total number of lines.
    #[must_use]
    pub const fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB, {}-way, {}B lines",
            self.size_bytes / 1024,
            self.ways,
            self.line_size
        )
    }
}

/// Full configuration of one cache level: geometry, latency, write policy
/// and refresh-group sizing. Every level uses true-LRU replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Which level this configures.
    pub level: CacheLevel,
    /// Geometry of one instance of this cache (one bank, for the L3).
    pub geometry: CacheGeometry,
    /// Access latency in cycles.
    pub access_latency: Cycle,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Number of independent sub-arrays per bank reported by CACTI; used to
    /// size the periodic-refresh groups (paper Section 5: 4 groups per bank).
    pub subarrays: u32,
}

impl CacheLevelConfig {
    /// The paper's IL1: 32 KB, 2-way, 1 ns.
    #[must_use]
    pub fn paper_il1() -> Self {
        CacheLevelConfig {
            level: CacheLevel::L1I,
            geometry: CacheGeometry::new(32 * 1024, 2, 64).expect("paper IL1 geometry is valid"),
            access_latency: Cycle::new(1),
            write_policy: WritePolicy::WriteThrough,
            subarrays: 4,
        }
    }

    /// The paper's DL1: 32 KB, 4-way, write-through, 1 ns.
    #[must_use]
    pub fn paper_dl1() -> Self {
        CacheLevelConfig {
            level: CacheLevel::L1D,
            geometry: CacheGeometry::new(32 * 1024, 4, 64).expect("paper DL1 geometry is valid"),
            access_latency: Cycle::new(1),
            write_policy: WritePolicy::WriteThrough,
            subarrays: 4,
        }
    }

    /// The paper's L2: 256 KB, 8-way, write-back, 2 ns.
    #[must_use]
    pub fn paper_l2() -> Self {
        CacheLevelConfig {
            level: CacheLevel::L2,
            geometry: CacheGeometry::new(256 * 1024, 8, 64).expect("paper L2 geometry is valid"),
            access_latency: Cycle::new(2),
            write_policy: WritePolicy::WriteBack,
            subarrays: 4,
        }
    }

    /// One bank of the paper's L3: 1 MB, 8-way, write-back, 4 ns.
    #[must_use]
    pub fn paper_l3_bank() -> Self {
        CacheLevelConfig {
            level: CacheLevel::L3,
            geometry: CacheGeometry::new(1024 * 1024, 8, 64).expect("paper L3 geometry is valid"),
            access_latency: Cycle::new(4),
            write_policy: WritePolicy::WriteBack,
            subarrays: 4,
        }
    }

    /// Lines per periodic-refresh group (geometry lines / subarrays).
    #[must_use]
    pub fn lines_per_refresh_group(&self) -> u64 {
        (self.geometry.num_lines() / u64::from(self.subarrays)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries_match_table_5_1() {
        let il1 = CacheLevelConfig::paper_il1();
        assert_eq!(il1.geometry.num_lines(), 512);
        assert_eq!(il1.geometry.num_sets(), 256);

        let dl1 = CacheLevelConfig::paper_dl1();
        assert_eq!(dl1.geometry.num_lines(), 512);
        assert_eq!(dl1.geometry.num_sets(), 128);
        assert_eq!(dl1.write_policy, WritePolicy::WriteThrough);

        let l2 = CacheLevelConfig::paper_l2();
        assert_eq!(l2.geometry.num_lines(), 4096);
        assert_eq!(l2.access_latency, Cycle::new(2));
        assert_eq!(l2.write_policy, WritePolicy::WriteBack);

        let l3 = CacheLevelConfig::paper_l3_bank();
        assert_eq!(l3.geometry.num_lines(), 16 * 1024);
        assert_eq!(l3.access_latency, Cycle::new(4));
    }

    #[test]
    fn refresh_group_sizes_match_paper_section_5() {
        // "for L1 we have 4 groups of 128 lines each, for L2 we have 4 groups
        //  of 1024 lines each and for L3 we have 4 groups of 4096 lines each"
        assert_eq!(CacheLevelConfig::paper_dl1().lines_per_refresh_group(), 128);
        assert_eq!(CacheLevelConfig::paper_l2().lines_per_refresh_group(), 1024);
        assert_eq!(
            CacheLevelConfig::paper_l3_bank().lines_per_refresh_group(),
            4096
        );
    }

    #[test]
    fn geometry_rejects_bad_parameters() {
        assert!(CacheGeometry::new(0, 4, 64).is_err());
        assert!(CacheGeometry::new(32 * 1024, 0, 64).is_err());
        assert!(CacheGeometry::new(32 * 1024, 4, 0).is_err());
        assert!(CacheGeometry::new(32 * 1024, 4, 48).is_err());
        // 3-way 64B lines: 96KB / 192 = 512 sets — fine; but 100KB is not a
        // multiple of ways*line.
        assert!(CacheGeometry::new(100 * 1000, 4, 64).is_err());
        // Non-power-of-two set count.
        assert!(CacheGeometry::new(3 * 64 * 4, 4, 64).is_err());
    }

    #[test]
    fn geometry_accessors() {
        let g = CacheGeometry::new(256 * 1024, 8, 64).unwrap();
        assert_eq!(g.size_bytes(), 256 * 1024);
        assert_eq!(g.ways(), 8);
        assert_eq!(g.line_size(), 64);
        assert_eq!(g.num_sets(), 512);
        assert_eq!(g.num_lines(), 4096);
        assert_eq!(g.to_string(), "256 KB, 8-way, 64B lines");
    }

    #[test]
    fn level_labels() {
        assert_eq!(CacheLevel::L1D.label(), "dl1");
        assert_eq!(CacheLevel::L3.to_string(), "l3");
        assert!(CacheLevel::L1I.is_l1());
        assert!(!CacheLevel::L2.is_l1());
        assert_eq!(CacheLevel::ALL.len(), 4);
    }

    #[test]
    fn write_policy_display() {
        assert_eq!(WritePolicy::WriteThrough.to_string(), "WT");
        assert_eq!(WritePolicy::WriteBack.to_string(), "WB");
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
    }
}
