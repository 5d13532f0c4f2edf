//! Hierarchy building blocks: tiles, L3 banks, and the per-cache refresh
//! machinery that ties the eDRAM policies to the cache arrays.

use refrint_coherence::directory::DirectoryArray;
use refrint_edram::controller::{PeriodicBurstModel, RefrintContention};
use refrint_edram::policy::{RefreshPolicy, TimePolicy};
use refrint_edram::retention::RetentionConfig;
use refrint_edram::schedule::{DecaySchedule, LineKind, Settlement};
use refrint_energy::tech::CellTech;
use refrint_engine::time::Cycle;
use refrint_mem::cache::Cache;
use refrint_mem::config::CacheLevelConfig;
use refrint_mem::line::CacheLine;

use crate::error::ConfigError;

/// The refresh machinery attached to one physical cache (one L1, one L2, or
/// one L3 bank): the decay schedule that decides what happens to idle
/// lines, plus the timing model of the refresh engine itself.
#[derive(Debug, Clone)]
pub struct RefreshDomain {
    /// The policy bound to this cache; `None` for SRAM.
    schedule: Option<DecaySchedule>,
    burst: Option<PeriodicBurstModel>,
    contention: RefrintContention,
    /// Total lines in the cache (used for contention and bulk accounting).
    lines: u64,
    /// Whether the policy refreshes every physical line (`All`-style), in
    /// which case refresh energy is accounted in bulk rather than per line.
    bulk_all: bool,
}

impl RefreshDomain {
    /// Builds the refresh domain for a cache level.
    ///
    /// For SRAM there is no refresh machinery at all. For eDRAM, the policy
    /// is bound with the paper's conservative sentry margin (one cycle per
    /// line in the cache), and Periodic policies additionally get the
    /// group-burst blocking model (one group per CACTI sub-array).
    ///
    /// The configuration must have passed [`SystemConfig::validate_typed`],
    /// which checks that each Periodic burst period covers its refresh work.
    ///
    /// [`SystemConfig::validate_typed`]: crate::config::SystemConfig::validate_typed
    #[must_use]
    pub fn new(
        cfg: &CacheLevelConfig,
        policy: RefreshPolicy,
        retention: RetentionConfig,
        cells: CellTech,
        phase_offset: Cycle,
    ) -> Self {
        let lines = cfg.geometry.num_lines();
        if !cells.needs_refresh() {
            return RefreshDomain {
                schedule: None,
                burst: None,
                contention: RefrintContention::new(),
                lines,
                bulk_all: false,
            };
        }
        let retention_cycles = retention.line_retention_cycles();
        // Conservative sentry margin: every sentry bit in the cache could
        // fire in the same cycle (Section 4.1).
        let margin = Cycle::new(lines.min(retention_cycles.raw().saturating_sub(1)));
        let burst = (policy.time == TimePolicy::Periodic).then(|| {
            PeriodicBurstModel::new(
                retention_cycles,
                u64::from(cfg.subarrays),
                cfg.lines_per_refresh_group(),
            )
        });
        RefreshDomain {
            schedule: Some(DecaySchedule::new(
                policy,
                retention_cycles,
                margin,
                phase_offset,
            )),
            burst,
            contention: RefrintContention::new(),
            lines,
            bulk_all: policy.data.refreshes_invalid_lines(),
        }
    }

    /// [`RefreshDomain::new`] under its older name and signature. Only the
    /// benchmark harness under `perfbench/` calls it (with
    /// [`SystemConfig::l3_policy_factory`]); the next change to the
    /// benchmark renames both calls.
    ///
    /// # Errors
    ///
    /// Never: the `Result` remains only for the harness's `.expect`.
    ///
    /// [`SystemConfig::l3_policy_factory`]: crate::config::SystemConfig::l3_policy_factory
    pub fn from_factory(
        cfg: &CacheLevelConfig,
        policy: &RefreshPolicy,
        retention: RetentionConfig,
        cells: CellTech,
        phase_offset: Cycle,
    ) -> Result<Self, ConfigError> {
        Ok(Self::new(cfg, *policy, retention, cells, phase_offset))
    }

    /// Whether this domain's refresh engine runs globally scheduled group
    /// bursts (as opposed to per-line sentry interrupts, or nothing at all
    /// for SRAM).
    #[must_use]
    pub fn is_globally_bursting(&self) -> bool {
        self.burst.is_some()
    }

    /// Whether this domain performs any refresh at all (i.e. eDRAM).
    #[must_use]
    pub fn is_edram(&self) -> bool {
        self.schedule.is_some()
    }

    /// Whether refresh energy for this cache is accounted in bulk
    /// (the `All` data policy refreshes every physical line).
    #[must_use]
    pub fn is_bulk_all(&self) -> bool {
        self.bulk_all
    }

    /// Total lines in the cache.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Extra access latency caused by the refresh engine for an access to
    /// `line_index` (the raw line address, used to pick the sub-array) at
    /// cycle `now`: the remaining burst time for Periodic when the line's
    /// own sub-array is being refreshed, or the (tiny) probability-weighted
    /// interrupt contention for Refrint.
    pub fn access_penalty(&mut self, now: Cycle, line_index: u64) -> Cycle {
        if let Some(burst) = &self.burst {
            // The refresh engine yields to demand accesses after at most
            // `PREEMPTION_WINDOW` line refreshes (it then resumes the burst),
            // so a collision costs far less than a full group burst.
            const PREEMPTION_WINDOW: Cycle = Cycle::new(256);
            return burst.access_delay_preemptible(now, line_index, PREEMPTION_WINDOW);
        }
        if let Some(schedule) = &self.schedule {
            // At most one sentry interrupt per line per sentry period can be
            // pending; the expected number overlapping this access is
            // lines / period, which the accumulator converts into whole
            // stall cycles at the correct long-run rate.
            let period = schedule.opportunity_period();
            return self.contention.charge(self.lines, period * 64);
        }
        Cycle::ZERO
    }

    /// Settles an idle line between `touch` and `now`.
    ///
    /// For SRAM (or bulk-accounted `All` policies) this reports that nothing
    /// happened; refreshes under `All` are charged in bulk by the system at
    /// the end of the run.
    #[must_use]
    pub fn settle(&self, kind: LineKind, touch: Cycle, now: Cycle) -> Settlement {
        match &self.schedule {
            Some(schedule) if !self.bulk_all => schedule.settle(kind, touch, now),
            _ => Settlement::nothing(kind),
        }
    }

    /// The cycle at which an idle line of `kind` last touched at `touch`
    /// will be invalidated by the policy, if ever.
    #[must_use]
    pub fn invalidation_time(&self, kind: LineKind, touch: Cycle) -> Option<Cycle> {
        self.schedule?.invalidation_time(kind, touch)
    }

    /// Bulk refresh count for the whole cache over `(0, end]` — used for the
    /// `All` data policy and for the un-simulated IL1 under Periodic timing.
    #[must_use]
    pub fn bulk_refreshes(&self, end: Cycle) -> u64 {
        self.schedule.map_or(0, |schedule| {
            self.lines * schedule.opportunities_between(Cycle::ZERO, end)
        })
    }
}

/// The residency kind of a cache line, from the refresh policy's viewpoint.
#[must_use]
pub fn line_kind(line: &CacheLine) -> LineKind {
    if !line.is_valid() {
        LineKind::Invalid
    } else if line.is_dirty() {
        LineKind::Dirty
    } else {
        LineKind::Clean
    }
}

/// One tile: a core's private data L1 and L2 plus their refresh domains.
/// (The instruction L1 is modelled statistically and has no per-line state.)
#[derive(Debug, Clone)]
pub struct Tile {
    /// Private write-through data L1.
    pub dl1: Cache,
    /// Private write-back L2.
    pub l2: Cache,
    /// Refresh machinery of the DL1.
    pub dl1_refresh: RefreshDomain,
    /// Refresh machinery of the L2.
    pub l2_refresh: RefreshDomain,
}

/// One bank of the shared L3 plus its refresh machinery and its slice of
/// the directory.
#[derive(Debug, Clone)]
pub struct L3Bank {
    /// The bank's cache array.
    pub cache: Cache,
    /// The directory entry of each of the array's slots: the entry of the
    /// line in that way, `Uncached` for an invalid way.
    pub dir: DirectoryArray,
    /// Refresh machinery of the bank.
    pub refresh: RefreshDomain,
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_mem::addr::LineAddr;
    use refrint_mem::line::MesiState;

    fn l3_cfg() -> CacheLevelConfig {
        CacheLevelConfig::paper_l3_bank()
    }

    #[test]
    fn sram_domain_is_inert() {
        let mut d = RefreshDomain::new(
            &l3_cfg(),
            RefreshPolicy::recommended(),
            RetentionConfig::microseconds_50(),
            CellTech::Sram,
            Cycle::ZERO,
        );
        assert!(!d.is_edram());
        assert_eq!(d.access_penalty(Cycle::new(123), 0), Cycle::ZERO);
        assert_eq!(
            d.settle(LineKind::Dirty, Cycle::ZERO, Cycle::new(1_000_000)),
            Settlement::nothing(LineKind::Dirty)
        );
        assert_eq!(d.invalidation_time(LineKind::Clean, Cycle::ZERO), None);
        assert_eq!(d.bulk_refreshes(Cycle::new(1_000_000)), 0);
    }

    #[test]
    fn edram_refrint_domain_settles_lines() {
        let d = RefreshDomain::new(
            &l3_cfg(),
            RefreshPolicy::recommended(),
            RetentionConfig::microseconds_50(),
            CellTech::Edram,
            Cycle::ZERO,
        );
        assert!(d.is_edram());
        assert!(!d.is_bulk_all());
        let s = d.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(10_000_000));
        // WB(32,32): 32 refreshes then invalidation for a clean line.
        assert_eq!(s.refreshes, 32);
        assert!(s.invalidated_at.is_some());
        assert!(d.invalidation_time(LineKind::Clean, Cycle::ZERO).is_some());
    }

    #[test]
    fn periodic_domain_blocks_and_refrint_domain_barely_stalls() {
        let mut periodic = RefreshDomain::new(
            &l3_cfg(),
            RefreshPolicy::edram_baseline(),
            RetentionConfig::microseconds_50(),
            CellTech::Edram,
            Cycle::ZERO,
        );
        // At cycle zero a periodic burst of sub-array 0 is in progress: an
        // access to a line in that sub-array stalls, one in another does not.
        assert!(periodic.access_penalty(Cycle::ZERO, 0) > Cycle::ZERO);
        assert_eq!(periodic.access_penalty(Cycle::ZERO, 1), Cycle::ZERO);

        let mut refrint = RefreshDomain::new(
            &l3_cfg(),
            RefreshPolicy::recommended(),
            RetentionConfig::microseconds_50(),
            CellTech::Edram,
            Cycle::ZERO,
        );
        let total: u64 = (0..1000)
            .map(|i| refrint.access_penalty(Cycle::new(i), i).raw())
            .sum();
        // Refrint contention is well under one cycle per access on average.
        assert!(
            total < 20,
            "refrint stall cycles over 1000 accesses: {total}"
        );
    }

    #[test]
    fn all_policy_uses_bulk_accounting() {
        let d = RefreshDomain::new(
            &l3_cfg(),
            RefreshPolicy::edram_baseline(),
            RetentionConfig::microseconds_50(),
            CellTech::Edram,
            Cycle::ZERO,
        );
        assert!(d.is_bulk_all());
        assert_eq!(
            d.settle(LineKind::Clean, Cycle::ZERO, Cycle::new(1_000_000)),
            Settlement::nothing(LineKind::Clean)
        );
        // 16K lines x 10 periods over 500k cycles at 50 us.
        assert_eq!(d.bulk_refreshes(Cycle::new(500_000)), 16 * 1024 * 10);
    }

    #[test]
    fn line_kind_mapping() {
        let now = Cycle::new(5);
        let dirty = CacheLine::new(LineAddr::new(1), MesiState::Modified, now);
        let clean = CacheLine::new(LineAddr::new(1), MesiState::Shared, now);
        let mut invalid = clean;
        invalid.invalidate();
        assert_eq!(line_kind(&dirty), LineKind::Dirty);
        assert_eq!(line_kind(&clean), LineKind::Clean);
        assert_eq!(line_kind(&invalid), LineKind::Invalid);
    }
}
