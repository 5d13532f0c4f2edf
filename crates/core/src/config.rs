//! System configuration: the chip of Table 5.1 plus the technology and
//! refresh-policy choices of Tables 5.2 and 5.4.

use std::fmt;

use refrint_coherence::protocol::CoherenceProtocol;
use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
use refrint_edram::retention::RetentionConfig;
use refrint_edram::variation::RetentionProfile;
use refrint_energy::tech::{CellTech, TechnologyParams};
use refrint_engine::time::Cycle;
use refrint_mem::config::CacheLevelConfig;
use refrint_noc::latency::LinkParams;
use refrint_noc::topology::Torus;
use refrint_workloads::model::WorkloadModel;

use crate::cpu::CoreTimingModel;
use crate::error::{ConfigError, RefrintError};

/// Complete configuration of one simulated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores / tiles (the paper uses 16).
    pub cores: usize,
    /// Number of shared L3 banks (the paper uses 16, one per tile).
    pub l3_banks: usize,
    /// Private instruction L1 configuration.
    pub il1: CacheLevelConfig,
    /// Private data L1 configuration.
    pub dl1: CacheLevelConfig,
    /// Private L2 configuration.
    pub l2: CacheLevelConfig,
    /// One shared L3 bank's configuration.
    pub l3_bank: CacheLevelConfig,
    /// The on-chip interconnect topology.
    pub torus: Torus,
    /// Link/router latency parameters.
    pub link: LinkParams,
    /// Core timing model.
    pub core: CoreTimingModel,
    /// The memory cell technology of the on-chip caches.
    pub cells: CellTech,
    /// eDRAM retention configuration (ignored for SRAM).
    pub retention: RetentionConfig,
    /// Per-bank retention variation profile (eDRAM only): how each L3
    /// bank's actual retention is drawn around the nominal `retention`.
    /// The default [`RetentionProfile::Uniform`] assigns nominal retention
    /// everywhere and samples no randomness.
    pub retention_profile: RetentionProfile,
    /// The coherence protocol the chip runs (default MESI).
    pub protocol: CoherenceProtocol,
    /// Refresh policy applied to the L3 (L1/L2 use the same time policy with
    /// the `Valid` data policy, per Section 6.2). Ignored for SRAM.
    pub policy: RefreshPolicy,
    /// Technology/energy parameters.
    pub tech: TechnologyParams,
    /// Seed for the deterministic workload streams.
    pub seed: u64,
    /// Override of the workload's references per thread (`None` keeps the
    /// application preset's default). Used to scale runs up or down.
    pub refs_per_thread: Option<u64>,
}

impl SystemConfig {
    /// The full-SRAM baseline system of the paper (no refresh).
    #[must_use]
    pub fn sram_baseline() -> Self {
        SystemConfig {
            cores: 16,
            l3_banks: 16,
            il1: CacheLevelConfig::paper_il1(),
            dl1: CacheLevelConfig::paper_dl1(),
            l2: CacheLevelConfig::paper_l2(),
            l3_bank: CacheLevelConfig::paper_l3_bank(),
            torus: Torus::paper_4x4(),
            link: LinkParams::paper_default(),
            core: CoreTimingModel::paper_default(),
            cells: CellTech::Sram,
            retention: RetentionConfig::microseconds_50(),
            retention_profile: RetentionProfile::Uniform,
            protocol: CoherenceProtocol::Mesi,
            policy: RefreshPolicy::edram_baseline(),
            tech: TechnologyParams::paper_default(),
            seed: 0xBEEF,
            refs_per_thread: None,
        }
    }

    /// The naive full-eDRAM system: `Periodic All` at 50 µs.
    #[must_use]
    pub fn edram_baseline() -> Self {
        SystemConfig {
            cells: CellTech::Edram,
            policy: RefreshPolicy::edram_baseline(),
            ..Self::sram_baseline()
        }
    }

    /// The paper's recommended configuration: `Refrint WB(32,32)` at 50 µs.
    #[must_use]
    pub fn edram_recommended() -> Self {
        SystemConfig {
            cells: CellTech::Edram,
            policy: RefreshPolicy::recommended(),
            ..Self::sram_baseline()
        }
    }

    /// Sets the refresh policy (eDRAM only).
    #[must_use]
    pub fn with_policy(mut self, policy: RefreshPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The L3's refresh policy, `&self.policy`, under its older name. Only
    /// the benchmark harness under `perfbench/` calls it (with
    /// [`RefreshDomain::from_factory`]); the next change to the benchmark
    /// renames both calls.
    ///
    /// [`RefreshDomain::from_factory`]: crate::hierarchy::RefreshDomain::from_factory
    #[must_use]
    pub fn l3_policy_factory(&self) -> &RefreshPolicy {
        &self.policy
    }

    /// Sets the retention configuration (eDRAM only).
    #[must_use]
    pub fn with_retention(mut self, retention: RetentionConfig) -> Self {
        self.retention = retention;
        self
    }

    /// Sets the per-bank retention variation profile (eDRAM only).
    #[must_use]
    pub fn with_retention_profile(mut self, profile: RetentionProfile) -> Self {
        self.retention_profile = profile;
        self
    }

    /// Sets the coherence protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: CoherenceProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// The actual retention configuration of each L3 bank: the nominal
    /// retention scaled by the profile's sampled per-bank factor, floored
    /// so the sentry margin (one cycle per line) always fits. With the
    /// default uniform profile this is exactly the nominal retention in
    /// every bank — no sampling, no rounding.
    #[must_use]
    pub fn bank_retentions(&self) -> Vec<RetentionConfig> {
        if !self.cells.needs_refresh() || self.retention_profile.is_default() {
            return vec![self.retention; self.l3_banks];
        }
        let factors = self
            .retention_profile
            .factors_per_mille(self.seed, self.l3_banks);
        let base = self.retention.line_retention_cycles().raw();
        let freq = self.retention.frequency();
        let floor = self.l3_bank.geometry.num_lines() + 1;
        factors
            .into_iter()
            .map(|f| {
                let cycles = (base.saturating_mul(f) / 1000).max(floor);
                RetentionConfig::new(freq.duration_of(Cycle::new(cycles)), freq)
                    .expect("per-bank retention is at least the sentry margin")
            })
            .collect()
    }

    /// Sets the cell technology.
    #[must_use]
    pub fn with_cells(mut self, cells: CellTech) -> Self {
        self.cells = cells;
        self
    }

    /// Sets the workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of references each workload thread issues
    /// (scales simulated time; smaller is faster).
    #[must_use]
    pub fn with_scale(mut self, refs_per_thread: u64) -> Self {
        self.refs_per_thread = Some(refs_per_thread);
        self
    }

    /// Shrinks the chip (cores, banks and thread count) for fast unit tests.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self.l3_banks = cores;
        self
    }

    /// Validates the configuration, reporting the violated constraint as a
    /// typed [`ConfigError`]. This is the single home of every
    /// configuration rule; [`SystemConfig::validate`] and the builder's
    /// `BuildError` mapping are derived from it.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate_typed(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.cores > self.torus.num_nodes() {
            return Err(ConfigError::TooManyCores {
                cores: self.cores,
                torus_nodes: self.torus.num_nodes(),
            });
        }
        if self.l3_banks != self.cores {
            return Err(ConfigError::BankCoreMismatch {
                l3_banks: self.l3_banks,
                cores: self.cores,
            });
        }
        let line = self.dl1.geometry.line_size();
        if self.l2.geometry.line_size() != line
            || self.l3_bank.geometry.line_size() != line
            || self.il1.geometry.line_size() != line
        {
            return Err(ConfigError::LineSizeMismatch);
        }
        if !self.cells.needs_refresh() {
            if !self.retention_profile.is_default() {
                return Err(ConfigError::SramWithRetentionProfile);
            }
            return Ok(());
        }
        let retention = self.retention.line_retention_cycles();
        let margin = self.l3_bank.geometry.num_lines();
        if margin >= retention.raw() {
            return Err(ConfigError::RetentionTooShort {
                retention_cycles: retention.raw(),
                sentry_margin: margin,
            });
        }
        if self.is_periodic() {
            // A Periodic cache refreshes every line once per retention
            // period, one cycle per line; a period shorter than that work
            // can never keep the array refreshed. Each L3 bank bursts at
            // its own retention.
            let l3 = self
                .bank_retentions()
                .iter()
                .map(RetentionConfig::line_retention_cycles)
                .min()
                .unwrap_or(retention);
            for (level, period) in [
                (&self.dl1, retention),
                (&self.l2, retention),
                (&self.l3_bank, l3),
            ] {
                let work = u64::from(level.subarrays) * level.lines_per_refresh_group();
                if period.raw() < work.max(1) {
                    return Err(ConfigError::InvalidBurstPeriod {
                        period_cycles: period.raw(),
                        work_cycles: work,
                    });
                }
            }
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RefrintError::InvalidConfig`] if the core count does not
    /// match the torus, the bank count differs from the core count, or the
    /// line sizes disagree across levels.
    pub fn validate(&self) -> Result<(), RefrintError> {
        self.validate_typed().map_err(RefrintError::from)
    }

    /// A short human-readable description of the technology/policy point,
    /// e.g. `SRAM`, `eDRAM 50us P.all`, `eDRAM 100us R.WB(32,32)`. The
    /// coherence protocol and retention profile are appended only when they
    /// differ from the defaults, so every pre-existing label (and anything
    /// keyed on it, such as the serve cache) is unchanged for default runs.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = match self.cells {
            CellTech::Sram => "SRAM".to_owned(),
            CellTech::Edram => format!(
                "eDRAM {}us {}",
                self.retention.retention().as_micros(),
                self.policy.label()
            ),
        };
        if !self.protocol.is_default() {
            label.push_str(&format!(" {}", self.protocol.label()));
        }
        if !self.retention_profile.is_default() {
            label.push_str(&format!(" {}", self.retention_profile.label()));
        }
        label
    }

    /// The workload model as a system with this configuration actually runs
    /// it: thread count pinned to the core count, length scaled by the
    /// `refs_per_thread` override. Trace capture writes exactly these
    /// streams, which is what makes replay bit-identical.
    #[must_use]
    pub fn adjusted_model(&self, model: &WorkloadModel) -> WorkloadModel {
        let mut model = model.clone().with_threads(self.cores);
        if let Some(refs) = self.refs_per_thread {
            model = model.with_refs_per_thread(refs);
        }
        model
    }

    /// The time policy actually applied to the private L1/L2 caches: the
    /// configured time policy with the `Valid` data policy (Section 6.2).
    #[must_use]
    pub fn private_cache_policy(&self) -> RefreshPolicy {
        RefreshPolicy::new(self.policy.time, DataPolicy::Valid)
    }

    /// Whether the configured time policy is Periodic (used to pick the
    /// blocking model).
    #[must_use]
    pub fn is_periodic(&self) -> bool {
        self.policy.time == TimePolicy::Periodic
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::edram_recommended()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chip            : {} cores, {} L3 banks, {}",
            self.cores, self.l3_banks, self.torus
        )?;
        writeln!(
            f,
            "IL1             : {} ({} ns)",
            self.il1.geometry, self.il1.access_latency
        )?;
        writeln!(
            f,
            "DL1             : {} ({} , WT)",
            self.dl1.geometry, self.dl1.access_latency
        )?;
        writeln!(
            f,
            "L2              : {} ({} , WB)",
            self.l2.geometry, self.l2.access_latency
        )?;
        writeln!(
            f,
            "L3 bank         : {} ({} , WB, shared)",
            self.l3_bank.geometry, self.l3_bank.access_latency
        )?;
        writeln!(f, "Cells           : {}", self.cells)?;
        if !self.protocol.is_default() {
            writeln!(f, "Coherence       : {}", self.protocol)?;
        }
        if self.cells.needs_refresh() {
            writeln!(f, "Retention       : {}", self.retention)?;
            if !self.retention_profile.is_default() {
                writeln!(f, "Retention var.  : {}", self.retention_profile)?;
            }
            writeln!(f, "Refresh policy  : {}", self.policy.label())?;
        }
        write!(f, "Seed            : {:#x}", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_validate() {
        SystemConfig::sram_baseline().validate().unwrap();
        SystemConfig::edram_baseline().validate().unwrap();
        SystemConfig::edram_recommended().validate().unwrap();
    }

    #[test]
    fn labels_identify_the_point() {
        assert_eq!(SystemConfig::sram_baseline().label(), "SRAM");
        assert_eq!(SystemConfig::edram_baseline().label(), "eDRAM 50us P.all");
        assert_eq!(
            SystemConfig::edram_recommended()
                .with_retention(RetentionConfig::microseconds_200())
                .label(),
            "eDRAM 200us R.WB(32,32)"
        );
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::edram_recommended()
            .with_policy(RefreshPolicy::new(TimePolicy::Periodic, DataPolicy::Dirty))
            .with_retention(RetentionConfig::microseconds_100())
            .with_seed(7)
            .with_scale(123)
            .with_cores(4);
        assert_eq!(c.cores, 4);
        assert_eq!(c.l3_banks, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.refs_per_thread, Some(123));
        assert!(c.is_periodic());
        assert_eq!(c.private_cache_policy().data, DataPolicy::Valid);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SystemConfig::sram_baseline();
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::sram_baseline();
        c.cores = 17;
        c.l3_banks = 17;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::sram_baseline();
        c.l3_banks = 8;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::edram_baseline();
        c.retention = RetentionConfig::new(
            refrint_engine::time::SimDuration::from_micros(10),
            refrint_engine::time::Freq::gigahertz(1),
        )
        .unwrap();
        // 10 us = 10_000 cycles < 16K-line sentry margin: invalid.
        assert!(c.validate().is_err());
    }

    #[test]
    fn display_includes_key_fields() {
        let text = SystemConfig::edram_recommended().to_string();
        assert!(text.contains("16 cores"));
        assert!(text.contains("eDRAM"));
        assert!(text.contains("R.WB(32,32)"));
        let text = SystemConfig::sram_baseline().to_string();
        assert!(!text.contains("Refresh policy"));
    }

    #[test]
    fn default_is_recommended() {
        assert_eq!(SystemConfig::default().label(), "eDRAM 50us R.WB(32,32)");
    }

    #[test]
    fn non_default_axes_appear_in_label() {
        let c = SystemConfig::edram_recommended()
            .with_protocol(CoherenceProtocol::Dragon)
            .with_retention_profile(RetentionProfile::Bimodal {
                weak_pct: 25,
                weak_retention_pct: 60,
            });
        assert_eq!(c.label(), "eDRAM 50us R.WB(32,32) dragon bimodal(25,60)");
        c.validate().unwrap();
        let sram = SystemConfig::sram_baseline().with_protocol(CoherenceProtocol::Dragon);
        assert_eq!(sram.label(), "SRAM dragon");
        sram.validate().unwrap();
    }

    #[test]
    fn retention_profile_requires_edram() {
        let c = SystemConfig::sram_baseline()
            .with_retention_profile(RetentionProfile::Normal { sigma_pct: 10 });
        assert_eq!(
            c.validate_typed(),
            Err(ConfigError::SramWithRetentionProfile)
        );
    }

    #[test]
    fn uniform_bank_retentions_are_nominal() {
        let c = SystemConfig::edram_recommended();
        let banks = c.bank_retentions();
        assert_eq!(banks, vec![c.retention; 16]);
    }

    #[test]
    fn varied_bank_retentions_respect_sentry_floor() {
        let c =
            SystemConfig::edram_recommended().with_retention_profile(RetentionProfile::Bimodal {
                weak_pct: 100,
                // 10% of 50 us = 5000 cycles, below the 16K-line margin:
                // the floor must kick in.
                weak_retention_pct: 10,
            });
        let floor = c.l3_bank.geometry.num_lines() + 1;
        for r in c.bank_retentions() {
            assert_eq!(r.line_retention_cycles().raw(), floor);
        }
        // And the sampled assignment is a pure function of the seed.
        let again = c.clone().bank_retentions();
        assert_eq!(c.bank_retentions(), again);
        let other_seed = c.with_seed(999).bank_retentions();
        assert_eq!(other_seed.len(), 16);
    }
}
