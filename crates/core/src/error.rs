//! Error types for the system simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by the `refrint` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RefrintError {
    /// The system configuration was inconsistent.
    InvalidConfig {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A requested experiment artefact (figure/table) is unknown.
    UnknownArtefact {
        /// The requested artefact name.
        name: String,
    },
    /// A trace could not be captured, opened or replayed. Carries the
    /// rendered [`refrint_trace::TraceError`] (or a replay-level mismatch
    /// such as a thread/core count disagreement).
    Trace {
        /// Description of the failure.
        reason: String,
    },
}

impl fmt::Display for RefrintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefrintError::InvalidConfig { reason } => {
                write!(f, "invalid system configuration: {reason}")
            }
            RefrintError::UnknownArtefact { name } => {
                write!(f, "unknown experiment artefact `{name}`")
            }
            RefrintError::Trace { reason } => write!(f, "trace error: {reason}"),
        }
    }
}

impl Error for RefrintError {}

impl From<refrint_trace::TraceError> for RefrintError {
    fn from(err: refrint_trace::TraceError) -> Self {
        RefrintError::Trace {
            reason: err.to_string(),
        }
    }
}

/// The typed constraint violations [`crate::config::SystemConfig::validate_typed`]
/// can report — the single source of truth for configuration rules. The
/// builder maps these onto [`crate::simulation::BuildError`] variants, and
/// [`crate::config::SystemConfig::validate`] flattens them into
/// [`RefrintError::InvalidConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The chip needs at least one core.
    ZeroCores,
    /// More cores were requested than the torus has nodes.
    TooManyCores {
        /// Requested core count.
        cores: usize,
        /// Nodes on the configured torus.
        torus_nodes: usize,
    },
    /// The model assumes one shared-L3 bank per tile.
    BankCoreMismatch {
        /// Configured L3 bank count.
        l3_banks: usize,
        /// Configured core count.
        cores: usize,
    },
    /// All cache levels must share one line size.
    LineSizeMismatch,
    /// The retention period leaves no room for the sentry safety margin.
    RetentionTooShort {
        /// Retention period, in cycles.
        retention_cycles: u64,
        /// Required sentry margin, in cycles.
        sentry_margin: u64,
    },
    /// A retention-variation profile was configured on SRAM cells.
    SramWithRetentionProfile,
    /// A Periodic cache's burst period (its retention) is too short to
    /// refresh the whole cache within it.
    InvalidBurstPeriod {
        /// The burst period, in cycles.
        period_cycles: u64,
        /// The refresh work per period (one cycle per line), in cycles.
        work_cycles: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "at least one core is required"),
            ConfigError::TooManyCores { cores, torus_nodes } => {
                write!(f, "{cores} cores do not fit on a {torus_nodes} node torus")
            }
            ConfigError::BankCoreMismatch { l3_banks, cores } => write!(
                f,
                "the model assumes one L3 bank per tile ({l3_banks} banks for {cores} cores)"
            ),
            ConfigError::LineSizeMismatch => {
                write!(f, "all cache levels must share a line size")
            }
            ConfigError::RetentionTooShort {
                retention_cycles,
                sentry_margin,
            } => write!(
                f,
                "retention of {retention_cycles} cycles leaves no room for the \
                 {sentry_margin}-cycle sentry margin"
            ),
            ConfigError::SramWithRetentionProfile => write!(
                f,
                "a retention-variation profile requires eDRAM cells (SRAM never decays)"
            ),
            ConfigError::InvalidBurstPeriod {
                period_cycles,
                work_cycles,
            } => write!(
                f,
                "the policy's {period_cycles}-cycle burst period cannot cover the \
                 {work_cycles} cycles of refresh work per period"
            ),
        }
    }
}

impl Error for ConfigError {}

impl From<ConfigError> for RefrintError {
    fn from(err: ConfigError) -> Self {
        RefrintError::InvalidConfig {
            reason: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RefrintError::InvalidConfig { reason: "x".into() }
            .to_string()
            .contains("configuration"));
        assert!(RefrintError::UnknownArtefact {
            name: "fig9".into()
        }
        .to_string()
        .contains("fig9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<RefrintError>();
    }
}
