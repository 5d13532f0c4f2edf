//! Retention times and sentry-bit safety margins.
//!
//! The paper sweeps eDRAM retention times of 50 µs, 100 µs and 200 µs
//! (Chapter 5), citing a measured 40 µs at 105 °C and an exponential
//! dependence of retention on temperature. The Sentry bit must decay early
//! enough that every pending interrupt can be serviced before its line
//! expires; the paper's conservative bound makes the margin equal to the
//! number of lines that could fire simultaneously (16 µs for a 16K-line L3
//! bank at 1 GHz).

use std::fmt;

use refrint_engine::time::{Cycle, Freq, SimDuration};

use crate::error::EdramError;

/// Retention configuration for one eDRAM technology point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionConfig {
    retention: SimDuration,
    frequency: Freq,
}

impl RetentionConfig {
    /// Creates a retention configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EdramError::InvalidRetention`] if the retention period is
    /// shorter than one cycle at the given frequency.
    pub fn new(retention: SimDuration, frequency: Freq) -> Result<Self, EdramError> {
        if frequency.cycles_in(retention) == Cycle::ZERO {
            return Err(EdramError::InvalidRetention {
                reason: format!("retention {retention} is shorter than one cycle at {frequency}"),
            });
        }
        Ok(RetentionConfig {
            retention,
            frequency,
        })
    }

    /// A retention time given in microseconds at the paper's 1 GHz clock —
    /// the one mapping every front end (builder, CLI, sweep) shares.
    ///
    /// # Errors
    ///
    /// Returns [`EdramError::InvalidRetention`] if the period is shorter
    /// than one cycle.
    pub fn from_microseconds(us: u64) -> Result<Self, EdramError> {
        match us {
            50 => Ok(Self::microseconds_50()),
            100 => Ok(Self::microseconds_100()),
            200 => Ok(Self::microseconds_200()),
            other => Self::new(SimDuration::from_micros(other), Freq::gigahertz(1)),
        }
    }

    /// The paper's 50 µs point at 1 GHz.
    #[must_use]
    pub fn microseconds_50() -> Self {
        RetentionConfig {
            retention: SimDuration::from_micros(50),
            frequency: Freq::gigahertz(1),
        }
    }

    /// The paper's 100 µs point at 1 GHz.
    #[must_use]
    pub fn microseconds_100() -> Self {
        RetentionConfig {
            retention: SimDuration::from_micros(100),
            frequency: Freq::gigahertz(1),
        }
    }

    /// The paper's 200 µs point at 1 GHz.
    #[must_use]
    pub fn microseconds_200() -> Self {
        RetentionConfig {
            retention: SimDuration::from_micros(200),
            frequency: Freq::gigahertz(1),
        }
    }

    /// The three retention points swept in the paper (Table 5.4).
    #[must_use]
    pub fn paper_sweep() -> [RetentionConfig; 3] {
        [
            Self::microseconds_50(),
            Self::microseconds_100(),
            Self::microseconds_200(),
        ]
    }

    /// The retention period as a wall-clock duration.
    #[must_use]
    pub fn retention(&self) -> SimDuration {
        self.retention
    }

    /// The clock frequency used to convert to cycles.
    #[must_use]
    pub fn frequency(&self) -> Freq {
        self.frequency
    }

    /// The line retention period in cycles.
    #[must_use]
    pub fn line_retention_cycles(&self) -> Cycle {
        self.frequency.cycles_in(self.retention)
    }
}

impl Default for RetentionConfig {
    /// The paper's headline evaluation point: 50 µs at 1 GHz.
    fn default() -> Self {
        Self::microseconds_50()
    }
}

impl fmt::Display for RetentionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} us retention @ {}",
            self.retention.as_micros(),
            self.frequency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_points_convert_to_cycles() {
        assert_eq!(
            RetentionConfig::microseconds_50().line_retention_cycles(),
            Cycle::new(50_000)
        );
        assert_eq!(
            RetentionConfig::microseconds_100().line_retention_cycles(),
            Cycle::new(100_000)
        );
        assert_eq!(
            RetentionConfig::microseconds_200().line_retention_cycles(),
            Cycle::new(200_000)
        );
        assert_eq!(RetentionConfig::paper_sweep().len(), 3);
        assert_eq!(
            RetentionConfig::default(),
            RetentionConfig::microseconds_50()
        );
    }

    #[test]
    fn invalid_retention_rejected() {
        let err = RetentionConfig::new(SimDuration::from_picos(10), Freq::gigahertz(1));
        assert!(err.is_err());
        let ok = RetentionConfig::new(SimDuration::from_micros(1), Freq::gigahertz(1));
        assert!(ok.is_ok());
    }

    #[test]
    fn display_is_informative() {
        let s = RetentionConfig::microseconds_100().to_string();
        assert!(s.contains("100"));
        assert!(s.contains("GHz"));
    }
}
