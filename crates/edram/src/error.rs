//! Error types for the eDRAM refresh subsystem.

use std::error::Error;
use std::fmt;

/// Errors produced by the eDRAM refresh subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EdramError {
    /// The retention configuration was invalid.
    InvalidRetention {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A policy label does not parse as a [`RefreshPolicy`] descriptor.
    ///
    /// [`RefreshPolicy`]: crate::policy::RefreshPolicy
    UnknownPolicy {
        /// The offending label.
        label: String,
        /// The 14 paper labels (other `WB(n,m)` budgets parse too).
        valid: Vec<String>,
    },
}

impl fmt::Display for EdramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdramError::InvalidRetention { reason } => {
                write!(f, "invalid retention configuration: {reason}")
            }
            EdramError::UnknownPolicy { label, valid } => {
                write!(
                    f,
                    "unknown refresh policy `{label}`; valid labels are \
                     `P|R.all|valid|dirty|WB(n,m)` — e.g. {}",
                    valid.join(", ")
                )
            }
        }
    }
}

impl Error for EdramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(EdramError::InvalidRetention { reason: "x".into() }
            .to_string()
            .contains("retention"));
        assert!(EdramError::UnknownPolicy {
            label: "Z.9".into(),
            valid: vec!["P.all".into()],
        }
        .to_string()
        .contains("Z.9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<EdramError>();
    }
}
