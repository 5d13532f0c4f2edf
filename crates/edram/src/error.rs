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
    /// A policy label could not be parsed.
    InvalidPolicy {
        /// The offending label.
        label: String,
    },
    /// A policy label matched neither a registered custom policy nor the
    /// built-in descriptor grammar.
    UnknownPolicy {
        /// The offending label.
        label: String,
        /// Every label the registry would have accepted.
        valid: Vec<String>,
    },
    /// A custom policy was registered under a label that is already taken.
    DuplicatePolicy {
        /// The conflicting label.
        label: String,
    },
}

impl fmt::Display for EdramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdramError::InvalidRetention { reason } => {
                write!(f, "invalid retention configuration: {reason}")
            }
            EdramError::InvalidPolicy { label } => {
                write!(f, "cannot parse refresh policy label `{label}`")
            }
            EdramError::UnknownPolicy { label, valid } => {
                write!(
                    f,
                    "unknown refresh policy `{label}`; valid labels are \
                     `P|R.all|valid|dirty|WB(n,m)` — e.g. {}",
                    valid.join(", ")
                )
            }
            EdramError::DuplicatePolicy { label } => {
                write!(
                    f,
                    "a refresh policy labelled `{label}` is already registered"
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
        assert!(EdramError::InvalidPolicy {
            label: "Z.9".into()
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
