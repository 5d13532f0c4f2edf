//! Typed errors for trace I/O.
//!
//! Every reader-side failure names the byte offset of the offending data so
//! a corrupt file can be inspected with `xxd` directly. The type is both
//! `Clone` and `PartialEq` (I/O errors are flattened to their messages) so
//! callers can match on exact failures in tests.

use std::error::Error;
use std::fmt;

/// Errors produced while writing, reading or validating a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io {
        /// Byte offset at which the operation was attempted.
        offset: u64,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// The file does not start with a known trace magic.
    BadMagic {
        /// Byte offset of the magic (always 0 today).
        offset: u64,
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The file carries a format version this build cannot read.
    UnsupportedVersion {
        /// Byte offset of the version field.
        offset: u64,
        /// The version found in the file.
        found: u16,
        /// The newest version this build supports.
        supported: u16,
    },
    /// The file ended in the middle of a header field or record.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: u64,
        /// What was being read when the file ended.
        expected: &'static str,
    },
    /// The file is structurally invalid (bad varint, duplicate thread
    /// block, trailing bytes, block-length mismatch, ...).
    Corrupt {
        /// Byte offset of the offending data.
        offset: u64,
        /// Description of the violation.
        reason: String,
    },
    /// A thread index outside the trace's thread count was requested.
    ThreadOutOfRange {
        /// The requested thread.
        thread: usize,
        /// The number of threads in the trace.
        threads: usize,
    },
    /// The writer was driven incorrectly (threads out of order, a record
    /// outside a thread block, an unencodable gap, ...).
    InvalidMeta {
        /// Description of the misuse.
        reason: String,
    },
}

impl TraceError {
    /// Shorthand for an I/O failure at `offset`.
    pub(crate) fn io(offset: u64, err: &std::io::Error) -> Self {
        TraceError::Io {
            offset,
            message: err.to_string(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { offset, message } => {
                write!(f, "I/O error at byte {offset}: {message}")
            }
            TraceError::BadMagic { offset, found } => write!(
                f,
                "not a refrint trace: bad magic {found:02x?} at byte {offset} \
                 (expected `RFRT`)"
            ),
            TraceError::UnsupportedVersion {
                offset,
                found,
                supported,
            } => write!(
                f,
                "unsupported trace format version {found} at byte {offset} \
                 (this build reads up to version {supported})"
            ),
            TraceError::Truncated { offset, expected } => {
                write!(f, "truncated trace: expected {expected} at byte {offset}")
            }
            TraceError::Corrupt { offset, reason } => {
                write!(f, "corrupt trace at byte {offset}: {reason}")
            }
            TraceError::ThreadOutOfRange { thread, threads } => write!(
                f,
                "thread {thread} out of range for a {threads}-thread trace"
            ),
            TraceError::InvalidMeta { reason } => {
                write!(f, "invalid trace metadata: {reason}")
            }
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offset() {
        let e = TraceError::BadMagic {
            offset: 0,
            found: *b"ELF\x7f",
        };
        assert!(e.to_string().contains("byte 0"));
        let e = TraceError::Truncated {
            offset: 17,
            expected: "record tag",
        };
        assert!(e.to_string().contains("byte 17"));
        assert!(e.to_string().contains("record tag"));
        let e = TraceError::UnsupportedVersion {
            offset: 4,
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }

    #[test]
    fn error_is_send_sync_clone_eq() {
        fn assert_traits<T: Error + Send + Sync + Clone + PartialEq + 'static>() {}
        assert_traits::<TraceError>();
    }
}
