//! Format constants, trace metadata and the varint/zigzag primitives the
//! writer and reader are built from.
//!
//! The byte-level layout is specified in the crate-level documentation.

use std::io::Read;

use crate::error::TraceError;

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: [u8; 4] = *b"RFRT";

/// Newest format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Largest encodable compute gap: the binary tag packs
/// `(gap << 1 | is_write) + 1` into a `u64`, so two bits are reserved.
pub const MAX_GAP_CYCLES: u64 = (1 << 62) - 1;

/// The header metadata of a trace: what was captured, by how many threads,
/// and from which workload seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (becomes the replayed report's workload name).
    pub workload: String,
    /// Number of per-thread reference streams in the trace.
    pub threads: usize,
    /// The workload seed the trace was captured with (provenance only).
    pub seed: u64,
}

impl TraceMeta {
    /// Creates trace metadata.
    #[must_use]
    pub fn new(workload: impl Into<String>, threads: usize, seed: u64) -> Self {
        TraceMeta {
            workload: workload.into(),
            threads,
            seed,
        }
    }

    /// Rejects metadata no trace can be written from.
    pub(crate) fn validate(&self) -> Result<(), TraceError> {
        if self.threads == 0 {
            return Err(TraceError::InvalidMeta {
                reason: "a trace needs at least one thread".into(),
            });
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ //
// varint / zigzag
// ------------------------------------------------------------------ //

/// Appends `value` to `buf` as a LEB128 varint.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `r`, advancing `offset` by the bytes
/// consumed. `expected` names the field for truncation errors.
pub(crate) fn read_varint<R: Read>(
    r: &mut R,
    offset: &mut u64,
    expected: &'static str,
) -> Result<u64, TraceError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(r, offset, expected)?;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(TraceError::Corrupt {
                offset: *offset - 1,
                reason: format!("varint for {expected} overflows 64 bits"),
            });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt {
                offset: *offset,
                reason: format!("varint for {expected} is longer than 10 bytes"),
            });
        }
    }
}

/// Reads one byte, advancing `offset`.
pub(crate) fn read_byte<R: Read>(
    r: &mut R,
    offset: &mut u64,
    expected: &'static str,
) -> Result<u8, TraceError> {
    let mut byte = [0u8; 1];
    read_exact(r, &mut byte, offset, expected)?;
    Ok(byte[0])
}

/// `read_exact` with offset tracking and typed truncation errors.
pub(crate) fn read_exact<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    offset: &mut u64,
    expected: &'static str,
) -> Result<(), TraceError> {
    match r.read_exact(buf) {
        Ok(()) => {
            *offset += buf.len() as u64;
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(TraceError::Truncated {
            offset: *offset,
            expected,
        }),
        Err(e) => Err(TraceError::io(*offset, &e)),
    }
}

/// Maps a signed delta onto the unsigned varint domain (zigzag).
pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varints_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut offset = 0;
            let got = read_varint(&mut Cursor::new(&buf), &mut offset, "test").unwrap();
            assert_eq!(got, v);
            assert_eq!(offset, buf.len() as u64);
        }
    }

    #[test]
    fn truncated_varint_is_typed() {
        let mut buf = Vec::new();
        push_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut offset = 0;
        let err = read_varint(&mut Cursor::new(&buf), &mut offset, "test").unwrap_err();
        assert!(matches!(err, TraceError::Truncated { .. }), "{err}");
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let buf = [0x80u8; 11];
        let mut offset = 0;
        let err = read_varint(&mut Cursor::new(&buf[..]), &mut offset, "test").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err}");
        // A 10-byte varint whose final byte carries more than one payload
        // bit would overflow 64 bits.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut offset = 0;
        let err = read_varint(&mut Cursor::new(&buf[..]), &mut offset, "test").unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 12_345, -98_765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small (the point of zigzag).
        assert!(zigzag_encode(-1) <= 2);
        assert!(zigzag_encode(1) <= 2);
    }

    #[test]
    fn meta_rejects_zero_threads() {
        assert!(TraceMeta::new("x", 0, 0).validate().is_err());
        assert!(TraceMeta::new("x", 4, 0).validate().is_ok());
    }
}
