//! Trace-decoder robustness: seeded single-byte mutations and truncations
//! at every offset of a valid trace must always yield either a successful
//! decode (some byte flips are semantically benign) or a typed
//! [`TraceError`] carrying a plausible byte offset — never a panic and
//! never an unbounded loop. The `.rft` format stores varint-delta records
//! behind a block index.

use std::panic::{catch_unwind, AssertUnwindSafe};

use refrint::config::SystemConfig;
use refrint::replay::capture_to_path;
use refrint_engine::rng::DeterministicRng;
use refrint_trace::{TraceError, TraceFile};
use refrint_workloads::apps::AppPreset;

/// The byte offset a decoder error names, if its variant carries one.
fn error_offset(err: &TraceError) -> Option<u64> {
    match err {
        TraceError::Io { offset, .. }
        | TraceError::BadMagic { offset, .. }
        | TraceError::UnsupportedVersion { offset, .. }
        | TraceError::Truncated { offset, .. }
        | TraceError::Corrupt { offset, .. } => Some(*offset),
        _ => None,
    }
}

/// Fully decodes `bytes`: index, then stream every record of every
/// thread. Returns the total record count.
fn decode(bytes: &[u8]) -> Result<u64, TraceError> {
    let trace = TraceFile::from_bytes(bytes.to_vec())?;
    Ok(trace.validate()?.iter().sum())
}

/// Runs `decode` under `catch_unwind` and asserts the no-panic /
/// typed-error-with-offset contract. Returns the record count on success.
fn assert_decodes_or_errors(bytes: &[u8], what: &str) -> Option<u64> {
    let result = catch_unwind(AssertUnwindSafe(|| decode(bytes)))
        .unwrap_or_else(|_| panic!("decoder panicked on {what}"));
    match result {
        Ok(records) => Some(records),
        Err(err) => {
            // The offset may legitimately point beyond the input: a
            // corrupted block index can claim records live past EOF, and
            // the error names where data was *expected*.
            let _offset = error_offset(&err)
                .unwrap_or_else(|| panic!("{what}: error without a byte offset: {err}"));
            // Every error renders its offset for xxd-level debugging.
            let text = err.to_string();
            assert!(
                text.contains("byte"),
                "{what}: display lacks an offset: {text}"
            );
            None
        }
    }
}

/// Captures a small but multi-thread, multi-block trace.
fn valid_trace(name: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("refrint-fuzz-{}-{name}.rft", std::process::id()));
    let cfg = SystemConfig::edram_recommended()
        .with_cores(2)
        .with_scale(60)
        .with_seed(33);
    capture_to_path(&cfg, &AppPreset::Lu.model(), &path).expect("capture a valid trace");
    let bytes = std::fs::read(&path).expect("read the trace back");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn binary_traces_survive_mutation_and_truncation() {
    let original = valid_trace("mutations");
    let baseline = decode(&original).expect("the untouched trace decodes");
    assert!(baseline > 0, "the trace has records");

    // Truncation at every length. A strict prefix must never decode to
    // *more* records than the original, and most lengths must error.
    let mut truncation_errors = 0u64;
    for len in 0..original.len() {
        let what = format!("truncated to {len} bytes");
        match assert_decodes_or_errors(&original[..len], &what) {
            Some(records) => assert!(records <= baseline, "{what}: grew to {records} records"),
            None => truncation_errors += 1,
        }
    }
    assert!(
        truncation_errors as usize >= original.len() / 2,
        "only {truncation_errors} of {} truncations errored — \
         the decoder is not actually checking lengths",
        original.len()
    );

    // Seeded single-byte mutations at every offset: the seeded value, its
    // complement, and the all-ones byte cover flag bits, varint
    // continuation bits and ASCII classes alike.
    let mut rng = DeterministicRng::from_seed(0xF022);
    for offset in 0..original.len() {
        let seeded = (rng.below(255) + 1) as u8; // non-zero: guarantees a change XOR-wise
        for value in [original[offset] ^ seeded, 0x00, 0xFF] {
            if value == original[offset] {
                continue;
            }
            let mut mutated = original.clone();
            mutated[offset] = value;
            let what = format!("byte {offset} set to {value:#04x}");
            let _ = assert_decodes_or_errors(&mutated, &what);
        }
    }
}

/// The offset classes the format defines — magic, version, header fields,
/// block headers, record payload — each get a targeted corruption with an
/// exact expected error class.
#[test]
fn offset_classes_report_typed_errors() {
    let original = valid_trace("classes");

    // Magic (bytes 0..4).
    let mut bad_magic = original.clone();
    bad_magic[0..4].copy_from_slice(b"ELF\x7f");
    match decode(&bad_magic) {
        Err(TraceError::BadMagic { offset: 0, .. }) => {}
        other => panic!("magic corruption: {other:?}"),
    }

    // Version field (immediately after the magic).
    let mut bad_version = original.clone();
    bad_version[4] = 0xEE;
    match decode(&bad_version) {
        Err(TraceError::UnsupportedVersion { .. }) => {}
        // A multi-byte version encoding may classify as corrupt instead;
        // either way the error is typed with an offset.
        Err(TraceError::Corrupt { .. } | TraceError::Truncated { .. }) => {}
        other => panic!("version corruption: {other:?}"),
    }

    // Mid-file truncation (inside some thread's record block).
    let cut = original.len() / 2;
    match decode(&original[..cut]) {
        Err(e) => {
            assert!(error_offset(&e).is_some(), "{e}");
        }
        Ok(_) => panic!("a mid-record truncation must not decode cleanly"),
    }

    // Empty input.
    match decode(&[]) {
        Err(TraceError::Truncated { offset: 0, .. } | TraceError::Io { offset: 0, .. }) => {}
        other => panic!("empty input: {other:?}"),
    }
}
