//! Streaming trace readers.
//!
//! [`TraceFile::open`] checks the magic, parses the header, and indexes the
//! per-thread blocks (skipping over block bodies via their recorded
//! lengths) without decoding any records. Each
//! [`TraceFile::thread`] call then opens an independent streaming cursor at
//! that thread's records, so a simulator can consume all threads
//! concurrently while the file is read incrementally — the trace is never
//! materialized in memory.

use std::fs::File;
use std::io::{BufRead, BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use refrint_mem::addr::Addr;
use refrint_workloads::trace::{AccessKind, MemRef};

use crate::error::TraceError;
use crate::format::{
    read_exact, read_varint, zigzag_decode, TraceMeta, BINARY_MAGIC, FORMAT_VERSION,
};

/// Where the trace bytes live. Every [`TraceFile::thread`] call opens a
/// fresh cursor into the source, so per-thread iterators are independent.
#[derive(Debug, Clone)]
enum Source {
    File(PathBuf),
    Memory(Arc<Vec<u8>>),
}

/// Owned bytes adapter so a shared buffer can back an `io::Cursor`.
#[derive(Debug)]
struct SharedBytes(Arc<Vec<u8>>);

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// What a trace cursor needs: buffered reads plus seeking, so indexing can
/// skip block bodies without streaming them.
trait TraceRead: BufRead + Seek + Send {}
impl<T: BufRead + Seek + Send> TraceRead for T {}

impl Source {
    fn reader_at(&self, offset: u64) -> Result<Box<dyn TraceRead>, TraceError> {
        match self {
            Source::File(path) => {
                let mut file = File::open(path).map_err(|e| TraceError::io(0, &e))?;
                file.seek(SeekFrom::Start(offset))
                    .map_err(|e| TraceError::io(offset, &e))?;
                Ok(Box::new(BufReader::new(file)))
            }
            Source::Memory(bytes) => {
                let mut cursor = Cursor::new(SharedBytes(Arc::clone(bytes)));
                cursor.set_position(offset);
                Ok(Box::new(BufReader::new(cursor)))
            }
        }
    }
}

/// One indexed thread block.
#[derive(Debug, Clone, Copy)]
struct ThreadBlock {
    /// Byte offset of the first record.
    records_at: u64,
    /// Byte length of the records region including the terminator.
    body_len: u64,
}

/// An opened trace: parsed header plus an index of the thread blocks.
#[derive(Debug, Clone)]
pub struct TraceFile {
    meta: TraceMeta,
    source: Source,
    blocks: Vec<ThreadBlock>,
}

impl TraceFile {
    /// Opens and indexes a trace file.
    ///
    /// # Errors
    ///
    /// See [`TraceError`]; notably [`TraceError::BadMagic`],
    /// [`TraceError::UnsupportedVersion`] and [`TraceError::Truncated`],
    /// each carrying the offending byte offset.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let source = Source::File(path.as_ref().to_path_buf());
        Self::index(source)
    }

    /// Indexes a trace held in memory (used by tests and benches).
    ///
    /// # Errors
    ///
    /// See [`TraceFile::open`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::index(Source::Memory(Arc::new(bytes)))
    }

    fn index(source: Source) -> Result<Self, TraceError> {
        let mut r = source.reader_at(0)?;
        let mut offset = 0u64;
        let mut magic = [0u8; 4];
        read_exact(&mut r, &mut magic, &mut offset, "trace magic")?;
        if magic != BINARY_MAGIC {
            return Err(TraceError::BadMagic {
                offset: 0,
                found: magic,
            });
        }
        let (meta, blocks) = index_binary(&mut r, &mut offset)?;
        Ok(TraceFile {
            meta,
            source,
            blocks,
        })
    }

    /// The trace's header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Opens a streaming iterator over `thread`'s references.
    ///
    /// # Errors
    ///
    /// [`TraceError::ThreadOutOfRange`] for a bad index, [`TraceError::Io`]
    /// if the source cannot be reopened.
    pub fn thread(&self, thread: usize) -> Result<ThreadRefs, TraceError> {
        let block = *self
            .blocks
            .get(thread)
            .ok_or(TraceError::ThreadOutOfRange {
                thread,
                threads: self.meta.threads,
            })?;
        let reader = self.source.reader_at(block.records_at)?;
        Ok(ThreadRefs {
            reader,
            offset: block.records_at,
            end_offset: block.records_at + block.body_len,
            prev_addr: 0,
            done: false,
        })
    }

    /// Fully decodes every record of every thread, verifying block lengths,
    /// and returns the per-thread record counts.
    ///
    /// This is the cheap way to reject a corrupt trace up front: it streams
    /// the whole file once without retaining anything.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] encountered, with its byte offset.
    pub fn validate(&self) -> Result<Vec<u64>, TraceError> {
        let mut counts = Vec::with_capacity(self.meta.threads);
        for t in 0..self.meta.threads {
            let mut refs = self.thread(t)?;
            let mut n = 0u64;
            for r in &mut refs {
                r?;
                n += 1;
            }
            counts.push(n);
        }
        Ok(counts)
    }
}

/// Parses the binary header and block index; `offset` is positioned just
/// past the magic on entry. Block bodies are seeked over, not read, so
/// opening a large trace costs only its header and block index.
fn index_binary(
    r: &mut (impl Read + Seek),
    offset: &mut u64,
) -> Result<(TraceMeta, Vec<ThreadBlock>), TraceError> {
    let version_at = *offset;
    let mut version = [0u8; 2];
    read_exact(r, &mut version, offset, "format version")?;
    let version = u16::from_le_bytes(version);
    if version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion {
            offset: version_at,
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut flags = [0u8; 1];
    read_exact(r, &mut flags, offset, "header flags")?;
    let mut seed = [0u8; 8];
    read_exact(r, &mut seed, offset, "workload seed")?;
    let seed = u64::from_le_bytes(seed);
    let threads_at = *offset;
    let threads = read_varint(r, offset, "thread count")?;
    let threads = usize::try_from(threads).map_err(|_| TraceError::Corrupt {
        offset: threads_at,
        reason: format!("thread count {threads} does not fit a usize"),
    })?;
    if threads == 0 {
        return Err(TraceError::Corrupt {
            offset: threads_at,
            reason: "thread count is zero".into(),
        });
    }
    let name_at = *offset;
    let name_len = read_varint(r, offset, "workload name length")?;
    if name_len > 4096 {
        return Err(TraceError::Corrupt {
            offset: name_at,
            reason: format!("workload name of {name_len} bytes is implausibly long"),
        });
    }
    let mut name = vec![0u8; name_len as usize];
    read_exact(r, &mut name, offset, "workload name")?;
    let workload = String::from_utf8(name).map_err(|_| TraceError::Corrupt {
        offset: name_at,
        reason: "workload name is not UTF-8".into(),
    })?;

    let mut blocks: Vec<Option<ThreadBlock>> = vec![None; threads];
    for _ in 0..threads {
        let id_at = *offset;
        let thread = read_varint(r, offset, "thread block id")?;
        let thread = usize::try_from(thread).ok().filter(|&t| t < threads);
        let Some(thread) = thread else {
            return Err(TraceError::Corrupt {
                offset: id_at,
                reason: format!("thread block id out of range (trace has {threads} threads)"),
            });
        };
        let body_len = read_varint(r, offset, "thread block length")?;
        if blocks[thread].is_some() {
            return Err(TraceError::Corrupt {
                offset: id_at,
                reason: format!("duplicate block for thread {thread}"),
            });
        }
        blocks[thread] = Some(ThreadBlock {
            records_at: *offset,
            body_len,
        });
        skip(r, body_len, offset)?;
    }
    // Seeking past EOF succeeds silently, so compare the expected end
    // position against the actual size: a shortfall is truncation, an
    // excess is trailing garbage.
    let size = r
        .seek(SeekFrom::End(0))
        .map_err(|e| TraceError::io(*offset, &e))?;
    if size < *offset {
        return Err(TraceError::Truncated {
            offset: size,
            expected: "thread block body",
        });
    }
    if size > *offset {
        return Err(TraceError::Corrupt {
            offset: *offset,
            reason: "trailing data after the last thread block".into(),
        });
    }
    let blocks = blocks
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("every thread id 0..threads was seen exactly once");
    Ok((TraceMeta::new(workload, threads, seed), blocks))
}

/// Seeks `len` bytes forward without reading them. A length beyond EOF is
/// only detected afterwards (see the size check in [`index_binary`]).
fn skip(r: &mut (impl Read + Seek), len: u64, offset: &mut u64) -> Result<(), TraceError> {
    let step = i64::try_from(len).map_err(|_| TraceError::Corrupt {
        offset: *offset,
        reason: format!("thread block length {len} is implausibly large"),
    })?;
    r.seek_relative(step)
        .map_err(|e| TraceError::io(*offset, &e))?;
    *offset += len;
    Ok(())
}

/// A streaming iterator over one thread's references.
///
/// Yields `Result` so a file that goes bad mid-stream surfaces a typed
/// [`TraceError`] instead of panicking; after the first error (or the
/// terminator) the iterator is exhausted.
pub struct ThreadRefs {
    reader: Box<dyn TraceRead>,
    /// Absolute byte offset of the next unread byte.
    offset: u64,
    /// Absolute end of the records region.
    end_offset: u64,
    prev_addr: u64,
    done: bool,
}

impl std::fmt::Debug for ThreadRefs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRefs")
            .field("offset", &self.offset)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl ThreadRefs {
    fn decode(&mut self) -> Result<Option<MemRef>, TraceError> {
        let tag = read_varint(&mut self.reader, &mut self.offset, "record tag")?;
        let end = self.end_offset;
        if tag == 0 {
            if self.offset != end {
                return Err(TraceError::Corrupt {
                    offset: self.offset,
                    reason: format!(
                        "thread block ended at byte {} but its header declared byte {end}",
                        self.offset
                    ),
                });
            }
            return Ok(None);
        }
        if self.offset > end {
            return Err(TraceError::Corrupt {
                offset: self.offset,
                reason: "records run past the declared thread block length".into(),
            });
        }
        let payload = tag - 1;
        let gap_cycles = payload >> 1;
        let kind = if payload & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let delta = zigzag_decode(read_varint(
            &mut self.reader,
            &mut self.offset,
            "address delta",
        )?);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        Ok(Some(MemRef::new(gap_cycles, Addr::new(addr), kind)))
    }
}

impl Iterator for ThreadRefs {
    type Item = Result<MemRef, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.decode() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;

    fn sample_refs() -> Vec<Vec<MemRef>> {
        vec![
            vec![
                MemRef::new(3, Addr::new(0x40), AccessKind::Read),
                MemRef::new(0, Addr::new(0x80), AccessKind::Write),
                MemRef::new(12, Addr::new(0x40), AccessKind::Read),
            ],
            vec![MemRef::new(1, Addr::new(0xdead_beef), AccessKind::Write)],
        ]
    }

    fn write_binary(refs: &[Vec<MemRef>]) -> Vec<u8> {
        let meta = TraceMeta::new("sample", refs.len(), 99);
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        for (t, thread) in refs.iter().enumerate() {
            w.begin_thread(t).unwrap();
            for r in thread {
                w.record(r).unwrap();
            }
            w.end_thread().unwrap();
        }
        w.into_inner().unwrap()
    }

    fn read_all(trace: &TraceFile) -> Vec<Vec<MemRef>> {
        (0..trace.meta().threads)
            .map(|t| trace.thread(t).unwrap().map(Result::unwrap).collect())
            .collect()
    }

    #[test]
    fn binary_round_trips() {
        let refs = sample_refs();
        let trace = TraceFile::from_bytes(write_binary(&refs)).unwrap();
        assert_eq!(trace.meta().workload, "sample");
        assert_eq!(trace.meta().seed, 99);
        assert_eq!(read_all(&trace), refs);
        assert_eq!(trace.validate().unwrap(), vec![3, 1]);
    }

    #[test]
    fn thread_iterators_are_independent() {
        let refs = sample_refs();
        let trace = TraceFile::from_bytes(write_binary(&refs)).unwrap();
        let mut a = trace.thread(0).unwrap();
        let mut b = trace.thread(1).unwrap();
        // Interleave the two cursors.
        assert_eq!(b.next().unwrap().unwrap(), refs[1][0]);
        assert_eq!(a.next().unwrap().unwrap(), refs[0][0]);
        assert_eq!(a.next().unwrap().unwrap(), refs[0][1]);
        assert!(b.next().is_none());
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = TraceFile::from_bytes(b"ELF\x7f....".to_vec()).unwrap_err();
        assert_eq!(
            err,
            TraceError::BadMagic {
                offset: 0,
                found: *b"ELF\x7f"
            }
        );
        // A line-oriented text header is not a trace either.
        let text = b"# refrint-trace v1 text\nworkload x\nseed 1\nthreads 1\n";
        let err = TraceFile::from_bytes(text.to_vec()).unwrap_err();
        assert_eq!(
            err,
            TraceError::BadMagic {
                offset: 0,
                found: *b"# re"
            }
        );
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = write_binary(&sample_refs());
        bytes[4] = 0x2a; // version 42
        let err = TraceFile::from_bytes(bytes).unwrap_err();
        assert_eq!(
            err,
            TraceError::UnsupportedVersion {
                offset: 4,
                found: 42,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn truncation_is_typed_with_an_offset() {
        let bytes = write_binary(&sample_refs());
        for cut in [2, 6, 10, 20, bytes.len() - 1] {
            let err = match TraceFile::from_bytes(bytes[..cut].to_vec()) {
                Err(e) => e,
                // Cuts inside a block body surface when the records are
                // actually decoded.
                Ok(trace) => trace.validate().unwrap_err(),
            };
            match err {
                TraceError::Truncated { offset, .. } => assert!(offset <= cut as u64),
                TraceError::Corrupt { .. } => {}
                other => panic!("cut at {cut}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = write_binary(&sample_refs());
        bytes.push(0x00);
        let err = TraceFile::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn block_length_mismatch_is_corrupt() {
        let mut bytes = write_binary(&sample_refs());
        // The header is magic(4) + version(2) + flags(1) + seed(8) +
        // threads varint(1) + name-length varint(1) + "sample"(6) = 23
        // bytes; byte 23 is thread 0's id and byte 24 its body length.
        // Shrinking the length desynchronizes the block index.
        bytes[24] -= 2;
        let err = match TraceFile::from_bytes(bytes) {
            Err(e) => e,
            Ok(t) => t.validate().unwrap_err(),
        };
        assert!(
            matches!(
                err,
                TraceError::Corrupt { .. } | TraceError::Truncated { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_thread_is_typed() {
        let trace = TraceFile::from_bytes(write_binary(&sample_refs())).unwrap();
        let err = trace.thread(7).unwrap_err();
        assert_eq!(
            err,
            TraceError::ThreadOutOfRange {
                thread: 7,
                threads: 2
            }
        );
    }
}
