//! Streaming trace writer.
//!
//! [`TraceWriter`] emits the binary format. Threads are written in order,
//! one at a time, and only the current thread's encoded block is buffered
//! (the block header carries the block's byte length, which is only known
//! once the thread ends) — the whole trace never lives in memory.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use refrint_workloads::trace::MemRef;

use crate::error::TraceError;
use crate::format::{
    push_varint, zigzag_encode, TraceMeta, BINARY_MAGIC, FORMAT_VERSION, MAX_GAP_CYCLES,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterState {
    /// Waiting for `begin_thread(next)`.
    Between {
        next: usize,
    },
    /// Inside the block of `thread`.
    InThread {
        thread: usize,
    },
    Finished,
}

/// Streaming writer for the binary trace format: a sequence of
/// `begin_thread(0..threads) / record* / end_thread` calls followed by one
/// `finish` (or [`TraceWriter::into_inner`]).
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    threads: usize,
    state: WriterState,
    /// Encoded records of the current thread block (flushed at
    /// `end_thread`, when the block length is known).
    block: Vec<u8>,
    prev_addr: u64,
    written: u64,
    records: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates `path` and writes the binary header for `meta`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be created,
    /// [`TraceError::InvalidMeta`] for a zero-thread header.
    pub fn create(path: impl AsRef<Path>, meta: &TraceMeta) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(|e| TraceError::io(0, &e))?;
        Self::new(BufWriter::new(file), meta)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `out` and writes the binary header for `meta`.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failures, [`TraceError::InvalidMeta`]
    /// for a zero-thread header.
    pub fn new(out: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        meta.validate()?;
        let mut header = Vec::with_capacity(32 + meta.workload.len());
        header.extend_from_slice(&BINARY_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.push(0); // flags, reserved
        header.extend_from_slice(&meta.seed.to_le_bytes());
        push_varint(&mut header, meta.threads as u64);
        push_varint(&mut header, meta.workload.len() as u64);
        header.extend_from_slice(meta.workload.as_bytes());
        let mut writer = TraceWriter {
            out,
            threads: meta.threads,
            state: WriterState::Between { next: 0 },
            block: Vec::new(),
            prev_addr: 0,
            written: 0,
            records: 0,
        };
        writer.write_all(&header)?;
        Ok(writer)
    }

    /// Total references written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Starts the block for `thread`. Threads must be written in order,
    /// starting at 0.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidMeta`] on out-of-order threads.
    pub fn begin_thread(&mut self, thread: usize) -> Result<(), TraceError> {
        if thread >= self.threads {
            return Err(TraceError::InvalidMeta {
                reason: format!(
                    "thread {thread} out of range for a {}-thread trace header",
                    self.threads
                ),
            });
        }
        let misuse = match self.state {
            WriterState::Between { next } if next == thread => None,
            WriterState::Between { next } => Some(format!(
                "threads must be written in order: expected {next}, got {thread}"
            )),
            WriterState::InThread { thread: t } => Some(format!(
                "begin_thread({thread}) while thread {t} is still open"
            )),
            WriterState::Finished => Some("begin_thread after finish".into()),
        };
        if let Some(reason) = misuse {
            return Err(TraceError::InvalidMeta { reason });
        }
        self.state = WriterState::InThread { thread };
        self.prev_addr = 0;
        self.block.clear();
        Ok(())
    }

    /// Appends one reference to the current thread's block.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidMeta`] outside a thread block or for a gap
    /// beyond [`MAX_GAP_CYCLES`].
    pub fn record(&mut self, r: &MemRef) -> Result<(), TraceError> {
        self.open_thread("record")?;
        if r.gap_cycles > MAX_GAP_CYCLES {
            return Err(TraceError::InvalidMeta {
                reason: format!(
                    "gap of {} cycles exceeds the encodable maximum {MAX_GAP_CYCLES}",
                    r.gap_cycles
                ),
            });
        }
        let tag = ((r.gap_cycles << 1) | u64::from(r.is_write())) + 1;
        push_varint(&mut self.block, tag);
        let delta = r.addr.raw().wrapping_sub(self.prev_addr) as i64;
        push_varint(&mut self.block, zigzag_encode(delta));
        self.prev_addr = r.addr.raw();
        self.records += 1;
        Ok(())
    }

    /// Ends the current thread's block and writes it out.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidMeta`] outside a thread block, [`TraceError::Io`]
    /// on write failures.
    pub fn end_thread(&mut self) -> Result<(), TraceError> {
        let thread = self.open_thread("end_thread")?;
        self.block.push(0); // record terminator
        let mut head = Vec::with_capacity(12);
        push_varint(&mut head, thread as u64);
        push_varint(&mut head, self.block.len() as u64);
        self.write_all(&head)?;
        let block = std::mem::take(&mut self.block);
        self.write_all(&block)?;
        self.state = WriterState::Between { next: thread + 1 };
        Ok(())
    }

    /// Completes the trace. Every declared thread must have been written.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidMeta`] if threads are missing, [`TraceError::Io`]
    /// on flush failures.
    pub fn finish(&mut self) -> Result<(), TraceError> {
        let misuse = match self.state {
            WriterState::Between { next } if next == self.threads => None,
            WriterState::Between { next } => Some(format!(
                "finish with only {next} of {} threads written",
                self.threads
            )),
            WriterState::InThread { thread } => {
                Some(format!("finish while thread {thread} is still open"))
            }
            WriterState::Finished => Some("finish called twice".into()),
        };
        if let Some(reason) = misuse {
            return Err(TraceError::InvalidMeta { reason });
        }
        self.out
            .flush()
            .map_err(|e| TraceError::io(self.written, &e))?;
        self.state = WriterState::Finished;
        Ok(())
    }

    /// Finishes the trace (unless already finished) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// See [`TraceWriter::finish`].
    pub fn into_inner(mut self) -> Result<W, TraceError> {
        if self.state != WriterState::Finished {
            self.finish()?;
        }
        Ok(self.out)
    }

    /// The thread whose block is open, or [`TraceError::InvalidMeta`]
    /// naming `what` was called outside one.
    fn open_thread(&self, what: &str) -> Result<usize, TraceError> {
        match self.state {
            WriterState::InThread { thread } => Ok(thread),
            _ => Err(TraceError::InvalidMeta {
                reason: format!("{what} outside a thread block"),
            }),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.out
            .write_all(bytes)
            .map_err(|e| TraceError::io(self.written, &e))?;
        self.written += bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint_mem::addr::Addr;
    use refrint_workloads::trace::AccessKind;

    fn meta() -> TraceMeta {
        TraceMeta::new("unit", 2, 7)
    }

    fn r(gap: u64, addr: u64, write: bool) -> MemRef {
        MemRef::new(
            gap,
            Addr::new(addr),
            if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        )
    }

    #[test]
    fn binary_writer_emits_header_and_blocks() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        w.begin_thread(0).unwrap();
        w.record(&r(3, 0x40, false)).unwrap();
        w.record(&r(0, 0x80, true)).unwrap();
        w.end_thread().unwrap();
        w.begin_thread(1).unwrap();
        w.end_thread().unwrap();
        assert_eq!(w.records(), 2);
        let bytes = w.into_inner().unwrap();
        assert_eq!(&bytes[..4], b"RFRT");
        assert_eq!(bytes[4..6], FORMAT_VERSION.to_le_bytes());
    }

    #[test]
    fn out_of_order_threads_are_rejected() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        let err = w.begin_thread(1).unwrap_err();
        assert!(matches!(err, TraceError::InvalidMeta { .. }), "{err}");
        w.begin_thread(0).unwrap();
        let err = w.begin_thread(1).unwrap_err();
        assert!(err.to_string().contains("still open"), "{err}");
    }

    #[test]
    fn records_outside_blocks_are_rejected() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        assert!(w.record(&r(0, 0, false)).is_err());
        assert!(w.end_thread().is_err());
    }

    #[test]
    fn finish_requires_every_thread() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        w.begin_thread(0).unwrap();
        w.end_thread().unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("1 of 2"), "{err}");
    }

    #[test]
    fn oversized_gaps_are_rejected() {
        let mut w = TraceWriter::new(Vec::new(), &meta()).unwrap();
        w.begin_thread(0).unwrap();
        let err = w.record(&r(u64::MAX, 0, false)).unwrap_err();
        assert!(matches!(err, TraceError::InvalidMeta { .. }), "{err}");
    }

    #[test]
    fn zero_thread_meta_is_rejected() {
        assert!(TraceWriter::new(Vec::new(), &TraceMeta::new("x", 0, 0)).is_err());
    }
}
