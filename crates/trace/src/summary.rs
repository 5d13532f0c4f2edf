//! Streaming trace summaries for `trace info`-style reporting.

use std::fmt;

use refrint_engine::stats::Histogram;

use crate::error::TraceError;
use crate::format::{TraceMeta, FORMAT_VERSION};
use crate::reader::TraceFile;

/// Aggregate statistics of a trace, computed in one streaming pass:
/// record/read/write counts, per-thread lengths, and the gap and
/// address-stride distributions the refresh policies care about.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The trace's header metadata.
    pub meta: TraceMeta,
    /// Total references.
    pub records: u64,
    /// Load references.
    pub reads: u64,
    /// Store references.
    pub writes: u64,
    /// References per thread, indexed by thread id.
    pub per_thread: Vec<u64>,
    /// Distribution of compute gaps (cycles between references).
    pub gaps: Histogram,
    /// Distribution of absolute address strides between consecutive
    /// references of the same thread, in bytes.
    pub strides: Histogram,
    /// Lowest byte address referenced (0 if the trace is empty).
    pub min_addr: u64,
    /// Highest byte address referenced (0 if the trace is empty).
    pub max_addr: u64,
}

impl TraceSummary {
    /// Streams every record of `trace` once and aggregates the summary.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] hit while decoding.
    pub fn collect(trace: &TraceFile) -> Result<Self, TraceError> {
        let meta = trace.meta().clone();
        let mut summary = TraceSummary {
            records: 0,
            reads: 0,
            writes: 0,
            per_thread: vec![0; meta.threads],
            // Gaps are small (tens of cycles); strides span the footprint.
            gaps: Histogram::exponential(20),
            strides: Histogram::exponential(40),
            min_addr: u64::MAX,
            max_addr: 0,
            meta,
        };
        for t in 0..summary.meta.threads {
            let mut prev_addr: Option<u64> = None;
            for r in trace.thread(t)? {
                let r = r?;
                summary.records += 1;
                summary.per_thread[t] += 1;
                if r.is_write() {
                    summary.writes += 1;
                } else {
                    summary.reads += 1;
                }
                summary.gaps.record(r.gap_cycles);
                let addr = r.addr.raw();
                if let Some(prev) = prev_addr {
                    summary.strides.record(prev.abs_diff(addr));
                }
                prev_addr = Some(addr);
                summary.min_addr = summary.min_addr.min(addr);
                summary.max_addr = summary.max_addr.max(addr);
            }
        }
        if summary.records == 0 {
            summary.min_addr = 0;
        }
        Ok(summary)
    }

    /// The touched address span in bytes (an upper bound on the footprint).
    #[must_use]
    pub fn address_span(&self) -> u64 {
        self.max_addr.saturating_sub(self.min_addr)
    }
}

/// Formats a histogram as `mean M  p50 A  p90 B  p99 C  max D`.
fn distribution_line(h: &Histogram) -> String {
    match (h.mean(), h.max()) {
        (Some(mean), Some(max)) => format!(
            "mean {:.1}  p50 {}  p90 {}  p99 {}  max {}",
            mean,
            h.percentile(50.0).unwrap_or(0),
            h.percentile(90.0).unwrap_or(0),
            h.percentile(99.0).unwrap_or(0),
            max
        ),
        _ => "(no samples)".to_owned(),
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "workload        : {}", self.meta.workload)?;
        writeln!(f, "format          : binary v{FORMAT_VERSION}")?;
        writeln!(f, "threads         : {}", self.meta.threads)?;
        writeln!(f, "seed            : {:#x}", self.meta.seed)?;
        writeln!(
            f,
            "records         : {} (reads {} / writes {})",
            self.records, self.reads, self.writes
        )?;
        let (min, max) = self
            .per_thread
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &n| (lo.min(n), hi.max(n)));
        writeln!(
            f,
            "per thread      : min {}  max {}",
            if self.records == 0 { 0 } else { min },
            max
        )?;
        writeln!(f, "gap cycles      : {}", distribution_line(&self.gaps))?;
        writeln!(f, "addr stride (B) : {}", distribution_line(&self.strides))?;
        write!(
            f,
            "address span    : {:.1} MB ({:#x}..{:#x})",
            self.address_span() as f64 / (1024.0 * 1024.0),
            self.min_addr,
            self.max_addr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture_model;
    use crate::writer::TraceWriter;
    use refrint_workloads::apps::AppPreset;

    #[test]
    fn summary_counts_and_distributions() {
        let model = AppPreset::Blackscholes
            .model()
            .with_threads(2)
            .with_refs_per_thread(500);
        let meta = TraceMeta::new(&model.name, model.threads, 9);
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        capture_model(&model, 9, &mut w).unwrap();
        let trace = TraceFile::from_bytes(w.into_inner().unwrap()).unwrap();
        let s = TraceSummary::collect(&trace).unwrap();
        assert_eq!(s.records, 1000);
        assert_eq!(s.reads + s.writes, 1000);
        assert_eq!(s.per_thread, vec![500, 500]);
        assert_eq!(s.gaps.count(), 1000);
        // One stride per consecutive pair within each thread.
        assert_eq!(s.strides.count(), 998);
        assert!(s.max_addr < model.footprint_bytes());
        assert!(s.address_span() > 0);
        let text = s.to_string();
        assert!(text.contains("blackscholes"));
        assert!(text.contains("p99"));
        assert!(text.contains("records"));
    }
}
