//! Off-chip DRAM model.
//!
//! The paper models main memory as a fixed 40 ns access (Table 5.1) and
//! charges a per-access DRAM energy so that policies which push data off
//! chip (Dirty, WB(n,m)) are penalised fairly (Section 6). We additionally
//! model a simple per-channel bandwidth constraint so that pathological
//! invalidation storms show up as queueing delay rather than being free.

use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;

/// Kind of DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramOp {
    /// A line fetch caused by an LLC miss.
    Read,
    /// A write-back of a dirty line.
    Write,
}

/// A simple fixed-latency, bandwidth-limited DRAM model.
#[derive(Debug, Clone)]
pub struct DramModel {
    access_latency: Cycle,
    /// Minimum spacing between successive transactions on a channel,
    /// modelling limited off-chip bandwidth.
    min_gap: Cycle,
    /// Per-channel next-free cycle.
    channel_free_at: Vec<Cycle>,
    reads: u64,
    writes: u64,
    queue_delay_cycles: u64,
}

impl DramModel {
    /// Creates a DRAM model with the paper's 40-cycle (40 ns @ 1 GHz)
    /// access latency, 4 channels and a 4-cycle minimum inter-command gap.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Cycle::new(40), 4, Cycle::new(4))
    }

    /// Creates a DRAM model.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    #[must_use]
    pub fn new(access_latency: Cycle, channels: usize, min_gap: Cycle) -> Self {
        assert!(channels > 0, "DRAM needs at least one channel");
        DramModel {
            access_latency,
            min_gap,
            channel_free_at: vec![Cycle::ZERO; channels],
            reads: 0,
            writes: 0,
            queue_delay_cycles: 0,
        }
    }

    /// The fixed access latency (excluding queueing).
    #[must_use]
    pub fn access_latency(&self) -> Cycle {
        self.access_latency
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channel_free_at.len()
    }

    /// Issues a transaction for the line at `line_addr` at cycle `now` and
    /// returns its completion cycle (including any queueing delay).
    pub fn access(&mut self, line_addr: u64, op: DramOp, now: Cycle) -> Cycle {
        let ch = (line_addr % self.channel_free_at.len() as u64) as usize;
        let start = now.max(self.channel_free_at[ch]);
        let queue_delay = start - now;
        let done = start + self.access_latency;
        self.channel_free_at[ch] = start + self.min_gap;

        match op {
            DramOp::Read => self.reads += 1,
            DramOp::Write => self.writes += 1,
        }
        self.queue_delay_cycles += queue_delay.raw();
        done
    }

    /// Total number of transactions issued.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Number of read transactions issued.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write transactions issued.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Accumulated statistics, materialized from the fixed-field counters
    /// the hot path maintains (only counters that have fired appear,
    /// matching the shape of an incrementally built registry).
    #[must_use]
    pub fn stats(&self) -> StatRegistry {
        let mut out = StatRegistry::new();
        if self.reads > 0 {
            out.add("reads", self.reads);
        }
        if self.writes > 0 {
            out.add("writes", self.writes);
        }
        if self.total_accesses() > 0 {
            out.add("queue_delay_cycles", self.queue_delay_cycles);
        }
        out
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_latency_is_40_cycles() {
        let d = DramModel::paper_default();
        assert_eq!(d.access_latency(), Cycle::new(40));
        assert_eq!(d.channels(), 4);
    }

    #[test]
    fn unqueued_access_completes_after_latency() {
        let mut d = DramModel::paper_default();
        let done = d.access(0, DramOp::Read, Cycle::new(100));
        assert_eq!(done, Cycle::new(140));
        assert_eq!(d.reads(), 1);
        assert_eq!(d.total_accesses(), 1);
    }

    #[test]
    fn same_channel_back_to_back_accesses_queue() {
        let mut d = DramModel::new(Cycle::new(40), 1, Cycle::new(10));
        let first = d.access(0, DramOp::Read, Cycle::ZERO);
        let second = d.access(0, DramOp::Write, Cycle::ZERO);
        assert_eq!(first, Cycle::new(40));
        // Second cannot start until cycle 10 (min gap), completes at 50.
        assert_eq!(second, Cycle::new(50));
        assert_eq!(d.stats().get("queue_delay_cycles"), 10);
        assert_eq!(d.writes(), 1);
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let mut d = DramModel::new(Cycle::new(40), 2, Cycle::new(100));
        let a = d.access(0, DramOp::Read, Cycle::ZERO);
        let b = d.access(1, DramOp::Read, Cycle::ZERO);
        assert_eq!(a, Cycle::new(40));
        assert_eq!(b, Cycle::new(40));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = DramModel::new(Cycle::new(40), 0, Cycle::ZERO);
    }
}
