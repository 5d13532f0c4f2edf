//! The recorder the simulator owns, and the summary it produces.

use std::fmt;
use std::time::Instant;

use crate::span::{Span, SpanRing, Subsystem};

/// Observability configuration: sampling rate and ring capacity.
///
/// `sample_every = 1` is *full sampling* (every event lands in the span
/// ring and takes a host timestamp); the default of 64 keeps host overhead
/// well under the 5% budget while the exact cycle attribution — plain
/// integer adds — is always maintained for every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record every Nth event into the span ring (and host-time it).
    pub sample_every: u32,
    /// Span ring capacity.
    pub ring_capacity: usize,
}

impl ObsConfig {
    /// The default sampling rate (every 64th event).
    pub const DEFAULT_SAMPLE_EVERY: u32 = 64;
    /// The default span ring capacity.
    pub const DEFAULT_RING_CAPACITY: usize = 4096;

    /// Full sampling: every event is ring-recorded and host-timed.
    #[must_use]
    pub fn full() -> Self {
        ObsConfig {
            sample_every: 1,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }

    /// A specific sampling rate (clamped to at least 1).
    #[must_use]
    pub fn sampled(every: u32) -> Self {
        ObsConfig {
            sample_every: every.max(1),
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_every: Self::DEFAULT_SAMPLE_EVERY,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }
}

/// Per-subsystem attribution totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubsystemTotals {
    /// Which subsystem.
    pub subsystem: Subsystem,
    /// Events recorded (every event, not just sampled ones).
    pub spans: u64,
    /// Simulated cycles attributed (exact, from every event).
    pub cycles: u64,
    /// Host wall-time attributed, in nanoseconds (sampled, statistical).
    pub host_nanos: u64,
}

/// The span recorder a [`CmpSystem`](../../refrint/system/struct.CmpSystem.html)
/// owns.
///
/// Disabled recorders cost one branch per hook. Enabled recorders always
/// maintain the exact per-subsystem cycle attribution (three integer adds
/// per event) and, every `sample_every`th event, push the span into the
/// ring and charge the host wall-time since the previous sample to the
/// event's subsystem.
///
/// A recorder never reads or writes simulated state, which is what makes
/// observability non-perturbing: reports are byte-identical with spans on
/// or off.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    sample_every: u32,
    tick: u32,
    ring: SpanRing,
    spans: [u64; Subsystem::COUNT],
    cycles: [u64; Subsystem::COUNT],
    host_nanos: [u64; Subsystem::COUNT],
    last_sample: Option<Instant>,
}

impl Recorder {
    /// A disabled recorder: hooks reduce to one branch.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            sample_every: u32::MAX,
            tick: 0,
            ring: SpanRing::new(1),
            spans: [0; Subsystem::COUNT],
            cycles: [0; Subsystem::COUNT],
            host_nanos: [0; Subsystem::COUNT],
            last_sample: None,
        }
    }

    /// An enabled recorder with the given configuration.
    #[must_use]
    pub fn enabled(cfg: ObsConfig) -> Self {
        Recorder {
            enabled: true,
            sample_every: cfg.sample_every.max(1),
            tick: 0,
            ring: SpanRing::new(cfg.ring_capacity),
            spans: [0; Subsystem::COUNT],
            cycles: [0; Subsystem::COUNT],
            host_nanos: [0; Subsystem::COUNT],
            last_sample: None,
        }
    }

    /// Whether this recorder is collecting anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. The hot-path hook: a single branch when
    /// disabled; integer adds plus (every `sample_every`th event) one
    /// `Instant::now()` and a ring write when enabled.
    #[inline]
    pub fn record(
        &mut self,
        subsystem: Subsystem,
        kind: &'static str,
        t_start: u64,
        dur: u64,
        meta: u64,
    ) {
        if !self.enabled {
            return;
        }
        let i = subsystem.index();
        self.spans[i] += 1;
        self.cycles[i] += dur;
        if self.tick == 0 {
            self.tick = self.sample_every - 1;
            self.ring.push(Span {
                subsystem,
                kind,
                t_start,
                dur,
                meta,
            });
            let now = Instant::now();
            if let Some(prev) = self.last_sample {
                let nanos = now.duration_since(prev).as_nanos();
                self.host_nanos[i] += u64::try_from(nanos).unwrap_or(u64::MAX);
            }
            self.last_sample = Some(now);
        } else {
            self.tick -= 1;
        }
    }

    /// Summarises everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            sample_every: self.sample_every,
            per_subsystem: Subsystem::ALL
                .iter()
                .map(|&s| SubsystemTotals {
                    subsystem: s,
                    spans: self.spans[s.index()],
                    cycles: self.cycles[s.index()],
                    host_nanos: self.host_nanos[s.index()],
                })
                .collect(),
            sampled: self.ring.to_vec(),
            overwritten: self.ring.dropped(),
        }
    }
}

/// Everything a run's recorder collected, ready for export.
#[derive(Debug, Clone)]
pub struct ObsSummary {
    /// The sampling rate the recorder ran at.
    pub sample_every: u32,
    /// Attribution totals, one entry per subsystem in display order.
    pub per_subsystem: Vec<SubsystemTotals>,
    /// The sampled spans that survived in the ring, oldest first.
    pub sampled: Vec<Span>,
    /// Sampled spans overwritten by newer ones (ring overflow).
    pub overwritten: u64,
}

impl ObsSummary {
    /// Total events recorded across every subsystem.
    #[must_use]
    pub fn total_spans(&self) -> u64 {
        self.per_subsystem.iter().map(|t| t.spans).sum()
    }

    /// Total simulated cycles attributed across every subsystem.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.per_subsystem.iter().map(|t| t.cycles).sum()
    }

    /// Total host nanoseconds attributed across every subsystem.
    #[must_use]
    pub fn total_host_nanos(&self) -> u64 {
        self.per_subsystem.iter().map(|t| t.host_nanos).sum()
    }
}

impl fmt::Display for ObsSummary {
    /// The human-readable attribution table (`run --timing`, `obs
    /// --format text`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_cycles = self.total_cycles().max(1);
        let total_nanos = self.total_host_nanos().max(1);
        writeln!(
            f,
            "{:<10} {:>12} {:>14} {:>7} {:>12} {:>7}",
            "subsystem", "spans", "sim cycles", "share", "host us", "share"
        )?;
        for t in &self.per_subsystem {
            writeln!(
                f,
                "{:<10} {:>12} {:>14} {:>6.1}% {:>12.1} {:>6.1}%",
                t.subsystem.name(),
                t.spans,
                t.cycles,
                t.cycles as f64 * 100.0 / total_cycles as f64,
                t.host_nanos as f64 / 1e3,
                t.host_nanos as f64 * 100.0 / total_nanos as f64,
            )?;
        }
        write!(
            f,
            "sampling: every {} event(s), {} span(s) retained, {} overwritten",
            self.sample_every,
            self.sampled.len(),
            self.overwritten
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let mut r = Recorder::disabled();
        r.record(Subsystem::Cache, "x", 0, 10, 0);
        let s = r.summary();
        assert_eq!(s.total_spans(), 0);
        assert_eq!(s.total_cycles(), 0);
        assert!(s.sampled.is_empty());
    }

    #[test]
    fn cycle_attribution_is_exact_regardless_of_sampling() {
        for every in [1u32, 7, 64] {
            let mut r = Recorder::enabled(ObsConfig::sampled(every));
            for t in 0..100 {
                r.record(Subsystem::Cache, "a", t, 3, 0);
                r.record(Subsystem::Dram, "b", t, 5, 0);
            }
            let s = r.summary();
            assert_eq!(s.total_spans(), 200);
            let cache = &s.per_subsystem[Subsystem::Cache.index()];
            let dram = &s.per_subsystem[Subsystem::Dram.index()];
            assert_eq!(cache.cycles, 300, "sampling must not skew cycles");
            assert_eq!(dram.cycles, 500);
        }
    }

    #[test]
    fn full_sampling_retains_every_span_up_to_capacity() {
        let mut r = Recorder::enabled(ObsConfig::full());
        for t in 0..10 {
            r.record(Subsystem::Noc, "hop", t, 1, 2);
        }
        let s = r.summary();
        assert_eq!(s.sampled.len(), 10);
        assert_eq!(s.overwritten, 0);
        assert_eq!(s.sampled[0].t_start, 0);
        assert_eq!(s.sampled[9].t_start, 9);
    }

    #[test]
    fn sampled_recorder_keeps_every_nth_span() {
        let mut r = Recorder::enabled(ObsConfig::sampled(4));
        for t in 0..16 {
            r.record(Subsystem::Cache, "a", t, 1, 0);
        }
        let s = r.summary();
        let starts: Vec<u64> = s.sampled.iter().map(|sp| sp.t_start).collect();
        assert_eq!(starts, vec![0, 4, 8, 12]);
    }

    #[test]
    fn summary_table_lists_every_subsystem() {
        let mut r = Recorder::enabled(ObsConfig::full());
        r.record(Subsystem::Refresh, "stall", 1, 4, 0);
        let text = r.summary().to_string();
        for s in Subsystem::ALL {
            assert!(text.contains(s.name()), "missing {}", s.name());
        }
        assert!(text.contains("sampling: every 1 event(s)"));
    }
}
