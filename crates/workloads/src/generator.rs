//! Deterministic per-thread address-stream generation.
//!
//! Each thread's stream is produced by a [`ThreadStream`] iterator, seeded
//! from `(workload seed, thread id)`, so runs are exactly reproducible and
//! threads are de-correlated. The address space is laid out as:
//!
//! ```text
//! [ shared region ][ thread 0 private ][ thread 1 private ] ...
//! ```
//!
//! with each thread's hot set occupying the first bytes of its private
//! region. References pick a region (hot / private-cold / shared), then walk
//! a short sequential run inside it before jumping to a new random line,
//! which yields realistic spatial locality.

use refrint_engine::rng::DeterministicRng;
use refrint_mem::addr::Addr;

use crate::model::WorkloadModel;
use crate::trace::{AccessKind, MemRef};

const LINE: u64 = 64;

/// Which region the current run is walking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Hot,
    PrivateCold,
    Shared,
}

/// A deterministic iterator over one thread's memory references.
#[derive(Debug, Clone)]
pub struct ThreadStream {
    model: WorkloadModel,
    thread: usize,
    rng: DeterministicRng,
    emitted: u64,
    /// Current sequential-run state.
    region: Region,
    current_line: u64,
    run_left: u64,
}

impl ThreadStream {
    /// Creates the stream for `thread` of the workload described by `model`,
    /// derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the model fails validation or `thread` is out of range.
    #[must_use]
    pub fn new(model: &WorkloadModel, thread: usize, seed: u64) -> Self {
        model.validate().expect("workload model must be valid");
        assert!(thread < model.threads, "thread {thread} out of range");
        let rng = DeterministicRng::from_seed(seed).fork(thread as u64 + 1);
        ThreadStream {
            model: model.clone(),
            thread,
            rng,
            emitted: 0,
            region: Region::Hot,
            current_line: 0,
            run_left: 0,
        }
    }

    /// The thread index this stream belongs to.
    #[must_use]
    pub fn thread(&self) -> usize {
        self.thread
    }

    /// Base byte address of this thread's private region.
    #[must_use]
    pub fn private_base(&self) -> u64 {
        self.model.shared_bytes + self.thread as u64 * self.model.private_bytes_per_thread
    }

    fn region_bounds(&self, region: Region) -> (u64, u64) {
        match region {
            Region::Shared => (0, self.model.shared_bytes),
            Region::Hot => (
                self.private_base(),
                self.model
                    .hot_bytes_per_thread
                    .min(self.model.private_bytes_per_thread),
            ),
            Region::PrivateCold => (self.private_base(), self.model.private_bytes_per_thread),
        }
    }

    fn pick_region(&mut self) -> Region {
        if self.rng.chance(self.model.hot_fraction) {
            Region::Hot
        } else if self.rng.chance(self.model.shared_fraction) {
            Region::Shared
        } else {
            Region::PrivateCold
        }
    }

    fn start_run(&mut self) {
        self.region = self.pick_region();
        let (base, size) = self.region_bounds(self.region);
        let lines = (size / LINE).max(1);
        self.current_line = base / LINE + self.rng.below(lines);
        // Geometric run length around the configured mean, at least 1.
        self.run_left = 1 + self.rng.geometric(
            1.0 / self.model.stride_run as f64,
            self.model.stride_run * 4,
        );
    }

    fn next_addr(&mut self) -> Addr {
        if self.run_left == 0 {
            self.start_run();
        } else {
            let (base, size) = self.region_bounds(self.region);
            let first_line = base / LINE;
            let lines = (size / LINE).max(1);
            // Walk to the next line, wrapping within the region.
            self.current_line = first_line + ((self.current_line - first_line + 1) % lines);
        }
        self.run_left = self.run_left.saturating_sub(1);
        Addr::new(self.current_line * LINE + self.rng.below(LINE / 8) * 8)
    }
}

impl Iterator for ThreadStream {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        if self.emitted >= self.model.refs_per_thread {
            return None;
        }
        self.emitted += 1;
        let gap = self.rng.geometric(
            1.0 / self.model.mean_gap_cycles as f64,
            self.model.max_gap_cycles(),
        );
        let addr = self.next_addr();
        let kind = if self.rng.chance(self.model.write_fraction) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Some(MemRef::new(gap, addr, kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.model.refs_per_thread - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ThreadStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn model() -> WorkloadModel {
        WorkloadModel {
            name: "gen-test".into(),
            threads: 4,
            refs_per_thread: 2000,
            private_bytes_per_thread: 256 * 1024,
            shared_bytes: 512 * 1024,
            hot_bytes_per_thread: 8 * 1024,
            hot_fraction: 0.5,
            shared_fraction: 0.4,
            write_fraction: 0.3,
            mean_gap_cycles: 3,
            stride_run: 4,
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let m = model();
        let a: Vec<MemRef> = ThreadStream::new(&m, 1, 7).collect();
        let b: Vec<MemRef> = ThreadStream::new(&m, 1, 7).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2000);
    }

    #[test]
    fn different_threads_and_seeds_differ() {
        let m = model();
        let a: Vec<MemRef> = ThreadStream::new(&m, 0, 7).take(100).collect();
        let b: Vec<MemRef> = ThreadStream::new(&m, 1, 7).take(100).collect();
        let c: Vec<MemRef> = ThreadStream::new(&m, 0, 8).take(100).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn addresses_stay_inside_the_footprint() {
        let m = model();
        let limit = m.footprint_bytes();
        for t in 0..m.threads {
            for r in ThreadStream::new(&m, t, 3) {
                assert!(
                    r.addr.raw() < limit,
                    "address {} beyond footprint {limit}",
                    r.addr
                );
            }
        }
    }

    #[test]
    fn private_regions_do_not_overlap_between_threads() {
        let m = model();
        let shared = m.shared_bytes;
        let mut seen: Vec<HashSet<u64>> = vec![HashSet::new(); m.threads];
        for (t, thread_seen) in seen.iter_mut().enumerate() {
            for r in ThreadStream::new(&m, t, 3) {
                if r.addr.raw() >= shared {
                    thread_seen.insert(r.addr.raw());
                }
            }
        }
        for a in 0..m.threads {
            for b in (a + 1)..m.threads {
                assert!(seen[a].is_disjoint(&seen[b]), "threads {a} and {b} overlap");
            }
        }
    }

    #[test]
    fn write_fraction_is_respected_roughly() {
        let m = model();
        let refs: Vec<MemRef> = ThreadStream::new(&m, 0, 11).collect();
        let writes = refs.iter().filter(|r| r.is_write()).count() as f64;
        let frac = writes / refs.len() as f64;
        assert!((frac - 0.3).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn gaps_are_bounded_and_average_near_mean() {
        let m = model();
        let refs: Vec<MemRef> = ThreadStream::new(&m, 2, 11).collect();
        let max = refs.iter().map(|r| r.gap_cycles).max().unwrap();
        assert!(max <= m.max_gap_cycles());
        let mean: f64 = refs.iter().map(|r| r.gap_cycles as f64).sum::<f64>() / refs.len() as f64;
        assert!(
            mean > 0.5 && mean < m.mean_gap_cycles as f64 * 2.0,
            "mean gap {mean}"
        );
    }

    #[test]
    fn hot_fraction_concentrates_accesses() {
        // With a high hot fraction most distinct lines come from a tiny set.
        let mut m = model();
        m.hot_fraction = 0.95;
        m.shared_fraction = 0.5;
        let refs: Vec<MemRef> = ThreadStream::new(&m, 0, 5).collect();
        let distinct: HashSet<u64> = refs.iter().map(|r| r.addr.line(64).raw()).collect();
        // Footprint touched should be far smaller than the number of refs.
        assert!(
            distinct.len() < refs.len() / 4,
            "{} distinct lines",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_thread_panics() {
        let _ = ThreadStream::new(&model(), 99, 0);
    }
}
