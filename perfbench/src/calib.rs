//! The reference kernel and the host speed it measures.
//!
//! On the shared host this benchmark runs on, the CPU time of the same
//! simulation changes by 1.5–2.7x within minutes, while that of plain
//! arithmetic changes by about 10%: memory access is what slows down. The
//! kernel here is a fixed piece of work,
//! owned by the benchmark and independent of the code under test, timed
//! between the workload's repetitions. It is the same kind of work as the
//! simulator's hot path: a private L1 and L2 per core and a shared L3,
//! set-associative with LRU, at the paper chip's sizes, probed by 16 cores'
//! reference streams. Its CPU time over its nominal time is the host's
//! slowdown, and each timed call's CPU time is divided by the slowdown
//! measured around it (see `README.md`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::host::{self, Cost};
use crate::stats::median;
use crate::Metric;

const CORES: usize = 16;
/// 64-bit words per modelled line: tag + 1 (0 when empty), fill time,
/// last touch, hit count.
const LINE: usize = 4;
/// Rounds of one reference per core.
const ROUNDS: u64 = 1 << 15;

/// The kernel's CPU time that counts as a slowdown of 1, in seconds. It
/// only sets the scale of the normalised figures.
const NOMINAL_S: f64 = 0.1;

/// How often [`HostSpeed::tick`] re-times the kernel.
const EVERY: Duration = Duration::from_secs(1);

/// One set-associative cache level, all sets in one table.
struct Level {
    ways: usize,
    sets: usize,
    lines: Vec<u64>,
}

impl Level {
    fn new(bytes: usize, ways: usize) -> Level {
        let sets = bytes / 64 / ways;
        let mut lines = vec![0; sets * ways * LINE];
        // Write every page, so none is first touched (and faulted in)
        // inside the timed loop.
        for page in lines.chunks_mut(512) {
            page[0] = black_box(0);
        }
        Level { ways, sets, lines }
    }

    /// Looks `tag` up, filling the least recently used way on a miss;
    /// true on a hit.
    fn probe(&mut self, tag: u64, now: u64) -> bool {
        let tag = tag + 1;
        let set = (tag ^ (tag >> 17)) as usize % self.sets;
        let base = set * self.ways * LINE;
        let lines = &mut self.lines[base..base + self.ways * LINE];
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (w, line) in lines.chunks_exact_mut(LINE).enumerate() {
            if line[0] == tag {
                line[2] = now;
                line[3] = line[3].wrapping_add(1);
                return true;
            }
            if line[2] < oldest {
                (victim, oldest) = (w, line[2]);
            }
        }
        let line = &mut lines[victim * LINE..(victim + 1) * LINE];
        line.copy_from_slice(&[tag, now, now, 0]);
        false
    }
}

/// Runs the kernel once on freshly made caches and returns the CPU time
/// of its probes on the calling thread, in seconds (other threads of the
/// process do not count).
pub fn reference() -> f64 {
    let mut l1: Vec<Level> = (0..CORES).map(|_| Level::new(32 << 10, 4)).collect();
    let mut l2: Vec<Level> = (0..CORES).map(|_| Level::new(256 << 10, 8)).collect();
    let mut l3 = Level::new(16 << 20, 16);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let start = host::thread_cpu_time();
    let mut misses = 0u64;
    for now in 0..ROUNDS {
        for core in 0..CORES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 70% to a 16 KB private region, 22% to a 512 KB private
            // region, 8% anywhere in a 64 MB shared footprint.
            let tag = match x % 100 {
                0..70 => ((core as u64) << 32) | ((x >> 40) % 256),
                70..92 => ((core as u64) << 32) | (1 << 20) | ((x >> 40) % 8192),
                _ => (x >> 24) % (1 << 20),
            };
            if !l1[core].probe(tag, now) && !l2[core].probe(tag, now) && !l3.probe(tag, now) {
                misses += 1;
            }
        }
    }
    black_box(misses);
    (host::thread_cpu_time() - start).as_secs_f64()
}

/// The host's speed through one run: the kernel is timed at the start and
/// then at most once a second, between timed calls.
pub struct HostSpeed {
    timed_at: Instant,
    /// When each timing ended, and its slowdown: the kernel's CPU time
    /// over [`NOMINAL_S`].
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            timed_at: Instant::now(),
            samples: Vec::new(),
        };
        speed.retime();
        speed
    }

    fn retime(&mut self) {
        let slowdown = reference() / NOMINAL_S;
        self.timed_at = Instant::now();
        self.samples.push((self.timed_at, slowdown));
    }

    /// Re-times the kernel when the last timing is more than a second old.
    /// Call it between timed calls, never inside one, and once after the
    /// last; and before a high-water reset, never after one, as the
    /// kernel's tables can stay resident after they are freed.
    pub fn tick(&mut self) {
        if self.timed_at.elapsed() >= EVERY {
            self.retime();
        }
    }

    /// The slowdown around a timed call: the mean of the last timing
    /// before it started and the first after it ended (the one there is,
    /// at either end of the run).
    fn around(&self, cost: &Cost) -> f64 {
        let before = self.samples.iter().rev().find(|(t, _)| *t <= cost.start);
        let after = self.samples.iter().find(|(t, _)| *t >= cost.end);
        match (before, after) {
            (Some((_, a)), Some((_, b))) => (a + b) / 2.0,
            (Some((_, s)), None) | (None, Some((_, s))) => *s,
            (None, None) => self.slowdown(),
        }
    }

    /// The CPU time of a timed call, in seconds, as it would have been at
    /// a slowdown of 1.
    pub fn cpu(&self, cost: &Cost) -> f64 {
        cost.cpu / self.around(cost)
    }

    /// The median of `costs`' CPU times at a slowdown of 1, in seconds.
    pub fn median_cpu(&self, costs: &[Cost]) -> f64 {
        median(&costs.iter().map(|c| self.cpu(c)).collect::<Vec<_>>())
    }

    /// The run's median slowdown.
    fn slowdown(&self) -> f64 {
        median(&self.samples.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }

    /// The median slowdown, printed with the figures.
    pub fn metric(&self) -> Metric {
        Metric::new("host_slowdown", "x", self.slowdown(), self.samples.len())
    }
}
