//! A set-associative cache array.
//!
//! `Cache` models tags, state and residency metadata only — data contents do
//! not affect refresh behaviour or energy, so they are not simulated. The CMP
//! simulator composes these arrays into the private L1/L2 and the banked,
//! shared L3 of the paper's configuration.

use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;

use crate::addr::LineAddr;
use crate::config::CacheGeometry;
use crate::line::{CacheLine, MesiState};
use crate::set::CacheSet;

/// The outcome of looking up a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The set the line maps to.
    pub set_index: u64,
    /// The way the line was found in.
    pub way: usize,
    /// The line's MESI state at the time of lookup.
    pub state: MesiState,
}

/// A valid line displaced by a fill, which the caller must handle
/// (write back if dirty, and maintain inclusion in upper levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line (state and metadata at eviction time).
    pub line: CacheLine,
}

impl EvictedLine {
    /// Whether the evicted line must be written back to the next level.
    #[must_use]
    pub fn needs_writeback(&self) -> bool {
        self.line.is_dirty()
    }
}

/// Fixed-field access counters, kept as plain integers so the per-access
/// hot path never touches a map. [`Cache::stats`] materializes them into a
/// [`StatRegistry`] (only counters that have fired, matching the shape a
/// registry built incrementally would have had).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    reads: u64,
    writes: u64,
    fills: u64,
    evictions: u64,
    dirty_evictions: u64,
    invalidations: u64,
    flushed_dirty: u64,
    flushes: u64,
}

/// A set-associative cache array (one bank, for banked caches).
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    geometry: CacheGeometry,
    sets: Vec<CacheSet>,
    /// `num_sets - 1`, precomputed so set selection is a single mask.
    set_mask: u64,
    counters: CacheCounters,
}

impl Cache {
    /// Creates an empty cache with the given geometry and LRU replacement.
    #[must_use]
    pub fn new(name: &str, geometry: CacheGeometry) -> Self {
        let sets = (0..geometry.num_sets())
            .map(|_| CacheSet::new(geometry.ways()))
            .collect();
        Cache {
            name: name.to_owned(),
            geometry,
            sets,
            set_mask: geometry.num_sets() - 1,
            counters: CacheCounters::default(),
        }
    }

    /// The cache's name (used for statistics and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Accumulated statistics (hits, misses, fills, evictions,
    /// invalidations), materialized from the internal fixed-field counters.
    /// Only counters that have fired at least once appear, matching the
    /// shape of a registry built incrementally.
    #[must_use]
    pub fn stats(&self) -> StatRegistry {
        let c = &self.counters;
        let mut out = StatRegistry::new();
        for (name, value, fired) in [
            ("hits", c.hits, c.hits > 0),
            ("misses", c.misses, c.misses > 0),
            ("reads", c.reads, c.reads > 0),
            ("writes", c.writes, c.writes > 0),
            ("fills", c.fills, c.fills > 0),
            ("evictions", c.evictions, c.evictions > 0),
            ("dirty_evictions", c.dirty_evictions, c.dirty_evictions > 0),
            ("invalidations", c.invalidations, c.invalidations > 0),
            ("flushed_dirty", c.flushed_dirty, c.flushes > 0),
        ] {
            if fired {
                out.add(name, value);
            }
        }
        out
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> u64 {
        // num_sets is validated as a power of two at construction, so set
        // selection is a single mask — no per-access assertion.
        addr.raw() & self.set_mask
    }

    /// Looks up `addr` without modifying replacement or residency state.
    #[must_use]
    pub fn probe(&self, addr: LineAddr) -> Option<LookupOutcome> {
        let set_index = self.set_of(addr);
        let set = &self.sets[set_index as usize];
        set.find(addr).map(|way| LookupOutcome {
            set_index,
            way,
            state: set.line(way).expect("found way is occupied").state,
        })
    }

    /// Looks up `addr` as a normal access at `now`: updates replacement
    /// order and the line's last-touch metadata, and counts a hit or miss.
    pub fn lookup(&mut self, addr: LineAddr, now: Cycle) -> Option<LookupOutcome> {
        self.lookup_prev(addr, now).map(|(_, outcome)| outcome)
    }

    /// Like [`Cache::lookup`], but additionally returns a copy of the line
    /// *as it was before this access touched it* — one tag search where the
    /// simulator's settle-then-touch pattern previously needed two
    /// (`line()` for the pre-access metadata, then `lookup()`).
    pub fn lookup_prev(
        &mut self,
        addr: LineAddr,
        now: Cycle,
    ) -> Option<(CacheLine, LookupOutcome)> {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        match set.find(addr) {
            Some(way) => {
                set.touch_way(way);
                let line = set.line_mut(way).expect("found way is occupied");
                let prev = *line;
                line.meta.touch(now);
                let state = line.state;
                self.counters.hits += 1;
                Some((
                    prev,
                    LookupOutcome {
                        set_index,
                        way,
                        state,
                    },
                ))
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Reads the line (it must be present), updating metadata.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn read_hit(&mut self, addr: LineAddr, now: Cycle) {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        let way = set.find(addr).expect("read_hit on a missing line");
        set.touch_way(way);
        set.line_mut(way).expect("found way is occupied").read(now);
        self.counters.reads += 1;
    }

    /// Writes the line (it must be present), upgrading it to Modified.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn write_hit(&mut self, addr: LineAddr, now: Cycle) {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        let way = set.find(addr).expect("write_hit on a missing line");
        set.touch_way(way);
        set.line_mut(way).expect("found way is occupied").write(now);
        self.counters.writes += 1;
    }

    /// Fills `addr` in the given state, returning any valid line displaced.
    pub fn fill(&mut self, addr: LineAddr, state: MesiState, now: Cycle) -> Option<EvictedLine> {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        debug_assert!(
            set.find(addr).is_none(),
            "fill of a line that is already present"
        );
        let way = set.pick_victim();
        let evicted = set.install(way, CacheLine::new(addr, state, now));
        self.counters.fills += 1;
        evicted.map(|line| {
            self.counters.evictions += 1;
            if line.is_dirty() {
                self.counters.dirty_evictions += 1;
            }
            EvictedLine { line }
        })
    }

    /// Changes the state of a resident line (coherence downgrades/upgrades).
    ///
    /// Returns `false` if the line is not present.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        match set.find(addr) {
            Some(way) => {
                set.line_mut(way).expect("found way is occupied").state = state;
                true
            }
            None => false,
        }
    }

    /// Invalidates `addr` if present, returning the line as it was.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let set_index = self.set_of(addr);
        let removed = self.sets[set_index as usize].invalidate(addr);
        if removed.is_some() {
            self.counters.invalidations += 1;
        }
        removed
    }

    /// Immutable access to a resident line.
    #[must_use]
    pub fn line(&self, addr: LineAddr) -> Option<&CacheLine> {
        let set_index = self.set_of(addr);
        let set = &self.sets[set_index as usize];
        set.find(addr).and_then(|way| set.line(way))
    }

    /// Mutable access to a resident line.
    pub fn line_mut(&mut self, addr: LineAddr) -> Option<&mut CacheLine> {
        let set_index = self.set_of(addr);
        let set = &mut self.sets[set_index as usize];
        match set.find(addr) {
            Some(way) => set.line_mut(way),
            None => None,
        }
    }

    /// Iterates over all valid resident lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets.iter().flat_map(CacheSet::iter_valid)
    }

    /// Iterates mutably over all valid resident lines.
    pub fn iter_valid_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> {
        self.sets.iter_mut().flat_map(CacheSet::iter_valid_mut)
    }

    /// Number of valid resident lines.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.sets.iter().map(|s| s.occupancy() as u64).sum()
    }

    /// Number of valid dirty resident lines.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.sets.iter().map(|s| s.dirty_count() as u64).sum()
    }

    /// Copies every valid resident line into `out` (cleared first). Lets
    /// callers that repeatedly snapshot residency — the simulator's
    /// end-of-run settlement, flush and invalidation paths — reuse one
    /// scratch buffer instead of collecting a fresh `Vec` each time.
    pub fn collect_valid_into(&self, out: &mut Vec<CacheLine>) {
        out.clear();
        out.extend(self.iter_valid().copied());
    }

    /// Invalidates every line, returning the dirty ones (end-of-run flush).
    pub fn flush(&mut self) -> Vec<CacheLine> {
        let mut dirty = Vec::new();
        for set in &mut self.sets {
            for line in set.iter_valid_mut() {
                if line.is_dirty() {
                    dirty.push(*line);
                }
                line.invalidate();
            }
        }
        self.counters.flushes += 1;
        self.counters.flushed_dirty += dirty.len() as u64;
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn small_cache() -> Cache {
        // 8 sets x 2 ways x 64B = 1 KB.
        Cache::new("test", CacheGeometry::new(1024, 2, 64).unwrap())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        let a = LineAddr::new(0x40);
        assert!(c.lookup(a, Cycle::ZERO).is_none());
        assert!(c.fill(a, MesiState::Exclusive, Cycle::new(1)).is_none());
        let hit = c.lookup(a, Cycle::new(2)).unwrap();
        assert_eq!(hit.state, MesiState::Exclusive);
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
        assert_eq!(c.stats().get("fills"), 1);
    }

    #[test]
    fn conflicting_fills_evict() {
        let mut c = small_cache();
        // Lines 0, 8, 16 map to the same set (8 sets).
        for i in 0..3u64 {
            c.fill(LineAddr::new(i * 8), MesiState::Shared, Cycle::new(i));
        }
        assert_eq!(c.stats().get("evictions"), 1);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn dirty_eviction_flagged() {
        let mut c = small_cache();
        c.fill(LineAddr::new(0), MesiState::Modified, Cycle::ZERO);
        c.fill(LineAddr::new(8), MesiState::Shared, Cycle::ZERO);
        let evicted = c
            .fill(LineAddr::new(16), MesiState::Shared, Cycle::ZERO)
            .unwrap();
        assert!(evicted.needs_writeback());
        assert_eq!(c.stats().get("dirty_evictions"), 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small_cache();
        let a = LineAddr::new(3);
        c.fill(a, MesiState::Exclusive, Cycle::ZERO);
        c.write_hit(a, Cycle::new(5));
        assert!(c.line(a).unwrap().is_dirty());
        assert_eq!(c.dirty_count(), 1);
        c.read_hit(a, Cycle::new(9));
        assert_eq!(c.line(a).unwrap().meta.last_touch, Cycle::new(9));
    }

    #[test]
    fn probe_does_not_touch() {
        let mut c = small_cache();
        let a = LineAddr::new(3);
        c.fill(a, MesiState::Exclusive, Cycle::new(1));
        let _ = c.probe(a);
        assert_eq!(c.line(a).unwrap().meta.last_touch, Cycle::new(1));
        assert_eq!(c.stats().get("hits"), 0);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = small_cache();
        let a = LineAddr::new(7);
        c.fill(a, MesiState::Modified, Cycle::ZERO);
        assert!(c.set_state(a, MesiState::Shared));
        assert!(!c.line(a).unwrap().is_dirty());
        let removed = c.invalidate(a).unwrap();
        assert_eq!(removed.state, MesiState::Shared);
        assert!(c.line(a).is_none());
        assert!(!c.set_state(a, MesiState::Shared));
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn flush_returns_dirty_lines_and_empties_cache() {
        let mut c = small_cache();
        c.fill(LineAddr::new(1), MesiState::Modified, Cycle::ZERO);
        c.fill(LineAddr::new(2), MesiState::Shared, Cycle::ZERO);
        c.fill(LineAddr::new(3), MesiState::Modified, Cycle::ZERO);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small_cache();
        assert_eq!(c.occupancy(), 0);
        for i in 0..10u64 {
            c.fill(LineAddr::new(i), MesiState::Shared, Cycle::ZERO);
        }
        assert_eq!(c.occupancy(), 10);
        assert_eq!(c.iter_valid().count(), 10);
    }
}
