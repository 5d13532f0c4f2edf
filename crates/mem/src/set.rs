//! A single set of a set-associative cache.

use refrint_engine::time::Cycle;

use crate::addr::LineAddr;
use crate::line::{CacheLine, LineMeta, MesiState};
use crate::replacement::ReplacementState;

/// One set: a fixed number of ways plus their LRU order.
///
/// Ways are stored as a flat `Vec<CacheLine>` (no `Option` boxing): an
/// empty way is simply a line in [`MesiState::Invalid`]. This keeps the
/// per-access tag search a dense linear scan and lets `pick_victim` run
/// without any per-call allocation — both on the simulator's innermost
/// loop.
#[derive(Debug, Clone)]
pub struct CacheSet {
    ways: Vec<CacheLine>,
    replacement: ReplacementState,
}

/// An empty way: invalid, address zero (never matched because `find`
/// requires validity).
fn empty_way() -> CacheLine {
    CacheLine {
        addr: LineAddr::new(0),
        state: MesiState::Invalid,
        meta: LineMeta::default(),
    }
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    #[must_use]
    pub fn new(ways: u8) -> Self {
        CacheSet {
            ways: vec![empty_way(); ways as usize],
            replacement: ReplacementState::new(ways),
        }
    }

    /// Associativity of this set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways.len()
    }

    /// Finds the way holding `addr`, if present and valid.
    #[must_use]
    pub fn find(&self, addr: LineAddr) -> Option<usize> {
        self.ways
            .iter()
            .position(|line| line.addr == addr && line.is_valid())
    }

    /// Immutable access to the (valid) line in `way`.
    #[must_use]
    pub fn line(&self, way: usize) -> Option<&CacheLine> {
        self.ways.get(way).filter(|l| l.is_valid())
    }

    /// Mutable access to the (valid) line in `way`.
    pub fn line_mut(&mut self, way: usize) -> Option<&mut CacheLine> {
        self.ways.get_mut(way).filter(|l| l.is_valid())
    }

    /// Records an access to `way` for replacement purposes.
    pub fn touch_way(&mut self, way: usize) {
        self.replacement.on_access(way as u8);
    }

    /// Picks a victim way for a fill: the lowest-numbered invalid way if
    /// there is one, otherwise the LRU way.
    pub fn pick_victim(&mut self) -> usize {
        if let Some(free) = self.ways.iter().position(|l| !l.is_valid()) {
            return free;
        }
        usize::from(self.replacement.victim())
    }

    /// Installs `line` into `way`, returning whatever valid line was evicted.
    pub fn install(&mut self, way: usize, line: CacheLine) -> Option<CacheLine> {
        let previous = self.ways[way];
        self.ways[way] = line;
        self.replacement.on_access(way as u8);
        previous.is_valid().then_some(previous)
    }

    /// Invalidates the line holding `addr`, returning it if it was present.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let way = self.find(addr)?;
        let line = self.ways[way];
        self.ways[way].invalidate();
        Some(line)
    }

    /// Iterates over the valid lines in this set.
    pub fn iter_valid(&self) -> impl Iterator<Item = &CacheLine> {
        self.ways.iter().filter(|l| l.is_valid())
    }

    /// Iterates mutably over the valid lines in this set.
    pub fn iter_valid_mut(&mut self) -> impl Iterator<Item = &mut CacheLine> {
        self.ways.iter_mut().filter(|l| l.is_valid())
    }

    /// Number of valid lines in this set.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.iter_valid().count()
    }

    /// Number of valid dirty lines in this set.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.iter_valid().filter(|l| l.is_dirty()).count()
    }
}

/// Convenience constructor used by tests across the workspace.
#[must_use]
pub fn line_in(addr: u64, state: MesiState, at: u64) -> CacheLine {
    CacheLine::new(LineAddr::new(addr), state, Cycle::new(at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set4() -> CacheSet {
        CacheSet::new(4)
    }

    #[test]
    fn find_and_install() {
        let mut s = set4();
        assert_eq!(s.find(LineAddr::new(1)), None);
        let victim_way = s.pick_victim();
        let evicted = s.install(victim_way, line_in(1, MesiState::Exclusive, 0));
        assert!(evicted.is_none());
        assert_eq!(s.find(LineAddr::new(1)), Some(victim_way));
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn fills_prefer_invalid_ways_then_evict_lru() {
        let mut s = set4();
        for i in 0..4u64 {
            let way = s.pick_victim();
            assert!(s.install(way, line_in(i, MesiState::Shared, i)).is_none());
        }
        assert_eq!(s.occupancy(), 4);
        // Next fill must evict line 0 (the LRU).
        let way = s.pick_victim();
        let evicted = s.install(way, line_in(100, MesiState::Shared, 10));
        assert_eq!(evicted.unwrap().addr, LineAddr::new(0));
        assert_eq!(s.occupancy(), 4);
    }

    #[test]
    fn touch_changes_lru_order() {
        let mut s = set4();
        for i in 0..4u64 {
            let way = s.pick_victim();
            s.install(way, line_in(i, MesiState::Shared, i));
        }
        // Touch line 0 so line 1 becomes LRU.
        let way0 = s.find(LineAddr::new(0)).unwrap();
        s.touch_way(way0);
        let way = s.pick_victim();
        let evicted = s.install(way, line_in(100, MesiState::Shared, 10)).unwrap();
        assert_eq!(evicted.addr, LineAddr::new(1));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut s = set4();
        let way = s.pick_victim();
        s.install(way, line_in(5, MesiState::Modified, 0));
        assert_eq!(s.dirty_count(), 1);
        let removed = s.invalidate(LineAddr::new(5)).unwrap();
        assert!(removed.is_dirty());
        assert_eq!(s.find(LineAddr::new(5)), None);
        assert_eq!(s.occupancy(), 0);
        assert!(s.invalidate(LineAddr::new(5)).is_none());
    }

    #[test]
    fn line_accessors() {
        let mut s = set4();
        let way = s.pick_victim();
        s.install(way, line_in(9, MesiState::Exclusive, 3));
        assert_eq!(s.line(way).unwrap().addr, LineAddr::new(9));
        s.line_mut(way).unwrap().write(Cycle::new(7));
        assert!(s.line(way).unwrap().is_dirty());
        assert!(s.line(99).is_none());
    }

    #[test]
    fn iter_valid_mut_allows_bulk_updates() {
        let mut s = set4();
        for i in 0..3u64 {
            let way = s.pick_victim();
            s.install(way, line_in(i, MesiState::Exclusive, 0));
        }
        for l in s.iter_valid_mut() {
            l.write(Cycle::new(9));
        }
        assert_eq!(s.dirty_count(), 3);
    }
}
