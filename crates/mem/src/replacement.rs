//! True-LRU replacement for set-associative caches.
//!
//! The paper does not dwell on replacement (normal LRU-class policies are
//! assumed: "any line which is not being used is quickly replaced by the
//! normal cache replacement policies", Section 6.2). Every cache in the
//! simulated chip uses true LRU, which is also what `refrint-oracle` models
//! independently.

/// Per-set LRU order.
///
/// One `ReplacementState` instance is kept per cache set; the set informs it
/// of accesses and asks it for the victim once every way is valid (free ways
/// are chosen by [`CacheSet::pick_victim`](crate::set::CacheSet::pick_victim)
/// before this is consulted).
#[derive(Debug, Clone)]
pub struct ReplacementState {
    /// `order[0]` is the MRU way, `order[ways-1]` the LRU way.
    order: Vec<u8>,
}

impl ReplacementState {
    /// Creates the LRU order for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 128.
    #[must_use]
    pub fn new(ways: u8) -> Self {
        assert!(ways > 0 && ways <= 128, "unsupported associativity {ways}");
        ReplacementState {
            order: (0..ways).collect(),
        }
    }

    /// Notifies the policy that `way` was accessed (hit or fill).
    pub fn on_access(&mut self, way: u8) {
        if let Some(pos) = self.order.iter().position(|&w| w == way) {
            self.order.remove(pos);
            self.order.insert(0, way);
        }
    }

    /// The least-recently-used way: the victim when every way holds a
    /// valid line.
    #[must_use]
    pub fn victim(&self) -> u8 {
        *self.order.last().expect("associativity is non-zero")
    }

    /// The associativity this state was built for.
    #[must_use]
    pub fn ways(&self) -> u8 {
        self.order.len() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::line::MesiState;
    use crate::set::{line_in, CacheSet};

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ReplacementState::new(4);
        // Touch ways in order 0,1,2,3 — way 0 is now LRU.
        for w in 0..4 {
            s.on_access(w);
        }
        assert_eq!(s.victim(), 0);
        // Touch way 0 again; way 1 becomes LRU.
        s.on_access(0);
        assert_eq!(s.victim(), 1);
    }

    #[test]
    fn invalid_way_preferred_over_lru() {
        let mut s = CacheSet::new(4);
        for i in 0..4u64 {
            let way = s.pick_victim();
            assert_eq!(way, i as usize);
            s.install(way, line_in(i, MesiState::Shared, i));
        }
        // Way 0 is LRU, but the freed way 2 is taken first.
        s.invalidate(LineAddr::new(2));
        assert_eq!(s.pick_victim(), 2);
    }

    #[test]
    fn ways_accessor() {
        assert_eq!(ReplacementState::new(4).ways(), 4);
        assert_eq!(ReplacementState::new(16).ways(), 16);
    }
}
