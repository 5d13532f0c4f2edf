//! Directory state: per-line owner and sharer tracking.
//!
//! The directory lives at the L3 (one slice per bank). Because the hierarchy
//! is inclusive, every line present in any private L1/L2 is also present in
//! the L3, and the directory entry for that L3 line records which tiles hold
//! it and whether one of them owns it in Modified state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use refrint_mem::addr::LineAddr;

/// A compact bit-set of tiles (cores) sharing a line. Supports up to 64 tiles,
/// which comfortably covers the paper's 16-core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        SharerSet(0)
    }

    /// A set containing only `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `tile >= 64`.
    #[must_use]
    pub fn single(tile: usize) -> Self {
        assert!(tile < 64, "sharer sets support at most 64 tiles");
        SharerSet(1 << tile)
    }

    /// Whether `tile` is in the set.
    #[must_use]
    pub fn contains(self, tile: usize) -> bool {
        tile < 64 && (self.0 >> tile) & 1 == 1
    }

    /// Adds `tile` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `tile >= 64`.
    pub fn insert(&mut self, tile: usize) {
        assert!(tile < 64, "sharer sets support at most 64 tiles");
        self.0 |= 1 << tile;
    }

    /// Removes `tile` from the set.
    pub fn remove(&mut self, tile: usize) {
        if tile < 64 {
            self.0 &= !(1 << tile);
        }
    }

    /// Number of tiles in the set.
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the tiles in the set, in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(t)
            }
        })
    }

    /// The set with `tile` removed (non-mutating convenience).
    #[must_use]
    pub fn without(mut self, tile: usize) -> Self {
        self.remove(tile);
        self
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for t in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for SharerSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = SharerSet::empty();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

/// The directory's view of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryEntry {
    /// No on-chip private cache holds the line (it may still be in the L3).
    #[default]
    Uncached,
    /// One or more tiles hold the line in a clean state.
    Shared(SharerSet),
    /// Exactly one tile owns the line, possibly dirty, in M or E state.
    Owned {
        /// The owning tile.
        owner: usize,
    },
    /// One tile owns a dirty copy (Dragon `Sm`) while other tiles hold
    /// clean replicas that receive word updates on writes. Only the Dragon
    /// protocol creates this entry; MESI never does.
    OwnedShared {
        /// The tile responsible for the eventual write-back.
        owner: usize,
        /// The clean replicas (never contains `owner`).
        sharers: SharerSet,
    },
}

impl DirectoryEntry {
    /// The set of tiles that hold the line according to the directory.
    #[must_use]
    pub fn holders(self) -> SharerSet {
        match self {
            DirectoryEntry::Uncached => SharerSet::empty(),
            DirectoryEntry::Shared(s) => s,
            DirectoryEntry::Owned { owner } => SharerSet::single(owner),
            DirectoryEntry::OwnedShared { owner, sharers } => {
                let mut all = sharers;
                all.insert(owner);
                all
            }
        }
    }

    /// Whether any private cache holds the line.
    #[must_use]
    pub fn is_cached(self) -> bool {
        !self.holders().is_empty()
    }

    /// Whether some tile is responsible for a (possibly dirty) owned copy.
    #[must_use]
    pub fn is_owned(self) -> bool {
        matches!(
            self,
            DirectoryEntry::Owned { .. } | DirectoryEntry::OwnedShared { .. }
        )
    }

    /// Removes `tile` from the entry (a private eviction). Removing a tile
    /// that does not hold the line leaves the entry unchanged.
    pub(crate) fn remove_holder(&mut self, tile: usize) {
        *self = match *self {
            DirectoryEntry::Uncached => DirectoryEntry::Uncached,
            DirectoryEntry::Owned { owner } if owner == tile => DirectoryEntry::Uncached,
            DirectoryEntry::Owned { owner } => DirectoryEntry::Owned { owner },
            DirectoryEntry::Shared(s) => {
                let s = s.without(tile);
                if s.is_empty() {
                    DirectoryEntry::Uncached
                } else {
                    DirectoryEntry::Shared(s)
                }
            }
            DirectoryEntry::OwnedShared { owner, sharers } if owner == tile => {
                // The owner leaves: the remaining replicas are clean
                // (the dirty data was written back by the eviction).
                if sharers.is_empty() {
                    DirectoryEntry::Uncached
                } else {
                    DirectoryEntry::Shared(sharers)
                }
            }
            DirectoryEntry::OwnedShared { owner, sharers } => {
                let sharers = sharers.without(tile);
                if sharers.is_empty() {
                    DirectoryEntry::Owned { owner }
                } else {
                    DirectoryEntry::OwnedShared { owner, sharers }
                }
            }
        };
    }

    /// Checks the entry invariants on a chip of `num_tiles` tiles:
    /// an `Owned` entry names a valid tile; a `Shared` entry is non-empty and
    /// all its tiles are valid; an `OwnedShared` entry has a valid owner,
    /// non-empty valid sharers, and the owner is not among them.
    #[must_use]
    pub(crate) fn check_invariants(self, num_tiles: usize) -> bool {
        match self {
            DirectoryEntry::Uncached => true,
            DirectoryEntry::Owned { owner } => owner < num_tiles,
            DirectoryEntry::Shared(s) => !s.is_empty() && s.iter().all(|t| t < num_tiles),
            DirectoryEntry::OwnedShared { owner, sharers } => {
                owner < num_tiles
                    && !sharers.is_empty()
                    && !sharers.contains(owner)
                    && sharers.iter().all(|t| t < num_tiles)
            }
        }
    }
}

/// The directory array: entries for every line tracked by one (or all) L3
/// bank(s). Entries are stored sparsely; absent entries mean `Uncached`.
#[derive(Debug, Clone)]
pub struct Directory {
    entries: HashMap<LineAddr, DirectoryEntry>,
}

impl Directory {
    /// Creates an empty directory for a chip of `num_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero or greater than 64, the most a
    /// [`SharerSet`] can name.
    #[must_use]
    pub fn new(num_tiles: usize) -> Self {
        assert!(
            num_tiles > 0 && num_tiles <= 64,
            "directory supports 1..=64 tiles"
        );
        Directory {
            entries: HashMap::new(),
        }
    }

    /// The entry for `line` (Uncached if never recorded).
    #[must_use]
    pub fn entry(&self, line: LineAddr) -> DirectoryEntry {
        self.entries.get(&line).copied().unwrap_or_default()
    }

    /// Runs `f` on the entry for `line` after a single lookup, then drops
    /// the slot if the entry came back `Uncached`, so the map stays sparse.
    pub(crate) fn update<R>(
        &mut self,
        line: LineAddr,
        f: impl FnOnce(&mut DirectoryEntry) -> R,
    ) -> R {
        match self.entries.entry(line) {
            Entry::Occupied(mut slot) => {
                let out = f(slot.get_mut());
                if *slot.get() == DirectoryEntry::Uncached {
                    slot.remove();
                }
                out
            }
            Entry::Vacant(slot) => {
                let mut entry = DirectoryEntry::Uncached;
                let out = f(&mut entry);
                if entry != DirectoryEntry::Uncached {
                    slot.insert(entry);
                }
                out
            }
        }
    }

    /// Removes the entry for `line` entirely (used when the L3 line itself is
    /// invalidated; inclusivity means no private copy may survive) and
    /// returns what it was.
    pub(crate) fn forget(&mut self, line: LineAddr) -> DirectoryEntry {
        self.entries.remove(&line).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CoherenceEngine, CoherenceProtocol, CoreRequest};

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(15);
        assert!(s.contains(3));
        assert!(s.contains(15));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![15]);
        assert_eq!(SharerSet::single(5).len(), 1);
        assert_eq!(s.to_string(), "{15}");
    }

    #[test]
    fn sharer_set_from_iterator_and_without() {
        let s: SharerSet = [1usize, 2, 9].into_iter().collect();
        assert_eq!(s.len(), 3);
        let s2 = s.without(2);
        assert!(!s2.contains(2));
        assert!(s.contains(2), "without must not mutate the original");
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn sharer_set_rejects_large_tiles() {
        let _ = SharerSet::single(64);
    }

    #[test]
    fn entry_holders() {
        assert!(DirectoryEntry::Uncached.holders().is_empty());
        assert_eq!(
            DirectoryEntry::Owned { owner: 7 }
                .holders()
                .iter()
                .collect::<Vec<_>>(),
            vec![7]
        );
        let s: SharerSet = [0usize, 1].into_iter().collect();
        assert_eq!(DirectoryEntry::Shared(s).holders(), s);
        assert!(DirectoryEntry::Owned { owner: 1 }.is_owned());
        assert!(!DirectoryEntry::Shared(s).is_owned());
        assert!(DirectoryEntry::Shared(s).is_cached());
        assert!(!DirectoryEntry::Uncached.is_cached());
    }

    #[test]
    fn directory_set_get_forget() {
        let mut d = Directory::new(16);
        let line = LineAddr::new(0x10);
        assert_eq!(d.entry(line), DirectoryEntry::Uncached);
        d.update(line, |e| *e = DirectoryEntry::Owned { owner: 2 });
        assert_eq!(d.entry(line), DirectoryEntry::Owned { owner: 2 });
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.forget(line), DirectoryEntry::Owned { owner: 2 });
        assert_eq!(d.entry(line), DirectoryEntry::Uncached);
        assert!(d.entries.is_empty());
        assert_eq!(d.forget(line), DirectoryEntry::Uncached);
    }

    #[test]
    fn setting_uncached_keeps_map_sparse() {
        let mut d = Directory::new(16);
        let line = LineAddr::new(0x10);
        d.update(line, |e| *e = DirectoryEntry::Owned { owner: 2 });
        d.update(line, |e| *e = DirectoryEntry::Uncached);
        assert!(d.entries.is_empty());
        // Through the engine: a request that leaves its entry `Uncached`
        // leaves no slot behind, whether the line was tracked or not.
        let mut engine = CoherenceEngine::new(CoherenceProtocol::Mesi, 16);
        engine.access(&mut d, line, 2, CoreRequest::Write);
        assert_eq!(d.entries.len(), 1);
        engine.access(&mut d, line, 2, CoreRequest::EvictDirty);
        assert!(d.entries.is_empty());
        engine.access(&mut d, LineAddr::new(0x11), 3, CoreRequest::EvictClean);
        assert!(d.entries.is_empty());
    }

    #[test]
    fn remove_holder_transitions() {
        // Owner evicts -> uncached.
        let mut e = DirectoryEntry::Owned { owner: 3 };
        e.remove_holder(3);
        assert_eq!(e, DirectoryEntry::Uncached);
        // Non-owner removal leaves the owner.
        let mut e = DirectoryEntry::Owned { owner: 3 };
        e.remove_holder(5);
        assert_eq!(e, DirectoryEntry::Owned { owner: 3 });
        // Shared shrink and collapse.
        let mut e = DirectoryEntry::Shared([1usize, 2].into_iter().collect());
        e.remove_holder(1);
        assert_eq!(e, DirectoryEntry::Shared(SharerSet::single(2)));
        e.remove_holder(2);
        assert_eq!(e, DirectoryEntry::Uncached);
    }

    #[test]
    fn invariants_hold_for_valid_entries() {
        assert!(DirectoryEntry::Uncached.check_invariants(16));
        assert!(DirectoryEntry::Owned { owner: 15 }.check_invariants(16));
        assert!(!DirectoryEntry::Owned { owner: 16 }.check_invariants(16));
        // An empty Shared set violates the invariant (it should be Uncached).
        assert!(!DirectoryEntry::Shared(SharerSet::empty()).check_invariants(16));
    }

    #[test]
    fn owned_shared_holders_and_removal() {
        let sharers: SharerSet = [1usize, 4].into_iter().collect();
        let mut e = DirectoryEntry::OwnedShared { owner: 2, sharers };
        assert_eq!(e.holders().iter().collect::<Vec<_>>(), vec![1, 2, 4]);
        assert!(e.is_owned());
        assert!(e.check_invariants(16));
        // A sharer leaves: the owner keeps the dirty copy.
        e.remove_holder(4);
        assert_eq!(
            e,
            DirectoryEntry::OwnedShared {
                owner: 2,
                sharers: SharerSet::single(1)
            }
        );
        // The last sharer leaves: collapse to a plain owner.
        e.remove_holder(1);
        assert_eq!(e, DirectoryEntry::Owned { owner: 2 });
        // The owner leaves while replicas remain: they stay as clean sharers.
        let mut e = DirectoryEntry::OwnedShared { owner: 2, sharers };
        e.remove_holder(2);
        assert_eq!(e, DirectoryEntry::Shared(sharers));
    }

    #[test]
    fn owned_shared_invariants() {
        // Owner inside the sharer set is a violation.
        let e = DirectoryEntry::OwnedShared {
            owner: 1,
            sharers: SharerSet::single(1),
        };
        assert!(!e.check_invariants(4));
        // Empty sharer set is a violation (it should be Owned instead).
        let e = DirectoryEntry::OwnedShared {
            owner: 1,
            sharers: SharerSet::empty(),
        };
        assert!(!e.check_invariants(4));
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn directory_rejects_zero_tiles() {
        let _ = Directory::new(0);
    }
}
