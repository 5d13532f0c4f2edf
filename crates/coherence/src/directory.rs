//! Directory state: per-line owner and sharer tracking.
//!
//! The directory lives in the L3 ways. Because the hierarchy is inclusive,
//! every line present in any private L1/L2 is also present in the L3, and
//! the directory entry for that L3 line records which tiles hold it and
//! whether one of them owns it in Modified state. Each L3 bank keeps a
//! [`DirectoryArray`] with one packed entry per way of its cache array, so
//! the probe that finds or fills a line also finds its entry; an invalid
//! way's entry is [`DirectoryEntry::Uncached`].

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

/// The tag-byte kinds of a packed entry; the owner sits above them.
const UNCACHED: u8 = 0;
const SHARED: u8 = 1;
const OWNED: u8 = 2;
const OWNED_SHARED: u8 = 3;
const KIND: u8 = 0b11;

impl DirectoryEntry {
    /// The entry as a holder mask and a tag byte `owner << 2 | kind`. The
    /// mask holds the sharers (for `OwnedShared`, the replicas without the
    /// owner), so only `Uncached` packs to all zeros.
    fn pack(self) -> (u64, u8) {
        // Owners are tiles below 64, so `owner << 2` fits the byte.
        let owned = |owner: usize, kind: u8| (owner as u8) << 2 | kind;
        match self {
            DirectoryEntry::Uncached => (0, UNCACHED),
            DirectoryEntry::Shared(s) => (s.0, SHARED),
            DirectoryEntry::Owned { owner } => (0, owned(owner, OWNED)),
            DirectoryEntry::OwnedShared { owner, sharers } => {
                (sharers.0, owned(owner, OWNED_SHARED))
            }
        }
    }

    /// The entry [`DirectoryEntry::pack`] packed into `mask` and `tag`.
    fn unpack(mask: u64, tag: u8) -> Self {
        let owner = usize::from(tag >> 2);
        match tag & KIND {
            UNCACHED => DirectoryEntry::Uncached,
            SHARED => DirectoryEntry::Shared(SharerSet(mask)),
            OWNED => DirectoryEntry::Owned { owner },
            _ => DirectoryEntry::OwnedShared {
                owner,
                sharers: SharerSet(mask),
            },
        }
    }
}

/// The directory entries of one L3 bank, one per slot (way) of its cache
/// array (slot `set × ways + way`), packed into 9 bytes each: a holder mask
/// and a tag byte. All zeros is [`DirectoryEntry::Uncached`].
///
/// Entries are stored a set at a time, in rows allocated when the set first
/// caches an entry, so the array's memory follows the run's footprint. A
/// flat zeroed array would not: a long-lived process (the server) builds
/// each chip from freed heap memory, which the allocator must zero, so it
/// would write the whole array once per chip.
#[derive(Debug, Clone)]
pub struct DirectoryArray {
    ways: usize,
    /// Per set, one more than its row's index, or 0 while it has none.
    rows: Vec<u32>,
    /// Each row's holder masks, `ways` at a time.
    masks: Vec<u64>,
    /// Each row's tag bytes, `ways` at a time.
    tags: Vec<u8>,
}

impl DirectoryArray {
    /// An array of `sets × ways` `Uncached` entries.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set has at least one way");
        DirectoryArray {
            ways,
            rows: vec![0; sets],
            masks: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// The index of `slot` in `masks` and `tags`, if its set has a row.
    fn index(&self, slot: usize) -> Option<usize> {
        let row = self.rows[slot / self.ways] as usize;
        (row > 0).then(|| (row - 1) * self.ways + slot % self.ways)
    }

    /// The entry at `index` (none: `Uncached`).
    fn load(&self, index: Option<usize>) -> DirectoryEntry {
        index.map_or(DirectoryEntry::Uncached, |i| {
            DirectoryEntry::unpack(self.masks[i], self.tags[i])
        })
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn get(&self, slot: usize) -> DirectoryEntry {
        self.load(self.index(slot))
    }

    /// Runs `f` on the entry in `slot` and stores what it leaves.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn update<R>(&mut self, slot: usize, f: impl FnOnce(&mut DirectoryEntry) -> R) -> R {
        let index = self.index(slot);
        let mut entry = self.load(index);
        let out = f(&mut entry);
        let i = match index {
            Some(i) => i,
            None if entry == DirectoryEntry::Uncached => return out,
            None => self.add_row(slot),
        };
        (self.masks[i], self.tags[i]) = entry.pack();
        out
    }

    /// Gives `slot`'s set a row of `Uncached` entries and returns the
    /// slot's index in it.
    fn add_row(&mut self, slot: usize) -> usize {
        let start = self.masks.len();
        self.rows[slot / self.ways] =
            u32::try_from(start / self.ways + 1).expect("fewer rows than sets");
        self.masks.resize(start + self.ways, 0);
        self.tags.resize(start + self.ways, 0);
        start + slot % self.ways
    }
}

/// The directory as one sparse map from line to entry; absent entries mean
/// `Uncached`. The simulator keeps its entries in each bank's
/// [`DirectoryArray`] instead; this map is kept only for perfbench's
/// ledger, which times [`CoherenceEngine::access`](crate::CoherenceEngine::access)
/// over it.
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
        // Invalidating the line everywhere forgets its slot.
        let mut engine = CoherenceEngine::new(CoherenceProtocol::Mesi, 16);
        let holders = d.update(line, |e| engine.invalidate_all(e));
        assert_eq!(holders, SharerSet::single(2));
        assert_eq!(d.entry(line), DirectoryEntry::Uncached);
        assert!(d.entries.is_empty());
    }

    /// One entry of each variant, at the edges of the owner and mask ranges.
    fn every_variant() -> Vec<DirectoryEntry> {
        let top: SharerSet = [0usize, 63].into_iter().collect();
        let mut out = vec![DirectoryEntry::Uncached];
        for owner in [0, 1, 62, 63] {
            out.push(DirectoryEntry::Owned { owner });
            for sharers in [top.without(owner), SharerSet::single(5)] {
                out.push(DirectoryEntry::OwnedShared { owner, sharers });
            }
        }
        for sharers in [
            SharerSet::single(0),
            SharerSet::single(63),
            top,
            SharerSet(!0),
        ] {
            out.push(DirectoryEntry::Shared(sharers));
        }
        out
    }

    #[test]
    fn packed_entries_round_trip_and_only_uncached_is_all_zero() {
        for entry in every_variant() {
            let (mask, tag) = entry.pack();
            assert_eq!(DirectoryEntry::unpack(mask, tag), entry, "{entry:?}");
            assert_eq!(
                (mask, tag) == (0, 0),
                entry == DirectoryEntry::Uncached,
                "{entry:?} packs to ({mask:#x}, {tag:#x})"
            );
        }
        assert_eq!(DirectoryEntry::unpack(0, 0), DirectoryEntry::Uncached);
    }

    #[test]
    fn directory_array_slots_start_uncached_and_keep_their_own_entry() {
        // 8 sets of 3 ways; the entries go to every other slot from the top
        // down, so rows are added out of set order and some slots of a row
        // stay `Uncached`.
        let mut a = DirectoryArray::new(8, 3);
        let slots: Vec<usize> = (0..24).rev().step_by(2).collect();
        for (&slot, entry) in slots.iter().zip(every_variant()) {
            assert_eq!(a.get(slot), DirectoryEntry::Uncached);
            let old = a.update(slot, |e| std::mem::replace(e, entry));
            assert_eq!(old, DirectoryEntry::Uncached);
        }
        for (&slot, entry) in slots.iter().zip(every_variant()) {
            assert_eq!(a.get(slot), entry, "slot {slot}");
            assert_eq!(
                a.get(slot ^ 1),
                DirectoryEntry::Uncached,
                "slot {}",
                slot ^ 1
            );
        }
        // Resetting an entry keeps its row; a request that leaves an
        // untracked set `Uncached` adds none.
        let rows = a.masks.len();
        a.update(23, |e| *e = DirectoryEntry::Uncached);
        assert_eq!(a.get(23), DirectoryEntry::Uncached);
        assert_eq!(a.masks.len(), rows);
        let mut b = DirectoryArray::new(8, 3);
        assert!(!b.update(4, |e| e.is_cached()));
        assert!(b.masks.is_empty() && b.tags.is_empty());
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
