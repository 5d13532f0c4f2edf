//! A set-associative cache array.
//!
//! `Cache` models tags, state and residency metadata only — data contents do
//! not affect refresh behaviour or energy, so they are not simulated. The CMP
//! simulator composes these arrays into the private L1/L2 and the banked,
//! shared L3 of the paper's configuration.
//!
//! # Layout
//!
//! A cache is one flat array of `u64` words. Set `s` occupies the
//! `2 × ways` words from `s × 2 × ways`: one *way word* per way, then one
//! last-touch cycle per way.
//!
//! * A way word is `tag << (3 + R) | rank << 3 | state`, where `tag` is the
//!   line address above the set-index bits, `state` is the [`MesiState`]
//!   code (0 = Invalid) and `rank` is the way's recency in `R` bits
//!   (`R = ⌈log2 ways⌉`).
//! * The last-touch cycle is read only on hit, settle and finalize.
//!
//! An all-zero way is an invalid, never-accessed way, so the array is
//! allocated zeroed (`vec![0; n]`, which the allocator serves from zeroed
//! pages) and a page is written only when the run first fills a line in
//! it. The array is offset so every set starts on a 64-byte boundary: an
//! 8-way set's tags, states and LRU ranks share one host cache line, and
//! its last-touch cycles fill the next.
//!
//! **Replacement** is true LRU. A way's rank is 0 until it is first
//! accessed; an access moves it to `ways − 1` and lowers by one every rank
//! above its old one. The accessed ways therefore hold the top ranks in
//! recency order. A fill takes the first invalid way, and only a set whose
//! every way is valid — so every way has been accessed, and the ranks are a
//! permutation — evicts by rank, taking the way at 0.
//!
//! **Footprint.** Each set that receives a fill is listed once (a bitmap
//! guards the list), so [`Cache::iter_valid`] and everything built on it
//! visit only the sets a run used.

use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;

use crate::addr::LineAddr;
use crate::config::CacheGeometry;
use crate::line::{CacheLine, LineMeta, MesiState};

/// The state field of a way word.
const STATE: u64 = 0b111;
/// Way words per 64-byte host cache line.
const WORDS_PER_HOST_LINE: usize = 8;
/// A key no way word can equal (its state bits are set), used for line
/// addresses too wide for the tag field so they always miss.
const NEVER: u64 = u64::MAX;

/// The code of `state`: its discriminant, as `MesiState` declares its
/// variants in code order (Invalid first, so Invalid is 0).
const fn state_code(state: MesiState) -> u64 {
    state as u64
}

/// The state a way word holds: a table lookup, so decoding never branches.
const fn state_of(word: u64) -> MesiState {
    const BY_CODE: [MesiState; 8] = {
        use MesiState::{Exclusive, Invalid, Modified, Shared, SharedModified as Sm};
        [Invalid, Shared, Exclusive, Modified, Sm, Sm, Sm, Sm]
    };
    BY_CODE[(word & STATE) as usize]
}

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
}

/// A set-associative cache array (one bank, for banked caches).
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    geometry: CacheGeometry,
    ways: usize,
    /// `num_sets - 1`, so set selection is a single mask.
    set_mask: u64,
    set_bits: u32,
    /// Bits below the tag in a way word: 3 state bits, then the rank.
    tag_shift: u32,
    /// Tags at or above this do not fit the word and can never be resident.
    tag_limit: u64,
    /// The rank field of a way word, in place.
    rank_field: u64,
    /// Index of set 0 in `words`: the padding that puts every set on a
    /// host-line boundary. A clone keeps the offset, so only its alignment
    /// may differ.
    base: usize,
    /// Per set, its way words then its last-touch cycles (see the module
    /// docs). Way `w`'s last touch is `ways` words after its way word.
    words: Vec<u64>,
    /// Every set that has received a fill, in first-fill order.
    touched: Vec<u32>,
    /// One bit per set: listed in `touched`.
    listed: Vec<u64>,
    counters: CacheCounters,
}

impl Cache {
    /// Creates an empty cache with the given geometry and LRU replacement.
    #[must_use]
    pub fn new(name: &str, geometry: CacheGeometry) -> Self {
        let sets = geometry.num_sets();
        let ways = usize::from(geometry.ways());
        let rank_bits = usize::BITS - (ways - 1).leading_zeros();
        let tag_shift = 3 + rank_bits;
        let words = vec![0u64; sets as usize * 2 * ways + WORDS_PER_HOST_LINE - 1];
        let misalign = words.as_ptr() as usize / 8 % WORDS_PER_HOST_LINE;
        Cache {
            name: name.to_owned(),
            geometry,
            ways,
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            tag_shift,
            tag_limit: 1 << (64 - tag_shift),
            rank_field: ((1 << rank_bits) - 1) << 3,
            base: (WORDS_PER_HOST_LINE - misalign) % WORDS_PER_HOST_LINE,
            words,
            touched: Vec::new(),
            listed: vec![0; sets.div_ceil(64) as usize],
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
        for (name, value) in [
            ("hits", c.hits),
            ("misses", c.misses),
            ("reads", c.reads),
            ("writes", c.writes),
            ("fills", c.fills),
            ("evictions", c.evictions),
            ("dirty_evictions", c.dirty_evictions),
            ("invalidations", c.invalidations),
        ] {
            if value > 0 {
                out.add(name, value);
            }
        }
        out
    }

    /// The set `addr` maps to, the index of that set's way 0, and the way
    /// word bits `addr`'s tag must match.
    #[inline]
    fn locate(&self, addr: LineAddr) -> (u64, usize, u64) {
        // num_sets is validated as a power of two at construction, so set
        // selection is a single mask — no per-access assertion.
        let set = addr.raw() & self.set_mask;
        let tag = addr.raw() >> self.set_bits;
        let key = if tag < self.tag_limit {
            tag << self.tag_shift
        } else {
            NEVER
        };
        (set, self.base + set as usize * 2 * self.ways, key)
    }

    /// The way of the set starting at `start` that holds a valid line with
    /// tag `key`.
    #[inline]
    fn find(&self, start: usize, key: u64) -> Option<usize> {
        let tag_mask = !0u64 << self.tag_shift;
        self.words[start..start + self.ways]
            .iter()
            .position(|&w| w & tag_mask == key && w & STATE != 0)
    }

    /// The line held at word index `i`, known to hold `addr`.
    fn line_at(&self, addr: LineAddr, i: usize) -> CacheLine {
        CacheLine {
            addr,
            state: state_of(self.words[i]),
            meta: LineMeta {
                last_touch: Cycle::new(self.words[i + self.ways]),
            },
        }
    }

    /// The line address stored at word index `i` of `set`.
    fn addr_at(&self, set: u64, i: usize) -> LineAddr {
        LineAddr::new((self.words[i] >> self.tag_shift) << self.set_bits | set)
    }

    /// Makes `way` of the set starting at `start` the most recently used.
    #[inline]
    fn promote(&mut self, start: usize, way: usize) {
        let field = self.rank_field;
        let set = &mut self.words[start..start + self.ways];
        let rank = set[way] & field;
        for w in set.iter_mut() {
            *w -= u64::from(*w & field > rank) << 3;
        }
        set[way] = set[way] & !field | ((self.ways as u64 - 1) << 3);
    }

    /// Looks up `addr` without modifying replacement or residency state.
    #[must_use]
    pub fn probe(&self, addr: LineAddr) -> Option<LookupOutcome> {
        let (set_index, start, key) = self.locate(addr);
        self.find(start, key).map(|way| LookupOutcome {
            set_index,
            way,
            state: state_of(self.words[start + way]),
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
        let (set_index, start, key) = self.locate(addr);
        let Some(way) = self.find(start, key) else {
            self.counters.misses += 1;
            return None;
        };
        let i = start + way;
        let prev = self.line_at(addr, i);
        self.words[i + self.ways] = now.raw();
        self.promote(start, way);
        self.counters.hits += 1;
        Some((
            prev,
            LookupOutcome {
                set_index,
                way,
                state: prev.state,
            },
        ))
    }

    /// Touches the resident line `addr` at `now` as an access, returning
    /// its word index.
    fn access(&mut self, addr: LineAddr, now: Cycle, what: &str) -> usize {
        let (_, start, key) = self.locate(addr);
        let way = self
            .find(start, key)
            .unwrap_or_else(|| panic!("{what} on a missing line"));
        self.words[start + way + self.ways] = now.raw();
        self.promote(start, way);
        start + way
    }

    /// Reads the line (it must be present), updating metadata.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn read_hit(&mut self, addr: LineAddr, now: Cycle) {
        self.access(addr, now, "read_hit");
        self.counters.reads += 1;
    }

    /// Writes the line (it must be present), upgrading it to Modified. A
    /// [`MesiState::SharedModified`] line stays `Sm` (see
    /// [`CacheLine::write`]).
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn write_hit(&mut self, addr: LineAddr, now: Cycle) {
        let i = self.access(addr, now, "write_hit");
        if state_of(self.words[i]) != MesiState::SharedModified {
            self.words[i] = self.words[i] & !STATE | state_code(MesiState::Modified);
        }
        self.counters.writes += 1;
    }

    /// Fills `addr` in the given state, returning any valid line displaced.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s tag does not fit the way word: a line address must
    /// be below `2^(61 − R)` times the set count, which every address of a
    /// cache with 64-byte lines and at most `8 × num_sets` ways is.
    pub fn fill(&mut self, addr: LineAddr, state: MesiState, now: Cycle) -> Option<EvictedLine> {
        let (set, start, key) = self.locate(addr);
        assert!(
            key != NEVER,
            "line {addr:?} is too wide for {}'s tags",
            self.name
        );
        debug_assert!(
            self.find(start, key).is_none(),
            "fill of a line that is already present"
        );
        // The first invalid way, else the way at rank 0. Which way that is
        // is data, so the scan selects rather than branches: a search that
        // stopped at it would mispredict on most evictions.
        let (mut free, mut lru) = (None, 0);
        for (k, &w) in self.words[start..start + self.ways]
            .iter()
            .enumerate()
            .rev()
        {
            free = if w & STATE == 0 { Some(k) } else { free };
            lru = if w & self.rank_field == 0 { k } else { lru };
        }
        let way = free.unwrap_or(lru);
        let i = start + way;
        let old = self.words[i];
        let evicted = (old & STATE != 0).then(|| self.line_at(self.addr_at(set, i), i));
        self.words[i] = key | old & self.rank_field | state_code(state);
        self.words[i + self.ways] = now.raw();
        self.promote(start, way);
        let (slot, bit) = (set as usize / 64, 1u64 << (set % 64));
        if self.listed[slot] & bit == 0 {
            self.listed[slot] |= bit;
            self.touched.push(set as u32);
        }
        self.counters.fills += 1;
        evicted.map(|line| {
            self.counters.evictions += 1;
            if line.is_dirty() {
                self.counters.dirty_evictions += 1;
            }
            EvictedLine { line }
        })
    }

    /// Applies `f` to the resident line `addr` in place, without counting an
    /// access or changing replacement order. `f` may change the line's state
    /// and last-touch cycle; use [`Cache::invalidate`] to remove it.
    ///
    /// Returns `false` (and does not call `f`) if the line is not present.
    pub fn update(&mut self, addr: LineAddr, f: impl FnOnce(&mut CacheLine)) -> bool {
        let (_, start, key) = self.locate(addr);
        let Some(way) = self.find(start, key) else {
            return false;
        };
        let i = start + way;
        let mut line = self.line_at(addr, i);
        f(&mut line);
        debug_assert!(
            line.addr == addr && line.is_valid(),
            "update may not move or invalidate a line"
        );
        self.words[i] = self.words[i] & !STATE | state_code(line.state);
        self.words[i + self.ways] = line.meta.last_touch.raw();
        true
    }

    /// Changes the state of a resident line (coherence downgrades/upgrades).
    ///
    /// Returns `false` if the line is not present.
    pub fn set_state(&mut self, addr: LineAddr, state: MesiState) -> bool {
        self.update(addr, |line| line.state = state)
    }

    /// Invalidates `addr` if present, returning the line as it was.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let (_, start, key) = self.locate(addr);
        let i = start + self.find(start, key)?;
        let line = self.line_at(addr, i);
        self.words[i] &= !STATE;
        self.counters.invalidations += 1;
        Some(line)
    }

    /// A copy of a resident line.
    #[must_use]
    pub fn line(&self, addr: LineAddr) -> Option<CacheLine> {
        let (_, start, key) = self.locate(addr);
        self.find(start, key)
            .map(|way| self.line_at(addr, start + way))
    }

    /// Iterates over all valid resident lines, visiting only the sets that
    /// have received a fill.
    pub fn iter_valid(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.touched.iter().flat_map(move |&set| {
            let start = self.base + set as usize * 2 * self.ways;
            (start..start + self.ways)
                .filter(move |&i| self.words[i] & STATE != 0)
                .map(move |i| self.line_at(self.addr_at(u64::from(set), i), i))
        })
    }

    /// Number of valid resident lines.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.iter_valid().count() as u64
    }

    /// Number of valid dirty resident lines.
    #[must_use]
    pub fn dirty_count(&self) -> u64 {
        self.iter_valid().filter(CacheLine::is_dirty).count() as u64
    }

    /// Copies every valid resident line into `out` (cleared first). Lets
    /// callers that repeatedly snapshot residency — the simulator's
    /// end-of-run settlement — reuse one scratch buffer instead of
    /// collecting a fresh `Vec` each time.
    pub fn collect_valid_into(&self, out: &mut Vec<CacheLine>) {
        out.clear();
        out.extend(self.iter_valid());
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
        assert_eq!(evicted.line.addr, LineAddr::new(0));
        assert_eq!(c.stats().get("dirty_evictions"), 1);
    }

    fn four_way_set_of(lines: u64) -> Cache {
        // One set of four ways, filled with lines 0.. at cycles 0..
        let mut c = Cache::new("lru", CacheGeometry::new(256, 4, 64).unwrap());
        for i in 0..lines {
            assert!(c
                .fill(LineAddr::new(i), MesiState::Shared, Cycle::new(i))
                .is_none());
        }
        c
    }

    #[test]
    fn fills_prefer_invalid_ways_then_evict_lru() {
        let mut c = four_way_set_of(4);
        assert_eq!(c.occupancy(), 4);
        let evicted = c.fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10));
        assert_eq!(evicted.unwrap().line.addr, LineAddr::new(0));
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn touch_changes_lru_order() {
        let mut c = four_way_set_of(4);
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.lookup(LineAddr::new(0), Cycle::new(5)).is_some());
        let evicted = c.fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10));
        assert_eq!(evicted.unwrap().line.addr, LineAddr::new(1));
    }

    #[test]
    fn invalid_way_preferred_over_lru() {
        let mut c = four_way_set_of(4);
        // Way 0 is LRU, but the freed way 2 is taken first.
        c.invalidate(LineAddr::new(2));
        assert!(c
            .fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10))
            .is_none());
        assert_eq!(c.probe(LineAddr::new(100)).unwrap().way, 2);
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
    fn update_edits_in_place_without_an_access() {
        let mut c = four_way_set_of(4);
        let a = LineAddr::new(0);
        assert!(c.update(a, |l| l.write(Cycle::new(7))));
        assert_eq!(c.line(a).unwrap().state, MesiState::Modified);
        assert_eq!(c.line(a).unwrap().meta.last_touch, Cycle::new(7));
        assert!(!c.update(LineAddr::new(9), |_| unreachable!()));
        // Neither counted nor promoted: line 0 is still the LRU victim.
        assert_eq!(c.stats().get("writes"), 0);
        let evicted = c.fill(LineAddr::new(100), MesiState::Shared, Cycle::new(10));
        assert!(evicted.unwrap().needs_writeback());
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
    fn occupancy_counts() {
        let mut c = small_cache();
        assert_eq!(c.occupancy(), 0);
        for i in 0..10u64 {
            c.fill(LineAddr::new(i), MesiState::Shared, Cycle::ZERO);
        }
        assert_eq!(c.occupancy(), 10);
        assert_eq!(c.iter_valid().count(), 10);
    }

    #[test]
    fn iter_valid_walks_only_the_footprint_once() {
        // 2,048 sets x 8 ways x 64 B = 1 MB (one paper L3 bank).
        let mut c = Cache::new("fp", CacheGeometry::new(1 << 20, 8, 64).unwrap());
        let in_set = |set: u64, k: u64| LineAddr::new(k * 2048 + set);
        for k in 0..3 {
            c.fill(in_set(5, k), MesiState::Shared, Cycle::new(k));
        }
        c.fill(in_set(1999, 0), MesiState::Modified, Cycle::new(9));
        // Invalidate and refill in the same set: it must not be listed twice.
        c.invalidate(in_set(5, 1));
        c.fill(in_set(5, 7), MesiState::Exclusive, Cycle::new(10));
        assert_eq!(c.touched, [5, 1999]);
        let mut lines: Vec<_> = c.iter_valid().map(|l| (l.addr, l.state)).collect();
        lines.sort_by_key(|&(a, _)| a.raw());
        let expect = [
            (in_set(5, 0), MesiState::Shared),
            (in_set(1999, 0), MesiState::Modified),
            (in_set(5, 2), MesiState::Shared),
            (in_set(5, 7), MesiState::Exclusive),
        ];
        assert_eq!(lines, expect);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn addresses_too_wide_for_the_tag_always_miss() {
        // One set of 16 ways: 7 low bits of each word hold state and rank.
        let mut c = Cache::new("wide", CacheGeometry::new(1024, 16, 64).unwrap());
        let narrow = LineAddr::new(1 << 56);
        c.fill(narrow, MesiState::Shared, Cycle::ZERO);
        assert!(c.line(narrow).is_some());
        // Equal to `narrow` once shifted: must not alias it.
        assert!(c.line(LineAddr::new(1 << 56 | 1 << 63)).is_none());
    }

    #[test]
    fn state_codes_round_trip() {
        use MesiState::*;
        for state in [Invalid, Shared, Exclusive, Modified, SharedModified] {
            assert_eq!(state_of(state_code(state) | 0xF0), state);
        }
        assert_eq!(state_code(Invalid), 0);
    }

    #[test]
    fn a_way_is_two_words_and_a_set_starts_a_host_line() {
        // Tag, state and rank share one word, last touch another: 16 B per
        // way. An 8-way set's way words fill one 64-byte host line exactly.
        let geometry = CacheGeometry::new(256 * 1024, 8, 64).unwrap();
        let c = Cache::new("l2", geometry);
        let ways = geometry.num_lines() as usize;
        assert_eq!(c.words.len(), 2 * ways + WORDS_PER_HOST_LINE - 1);
        assert_eq!(std::mem::size_of_val(&c.words[0]), 8);
        assert_eq!(c.words[c.base..].as_ptr() as usize % 64, 0);
        assert!(c.words.iter().all(|&w| w == 0));
    }
}
