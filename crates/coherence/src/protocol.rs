//! Transaction-level directory coherence protocols.
//!
//! [`CoherenceEngine::resolve`] resolves one core request against one
//! directory entry: it updates the entry, and reports which private copies
//! must be invalidated, downgraded or updated (inclusivity and single-writer
//! invariants), what state the requester fills in, and how many messages
//! were exchanged. The caller (the CMP simulator) applies the corresponding
//! changes to the actual cache arrays and converts the outcome into latency
//! and energy; cumulative message traffic is reported via the engine's
//! statistics. [`CoherenceEngine::access`] does the same for a line of a
//! [`Directory`] map, which only perfbench's ledger still uses: the
//! simulator resolves each request against the entry its L3 bank keeps
//! beside the line's way.
//!
//! The engine runs the [`CoherenceProtocol`] it was built for. Under the
//! invalidation-based MESI protocol a write invalidates every other holder;
//! under the update-based Dragon protocol writes to shared lines broadcast
//! word updates to the other holders instead, using the
//! [`MesiState::SharedModified`] (`Sm`) state and the
//! [`DirectoryEntry::OwnedShared`] directory entry.

use std::fmt;
use std::str::FromStr;

use refrint_engine::stats::StatRegistry;
use refrint_mem::addr::LineAddr;
use refrint_mem::line::MesiState;

use crate::directory::{Directory, DirectoryEntry, SharerSet};

/// The coherence protocol a simulated chip runs. The invalidation-based
/// directory MESI protocol is the default (and the paper's baseline); the
/// update-based Dragon protocol is the alternative sweep axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceProtocol {
    /// Invalidation-based directory MESI (the default).
    #[default]
    Mesi,
    /// Update-based Dragon: writes to shared lines broadcast updates.
    Dragon,
}

impl CoherenceProtocol {
    /// Every protocol, default first.
    pub const ALL: [CoherenceProtocol; 2] = [CoherenceProtocol::Mesi, CoherenceProtocol::Dragon];

    /// The canonical lower-case label (`mesi` / `dragon`) used by CLI
    /// flags, scenario specs and sweep config fields.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            CoherenceProtocol::Mesi => "mesi",
            CoherenceProtocol::Dragon => "dragon",
        }
    }

    /// Whether this is the default protocol (labels and cache keys omit
    /// the axis entirely for the default, keeping them byte-identical to
    /// their pre-Dragon form).
    #[must_use]
    pub fn is_default(self) -> bool {
        self == CoherenceProtocol::default()
    }
}

impl fmt::Display for CoherenceProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for CoherenceProtocol {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|p| p.label() == s)
            .ok_or_else(|| format!("unknown coherence protocol `{s}` (expected mesi or dragon)"))
    }
}

/// A request from a core's private hierarchy to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreRequest {
    /// A load that missed in the private caches (GetS).
    Read,
    /// A store that missed or lacked write permission (GetX / upgrade).
    Write,
    /// The private hierarchy evicted a clean copy (PutS — silent in many
    /// protocols, explicit here so the directory stays precise).
    EvictClean,
    /// The private hierarchy evicted a dirty copy and writes it back (PutM).
    EvictDirty,
}

/// What the directory decided for one request.
///
/// The outcome is a small `Copy` value — the invalidation targets are a
/// [`SharerSet`] bitmask rather than a `Vec`, so resolving a request never
/// allocates. (Per-message accounting lives in the engine's statistics;
/// the simulator derives latency and traffic from the outcome fields.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// State the requester's private caches should install the line in
    /// (`Invalid` for evictions).
    pub fill_state: MesiState,
    /// Tiles whose private copies must be invalidated, excluding the
    /// requester.
    pub invalidate: SharerSet,
    /// Tile whose owned copy must be downgraded before the request
    /// completes. Under MESI the owner's dirty data is written back to the
    /// L3 (`owner_writeback` is true); under Dragon the owner keeps its
    /// dirty data in `Sm` (`owner_writeback` is false) and supplies the
    /// requester cache-to-cache.
    pub downgrade_owner: Option<usize>,
    /// Whether the previous owner's dirty data is written back into the L3
    /// as part of this transaction.
    pub owner_writeback: bool,
    /// Tiles whose private copies receive a word update (Dragon writes to
    /// shared lines). They stay valid as clean sharers; a dirty copy among
    /// them hands its write-back responsibility to the requester. Always
    /// empty under MESI.
    pub update: SharerSet,
    /// On-chip messages this transaction exchanged (request, forwarded
    /// invalidations/updates/acks, data reply), for traffic accounting.
    pub message_count: u64,
}

impl AccessOutcome {
    /// An outcome with no remote work yet.
    fn new(fill_state: MesiState, message_count: u64) -> Self {
        AccessOutcome {
            fill_state,
            invalidate: SharerSet::empty(),
            downgrade_owner: None,
            owner_writeback: false,
            update: SharerSet::empty(),
            message_count,
        }
    }
}

/// Fixed-field protocol counters; [`CoherenceEngine::stats`] materializes
/// them into a [`StatRegistry`] on demand, keeping the per-request hot path
/// free of map lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ProtocolCounters {
    messages: u64,
    reads: u64,
    writes: u64,
    redundant_reads: u64,
    owner_downgrades: u64,
    invalidations_sent: u64,
    silent_upgrades: u64,
    owner_transfers: u64,
    dirty_evictions_absorbed: u64,
    clean_evictions: u64,
    inclusive_invalidations: u64,
    /// Word updates broadcast to remote holders; only Dragon increments
    /// this, so MESI statistics never list it.
    updates_sent: u64,
}

/// The directory-side protocol engine for one chip, running the
/// [`CoherenceProtocol`] it was built for.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    protocol: CoherenceProtocol,
    num_tiles: usize,
    counters: ProtocolCounters,
}

impl CoherenceEngine {
    /// Creates the engine `protocol` names for `num_tiles` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero or greater than 64.
    #[must_use]
    pub fn new(protocol: CoherenceProtocol, num_tiles: usize) -> Self {
        assert!(
            num_tiles > 0 && num_tiles <= 64,
            "protocol supports 1..=64 tiles"
        );
        CoherenceEngine {
            protocol,
            num_tiles,
            counters: ProtocolCounters::default(),
        }
    }

    /// Protocol statistics (per-request-kind counts, invalidations and
    /// updates sent, owner downgrades, writebacks absorbed), materialized
    /// from the fixed-field counters. Only counters that have fired appear,
    /// matching the shape of an incrementally built registry.
    #[must_use]
    pub fn stats(&self) -> StatRegistry {
        let c = &self.counters;
        let mut out = StatRegistry::new();
        for (name, value) in [
            ("messages", c.messages),
            ("reads", c.reads),
            ("writes", c.writes),
            ("redundant_reads", c.redundant_reads),
            ("owner_downgrades", c.owner_downgrades),
            ("invalidations_sent", c.invalidations_sent),
            ("silent_upgrades", c.silent_upgrades),
            ("owner_transfers", c.owner_transfers),
            ("dirty_evictions_absorbed", c.dirty_evictions_absorbed),
            ("clean_evictions", c.clean_evictions),
            ("inclusive_invalidations", c.inclusive_invalidations),
            ("updates_sent", c.updates_sent),
        ] {
            if value > 0 {
                out.add(name, value);
            }
        }
        out
    }

    /// Resolves `request` from `tile` for `line` against `dir`: looks the
    /// line up once and [`resolve`](Self::resolve)s its entry.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn access(
        &mut self,
        dir: &mut Directory,
        line: LineAddr,
        tile: usize,
        request: CoreRequest,
    ) -> AccessOutcome {
        dir.update(line, |entry| self.resolve(entry, tile, request))
    }

    /// Resolves `request` from `tile` against the line's directory `entry`.
    ///
    /// The entry is updated; the caller must apply the returned
    /// invalidations/downgrades/updates to the private cache arrays to
    /// preserve the inclusive-hierarchy invariant.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    pub fn resolve(
        &mut self,
        entry: &mut DirectoryEntry,
        tile: usize,
        request: CoreRequest,
    ) -> AccessOutcome {
        assert!(tile < self.num_tiles, "tile {tile} out of range");
        let out = match request {
            CoreRequest::Read => self.read(entry, tile),
            CoreRequest::Write => self.write(entry, tile),
            CoreRequest::EvictClean => self.evict(entry, tile, false),
            CoreRequest::EvictDirty => self.evict(entry, tile, true),
        };
        self.counters.messages += out.message_count;
        debug_assert!(
            entry.check_invariants(self.num_tiles)
                && (self.protocol == CoherenceProtocol::Dragon
                    || !matches!(entry, DirectoryEntry::OwnedShared { .. })),
            "{} left the entry {entry:?}",
            self.protocol
        );
        out
    }

    fn read(&mut self, entry: &mut DirectoryEntry, tile: usize) -> AccessOutcome {
        self.counters.reads += 1;
        // Request to the home node plus the data reply.
        let mut out = AccessOutcome::new(MesiState::Shared, 2);
        match entry {
            DirectoryEntry::Uncached => {
                // No private copy: grant Exclusive, as MESI does.
                out.fill_state = MesiState::Exclusive;
                *entry = DirectoryEntry::Owned { owner: tile };
            }
            DirectoryEntry::Owned { owner } if *owner == tile => {
                // Re-request by the owner (e.g. refilling an L1 from its own
                // L2 path); ownership is retained.
                out.fill_state = MesiState::Exclusive;
                self.counters.redundant_reads += 1;
            }
            DirectoryEntry::OwnedShared { owner, .. } if *owner == tile => {
                // The Sm owner re-reads (e.g. refilling after a policy
                // invalidation of its private copy); it keeps write-back
                // responsibility.
                out.fill_state = MesiState::SharedModified;
                self.counters.redundant_reads += 1;
            }
            DirectoryEntry::Shared(sharers) | DirectoryEntry::OwnedShared { sharers, .. }
                if sharers.contains(tile) =>
            {
                // The directory already thinks we have it (e.g. an IL1/DL1
                // refill within the same tile); the entry stays as it is.
                self.counters.redundant_reads += 1;
            }
            DirectoryEntry::Shared(sharers) => sharers.insert(tile),
            DirectoryEntry::OwnedShared { sharers, .. } => {
                // A new reader joins; the Sm owner forwards the data.
                sharers.insert(tile);
                out.message_count += 2; // forwarded request + data reply
            }
            DirectoryEntry::Owned { owner } => {
                let owner = *owner;
                self.counters.owner_downgrades += 1;
                out.downgrade_owner = Some(owner);
                out.message_count += 2; // forwarded downgrade + reply
                *entry = match self.protocol {
                    CoherenceProtocol::Mesi => {
                        // The owner's dirty data (if any) is written back
                        // into the L3, and both tiles end up sharers.
                        out.owner_writeback = true;
                        DirectoryEntry::Shared([owner, tile].into_iter().collect())
                    }
                    // The owner supplies the data cache-to-cache and keeps
                    // its dirty copy in Sm — no write-back into the L3.
                    CoherenceProtocol::Dragon => DirectoryEntry::OwnedShared {
                        owner,
                        sharers: SharerSet::single(tile),
                    },
                };
            }
        }
        out
    }

    fn write(&mut self, entry: &mut DirectoryEntry, tile: usize) -> AccessOutcome {
        self.counters.writes += 1;
        // Every other holder must see the write: MESI invalidates its copy,
        // Dragon sends it the written word. Each costs a message and an ack,
        // on top of the request to the home node and the data reply.
        let others = entry.holders().without(tile);
        let mut out = AccessOutcome::new(MesiState::Modified, 2 + 2 * others.len() as u64);
        match *entry {
            // Upgrade in place; no remote work.
            DirectoryEntry::Owned { owner } if owner == tile => self.counters.silent_upgrades += 1,
            DirectoryEntry::Owned { owner } | DirectoryEntry::OwnedShared { owner, .. }
                if owner != tile =>
            {
                self.counters.owner_transfers += 1;
            }
            _ => {}
        }
        match self.protocol {
            CoherenceProtocol::Mesi => {
                match *entry {
                    DirectoryEntry::Shared(_) => {
                        self.counters.invalidations_sent += others.len() as u64;
                    }
                    DirectoryEntry::Owned { owner } if owner != tile => {
                        // The owner's dirty data is written back as its
                        // copy is invalidated.
                        out.downgrade_owner = Some(owner);
                        out.owner_writeback = true;
                    }
                    _ => {}
                }
                out.invalidate = others;
                *entry = DirectoryEntry::Owned { owner: tile };
            }
            CoherenceProtocol::Dragon => {
                // Every other holder stays a valid clean replica (a previous
                // owner's dirty words migrate to the writer cache-to-cache),
                // and the writer becomes the Sm owner. A writer no one else
                // holds the line for gets a private M copy.
                self.counters.updates_sent += others.len() as u64;
                out.update = others;
                *entry = if others.is_empty() {
                    DirectoryEntry::Owned { owner: tile }
                } else {
                    out.fill_state = MesiState::SharedModified;
                    DirectoryEntry::OwnedShared {
                        owner: tile,
                        sharers: others,
                    }
                };
            }
        }
        out
    }

    fn evict(&mut self, entry: &mut DirectoryEntry, tile: usize, dirty: bool) -> AccessOutcome {
        if dirty {
            self.counters.dirty_evictions_absorbed += 1;
        } else {
            self.counters.clean_evictions += 1;
        }
        entry.remove_holder(tile);
        // The PutS/PutM notification.
        let mut out = AccessOutcome::new(MesiState::Invalid, 1);
        out.owner_writeback = dirty;
        out
    }

    /// Invalidates a line everywhere on behalf of the L3 (used when the L3
    /// line itself is evicted or decays): resets its `entry` to `Uncached`
    /// and returns the tiles that held it.
    pub fn invalidate_all(&mut self, entry: &mut DirectoryEntry) -> SharerSet {
        let holders = std::mem::take(entry).holders();
        self.counters.inclusive_invalidations += holders.len() as u64;
        holders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesi() -> (CoherenceEngine, DirectoryEntry) {
        (
            CoherenceEngine::new(CoherenceProtocol::Mesi, 16),
            DirectoryEntry::Uncached,
        )
    }

    fn dragon() -> (CoherenceEngine, DirectoryEntry) {
        (
            CoherenceEngine::new(CoherenceProtocol::Dragon, 16),
            DirectoryEntry::Uncached,
        )
    }

    #[test]
    fn first_read_grants_exclusive() {
        let (mut p, mut e) = mesi();
        let out = p.resolve(&mut e, 0, CoreRequest::Read);
        assert_eq!(out.fill_state, MesiState::Exclusive);
        assert_eq!(out.message_count, 2);
        assert!(out.invalidate.is_empty());
        assert_eq!(e, DirectoryEntry::Owned { owner: 0 });
    }

    #[test]
    fn second_read_downgrades_owner_to_shared() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Read);
        let out = p.resolve(&mut e, 1, CoreRequest::Read);
        assert_eq!(out.fill_state, MesiState::Shared);
        assert_eq!(out.downgrade_owner, Some(0));
        assert!(out.owner_writeback);
        let holders = e.holders();
        assert!(holders.contains(0) && holders.contains(1));
        assert!(!e.is_owned());
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 2, CoreRequest::Read);
        let out = p.resolve(&mut e, 3, CoreRequest::Write);
        assert_eq!(out.fill_state, MesiState::Modified);
        let inv: Vec<usize> = out.invalidate.iter().collect();
        assert_eq!(inv, vec![0, 1, 2]);
        assert_eq!(out.message_count, 2 + 2 * 3);
        assert_eq!(e, DirectoryEntry::Owned { owner: 3 });
        assert_eq!(p.stats().get("invalidations_sent"), 3);
    }

    #[test]
    fn write_by_sharer_does_not_invalidate_itself() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        let out = p.resolve(&mut e, 0, CoreRequest::Write);
        assert_eq!(out.invalidate, SharerSet::single(1));
        assert_eq!(e, DirectoryEntry::Owned { owner: 0 });
    }

    #[test]
    fn write_steals_ownership_with_writeback() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Write);
        let out = p.resolve(&mut e, 1, CoreRequest::Write);
        assert_eq!(out.downgrade_owner, Some(0));
        assert!(out.owner_writeback);
        assert_eq!(out.invalidate, SharerSet::single(0));
        assert_eq!(e, DirectoryEntry::Owned { owner: 1 });
        assert_eq!(p.stats().get("owner_transfers"), 1);
    }

    #[test]
    fn owner_rewrite_is_silent_upgrade() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 5, CoreRequest::Write);
        let out = p.resolve(&mut e, 5, CoreRequest::Write);
        assert!(out.invalidate.is_empty());
        assert_eq!(out.downgrade_owner, None);
        assert_eq!(p.stats().get("silent_upgrades"), 1);
    }

    #[test]
    fn evictions_update_directory() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 0, CoreRequest::EvictClean);
        assert_eq!(e, DirectoryEntry::Shared(SharerSet::single(1)));
        p.resolve(&mut e, 1, CoreRequest::EvictClean);
        assert_eq!(e, DirectoryEntry::Uncached);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 4, CoreRequest::Write);
        let out = p.resolve(&mut e, 4, CoreRequest::EvictDirty);
        assert!(out.owner_writeback);
        assert_eq!(out.fill_state, MesiState::Invalid);
        assert_eq!(out.message_count, 1);
        assert_eq!(e, DirectoryEntry::Uncached);
    }

    #[test]
    fn invalidate_all_clears_holders() {
        let (mut p, mut e) = mesi();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        assert!(!e.is_owned());
        let holders = p.invalidate_all(&mut e);
        assert_eq!(holders.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(p.stats().get("inclusive_invalidations"), 2);
        assert_eq!(e, DirectoryEntry::Uncached);

        // An owned (possibly dirty) line has exactly its owner to invalidate.
        p.resolve(&mut e, 7, CoreRequest::Write);
        assert!(e.is_owned());
        assert_eq!(p.invalidate_all(&mut e), SharerSet::single(7));
        assert_eq!(e, DirectoryEntry::Uncached);
    }

    #[test]
    fn single_writer_invariant_over_random_traffic() {
        random_traffic_keeps_invariants(CoherenceProtocol::Mesi, 2024);
    }

    #[test]
    fn dragon_invariants_over_random_traffic() {
        random_traffic_keeps_invariants(CoherenceProtocol::Dragon, 4096);
    }

    /// Drives 5000 random requests over 8 lines and 16 tiles, checking every
    /// entry after each one, plus the protocol's own guarantees.
    fn random_traffic_keeps_invariants(protocol: CoherenceProtocol, seed: u64) {
        use refrint_engine::rng::DeterministicRng;
        let mut dir = Directory::new(16);
        let mut p = CoherenceEngine::new(protocol, 16);
        let mut rng = DeterministicRng::from_seed(seed);
        let lines: Vec<LineAddr> = (0..8).map(LineAddr::new).collect();
        for _ in 0..5000 {
            let line = lines[rng.below(8) as usize];
            let tile = rng.below(16) as usize;
            let req = match rng.below(4) {
                0 => CoreRequest::Read,
                1 => CoreRequest::Write,
                2 => CoreRequest::EvictClean,
                _ => CoreRequest::EvictDirty,
            };
            // Evictions of lines a tile does not hold are fine for the
            // directory — remove_holder is idempotent.
            let out = p.access(&mut dir, line, tile, req);
            if protocol == CoherenceProtocol::Dragon {
                // Dragon resolves writes with updates, never invalidations.
                assert!(out.invalidate.is_empty());
            }
            for &l in &lines {
                let entry = dir.entry(l);
                assert!(entry.check_invariants(16));
                // MESI is single-writer: an owned line has exactly one
                // holder.
                if protocol == CoherenceProtocol::Mesi && entry.is_owned() {
                    assert_eq!(entry.holders().len(), 1);
                }
            }
        }
        if protocol == CoherenceProtocol::Dragon {
            assert_eq!(p.stats().get("invalidations_sent"), 0);
        }
    }

    #[test]
    fn protocol_labels_round_trip() {
        for p in CoherenceProtocol::ALL {
            assert_eq!(p.label().parse::<CoherenceProtocol>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(CoherenceProtocol::default(), CoherenceProtocol::Mesi);
        assert!(CoherenceProtocol::Mesi.is_default());
        assert!(!CoherenceProtocol::Dragon.is_default());
        assert!("moesi".parse::<CoherenceProtocol>().is_err());
    }

    #[test]
    fn dragon_write_to_shared_updates_instead_of_invalidating() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 2, CoreRequest::Read);
        let out = p.resolve(&mut e, 3, CoreRequest::Write);
        assert!(
            out.invalidate.is_empty(),
            "Dragon never invalidates on write"
        );
        assert_eq!(out.update.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(out.fill_state, MesiState::SharedModified);
        assert_eq!(out.message_count, 2 + 2 * 3);
        assert_eq!(
            e,
            DirectoryEntry::OwnedShared {
                owner: 3,
                sharers: [0, 1, 2].into_iter().collect(),
            }
        );
        assert_eq!(p.stats().get("updates_sent"), 3);
        assert_eq!(p.stats().get("invalidations_sent"), 0);
    }

    #[test]
    fn dragon_sole_sharer_write_promotes_to_modified() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::EvictClean);
        let out = p.resolve(&mut e, 0, CoreRequest::Write);
        assert_eq!(out.fill_state, MesiState::Modified);
        assert!(out.update.is_empty());
        assert_eq!(e, DirectoryEntry::Owned { owner: 0 });
    }

    #[test]
    fn dragon_read_of_owned_keeps_dirty_in_owner() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Write);
        let out = p.resolve(&mut e, 1, CoreRequest::Read);
        assert_eq!(out.downgrade_owner, Some(0));
        assert!(
            !out.owner_writeback,
            "Dragon forwards cache-to-cache; the owner keeps its dirty copy"
        );
        assert_eq!(out.fill_state, MesiState::Shared);
        assert_eq!(out.message_count, 2 + 2);
        assert_eq!(
            e,
            DirectoryEntry::OwnedShared {
                owner: 0,
                sharers: SharerSet::single(1),
            }
        );
        // A third reader is served by the Sm owner without another downgrade.
        let out = p.resolve(&mut e, 2, CoreRequest::Read);
        assert_eq!(out.downgrade_owner, None);
        assert_eq!(out.message_count, 2 + 2);
        assert_eq!(e.holders().len(), 3);
    }

    #[test]
    fn dragon_write_steals_ownership_via_update() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Write);
        let out = p.resolve(&mut e, 1, CoreRequest::Write);
        assert!(out.invalidate.is_empty());
        assert_eq!(out.update, SharerSet::single(0));
        assert_eq!(out.fill_state, MesiState::SharedModified);
        assert_eq!(
            e,
            DirectoryEntry::OwnedShared {
                owner: 1,
                sharers: SharerSet::single(0),
            }
        );
        assert_eq!(p.stats().get("owner_transfers"), 1);
        assert_eq!(p.stats().get("updates_sent"), 1);
    }

    #[test]
    fn dragon_sm_owner_rewrites_keep_broadcasting() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 0, CoreRequest::Write); // 0 becomes Sm owner
        let out = p.resolve(&mut e, 0, CoreRequest::Write);
        assert_eq!(out.update, SharerSet::single(1));
        assert_eq!(out.fill_state, MesiState::SharedModified);
        assert_eq!(p.stats().get("updates_sent"), 2);
        assert_eq!(p.stats().get("silent_upgrades"), 0);
        // A sharer writing takes over ownership; the old owner joins the
        // update targets.
        let out = p.resolve(&mut e, 1, CoreRequest::Write);
        assert_eq!(out.update, SharerSet::single(0));
        assert_eq!(
            e,
            DirectoryEntry::OwnedShared {
                owner: 1,
                sharers: SharerSet::single(0),
            }
        );
        assert_eq!(p.stats().get("owner_transfers"), 1);
    }

    #[test]
    fn dragon_owner_eviction_leaves_sharers() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 0, CoreRequest::Write);
        // The Sm owner evicts its dirty copy: the write-back is real, the
        // remaining replica becomes a plain sharer.
        let out = p.resolve(&mut e, 0, CoreRequest::EvictDirty);
        assert!(out.owner_writeback);
        assert_eq!(e, DirectoryEntry::Shared(SharerSet::single(1)));
        // And a sharer evicting under an Sm owner collapses back to Owned.
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 0, CoreRequest::Write);
        p.resolve(&mut e, 1, CoreRequest::EvictClean);
        assert_eq!(e, DirectoryEntry::Owned { owner: 0 });
    }

    #[test]
    fn dragon_invalidate_all_reports_sm_dirty() {
        let (mut p, mut e) = dragon();
        p.resolve(&mut e, 0, CoreRequest::Read);
        p.resolve(&mut e, 1, CoreRequest::Read);
        p.resolve(&mut e, 0, CoreRequest::Write);
        assert!(e.is_owned(), "the Sm owner held the only up-to-date copy");
        let holders = p.invalidate_all(&mut e);
        assert_eq!(holders.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(e, DirectoryEntry::Uncached);
    }

    #[test]
    fn engine_dispatches_by_protocol() {
        // The same requests: Dragon updates the other holders, MESI
        // invalidates them.
        for (protocol, fill_state) in [
            (CoherenceProtocol::Dragon, MesiState::SharedModified),
            (CoherenceProtocol::Mesi, MesiState::Modified),
        ] {
            let mut dir = Directory::new(4);
            let mut engine = CoherenceEngine::new(protocol, 4);
            let line = LineAddr::new(0x9);
            engine.access(&mut dir, line, 0, CoreRequest::Read);
            engine.access(&mut dir, line, 1, CoreRequest::Read);
            let out = engine.access(&mut dir, line, 2, CoreRequest::Write);
            assert_eq!(out.fill_state, fill_state);
            let others: SharerSet = [0, 1].into_iter().collect();
            if protocol == CoherenceProtocol::Dragon {
                assert_eq!(out.update, others);
                assert_eq!(engine.stats().get("updates_sent"), 2);
                assert_eq!(dir.update(line, |e| engine.invalidate_all(e)).len(), 3);
            } else {
                assert_eq!(out.invalidate, others);
                assert_eq!(engine.stats().get("updates_sent"), 0);
                assert_eq!(dir.update(line, |e| engine.invalidate_all(e)).len(), 1);
            }
        }
    }
}
