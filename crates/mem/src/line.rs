//! Per-line coherence state and residency metadata.
//!
//! The refresh policies of the paper (Table 3.1) decide what to do with a
//! line purely from its *state* (valid / dirty) and a small per-line `Count`
//! maintained alongside the tag bits (Section 4.2). [`LineMeta`] carries the
//! one timestamp the eDRAM crate needs to evaluate those policies lazily.

use std::fmt;

use refrint_engine::time::Cycle;

use crate::addr::LineAddr;

/// Coherence state of a line, as tracked by the owning cache.
///
/// The directory protocol of the paper is MESI with the directory kept at
/// the (inclusive) L3. The update-based Dragon protocol reuses the same
/// states plus [`MesiState::SharedModified`] (Dragon's `Sm`): dirty like
/// Modified, but replicated, so writes still need a coherence transaction
/// to broadcast the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MesiState {
    /// Line not present / invalidated.
    #[default]
    Invalid,
    /// Present, clean, and potentially replicated in other caches.
    Shared,
    /// Present, clean, and guaranteed not replicated elsewhere.
    Exclusive,
    /// Present, dirty, sole valid copy on chip.
    Modified,
    /// Present, dirty, *and* replicated (Dragon `Sm`): this cache is
    /// responsible for the write-back, but other caches hold clean copies,
    /// so writes must broadcast updates rather than proceed silently.
    SharedModified,
}

impl MesiState {
    /// Whether the line holds valid data.
    #[must_use]
    pub const fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// Whether the line is dirty with respect to the next level.
    #[must_use]
    pub const fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::SharedModified)
    }

    /// Whether the cache holding this line may service a write without a
    /// coherence transaction.
    #[must_use]
    pub const fn can_write_silently(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// The state after a write-back that keeps the data ("Valid Clean" in the
    /// paper's WB(n,m) description).
    #[must_use]
    pub const fn after_writeback(self) -> MesiState {
        match self {
            MesiState::Modified | MesiState::SharedModified => MesiState::Shared,
            other => other,
        }
    }

    /// A single-character mnemonic (`M`, `E`, `S`, `I`, or `m` for
    /// [`MesiState::SharedModified`]).
    #[must_use]
    pub const fn mnemonic(self) -> char {
        match self {
            MesiState::Invalid => 'I',
            MesiState::Shared => 'S',
            MesiState::Exclusive => 'E',
            MesiState::Modified => 'M',
            MesiState::SharedModified => 'm',
        }
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// Residency metadata consumed by the refresh policies.
///
/// `last_touch` is the cycle of the most recent *normal* (non-refresh) access
/// — exactly the event that resets the paper's per-line `Count` and recharges
/// the Sentry bit. Everything else a policy needs (refresh counts, write-back
/// and invalidation times) follows from it and the line's state by the lazy
/// decay algebra, so nothing else is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// Cycle of the last normal access (fill, read hit, or write hit).
    pub last_touch: Cycle,
}

impl LineMeta {
    /// Records a normal access at `now`, recharging the implicit sentry bit
    /// and resetting the policy count.
    pub fn touch(&mut self, now: Cycle) {
        self.last_touch = now;
    }
}

/// A cache line: identity (line address), coherence state, and residency
/// metadata. Data contents are not simulated — only state and timing matter
/// for energy and refresh behaviour. [`Cache`](crate::cache::Cache) stores
/// lines packed and hands out copies of this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// The line address stored in this way.
    pub addr: LineAddr,
    /// The MESI state of the line.
    pub state: MesiState,
    /// Residency metadata for refresh policies.
    pub meta: LineMeta,
}

impl CacheLine {
    /// Creates a line filled at `now` in the given state.
    #[must_use]
    pub fn new(addr: LineAddr, state: MesiState, now: Cycle) -> Self {
        CacheLine {
            addr,
            state,
            meta: LineMeta { last_touch: now },
        }
    }

    /// Whether the line holds valid data.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.state.is_valid()
    }

    /// Whether the line is dirty.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.state.is_dirty()
    }

    /// Applies a write access at `now`, upgrading the line to Modified. A
    /// [`MesiState::SharedModified`] line stays `Sm` — it is already dirty,
    /// and only a coherence transaction may promote it (other caches still
    /// hold copies).
    pub fn write(&mut self, now: Cycle) {
        debug_assert!(self.is_valid(), "write of an invalid line");
        if self.state != MesiState::SharedModified {
            self.state = MesiState::Modified;
        }
        self.meta.touch(now);
    }

    /// Applies a write-back at `now`: the line stays valid but becomes clean
    /// (the paper's "Valid Clean" state after WB(n,·) expires).
    pub fn write_back(&mut self) {
        self.state = self.state.after_writeback();
    }

    /// Invalidates the line.
    pub fn invalidate(&mut self) {
        self.state = MesiState::Invalid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesi_predicates() {
        assert!(!MesiState::Invalid.is_valid());
        assert!(MesiState::Shared.is_valid());
        assert!(MesiState::Exclusive.is_valid());
        assert!(MesiState::Modified.is_valid());
        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
        assert!(MesiState::Modified.can_write_silently());
        assert!(MesiState::Exclusive.can_write_silently());
        assert!(!MesiState::Shared.can_write_silently());
        assert_eq!(MesiState::default(), MesiState::Invalid);
        // Dragon's Sm: dirty, but replicated, so never silently writable.
        assert!(MesiState::SharedModified.is_valid());
        assert!(MesiState::SharedModified.is_dirty());
        assert!(!MesiState::SharedModified.can_write_silently());
    }

    #[test]
    fn shared_modified_lifecycle() {
        assert_eq!(
            MesiState::SharedModified.after_writeback(),
            MesiState::Shared
        );
        assert_eq!(MesiState::SharedModified.mnemonic(), 'm');
        // write() must not promote Sm to M behind the protocol's back.
        let mut line = CacheLine::new(LineAddr::new(2), MesiState::SharedModified, Cycle::new(3));
        line.write(Cycle::new(9));
        assert_eq!(line.state, MesiState::SharedModified);
        line.write_back();
        assert_eq!(line.state, MesiState::Shared);
        assert!(!line.is_dirty());
    }

    #[test]
    fn writeback_transition() {
        assert_eq!(MesiState::Modified.after_writeback(), MesiState::Shared);
        assert_eq!(MesiState::Shared.after_writeback(), MesiState::Shared);
        assert_eq!(MesiState::Invalid.after_writeback(), MesiState::Invalid);
    }

    #[test]
    fn mnemonics_and_display() {
        assert_eq!(MesiState::Modified.to_string(), "M");
        assert_eq!(MesiState::Exclusive.mnemonic(), 'E');
        assert_eq!(MesiState::Shared.mnemonic(), 'S');
        assert_eq!(MesiState::Invalid.mnemonic(), 'I');
    }

    #[test]
    fn line_read_write_lifecycle() {
        let mut line = CacheLine::new(LineAddr::new(0x42), MesiState::Exclusive, Cycle::new(1));
        assert!(line.is_valid());
        assert!(!line.is_dirty());

        line.write(Cycle::new(10));
        assert_eq!(line.state, MesiState::Modified);
        assert!(line.is_dirty());
        assert_eq!(line.meta.last_touch, Cycle::new(10));

        line.write_back();
        assert_eq!(line.state, MesiState::Shared);
        assert!(!line.is_dirty());

        line.invalidate();
        assert!(!line.is_valid());
    }
}
