//! Physical addresses, line addresses and bank mapping.
//!
//! The paper's L3 is shared, split into 16 banks, with addresses statically
//! mapped to banks (Chapter 5). We interleave banks on line granularity,
//! which is the conventional static mapping for banked LLCs.

use std::fmt;

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte address.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache-line address containing this byte, for lines of
    /// `line_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    #[must_use]
    pub fn line(self, line_size: u64) -> LineAddr {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 >> line_size.trailing_zeros())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address: the byte address divided by the line size.
///
/// All caches in the paper share a 64-byte line size, so a `LineAddr` is
/// meaningful across the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from its raw line number.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line number.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first byte address of this line.
    #[must_use]
    pub fn base_addr(self, line_size: u64) -> Addr {
        Addr(self.0 * line_size)
    }

    /// The set index for a cache with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two.
    #[must_use]
    pub fn set_index(self, num_sets: u64) -> u64 {
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        self.0 & (num_sets - 1)
    }

    /// The tag for a cache with `num_sets` sets.
    #[must_use]
    pub fn tag(self, num_sets: u64) -> u64 {
        self.0 >> num_sets.trailing_zeros()
    }

    /// The shared-L3 bank this line is statically mapped to, for `num_banks`
    /// banks interleaved at line granularity.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    #[must_use]
    pub fn bank(self, num_banks: usize) -> usize {
        assert!(num_banks > 0, "bank count must be non-zero");
        (self.0 % num_banks as u64) as usize
    }

    /// The line-within-bank index after bank interleaving, used for set
    /// selection inside a single L3 bank.
    #[must_use]
    pub fn bank_local(self, num_banks: usize) -> LineAddr {
        assert!(num_banks > 0, "bank count must be non-zero");
        LineAddr(self.0 / num_banks as u64)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_to_line_round_trip() {
        let a = Addr::new(0x1234_5678);
        let line = a.line(64);
        assert_eq!(line.raw(), 0x1234_5678 / 64);
        let base = line.base_addr(64);
        assert!(base.raw() <= a.raw() && a.raw() < base.raw() + 64);
    }

    #[test]
    fn set_index_and_tag_partition_line_address() {
        let line = LineAddr::new(0xABCDE);
        let sets = 512;
        let idx = line.set_index(sets);
        let tag = line.tag(sets);
        assert_eq!(tag * sets + idx, line.raw());
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        // Consecutive lines go to consecutive banks.
        for i in 0..64u64 {
            assert_eq!(LineAddr::new(i).bank(16), (i % 16) as usize);
        }
        // Bank-local addresses within a bank are dense.
        assert_eq!(LineAddr::new(16).bank_local(16), LineAddr::new(1));
        assert_eq!(LineAddr::new(33).bank_local(16), LineAddr::new(2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_panics() {
        let _ = Addr::new(100).line(48);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = LineAddr::new(100).set_index(3);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(LineAddr::new(16).to_string(), "line 0x10");
    }

    #[test]
    fn conversions_from_u64() {
        assert_eq!(Addr::from(7u64), Addr::new(7));
        assert_eq!(LineAddr::from(7u64), LineAddr::new(7));
    }
}
