//! FNV-1a, the workspace's deterministic 64-bit hash: trace and span ids,
//! the serve disk cache's file names, and the digests of the output pin.

/// The 64-bit FNV-1a hash of `bytes`, with its offset basis XORed with
/// `seed` (0 gives the standard hash).
#[must_use]
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(0, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(0, b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(1, b"a"), fnv1a(0, b"a"));
    }
}
