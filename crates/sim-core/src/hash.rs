//! The workspace's one content-hash primitive: FNV-1a over bytes.
//!
//! Three subsystems key durable state off content hashes — the lint
//! incremental cache (`target/lint-cache.json`), the batch executor's
//! name-derived scenario seeds, and the experiment result cache
//! (`target/result-cache/`, keyed in part by a build-time hash of every
//! source file). They must all agree on the algorithm and
//! its constants, so the fold lives here once instead of three inlined
//! copies drifting apart.
//!
//! FNV-1a (64-bit) is the right tool for all three: stable across
//! platforms and runs, fast enough to hash every source file and every
//! scenario spec on every invocation, and dependency-free. It is **not**
//! collision-resistant against adversaries — these are caches keyed by
//! trusted local content, not security boundaries.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an existing FNV-1a state, returning the new state.
///
/// Chaining calls hashes the concatenation: callers building composite
/// keys (e.g. experiment id + code version + scenario JSON) thread the state
/// through without allocating an intermediate buffer.
#[must_use]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    // The result-cache key loop: every scenario of every batch hashes
    // its canonical JSON through here before it can hit or miss.
    // lint:hot-path
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // lint:hot-path-end
    h
}

/// FNV-1a over `bytes` from the standard offset basis.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// FNV-1a over a string's UTF-8 bytes.
#[must_use]
pub fn fnv1a_str(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Classic FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn extend_hashes_the_concatenation() {
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_str("foobar"), fnv1a(b"foobar"));
    }

    #[test]
    fn content_sensitive() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b" "));
    }
}
