//! Small deterministic hashing utilities.
//!
//! The LSH pipeline hashes millions of q-gram shingles and bucket keys; the
//! default SipHash hasher of `std::collections::HashMap` is needlessly slow
//! and, more importantly, *not stable across processes*, which would make
//! minhash signatures irreproducible between runs. This module provides:
//!
//! * [`FxHasher64`] — an FxHash-style multiply-xor hasher (the algorithm used
//!   inside rustc), deterministic and fast for short keys,
//! * [`hash_str`] / [`hash_bytes`] — one-shot 64-bit hashes of strings/bytes,
//! * [`mix64`] — a Murmur3-style finaliser used to derive independent hash
//!   functions from a single base hash (the standard "one hash, many
//!   permutations" minhash construction),
//! * [`StableHashSet`] / [`StableHashMap`] — aliases for collections keyed by
//!   the deterministic hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style 64-bit hasher: fast, deterministic, not HashDoS-resistant.
///
/// Suitable for internal data structures keyed by shingles, concept
/// identifiers and bucket keys, where adversarial inputs are not a concern.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    state: u64,
}

impl FxHasher64 {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // A final mix hardens the otherwise weak low bits of Fx hashing so the
        // value can be truncated (e.g. into band buckets) without clustering.
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// A `BuildHasher` for [`FxHasher64`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashSet` with a deterministic, fast hasher.
pub type StableHashSet<T> = HashSet<T, FxBuildHasher>;

/// A `HashMap` with a deterministic, fast hasher.
pub type StableHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Murmur3's 64-bit finaliser ("fmix64"); a strong bijective bit mixer.
///
/// Used to derive the family of minhash functions `h_i(x) = mix64(x ^ seed_i)`
/// from a single shingle hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// [`hash_bytes`] of a 1–7 byte slice given packed little-endian in `word`
/// (byte `i` in bits `8i..8i + 8`, every higher bit zero): such a slice is
/// one FxHash tail step from the zero state, then the finaliser.
#[inline]
pub(crate) fn hash_packed(word: u64, len: usize) -> u64 {
    debug_assert!((1..8).contains(&len), "a packed word holds 1 to 7 bytes");
    mix64((word ^ len as u64).wrapping_mul(SEED))
}

/// One-shot 64-bit hash of a byte slice.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher64::default();
    hasher.write(bytes);
    hasher.finish()
}

/// One-shot 64-bit hash of a string slice.
///
/// # Examples
/// ```
/// use sablock_textual::hash_str;
/// assert_eq!(hash_str("cascade"), hash_str("cascade"));
/// assert_ne!(hash_str("cascade"), hash_str("correlation"));
/// ```
#[inline]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Hashes any `Hash` value with the deterministic hasher.
#[inline]
pub fn hash_one<T: Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher64::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_str("entity resolution"), hash_str("entity resolution"));
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_str("a"), hash_str("b"));
        assert_ne!(hash_str("ab"), hash_str("ba"));
        assert_ne!(hash_str(""), hash_str("\0"));
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        // A bijection never collides; sample a few thousand inputs.
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn mix64_changes_all_zero_input() {
        assert_eq!(mix64(0), 0); // fmix64 maps 0 to 0 by definition
        assert_ne!(mix64(1), 1);
    }

    #[test]
    fn stable_collections_work() {
        let mut set: StableHashSet<&str> = StableHashSet::default();
        set.insert("a");
        set.insert("a");
        assert_eq!(set.len(), 1);
        let mut map: StableHashMap<u64, u32> = StableHashMap::default();
        map.insert(7, 1);
        *map.entry(7).or_insert(0) += 1;
        assert_eq!(map[&7], 2);
    }

    #[test]
    fn hash_one_matches_between_equal_values() {
        #[derive(Hash)]
        struct Key(u32, &'static str);
        assert_eq!(hash_one(&Key(1, "x")), hash_one(&Key(1, "x")));
        assert_ne!(hash_one(&Key(1, "x")), hash_one(&Key(2, "x")));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn packed_words_hash_like_their_bytes(bytes in proptest::collection::vec(any::<u8>(), 1..8)) {
            let word = bytes.iter().rev().fold(0u64, |word, &b| (word << 8) | u64::from(b));
            prop_assert_eq!(hash_packed(word, bytes.len()), hash_bytes(&bytes), "{:?}", bytes);
        }
    }
}
