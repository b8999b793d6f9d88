//! Set-based similarity coefficients: Jaccard, Dice and overlap.
//!
//! The Jaccard coefficient is the backbone of the whole framework: textual
//! similarity is Jaccard over q-gram shingles (approximated by minhash), and
//! semantic similarity of concepts (Eq. 4) is Jaccard over leaf-concept sets.

use std::collections::HashSet;
use std::hash::{BuildHasher, Hash};

/// Jaccard similarity `|A ∩ B| / |A ∪ B|` of two sets.
///
/// Returns `0.0` when both sets are empty (the convention used throughout the
/// blocking literature: two records with no shingles are *not* considered
/// identical, they are considered incomparable).
///
/// # Examples
/// ```
/// use std::collections::HashSet;
/// use sablock_textual::jaccard;
/// let a: HashSet<_> = ["a", "b", "c"].into_iter().collect();
/// let b: HashSet<_> = ["b", "c", "d"].into_iter().collect();
/// assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
/// ```
pub fn jaccard<T, S>(a: &HashSet<T, S>, b: &HashSet<T, S>) -> f64
where
    T: Eq + Hash,
    S: BuildHasher,
{
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Exact Jaccard of one probe's shingle hashes against many candidates,
/// allocating nothing per candidate.
///
/// [`JaccardScorer::load`] puts the probe's distinct hashes in an
/// open-addressed table once; [`JaccardScorer::score`] then counts a
/// candidate's distinct and shared hashes through a second table that a
/// generation stamp empties in O(1). Both take hashes with repeats (e.g.
/// one per q-gram window), and the score divides the same integers as
/// [`jaccard`] over the two hash sets, so the `f64` is bit-identical.
///
/// # Examples
/// ```
/// use sablock_textual::{jaccard, JaccardScorer, StableHashSet};
/// let probe = [1, 2, 3, 3];
/// let candidate = [2, 3, 4, 2];
/// let mut scorer = JaccardScorer::default();
/// scorer.load(&probe);
/// let a: StableHashSet<u64> = probe.into_iter().collect();
/// let b: StableHashSet<u64> = candidate.into_iter().collect();
/// assert_eq!(scorer.score(&candidate), jaccard(&a, &b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct JaccardScorer {
    probe: StampedSet,
    probe_len: usize,
    candidate: StampedSet,
}

impl JaccardScorer {
    /// Makes `probe` (hashes, repeats allowed) the set later candidates
    /// are scored against.
    pub fn load(&mut self, probe: &[u64]) {
        self.probe.reset(probe.len());
        self.probe_len = probe.iter().filter(|&&hash| self.probe.insert(hash)).count();
    }

    /// The Jaccard similarity of the loaded probe's hash set and the set of
    /// `candidate`'s hashes (repeats allowed); 0 when both are empty.
    pub fn score(&mut self, candidate: &[u64]) -> f64 {
        self.candidate.reset(candidate.len());
        let (mut distinct, mut shared) = (0usize, 0usize);
        for &hash in candidate {
            if self.candidate.insert(hash) {
                distinct += 1;
                shared += usize::from(self.probe.contains(hash));
            }
        }
        if self.probe_len == 0 && distinct == 0 {
            return 0.0;
        }
        shared as f64 / (self.probe_len + distinct - shared) as f64
    }
}

/// An open-addressed (linear-probing) set of `u64` keys that empties in
/// O(1): a slot holds a key only while its stamp equals the current
/// generation, so `reset` bumps the generation instead of clearing slots.
/// Stamps are one byte; every 255th reset wraps and zeroes them.
#[derive(Debug, Clone, Default)]
struct StampedSet {
    keys: Vec<u64>,
    stamps: Vec<u8>,
    generation: u8,
    /// `64 - log2(slots)`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl StampedSet {
    /// The smallest table; it keeps `shift` below 64 even for no keys.
    const MIN_SLOTS: usize = 16;

    /// Empties the set and makes room for `count` insertions at a load
    /// factor of at most one half. Grows, never shrinks.
    fn reset(&mut self, count: usize) {
        let slots = count.saturating_mul(2).max(Self::MIN_SLOTS).next_power_of_two();
        if slots > self.keys.len() {
            self.keys = vec![0; slots];
            self.stamps = vec![0; slots];
            self.generation = 0;
            self.shift = 64 - slots.trailing_zeros();
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// The slot holding `key` and `true`, or the free slot where it would
    /// go and `false`. The table must have been `reset` at least once.
    fn find(&self, key: u64) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.stamps[slot] == self.generation {
            if self.keys[slot] == key {
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
        (slot, false)
    }

    /// Inserts `key`; `true` when it was not yet present. The caller keeps
    /// insertions within the count given to the last `reset`.
    fn insert(&mut self, key: u64) -> bool {
        let (slot, present) = self.find(key);
        if !present {
            self.stamps[slot] = self.generation;
            self.keys[slot] = key;
        }
        !present
    }

    fn contains(&self, key: u64) -> bool {
        !self.keys.is_empty() && self.find(key).1
    }
}

/// Dice coefficient `2|A ∩ B| / (|A| + |B|)`.
pub fn dice<T, S>(a: &HashSet<T, S>, b: &HashSet<T, S>) -> f64
where
    T: Eq + Hash,
    S: BuildHasher,
{
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    2.0 * inter as f64 / (a.len() + b.len()) as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)`.
pub fn overlap<T, S>(a: &HashSet<T, S>, b: &HashSet<T, S>) -> f64
where
    T: Eq + Hash,
    S: BuildHasher,
{
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    inter as f64 / a.len().min(b.len()) as f64
}

/// Number of elements common to both sets, iterating over the smaller one.
pub fn intersection_size<T, S>(a: &HashSet<T, S>, b: &HashSet<T, S>) -> usize
where
    T: Eq + Hash,
    S: BuildHasher,
{
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().filter(|x| large.contains(*x)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn set(items: &[&str]) -> HashSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jaccard_identical_sets() {
        let a = set(&["x", "y"]);
        assert_eq!(jaccard(&a, &a.clone()), 1.0);
    }

    #[test]
    fn jaccard_disjoint_sets() {
        assert_eq!(jaccard(&set(&["a"]), &set(&["b"])), 0.0);
    }

    #[test]
    fn jaccard_empty_sets_are_zero() {
        let empty: HashSet<String> = HashSet::new();
        assert_eq!(jaccard(&empty, &empty), 0.0);
        assert_eq!(jaccard(&empty, &set(&["a"])), 0.0);
    }

    #[test]
    fn dice_geq_jaccard() {
        let a = set(&["a", "b", "c", "d"]);
        let b = set(&["c", "d", "e"]);
        assert!(dice(&a, &b) >= jaccard(&a, &b));
    }

    #[test]
    fn overlap_of_subset_is_one() {
        let a = set(&["a", "b"]);
        let b = set(&["a", "b", "c", "d"]);
        assert_eq!(overlap(&a, &b), 1.0);
    }

    #[test]
    fn intersection_size_symmetric() {
        let a = set(&["a", "b", "c"]);
        let b = set(&["b", "c", "d", "e"]);
        assert_eq!(intersection_size(&a, &b), intersection_size(&b, &a));
        assert_eq!(intersection_size(&a, &b), 2);
    }

    #[test]
    fn scorer_handles_empty_sets_and_stamp_wraps() {
        let mut scorer = JaccardScorer::default();
        assert_eq!(scorer.score(&[]), 0.0, "nothing loaded is an empty probe");
        assert_eq!(scorer.score(&[7, 7]), 0.0);
        scorer.load(&[]);
        assert_eq!(scorer.score(&[]), 0.0);
        scorer.load(&[0, u64::MAX, 0]);
        // A long candidate grows the candidate table to 16,384 slots, so the
        // few keys of each later round rarely overwrite each other's slots.
        let long: Vec<u64> = (1..=5_000).collect();
        assert_eq!(scorer.score(&long), 0.0);
        // Each key recurs exactly 255 (or 256) rounds after its last use,
        // when a one-byte stamp cycle would hand its stale slot the current
        // generation again; the wrap must zero the stamps so it never
        // counts as present.
        for round in 0..1_000u64 {
            let candidate = [u64::MAX, 10_000 + round % 255, 20_000 + round % 256];
            assert_eq!(scorer.score(&candidate), 1.0 / 4.0, "round {round}");
        }
        assert_eq!(scorer.score(&[]), 0.0);
    }

    #[test]
    fn jaccard_known_value() {
        // The paper's Example 4.4: |∩| = 5, |∪| = 6 → 5/6.
        let leaves_c0 = set(&["c3", "c4", "c5", "c7", "c8", "c9"]);
        let leaves_c1 = set(&["c3", "c4", "c5", "c7", "c8"]);
        assert!((jaccard(&leaves_c0, &leaves_c1) - 5.0 / 6.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn arb_set() -> impl Strategy<Value = HashSet<u32>> {
        proptest::collection::hash_set(0u32..50, 0..30)
    }

    /// Hash lists over a small universe, so repeats and overlaps are
    /// common, that includes 0 and `u64::MAX` (no value is reserved).
    fn arb_hashes(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        let key = (0u64..72)
            .prop_map(|x| if x < 64 { x.wrapping_mul(0x2545_F491_4F6C_DD1D) } else { u64::MAX - (x - 64) });
        proptest::collection::vec(key, 0..max_len)
    }

    fn hash_set(hashes: &[u64]) -> crate::StableHashSet<u64> {
        hashes.iter().copied().collect()
    }

    proptest! {
        #[test]
        fn jaccard_in_unit_interval(a in arb_set(), b in arb_set()) {
            let j = jaccard(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
        }

        #[test]
        fn jaccard_symmetric(a in arb_set(), b in arb_set()) {
            prop_assert!((jaccard(&a, &b) - jaccard(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn jaccard_self_is_one_unless_empty(a in arb_set()) {
            let expected = if a.is_empty() { 0.0 } else { 1.0 };
            prop_assert_eq!(jaccard(&a, &a.clone()), expected);
        }

        #[test]
        fn dice_bounds_jaccard(a in arb_set(), b in arb_set()) {
            // j <= d <= 2j/(1+j) relationship: d = 2j/(1+j)
            let j = jaccard(&a, &b);
            let d = dice(&a, &b);
            let expected = if j == 0.0 { 0.0 } else { 2.0 * j / (1.0 + j) };
            prop_assert!((d - expected).abs() < 1e-9);
        }

        #[test]
        fn scorer_equals_jaccard_over_hash_sets(lists in proptest::collection::vec(arb_hashes(160), 1..400)) {
            // One scorer over every list: a probe every 97 lists (at most 40
            // hashes, so longer candidates outgrow the probe table), the rest
            // scored as candidates of the latest probe.
            let mut scorer = JaccardScorer::default();
            let mut probe: &[u64] = &[];
            for (at, list) in lists.iter().enumerate() {
                if at % 97 == 0 {
                    probe = &list[..list.len().min(40)];
                    scorer.load(probe);
                } else {
                    prop_assert_eq!(scorer.score(list), jaccard(&hash_set(probe), &hash_set(list)));
                }
            }
        }

        #[test]
        fn overlap_at_least_jaccard(a in arb_set(), b in arb_set()) {
            prop_assert!(overlap(&a, &b) + 1e-12 >= jaccard(&a, &b));
        }
    }
}
