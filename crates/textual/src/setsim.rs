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
/// allocating nothing once its tables have grown, and giving a candidate
/// up as soon as it provably cannot score above a floor.
///
/// [`JaccardScorer::load`] puts the probe's distinct hashes in an
/// open-addressed table once. Each candidate then begins with
/// [`JaccardScorer::start`] and feeds its hashes (repeats allowed, e.g. one
/// per q-gram window) to [`JaccardScorer::push`], which counts distinct and
/// shared hashes through a second table that a generation stamp empties in
/// O(1). [`JaccardScorer::jaccard`] divides the same integers as
/// [`jaccard`] over the two hash sets, so the `f64` is bit-identical.
///
/// **The bound.** Let the probe have |A| distinct hashes, and let the
/// candidate so far have d distinct hashes, s of them shared, with at most
/// r hashes left. Its final score is at most
/// (s + min(r, |A| − s)) / (|A| + d − s): the shared count can grow by at
/// most min(r, |A| − s), and each later shared hash is also a new distinct
/// one, so the union never drops below |A| + d − s. `push` gives the
/// candidate up once this bound, as the same `f64` division, is at most the
/// floor. Correctly rounded division is monotone, so the final score would
/// be at most the floor too.
///
/// # Examples
/// ```
/// use sablock_textual::{jaccard, JaccardScorer, StableHashSet};
/// let probe = [1, 2, 3, 3];
/// let candidate = [2, 3, 4, 2];
/// let mut scorer = JaccardScorer::default();
/// scorer.load(&probe);
/// let mut walk = |floor| {
///     scorer.start(floor);
///     let rests = (0..candidate.len()).rev();
///     candidate.iter().zip(rests).all(|(&hash, rest)| scorer.push(hash, rest)).then(|| scorer.jaccard())
/// };
/// let a: StableHashSet<u64> = probe.into_iter().collect();
/// let b: StableHashSet<u64> = candidate.into_iter().collect();
/// assert_eq!(walk(f64::NEG_INFINITY), Some(jaccard(&a, &b))); // 2 / 4
/// // The repeated last hash caps the score at 2 / 4, which cannot beat 0.5.
/// assert_eq!(walk(0.5), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JaccardScorer {
    probe: StampedSet,
    candidate: StampedSet,
    /// The score the current candidate must beat.
    floor: f64,
    /// How many of the current candidate's distinct hashes the probe has.
    shared: usize,
}

impl JaccardScorer {
    /// Makes `probe` (hashes, repeats allowed) the set later candidates
    /// are scored against.
    pub fn load(&mut self, probe: &[u64]) {
        self.probe.clear();
        for &hash in probe {
            self.probe.insert(hash);
        }
    }

    /// Begins a new candidate, to be given up once it cannot score above
    /// `floor` (`f64::NEG_INFINITY` keeps every candidate).
    pub fn start(&mut self, floor: f64) {
        self.candidate.clear();
        self.floor = floor;
        self.shared = 0;
    }

    /// Counts one hash of the current candidate; `rest` bounds how many of
    /// its hashes follow. Returns `false` once the candidate's score cannot
    /// exceed the floor (see the type docs), after which it must not be
    /// pushed to again. `true` after the last hash does not mean that the
    /// candidate beats the floor: compare its [`JaccardScorer::jaccard`].
    #[inline]
    pub fn push(&mut self, hash: u64, rest: usize) -> bool {
        if self.candidate.insert(hash) && self.probe.contains(hash) {
            // Skipping a check never drops a candidate wrongly, and a new
            // shared hash moves one from `rest` to `shared`, which leaves
            // the bound as it was whenever `rest` fell by one.
            self.shared += 1;
            return true;
        }
        let (probe, shared) = (self.probe.len, self.shared);
        let bound = (shared + rest.min(probe - shared)) as f64 / (probe + self.candidate.len - shared) as f64;
        bound > self.floor
    }

    /// The Jaccard similarity of the loaded probe's hash set and the set of
    /// the hashes pushed since [`JaccardScorer::start`]; 0 when both are
    /// empty.
    pub fn jaccard(&self) -> f64 {
        let (probe, distinct) = (self.probe.len, self.candidate.len);
        if probe == 0 && distinct == 0 {
            return 0.0;
        }
        self.shared as f64 / (probe + distinct - self.shared) as f64
    }
}

/// An open-addressed (linear-probing) set of `u64` keys that empties in
/// O(1): a slot holds a key only while its stamp equals the current
/// generation, so `clear` bumps the generation instead of clearing slots.
/// Stamps are one byte; every 255th clear wraps and zeroes them.
#[derive(Debug, Clone, Default)]
struct StampedSet {
    keys: Vec<u64>,
    stamps: Vec<u8>,
    generation: u8,
    /// Keys held in the current generation.
    len: usize,
    /// `64 - log2(slots)`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl StampedSet {
    /// The smallest table; it keeps `shift` below 64.
    const MIN_SLOTS: usize = 16;

    /// Empties the set. The table keeps its size.
    fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// The slot holding `key` and `true`, or the free slot where it would
    /// go and `false`. The table must not be empty.
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

    /// Inserts `key`; `true` when it was not yet present. Doubles the table
    /// first when one more key would fill more than half of it, so a free
    /// slot always ends a probe.
    fn insert(&mut self, key: u64) -> bool {
        if 2 * (self.len + 1) > self.keys.len() {
            self.grow();
        }
        let (slot, present) = self.find(key);
        if !present {
            self.stamps[slot] = self.generation;
            self.keys[slot] = key;
            self.len += 1;
        }
        !present
    }

    /// Rehashes the current keys into a table twice the size.
    fn grow(&mut self) {
        let generation = self.generation;
        let live: Vec<u64> =
            self.keys.iter().zip(&self.stamps).filter(|&(_, &stamp)| stamp == generation).map(|(&key, _)| key).collect();
        let slots = (2 * self.keys.len()).max(Self::MIN_SLOTS);
        self.keys = vec![0; slots];
        self.stamps = vec![0; slots];
        (self.generation, self.len, self.shift) = (1, 0, 64 - slots.trailing_zeros());
        for key in live {
            self.insert(key);
        }
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

    /// Scores a whole candidate with no floor.
    fn score(scorer: &mut JaccardScorer, candidate: &[u64]) -> f64 {
        scorer.start(f64::NEG_INFINITY);
        for (at, &hash) in candidate.iter().enumerate() {
            assert!(scorer.push(hash, candidate.len() - 1 - at), "no floor never gives a candidate up");
        }
        scorer.jaccard()
    }

    #[test]
    fn scorer_handles_empty_sets_and_stamp_wraps() {
        let mut scorer = JaccardScorer::default();
        assert_eq!(score(&mut scorer, &[]), 0.0, "nothing loaded is an empty probe");
        assert_eq!(score(&mut scorer, &[7, 7]), 0.0);
        scorer.load(&[]);
        assert_eq!(score(&mut scorer, &[]), 0.0);
        scorer.load(&[0, u64::MAX, 0]);
        // A long candidate grows the candidate table to 16,384 slots, so the
        // few keys of each later round rarely overwrite each other's slots.
        let long: Vec<u64> = (1..=5_000).collect();
        assert_eq!(score(&mut scorer, &long), 0.0);
        // Each key recurs exactly 255 (or 256) rounds after its last use,
        // when a one-byte stamp cycle would hand its stale slot the current
        // generation again; the wrap must zero the stamps so it never
        // counts as present.
        for round in 0..1_000u64 {
            let candidate = [u64::MAX, 10_000 + round % 255, 20_000 + round % 256];
            assert_eq!(score(&mut scorer, &candidate), 1.0 / 4.0, "round {round}");
        }
        assert_eq!(score(&mut scorer, &[]), 0.0);
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
        fn scorer_equals_jaccard_over_hash_sets(
            lists in proptest::collection::vec(arb_hashes(160), 1..400),
            picks in proptest::collection::vec(any::<u8>(), 400)
        ) {
            // One scorer over every list: a probe every 97 lists (at most 40
            // hashes, so longer candidates outgrow the probe table), the rest
            // walked as candidates of the latest probe against a floor of no
            // floor, the exact score, just below it, or an arbitrary one.
            let mut scorer = JaccardScorer::default();
            let mut probe: &[u64] = &[];
            for ((at, list), pick) in lists.iter().enumerate().zip(picks) {
                if at % 97 == 0 {
                    probe = &list[..list.len().min(40)];
                    scorer.load(probe);
                    continue;
                }
                let reference = jaccard(&hash_set(probe), &hash_set(list));
                let floor = match pick % 4 {
                    0 => f64::NEG_INFINITY,
                    1 => reference,
                    2 if reference > 0.0 => f64::from_bits(reference.to_bits() - 1),
                    2 => -f64::MIN_POSITIVE,
                    _ => f64::from(pick) / 255.0,
                };
                scorer.start(floor);
                let kept = list.iter().zip((0..list.len()).rev()).all(|(&hash, rest)| scorer.push(hash, rest));
                prop_assert!(kept || reference <= floor, "a candidate scoring {} was dropped below {}", reference, floor);
                if kept {
                    prop_assert_eq!(scorer.jaccard(), reference);
                }
            }
        }

        #[test]
        fn overlap_at_least_jaccard(a in arb_set(), b in arb_set()) {
            prop_assert!(overlap(&a, &b) + 1e-12 >= jaccard(&a, &b));
        }
    }
}
