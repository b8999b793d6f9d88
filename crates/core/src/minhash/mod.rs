//! Minhash signatures for textual similarity (paper §5.1).
//!
//! Records are shingled into sets of hashed character q-grams
//! ([`shingle::RecordShingler`]); a [`MinHasher`] then produces an
//! `n = k · l`-dimensional signature whose agreement rate between two records
//! is an unbiased estimator of the Jaccard similarity of their shingle sets.
//!
//! Rather than materialising `n` random permutations, each hash function is
//! `h_i(x) = fmix64(x ⊕ seed_i)` for independent pseudo-random seeds — the
//! standard "one strong mixer, many seeds" construction, which behaves as a
//! min-wise independent family for practical purposes.

pub mod shingle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sablock_textual::hashing::mix64;

use crate::error::{CoreError, Result};

/// Configuration of the minhash / banding stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinhashConfig {
    /// Number of hash tables / bands (`l` in the paper).
    pub bands: usize,
    /// Number of minhash functions per band (`k` in the paper).
    pub rows_per_band: usize,
    /// q-gram size used for shingling (the paper uses q=4 for Cora, q=2 for
    /// NC Voter).
    pub qgram: usize,
    /// Seed from which the hash-function seeds are derived.
    pub seed: u64,
}

impl MinhashConfig {
    /// Total number of minhash functions `n = k · l`.
    pub fn num_hashes(&self) -> usize {
        self.bands * self.rows_per_band
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.bands == 0 {
            return Err(CoreError::Config("bands (l) must be > 0".into()));
        }
        if self.rows_per_band == 0 {
            return Err(CoreError::Config("rows_per_band (k) must be > 0".into()));
        }
        if self.qgram == 0 {
            return Err(CoreError::Config("qgram size must be > 0".into()));
        }
        Ok(())
    }

    /// The Cora setting chosen by the paper's parameter tuning: k=4, l=63, q=4.
    pub fn cora_paper() -> Self {
        Self {
            bands: 63,
            rows_per_band: 4,
            qgram: 4,
            seed: 0xC0DE,
        }
    }

    /// The NC Voter setting chosen by the paper: k=9, l=15, q=2.
    pub fn ncvoter_paper() -> Self {
        Self {
            bands: 15,
            rows_per_band: 9,
            qgram: 2,
            seed: 0xC0DE,
        }
    }
}

impl Default for MinhashConfig {
    fn default() -> Self {
        Self {
            bands: 20,
            rows_per_band: 5,
            qgram: 2,
            seed: 0xC0DE,
        }
    }
}

/// A minhash signature: one minimum hash value per hash function.
pub type MinhashSignature = Vec<u64>;

/// A family of minhash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

impl MinHasher {
    /// Creates `num_hashes` hash functions derived from `seed`.
    pub fn new(num_hashes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds = (0..num_hashes).map(|_| rng.gen()).collect();
        Self { seeds }
    }

    /// Creates the hasher matching a [`MinhashConfig`].
    pub fn from_config(config: &MinhashConfig) -> Self {
        Self::new(config.num_hashes(), config.seed)
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.seeds.len()
    }

    /// Computes the minhash signature of a collection of shingles — a
    /// shingle set, or a record's window hashes with repeats
    /// ([`RecordShingler::window_hashes_into`](shingle::RecordShingler::window_hashes_into)):
    /// each slot keeps a minimum, so neither order nor repeats change it.
    ///
    /// No shingles yield a signature of `u64::MAX` sentinels — such
    /// records never collide with anything (they carry no textual evidence),
    /// matching how empty values are treated elsewhere in the framework.
    pub fn signature<'a>(&self, shingles: impl IntoIterator<Item = &'a u64>) -> MinhashSignature {
        let mut signature = vec![u64::MAX; self.seeds.len()];
        for &shingle in shingles {
            for (slot, &seed) in signature.iter_mut().zip(self.seeds.iter()) {
                let h = mix64(shingle ^ seed);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        signature
    }

    /// Estimates the Jaccard similarity of two shingle sets from their
    /// signatures (the fraction of agreeing components).
    pub fn estimate_jaccard(a: &MinhashSignature, b: &MinhashSignature) -> f64 {
        assert_eq!(a.len(), b.len(), "signatures must come from the same family");
        if a.is_empty() {
            return 0.0;
        }
        // Two empty-set sentinels agree on every slot but share no shingles;
        // treat them as dissimilar rather than identical.
        if a.iter().all(|&x| x == u64::MAX) && b.iter().all(|&x| x == u64::MAX) {
            return 0.0;
        }
        let agree = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
        agree as f64 / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_textual::hashing::StableHashSet;
    use sablock_textual::qgrams::hashed_qgram_set;

    fn shingles(text: &str, q: usize) -> StableHashSet<u64> {
        hashed_qgram_set(text, q)
    }

    #[test]
    fn config_validation_and_presets() {
        assert!(MinhashConfig::default().validate().is_ok());
        assert_eq!(MinhashConfig::cora_paper().num_hashes(), 4 * 63);
        assert_eq!(MinhashConfig::ncvoter_paper().num_hashes(), 9 * 15);
        assert!(MinhashConfig { bands: 0, ..Default::default() }.validate().is_err());
        assert!(MinhashConfig { rows_per_band: 0, ..Default::default() }.validate().is_err());
        assert!(MinhashConfig { qgram: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let hasher = MinHasher::new(64, 1);
        let a = shingles("the cascade correlation learning architecture", 3);
        let sig1 = hasher.signature(&a);
        let sig2 = hasher.signature(&a.clone());
        assert_eq!(sig1, sig2);
        assert_eq!(MinHasher::estimate_jaccard(&sig1, &sig2), 1.0);
    }

    #[test]
    fn signatures_are_deterministic_per_seed() {
        let a = shingles("entity resolution", 2);
        let h1 = MinHasher::new(32, 7);
        let h2 = MinHasher::new(32, 7);
        let h3 = MinHasher::new(32, 8);
        assert_eq!(h1.signature(&a), h2.signature(&a));
        assert_ne!(h1.signature(&a), h3.signature(&a));
        assert_eq!(h1.num_hashes(), 32);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // With 512 hash functions the estimator's standard error is about
        // sqrt(J(1-J)/512) ≈ 0.022, so a ±0.1 tolerance is conservative.
        let hasher = MinHasher::new(512, 11);
        let cases = [
            ("the cascade correlation learning architecture", "cascade correlation learning architecture"),
            ("the cascade correlation learning architecture", "a genetic cascade correlation learning algorithm"),
            ("qing wang", "wang qing"),
            ("completely different text", "nothing in common at all"),
        ];
        for (x, y) in cases {
            let sx = shingles(x, 2);
            let sy = shingles(y, 2);
            let truth = sablock_textual::jaccard(&sx, &sy);
            let est = MinHasher::estimate_jaccard(&hasher.signature(&sx), &hasher.signature(&sy));
            assert!((truth - est).abs() < 0.1, "estimate {est} too far from truth {truth} for ({x}, {y})");
        }
    }

    #[test]
    fn empty_sets_do_not_collide() {
        let hasher = MinHasher::new(16, 3);
        let empty: StableHashSet<u64> = StableHashSet::default();
        let sig_empty = hasher.signature(&empty);
        assert!(sig_empty.iter().all(|&v| v == u64::MAX));
        let other = hasher.signature(&shingles("abc", 2));
        assert_eq!(MinHasher::estimate_jaccard(&sig_empty, &sig_empty.clone()), 0.0);
        assert!(MinHasher::estimate_jaccard(&sig_empty, &other) < 1.0);
    }

    #[test]
    #[should_panic(expected = "same family")]
    fn mismatched_signature_lengths_panic() {
        MinHasher::estimate_jaccard(&vec![1, 2, 3], &vec![1, 2]);
    }

    #[test]
    fn zero_length_signatures_estimate_zero() {
        assert_eq!(MinHasher::estimate_jaccard(&vec![], &vec![]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sablock_textual::hashing::StableHashSet;

    fn arb_shingles() -> impl Strategy<Value = StableHashSet<u64>> {
        proptest::collection::hash_set(0u64..500, 1..60).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn estimate_is_within_unit_interval(a in arb_shingles(), b in arb_shingles()) {
            let hasher = MinHasher::new(64, 5);
            let est = MinHasher::estimate_jaccard(&hasher.signature(&a), &hasher.signature(&b));
            prop_assert!((0.0..=1.0).contains(&est));
        }

        #[test]
        fn estimate_is_symmetric(a in arb_shingles(), b in arb_shingles()) {
            let hasher = MinHasher::new(64, 5);
            let sa = hasher.signature(&a);
            let sb = hasher.signature(&b);
            prop_assert_eq!(MinHasher::estimate_jaccard(&sa, &sb), MinHasher::estimate_jaccard(&sb, &sa));
        }

        #[test]
        fn estimate_roughly_unbiased(a in arb_shingles(), b in arb_shingles()) {
            // 256 hash functions: allow a generous tolerance, this is a sanity
            // bound rather than a statistical test.
            let hasher = MinHasher::new(256, 5);
            let truth = sablock_textual::jaccard(&a, &b);
            let est = MinHasher::estimate_jaccard(&hasher.signature(&a), &hasher.signature(&b));
            prop_assert!((truth - est).abs() < 0.2, "truth {} vs estimate {}", truth, est);
        }

        #[test]
        fn subset_signature_minima_dominate(a in arb_shingles()) {
            // The signature of a superset is component-wise <= the signature
            // of the subset (more elements can only lower minima).
            let hasher = MinHasher::new(32, 9);
            let mut superset = a.clone();
            superset.extend(1000u64..1010);
            let sig_a = hasher.signature(&a);
            let sig_sup = hasher.signature(&superset);
            for (x, y) in sig_a.iter().zip(sig_sup.iter()) {
                prop_assert!(y <= x);
            }
        }
    }
}
