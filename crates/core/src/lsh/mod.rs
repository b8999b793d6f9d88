//! Locality-sensitive hashing: banding index, w-way semantic augmentation and
//! the SA-LSH blocker (paper §5).

pub(crate) mod buckets;
pub mod probability;
pub mod salsh;
pub mod semantic_hash;

use std::sync::Arc;

use sablock_textual::hashing::hash_one;

use crate::error::{CoreError, Result};
use crate::lsh::semantic_hash::SemanticMode;
use crate::minhash::MinhashSignature;
use crate::semantic::semhash::SemhashFamily;
use crate::semantic::SemanticFunction;
use crate::taxonomy::TaxonomyTree;

/// Configuration of the semantic component of SA-LSH blocking.
#[derive(Clone)]
pub struct SemanticConfig {
    /// The taxonomy tree semantic interpretations refer to.
    pub taxonomy: TaxonomyTree,
    /// The semantic function ζ.
    pub function: Arc<dyn SemanticFunction>,
    /// The number `w` of semhash functions drawn per band.
    pub w: usize,
    /// The combination mode (AND / OR).
    pub mode: SemanticMode,
    /// Seed for drawing the per-band semantic hash functions.
    pub seed: u64,
    /// An explicitly pinned semhash family. When `None` (the default), the
    /// blocker derives the family from the interpretations of the dataset it
    /// blocks (Algorithm 1's `C = ⋃ leaf(ζ(R))`) — a *dataset-dependent*
    /// choice. Pinning the family makes blocking output independent of which
    /// records happen to be present, which is what the incremental blocker
    /// needs: the family must not change as batches arrive, or every
    /// previously computed sub-block assignment would be invalidated.
    pub pinned_family: Option<SemhashFamily>,
}

impl std::fmt::Debug for SemanticConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticConfig")
            .field("taxonomy", &self.taxonomy.name())
            .field("function", &self.function.name())
            .field("w", &self.w)
            .field("mode", &self.mode)
            .field("seed", &self.seed)
            .field("pinned_family", &self.pinned_family.as_ref().map(SemhashFamily::len))
            .finish()
    }
}

impl SemanticConfig {
    /// Creates a semantic configuration with the defaults the paper found to
    /// work well (`w = 1`, OR mode).
    pub fn new(taxonomy: TaxonomyTree, function: impl SemanticFunction + 'static) -> Self {
        Self {
            taxonomy,
            function: Arc::new(function),
            w: 1,
            mode: SemanticMode::Or,
            seed: 0x5e3a,
            pinned_family: None,
        }
    }

    /// Creates a semantic configuration from an already-shared function.
    pub fn from_arc(taxonomy: TaxonomyTree, function: Arc<dyn SemanticFunction>) -> Self {
        Self {
            taxonomy,
            function,
            w: 1,
            mode: SemanticMode::Or,
            seed: 0x5e3a,
            pinned_family: None,
        }
    }

    /// Sets `w`.
    pub fn with_w(mut self, w: usize) -> Self {
        self.w = w;
        self
    }

    /// Sets the combination mode.
    pub fn with_mode(mut self, mode: SemanticMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the seed used to draw per-band semantic hash functions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the semhash family instead of deriving it from the blocked
    /// dataset's interpretations. Required for byte-identical agreement
    /// between one-shot and incremental blocking (the incremental index
    /// cannot re-derive the family as records arrive), and useful whenever
    /// blocking output must not depend on which records are present.
    pub fn with_pinned_family(mut self, family: SemhashFamily) -> Self {
        self.pinned_family = Some(family);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.w == 0 {
            return Err(CoreError::Config("the semantic parameter w must be > 0".into()));
        }
        if self.taxonomy.is_empty() {
            return Err(CoreError::Taxonomy("the semantic taxonomy tree is empty".into()));
        }
        if let Some(family) = &self.pinned_family {
            if family.is_empty() {
                return Err(CoreError::Config("the pinned semhash family is empty".into()));
            }
        }
        Ok(())
    }

    /// A short description used in blocker names, e.g. `"w=2,or"`.
    pub fn describe(&self) -> String {
        format!("w={},{}", self.w, self.mode.symbol())
    }
}

/// The banding scheme: splits an `l · k`-dimensional minhash signature into
/// `l` bands of `k` rows and derives one bucket key per band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandingScheme {
    bands: usize,
    rows_per_band: usize,
}

impl BandingScheme {
    /// Creates a banding scheme with `bands` bands of `rows_per_band` rows.
    pub fn new(bands: usize, rows_per_band: usize) -> Result<Self> {
        if bands == 0 || rows_per_band == 0 {
            return Err(CoreError::Config("bands and rows_per_band must both be > 0".into()));
        }
        Ok(Self { bands, rows_per_band })
    }

    /// Number of bands (`l`).
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band (`k`).
    pub fn rows_per_band(&self) -> usize {
        self.rows_per_band
    }

    /// Total signature length expected (`l · k`).
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows_per_band
    }

    /// The bucket key of one band of a signature: a hash of the band index
    /// and the band's `k` minhash values.
    pub fn band_key(&self, signature: &MinhashSignature, band: usize) -> u64 {
        debug_assert!(band < self.bands);
        debug_assert_eq!(signature.len(), self.signature_len());
        let start = band * self.rows_per_band;
        let slice = &signature[start..start + self.rows_per_band];
        hash_one(&(band as u64, slice))
    }

    /// All band keys of a signature.
    pub fn band_keys(&self, signature: &MinhashSignature) -> Vec<u64> {
        (0..self.bands).map(|b| self.band_key(signature, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{MinHasher, MinhashConfig};
    use crate::semantic::voter::VoterSemanticFunction;
    use crate::taxonomy::voter::voter_taxonomy;
    use sablock_textual::qgrams::hashed_qgram_set;

    #[test]
    fn semantic_config_builders_and_validation() {
        let cfg = SemanticConfig::new(voter_taxonomy(), VoterSemanticFunction::default_voter())
            .with_w(3)
            .with_mode(SemanticMode::And)
            .with_seed(9);
        assert_eq!(cfg.w, 3);
        assert_eq!(cfg.mode, SemanticMode::And);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.describe(), "w=3,and");
        assert!(format!("{cfg:?}").contains("voter"));

        let bad = cfg.clone().with_w(0);
        assert!(bad.validate().is_err());
        let empty_tree = SemanticConfig::from_arc(TaxonomyTree::new("x"), bad.function.clone());
        assert!(empty_tree.validate().is_err());
    }

    #[test]
    fn banding_scheme_shapes() {
        let scheme = BandingScheme::new(63, 4).unwrap();
        assert_eq!(scheme.bands(), 63);
        assert_eq!(scheme.rows_per_band(), 4);
        assert_eq!(scheme.signature_len(), 252);
        assert!(BandingScheme::new(0, 4).is_err());
        assert!(BandingScheme::new(4, 0).is_err());
    }

    #[test]
    fn identical_signatures_share_all_band_keys() {
        let config = MinhashConfig { bands: 8, rows_per_band: 3, qgram: 2, seed: 1 };
        let hasher = MinHasher::from_config(&config);
        let scheme = BandingScheme::new(config.bands, config.rows_per_band).unwrap();
        let sig = hasher.signature(&hashed_qgram_set("cascade correlation", 2));
        assert_eq!(scheme.band_keys(&sig), scheme.band_keys(&sig.clone()));
        assert_eq!(scheme.band_keys(&sig).len(), 8);
    }

    #[test]
    fn similar_records_share_some_band_key_dissimilar_none() {
        let config = MinhashConfig { bands: 20, rows_per_band: 2, qgram: 2, seed: 1 };
        let hasher = MinHasher::from_config(&config);
        let scheme = BandingScheme::new(config.bands, config.rows_per_band).unwrap();
        let a = hasher.signature(&hashed_qgram_set("the cascade correlation learning architecture", 2));
        let b = hasher.signature(&hashed_qgram_set("cascade correlation learning architecture", 2));
        let c = hasher.signature(&hashed_qgram_set("zzz qqq completely unrelated www", 2));
        let keys_a = scheme.band_keys(&a);
        let keys_b = scheme.band_keys(&b);
        let keys_c = scheme.band_keys(&c);
        let share_ab = keys_a.iter().zip(&keys_b).any(|(x, y)| x == y);
        let share_ac = keys_a.iter().zip(&keys_c).any(|(x, y)| x == y);
        assert!(share_ab, "highly similar titles should collide in at least one band");
        assert!(!share_ac, "unrelated strings should not collide in any band");
    }

    #[test]
    fn band_keys_differ_across_bands_for_same_rows() {
        // Two bands with identical row values must still produce different
        // keys, because the band index is mixed into the key.
        let scheme = BandingScheme::new(2, 2).unwrap();
        let sig: MinhashSignature = vec![7, 8, 7, 8];
        let keys = scheme.band_keys(&sig);
        assert_ne!(keys[0], keys[1]);
    }
}
