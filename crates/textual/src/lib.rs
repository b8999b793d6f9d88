//! Textual similarity substrate for the SA-LSH blocking framework.
//!
//! The paper's blocking pipeline (Wang, Cui & Liang, *Semantic-Aware Blocking
//! for Entity Resolution*, TKDE 2016) measures textual similarity of records
//! through q-gram shingles compared under the Jaccard coefficient, while the
//! baseline techniques of the evaluation (Table 3) are parameterised by a
//! variety of classic string similarity functions (Jaro-Winkler, bigram,
//! edit distance, longest common substring, TF-IDF cosine).
//!
//! This crate implements all of that substrate from scratch:
//!
//! * [`mod@normalize`] — text canonicalisation used before any comparison,
//! * [`tokens`] — whitespace/word tokenisation,
//! * [`mod@qgrams`] — character q-gram extraction, shingle sets, and
//!   in-place hashing of every q-gram window,
//! * [`setsim`] — Jaccard / Dice / overlap coefficients over sets, and a
//!   reusable exact Jaccard scorer over shingle hashes,
//! * [`edit`] — Levenshtein and Damerau-Levenshtein distances,
//! * [`mod@jaro`] — Jaro and Jaro-Winkler similarity,
//! * [`lcs`] — longest common substring / subsequence similarity,
//! * [`tfidf`] — corpus vocabulary, IDF weighting and cosine similarity,
//! * [`phonetic`] — Soundex and a simplified NYSIIS encoding (used by the
//!   standard-blocking baseline to build phonetic blocking keys),
//! * [`hashing`] — a small, fast, deterministic 64-bit string hasher used for
//!   shingle universes and LSH bucket keys,
//! * [`similarity`] — a [`similarity::StringSimilarity`] trait plus a
//!   runtime-selectable [`similarity::SimilarityFunction`] enumeration, which
//!   is what the baseline parameter grids sweep over.
//!
//! All similarity functions return values in `[0, 1]`, where `1.0` means
//! "identical" — matching the convention `sim = 1 - distance` used in the
//! paper's Section 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edit;
pub mod hashing;
pub mod jaro;
pub mod lcs;
pub mod normalize;
pub mod phonetic;
pub mod qgrams;
pub mod setsim;
pub mod similarity;
pub mod tfidf;
pub mod tokens;

pub use edit::{damerau_levenshtein, levenshtein, levenshtein_similarity};
pub use hashing::{hash_str, FxHasher64, StableHashSet};
pub use jaro::{jaro, jaro_winkler};
pub use lcs::{longest_common_subsequence, longest_common_substring, lcs_similarity};
pub use normalize::{normalize, normalize_into};
pub use qgrams::{padded_qgrams, qgram_set, qgram_similarity, qgrams};
pub use setsim::{dice, jaccard, overlap, JaccardScorer};
pub use similarity::{SimilarityFunction, StringSimilarity};
pub use tfidf::{CosineSimilarity, TfIdfModel};
pub use tokens::{token_set, tokenize};
