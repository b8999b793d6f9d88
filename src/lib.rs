//! # sablock — Semantic-Aware LSH Blocking for Entity Resolution
//!
//! A Rust reproduction of Wang, Cui & Liang, *Semantic-Aware Blocking for
//! Entity Resolution* (IEEE TKDE 28(1), 2016). This facade crate re-exports
//! the workspace's public API:
//!
//! * [`datasets`] — record model, ground truth and the synthetic Cora-like /
//!   NC-Voter-like data generators,
//! * [`textual`] — string similarity substrate (q-grams, Jaro-Winkler, edit
//!   distance, TF-IDF, …),
//! * [`core`] — the paper's contribution: taxonomy trees, semantic
//!   similarity, semhash signatures, minhash LSH and the SA-LSH blocker,
//! * [`baselines`] — the 12 comparison techniques of the paper's evaluation
//!   plus meta-blocking,
//! * [`eval`] — PC/PQ/RR/FM measures and the per-figure experiment harness,
//! * [`serve`] — blocking as a service: the epoch-published candidate-lookup
//!   engine, snapshot persistence and the `sablock-serve` line protocol.
//!
//! ## Quick start
//!
//! ```
//! use sablock::prelude::*;
//!
//! // 1. A Cora-like bibliographic dataset (1,879 noisy citations by default;
//! //    a small configuration is used here to keep the doctest fast).
//! let dataset = CoraGenerator::new(CoraConfig::small()).generate().unwrap();
//!
//! // 2. Domain knowledge: the bibliographic taxonomy tree of Fig. 3 and the
//! //    missing-value-pattern semantic function of Table 1.
//! let tree = bibliographic_taxonomy();
//! let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
//!
//! // 3. The semantic-aware LSH blocker (k = 4 rows per band, l = 63 bands,
//! //    4-grams, 2-way OR semantic hash).
//! let blocker = SaLshBlocker::builder()
//!     .attributes(["title", "authors"])
//!     .qgram(4)
//!     .rows_per_band(4)
//!     .bands(63)
//!     .semantic(SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or))
//!     .build()
//!     .unwrap();
//!
//! // 4. Block and evaluate. With the deterministic small Cora config this
//! //    yields PC ≈ 0.78, RR ≈ 0.95, FM ≈ 0.86; the thresholds below leave
//! //    a small margin while still witnessing the paper's trade-off.
//! let blocks = blocker.block(&dataset).unwrap();
//! let metrics = BlockingMetrics::evaluate(&blocks, dataset.ground_truth());
//! assert!(metrics.pc() > 0.7);
//! assert!(metrics.rr() > 0.93);
//! assert!(metrics.fm() > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sablock_baselines as baselines;
pub use sablock_core as core;
pub use sablock_datasets as datasets;
pub use sablock_eval as eval;
pub use sablock_serve as serve;
pub use sablock_textual as textual;

/// The most commonly used types, re-exported for glob imports.
pub mod prelude {
    pub use sablock_baselines::key::{BlockingKey, KeyEncoding};
    pub use sablock_baselines::meta::{MetaBlocking, PruningAlgorithm, WeightingScheme};
    pub use sablock_baselines::standard::{StandardBlocking, TokenBlocking};
    pub use sablock_core::prelude::*;
    pub use sablock_datasets::{
        CoraConfig, CoraGenerator, Dataset, DatasetError, EntityId, GroundTruth, NcVoterConfig, NcVoterGenerator,
        NcVoterStream, Record, RecordId, Schema,
    };
    pub use sablock_eval::experiments::Scale;
    pub use sablock_eval::{run_blocker, BlockingMetrics, RunResult, TextTable};
    pub use sablock_serve::{CandidateService, EpochState, ServeError};
    pub use sablock_textual::{jaccard, jaro_winkler, levenshtein, qgram_similarity, SimilarityFunction};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_workflow() {
        let dataset = NcVoterGenerator::new(NcVoterConfig {
            num_records: 200,
            ..NcVoterConfig::small()
        })
        .generate()
        .unwrap();
        let blocker = SaLshBlocker::builder()
            .attributes(["first_name", "last_name"])
            .qgram(2)
            .rows_per_band(3)
            .bands(10)
            .build()
            .unwrap();
        let result = run_blocker("LSH", &blocker, &dataset).unwrap();
        assert!(result.metrics.rr() > 0.5);
    }
}
