//! Running a blocker over a dataset with timing and evaluation.
//!
//! Every experiment — from the quick configurations used by tests up to the
//! paper-scale runs selected with `SABLOCK_BENCH_SCALE=paper` in
//! `sablock_bench` — funnels through [`run_blocker`]: it times
//! [`Blocker::block`], then scores the resulting collection against ground
//! truth. Scoring goes through the *streaming* evaluation path
//! ([`BlockingMetrics::evaluate`] →
//! [`BlockCollection::stream_packed_counts`](sablock_core::blocking::BlockCollection::stream_packed_counts)),
//! so even the candidate-pair sets of the full 292,892-record voter roll are
//! counted without ever being materialised. The dataset sizes the two ends
//! of that ladder use are defined by
//! [`Scale`](crate::experiments::Scale): `Scale::Quick` stays in the
//! hundreds-to-thousands range, `Scale::Paper` reproduces the paper's sizes
//! (1,879 Cora records, 30,000 NC Voter records, and Fig. 13's scalability
//! ladder ending at the full 292,892-record voter roll).
//!
//! ```
//! use sablock_eval::experiments::{voter_dataset_of_size, voter_lsh, Scale};
//! use sablock_eval::runner::run_blocker;
//!
//! // The quick end of the ladder is small enough for a doctest…
//! let dataset = voter_dataset_of_size(300)?;
//! let result = run_blocker("LSH", &voter_lsh(3, 10)?, &dataset)?;
//! assert_eq!(result.technique, "LSH");
//! assert!(result.num_blocks > 0);
//!
//! // …while the paper end tops out at the full NC Voter roll.
//! assert_eq!(Scale::Paper.scalability_sizes().last(), Some(&292_892));
//! # Ok::<(), sablock_core::error::CoreError>(())
//! ```

use std::time::{Duration, Instant};

use sablock_core::blocking::{BlockCollection, Blocker};
use sablock_core::error::Result;
use sablock_datasets::Dataset;

use crate::metrics::BlockingMetrics;

/// The outcome of running one blocker configuration over one dataset.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The technique abbreviation (TBlo, SorA, …, LSH, SA-LSH).
    pub technique: String,
    /// The full configuration name (`Blocker::name`).
    pub configuration: String,
    /// The dataset name.
    pub dataset: String,
    /// Wall-clock time spent inside `Blocker::block`.
    pub blocking_time: Duration,
    /// Number of blocks produced.
    pub num_blocks: usize,
    /// Size of the largest block.
    pub max_block_size: usize,
    /// The quality measures.
    pub metrics: BlockingMetrics,
}

impl RunResult {
    /// Convenience accessor: FM of the run.
    pub fn fm(&self) -> f64 {
        self.metrics.fm()
    }

    /// One-line summary used in logs and examples.
    pub fn summary(&self) -> String {
        format!(
            "{:<8} PC={:.3} PQ={:.3} RR={:.4} FM={:.3} pairs={} time={:.3}s [{}]",
            self.technique,
            self.metrics.pc(),
            self.metrics.pq(),
            self.metrics.rr(),
            self.metrics.fm(),
            self.metrics.candidate_pairs,
            self.blocking_time.as_secs_f64(),
            self.configuration
        )
    }
}

/// Runs a blocker over a dataset, timing the blocking phase and evaluating
/// the result against the dataset's ground truth.
pub fn run_blocker(technique: &str, blocker: &dyn Blocker, dataset: &Dataset) -> Result<RunResult> {
    let start = Instant::now();
    let blocks = blocker.block(dataset)?;
    let blocking_time = start.elapsed();
    Ok(evaluate_blocks(technique, &blocker.name(), dataset, &blocks, blocking_time))
}

/// Evaluates an existing block collection (used when the blocks were produced
/// elsewhere, e.g. by meta-blocking re-pruning a shared input). Metrics come
/// from the streaming pair counter, so the collection's Γ is never
/// materialised here.
pub fn evaluate_blocks(
    technique: &str,
    configuration: &str,
    dataset: &Dataset,
    blocks: &BlockCollection,
    blocking_time: Duration,
) -> RunResult {
    RunResult {
        technique: technique.to_string(),
        configuration: configuration.to_string(),
        dataset: dataset.name().to_string(),
        blocking_time,
        num_blocks: blocks.num_blocks(),
        max_block_size: blocks.max_block_size(),
        metrics: BlockingMetrics::evaluate(blocks, dataset.ground_truth()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_baselines::key::BlockingKey;
    use sablock_baselines::standard::StandardBlocking;
    use sablock_datasets::{NcVoterConfig, NcVoterGenerator};

    fn dataset() -> Dataset {
        NcVoterGenerator::new(NcVoterConfig {
            num_records: 300,
            ..NcVoterConfig::small()
        })
        .generate()
        .unwrap()
    }

    #[test]
    fn runs_and_evaluates_a_blocker() {
        let ds = dataset();
        let blocker = StandardBlocking::new(BlockingKey::ncvoter());
        let result = run_blocker("TBlo", &blocker, &ds).unwrap();
        assert_eq!(result.technique, "TBlo");
        assert_eq!(result.dataset, ds.name());
        assert!(result.configuration.contains("TBlo"));
        assert!(result.num_blocks > 0);
        assert!(result.metrics.pc() > 0.0, "exact duplicates exist, TBlo must find some");
        assert!(result.fm() > 0.0);
        assert!(result.summary().contains("TBlo"));
        assert!(result.max_block_size >= 2);
    }

    #[test]
    fn errors_propagate() {
        let ds = dataset();
        let blocker = StandardBlocking::new(BlockingKey::cora());
        assert!(run_blocker("TBlo", &blocker, &ds).is_err());
    }

    #[test]
    fn evaluate_blocks_uses_supplied_time() {
        let ds = dataset();
        let blocker = StandardBlocking::new(BlockingKey::ncvoter());
        let blocks = blocker.block(&ds).unwrap();
        let result = evaluate_blocks("TBlo", "custom", &ds, &blocks, Duration::from_millis(5));
        assert_eq!(result.blocking_time, Duration::from_millis(5));
        assert_eq!(result.configuration, "custom");
    }
}
