//! Sorted-neighbourhood blocking: the array-based (SorA), inverted-index
//! (SorII) and adaptive (ASor) variants.
//!
//! All three sort the records by a *sorting key* (the blocking key value) and
//! then only compare records that are close in the sorted order:
//!
//! * **SorA** slides a fixed window of `w` records over the sorted array;
//!   every window position becomes a block.
//! * **SorII** slides the window over the *distinct* sorted key values (an
//!   inverted index from key value to records), which is robust to skewed
//!   keys: a frequent key value no longer monopolises the window.
//! * **ASor** grows the window adaptively: consecutive records stay in the
//!   same block while their sorting keys are similar (string similarity above
//!   a threshold), so block boundaries fall where the sorted keys "jump".

use std::collections::HashMap;

use sablock_datasets::{Dataset, Record, RecordId};
use sablock_textual::similarity::{SimilarityFunction, StringSimilarity};

use sablock_core::blocking::{Block, BlockCollection, Blocker};
use sablock_core::error::{CoreError, Result};

use sablock_core::parallel::{merge_sorted_runs, parallel_map, resolve_threads};

use crate::key::BlockingKey;
use crate::{build_index_chunked, INDEX_CHUNK_RECORDS};

/// Sorts records by their key value; records with empty keys are excluded.
/// Ties are broken by record id so the order is total and deterministic.
///
/// Large datasets extract and sort 1,024-record chunks in parallel
/// ([`parallel_map`]) and combine the per-chunk runs with the shared
/// balanced binary merge ([`merge_sorted_runs`]) — `log₂ chunks` passes, so
/// the merge stays cheap at any chunk count, and the result is
/// byte-identical to a sequential extract-and-sort for every worker count
/// (ties between equal keys resolve by record id, which the chunking never
/// reorders).
fn sorted_by_key(dataset: &Dataset, key: &BlockingKey) -> Vec<(String, RecordId)> {
    let records = dataset.records();
    let extract = |records: &[Record]| -> Vec<(String, RecordId)> {
        let mut entries: Vec<(String, RecordId)> = records
            .iter()
            .filter_map(|record| {
                let value = key.value(record);
                if value.is_empty() {
                    None
                } else {
                    Some((value, record.id()))
                }
            })
            .collect();
        entries.sort();
        entries
    };
    let threads = resolve_threads(records.len());
    if threads <= 1 || records.len() <= INDEX_CHUNK_RECORDS {
        return extract(records);
    }
    let chunks: Vec<&[Record]> = records.chunks(INDEX_CHUNK_RECORDS).collect();
    merge_sorted_runs(parallel_map(&chunks, threads, |chunk| extract(chunk)))
}

/// Array-based sorted neighbourhood (SorA).
#[derive(Debug, Clone)]
pub struct SortedNeighbourhoodArray {
    key: BlockingKey,
    window: usize,
}

impl SortedNeighbourhoodArray {
    /// Creates the blocker with the given window size (the paper sweeps
    /// {2, 3, 5, 7, 10}).
    pub fn new(key: BlockingKey, window: usize) -> Result<Self> {
        if window < 2 {
            return Err(CoreError::Config("the sorted-neighbourhood window must be at least 2".into()));
        }
        Ok(Self { key, window })
    }

    /// The window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Blocker for SortedNeighbourhoodArray {
    fn name(&self) -> String {
        format!("SorA(w={},{})", self.window, self.key.describe())
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let sorted = sorted_by_key(dataset, &self.key);
        let mut blocks = Vec::new();
        if sorted.len() >= 2 {
            for (i, window) in sorted.windows(self.window.min(sorted.len())).enumerate() {
                let members: Vec<RecordId> = window.iter().map(|(_, id)| *id).collect();
                blocks.push(Block::new(format!("sna{i}"), members));
            }
        }
        Ok(BlockCollection::from_blocks(blocks))
    }
}

/// Inverted-index sorted neighbourhood (SorII).
#[derive(Debug, Clone)]
pub struct SortedNeighbourhoodInverted {
    key: BlockingKey,
    window: usize,
}

impl SortedNeighbourhoodInverted {
    /// Creates the blocker with the given window size over distinct key values.
    pub fn new(key: BlockingKey, window: usize) -> Result<Self> {
        if window < 2 {
            return Err(CoreError::Config("the sorted-neighbourhood window must be at least 2".into()));
        }
        Ok(Self { key, window })
    }

}

impl Blocker for SortedNeighbourhoodInverted {
    fn name(&self) -> String {
        format!("SorII(w={},{})", self.window, self.key.describe())
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        // Inverted index: distinct key value → records, in sorted key order.
        // Chunks index independently (in parallel for large datasets) and
        // posting lists merge in ascending chunk order, so each key's record
        // list stays in record order for every worker count.
        let index: HashMap<String, Vec<RecordId>> = build_index_chunked(
            dataset.records(),
            |records: &[Record]| {
                let mut index: HashMap<String, Vec<RecordId>> = HashMap::new();
                for record in records {
                    let value = self.key.value(record);
                    if value.is_empty() {
                        continue;
                    }
                    index.entry(value).or_default().push(record.id());
                }
                index
            },
            |merged, partial| {
                for (value, ids) in partial {
                    merged.entry(value).or_default().extend(ids);
                }
            },
        );
        let mut distinct: Vec<(String, Vec<RecordId>)> = index.into_iter().collect();
        distinct.sort_by(|a, b| a.0.cmp(&b.0));

        let mut blocks = Vec::new();
        if !distinct.is_empty() {
            let window = self.window.min(distinct.len());
            for (i, group) in distinct.windows(window).enumerate() {
                let members: Vec<RecordId> = group.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
                blocks.push(Block::new(format!("snii{i}"), members));
            }
            // A single distinct value still forms one block of its records.
            if distinct.len() < 2 {
                blocks.push(Block::new("snii0", distinct[0].1.clone()));
            }
        }
        Ok(BlockCollection::from_blocks(blocks))
    }
}

/// Adaptive sorted neighbourhood (ASor).
#[derive(Debug, Clone)]
pub struct AdaptiveSortedNeighbourhood {
    key: BlockingKey,
    similarity: SimilarityFunction,
    threshold: f64,
    max_block_size: usize,
}

impl AdaptiveSortedNeighbourhood {
    /// Creates the blocker. The paper sweeps the string similarity function
    /// over {Jaro-Winkler, bigram, edit distance, LCS} and the threshold over
    /// {0.8, 0.9}.
    pub fn new(key: BlockingKey, similarity: SimilarityFunction, threshold: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&threshold) {
            return Err(CoreError::Config(format!("threshold must be in [0, 1], got {threshold}")));
        }
        Ok(Self {
            key,
            similarity,
            threshold,
            max_block_size: 100,
        })
    }

    /// Caps the adaptive window (default 100) so a long run of similar keys
    /// cannot degenerate into one giant block.
    pub fn with_max_block_size(mut self, size: usize) -> Self {
        self.max_block_size = size.max(2);
        self
    }
}

impl Blocker for AdaptiveSortedNeighbourhood {
    fn name(&self) -> String {
        format!(
            "ASor({},t={},{})",
            self.similarity.name(),
            self.threshold,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let sorted = sorted_by_key(dataset, &self.key);
        let mut blocks = Vec::new();
        let mut current: Vec<RecordId> = Vec::new();
        let mut previous_key: Option<&str> = None;
        let mut block_counter = 0usize;
        for (key_value, id) in &sorted {
            let extend = match previous_key {
                Some(prev) => {
                    current.len() < self.max_block_size && self.similarity.similarity(prev, key_value) >= self.threshold
                }
                None => true,
            };
            if extend {
                current.push(*id);
            } else {
                blocks.push(Block::new(format!("asor{block_counter}"), std::mem::take(&mut current)));
                block_counter += 1;
                current.push(*id);
            }
            previous_key = Some(key_value.as_str());
        }
        if !current.is_empty() {
            blocks.push(Block::new(format!("asor{block_counter}"), current));
        }
        Ok(BlockCollection::from_blocks(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_core::parallel::with_threads;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::Schema;

    /// A dataset where the sorted order of last names puts duplicates next to
    /// each other but never with identical keys.
    fn people() -> Dataset {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("people", schema);
        let rows = [
            ("anna", "anderson", 0),
            ("anne", "anderson", 0),
            ("bob", "baker", 1),
            ("bobby", "baker", 1),
            ("carl", "carter", 2),
            ("dave", "davis", 3),
            ("david", "davies", 3),
            ("zed", "zhou", 4),
        ];
        for (f, l, e) in rows {
            b.push_values(vec![Some(f.into()), Some(l.into())], EntityId(e)).unwrap();
        }
        b.build().unwrap()
    }

    fn last_first_key() -> BlockingKey {
        BlockingKey::exact(["last_name", "first_name"]).unwrap()
    }

    #[test]
    fn window_validation() {
        assert!(SortedNeighbourhoodArray::new(last_first_key(), 1).is_err());
        assert!(SortedNeighbourhoodInverted::new(last_first_key(), 0).is_err());
        assert!(AdaptiveSortedNeighbourhood::new(last_first_key(), SimilarityFunction::JaroWinkler, 1.5).is_err());
        let sna = SortedNeighbourhoodArray::new(last_first_key(), 3).unwrap();
        assert_eq!(sna.window(), 3);
        assert!(sna.name().contains("SorA"));
    }

    #[test]
    fn array_window_blocks_neighbours() {
        let ds = people();
        let blocks = SortedNeighbourhoodArray::new(last_first_key(), 2).unwrap().block(&ds).unwrap();
        // Adjacent in sorted order: the two andersons, the two bakers, davies/davis.
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        assert!(blocks.theta(RecordId(2), RecordId(3)));
        assert!(blocks.theta(RecordId(5), RecordId(6)));
        // Far apart in sorted order: anderson vs zhou.
        assert!(!blocks.theta(RecordId(0), RecordId(7)));
        // Window w over n records yields n-w+1 blocks.
        assert_eq!(blocks.num_blocks(), 8 - 2 + 1);
    }

    #[test]
    fn larger_windows_capture_more_pairs() {
        let ds = people();
        let small = SortedNeighbourhoodArray::new(last_first_key(), 2).unwrap().block(&ds).unwrap();
        let large = SortedNeighbourhoodArray::new(last_first_key(), 5).unwrap().block(&ds).unwrap();
        assert!(large.num_distinct_pairs() > small.num_distinct_pairs());
        let small_pairs = small.distinct_pairs();
        let large_pairs = large.distinct_pairs();
        assert!(small_pairs.iter().all(|p| large_pairs.contains(p)), "window growth must be monotone");
    }

    #[test]
    fn inverted_index_variant_handles_duplicate_keys() {
        // Give two records identical keys: SorII treats them as one index entry.
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("dups", schema);
        for (f, l, e) in [("al", "smith", 0), ("al", "smith", 0), ("bo", "smith", 1), ("cy", "young", 2)] {
            b.push_values(vec![Some(f.into()), Some(l.into())], EntityId(e)).unwrap();
        }
        let ds = b.build().unwrap();
        let blocks = SortedNeighbourhoodInverted::new(last_first_key(), 2).unwrap().block(&ds).unwrap();
        // The two "smith al" records share an index entry and hence a block.
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        // Window of 2 distinct values links "smith al" with "smith bo".
        assert!(blocks.theta(RecordId(0), RecordId(2)));
    }

    #[test]
    fn single_distinct_key_still_blocks() {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("one-key", schema);
        for _ in 0..3 {
            b.push_values(vec![Some("qing".into()), Some("wang".into())], EntityId(0)).unwrap();
        }
        let ds = b.build().unwrap();
        let blocks = SortedNeighbourhoodInverted::new(last_first_key(), 3).unwrap().block(&ds).unwrap();
        assert_eq!(blocks.num_distinct_pairs(), 3);
    }

    #[test]
    fn adaptive_blocks_break_at_dissimilar_keys() {
        let ds = people();
        let blocks = AdaptiveSortedNeighbourhood::new(last_first_key(), SimilarityFunction::JaroWinkler, 0.8)
            .unwrap()
            .block(&ds)
            .unwrap();
        // Similar adjacent keys stay together.
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        assert!(blocks.theta(RecordId(5), RecordId(6)));
        // Keys from different families are split apart.
        assert!(!blocks.theta(RecordId(0), RecordId(7)));
        assert!(!blocks.theta(RecordId(1), RecordId(4)));
    }

    #[test]
    fn adaptive_block_size_cap_is_respected() {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("run", schema);
        for i in 0..50 {
            b.push_values(vec![Some(format!("p{i:02}")), Some("smith".into())], EntityId(i)).unwrap();
        }
        let ds = b.build().unwrap();
        let blocks = AdaptiveSortedNeighbourhood::new(last_first_key(), SimilarityFunction::QGram(2), 0.5)
            .unwrap()
            .with_max_block_size(10)
            .block(&ds)
            .unwrap();
        assert!(blocks.max_block_size() <= 10);
        assert!(blocks.num_blocks() >= 5);
    }

    #[test]
    fn with_threads_does_not_change_blocks() {
        let ds = people();
        let blockers: Vec<(&str, Box<dyn Blocker>)> = vec![
            ("SorA w=2", Box::new(SortedNeighbourhoodArray::new(last_first_key(), 2).unwrap())),
            ("SorA w=4", Box::new(SortedNeighbourhoodArray::new(last_first_key(), 4).unwrap())),
            ("SorII", Box::new(SortedNeighbourhoodInverted::new(last_first_key(), 2).unwrap())),
            (
                "ASor",
                Box::new(
                    AdaptiveSortedNeighbourhood::new(last_first_key(), SimilarityFunction::JaroWinkler, 0.8).unwrap(),
                ),
            ),
        ];
        for (name, blocker) in blockers {
            let sequential = blocker.block(&ds).unwrap();
            let threaded = with_threads(4, || blocker.block(&ds)).unwrap();
            assert_eq!(sequential.blocks(), threaded.blocks(), "{name}");
        }
    }

    #[test]
    fn unknown_key_attributes_error() {
        let ds = people();
        assert!(SortedNeighbourhoodArray::new(BlockingKey::cora(), 3).unwrap().block(&ds).is_err());
        assert!(SortedNeighbourhoodInverted::new(BlockingKey::cora(), 3).unwrap().block(&ds).is_err());
        assert!(AdaptiveSortedNeighbourhood::new(BlockingKey::cora(), SimilarityFunction::Jaro, 0.8)
            .unwrap()
            .block(&ds)
            .is_err());
    }
}
