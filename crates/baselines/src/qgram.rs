//! Q-gram based indexing (QGr in Table 3).
//!
//! Each record's blocking-key value is decomposed into its q-gram list; the
//! record is then indexed not only under the full list but also under
//! *sub-lists* obtained by deleting q-grams, down to a minimum length of
//! `⌈len · threshold⌉` grams. Two records whose key values share enough
//! q-grams therefore collide on at least one sub-list even if their full
//! q-gram lists differ (tolerating typos), at the cost of an exponential
//! number of sub-lists — which is why the survey's implementation (and ours)
//! caps recursion depth.

use std::collections::{BTreeSet, HashMap};

use sablock_datasets::{Dataset, Record, RecordId};
use sablock_textual::qgrams::qgrams;

use sablock_core::blocking::{BlockCollection, Blocker};
use sablock_core::error::{CoreError, Result};

use crate::build_index_chunked;
use crate::key::BlockingKey;

/// Q-gram indexing.
#[derive(Debug, Clone)]
pub struct QGramBlocking {
    key: BlockingKey,
    q: usize,
    threshold: f64,
    max_sublists_per_record: usize,
}

impl QGramBlocking {
    /// Creates the blocker. The paper sweeps `q ∈ {2, 3}` and the length
    /// threshold over `{0.8, 0.9}`.
    pub fn new(key: BlockingKey, q: usize, threshold: f64) -> Result<Self> {
        if q == 0 {
            return Err(CoreError::Config("q must be > 0".into()));
        }
        if !(0.0 < threshold && threshold <= 1.0) {
            return Err(CoreError::Config(format!("threshold must be in (0, 1], got {threshold}")));
        }
        Ok(Self {
            key,
            q,
            threshold,
            max_sublists_per_record: 64,
        })
    }

    /// Caps the number of sub-lists generated per record (default 64); keys
    /// long enough to exceed the cap are indexed under single-deletion
    /// sub-lists only, which keeps the technique tractable on long keys.
    pub fn with_max_sublists(mut self, cap: usize) -> Self {
        self.max_sublists_per_record = cap.max(1);
        self
    }

    /// The index keys (joined sub-lists) a key value is indexed under.
    fn index_keys(&self, key_value: &str) -> Vec<String> {
        let grams = qgrams(key_value, self.q);
        if grams.is_empty() {
            return Vec::new();
        }
        let min_len = ((grams.len() as f64) * self.threshold).ceil().max(1.0) as usize;
        let mut results: BTreeSet<Vec<String>> = BTreeSet::new();
        results.insert(grams.clone());

        // Breadth-first deletion of grams down to min_len, bounded by the cap.
        let mut frontier: Vec<Vec<String>> = vec![grams];
        while let Some(list) = frontier.pop() {
            if results.len() >= self.max_sublists_per_record {
                break;
            }
            if list.len() <= min_len {
                continue;
            }
            for i in 0..list.len() {
                let mut shorter = list.clone();
                shorter.remove(i);
                if results.insert(shorter.clone()) {
                    frontier.push(shorter);
                    if results.len() >= self.max_sublists_per_record {
                        break;
                    }
                }
            }
        }
        results.into_iter().map(|list| list.join("\u{1}")).collect()
    }
}

impl Blocker for QGramBlocking {
    fn name(&self) -> String {
        format!("QGr(q={},t={},{})", self.q, self.threshold, self.key.describe())
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        // Sub-list generation is independent per record: chunks of records
        // are indexed in parallel via `build_index_chunked` and the
        // per-chunk buckets merged in ascending chunk order, preserving the
        // sequential build's posting-list order exactly (`from_key_map` then
        // sorts by key, so the final blocks are identical for every worker
        // count).
        let bucket_chunk = |records: &[Record]| {
            let mut buckets: HashMap<String, Vec<RecordId>> = HashMap::new();
            for record in records {
                let key_value = self.key.compact_value(record);
                if key_value.is_empty() {
                    continue;
                }
                for index_key in self.index_keys(&key_value) {
                    buckets.entry(index_key).or_default().push(record.id());
                }
            }
            buckets
        };
        let buckets = build_index_chunked(dataset.records(), bucket_chunk, |buckets, partial| {
            for (k, mut ids) in partial {
                buckets.entry(k).or_default().append(&mut ids);
            }
        });
        Ok(BlockCollection::from_key_map(buckets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::Schema;

    fn key() -> BlockingKey {
        BlockingKey::exact(["last_name"]).unwrap()
    }

    fn people(names: &[(&str, u32)]) -> Dataset {
        let schema = Schema::shared(["last_name"]).unwrap();
        let mut b = DatasetBuilder::new("people", schema);
        for (name, e) in names {
            b.push_values(vec![Some((*name).into())], EntityId(*e)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(QGramBlocking::new(key(), 0, 0.8).is_err());
        assert!(QGramBlocking::new(key(), 2, 0.0).is_err());
        assert!(QGramBlocking::new(key(), 2, 1.2).is_err());
        let b = QGramBlocking::new(key(), 2, 0.8).unwrap();
        assert!(b.name().contains("QGr"));
    }

    #[test]
    fn sublists_respect_threshold_and_cap() {
        let blocker = QGramBlocking::new(key(), 2, 0.8).unwrap();
        // "wang" -> grams [wa, an, ng], min_len = ceil(3*0.8) = 3 → only the full list.
        assert_eq!(blocker.index_keys("wang").len(), 1);
        // threshold 0.6 → min_len = 2 → full list + 3 single-deletion lists.
        let blocker = QGramBlocking::new(key(), 2, 0.6).unwrap();
        assert_eq!(blocker.index_keys("wang").len(), 4);
        // The cap bounds the explosion on long keys.
        let blocker = QGramBlocking::new(key(), 2, 0.5).unwrap().with_max_sublists(10);
        assert!(blocker.index_keys("averyveryverylongblockingkeyvalue").len() <= 10);
        assert!(blocker.index_keys("").is_empty());
    }

    #[test]
    fn typo_variants_share_a_sublist() {
        // "wang" (3 bigrams) vs "wangg" (4 bigrams): with threshold 0.75 the
        // longer key may drop one gram (min length ⌈4·0.75⌉ = 3) and meet the
        // shorter key's full gram list.
        let ds = people(&[("wang", 0), ("wangg", 0), ("liang", 1)]);
        let blocks = QGramBlocking::new(key(), 2, 0.75).unwrap().block(&ds).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)), "single-character typo should be recovered");
        assert!(!blocks.theta(RecordId(0), RecordId(2)));
    }

    #[test]
    fn exact_duplicates_always_collide() {
        let ds = people(&[("carter", 0), ("carter", 0), ("baker", 1)]);
        let blocks = QGramBlocking::new(key(), 3, 0.9).unwrap().block(&ds).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        assert!(!blocks.theta(RecordId(0), RecordId(2)));
    }

    #[test]
    fn lower_thresholds_are_more_permissive() {
        let ds = people(&[("anderson", 0), ("andersen", 0), ("anderson", 0), ("zhou", 1)]);
        let strict = QGramBlocking::new(key(), 2, 0.9).unwrap().block(&ds).unwrap();
        let loose = QGramBlocking::new(key(), 2, 0.7).unwrap().block(&ds).unwrap();
        assert!(loose.num_distinct_pairs() >= strict.num_distinct_pairs());
        assert!(loose.theta(RecordId(0), RecordId(1)), "o→e substitution recovered at 0.7");
    }

    #[test]
    fn unknown_key_attribute_errors() {
        let ds = people(&[("wang", 0)]);
        assert!(QGramBlocking::new(BlockingKey::cora(), 2, 0.8).unwrap().block(&ds).is_err());
    }
}
