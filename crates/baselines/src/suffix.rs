//! Suffix-array blocking: SuA, SuAS and RSuA in Table 3.
//!
//! Aizawa and Oyama's suffix-array blocking indexes each record under every
//! suffix of its (compact) blocking-key value that is at least
//! `min_suffix_len` characters long; suffix groups larger than
//! `max_block_size` are discarded as too generic. The *all-substrings*
//! variant (SuAS) indexes under every substring instead of every suffix, and
//! the *robust* variant (RSuA, de Vries et al.) additionally merges adjacent
//! suffixes in the sorted suffix array when they are highly similar, which
//! recovers matches lost to typos inside the suffix itself.

use std::collections::{BTreeMap, BTreeSet};

use sablock_datasets::{Dataset, Record, RecordId};
use sablock_textual::similarity::{SimilarityFunction, StringSimilarity};

use sablock_core::blocking::{Block, BlockCollection, Blocker};
use sablock_core::error::{CoreError, Result};

use crate::build_index_chunked;
use crate::key::BlockingKey;

fn validate_lengths(min_suffix_len: usize, max_block_size: usize) -> Result<()> {
    if min_suffix_len == 0 {
        return Err(CoreError::Config("min_suffix_len must be > 0".into()));
    }
    if max_block_size < 2 {
        return Err(CoreError::Config("max_block_size must be at least 2".into()));
    }
    Ok(())
}

/// The suffixes of `value` that are at least `min_len` characters long,
/// including the full value itself.
fn suffixes(value: &str, min_len: usize) -> Vec<String> {
    let chars: Vec<char> = value.chars().collect();
    if chars.len() < min_len {
        return Vec::new();
    }
    (0..=chars.len() - min_len).map(|start| chars[start..].iter().collect()).collect()
}

/// All substrings of `value` with length in `[min_len, value.len()]`,
/// deduplicated. Bounded by `cap` to keep very long keys tractable.
fn substrings(value: &str, min_len: usize, cap: usize) -> Vec<String> {
    let chars: Vec<char> = value.chars().collect();
    if chars.len() < min_len {
        return Vec::new();
    }
    let mut out: BTreeSet<String> = BTreeSet::new();
    'outer: for len in min_len..=chars.len() {
        for start in 0..=chars.len() - len {
            out.insert(chars[start..start + len].iter().collect());
            if out.len() >= cap {
                break 'outer;
            }
        }
    }
    out.into_iter().collect()
}

/// Builds a suffix (or substring) inverted index: key string → record ids.
///
/// Suffix generation is independent per record, so construction goes through
/// [`build_index_chunked`]: record chunks are indexed in parallel and the
/// per-chunk indexes merged in ascending chunk order, which preserves the
/// exact posting-list order (record order) of a sequential build — the index
/// is byte-identical for every worker count.
fn build_index(
    dataset: &Dataset,
    key: &BlockingKey,
    min_len: usize,
    all_substrings: bool,
    substring_cap: usize,
) -> BTreeMap<String, Vec<RecordId>> {
    let index_chunk = |records: &[Record]| {
        let mut index: BTreeMap<String, Vec<RecordId>> = BTreeMap::new();
        for record in records {
            let value = key.compact_value(record);
            if value.is_empty() {
                continue;
            }
            let keys = if all_substrings {
                substrings(&value, min_len, substring_cap)
            } else {
                suffixes(&value, min_len)
            };
            for k in keys {
                index.entry(k).or_default().push(record.id());
            }
        }
        index
    };
    build_index_chunked(dataset.records(), index_chunk, |index, partial| {
        for (k, mut ids) in partial {
            index.entry(k).or_default().append(&mut ids);
        }
    })
}

/// Suffix-array blocking (SuA).
#[derive(Debug, Clone)]
pub struct SuffixArrayBlocking {
    key: BlockingKey,
    min_suffix_len: usize,
    max_block_size: usize,
}

impl SuffixArrayBlocking {
    /// Creates the blocker. The paper sweeps `min_suffix_len ∈ {3, 5}` and
    /// `max_block_size ∈ {5, 10, 20}`.
    pub fn new(key: BlockingKey, min_suffix_len: usize, max_block_size: usize) -> Result<Self> {
        validate_lengths(min_suffix_len, max_block_size)?;
        Ok(Self {
            key,
            min_suffix_len,
            max_block_size,
        })
    }
}

impl Blocker for SuffixArrayBlocking {
    fn name(&self) -> String {
        format!("SuA(min={},max={},{})", self.min_suffix_len, self.max_block_size, self.key.describe())
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let index = build_index(dataset, &self.key, self.min_suffix_len, false, usize::MAX);
        let blocks = index
            .into_iter()
            .filter(|(_, members)| members.len() >= 2 && members.len() <= self.max_block_size)
            .map(|(suffix, members)| Block::new(suffix, members))
            .collect();
        Ok(BlockCollection::from_blocks(blocks))
    }
}

/// Suffix-array blocking using all substrings (SuAS).
#[derive(Debug, Clone)]
pub struct AllSubstringsBlocking {
    key: BlockingKey,
    min_suffix_len: usize,
    max_block_size: usize,
}

/// The most substrings [`AllSubstringsBlocking`] generates per record.
const SUBSTRING_CAP: usize = 512;

impl AllSubstringsBlocking {
    /// Creates the blocker with the same parameters as [`SuffixArrayBlocking`].
    pub fn new(key: BlockingKey, min_suffix_len: usize, max_block_size: usize) -> Result<Self> {
        validate_lengths(min_suffix_len, max_block_size)?;
        Ok(Self {
            key,
            min_suffix_len,
            max_block_size,
        })
    }
}

impl Blocker for AllSubstringsBlocking {
    fn name(&self) -> String {
        format!("SuAS(min={},max={},{})", self.min_suffix_len, self.max_block_size, self.key.describe())
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let index = build_index(dataset, &self.key, self.min_suffix_len, true, SUBSTRING_CAP);
        let blocks = index
            .into_iter()
            .filter(|(_, members)| members.len() >= 2 && members.len() <= self.max_block_size)
            .map(|(substring, members)| Block::new(substring, members))
            .collect();
        Ok(BlockCollection::from_blocks(blocks))
    }
}

/// Robust suffix-array blocking (RSuA).
#[derive(Debug, Clone)]
pub struct RobustSuffixArrayBlocking {
    key: BlockingKey,
    min_suffix_len: usize,
    max_block_size: usize,
    similarity: SimilarityFunction,
    threshold: f64,
}

impl RobustSuffixArrayBlocking {
    /// Creates the blocker. The paper sweeps the string similarity over
    /// {Jaro-Winkler, bigram, edit distance, LCS} and the threshold over
    /// {0.8, 0.9}, on top of the SuA length parameters.
    pub fn new(
        key: BlockingKey,
        min_suffix_len: usize,
        max_block_size: usize,
        similarity: SimilarityFunction,
        threshold: f64,
    ) -> Result<Self> {
        validate_lengths(min_suffix_len, max_block_size)?;
        if !(0.0..=1.0).contains(&threshold) {
            return Err(CoreError::Config("threshold must be in [0, 1]".into()));
        }
        Ok(Self {
            key,
            min_suffix_len,
            max_block_size,
            similarity,
            threshold,
        })
    }
}

impl Blocker for RobustSuffixArrayBlocking {
    fn name(&self) -> String {
        format!(
            "RSuA(min={},max={},{},t={},{})",
            self.min_suffix_len,
            self.max_block_size,
            self.similarity.name(),
            self.threshold,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        // BTreeMap keeps the suffix array sorted, which is what "adjacent
        // suffixes" refers to.
        let index = build_index(dataset, &self.key, self.min_suffix_len, false, usize::MAX);
        let entries: Vec<(String, Vec<RecordId>)> = index.into_iter().collect();

        let mut blocks: Vec<Block> = Vec::new();
        let mut current_suffix: Option<String> = None;
        let mut current_members: Vec<RecordId> = Vec::new();
        let mut block_counter = 0usize;

        let flush = |members: &mut Vec<RecordId>, counter: &mut usize, blocks: &mut Vec<Block>| {
            if members.len() >= 2 && members.len() <= self.max_block_size {
                blocks.push(Block::new(format!("rsua{counter}"), std::mem::take(members)));
                *counter += 1;
            } else {
                members.clear();
            }
        };

        for (suffix, members) in entries {
            // Oversized suffix groups are discarded outright, as in SuA.
            if members.len() > self.max_block_size {
                flush(&mut current_members, &mut block_counter, &mut blocks);
                current_suffix = None;
                continue;
            }
            let merge = match &current_suffix {
                Some(prev) => {
                    self.similarity.similarity(prev, &suffix) >= self.threshold
                        && current_members.len() + members.len() <= self.max_block_size
                }
                None => false,
            };
            if merge {
                current_members.extend(members);
            } else {
                flush(&mut current_members, &mut block_counter, &mut blocks);
                current_members = members;
            }
            current_suffix = Some(suffix);
        }
        flush(&mut current_members, &mut block_counter, &mut blocks);
        Ok(BlockCollection::from_blocks(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::Schema;

    fn key() -> BlockingKey {
        BlockingKey::exact(["last_name", "first_name"]).unwrap()
    }

    fn people(rows: &[(&str, &str, u32)]) -> Dataset {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("people", schema);
        for (f, l, e) in rows {
            b.push_values(vec![Some((*f).into()), Some((*l).into())], EntityId(*e)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn suffix_and_substring_generation() {
        assert_eq!(suffixes("wang", 2), vec!["wang", "ang", "ng"]);
        assert_eq!(suffixes("wang", 5), Vec::<String>::new());
        let subs = substrings("wang", 3, 100);
        assert!(subs.contains(&"wan".to_string()));
        assert!(subs.contains(&"ang".to_string()));
        assert!(subs.contains(&"wang".to_string()));
        assert_eq!(subs.len(), 3);
        assert!(substrings("verylongkey", 2, 5).len() <= 5);
    }

    #[test]
    fn parameter_validation() {
        assert!(SuffixArrayBlocking::new(key(), 0, 10).is_err());
        assert!(SuffixArrayBlocking::new(key(), 3, 1).is_err());
        assert!(AllSubstringsBlocking::new(key(), 0, 10).is_err());
        assert!(RobustSuffixArrayBlocking::new(key(), 3, 10, SimilarityFunction::JaroWinkler, 1.5).is_err());
        assert!(SuffixArrayBlocking::new(key(), 3, 10).unwrap().name().contains("SuA"));
        assert!(AllSubstringsBlocking::new(key(), 3, 10).unwrap().name().contains("SuAS"));
        assert!(RobustSuffixArrayBlocking::new(key(), 3, 10, SimilarityFunction::QGram(2), 0.8)
            .unwrap()
            .name()
            .contains("RSuA"));
    }

    #[test]
    fn shared_suffixes_create_blocks() {
        // "wangqing" and "wangqin g" → compact "wangqing" vs a prefix-typo
        // variant "vangqing": they share the suffix "angqing".
        let ds = people(&[("qing", "wang", 0), ("qing", "vang", 0), ("li", "chen", 1)]);
        let blocks = SuffixArrayBlocking::new(key(), 3, 10).unwrap().block(&ds).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)), "suffix 'angqing' is shared");
        assert!(!blocks.theta(RecordId(0), RecordId(2)));
    }

    #[test]
    fn oversized_suffix_groups_are_discarded() {
        // Ten records sharing the suffix "smith": with max_block_size 5 the
        // "smith" suffix group is dropped, so records only pair through
        // longer, rarer suffixes.
        let rows: Vec<(String, String, u32)> = (0..10).map(|i| (format!("p{i}"), "smith".to_string(), i as u32)).collect();
        let rows_ref: Vec<(&str, &str, u32)> = rows.iter().map(|(f, l, e)| (f.as_str(), l.as_str(), *e)).collect();
        let ds = people(&rows_ref);
        let blocks = SuffixArrayBlocking::new(BlockingKey::exact(["last_name"]).unwrap(), 3, 5).unwrap().block(&ds).unwrap();
        assert_eq!(blocks.num_distinct_pairs(), 0, "all suffix groups exceed the cap");
    }

    #[test]
    fn all_substrings_variant_is_more_permissive_than_suffixes() {
        // A typo at the *end* of the key defeats suffix blocking but not
        // substring blocking: "wangqing" vs "wangqinh" share "wangqin".
        let ds = people(&[("qing", "wang", 0), ("qinh", "wang", 0), ("zz", "yy", 1)]);
        let sua = SuffixArrayBlocking::new(key(), 4, 10).unwrap().block(&ds).unwrap();
        let suas = AllSubstringsBlocking::new(key(), 4, 10).unwrap().block(&ds).unwrap();
        assert!(!sua.theta(RecordId(0), RecordId(1)), "no shared suffix of length >= 4");
        assert!(suas.theta(RecordId(0), RecordId(1)), "shared substring 'wangqin'");
        assert!(suas.num_distinct_pairs() >= sua.num_distinct_pairs());
    }

    #[test]
    fn robust_variant_merges_similar_adjacent_suffixes() {
        // "andersonanna" vs "andersenannie": no suffix is shared (the key
        // endings differ), but the two full-key suffixes are adjacent in
        // sorted order and highly similar, so RSuA merges them where SuA
        // keeps them apart.
        let ds = people(&[("anna", "anderson", 0), ("annie", "andersen", 0), ("bob", "zhou", 1)]);
        let sua = SuffixArrayBlocking::new(key(), 5, 10).unwrap().block(&ds).unwrap();
        let rsua = RobustSuffixArrayBlocking::new(key(), 5, 10, SimilarityFunction::JaroWinkler, 0.85)
            .unwrap()
            .block(&ds)
            .unwrap();
        assert!(!sua.theta(RecordId(0), RecordId(1)), "plain suffix groups never merge the typo variants");
        assert!(rsua.theta(RecordId(0), RecordId(1)), "robust merging recovers the typo variants");
        assert!(!rsua.theta(RecordId(0), RecordId(2)));
    }

    #[test]
    fn exact_duplicates_always_pair() {
        let ds = people(&[("qing", "wang", 0), ("qing", "wang", 0)]);
        for blocker in [
            Box::new(SuffixArrayBlocking::new(key(), 3, 10).unwrap()) as Box<dyn Blocker>,
            Box::new(AllSubstringsBlocking::new(key(), 3, 10).unwrap()),
            Box::new(RobustSuffixArrayBlocking::new(key(), 3, 10, SimilarityFunction::EditDistance, 0.9).unwrap()),
        ] {
            let blocks = blocker.block(&ds).unwrap();
            assert!(blocks.theta(RecordId(0), RecordId(1)), "{} must pair exact duplicates", blocker.name());
        }
    }

    #[test]
    fn unknown_key_attribute_errors() {
        let ds = people(&[("a", "b", 0)]);
        assert!(SuffixArrayBlocking::new(BlockingKey::cora(), 3, 10).unwrap().block(&ds).is_err());
    }
}
