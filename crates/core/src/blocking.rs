//! Blocks, block collections and the [`Blocker`] trait.
//!
//! Section 3 of the paper defines the blocking problem through the *blocking
//! function* θ_B(r1, r2), which returns 1 when at least one block of B
//! contains both records. [`BlockCollection`] materialises B and exposes the
//! quantities the evaluation measures need: the set Γ of distinct candidate
//! pairs, the redundant pair count Γ_m, and θ_B itself.
//!
//! # The packed pair representation
//!
//! Every bulk pair path — the streaming Γ counter, ingest deltas and
//! removals — carries pairs as *packed* keys ([`RecordPair::pack`]): the
//! smaller record id in the high 32 bits of a `u64`, the larger in the low
//! 32. Packed keys order exactly like [`RecordPair`]s, and a [`PackedProbe`]
//! tests one with at most two shifts and two loads.
//!
//! # Counting distinct pairs without sorting them
//!
//! A pair repeats once per block its two records share, so Γ is the
//! redundant pairs with the repeats removed. The partner-dedup kernel
//! (`SeenSet::distinct_partners`) removes them per record, not per pair:
//! for one *anchor* record the caller's walk marks every member of the
//! member lists the anchor belongs to, in plain slice loops; the kernel
//! keeps each partner the first time it is marked, through a seen-set
//! indexed by dense id, and hands the kept partners back as one slice after
//! clearing exactly the marks it set. With every pair anchored on one of its
//! two records, each distinct pair comes out exactly once, with
//! O(redundant pairs) work, one O(records) seen-set per worker and no sort
//! or merge — the entity index of Comparison Propagation in the Papadakis et
//! al. survey. One-shot Γ ([`BlockCollection::stream_packed_counts`]),
//! incremental ingest deltas and removals all run it.

use std::collections::HashMap;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{Dataset, RecordId};
use sablock_textual::hashing::StableHashSet;

use crate::error::{CoreError, Result};
use crate::parallel::{default_threads, parallel_map};

pub use sablock_datasets::record::MAX_RECORD_ID;

/// A seen-set over dense ids — record ids, or the dense ranks of one
/// collection's members — for the partner-dedup kernel
/// ([`SeenSet::distinct_partners`]). Every kernel call leaves it all clear,
/// so one set serves any number of anchors without a reset.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeenSet {
    marks: Vec<bool>,
    /// The partners the current call kept, in first-seen order — reused
    /// across calls, so an anchor allocates nothing once it has grown.
    kept: Vec<u32>,
}

/// The marking side of one partner walk: what the walk closure of
/// [`SeenSet::distinct_partners`] receives.
pub(crate) struct PartnerMarks<'a> {
    marks: &'a mut [bool],
    kept: &'a mut Vec<u32>,
}

impl PartnerMarks<'_> {
    /// Marks one partner, keeping it if the walk has not marked it before.
    /// The id must be below the seen-set's covered length.
    #[inline]
    pub(crate) fn mark(&mut self, partner: u32) {
        let mark = &mut self.marks[partner as usize];
        if !*mark {
            *mark = true;
            self.kept.push(partner);
        }
    }
}

impl SeenSet {
    /// A clear set covering ids `0..len`.
    pub(crate) fn with_len(len: usize) -> Self {
        Self { marks: vec![false; len], kept: Vec::new() }
    }

    /// Grows the set to cover ids `0..len`; never shrinks.
    pub(crate) fn grow(&mut self, len: usize) {
        if self.marks.len() < len {
            self.marks.resize(len, false);
        }
    }

    /// The partner-dedup kernel: runs `walk`, which marks an anchor's
    /// partners — every member of each list the anchor sits in, repeats
    /// included — and returns each distinct marked id once, in first-seen
    /// order. Exactly the marks set here are cleared before it returns, so
    /// a call costs O(marked ids) whatever the size of the set.
    pub(crate) fn distinct_partners(&mut self, walk: impl FnOnce(&mut PartnerMarks<'_>)) -> &[u32] {
        self.kept.clear();
        walk(&mut PartnerMarks { marks: &mut self.marks, kept: &mut self.kept });
        for &partner in &self.kept {
            self.marks[partner as usize] = false;
        }
        &self.kept
    }

    /// The marks, for the sanitizer's all-clear check.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn marks(&self) -> &[bool] {
        &self.marks
    }
}

/// Counts accumulated by one streaming pass over the distinct candidate-pair
/// set Γ (see [`BlockCollection::stream_packed_counts`]): the pairs themselves
/// are never materialised, only counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Number of distinct candidate pairs `|Γ|`.
    pub distinct: u64,
    /// Number of distinct candidate pairs the probe accepted — `|Γ_tp|` when
    /// probed with ground-truth matching.
    pub matching: u64,
}

impl PairCounts {
    fn add(self, other: Self) -> Self {
        Self {
            distinct: self.distinct + other.distinct,
            matching: self.matching + other.matching,
        }
    }

    /// Counts one distinct pair, probing it once.
    #[inline]
    pub(crate) fn tally<P: PackedProbe>(&mut self, key: u64, probe: &P) {
        self.distinct += 1;
        self.matching += u64::from(probe.matches(key));
    }
}

/// A predicate over packed pair keys, monomorphised into the counting loops
/// (no boxing, no per-pair virtual dispatch). The counters probe each
/// distinct pair exactly once, in no promised order.
///
/// The blanket impl lets any `Fn(&RecordPair) -> bool` closure serve as a
/// probe (unpacking costs two shifts); [`EntityTableProbe`] is the fast path
/// for ground-truth matching — two array loads and one compare per pair.
pub trait PackedProbe: Sync {
    /// Whether the packed pair matches.
    fn matches(&self, key: u64) -> bool;
}

impl<F> PackedProbe for F
where
    F: Fn(&RecordPair) -> bool + Sync,
{
    #[inline]
    fn matches(&self, key: u64) -> bool {
        self(&RecordPair::from_packed(key))
    }
}

/// Ground-truth matching as a [`PackedProbe`]: a dense per-record entity
/// table (`GroundTruth::entity_table`), so the match test inside the counting
/// loop is two bounds-checked loads and an integer compare. Records beyond
/// the table never match (the blocks may cover ids the truth does not).
#[derive(Debug, Clone, Copy)]
pub struct EntityTableProbe<'a> {
    entity_of: &'a [EntityId],
}

impl<'a> EntityTableProbe<'a> {
    /// Wraps a dense record → entity assignment.
    pub fn new(entity_of: &'a [EntityId]) -> Self {
        Self { entity_of }
    }
}

impl PackedProbe for EntityTableProbe<'_> {
    #[inline]
    fn matches(&self, key: u64) -> bool {
        match (self.entity_of.get((key >> 32) as usize), self.entity_of.get((key as u32) as usize)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// A single block: a bucket key plus the records hashed into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    key: String,
    members: Vec<RecordId>,
}

impl Block {
    /// Creates a block. Duplicate member ids are removed, preserving order.
    pub fn new(key: impl Into<String>, mut members: Vec<RecordId>) -> Self {
        let mut seen = StableHashSet::default();
        members.retain(|id| seen.insert(*id));
        Self { key: key.into(), members }
    }

    /// The bucket key that produced this block.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The member record ids.
    pub fn members(&self) -> &[RecordId] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of (unordered) record pairs the block contributes, counting
    /// redundancy across blocks: `|b|·(|b|−1)/2`.
    pub fn pair_count(&self) -> u64 {
        let n = self.members.len() as u64;
        n * n.saturating_sub(1) / 2
    }

    /// Iterates over the distinct pairs within this block.
    pub fn pairs(&self) -> impl Iterator<Item = RecordPair> + '_ {
        self.members.iter().enumerate().flat_map(move |(i, &a)| {
            self.members[i + 1..]
                .iter()
                .filter_map(move |&b| RecordPair::new(a, b))
        })
    }
}

/// The output of a blocking technique: a set of (possibly overlapping) blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockCollection {
    blocks: Vec<Block>,
}

impl BlockCollection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection from blocks, dropping blocks with fewer than two
    /// members (they can never contribute a candidate pair).
    pub fn from_blocks(blocks: Vec<Block>) -> Self {
        let blocks = blocks.into_iter().filter(|b| b.len() >= 2).collect();
        Self { blocks }
    }

    /// [`BlockCollection::from_blocks`] with record-id-width validation: every
    /// member id must stay at or below [`MAX_RECORD_ID`], the bound every id
    /// of the workspace keeps (`u32::MAX` is reserved so that an id space's
    /// length — the incremental index's `next_id = last id + 1` — still fits
    /// a `u32`). An id beyond it is rejected here with a typed
    /// [`CoreError::RecordIdOverflow`]. Blockers that assemble collections
    /// from externally supplied ids should construct through this entry
    /// point.
    pub fn try_from_blocks(blocks: Vec<Block>) -> Result<Self> {
        for block in &blocks {
            if let Some(&id) = block.members().iter().find(|id| id.0 > MAX_RECORD_ID) {
                return Err(CoreError::RecordIdOverflow(u64::from(id.0)));
            }
        }
        Ok(Self::from_blocks(blocks))
    }

    /// Builds a collection from a map of bucket key → member records,
    /// which is the natural output shape of key-based blocking techniques.
    /// Accepts any `(key, members)` iterator — `HashMap`, `BTreeMap`, or a
    /// plain vec of entries — since the blocks are re-sorted by key anyway.
    pub fn from_key_map<K: std::fmt::Display>(map: impl IntoIterator<Item = (K, Vec<RecordId>)>) -> Self {
        let mut blocks: Vec<Block> = map
            .into_iter()
            .map(|(key, members)| Block::new(key.to_string(), members))
            .filter(|b| b.len() >= 2)
            .collect();
        // Deterministic order regardless of hash-map iteration order.
        blocks.sort_by(|a, b| a.key().cmp(b.key()));
        Self { blocks }
    }

    /// Adds a block (ignored if it has fewer than two members).
    pub fn push(&mut self, block: Block) {
        if block.len() >= 2 {
            self.blocks.push(block);
        }
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Size of the largest block (0 when empty).
    pub fn max_block_size(&self) -> usize {
        self.blocks.iter().map(Block::len).max().unwrap_or(0)
    }

    /// Mean block size (0 when empty).
    pub fn mean_block_size(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks.iter().map(Block::len).sum::<usize>() as f64 / self.blocks.len() as f64
    }

    /// Total number of pairs counted *with* redundancy across blocks — the
    /// quantity `|Γ_m| = Σ_b |b|·(|b|−1)/2` used by the PQ* measure.
    pub fn redundant_pair_count(&self) -> u64 {
        self.blocks.iter().map(Block::pair_count).sum()
    }

    /// The set Γ of *distinct* candidate pairs across all blocks, returned as
    /// a vector sorted in ascending [`RecordPair`] order: every block's pairs
    /// enumerated, then `sort_unstable` and `dedup` over their packed keys.
    ///
    /// This materialises all of Γ — at paper scale that is gigabytes. It is
    /// the reference the streaming counter is tested against; callers that
    /// only need counts (metrics, `|Γ|`, true-positive tallies) should use
    /// [`BlockCollection::stream_packed_counts`], which never holds the set.
    pub fn distinct_pairs(&self) -> Vec<RecordPair> {
        let mut packed: Vec<u64> = self.blocks.iter().flat_map(|block| block.pairs().map(RecordPair::pack)).collect();
        packed.sort_unstable();
        packed.dedup();
        packed.into_iter().map(RecordPair::from_packed).collect()
    }

    /// Number of distinct candidate pairs `|Γ|`, computed by the streaming
    /// counter — the full pair set is never materialised.
    pub fn num_distinct_pairs(&self) -> u64 {
        self.stream_packed_counts(|_: &RecordPair| false).distinct
    }

    /// Streams the distinct candidate-pair set Γ through a counting fold
    /// instead of materialising it: returns `|Γ|` plus the number of distinct
    /// pairs the probe accepts (with ground truth as the probe, `|Γ_tp|`).
    /// Each distinct pair is probed exactly once, in no promised order. Any
    /// `Fn(&RecordPair) -> bool` closure is a [`PackedProbe`]; bulk
    /// ground-truth callers should pass [`EntityTableProbe`].
    ///
    /// Semantically this is `distinct_pairs()` followed by a count/filter,
    /// but nothing is sorted or merged. The member ids are mapped to dense
    /// ranks, each block's ranks are sorted, and an inverted index lists, for
    /// every rank, each block it sits in with its position there. A pair is
    /// anchored on its larger id, whose partners in a block are the ranks
    /// before it; the walk marks them slice by slice, and the partner-dedup
    /// kernel (`SeenSet::distinct_partners`) keeps each partner once. The
    /// anchors are cut into [`default_threads`] contiguous ranges of equal
    /// redundant-pair mass, one per [`parallel_map`] worker; the counts are
    /// sums, so they are identical for every worker count. Memory is
    /// O(members) for the index plus one O(distinct members) seen-set per
    /// worker — never O(|Γ|), and never O(largest id).
    pub fn stream_packed_counts<P: PackedProbe>(&self, probe: P) -> PairCounts {
        // Dense ranks: `ids[rank]` is the member id of that rank.
        let mut ids: Vec<RecordId> = self.blocks.iter().flat_map(|block| block.members().iter().copied()).collect();
        ids.sort_unstable();
        ids.dedup();

        // Every block's members as ascending ranks, the blocks laid end to
        // end. The rank of an id among distinct `u32` ids never exceeds the
        // id, so it fits a `u32`.
        let mut ranks: Vec<u32> = Vec::with_capacity(self.blocks.iter().map(Block::len).sum());
        for block in &self.blocks {
            let start = ranks.len();
            ranks.extend(block.members().iter().map(|id| {
                u32::try_from(ids.partition_point(|other| other < id)).expect("a rank never exceeds its id")
            }));
            ranks[start..].sort_unstable();
        }

        // Inverted index: the entries of rank `r` are
        // `index[offsets[r]..offsets[r + 1]]`, one `(start, position)` per
        // block holding it, so its partners there are `ranks[start..position]`.
        let mut offsets = vec![0usize; ids.len() + 1];
        for &rank in &ranks {
            offsets[rank as usize + 1] += 1;
        }
        let mut running = 0usize;
        for offset in &mut offsets {
            running += *offset;
            *offset = running;
        }
        let mut index = vec![(0usize, 0usize); ranks.len()];
        let mut fill = offsets.clone();
        let mut start = 0usize;
        for block in &self.blocks {
            let end = start + block.len();
            for position in start..end {
                let slot = &mut fill[ranks[position] as usize];
                index[*slot] = (start, position);
                *slot += 1;
            }
            start = end;
        }
        drop(fill);

        // Contiguous anchor ranges of about equal redundant-pair mass: an
        // anchor owns `position − start` pairs in each of its blocks, and the
        // masses sum to the redundant pair count.
        let threads = default_threads();
        let total = u128::from(self.redundant_pair_count());
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(threads);
        let mut first = 0usize;
        let mut mass = 0u128;
        for anchor in 0..ids.len() {
            mass += index[offsets[anchor]..offsets[anchor + 1]]
                .iter()
                .map(|&(start, position)| (position - start) as u128)
                .sum::<u128>();
            let cuts = ranges.len() + 1;
            if cuts < threads && mass * threads as u128 >= total * cuts as u128 {
                ranges.push((first, anchor + 1));
                first = anchor + 1;
            }
        }
        ranges.push((first, ids.len()));
        ranges.retain(|&(first, end)| first < end);

        let counts = parallel_map(&ranges, threads, |&(first, end)| {
            let mut seen = SeenSet::with_len(ids.len());
            let mut counts = PairCounts::default();
            for anchor in first..end {
                let entries = &index[offsets[anchor]..offsets[anchor + 1]];
                let partners = seen.distinct_partners(|marks| {
                    for &(start, position) in entries {
                        for &partner in &ranks[start..position] {
                            marks.mark(partner);
                        }
                    }
                });
                let larger = ids[anchor];
                for &partner in partners {
                    counts.tally(RecordPair::pack_ascending(ids[partner as usize], larger), &probe);
                }
            }
            counts
        });
        counts.into_iter().fold(PairCounts::default(), PairCounts::add)
    }

    /// The blocking function θ_B: do the two records share at least one block?
    ///
    /// This scans blocks and is intended for point queries (examples, tests);
    /// bulk evaluation goes through [`BlockCollection::stream_packed_counts`].
    pub fn theta(&self, a: RecordId, b: RecordId) -> bool {
        if a == b {
            return false;
        }
        self.blocks
            .iter()
            .any(|blk| blk.members().contains(&a) && blk.members().contains(&b))
    }

    /// Per-record block membership: record → indices of blocks containing it.
    /// Needed by meta-blocking to build the blocking graph.
    pub fn membership(&self) -> HashMap<RecordId, Vec<usize>> {
        let mut map: HashMap<RecordId, Vec<usize>> = HashMap::new();
        for (idx, block) in self.blocks.iter().enumerate() {
            for &member in block.members() {
                map.entry(member).or_default().push(idx);
            }
        }
        map
    }
}

/// A blocking technique: maps a dataset to a collection of blocks.
///
/// Implemented by the SA-LSH blocker of this crate and by every baseline in
/// `sablock-baselines`, so the evaluation harness can treat them uniformly.
pub trait Blocker {
    /// A short human-readable name used in reports (e.g. `"SA-LSH"`).
    fn name(&self) -> String;

    /// Produces blocks for the dataset.
    fn block(&self, dataset: &Dataset) -> Result<BlockCollection>;
}

impl<B: Blocker + ?Sized> Blocker for Box<B> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        (**self).block(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_threads;

    fn rid(i: u32) -> RecordId {
        RecordId(i)
    }

    fn pk(a: u32, b: u32) -> u64 {
        RecordPair::new(rid(a), rid(b)).unwrap().pack()
    }

    #[test]
    fn block_deduplicates_members_and_counts_pairs() {
        let b = Block::new("k1", vec![rid(1), rid(2), rid(1), rid(3)]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.pair_count(), 3);
        assert_eq!(b.pairs().count(), 3);
        assert_eq!(b.key(), "k1");
        assert!(!b.is_empty());
    }

    #[test]
    fn singleton_and_empty_blocks_are_dropped() {
        let collection = BlockCollection::from_blocks(vec![
            Block::new("a", vec![rid(1)]),
            Block::new("b", vec![]),
            Block::new("c", vec![rid(1), rid(2)]),
        ]);
        assert_eq!(collection.num_blocks(), 1);
        let mut collection = BlockCollection::new();
        collection.push(Block::new("solo", vec![rid(9)]));
        assert!(collection.is_empty());
    }

    #[test]
    fn distinct_vs_redundant_pairs() {
        // Two overlapping blocks: {1,2,3} and {2,3,4} share the pair (2,3).
        let collection = BlockCollection::from_blocks(vec![
            Block::new("b1", vec![rid(1), rid(2), rid(3)]),
            Block::new("b2", vec![rid(2), rid(3), rid(4)]),
        ]);
        assert_eq!(collection.redundant_pair_count(), 6);
        assert_eq!(collection.num_distinct_pairs(), 5);
        assert!(collection.theta(rid(2), rid(3)));
        assert!(collection.theta(rid(1), rid(3)));
        assert!(!collection.theta(rid(1), rid(4)));
        assert!(!collection.theta(rid(1), rid(1)));
    }

    #[test]
    fn paper_example_block_counts() {
        // Fig. 1: B3 = {{r1,r2,r6}, {r4,r6}, {r3}, {r5}} has 4 distinct pairs;
        // B1 = {{r1,r2,r4,r6}, {r3}, {r5}} has 6; B2 = {{r1,r2,r3,r6}, {r4,r5,r6}} has 9.
        let b1 = BlockCollection::from_blocks(vec![Block::new("x", vec![rid(1), rid(2), rid(4), rid(6)])]);
        assert_eq!(b1.num_distinct_pairs(), 6);
        let b2 = BlockCollection::from_blocks(vec![
            Block::new("x", vec![rid(1), rid(2), rid(3), rid(6)]),
            Block::new("y", vec![rid(4), rid(5), rid(6)]),
        ]);
        assert_eq!(b2.num_distinct_pairs(), 9);
        let b3 = BlockCollection::from_blocks(vec![
            Block::new("x", vec![rid(1), rid(2), rid(6)]),
            Block::new("y", vec![rid(4), rid(6)]),
        ]);
        assert_eq!(b3.num_distinct_pairs(), 4);
    }

    #[test]
    fn key_map_construction_is_deterministic() {
        let mut map: HashMap<String, Vec<RecordId>> = HashMap::new();
        map.insert("z".into(), vec![rid(1), rid(2)]);
        map.insert("a".into(), vec![rid(3), rid(4)]);
        map.insert("solo".into(), vec![rid(5)]);
        let collection = BlockCollection::from_key_map(map);
        assert_eq!(collection.num_blocks(), 2);
        assert_eq!(collection.blocks()[0].key(), "a");
        assert_eq!(collection.blocks()[1].key(), "z");
    }

    #[test]
    fn size_statistics() {
        let collection = BlockCollection::from_blocks(vec![
            Block::new("b1", vec![rid(1), rid(2), rid(3), rid(4)]),
            Block::new("b2", vec![rid(5), rid(6)]),
        ]);
        assert_eq!(collection.max_block_size(), 4);
        assert!((collection.mean_block_size() - 3.0).abs() < 1e-12);
        let empty = BlockCollection::new();
        assert_eq!(empty.max_block_size(), 0);
        assert_eq!(empty.mean_block_size(), 0.0);
    }

    #[test]
    fn distinct_pairs_are_sorted_and_deduplicated() {
        let collection = BlockCollection::from_blocks(vec![
            Block::new("b1", vec![rid(3), rid(1), rid(2)]),
            Block::new("b2", vec![rid(2), rid(1)]),
            Block::new("b3", vec![rid(9), rid(1)]),
        ]);
        let pairs = collection.distinct_pairs();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted strictly ascending (deduped)");
        assert_eq!(pairs.len() as u64, collection.num_distinct_pairs());
        // (1,2) appears in two blocks but only once in Γ.
        let p12 = RecordPair::new(rid(1), rid(2)).unwrap();
        assert_eq!(pairs.iter().filter(|&&p| p == p12).count(), 1);
    }

    #[test]
    fn seen_set_keeps_first_occurrences_and_leaves_itself_clear() {
        let mut seen = SeenSet::with_len(4);
        let distinct = |seen: &mut SeenSet, partners: &[u32]| {
            seen.distinct_partners(|marks| {
                for &partner in partners {
                    marks.mark(partner);
                }
            })
            .to_vec()
        };
        assert_eq!(distinct(&mut seen, &[3, 1, 3, 0, 1]), [3, 1, 0]);
        // The call cleared its marks, so the next anchor sees every id again.
        assert_eq!(distinct(&mut seen, &[1, 1]), [1]);
        assert!(distinct(&mut seen, &[]).is_empty());
        seen.grow(6);
        assert_eq!(distinct(&mut seen, &[5, 2, 5]), [5, 2]);
        assert!(seen.marks.iter().all(|&mark| !mark));
    }

    #[test]
    fn streaming_counts_match_materialised_enumeration() {
        // Overlap-heavy collection: 13 distinct blocks, each repeated ~40 times.
        let blocks: Vec<Block> = (0..519)
            .map(|i| {
                let base = (i % 13) as u32;
                Block::new(format!("b{i}"), vec![rid(base), rid(base + 1), rid(base + 2)])
            })
            .collect();
        let collection = BlockCollection::from_blocks(blocks);
        let pairs = collection.distinct_pairs();
        let expected_matching = pairs.iter().filter(|p| p.first().0 % 2 == 0).count() as u64;
        // Every worker count yields identical counts.
        for threads in [1, 2, 4] {
            let counts =
                with_threads(threads, || collection.stream_packed_counts(|p: &RecordPair| p.first().0 % 2 == 0));
            assert_eq!(counts.distinct, pairs.len() as u64, "threads={threads}");
            assert_eq!(counts.matching, expected_matching, "threads={threads}");
        }
        let auto = collection.stream_packed_counts(|p: &RecordPair| p.first().0 % 2 == 0);
        assert_eq!(auto.distinct, pairs.len() as u64);
        assert_eq!(auto.matching, expected_matching);
    }

    #[test]
    fn streaming_counts_handle_degenerate_collections() {
        let empty = BlockCollection::new();
        assert_eq!(empty.stream_packed_counts(|_: &RecordPair| true), PairCounts::default());
        assert_eq!(empty.num_distinct_pairs(), 0);
        // Singleton-only input: every block is dropped at construction.
        let singletons = BlockCollection::from_blocks(vec![
            Block::new("a", vec![rid(1)]),
            Block::new("b", vec![rid(2)]),
        ]);
        let counts = with_threads(4, || singletons.stream_packed_counts(|_: &RecordPair| true));
        assert_eq!(counts, PairCounts::default());
        // A single pair cannot be split over the workers; it is still
        // counted once.
        let narrow = BlockCollection::from_blocks(vec![Block::new("n", vec![rid(5), rid(6)])]);
        for threads in [1, 2, 4] {
            let counts = with_threads(threads, || narrow.stream_packed_counts(|_: &RecordPair| true));
            assert_eq!(counts, PairCounts { distinct: 1, matching: 1 }, "threads={threads}");
        }
    }

    #[test]
    fn streaming_counts_survive_skewed_id_layouts() {
        // Dense ids plus one outlier near u32::MAX: the dense ranks keep the
        // seen-sets small, and mass-based ranges still count exactly.
        let mut blocks: Vec<Block> = (0..40)
            .map(|i| Block::new(format!("d{i}"), vec![rid(i), rid(i + 1), rid(i + 2)]))
            .collect();
        blocks.push(Block::new("outlier", vec![rid(7), rid(u32::MAX - 1)]));
        let collection = BlockCollection::from_blocks(blocks);
        let expected = collection.distinct_pairs().len() as u64;
        for threads in [1, 2, 4] {
            let counts = with_threads(threads, || collection.stream_packed_counts(|_: &RecordPair| false));
            assert_eq!(counts.distinct, expected, "threads={threads}");
        }
    }

    #[test]
    fn entity_table_probe_matches_ground_truth_semantics() {
        use sablock_datasets::ground_truth::EntityId;
        let table = vec![EntityId(0), EntityId(0), EntityId(1), EntityId(1), EntityId(2)];
        let probe = EntityTableProbe::new(&table);
        assert!(probe.matches(pk(0, 1)));
        assert!(probe.matches(pk(2, 3)));
        assert!(!probe.matches(pk(1, 2)));
        // Records beyond the table never match — not even each other.
        assert!(!probe.matches(pk(3, 17)));
        assert!(!probe.matches(pk(17, 18)));
    }

    #[test]
    fn record_id_overflow_is_rejected_at_construction() {
        // An id just over the boundary: u32::MAX is reserved so that an id
        // space's length still fits a u32, so checked construction rejects it.
        let overflowing = vec![
            Block::new("ok", vec![rid(0), rid(1)]),
            Block::new("bad", vec![rid(3), rid(u32::MAX)]),
        ];
        let err = BlockCollection::try_from_blocks(overflowing).unwrap_err();
        assert!(matches!(err, CoreError::RecordIdOverflow(id) if id == u64::from(u32::MAX)));
        // The largest representable id is fine, and counts stay exact.
        let edge = BlockCollection::try_from_blocks(vec![Block::new(
            "edge",
            vec![rid(MAX_RECORD_ID - 1), rid(MAX_RECORD_ID)],
        )])
        .unwrap();
        assert_eq!(edge.num_distinct_pairs(), 1);
    }

    #[test]
    fn membership_maps_records_to_blocks() {
        let collection = BlockCollection::from_blocks(vec![
            Block::new("b1", vec![rid(1), rid(2)]),
            Block::new("b2", vec![rid(2), rid(3)]),
        ]);
        let membership = collection.membership();
        assert_eq!(membership[&rid(2)], vec![0, 1]);
        assert_eq!(membership[&rid(1)], vec![0]);
        assert!(!membership.contains_key(&rid(9)));
    }
}
