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
//! Every bulk pair path — enumeration, deduplication and the streaming
//! Γ counter — operates on *packed* pair keys ([`RecordPair::pack`]): the
//! smaller record id in the high 32 bits of a `u64`, the larger in the low
//! 32. Packed keys order exactly like [`RecordPair`]s, so sorted runs are
//! plain `Vec<u64>`, run construction is an LSB radix sort
//! ([`radix_sort_packed`]), and every comparison of the k-way merge is a
//! single integer compare. The merge itself is a flat loser (tournament)
//! tree with a galloping fast path ([`merge_count_packed_runs`]): one
//! path-to-root update per *segment* of pairs instead of a heap pop + push
//! per redundant pair.

use std::collections::HashMap;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{Dataset, RecordId};
use sablock_textual::hashing::StableHashSet;

use crate::error::{CoreError, Result};
use crate::parallel::{default_threads, parallel_map};

pub use sablock_datasets::record::MAX_RECORD_ID;

/// How many blocks one shard of the pair-enumeration covers. Shards are
/// enumerated and sorted independently (in parallel for large collections)
/// and then combined by the loser-tree merge.
const PAIR_SHARD_BLOCKS: usize = 256;

/// Target number of (redundant) pairs per pair-space slice of the streaming
/// counter. Collections whose redundant pair count stays below this are
/// counted in a single slice; larger ones are split so that only
/// `threads × slice` pairs are ever resident at once.
const STREAM_SLICE_TARGET_PAIRS: u64 = 32_000_000;

/// Upper bound on the number of pair-space slices of the streaming counter.
/// Every slice re-scans the block headers (cheap), so an excessive slice
/// count would trade memory nobody needs saved for wasted scans.
const MAX_STREAM_SLICES: usize = 64;

/// Below this length the scatter passes of the radix sort cost more than a
/// comparison sort's cache locality buys back, so short runs fall through to
/// `sort_unstable`.
const RADIX_SORT_MIN: usize = 1 << 10;

/// Sorts packed pair keys with an LSB radix sort: one histogram pre-scan
/// over all eight byte digits, then one counting-scatter pass per digit that
/// actually varies (a digit whose value is shared by every key — common when
/// record ids span far fewer than 32 bits — is skipped outright). Short
/// inputs (under 1,024 keys) fall back to `sort_unstable`, whose branchy
/// pattern-defeating pdqsort wins at that size.
///
/// Exposed (with [`merge_count_packed_runs`]) so benches and property tests
/// can pin the packed run construction against the tuple-sorting reference.
pub fn radix_sort_packed(keys: &mut Vec<u64>) {
    let len = keys.len();
    if len < RADIX_SORT_MIN || len > u32::MAX as usize {
        keys.sort_unstable();
        return;
    }
    let mut hist = vec![[0u32; 256]; 8];
    for &key in keys.iter() {
        let mut k = key;
        for digit in &mut hist {
            digit[(k & 0xFF) as usize] += 1;
            k >>= 8;
        }
    }
    let mut src = std::mem::take(keys);
    let mut dst = vec![0u64; len];
    for (digit, counts) in hist.iter().enumerate() {
        if counts.iter().any(|&count| count as usize == len) {
            continue;
        }
        let shift = digit * 8;
        let mut offsets = [0u32; 256];
        let mut running = 0u32;
        for (offset, &count) in offsets.iter_mut().zip(counts.iter()) {
            *offset = running;
            running += count;
        }
        for &key in &src {
            let bucket = ((key >> shift) & 0xFF) as usize;
            dst[offsets[bucket] as usize] = key;
            offsets[bucket] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *keys = src;
    crate::invariants::assert_sorted(keys, "radix_sort_packed output");
}

/// Enumerates, radix-sorts and dedups the packed pairs of a slice of blocks —
/// one sorted run of the shard-then-merge pair enumeration.
fn packed_pair_run(blocks: &[Block]) -> Vec<u64> {
    let mut keys: Vec<u64> = blocks.iter().flat_map(|b| b.pairs().map(RecordPair::pack)).collect();
    radix_sort_packed(&mut keys);
    keys.dedup();
    crate::invariants::assert_strictly_ascending(&keys, "packed_pair_run");
    keys
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
}

/// A predicate over packed pair keys, monomorphised into the merge-counting
/// loop (no boxing, no per-pair virtual dispatch).
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
/// table (`GroundTruth::entity_table`), so the match test inside the merge
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

/// A flat loser (tournament) tree over the current heads of `cap` runs
/// (`cap` a power of two; surplus leaves carry the `u64::MAX` sentinel).
/// `node[0]` holds the run index of the overall winner; `node[1..cap]` hold
/// the loser of each internal match. Advancing the winner replays one
/// leaf-to-root path — ⌈log₂ cap⌉ integer compares — instead of the pop +
/// push (two heap walks over tuple keys) of a binary heap.
struct LoserTree {
    node: Vec<u32>,
    cap: usize,
}

impl LoserTree {
    /// Builds the tree over initial head keys (`keys.len()` == `cap`).
    fn new(keys: &[u64]) -> Self {
        let cap = keys.len();
        debug_assert!(cap.is_power_of_two());
        let mut node = vec![0u32; cap];
        let mut winner = vec![0u32; 2 * cap];
        for (i, slot) in winner.iter_mut().skip(cap).enumerate() {
            *slot = i as u32;
        }
        for n in (1..cap).rev() {
            let a = winner[2 * n];
            let b = winner[2 * n + 1];
            let (win, lose) = if keys[b as usize] < keys[a as usize] { (b, a) } else { (a, b) };
            winner[n] = win;
            node[n] = lose;
        }
        node[0] = if cap > 1 { winner[1] } else { 0 };
        Self { node, cap }
    }

    /// The run index holding the smallest current head.
    #[inline]
    fn winner(&self) -> usize {
        self.node[0] as usize
    }

    /// Replays the path from run `run`'s leaf to the root after its head key
    /// changed, restoring the winner at `node[0]`.
    #[inline]
    fn replay(&mut self, run: usize, keys: &[u64]) {
        let mut winner = run as u32;
        let mut n = (self.cap + run) >> 1;
        while n >= 1 {
            let contender = self.node[n];
            if keys[contender as usize] < keys[winner as usize] {
                self.node[n] = winner;
                winner = contender;
            }
            n >>= 1;
        }
        self.node[0] = winner;
    }

    /// The runner-up's head key: the losers stored on the winner's path are
    /// exactly the winners of every opposing subtree, so their minimum is the
    /// smallest head outside the winning run — the bound below which the
    /// winner's run can be emitted wholesale without touching the tree.
    #[inline]
    fn challenger(&self, keys: &[u64]) -> u64 {
        let winner = self.node[0] as usize;
        let mut best = u64::MAX;
        let mut n = (self.cap + winner) >> 1;
        while n >= 1 {
            best = best.min(keys[self.node[n] as usize]);
            n >>= 1;
        }
        best
    }
}

/// Merges sorted, individually-deduplicated packed runs and feeds the
/// globally deduplicated output to `emit` as strictly-ascending segments
/// (each segment a borrowed slice of one input run).
///
/// The merge is comparison-minimal and adaptive. A [`LoserTree`] keeps the
/// smallest head; the common advance is one leaf-to-root replay — ⌈log₂ k⌉
/// single-`u64` compares. When the same run wins twice in a row (a locally
/// dominating run: blocks cluster pairs by anchor id, so this is frequent),
/// the merge switches to the **galloping fast path**: it computes the
/// runner-up's head once ([`LoserTree::challenger`]) and bulk-emits the
/// winning run's entire prefix below that bound with a single tree update,
/// however long the prefix. When only one run remains alive
/// (`challenger == u64::MAX`), its whole tail goes out as one segment.
/// Finely interleaved runs therefore pay one replay per key — never the
/// challenger walk — while skewed run shapes collapse to segment-sized
/// work.
pub(crate) fn merge_packed_runs_into<E: FnMut(&[u64])>(runs: &[Vec<u64>], mut emit: E) {
    #[cfg(feature = "check-invariants")]
    let mut emit = {
        for run in runs {
            crate::invariants::assert_strictly_ascending(run, "merge_packed_runs_into input run");
        }
        let mut last: Option<u64> = None;
        move |segment: &[u64]| {
            crate::invariants::check_emission_monotone(&mut last, segment);
            emit(segment);
        }
    };
    let live: Vec<&[u64]> = runs.iter().map(Vec::as_slice).filter(|r| !r.is_empty()).collect();
    match live.len() {
        0 => return,
        1 => {
            emit(live[0]);
            return;
        }
        _ => {}
    }
    let cap = live.len().next_power_of_two();
    let mut pos = vec![0usize; live.len()];
    let mut keys = vec![u64::MAX; cap];
    for (key, run) in keys.iter_mut().zip(live.iter()) {
        *key = run[0];
    }
    let mut tree = LoserTree::new(&keys);
    // No valid packed pair is `u64::MAX` (the smaller id is < u32::MAX), so
    // it doubles as both the exhausted-run sentinel and "nothing emitted yet".
    let mut last = u64::MAX;
    let mut prev_winner = usize::MAX;
    loop {
        let w = tree.winner();
        let head = keys[w];
        if head == u64::MAX {
            break;
        }
        let run = live[w];
        let mut p = pos[w];
        if w == prev_winner {
            // The run won twice in a row — gallop: everything below the
            // runner-up's head is below every other run's current and future
            // keys, so the prefix is globally next and — runs being
            // deduplicated — unique except possibly its first key repeating
            // `last`.
            let bound = tree.challenger(&keys);
            if head < bound {
                let start = if head == last { p + 1 } else { p };
                while p < run.len() && run[p] < bound {
                    p += 1;
                }
                if start < p {
                    emit(&run[start..p]);
                    last = run[p - 1];
                }
            } else {
                // head == bound: a cross-run tie; emit one key and let the
                // other run's equal head be dropped as a duplicate.
                if head != last {
                    emit(&run[p..p + 1]);
                    last = head;
                }
                p += 1;
            }
        } else {
            // Single-step advance: emit the winner and replay — no
            // challenger walk on the interleaved fast path.
            if head != last {
                emit(&run[p..p + 1]);
                last = head;
            }
            p += 1;
        }
        pos[w] = p;
        keys[w] = if p < run.len() { run[p] } else { u64::MAX };
        tree.replay(w, &keys);
        prev_winner = w;
    }
}

/// Folds sorted, individually-deduplicated packed runs through the
/// loser-tree merge, counting distinct keys and probing each emitted key
/// exactly once. Nothing beyond the runs themselves is ever allocated.
///
/// Public (with [`radix_sort_packed`]) so benches and property tests can pin
/// it against a heap-merge reference on adversarial run shapes.
pub fn merge_count_packed_runs<P: PackedProbe>(runs: &[Vec<u64>], probe: &P) -> PairCounts {
    let mut counts = PairCounts::default();
    merge_packed_runs_into(runs, |segment| {
        counts.distinct += segment.len() as u64;
        for &key in segment {
            if probe.matches(key) {
                counts.matching += 1;
            }
        }
    });
    counts
}

/// Cuts pair space into `slices` id ranges of roughly equal *anchored-pair
/// mass*: a record anchors the pairs in which it is the smaller id, so in a
/// sorted member list the member at position `i` anchors `len − 1 − i`
/// pairs. Boundaries are placed on the cumulative anchor weight rather than
/// on raw id values, so the per-slice memory bound holds under arbitrary id
/// layouts (skewed, sparse, or outlier-heavy distributions alike).
///
/// Returns `slices + 1` non-decreasing bounds; slice `s` owns the pairs
/// whose smaller id lies in `[bounds[s], bounds[s + 1])`, and together the
/// slices cover pair space exactly once.
fn slice_bounds(sorted_members: &[Vec<RecordId>], slices: usize) -> Vec<u64> {
    let mut weights: Vec<(RecordId, u64)> = sorted_members
        .iter()
        .flat_map(|members| {
            let n = members.len();
            members.iter().enumerate().map(move |(i, &id)| (id, (n - 1 - i) as u64)) // sablock-lint: allow(lossy-id-cast): anchored-pair count, not an id; usize → u64 widens losslessly
        })
        .collect();
    weights.sort_unstable_by_key(|&(id, _)| id);
    let total: u64 = weights.iter().map(|&(_, w)| w).sum();
    let min_id = weights.first().map_or(0, |&(id, _)| u64::from(id.0));
    let end = weights.last().map_or(0, |&(id, _)| u64::from(id.0) + 1);
    let mut bounds = Vec::with_capacity(slices + 1);
    bounds.push(min_id);
    // A bound is emitted once the cumulative weight crosses s·total/slices;
    // it always lands *after* the current id, so an id's anchored pairs are
    // never split across slices (a heavy single id simply keeps its slice).
    let mut cumulative = 0u64;
    let mut next_cut = 1usize;
    for &(id, weight) in &weights {
        cumulative += weight;
        while next_cut < slices && u128::from(cumulative) * slices as u128 >= u128::from(total) * next_cut as u128 {
            bounds.push(u64::from(id.0) + 1);
            next_cut += 1;
        }
    }
    while bounds.len() < slices + 1 {
        bounds.push(end);
    }
    bounds[slices] = end;
    bounds
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
    /// member id must stay at or below [`MAX_RECORD_ID`]. An id of `u32::MAX`
    /// would alias the `u64::MAX` exhausted-run sentinel of the loser-tree
    /// merge when packed, silently corrupting pair counts — so it is rejected
    /// here with a typed [`CoreError::RecordIdOverflow`]. Blockers that
    /// assemble collections from externally supplied ids should construct
    /// through this entry point.
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

    /// The per-shard sorted, deduplicated packed pair runs of the whole
    /// collection (the PR-2 sort-dedup shards, now radix-sorted `Vec<u64>`).
    fn packed_runs(&self, threads: usize) -> Vec<Vec<u64>> {
        if self.blocks.len() > PAIR_SHARD_BLOCKS {
            let shards: Vec<&[Block]> = self.blocks.chunks(PAIR_SHARD_BLOCKS).collect();
            parallel_map(&shards, threads, |shard| packed_pair_run(shard))
        } else {
            vec![packed_pair_run(&self.blocks)]
        }
    }

    /// The set Γ of *distinct* candidate pairs across all blocks, returned as
    /// a vector sorted in ascending [`RecordPair`] order.
    ///
    /// Enumeration is sort-dedup based rather than hash-set based: blocks are
    /// split into shards, each shard's packed pairs are radix-sorted and
    /// deduplicated independently (in parallel for large collections), the
    /// runs are merged once through the loser-tree/galloping merge into a
    /// single packed vector, and the keys are unpacked once at the end. This
    /// keeps bulk enumeration cache-friendly and allocation-light, and the
    /// output order is deterministic regardless of thread count.
    ///
    /// This materialises all of Γ — at paper scale that is gigabytes. Callers
    /// that only need counts (metrics, `|Γ|`, true-positive tallies) should
    /// use [`BlockCollection::stream_packed_counts`], which is semantically
    /// identical but never holds the full set.
    pub fn distinct_pairs(&self) -> Vec<RecordPair> {
        let runs = self.packed_runs(default_threads());
        let mut packed: Vec<u64> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        merge_packed_runs_into(&runs, |segment| packed.extend_from_slice(segment));
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
    /// Each distinct pair is probed exactly once, in ascending order within
    /// its pair-space slice. Any `Fn(&RecordPair) -> bool` closure is a
    /// [`PackedProbe`]; bulk ground-truth callers should pass
    /// [`EntityTableProbe`].
    ///
    /// Semantically this is `distinct_pairs()` followed by a count/filter,
    /// but the memory high-water mark is one pair-space *slice* per worker
    /// rather than the whole Γ: pair space is range-partitioned by the
    /// smaller record id into slices sized off the redundant pair count
    /// (boundaries cut on cumulative anchored-pair mass, so the bound holds
    /// for skewed id layouts too), and each slice independently radix-sorts
    /// per-shard packed runs and folds them through the loser-tree/galloping
    /// merge counter, which deduplicates on the fly. Slices are disjoint in
    /// pair space, so their counts add up exactly; [`parallel_map`] drives
    /// the slice (or, for single-slice collections, shard) enumeration with
    /// [`default_threads`] workers, and the result is identical for every
    /// worker count.
    pub fn stream_packed_counts<P: PackedProbe>(&self, probe: P) -> PairCounts {
        let slices = self
            .redundant_pair_count()
            .div_ceil(STREAM_SLICE_TARGET_PAIRS)
            .clamp(1, MAX_STREAM_SLICES as u64) as usize;
        self.stream_packed_counts_sliced(slices, probe)
    }

    /// [`BlockCollection::stream_packed_counts`] with an explicit slice
    /// count, so tests can force the multi-slice path on small collections.
    /// `slices` only affects the memory/rescan trade-off, never the counts.
    pub fn stream_packed_counts_sliced<P: PackedProbe>(&self, slices: usize, probe: P) -> PairCounts {
        if self.blocks.is_empty() {
            return PairCounts::default();
        }
        let threads = default_threads();
        if slices <= 1 {
            // One slice covering all of pair space: build the sorted shard
            // runs in parallel (exactly as `distinct_pairs` does) and fold
            // them through the merge counter instead of merging into a vector.
            let runs = self.packed_runs(threads);
            return merge_count_packed_runs(&runs, &probe);
        }

        // Sort each block's members once so that, inside every block, the
        // members owning a slice (as the smaller id of a pair) form one
        // contiguous range — enumeration then touches each pair exactly once
        // across all slices, plus two binary searches per block per slice.
        let sorted_members: Vec<Vec<RecordId>> = parallel_map(&self.blocks, threads, |block| {
            let mut members = block.members().to_vec();
            members.sort_unstable();
            members
        });
        let slices = slices.clamp(1, MAX_STREAM_SLICES);
        let bounds = slice_bounds(&sorted_members, slices);

        let slice_ids: Vec<usize> = (0..slices).collect();
        let counts = parallel_map(&slice_ids, threads, |&slice| {
            let lo = bounds[slice];
            let hi = bounds[slice + 1];
            let mut runs: Vec<Vec<u64>> = Vec::new();
            let mut anchor_ranges: Vec<(usize, usize)> = Vec::with_capacity(PAIR_SHARD_BLOCKS);
            for shard in sorted_members.chunks(PAIR_SHARD_BLOCKS) {
                // Members are sorted and deduplicated, so the pairs whose
                // *smaller* id falls in [lo, hi) are exactly those anchored
                // at positions [start, end) — and `members[i] < members[j]`
                // for i < j, so the packed key needs no canonicalisation.
                // The anchor at position i owns `len − 1 − i` pairs, which
                // sizes the run exactly up front (no growth reallocations).
                anchor_ranges.clear();
                let mut capacity = 0usize;
                for members in shard {
                    let start = members.partition_point(|id| u64::from(id.0) < lo);
                    let end = members.partition_point(|id| u64::from(id.0) < hi);
                    anchor_ranges.push((start, end));
                    let anchors = end - start;
                    if anchors > 0 {
                        capacity += anchors * (members.len() - 1) - anchors * (2 * start + anchors - 1) / 2;
                    }
                }
                let mut keys: Vec<u64> = Vec::with_capacity(capacity);
                for (members, &(start, end)) in shard.iter().zip(&anchor_ranges) {
                    for i in start..end {
                        let anchor = u64::from(members[i].0) << 32;
                        for &other in &members[i + 1..] {
                            keys.push(anchor | u64::from(other.0));
                        }
                    }
                }
                debug_assert_eq!(keys.len(), capacity);
                radix_sort_packed(&mut keys);
                keys.dedup();
                if !keys.is_empty() {
                    runs.push(keys);
                }
            }
            merge_count_packed_runs(&runs, &probe)
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
    fn sharded_enumeration_matches_single_run() {
        // More blocks than one shard (PAIR_SHARD_BLOCKS) with heavy overlap:
        // the sharded, merged enumeration must equal a single sort-dedup pass.
        let blocks: Vec<Block> = (0..(PAIR_SHARD_BLOCKS * 2 + 7))
            .map(|i| {
                let base = (i % 13) as u32;
                Block::new(format!("b{i}"), vec![rid(base), rid(base + 1), rid(base + 2)])
            })
            .collect();
        let collection = BlockCollection::from_blocks(blocks);
        let reference: Vec<RecordPair> = packed_pair_run(collection.blocks())
            .into_iter()
            .map(RecordPair::from_packed)
            .collect();
        assert_eq!(collection.distinct_pairs(), reference);
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        // Mixed magnitudes (small ids, huge ids, shared high halves) across
        // the fallback threshold and beyond it.
        let mut keys: Vec<u64> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..(RADIX_SORT_MIN * 3) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = (state >> 40) as u32 % 50_000;
            let b = a + 1 + (state as u32 % 1_000);
            keys.push(RecordPair::pack_ascending(rid(a), rid(b)));
        }
        keys.push(pk(0, u32::MAX));
        keys.push(pk(u32::MAX - 1, u32::MAX));
        let mut expected = keys.clone();
        expected.sort_unstable();
        radix_sort_packed(&mut keys);
        assert_eq!(keys, expected);

        // Short input takes the comparison fallback; result is identical.
        let mut short = vec![pk(5, 9), pk(0, 1), pk(5, 6)];
        radix_sort_packed(&mut short);
        assert_eq!(short, vec![pk(0, 1), pk(5, 6), pk(5, 9)]);
        let mut empty: Vec<u64> = Vec::new();
        radix_sort_packed(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn streaming_counts_match_materialised_enumeration() {
        // Overlap-heavy collection spanning several enumeration shards.
        let blocks: Vec<Block> = (0..(PAIR_SHARD_BLOCKS * 2 + 7))
            .map(|i| {
                let base = (i % 13) as u32;
                Block::new(format!("b{i}"), vec![rid(base), rid(base + 1), rid(base + 2)])
            })
            .collect();
        let collection = BlockCollection::from_blocks(blocks);
        let pairs = collection.distinct_pairs();
        let expected_matching = pairs.iter().filter(|p| p.first().0 % 2 == 0).count() as u64;
        // Every slice count and every thread count yields identical counts.
        for slices in [1, 2, 3, 7, 64] {
            for threads in [1, 4] {
                let counts = with_threads(threads, || {
                    collection.stream_packed_counts_sliced(slices, |p: &RecordPair| p.first().0 % 2 == 0)
                });
                assert_eq!(counts.distinct, pairs.len() as u64, "slices={slices} threads={threads}");
                assert_eq!(counts.matching, expected_matching, "slices={slices} threads={threads}");
            }
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
        let counts = with_threads(4, || singletons.stream_packed_counts_sliced(8, |_: &RecordPair| true));
        assert_eq!(counts, PairCounts::default());
        // A collection whose ids all collapse onto one value of pair space
        // still splits safely (the slice count is capped by the id span).
        let narrow = BlockCollection::from_blocks(vec![Block::new("n", vec![rid(5), rid(6)])]);
        let counts = with_threads(4, || narrow.stream_packed_counts_sliced(64, |_: &RecordPair| true));
        assert_eq!(counts, PairCounts { distinct: 1, matching: 1 });
    }

    #[test]
    fn streaming_counts_survive_skewed_id_layouts() {
        // Dense ids plus one outlier near u32::MAX: mass-based boundaries
        // must still spread the work and count exactly.
        let mut blocks: Vec<Block> = (0..40)
            .map(|i| Block::new(format!("d{i}"), vec![rid(i), rid(i + 1), rid(i + 2)]))
            .collect();
        blocks.push(Block::new("outlier", vec![rid(7), rid(u32::MAX - 1)]));
        let collection = BlockCollection::from_blocks(blocks);
        let expected = collection.distinct_pairs().len() as u64;
        for slices in [2usize, 8, 64] {
            let counts = with_threads(4, || collection.stream_packed_counts_sliced(slices, |_: &RecordPair| false));
            assert_eq!(counts.distinct, expected, "slices={slices}");
        }
    }

    #[test]
    fn slice_bounds_balance_anchor_mass() {
        // 64 two-member blocks with distinct anchors: 64 units of anchor
        // mass. Four slices must cover everything, stay non-decreasing and
        // put a fair share (here: exactly a quarter) in each slice.
        let members: Vec<Vec<RecordId>> = (0..64u32).map(|i| vec![rid(10 * i), rid(10 * i + 1)]).collect();
        let bounds = slice_bounds(&members, 4);
        assert_eq!(bounds.len(), 5);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), u64::from(10u32 * 63 + 1) + 1);
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        for slice in 0..4 {
            let anchored = members
                .iter()
                .flat_map(|m| m.first())
                .filter(|id| (bounds[slice]..bounds[slice + 1]).contains(&u64::from(id.0)))
                .count();
            assert_eq!(anchored, 16, "slice {slice} holds a quarter of the anchor mass");
        }
    }

    #[test]
    fn loser_tree_merge_deduplicates_across_runs() {
        let runs = vec![
            vec![pk(0, 1), pk(1, 2), pk(5, 6)],
            vec![pk(0, 2), pk(1, 2), pk(7, 8)],
            vec![pk(0, 1), pk(7, 8)],
        ];
        let counts = merge_count_packed_runs(&runs, &|p: &RecordPair| p.second().0 >= 6);
        assert_eq!(counts.distinct, 5);
        assert_eq!(counts.matching, 2);
        assert_eq!(merge_count_packed_runs(&[], &|_: &RecordPair| true), PairCounts::default());
        // Empty runs in the middle are skipped, not merged.
        let with_empties = vec![vec![], vec![pk(0, 1)], vec![], vec![pk(0, 1), pk(2, 3)]];
        let counts = merge_count_packed_runs(&with_empties, &|_: &RecordPair| false);
        assert_eq!(counts.distinct, 2);
    }

    #[test]
    fn loser_tree_merge_gallops_across_disjoint_runs() {
        // Runs whose key ranges never interleave: the gallop path must emit
        // each run wholesale and still produce the exact union.
        let runs: Vec<Vec<u64>> = (0..5u32)
            .map(|r| (0..200u32).map(|i| pk(1000 * r + i, 1000 * r + i + 1)).collect())
            .collect();
        let counts = merge_count_packed_runs(&runs, &|_: &RecordPair| true);
        assert_eq!(counts.distinct, 1000);
        assert_eq!(counts.matching, 1000);
        // And interleaved single-element ties across many runs.
        let tied: Vec<Vec<u64>> = (0..9).map(|_| vec![pk(3, 4)]).collect();
        let counts = merge_count_packed_runs(&tied, &|_: &RecordPair| false);
        assert_eq!(counts.distinct, 1);
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
        // An id just over the boundary: u32::MAX packs into keys that collide
        // with the merge sentinel, so checked construction must reject it.
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
