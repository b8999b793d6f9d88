//! One band's bucket index, split into copy-on-write sub-maps.
//!
//! A band's buckets are spread over [`SUB_MAPS`] hash maps, each behind its
//! own [`Arc`], picked by the top bits of the *textual* bucket key. Band
//! keys leave the hasher through `mix64`, so their top bits spread buckets
//! evenly over the sub-maps, and keying on the textual part keeps all of a
//! record's semantic sub-keys in one sub-map. A published
//! [`IndexView`](super::IndexView) shares every sub-map; the writer then
//! copies only the sub-maps it writes ([`BandIndex::writable`]), so a
//! one-row insert or removal copies at most one sub-map per band instead of
//! the whole band.

use std::sync::Arc;

use sablock_datasets::RecordId;
use sablock_textual::hashing::StableHashMap;

use crate::lsh::buckets::BucketKey;

/// log2 of the number of sub-maps per band. At 256 sub-maps the benchmark
/// profiles (about 2.4k buckets per band) hold about 10 buckets per sub-map.
const SUB_MAP_BITS: u32 = 8;

/// Number of copy-on-write sub-maps per band.
const SUB_MAPS: usize = 1 << SUB_MAP_BITS;

/// One bucket of a band: members in ascending id order (tombstoned members
/// linger until compaction) plus the count of members currently tombstoned.
#[derive(Debug, Clone, Default)]
pub(super) struct Bucket {
    pub(super) members: Vec<RecordId>,
    pub(super) dead: u32,
}

impl Bucket {
    /// Whether the bucket's dead fraction has reached the compaction
    /// threshold. A threshold of 0.0 compacts on the first tombstone; a
    /// threshold above 1.0 never compacts.
    pub(super) fn compaction_due(&self, threshold: f64) -> bool {
        self.dead > 0 && f64::from(self.dead) >= threshold * self.members.len() as f64
    }

    /// Rebuilds the bucket in place, dropping tombstoned members. Keeps the
    /// ascending-id member order, so snapshots are byte-identical before and
    /// after.
    pub(super) fn compact(&mut self, removed: &[bool]) {
        self.members.retain(|member| !removed[member.index()]);
        self.dead = 0;
    }
}

/// One sub-map of a band: a deterministic (seeded FxHash) map, so lookups
/// are O(1) on the insert hot path.
pub(super) type SubMap = StableHashMap<BucketKey, Bucket>;

/// One band's buckets (see the module docs). Every order-sensitive consumer
/// (snapshots, dumps) sorts the keys, which reproduces the ordered-map
/// iteration of the one-shot bucket phase byte for byte.
#[derive(Debug, Clone)]
pub(super) struct BandIndex {
    subs: Vec<Arc<SubMap>>,
}

impl Default for BandIndex {
    fn default() -> Self {
        // One Arc per sub-map: `vec![Arc::new(..); n]` would alias a single
        // allocation and make every first write copy it.
        Self { subs: (0..SUB_MAPS).map(|_| Arc::default()).collect() }
    }
}

impl BandIndex {
    /// The sub-map a bucket key lives in: the top bits of its textual part.
    pub(super) fn sub_map_of(key: BucketKey) -> usize {
        // The shift leaves `SUB_MAP_BITS` significant bits: the cast is lossless.
        (key.0 >> (u64::BITS - SUB_MAP_BITS)) as usize
    }

    /// The bucket under `key`, if any. Never copies anything.
    pub(super) fn get(&self, key: &BucketKey) -> Option<&Bucket> {
        self.subs[Self::sub_map_of(*key)].get(key)
    }

    /// The sub-map that holds (or would hold) `key`, ready for writing. See
    /// [`BandIndex::writable`].
    pub(super) fn sub_map_mut(&mut self, key: &BucketKey, copies: &mut u64) -> &mut SubMap {
        self.writable(Self::sub_map_of(*key), copies)
    }

    /// The sub-map at `index`, ready for writing. A sub-map still shared
    /// with a published view (or a clone of the index) is deep-copied first
    /// and the copy is counted in `copies`; an unshared one is written in
    /// place.
    fn writable(&mut self, index: usize, copies: &mut u64) -> &mut SubMap {
        let shared = &mut self.subs[index];
        // Copied by hand rather than inside `Arc::make_mut`, so the count
        // stays exact while readers drop their views concurrently.
        if Arc::get_mut(shared).is_none() {
            *shared = Arc::new(SubMap::clone(shared));
            *copies += 1;
        }
        Arc::make_mut(shared)
    }

    /// Every bucket, sorted ascending by key.
    pub(super) fn sorted(&self) -> Vec<(&BucketKey, &Bucket)> {
        let mut entries: Vec<(&BucketKey, &Bucket)> = self.subs.iter().flat_map(|sub| sub.iter()).collect();
        entries.sort_unstable_by_key(|(key, _)| **key);
        entries
    }

    /// Builds a band from its buckets, sizing every sub-map once up front so
    /// that loading a large index never rehashes.
    pub(super) fn from_buckets(buckets: Vec<(BucketKey, Bucket)>) -> Self {
        let mut sizes = vec![0usize; SUB_MAPS];
        for (key, _) in &buckets {
            sizes[Self::sub_map_of(*key)] += 1;
        }
        let mut maps: Vec<SubMap> =
            sizes.into_iter().map(|size| SubMap::with_capacity_and_hasher(size, Default::default())).collect();
        for (key, bucket) in buckets {
            maps[Self::sub_map_of(key)].insert(key, bucket);
        }
        Self { subs: maps.into_iter().map(Arc::new).collect() }
    }

    /// Whether any bucket holds a tombstoned member.
    pub(super) fn has_dead(&self) -> bool {
        self.subs.iter().any(|sub| sub_has_dead(sub))
    }

    /// Compacts every bucket holding tombstoned members and drops buckets
    /// left empty. Only sub-maps holding a tombstone are written (and
    /// copied when shared, counted in `copies`). Returns the number of
    /// buckets compacted.
    pub(super) fn compact(&mut self, removed: &[bool], copies: &mut u64) -> u64 {
        let mut compacted = 0u64;
        for index in 0..SUB_MAPS {
            if !sub_has_dead(&self.subs[index]) {
                continue;
            }
            // Visit order over the sub-map is irrelevant: each bucket is
            // compacted independently and the count is order-free.
            self.writable(index, copies).retain(|_, bucket| {
                if bucket.dead == 0 {
                    return true;
                }
                bucket.compact(removed);
                crate::invariants::check_bucket_tombstones(&bucket.members, bucket.dead, removed, "forced compaction");
                compacted += 1;
                !bucket.members.is_empty()
            });
        }
        compacted
    }

    /// The shared sub-map allocations, for tests that pin which sub-maps a
    /// write copied.
    #[cfg(test)]
    pub(super) fn sub_maps(&self) -> &[Arc<SubMap>] {
        &self.subs
    }
}

fn sub_has_dead(sub: &SubMap) -> bool {
    sub.values().any(|bucket| bucket.dead > 0)
}
