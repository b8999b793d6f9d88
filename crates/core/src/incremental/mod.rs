//! Incremental (online) blocking for streaming ingest.
//!
//! The paper evaluates SA-LSH on static snapshots; a production deployment
//! serves a *live* record stream, and re-blocking hundreds of thousands of
//! records from scratch on every arrival is a non-starter. This module keeps
//! the banding index of [`SaLshBlocker`](crate::lsh::salsh::SaLshBlocker)
//! *mutable*: new records compute their signatures through the same
//! [`parallel_map`] path as one-shot blocking and are **appended** to the
//! per-band bucket shards — no signature of an existing record is ever
//! recomputed, and buckets the batch does not touch are left alone. Each
//! band keeps its buckets in stable-hash maps, so an insert pays O(1) per
//! bucket it lands in, and each band is updated by its own
//! [`parallel_map_mut`] worker with the results stitched back in
//! deterministic band order. A band's buckets are split over a fixed number
//! of `Arc`-shared sub-maps, so a write after
//! [`IncrementalSaLshBlocker::publish_view`] copies only the sub-maps it
//! writes, never the whole band.
//!
//! # Delta pairs
//!
//! Each [`IncrementalBlocker::insert_batch`] emits the batch's **delta
//! candidate pairs**: every pair that is in Γ after the batch but was not
//! before. Because a pair between two *old* records cannot appear by adding
//! new records, the delta is exactly the set of bucket-sharing pairs that
//! involve at least one new record — and new ids are above every old id, so
//! the larger id of each such pair is a batch record. Ingest anchors the
//! delta there: each batch record walks the buckets it just joined — per
//! bucket one lookup, one binary search for its own position and a plain
//! loop over the members below it, testing tombstones only in a bucket that
//! holds some — and the partner-dedup kernel of [`crate::blocking`] keeps
//! every live member once, so each new pair comes out exactly once with no
//! sort and no merge. The batch's anchors are split over the workers, each
//! with a seen-set and key buffer the blocker keeps from batch to batch, so
//! a run of parallel batches allocates nothing once they have grown; a
//! batch drops or shrinks what it no longer needs, so a one-row write after
//! a bulk load keeps no bulk memory. The delta is carried as its distinct
//! packed-`u64` keys ([`RecordPair::pack`]), folded into the running
//! counters as they are produced, so [`DeltaPairs::counts`] and
//! [`DeltaPairs::num_pairs`] never see a repeated pair. Absent removals,
//! deltas of successive batches are **disjoint**: summing per-batch
//! [`PairCounts`] equals a from-scratch count of the merged whole, byte for
//! byte.
//!
//! # Running counters
//!
//! The blocker folds every delta into a [`RunningCounts`] accumulator as it
//! is produced: `pairs` is the live `|Γ|`, and — when batches carry entity
//! annotations ([`IncrementalSaLshBlocker::insert_batch_with_entities`]) —
//! `true_positives` is the live `|Γ_tp|`, probed through the same
//! [`EntityTableProbe`] fast path as the streaming Γ counter. Reading
//! snapshot metrics is therefore O(1) after O(delta) per-batch maintenance,
//! instead of the O(corpus) re-count a snapshot stream costs.
//!
//! # Removals and compaction
//!
//! [`IncrementalBlocker::remove`] tombstones a record and *subtracts its
//! live contribution* from the running counters by walking only the buckets
//! the record occupies (per-record bucket back-references kept at insert
//! time), with the record as the partner-dedup kernel's anchor, so each
//! retired pair is subtracted exactly once. Tombstoned members linger in
//! their buckets until the bucket's dead fraction crosses the compaction
//! threshold ([`IncrementalSaLshBlocker::set_compaction_threshold`]), at which point
//! the `(band, bucket)` shard is rebuilt in place — an observation-
//! equivalent operation: snapshots, running counts and all future deltas are
//! byte-identical with or without compaction (property-tested in
//! `tests/incremental_differential.rs`). [`IncrementalBlocker::snapshot`]
//! is always exact, and with the running counters so are cumulative metrics
//! under arbitrary insert/remove interleavings.
//!
//! # Equivalence with one-shot blocking
//!
//! Ingesting any partition of a dataset batch by batch and taking a
//! [`IncrementalBlocker::snapshot`] produces a [`BlockCollection`] that is
//! **byte-identical** (same keys, same members, same order) to one-shot
//! [`SaLshBlocker::block`](crate::blocking::Blocker::block) over the whole
//! dataset — property-tested in `tests/incremental.rs`. For SA-LSH one
//! caveat applies: the one-shot blocker derives its semhash family from the
//! dataset's interpretations, which an incremental index cannot do (the
//! family must not drift as batches arrive). The incremental blocker
//! therefore pins the family at construction — an explicitly pinned one
//! ([`SemanticConfig::with_pinned_family`]) or, by default, all leaves of
//! the taxonomy — and equivalence holds against a one-shot blocker pinned to
//! the same family (which, for datasets whose records reach every leaf, is
//! exactly what Algorithm 1 derives; NC Voter does at any realistic scale).

mod band;
mod state;
mod view;

pub use state::{BucketDump, IndexDump};
pub use view::IndexView;

use std::sync::Arc;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{DatasetError, Record, RecordId, Schema, MAX_RECORD_ID};

use crate::blocking::{BlockCollection, EntityTableProbe, PackedProbe, PairCounts, SeenSet};
use crate::error::{CoreError, Result};
use crate::lsh::buckets::{key_runs, BucketKey, BucketScheme};
use crate::lsh::{BandingScheme, SemanticConfig};
use crate::minhash::shingle::RecordShingler;
use crate::minhash::{MinHasher, MinhashConfig};
use crate::parallel::{parallel_map, parallel_map_mut, resolve_threads};
use crate::semantic::semhash::SemhashFamily;

use band::{BandIndex, Bucket};

/// The candidate pairs one ingest batch added to Γ, as distinct packed
/// keys. They are grouped by anchor — the pair's larger id — ascending, and
/// within an anchor come in first-seen walk order: the anchor's buckets in
/// band order, members ascending in each. The order does not depend on the
/// worker count or the compaction threshold.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaPairs {
    distinct: Vec<u64>,
}

impl DeltaPairs {
    /// A delta with no pairs.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the delta holds no pairs at all.
    pub fn is_empty(&self) -> bool {
        self.distinct.is_empty()
    }

    /// The delta's distinct packed pair keys, in delta order (see
    /// [`DeltaPairs`]).
    pub fn distinct_packed(&self) -> &[u64] {
        &self.distinct
    }

    /// Counts the delta's distinct pairs, probing each **exactly once**.
    pub fn counts<P: PackedProbe>(&self, probe: &P) -> PairCounts {
        let mut counts = PairCounts::default();
        for &key in &self.distinct {
            counts.tally(key, probe);
        }
        counts
    }

    /// Number of distinct pairs in the delta — O(1).
    pub fn num_pairs(&self) -> u64 {
        self.distinct.len() as u64
    }

    /// Materialises the delta's distinct pairs in delta order (tests,
    /// goldens, small deltas — bulk consumers should stay on the packed
    /// keys).
    pub fn pairs(&self) -> Vec<RecordPair> {
        self.distinct.iter().copied().map(RecordPair::from_packed).collect()
    }
}

/// Running `|Γ|` / `|Γ_tp|` accumulators maintained by the incremental
/// blocker in O(delta) per batch and O(buckets-of-record) per removal, so
/// snapshot-level metrics are an O(1) read instead of an O(corpus) re-count.
///
/// `true_positives` is exact when every batch carried entity annotations
/// ([`IncrementalSaLshBlocker::insert_batch_with_entities`]); pairs touching
/// unannotated records are counted as non-matching, exactly like records
/// beyond the table in [`EntityTableProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunningCounts {
    /// Distinct candidate pairs currently in Γ over the live (non-removed)
    /// corpus.
    pub pairs: u64,
    /// Of those, the pairs whose two records share an annotated entity.
    pub true_positives: u64,
}

impl RunningCounts {
    /// The counters as a [`PairCounts`] — the shape the evaluation APIs
    /// consume.
    pub fn as_pair_counts(self) -> PairCounts {
        PairCounts { distinct: self.pairs, matching: self.true_positives }
    }
}

/// An online blocker: records arrive in batches, candidate pairs leave as
/// per-batch deltas, and the current blocking is available as a snapshot at
/// any time.
///
/// Implementations must keep snapshots byte-identical to one-shot blocking
/// of everything ingested so far (minus removed records) — batching is an
/// operational choice, never a semantic one.
pub trait IncrementalBlocker {
    /// A short human-readable name used in reports.
    fn name(&self) -> String;

    /// Number of records ingested so far (including tombstoned ones — ids
    /// are never reused).
    fn num_records(&self) -> usize;

    /// Ingests a batch of new records and returns the delta candidate pairs
    /// the batch added to Γ. Record ids must continue the dense id space
    /// (`num_records()`, `num_records() + 1`, …); ids beyond
    /// [`MAX_RECORD_ID`] are rejected with
    /// [`CoreError::RecordIdOverflow`].
    fn insert_batch(&mut self, records: &[Record]) -> Result<&DeltaPairs>;

    /// Tombstones a record: it stops appearing in snapshots and in future
    /// deltas, and its live pairs are subtracted from the running counters.
    /// Returns `false` when the record was already removed; errors when the
    /// id was never ingested.
    fn remove(&mut self, id: RecordId) -> Result<bool>;

    /// The delta emitted by the most recent [`insert_batch`] call (empty
    /// before the first batch).
    ///
    /// [`insert_batch`]: IncrementalBlocker::insert_batch
    fn delta_pairs(&self) -> &DeltaPairs;

    /// The current blocking as a [`BlockCollection`] — byte-identical to
    /// one-shot blocking of all live (non-removed) records.
    fn snapshot(&self) -> BlockCollection;
}

/// A back-reference from a record to one bucket it occupies — the removal
/// path enumerates exactly these instead of scanning the index.
#[derive(Debug, Clone, Copy)]
struct BucketRef {
    band: usize,
    key: BucketKey,
}

/// What one band's ingest worker hands back: the `(bucket key, record)`
/// placements it applied to its own band (sorted by key, ids ascending
/// within a key — the source of the back-references) and how many shared
/// sub-maps it had to copy.
struct BandOutcome {
    touched: Vec<(BucketKey, RecordId)>,
    cow_copies: u64,
}

/// Default dead fraction at which a bucket is compacted in place after a
/// removal touches it.
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.5;

/// Incremental LSH / SA-LSH blocking (see the module docs).
///
/// Built from a configured blocker via
/// [`SaLshBlocker::into_incremental`](crate::lsh::salsh::SaLshBlocker::into_incremental)
/// or directly from the builder via
/// [`SaLshBlockerBuilder::into_incremental`](crate::lsh::salsh::SaLshBlockerBuilder::into_incremental).
///
/// The index is one bucket index per band, keyed by
/// `(textual bucket key, semantic sub-key)` — plain LSH uses a constant
/// sub-key of 0 — with members kept in ascending id order (batches arrive in
/// id order and append). Records land through the same bucket scheme as
/// one-shot blocking, so sorting each band's keys and walking the bands in
/// band order reproduces exactly the one-shot blocks, in the same order.
#[derive(Debug, Clone)]
pub struct IncrementalSaLshBlocker {
    shingler: RecordShingler,
    minhash: MinhashConfig,
    hasher: MinHasher,
    /// Where records land. For SA-LSH its family is fixed at construction,
    /// so a record's bucket keys never change after ingestion.
    scheme: BucketScheme,
    bands: Vec<Arc<BandIndex>>,
    /// Per-record bucket back-references; emptied when the record is
    /// tombstoned (a dead record's buckets are never walked again).
    bucket_refs: Vec<Vec<BucketRef>>,
    /// Dense record → entity annotations accumulated from
    /// `insert_batch_with_entities`; may be shorter than the id space when
    /// batches were ingested unannotated.
    entity_of: Vec<EntityId>,
    running: RunningCounts,
    compaction_threshold: f64,
    compactions: u64,
    /// Sub-maps copied because a published view (or a clone) still shared
    /// them. Runtime-only: not part of [`IndexDump`].
    cow_copies: u64,
    next_id: u32,
    removed: Vec<bool>,
    removed_count: usize,
    /// The first ingest worker's partner-dedup seen-set, which removals use
    /// too: grown with the id space and all clear between calls, so a
    /// one-thread insert or removal allocates and clears nothing
    /// proportional to the corpus. The first worker writes its keys straight
    /// into the delta's buffer, recycled from the previous delta.
    /// Runtime-only, like `extra_workers`: not part of [`IndexDump`] or
    /// [`IndexView`].
    seen: SeenSet,
    /// The seen-set and key buffer of each further worker of the last
    /// ingest batch, kept so that a run of parallel batches allocates
    /// nothing once they have grown. A batch grows the ones it uses with the
    /// id space, drops the ones it does not use, and shrinks a key buffer
    /// its last use filled to under a quarter, so a one-row write after a
    /// bulk load hands their memory back.
    extra_workers: Vec<(SeenSet, Vec<u64>)>,
    last_delta: DeltaPairs,
    batches_ingested: usize,
    /// Every packed pair key any batch's delta has ever reported — the
    /// cross-batch disjointness sanitizer (`check-invariants` builds only).
    #[cfg(feature = "check-invariants")]
    emitted_delta_keys: std::collections::BTreeSet<u64>,
}

impl IncrementalSaLshBlocker {
    /// Assembles an incremental index from the (validated) parts of a
    /// [`SaLshBlocker`](crate::lsh::salsh::SaLshBlocker).
    pub(crate) fn from_parts(
        shingler: RecordShingler,
        minhash: MinhashConfig,
        banding: BandingScheme,
        semantic: Option<SemanticConfig>,
    ) -> Result<Self> {
        let semantic = match semantic {
            Some(config) => {
                config.validate()?;
                // The family must be fixed for the index's whole lifetime
                // (module docs): pinned wins, all taxonomy leaves otherwise.
                let family = match &config.pinned_family {
                    Some(family) => family.clone(),
                    None => SemhashFamily::from_all_leaves(&config.taxonomy)?,
                };
                Some((config, family))
            }
            None => None,
        };
        let scheme = BucketScheme::new(banding, semantic)?;
        let hasher = MinHasher::from_config(&minhash);
        // One Arc per band — `vec![Arc::new(..); n]` would alias a single
        // allocation across all bands.
        let bands = (0..scheme.bands()).map(|_| Arc::new(BandIndex::default())).collect();
        Ok(Self {
            shingler,
            minhash,
            hasher,
            scheme,
            bands,
            bucket_refs: Vec::new(),
            entity_of: Vec::new(),
            running: RunningCounts::default(),
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            compactions: 0,
            cow_copies: 0,
            next_id: 0,
            removed: Vec::new(),
            removed_count: 0,
            seen: SeenSet::default(),
            extra_workers: Vec::new(),
            last_delta: DeltaPairs::empty(),
            batches_ingested: 0,
            #[cfg(feature = "check-invariants")]
            emitted_delta_keys: std::collections::BTreeSet::new(),
        })
    }

    /// The id the next ingested record must carry.
    pub fn next_record_id(&self) -> RecordId {
        RecordId(self.next_id)
    }

    /// Number of records removed (tombstoned) so far.
    pub fn num_removed(&self) -> usize {
        self.removed_count
    }

    /// Number of live (ingested and not removed) records.
    pub fn num_live_records(&self) -> usize {
        self.next_id as usize - self.removed_count
    }

    /// Number of batches ingested so far.
    pub fn num_batches(&self) -> usize {
        self.batches_ingested
    }

    /// The running `|Γ|` / `|Γ_tp|` over the live corpus — an O(1) read,
    /// maintained from the delta folds and removal subtractions.
    pub fn running_counts(&self) -> RunningCounts {
        self.running
    }

    /// The entity annotations ingested so far (dense by record id; may be
    /// shorter than [`IncrementalBlocker::num_records`] when batches were
    /// ingested without annotations).
    pub fn entity_table(&self) -> &[EntityId] {
        &self.entity_of
    }

    /// The dead fraction at which a removal-touched bucket is rebuilt in
    /// place. Defaults to [`DEFAULT_COMPACTION_THRESHOLD`].
    pub fn compaction_threshold(&self) -> f64 {
        self.compaction_threshold
    }

    /// Sets the compaction threshold: a bucket whose
    /// `dead members / total members` fraction reaches the threshold after
    /// a removal is compacted in place. `0.0` compacts a bucket on its first
    /// tombstone; anything above `1.0` disables threshold compaction
    /// (forced [`IncrementalSaLshBlocker::compact`] still works). Compaction
    /// is observation-equivalent — snapshots, running counts and future
    /// deltas do not depend on the threshold.
    pub fn set_compaction_threshold(&mut self, fraction: f64) {
        self.compaction_threshold = fraction;
    }

    /// Builder-style [`IncrementalSaLshBlocker::set_compaction_threshold`].
    pub fn with_compaction_threshold(mut self, fraction: f64) -> Self {
        self.set_compaction_threshold(fraction);
        self
    }

    /// Number of bucket-local compactions performed so far (threshold-driven
    /// and forced).
    pub fn num_compactions(&self) -> u64 {
        self.compactions
    }

    /// Compacts every bucket containing tombstoned members, regardless of
    /// the threshold, and drops buckets left empty. Returns the number of
    /// buckets compacted. Observation-equivalent: snapshots, running counts
    /// and future deltas are unchanged.
    pub fn compact(&mut self) -> u64 {
        let mut compacted = 0u64;
        for band in &mut self.bands {
            // Skip clean bands before `Arc::make_mut`: a forced compaction
            // must not copy anything shared with published views unless it
            // actually rewrites it.
            if band.has_dead() {
                compacted += Arc::make_mut(band).compact(&self.removed, &mut self.cow_copies);
            }
        }
        self.compactions += compacted;
        compacted
    }

    /// The semhash family the semantic component is pinned to, if any —
    /// pin the same family on a one-shot blocker to compare byte-for-byte.
    pub fn pinned_family(&self) -> Option<&SemhashFamily> {
        self.scheme.family()
    }

    /// Publishes an immutable [`IndexView`] of the current index state.
    ///
    /// The bands are shared by [`Arc`], not copied: O(bands). The view
    /// does copy the per-record bookkeeping — the tombstone flags (a
    /// `Vec<bool>`, one byte per record) and the entity annotations (four
    /// bytes per annotated record). After publication the blocker's next
    /// write copies only the sub-maps it touches, with their buckets — at
    /// most one sub-map per band for a one-row insert or removal — so the
    /// view stays frozen at the publication point forever. This is the
    /// engine under snapshot/epoch service layers: one writer keeps
    /// mutating, any number of readers query their view without locks.
    pub fn publish_view(&self) -> IndexView {
        IndexView::capture(self)
    }

    /// The candidate partners a probe record would collide with, against the
    /// current index state — sorted by id, deduplicated across bands, the
    /// probe itself excluded. See [`IndexView::candidates`] for the
    /// equivalence contract; this is the same lookup run directly on the
    /// mutable head.
    pub fn query_candidates(&self, record: &Record) -> Result<Vec<RecordId>> {
        view::probe_candidates(&self.shingler, &self.hasher, &self.scheme, &self.bands, &self.removed, record)
    }

    /// Convenience ingest from raw rows: wraps each row in a [`Record`] with
    /// the next dense id and the given schema, then calls
    /// [`IncrementalBlocker::insert_batch`].
    pub fn insert_values(&mut self, schema: &Arc<Schema>, rows: Vec<Vec<Option<String>>>) -> Result<&DeltaPairs> {
        let records = self.wrap_rows(schema, rows)?;
        self.ingest(&records, None)
    }

    /// [`IncrementalSaLshBlocker::insert_values`] with entity annotations,
    /// so the running [`RunningCounts::true_positives`] stays exact.
    pub fn insert_values_with_entities(
        &mut self,
        schema: &Arc<Schema>,
        rows: Vec<Vec<Option<String>>>,
        entities: &[EntityId],
    ) -> Result<&DeltaPairs> {
        let records = self.wrap_rows(schema, rows)?;
        self.ingest(&records, Some(entities))
    }

    /// [`IncrementalBlocker::insert_batch`] with entity annotations (one
    /// [`EntityId`] per batch record, in batch order). Annotated ingest must
    /// start with the first batch and never lapse: once a batch arrives
    /// unannotated, later annotated batches are rejected (the dense entity
    /// table would misalign with the id space).
    pub fn insert_batch_with_entities(&mut self, records: &[Record], entities: &[EntityId]) -> Result<&DeltaPairs> {
        self.ingest(records, Some(entities))
    }

    fn wrap_rows(&self, schema: &Arc<Schema>, rows: Vec<Vec<Option<String>>>) -> Result<Vec<Record>> {
        let base = self.next_id;
        rows.into_iter()
            .enumerate()
            .map(|(offset, values)| {
                // usize → u64 is lossless; the id bound check stays in u64.
                let index = u64::from(base) + offset as u64;
                let id = u32::try_from(index)
                    .ok()
                    .filter(|&raw| raw <= MAX_RECORD_ID)
                    .map(RecordId)
                    .ok_or(CoreError::RecordIdOverflow(index))?;
                Record::new(id, Arc::clone(schema), values).map_err(CoreError::from)
            })
            .collect()
    }

    /// Validates a batch: dense id continuation, id width, and that every
    /// record's schema carries the shingled attributes. Batches almost
    /// always share one `Arc<Schema>`, so the per-record check is a pointer
    /// compare against the first validated schema; only records with a
    /// genuinely different schema pay the by-name lookup.
    fn validate_batch(&self, records: &[Record]) -> Result<()> {
        let mut validated: Option<&Arc<Schema>> = None;
        for (offset, record) in records.iter().enumerate() {
            // usize → u64 offset widening is lossless; the id arithmetic
            // below stays entirely in u64.
            let offset_wide = offset as u64;
            let expected = u64::from(self.next_id) + offset_wide;
            if expected > u64::from(MAX_RECORD_ID) {
                return Err(CoreError::RecordIdOverflow(expected));
            }
            if u64::from(record.id().0) != expected {
                return Err(CoreError::Config(format!(
                    "batch record at offset {offset} has id {}, expected the dense continuation r{expected}",
                    record.id()
                )));
            }
            if validated.is_some_and(|schema| Arc::ptr_eq(schema, record.schema())) {
                continue;
            }
            for attribute in self.shingler.attributes() {
                if record.schema().index_of(attribute).is_none() {
                    return Err(CoreError::Config(format!(
                        "attribute '{attribute}' selected for blocking does not exist in the schema of the \
                         ingested record at offset {offset}"
                    )));
                }
            }
            validated = Some(record.schema());
        }
        Ok(())
    }

    fn ingest(&mut self, records: &[Record], entities: Option<&[EntityId]>) -> Result<&DeltaPairs> {
        self.validate_batch(records)?;
        if let Some(entities) = entities {
            if entities.len() != records.len() {
                return Err(CoreError::Config(format!(
                    "entity annotations cover {} records but the batch has {}",
                    entities.len(),
                    records.len()
                )));
            }
            if self.entity_of.len() != self.next_id as usize {
                return Err(CoreError::Config(
                    "entity-annotated ingest must start with the first batch and never lapse: an earlier \
                     batch was ingested without annotations, so the dense entity table no longer aligns \
                     with the record id space"
                        .to_string(),
                ));
            }
        }
        if records.is_empty() {
            self.last_delta = DeltaPairs::empty();
            self.batches_ingested += 1;
            return Ok(&self.last_delta);
        }
        let threads = resolve_threads(records.len());

        // Signatures of the new records only (`None`: no text) — the
        // existing index is never recomputed. Same parallel shape as the
        // one-shot pipeline.
        let minhashes = parallel_map(records, threads, |record| self.shingler.signature(&self.hasher, record));
        let semhashes = self.scheme.semhashes(records, threads);

        // The entity table must cover the new ids before the counting fold
        // below probes the delta pairs.
        if let Some(entities) = entities {
            self.entity_of.extend_from_slice(entities);
        }

        // Each band is independent, so placements and the band update run
        // per band in parallel (`parallel_map_mut` — each worker owns its
        // band), with outcomes stitched back in ascending band order so every
        // derived structure is deterministic for any worker count.
        let scheme = &self.scheme;
        let mut shards: Vec<(usize, &mut Arc<BandIndex>)> = self.bands.iter_mut().enumerate().collect();
        let outcomes: Vec<BandOutcome> = parallel_map_mut(&mut shards, threads, |(band, index)| {
            // Placements grouped by bucket key, ids ascending within a key
            // (the batch arrives in id order and the sort key ends on the
            // id), appended with one O(1) bucket lookup per touched bucket,
            // in a sub-map copied first only if a published view still
            // shares it; untouched sub-maps are never rewritten.
            let slots = scheme.placements(*band, records, &minhashes, semhashes.as_deref());
            let index = Arc::make_mut(index);
            let mut cow_copies = 0u64;
            for new_members in key_runs(&slots) {
                let key = new_members[0].0;
                let bucket = index.sub_map_mut(&key, &mut cow_copies).entry(key).or_default();
                bucket.members.extend(new_members.iter().map(|&(_, id)| id));
            }
            BandOutcome { touched: slots, cow_copies }
        });
        drop(shards);

        if let Some(last) = records.last() {
            // `validate_batch` proved the batch is the dense continuation of
            // `next_id` with every id at most `MAX_RECORD_ID`, so the last
            // id is exactly `next_id + len − 1` and the increment cannot
            // overflow past the reserved `u32::MAX`.
            self.next_id = last.id().0 + 1;
        }
        self.removed.resize(self.next_id as usize, false);
        self.bucket_refs.resize(self.next_id as usize, Vec::new());
        self.seen.grow(self.next_id as usize);

        // Back-references accumulate in band order, then key order within a
        // band (`touched` is sorted) — deterministic for any worker count.
        for (band, outcome) in outcomes.into_iter().enumerate() {
            for &(key, id) in &outcome.touched {
                self.bucket_refs[id.index()].push(BucketRef { band, key });
            }
            self.cow_copies += outcome.cow_copies;
        }

        // The delta, anchored on each batch record: its partners are the live
        // members below it in the buckets it joined (members ascend, so one
        // binary search per bucket ends each list at the anchor), and the
        // kernel keeps each one once. A bucket holding no tombstone is walked
        // as a plain slice; only one holding some tests each member. The
        // batch is split evenly over the workers, whose keys are concatenated
        // in anchor order and whose counts are summed. Every worker's
        // seen-set and key buffer are kept across batches, so once they have
        // grown a batch faults in no fresh pages for them: the first worker
        // writes into the previous delta's allocation, the others into their
        // own buffers.
        let chunk = records.len().div_ceil(threads);
        self.extra_workers.resize_with(records.len().div_ceil(chunk) - 1, Default::default);
        for (seen, _) in &mut self.extra_workers {
            seen.grow(self.next_id as usize);
        }
        let mut distinct = std::mem::take(&mut self.last_delta.distinct);
        distinct.clear();
        let workers = std::iter::once((&mut self.seen, &mut distinct))
            .chain(self.extra_workers.iter_mut().map(|(seen, keys)| (seen, keys)));
        let mut shares: Vec<_> = records.chunks(chunk).zip(workers).collect();
        let (bands, refs, removed) = (&self.bands, &self.bucket_refs, &self.removed);
        let probe = EntityTableProbe::new(&self.entity_of);
        let counts: Vec<PairCounts> = parallel_map_mut(&mut shares, threads, |(anchors, (seen, keys))| {
            let mut counts = PairCounts::default();
            // Per bucket of the anchor: its members below the anchor, and
            // whether it holds a tombstone.
            let mut lists: Vec<(&[RecordId], bool)> = Vec::new();
            for anchor in anchors.iter().map(Record::id) {
                // Every lookup and binary search runs before the walk, so
                // their cache misses overlap instead of queueing behind it.
                lists.clear();
                lists.extend(refs[anchor.index()].iter().filter_map(|reference| {
                    let bucket = bands[reference.band].get(&reference.key)?;
                    let below = bucket.members.partition_point(|&member| member < anchor);
                    Some((&bucket.members[..below], bucket.dead > 0))
                }));
                let partners = seen.distinct_partners(|marks| {
                    for &(members, dead) in &lists {
                        if dead {
                            for member in members.iter().filter(|member| !removed[member.index()]) {
                                marks.mark(member.0);
                            }
                        } else {
                            for member in members {
                                marks.mark(member.0);
                            }
                        }
                    }
                });
                keys.extend(partners.iter().map(|&partner| {
                    let key = RecordPair::pack_ascending(RecordId(partner), anchor);
                    counts.tally(key, &probe);
                    key
                }));
            }
            counts
        });
        drop(shares);
        for (_, keys) in &mut self.extra_workers {
            distinct.extend_from_slice(keys);
            shrink_to_last_use(keys);
            keys.clear();
        }
        for batch in counts {
            self.running.pairs += batch.distinct;
            self.running.true_positives += batch.matching;
        }
        shrink_to_last_use(&mut distinct);
        self.last_delta = DeltaPairs { distinct };
        self.batches_ingested += 1;
        #[cfg(feature = "check-invariants")]
        {
            crate::invariants::check_delta_disjoint(&mut self.emitted_delta_keys, &self.last_delta);
            crate::invariants::check_tombstones(&self.removed, self.removed_count, self.next_id);
            crate::invariants::check_seen_clear(self.seen_sets(), self.next_id);
        }
        Ok(&self.last_delta)
    }

    /// Every seen-set the blocker keeps, the first worker's first.
    #[cfg(feature = "check-invariants")]
    fn seen_sets(&self) -> impl Iterator<Item = &[bool]> {
        std::iter::once(self.seen.marks()).chain(self.extra_workers.iter().map(|(seen, _)| seen.marks()))
    }
}

/// Hands a buffer's memory back when its last use filled under a quarter of
/// it, so a small batch after a bulk one keeps no bulk allocation.
fn shrink_to_last_use<T>(buffer: &mut Vec<T>) {
    if buffer.len().saturating_mul(4) < buffer.capacity() {
        buffer.shrink_to_fit();
    }
}

impl IncrementalBlocker for IncrementalSaLshBlocker {
    fn name(&self) -> String {
        let base = format!(
            "k={},l={},q={}",
            self.minhash.rows_per_band, self.minhash.bands, self.minhash.qgram
        );
        match self.scheme.semantic_config() {
            Some(semantic) => format!("Incremental-SA-LSH({base},{})", semantic.describe()),
            None => format!("Incremental-LSH({base})"),
        }
    }

    fn num_records(&self) -> usize {
        self.next_id as usize
    }

    fn insert_batch(&mut self, records: &[Record]) -> Result<&DeltaPairs> {
        self.ingest(records, None)
    }

    fn remove(&mut self, id: RecordId) -> Result<bool> {
        if id.0 >= self.next_id {
            return Err(CoreError::Dataset(DatasetError::UnknownRecord(id.0)));
        }
        if self.removed[id.index()] {
            return Ok(false);
        }
        self.removed[id.index()] = true;
        self.removed_count += 1;

        // The record's live pairs, from only the buckets it occupies, with
        // the record as the kernel's anchor: a pair co-occurring in several
        // buckets is retired exactly once. Partners tombstoned earlier were
        // already subtracted at *their* removal and are skipped here, and so
        // is the record itself, tombstoned just above.
        let refs = std::mem::take(&mut self.bucket_refs[id.index()]);
        let mut retired = PairCounts::default();
        {
            let (bands, removed) = (&self.bands, &self.removed);
            let partners = self.seen.distinct_partners(|marks| {
                for reference in &refs {
                    let Some(bucket) = bands[reference.band].get(&reference.key) else {
                        continue;
                    };
                    for member in bucket.members.iter().filter(|member| !removed[member.index()]) {
                        marks.mark(member.0);
                    }
                }
            });
            let probe = EntityTableProbe::new(&self.entity_of);
            for &partner in partners {
                let partner = RecordId(partner);
                let (a, b) = if partner < id { (partner, id) } else { (id, partner) };
                retired.tally(RecordPair::pack_ascending(a, b), &probe);
            }
        }
        crate::invariants::check_counter_subtraction(self.running.pairs, retired.distinct, "running |Γ|");
        crate::invariants::check_counter_subtraction(self.running.true_positives, retired.matching, "running |Γ_tp|");
        self.running.pairs -= retired.distinct;
        self.running.true_positives -= retired.matching;

        // Tombstone accounting per touched bucket, with bucket-local
        // compaction once the dead fraction reaches the threshold. Only the
        // sub-maps holding the record's buckets are written (one per band:
        // all of a band's sub-keys share the textual key's sub-map), and a
        // lookup that misses copies nothing.
        let removed: &[bool] = &self.removed;
        let threshold = self.compaction_threshold;
        let mut compacted = 0u64;
        for reference in &refs {
            if self.bands[reference.band].get(&reference.key).is_none() {
                continue;
            }
            let map = Arc::make_mut(&mut self.bands[reference.band]).sub_map_mut(&reference.key, &mut self.cow_copies);
            let Some(bucket) = map.get_mut(&reference.key) else {
                continue;
            };
            bucket.dead += 1;
            crate::invariants::check_bucket_tombstones(&bucket.members, bucket.dead, removed, "removal touch");
            if bucket.compaction_due(threshold) {
                bucket.compact(removed);
                crate::invariants::check_bucket_tombstones(&bucket.members, bucket.dead, removed, "threshold compaction");
                compacted += 1;
                if bucket.members.is_empty() {
                    map.remove(&reference.key);
                }
            }
        }
        self.compactions += compacted;
        #[cfg(feature = "check-invariants")]
        {
            crate::invariants::check_tombstones(&self.removed, self.removed_count, self.next_id);
            crate::invariants::check_seen_clear(self.seen_sets(), self.next_id);
        }
        Ok(true)
    }

    fn delta_pairs(&self) -> &DeltaPairs {
        &self.last_delta
    }

    fn snapshot(&self) -> BlockCollection {
        snapshot_bands(&self.scheme, &self.bands, &self.removed)
    }
}

/// Renders the per-band buckets as a [`BlockCollection`] — the shared
/// implementation of [`IncrementalBlocker::snapshot`] and
/// [`IndexView::snapshot`].
fn snapshot_bands(scheme: &BucketScheme, bands: &[Arc<BandIndex>], removed: &[bool]) -> BlockCollection {
    let mut blocks = Vec::new();
    for (band, buckets) in bands.iter().enumerate() {
        // The buckets live in hash maps for O(1) inserts; sorting the keys
        // restores the key order of the one-shot placements byte for byte.
        for (&key, bucket) in buckets.sorted() {
            let live = bucket.members.iter().copied().filter(|id| !removed[id.index()]).collect();
            blocks.extend(scheme.block(band, key, live));
        }
    }
    BlockCollection::from_blocks(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{Block, Blocker};
    use crate::lsh::salsh::SaLshBlocker;
    use crate::lsh::semantic_hash::SemanticMode;
    use crate::semantic::pattern::PatternSemanticFunction;
    use crate::taxonomy::bib::bibliographic_taxonomy;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::Dataset;

    pub(crate) fn titles_dataset(rows: &[&str]) -> Dataset {
        let schema = Schema::shared(["title"]).unwrap();
        let mut builder = DatasetBuilder::new("titles", schema);
        for (i, title) in rows.iter().enumerate() {
            let value = if title.is_empty() { None } else { Some((*title).to_string()) };
            builder.push_values(vec![value], EntityId(i as u32 / 2)).unwrap();
        }
        builder.build().unwrap()
    }

    pub(crate) fn sample_dataset() -> Dataset {
        titles_dataset(&[
            "the cascade correlation learning architecture",
            "cascade correlation learning architecture",
            "the cascade corelation learning architecture",
            "efficient clustering of high dimensional data sets",
            "efficient clustering of high dimensional data",
            "",
            "a theory for record linkage",
            "a theory of record linkage",
        ])
    }

    pub(crate) fn lsh_builder() -> crate::lsh::salsh::SaLshBlockerBuilder {
        SaLshBlocker::builder().attributes(["title"]).qgram(2).bands(12).rows_per_band(2).seed(0xB10C)
    }

    pub(crate) fn salsh_pair() -> (SaLshBlocker, IncrementalSaLshBlocker) {
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        let family = SemhashFamily::from_all_leaves(&tree).unwrap();
        let semantic = crate::lsh::SemanticConfig::new(tree, zeta)
            .with_w(2)
            .with_mode(SemanticMode::Or)
            .with_seed(11)
            .with_pinned_family(family);
        let builder = SaLshBlocker::builder()
            .attributes(["title"])
            .qgram(2)
            .bands(12)
            .rows_per_band(2)
            .seed(0xB10C)
            .semantic(semantic);
        let one_shot = builder.clone().build().unwrap();
        let incremental = builder.into_incremental().unwrap();
        (one_shot, incremental)
    }

    /// A from-scratch recount of the live corpus against the blocker's own
    /// entity table — what the running counters must always equal.
    fn recount(blocker: &IncrementalSaLshBlocker) -> PairCounts {
        blocker
            .snapshot()
            .stream_packed_counts(EntityTableProbe::new(blocker.entity_table()))
    }

    #[test]
    fn batched_ingest_matches_one_shot_blocking() {
        let dataset = sample_dataset();
        let one_shot = lsh_builder().build().unwrap().block(&dataset).unwrap();
        for batch_size in [1usize, 3, 8] {
            let mut incremental = lsh_builder().into_incremental().unwrap();
            let mut total_delta = 0u64;
            for chunk in dataset.records().chunks(batch_size) {
                total_delta += incremental.insert_batch(chunk).unwrap().num_pairs();
            }
            let snapshot = incremental.snapshot();
            assert_eq!(snapshot.blocks(), one_shot.blocks(), "batch_size={batch_size}");
            assert_eq!(total_delta, one_shot.num_distinct_pairs(), "batch_size={batch_size}");
            assert_eq!(
                incremental.running_counts().pairs,
                one_shot.num_distinct_pairs(),
                "running |Γ| equals the one-shot count (batch_size={batch_size})"
            );
        }
    }

    #[test]
    fn semantic_ingest_matches_pinned_one_shot() {
        let dataset = sample_dataset();
        let (one_shot, mut incremental) = salsh_pair();
        let reference = one_shot.block(&dataset).unwrap();
        let mut cumulative = 0u64;
        for chunk in dataset.records().chunks(3) {
            cumulative += incremental.insert_batch(chunk).unwrap().num_pairs();
        }
        assert_eq!(incremental.snapshot().blocks(), reference.blocks());
        assert_eq!(cumulative, reference.num_distinct_pairs());
        assert!(incremental.name().starts_with("Incremental-SA-LSH("));
        assert_eq!(incremental.pinned_family().unwrap().len(), 6);
    }

    #[test]
    fn deltas_are_disjoint_and_sorted() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        let mut seen: Vec<RecordPair> = Vec::new();
        for chunk in dataset.records().chunks(2) {
            let delta = incremental.insert_batch(chunk).unwrap();
            let pairs = delta.pairs();
            assert_eq!(pairs.len() as u64, delta.num_pairs());
            for pair in &pairs {
                assert!(!seen.contains(pair), "pair {pair} emitted twice across batches");
            }
            seen.extend(pairs);
        }
        assert_eq!(seen.len() as u64, incremental.snapshot().num_distinct_pairs());
    }

    #[test]
    fn removal_tombstones_and_matches_filtered_one_shot() {
        let dataset = sample_dataset();
        let one_shot = lsh_builder().build().unwrap().block(&dataset).unwrap();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(dataset.records()).unwrap();
        assert!(incremental.remove(RecordId(1)).unwrap());
        assert!(!incremental.remove(RecordId(1)).unwrap(), "double removal reports false");
        assert!(incremental.remove(RecordId(99)).is_err(), "unknown ids error");
        assert_eq!(incremental.num_removed(), 1);
        assert_eq!(incremental.num_live_records(), dataset.len() - 1);

        // Reference: one-shot blocks with the removed id filtered out.
        let filtered: Vec<Block> = one_shot
            .blocks()
            .iter()
            .map(|b| {
                Block::new(
                    b.key().to_string(),
                    b.members().iter().copied().filter(|&id| id != RecordId(1)).collect(),
                )
            })
            .collect();
        let filtered = BlockCollection::from_blocks(filtered);
        assert_eq!(incremental.snapshot().blocks(), filtered.blocks());
        assert_eq!(
            incremental.running_counts().pairs,
            filtered.num_distinct_pairs(),
            "removal subtracts exactly the retired pairs from the running |Γ|"
        );

        // Pairs added after the removal never involve the tombstoned record.
        let extra = titles_dataset(&[
            "the cascade correlation learning architecture",
            "cascade correlation learning architecture",
            "the cascade corelation learning architecture",
            "efficient clustering of high dimensional data sets",
            "efficient clustering of high dimensional data",
            "",
            "a theory for record linkage",
            "a theory of record linkage",
            "cascade correlation learning architecture",
        ]);
        let delta = incremental.insert_batch(&extra.records()[8..]).unwrap();
        assert!(delta
            .pairs()
            .iter()
            .all(|p| p.first() != RecordId(1) && p.second() != RecordId(1)));
    }

    #[test]
    fn running_counts_track_entities_through_inserts_and_removals() {
        let dataset = sample_dataset();
        let entities: Vec<EntityId> = dataset.ground_truth().entity_table().to_vec();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        let mut offset = 0usize;
        for chunk in dataset.records().chunks(3) {
            incremental
                .insert_batch_with_entities(chunk, &entities[offset..offset + chunk.len()])
                .unwrap();
            offset += chunk.len();
            let counts = recount(&incremental);
            assert_eq!(incremental.running_counts().pairs, counts.distinct);
            assert_eq!(incremental.running_counts().true_positives, counts.matching);
        }
        assert!(incremental.running_counts().true_positives > 0, "the sample has true matches in Γ");
        assert_eq!(incremental.entity_table(), &entities[..]);

        for victim in [1u32, 6, 0] {
            incremental.remove(RecordId(victim)).unwrap();
            let counts = recount(&incremental);
            assert_eq!(incremental.running_counts().pairs, counts.distinct, "after removing r{victim}");
            assert_eq!(incremental.running_counts().true_positives, counts.matching, "after removing r{victim}");
        }
        assert_eq!(
            incremental.running_counts().as_pair_counts().distinct,
            incremental.running_counts().pairs
        );
    }

    #[test]
    fn entity_annotations_must_not_lapse() {
        let dataset = sample_dataset();
        let entities: Vec<EntityId> = dataset.ground_truth().entity_table().to_vec();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        // Wrong arity is rejected up front.
        let err = incremental
            .insert_batch_with_entities(&dataset.records()[..2], &entities[..1])
            .unwrap_err();
        assert!(err.to_string().contains("annotations cover"));
        // An unannotated batch followed by an annotated one is rejected.
        incremental.insert_batch(&dataset.records()[..2]).unwrap();
        let err = incremental
            .insert_batch_with_entities(&dataset.records()[2..4], &entities[2..4])
            .unwrap_err();
        assert!(err.to_string().contains("never lapse"));
        // Unannotated ingest keeps working; TPs simply stay at zero.
        incremental.insert_batch(&dataset.records()[2..]).unwrap();
        assert_eq!(incremental.running_counts().true_positives, 0);
        assert!(incremental.running_counts().pairs > 0);
    }

    #[test]
    fn threshold_compaction_is_observation_equivalent() {
        let dataset = sample_dataset();
        // Twin blockers: one never compacts, one compacts on every removal.
        let run = |threshold: f64| {
            let mut blocker = lsh_builder().into_incremental().unwrap().with_compaction_threshold(threshold);
            blocker.insert_batch(dataset.records()).unwrap();
            for victim in [0u32, 2, 7] {
                blocker.remove(RecordId(victim)).unwrap();
            }
            blocker
        };
        let lazy = run(2.0);
        let eager = run(0.0);
        assert_eq!(lazy.num_compactions(), 0);
        assert!(eager.num_compactions() > 0, "threshold 0.0 compacts every touched bucket");
        assert_eq!(lazy.snapshot().blocks(), eager.snapshot().blocks());
        assert_eq!(lazy.running_counts(), eager.running_counts());

        // Forced compaction on the lazy twin is likewise observation-free.
        let mut compacted = lazy.clone();
        let before = compacted.snapshot();
        assert!(compacted.compact() > 0);
        assert_eq!(compacted.snapshot().blocks(), before.blocks());
        assert_eq!(compacted.running_counts(), lazy.running_counts());
        assert_eq!(compacted.compact(), 0, "a second pass finds nothing to compact");
    }

    #[test]
    fn ingested_deltas_probe_each_distinct_pair_once() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingProbe(AtomicU64);
        impl PackedProbe for CountingProbe {
            fn matches(&self, _key: u64) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                false
            }
        }

        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        let delta = incremental.insert_batch(dataset.records()).unwrap().clone();
        let snapshot = incremental.snapshot();
        let distinct = delta.num_pairs();
        assert!(
            snapshot.redundant_pair_count() > distinct,
            "the sample has a pair in two or more snapshot blocks"
        );
        assert_eq!(delta.distinct_packed().len() as u64, distinct);

        let probe = CountingProbe(AtomicU64::new(0));
        assert_eq!(delta.counts(&probe).distinct, distinct);
        assert_eq!(probe.0.load(Ordering::Relaxed), distinct, "each distinct pair probed once, not per run entry");
        delta.counts(&probe);
        assert_eq!(probe.0.load(Ordering::Relaxed), 2 * distinct, "a second count probes each pair once again");
    }

    /// The kernel's write paths against an oracle taken before the write:
    /// `query_candidates` of a row about to be inserted is exactly its
    /// partner set, so a one-row insert's delta is {(c, new) : c ∈
    /// candidates}; and `query_candidates` of a live record is its partner
    /// set, so removing it subtracts exactly that many pairs, and of those
    /// its annotated matches from |Γ_tp|.
    #[test]
    fn one_row_writes_match_the_candidates_taken_before_the_write() {
        let dataset = sample_dataset();
        let entities: Vec<EntityId> = dataset.ground_truth().entity_table().to_vec();
        let schema = Arc::clone(dataset.records()[0].schema());
        let (_, mut incremental) = salsh_pair();
        let mut saw_partners = false;
        for (record, &entity) in dataset.records().iter().zip(&entities) {
            let candidates = incremental.query_candidates(record).unwrap();
            let delta = incremental
                .insert_values_with_entities(&schema, vec![record.values().to_vec()], &[entity])
                .unwrap();
            let mut got: Vec<RecordPair> = delta.pairs();
            got.sort_unstable();
            let expected: Vec<RecordPair> =
                candidates.iter().map(|&c| RecordPair::new(c, record.id()).unwrap()).collect();
            assert_eq!(got, expected, "insert of {}", record.id());
            saw_partners |= !expected.is_empty();
        }
        assert!(saw_partners, "some insert pairs with earlier records");

        for victim in [4u32, 0, 7, 1] {
            let victim = RecordId(victim);
            let candidates = incremental.query_candidates(&dataset.records()[victim.index()]).unwrap();
            let matches = candidates.iter().filter(|c| entities[c.index()] == entities[victim.index()]).count() as u64;
            let before = incremental.running_counts();
            incremental.remove(victim).unwrap();
            let after = incremental.running_counts();
            assert_eq!(before.pairs - after.pairs, candidates.len() as u64, "remove of {victim}");
            assert_eq!(before.true_positives - after.true_positives, matches, "remove of {victim}");
        }
    }

    /// Every ingest worker's seen-set and key buffer outlive the batch, but
    /// stay bounded: after each batch every kept key buffer holds at most 4×
    /// its last use, a one-row insert after a bulk load drops the extra
    /// workers and shrinks the delta's buffer back, and every kept seen-set
    /// covers the whole id space.
    #[test]
    fn kept_worker_buffers_cover_the_id_space_and_shrink_back() {
        let titles = [
            "the cascade correlation learning architecture",
            "cascade correlation learning architecture",
            "efficient clustering of high dimensional data sets",
            "a theory of record linkage",
        ];
        let rows: Vec<&str> = titles.iter().copied().cycle().take(72).collect();
        let dataset = titles_dataset(&rows);
        let schema = Arc::clone(dataset.records()[0].schema());
        // Checks the buffers after a batch of `len` records split over four
        // workers: worker `w` anchored the `w`-th run of `len.div_ceil(4)` records,
        // and a key's low half is its anchor.
        let check_kept = |blocker: &IncrementalSaLshBlocker, len: u32| {
            let next_id = blocker.next_id;
            let (first, share) = (next_id - len, len.div_ceil(4));
            assert!(blocker.seen.marks().len() >= next_id as usize);
            let delta = &blocker.last_delta.distinct;
            assert!(delta.capacity() <= 4 * delta.len(), "delta: {} for {}", delta.capacity(), delta.len());
            for (worker, (seen, keys)) in (1u32..).zip(&blocker.extra_workers) {
                assert!(seen.marks().len() >= next_id as usize, "worker {worker} covers the id space");
                let used = delta.iter().filter(|&&key| (key as u32 - first) / share == worker).count();
                assert!(keys.is_empty(), "worker {worker} handed its keys to the delta");
                assert!(keys.capacity() <= 4 * used, "worker {worker}: {} for {used}", keys.capacity());
            }
        };
        crate::parallel::with_threads(4, || {
            let mut blocker = lsh_builder().into_incremental().unwrap();
            blocker.insert_batch(&dataset.records()[..64]).unwrap();
            assert_eq!(blocker.extra_workers.len(), 3, "64 rows on four workers keep three extra workers");
            assert!(blocker.extra_workers.iter().all(|(_, keys)| keys.capacity() > 0));
            check_kept(&blocker, 64);
            let bulk_capacity = blocker.last_delta.distinct.capacity();
            // A smaller parallel batch: each worker keeps fewer partners.
            blocker.insert_batch(&dataset.records()[64..]).unwrap();
            assert_eq!(blocker.extra_workers.len(), 3);
            check_kept(&blocker, 8);
            for title in titles.iter().chain(&titles) {
                blocker.insert_values(&schema, vec![vec![Some((*title).to_string())]]).unwrap();
                assert!(blocker.extra_workers.is_empty(), "a one-row insert runs on one worker");
                check_kept(&blocker, 1);
            }
            assert!(blocker.last_delta.distinct.capacity() < bulk_capacity / 4);
        });
    }

    #[test]
    fn batch_validation_rejects_bad_ids_and_schemas() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        // Ids must continue densely from 0.
        let err = incremental.insert_batch(&dataset.records()[2..4]).unwrap_err();
        assert!(err.to_string().contains("dense continuation"));
        // An id just over the packable boundary is a typed overflow.
        let schema = Schema::shared(["title"]).unwrap();
        let huge = Record::new(RecordId(u32::MAX), Arc::clone(&schema), vec![Some("x".into())]).unwrap();
        let mut at_edge = lsh_builder().into_incremental().unwrap();
        at_edge.next_id = u32::MAX;
        let err = at_edge.insert_batch(std::slice::from_ref(&huge)).unwrap_err();
        assert!(matches!(err, CoreError::RecordIdOverflow(id) if id == u64::from(u32::MAX)));
        // Unknown blocking attributes fail up front.
        let other_schema = Schema::shared(["name"]).unwrap();
        let wrong = Record::new(RecordId(0), Arc::clone(&other_schema), vec![Some("x".into())]).unwrap();
        let err = incremental.insert_batch(std::slice::from_ref(&wrong)).unwrap_err();
        assert!(err.to_string().contains("title"));
        // …even when the offending record is not the first of the batch
        // (mixed-schema batches must not slip a never-indexed record in).
        let ok = Record::new(RecordId(0), Arc::clone(&schema), vec![Some("y".into())]).unwrap();
        let wrong_tail = Record::new(RecordId(1), other_schema, vec![Some("z".into())]).unwrap();
        let err = incremental.insert_batch(&[ok, wrong_tail]).unwrap_err();
        assert!(err.to_string().contains("offset 1"));
        assert_eq!(incremental.num_records(), 0, "a rejected batch ingests nothing");
    }

    #[test]
    fn empty_batches_and_empty_records_are_handled() {
        let mut incremental = lsh_builder().into_incremental().unwrap();
        let delta = incremental.insert_batch(&[]).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.num_pairs(), 0);
        assert_eq!(incremental.num_batches(), 1);
        assert_eq!(incremental.num_records(), 0);
        assert!(incremental.snapshot().is_empty());

        // Records without text are ingested (they consume an id) but never
        // indexed — exactly like the one-shot pipeline.
        let dataset = titles_dataset(&["", ""]);
        incremental.insert_batch(dataset.records()).unwrap();
        assert_eq!(incremental.num_records(), 2);
        assert!(incremental.snapshot().is_empty());
        assert_eq!(incremental.next_record_id(), RecordId(2));

        // Removing a never-indexed record subtracts nothing.
        assert!(incremental.remove(RecordId(0)).unwrap());
        assert_eq!(incremental.running_counts(), RunningCounts::default());
    }

    #[test]
    fn insert_values_wraps_rows_with_dense_ids() {
        let schema = Schema::shared(["title"]).unwrap();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        let rows = vec![
            vec![Some("a theory for record linkage".to_string())],
            vec![Some("a theory of record linkage".to_string())],
        ];
        let delta = incremental.insert_values(&schema, rows).unwrap();
        assert!(delta.num_pairs() > 0);
        assert_eq!(incremental.num_records(), 2);
        // The stored delta is identical to the returned one.
        assert_eq!(incremental.delta_pairs().num_pairs(), incremental.snapshot().num_distinct_pairs());

        // The annotated variant feeds the running true-positive counter.
        let mut annotated = lsh_builder().into_incremental().unwrap();
        let rows = vec![
            vec![Some("a theory for record linkage".to_string())],
            vec![Some("a theory of record linkage".to_string())],
        ];
        annotated
            .insert_values_with_entities(&schema, rows, &[EntityId(0), EntityId(0)])
            .unwrap();
        assert_eq!(annotated.running_counts().true_positives, annotated.running_counts().pairs);
        assert!(annotated.running_counts().true_positives > 0);
    }
}
