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
//! involve at least one new record — enumerable from the touched buckets
//! alone. Deltas are carried as sorted, deduplicated packed-`u64` runs
//! ([`RecordPair::pack`]), the same representation every bulk pair path of
//! [`crate::blocking`] runs on; the runs are merged into the delta's
//! distinct-key cache **once per generation** (during the ingest fold that
//! updates the running counters), so [`DeltaPairs::counts`] and
//! [`DeltaPairs::num_pairs`] never re-scan the redundant runs. Absent
//! removals, deltas of successive batches are **disjoint**: summing
//! per-batch [`PairCounts`] equals a from-scratch count of the merged whole,
//! byte for byte.
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
//! time), deduplicating across bands so each retired pair is subtracted
//! exactly once. Tombstoned members linger in their buckets until the
//! bucket's dead fraction crosses the compaction threshold
//! ([`IncrementalSaLshBlocker::set_compaction_threshold`]), at which point
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
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{DatasetError, Record, RecordId, Schema, MAX_RECORD_ID};

use crate::blocking::{
    merge_packed_runs_into, radix_sort_packed, Block, BlockCollection, EntityTableProbe, PackedProbe, PairCounts,
};
use crate::error::{CoreError, Result};
use crate::lsh::semantic_hash::WWaySemanticHash;
use crate::lsh::{BandingScheme, SemanticConfig};
use crate::minhash::shingle::RecordShingler;
use crate::minhash::{MinHasher, MinhashConfig};
use crate::parallel::{parallel_map, parallel_map_mut, resolve_threads};
use crate::semantic::semhash::SemhashFamily;

use band::{BandIndex, Bucket, BucketKey};

/// The candidate pairs one ingest batch added to Γ, as sorted and
/// individually deduplicated packed-`u64` runs (one run per band; a pair
/// colliding in several bands appears in several runs), plus a lazily
/// materialised cache of the **distinct** keys across all runs.
///
/// The cache is populated exactly once per delta generation — by the ingest
/// fold that maintains the blocker's [`RunningCounts`], or on the first
/// counting call for hand-built deltas — so repeated [`DeltaPairs::counts`]
/// / [`DeltaPairs::num_pairs`] calls never re-merge the redundant runs.
#[derive(Debug, Default)]
pub struct DeltaPairs {
    runs: Vec<Vec<u64>>,
    merged: OnceLock<Vec<u64>>,
}

impl Clone for DeltaPairs {
    fn clone(&self) -> Self {
        let merged = OnceLock::new();
        if let Some(cached) = self.merged.get() {
            let _ = merged.set(cached.clone());
        }
        Self { runs: self.runs.clone(), merged }
    }
}

impl PartialEq for DeltaPairs {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state: two deltas are equal iff their runs are.
        self.runs == other.runs
    }
}

impl Eq for DeltaPairs {}

impl DeltaPairs {
    /// A delta with no pairs.
    pub fn empty() -> Self {
        Self::default()
    }

    pub(crate) fn from_runs(runs: Vec<Vec<u64>>) -> Self {
        Self {
            runs: runs.into_iter().filter(|run| !run.is_empty()).collect(),
            merged: OnceLock::new(),
        }
    }

    /// A delta whose distinct keys were already merged (the ingest fold
    /// counts the runs while producing them, so the cache comes for free).
    pub(crate) fn from_counted_runs(runs: Vec<Vec<u64>>, merged: Vec<u64>) -> Self {
        let delta = Self::from_runs(runs);
        let _ = delta.merged.set(merged);
        delta
    }

    /// The sorted, deduplicated packed runs.
    pub fn runs(&self) -> &[Vec<u64>] {
        &self.runs
    }

    /// Whether the delta holds no pairs at all.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The delta's distinct packed pair keys in ascending order. Merged from
    /// the redundant per-band runs at most once per delta generation (the
    /// loser-tree/galloping merge of [`crate::blocking`]) and cached.
    pub fn distinct_packed(&self) -> &[u64] {
        self.merged.get_or_init(|| {
            let mut merged: Vec<u64> = Vec::with_capacity(self.runs.iter().map(Vec::len).sum());
            merge_packed_runs_into(&self.runs, |segment| merged.extend_from_slice(segment));
            merged
        })
    }

    /// Whether the distinct-key cache is populated. Deltas returned by
    /// [`IncrementalBlocker::insert_batch`] always are; a hand-built delta
    /// becomes counted on its first [`DeltaPairs::counts`] /
    /// [`DeltaPairs::num_pairs`] / [`DeltaPairs::pairs`] call.
    pub fn is_counted(&self) -> bool {
        self.merged.get().is_some()
    }

    /// Counts the delta's distinct pairs, probing each **exactly once** over
    /// the cached distinct-key run — repeated calls never re-scan the
    /// redundant per-band runs (regression-tested in this module).
    pub fn counts<P: PackedProbe>(&self, probe: &P) -> PairCounts {
        let distinct = self.distinct_packed();
        let mut matching = 0u64;
        for &key in distinct {
            if probe.matches(key) {
                matching += 1;
            }
        }
        PairCounts { distinct: distinct.len() as u64, matching }
    }

    /// Number of distinct pairs in the delta — O(1) once counted.
    pub fn num_pairs(&self) -> u64 {
        self.distinct_packed().len() as u64
    }

    /// Materialises the delta's distinct pairs in ascending order (tests,
    /// goldens, small deltas — bulk consumers should stay on the packed
    /// runs).
    pub fn pairs(&self) -> Vec<RecordPair> {
        self.distinct_packed().iter().copied().map(RecordPair::from_packed).collect()
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

/// The pinned semantic state of an incremental SA-LSH index: family and
/// per-band w-way hash functions are fixed at construction, so a record's
/// sub-block keys never change after ingestion.
#[derive(Debug, Clone)]
struct IncrementalSemantic {
    config: SemanticConfig,
    family: SemhashFamily,
    band_hashes: Vec<WWaySemanticHash>,
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
/// within a key — the source of the back-references), the band's sorted,
/// deduplicated delta run, and how many shared sub-maps it had to copy.
struct BandOutcome {
    touched: Vec<(BucketKey, RecordId)>,
    delta_run: Vec<u64>,
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
/// id order and append). Sorting each band's keys and walking the bands in
/// band order reproduces exactly the deterministic band-order merge of the
/// one-shot sharded bucket phase.
#[derive(Debug, Clone)]
pub struct IncrementalSaLshBlocker {
    shingler: RecordShingler,
    minhash: MinhashConfig,
    banding: BandingScheme,
    hasher: MinHasher,
    semantic: Option<IncrementalSemantic>,
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
                let mut rng = StdRng::seed_from_u64(config.seed);
                let band_hashes = (0..banding.bands())
                    .map(|_| WWaySemanticHash::sample(family.len(), config.w, config.mode, &mut rng))
                    .collect::<Result<Vec<_>>>()?;
                Some(IncrementalSemantic { config, family, band_hashes })
            }
            None => None,
        };
        let hasher = MinHasher::from_config(&minhash);
        // One Arc per band — `vec![Arc::new(..); n]` would alias a single
        // allocation across all bands.
        let bands = (0..banding.bands()).map(|_| Arc::new(BandIndex::default())).collect();
        Ok(Self {
            shingler,
            minhash,
            banding,
            hasher,
            semantic,
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
        self.semantic.as_ref().map(|s| &s.family)
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
        view::probe_candidates(
            &self.shingler,
            &self.hasher,
            &self.banding,
            self.semantic.as_ref(),
            &self.bands,
            &self.removed,
            record,
        )
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
        let signatures = parallel_map(records, threads, |record| self.shingler.signature(&self.hasher, record));
        let sem_signatures = match &self.semantic {
            Some(semantic) => {
                let function = &semantic.config.function;
                let interpretations = parallel_map(records, threads, |record| function.interpret(record));
                Some(parallel_map(&interpretations, threads, |interp| {
                    semantic.family.signature(&semantic.config.taxonomy, interp)
                }))
            }
            None => None,
        };

        // The entity table must cover the new ids before the counting fold
        // below probes the delta pairs.
        if let Some(entities) = entities {
            self.entity_of.extend_from_slice(entities);
        }

        // Each band is independent, so placements, delta pairs and the band
        // update itself run per band in parallel (`parallel_map_mut` — each
        // worker owns its band), with outcomes stitched back in ascending
        // band order so every derived structure is deterministic for any
        // worker count.
        let removed: &[bool] = &self.removed;
        let banding = &self.banding;
        let semantic = &self.semantic;
        let mut shards: Vec<(usize, &mut Arc<BandIndex>)> = self.bands.iter_mut().enumerate().collect();
        let outcomes: Vec<BandOutcome> = parallel_map_mut(&mut shards, threads, |(band, index)| {
            let band = *band;
            let mut slots: Vec<(BucketKey, RecordId)> = Vec::new();
            for (offset, signature) in signatures.iter().enumerate() {
                let Some(signature) = signature else { continue };
                let id = records[offset].id();
                let bucket = banding.band_key(signature, band);
                match (semantic, &sem_signatures) {
                    (Some(semantic), Some(sems)) => {
                        for sub in semantic.band_hashes[band].sub_keys(&sems[offset]) {
                            slots.push(((bucket, sub as u64), id)); // sablock-lint: allow(lossy-id-cast): usize sub-key index → u64 widens losslessly
                        }
                    }
                    _ => slots.push(((bucket, 0), id)),
                }
            }
            // Group placements by bucket key; ids stay ascending within a
            // key (the batch arrives in id order and the sort key ends on
            // the id).
            slots.sort_unstable();

            // Delta pairs of this band: existing live members × new members,
            // plus the new-member pairs, per touched bucket. Old ids are all
            // smaller than new ids and members are ascending, so every pair
            // packs ascending without canonicalisation. The band update
            // itself happens in the same pass: one O(1) bucket lookup per
            // touched bucket, in a sub-map copied first only if a published
            // view still shares it; untouched sub-maps are never rewritten.
            let index = Arc::make_mut(index);
            let mut delta_run: Vec<u64> = Vec::new();
            let mut cow_copies = 0u64;
            let mut start = 0usize;
            while start < slots.len() {
                let key = slots[start].0;
                let mut end = start;
                while end < slots.len() && slots[end].0 == key {
                    end += 1;
                }
                let new_members = &slots[start..end];
                let bucket = index.sub_map_mut(&key, &mut cow_copies).entry(key).or_default();
                for &old in &bucket.members {
                    if removed[old.index()] {
                        continue;
                    }
                    for &(_, new) in new_members {
                        delta_run.push(RecordPair::pack_ascending(old, new));
                    }
                }
                for (i, &(_, a)) in new_members.iter().enumerate() {
                    for &(_, b) in &new_members[i + 1..] {
                        delta_run.push(RecordPair::pack_ascending(a, b));
                    }
                }
                bucket.members.extend(new_members.iter().map(|&(_, id)| id));
                start = end;
            }
            radix_sort_packed(&mut delta_run);
            delta_run.dedup();
            BandOutcome { touched: slots, delta_run, cow_copies }
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

        // Back-references accumulate in band order, then key order within a
        // band (`touched` is sorted) — deterministic for any worker count.
        let mut runs: Vec<Vec<u64>> = Vec::with_capacity(outcomes.len());
        for (band, outcome) in outcomes.into_iter().enumerate() {
            for &(key, id) in &outcome.touched {
                self.bucket_refs[id.index()].push(BucketRef { band, key });
            }
            runs.push(outcome.delta_run);
            self.cow_copies += outcome.cow_copies;
        }

        // Fold the delta into the running counters in the same single merge
        // pass that materialises the delta's distinct-key cache — the merge
        // over the redundant runs happens exactly once per batch.
        let mut merged: Vec<u64> = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        let mut batch_counts = PairCounts::default();
        {
            let probe = EntityTableProbe::new(&self.entity_of);
            merge_packed_runs_into(&runs, |segment| {
                batch_counts.distinct += segment.len() as u64;
                for &key in segment {
                    if probe.matches(key) {
                        batch_counts.matching += 1;
                    }
                }
                merged.extend_from_slice(segment);
            });
        }
        self.running.pairs += batch_counts.distinct;
        self.running.true_positives += batch_counts.matching;
        self.last_delta = DeltaPairs::from_counted_runs(runs, merged);
        self.batches_ingested += 1;
        #[cfg(feature = "check-invariants")]
        {
            crate::invariants::check_delta_disjoint(&mut self.emitted_delta_keys, &self.last_delta);
            crate::invariants::check_tombstones(&self.removed, self.removed_count, self.next_id);
        }
        Ok(&self.last_delta)
    }
}

impl IncrementalBlocker for IncrementalSaLshBlocker {
    fn name(&self) -> String {
        let base = format!(
            "k={},l={},q={}",
            self.minhash.rows_per_band, self.minhash.bands, self.minhash.qgram
        );
        match &self.semantic {
            Some(semantic) => format!("Incremental-SA-LSH({base},{})", semantic.config.describe()),
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

        // The record's live pairs, enumerated from only the buckets it
        // occupies. The same pair can co-occur in several buckets/bands, so
        // sort + dedup before subtracting — each retired pair exactly once.
        // Pairs with partners tombstoned earlier were already subtracted at
        // *their* removal and are skipped here.
        let refs = std::mem::take(&mut self.bucket_refs[id.index()]);
        let mut retired: Vec<u64> = Vec::new();
        for reference in &refs {
            if let Some(bucket) = self.bands[reference.band].get(&reference.key) {
                for &member in &bucket.members {
                    if self.removed[member.index()] {
                        continue;
                    }
                    let (a, b) = if member < id { (member, id) } else { (id, member) };
                    retired.push(RecordPair::pack_ascending(a, b));
                }
            }
        }
        radix_sort_packed(&mut retired);
        retired.dedup();
        let mut retired_matching = 0u64;
        {
            let probe = EntityTableProbe::new(&self.entity_of);
            for &key in &retired {
                if probe.matches(key) {
                    retired_matching += 1;
                }
            }
        }
        crate::invariants::check_counter_subtraction(self.running.pairs, retired.len() as u64, "running |Γ|");
        crate::invariants::check_counter_subtraction(self.running.true_positives, retired_matching, "running |Γ_tp|");
        self.running.pairs -= retired.len() as u64;
        self.running.true_positives -= retired_matching;

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
        crate::invariants::check_tombstones(&self.removed, self.removed_count, self.next_id);
        Ok(true)
    }

    fn delta_pairs(&self) -> &DeltaPairs {
        &self.last_delta
    }

    fn snapshot(&self) -> BlockCollection {
        snapshot_bands(&self.bands, &self.removed, self.semantic.is_some())
    }
}

/// Renders the per-band buckets as a [`BlockCollection`] — the shared
/// implementation of [`IncrementalBlocker::snapshot`] and
/// [`IndexView::snapshot`].
fn snapshot_bands(bands: &[Arc<BandIndex>], removed: &[bool], semantic: bool) -> BlockCollection {
    let mut blocks = Vec::new();
    for (band, buckets) in bands.iter().enumerate() {
        // The buckets live in hash maps for O(1) inserts; snapshot order is
        // restored by sorting the keys, reproducing the ordered-map
        // iteration of the one-shot bucket phase byte for byte.
        for (&(bucket, sub), shard) in buckets.sorted() {
            let live: Vec<RecordId> = shard.members.iter().copied().filter(|id| !removed[id.index()]).collect();
            if live.len() < 2 {
                continue;
            }
            let key = if semantic {
                format!("b{band}:{bucket:016x}:g{sub}")
            } else {
                format!("b{band}:{bucket:016x}")
            };
            blocks.push(Block::new(key, live));
        }
    }
    BlockCollection::from_blocks(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::Blocker;
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
            for run in delta.runs() {
                assert!(run.windows(2).all(|w| w[0] < w[1]), "runs are strictly ascending");
            }
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
    fn delta_counts_cache_avoids_rescanning_runs() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingProbe(AtomicU64);
        impl PackedProbe for CountingProbe {
            fn matches(&self, _key: u64) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                false
            }
        }

        // Hand-built delta: 6 redundant run entries, 4 distinct pairs.
        let pack = |a: u32, b: u32| RecordPair::pack_ascending(RecordId(a), RecordId(b));
        let runs = vec![
            vec![pack(0, 1), pack(0, 2), pack(1, 2)],
            vec![pack(0, 1), pack(1, 2), pack(2, 3)],
        ];
        let delta = DeltaPairs::from_runs(runs);
        assert!(!delta.is_counted(), "a hand-built delta starts uncounted");
        assert_eq!(delta.num_pairs(), 4);
        assert!(delta.is_counted(), "the first count materialises the distinct-key cache");

        let probe = CountingProbe(AtomicU64::new(0));
        let first = delta.counts(&probe);
        assert_eq!(first.distinct, 4);
        assert_eq!(probe.0.load(Ordering::Relaxed), 4, "each distinct pair probed exactly once, not per run entry");
        let second = delta.counts(&probe);
        assert_eq!(second.distinct, first.distinct);
        assert_eq!(probe.0.load(Ordering::Relaxed), 8, "a second call probes the cache, never the runs");

        // Clones carry the cache; equality ignores it.
        let cloned = delta.clone();
        assert!(cloned.is_counted());
        assert_eq!(cloned, delta);
        assert!(!DeltaPairs::from_runs(vec![vec![pack(0, 1)]]).is_counted());

        // Deltas produced by ingest are pre-counted by the counting fold.
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(dataset.records()).unwrap();
        assert!(incremental.delta_pairs().is_counted(), "insert_batch pre-populates the cache");
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
