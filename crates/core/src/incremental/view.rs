//! Read-only published views of an incremental index.
//!
//! [`IndexView`] is the reader half of a single-writer/many-reader split:
//! [`IncrementalSaLshBlocker::publish_view`] freezes the current index state
//! and the view then answers candidate lookups ([`IndexView::candidates`])
//! and snapshots without ever touching the writer again.
//!
//! What publication costs: the bands are shared behind [`Arc`]s, O(bands).
//! The per-record bookkeeping is copied — the tombstone flags (a
//! `Vec<bool>`, one byte per record) and the entity annotations (four bytes
//! per annotated record). After publication the writer's next mutation
//! copies only the sub-maps it touches, with their buckets, instead of
//! mutating the shared ones: a one-row insert or removal copies at most one
//! sub-map per band ([`IndexView::num_cow_copies`] counts them). Views are
//! `Send + Sync` (the semantic function is `Send + Sync` by trait bound), so
//! a service layer can hand clones of one view to any number of query
//! threads, lock-free.
//!
//! # Query/one-shot equivalence
//!
//! [`IndexView::candidates`] runs the probe record through *exactly* the
//! ingest signature pipeline — same shingler, same minhash permutations,
//! same pinned semhash family and per-band w-way functions — and unions the
//! live members of every bucket the probe would land in. The result is
//! therefore precisely the set of records one-shot
//! [`SaLshBlocker::block`](crate::lsh::salsh::SaLshBlocker::block) over
//! `corpus ∪ {probe}` would pair the probe with (property-tested in
//! `tests/service_equivalence.rs`): sharing a bucket with the probe is the
//! same predicate in both directions.

use std::sync::Arc;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::{Record, RecordId};

use crate::blocking::BlockCollection;
use crate::error::{CoreError, Result};
use crate::lsh::BandingScheme;
use crate::minhash::shingle::RecordShingler;
use crate::minhash::MinHasher;

use super::{snapshot_bands, BandIndex, IncrementalBlocker, IncrementalSaLshBlocker, IncrementalSemantic, RunningCounts};

/// An immutable view of an [`IncrementalSaLshBlocker`] frozen at a
/// publication point (see the module docs). Cloning a view shares the
/// bands and copies the per-record bookkeeping vectors.
#[derive(Debug, Clone)]
pub struct IndexView {
    name: String,
    shingler: RecordShingler,
    hasher: MinHasher,
    banding: BandingScheme,
    semantic: Option<IncrementalSemantic>,
    bands: Vec<Arc<BandIndex>>,
    removed: Vec<bool>,
    entity_of: Vec<EntityId>,
    running: RunningCounts,
    next_id: u32,
    removed_count: usize,
    compactions: u64,
    cow_copies: u64,
}

impl IndexView {
    /// Freezes the blocker's current state (the implementation behind
    /// [`IncrementalSaLshBlocker::publish_view`]).
    pub(super) fn capture(blocker: &IncrementalSaLshBlocker) -> Self {
        Self {
            name: blocker.name(),
            shingler: blocker.shingler.clone(),
            hasher: blocker.hasher.clone(),
            banding: blocker.banding,
            semantic: blocker.semantic.clone(),
            bands: blocker.bands.clone(),
            removed: blocker.removed.clone(),
            entity_of: blocker.entity_of.clone(),
            running: blocker.running,
            next_id: blocker.next_id,
            removed_count: blocker.removed_count,
            compactions: blocker.compactions,
            cow_copies: blocker.cow_copies,
        }
    }

    /// The configuration fingerprint of the index this view was published
    /// from ([`IncrementalBlocker::name`] at publication time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The candidate partners the probe record collides with in this view —
    /// union of the live members of every `(band, bucket, sub-key)` the
    /// probe's signatures select, sorted by id, deduplicated across bands,
    /// and with the probe's own id excluded (a record is never its own
    /// candidate). Equivalent to the probe's one-shot partner set; see the
    /// module docs.
    pub fn candidates(&self, record: &Record) -> Result<Vec<RecordId>> {
        probe_candidates(
            &self.shingler,
            &self.hasher,
            &self.banding,
            self.semantic.as_ref(),
            &self.bands,
            &self.removed,
            record,
        )
    }

    /// The view's blocking as a [`BlockCollection`] — byte-identical to the
    /// blocker's [`IncrementalBlocker::snapshot`] at the publication point.
    pub fn snapshot(&self) -> BlockCollection {
        snapshot_bands(&self.bands, &self.removed, self.semantic.is_some())
    }

    /// The shingler the view's index was built with — what a service layer
    /// shingles a probe and its candidates with to rank them.
    pub fn shingler(&self) -> &RecordShingler {
        &self.shingler
    }

    /// Number of records ingested at the publication point (including
    /// tombstoned ones).
    pub fn num_records(&self) -> usize {
        self.next_id as usize
    }

    /// Number of live (non-removed) records at the publication point.
    pub fn num_live_records(&self) -> usize {
        self.next_id as usize - self.removed_count
    }

    /// Whether the id was ingested and not tombstoned at the publication
    /// point.
    pub fn is_live(&self, id: RecordId) -> bool {
        self.removed.get(id.index()).is_some_and(|&removed| !removed)
    }

    /// The id the next ingested record would have carried at the
    /// publication point — the id a not-yet-ingested probe record should use.
    pub fn next_record_id(&self) -> RecordId {
        RecordId(self.next_id)
    }

    /// The running `|Γ|` / `|Γ_tp|` counters at the publication point.
    pub fn running_counts(&self) -> RunningCounts {
        self.running
    }

    /// The entity annotations at the publication point (dense by record id;
    /// may be shorter than [`IndexView::num_records`]).
    pub fn entity_table(&self) -> &[EntityId] {
        &self.entity_of
    }

    /// Number of tombstoned records at the publication point.
    pub fn num_removed(&self) -> usize {
        self.removed_count
    }

    /// Number of bucket compactions the index had performed at the
    /// publication point (threshold-driven and forced).
    pub fn num_compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of bucket sub-maps the index's writer had copied at the
    /// publication point because a published view (or a clone of the
    /// index) still shared them. Counted since the index was built or
    /// restored; not part of [`IndexDump`](super::IndexDump).
    pub fn num_cow_copies(&self) -> u64 {
        self.cow_copies
    }
}

/// The shared probe-lookup implementation of [`IndexView::candidates`] and
/// [`IncrementalSaLshBlocker::query_candidates`]: runs the probe through the
/// ingest signature pipeline and unions the live bucket members it selects.
pub(super) fn probe_candidates(
    shingler: &RecordShingler,
    hasher: &MinHasher,
    banding: &BandingScheme,
    semantic: Option<&IncrementalSemantic>,
    bands: &[Arc<BandIndex>],
    removed: &[bool],
    record: &Record,
) -> Result<Vec<RecordId>> {
    for attribute in shingler.attributes() {
        if record.schema().index_of(attribute).is_none() {
            return Err(CoreError::Config(format!(
                "attribute '{attribute}' selected for blocking does not exist in the schema of the probe record"
            )));
        }
    }
    let Some(signature) = shingler.signature(hasher, record) else {
        // Text-free records are never indexed, so they collide with nothing
        // — exactly like the ingest path skipping them.
        return Ok(Vec::new());
    };
    let sem_signature = semantic.map(|semantic| {
        let interpretation = semantic.config.function.interpret(record);
        semantic.family.signature(&semantic.config.taxonomy, &interpretation)
    });
    let mut candidates: Vec<RecordId> = Vec::new();
    let mut collect = |bucket: &super::Bucket| {
        candidates.extend(
            bucket
                .members
                .iter()
                .copied()
                .filter(|member| *member != record.id() && !removed[member.index()]),
        );
    };
    for (band_index, band) in bands.iter().enumerate() {
        let bucket_key = banding.band_key(&signature, band_index);
        match (semantic, &sem_signature) {
            (Some(semantic), Some(sem)) => {
                for sub in semantic.band_hashes[band_index].sub_keys(sem) {
                    let key = (bucket_key, sub as u64);
                    if let Some(bucket) = band.get(&key) {
                        collect(bucket);
                    }
                }
            }
            _ => {
                if let Some(bucket) = band.get(&(bucket_key, 0)) {
                    collect(bucket);
                }
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{lsh_builder, salsh_pair, sample_dataset, titles_dataset};
    use super::*;
    use crate::blocking::Blocker;
    use sablock_datasets::Schema;
    use std::collections::BTreeSet;

    /// The reference lookup: the partners one-shot blocking pairs a probe
    /// with are exactly the records sharing a block with it.
    fn one_shot_partners(blocks: &BlockCollection, probe: RecordId) -> Vec<RecordId> {
        let mut partners: Vec<RecordId> = Vec::new();
        for block in blocks.blocks() {
            if block.members().contains(&probe) {
                partners.extend(block.members().iter().copied().filter(|&id| id != probe));
            }
        }
        partners.sort_unstable();
        partners.dedup();
        partners
    }

    #[test]
    fn view_candidates_match_one_shot_partners() {
        let dataset = sample_dataset();
        let (one_shot, mut incremental) = salsh_pair();
        let corpus = &dataset.records()[..7];
        incremental.insert_batch(corpus).unwrap();
        let view = incremental.publish_view();
        let reference = one_shot.block(&dataset).unwrap();

        // Probe with the last record, re-identified as the next dense id so
        // it plays the role of a new arrival over the 7-record corpus.
        let probe_source = &dataset.records()[7];
        let probe = Record::new(
            view.next_record_id(),
            std::sync::Arc::clone(probe_source.schema()),
            probe_source.values().to_vec(),
        )
        .unwrap();
        let expected = one_shot_partners(&reference, RecordId(7));
        assert_eq!(view.candidates(&probe).unwrap(), expected);
        assert_eq!(incremental.query_candidates(&probe).unwrap(), expected);
        assert!(!expected.is_empty(), "the sample corpus collides with the probe");
        assert!(view.name().starts_with("Incremental-SA-LSH("));
    }

    #[test]
    fn views_are_frozen_at_the_publication_point() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(&dataset.records()[..4]).unwrap();
        let early = incremental.publish_view();
        let early_blocks = early.snapshot();

        incremental.insert_batch(&dataset.records()[4..]).unwrap();
        incremental.remove(RecordId(1)).unwrap();
        let late = incremental.publish_view();

        // The early view still renders the 4-record state, byte for byte,
        // even though the writer has since mutated (and compacted) shards.
        assert_eq!(early.snapshot().blocks(), early_blocks.blocks());
        assert_eq!(early.num_records(), 4);
        assert_eq!(early.num_live_records(), 4);
        assert!(early.is_live(RecordId(1)), "the early view predates the removal");
        assert!(!late.is_live(RecordId(1)));
        assert!(!late.is_live(RecordId(99)), "never-ingested ids are not live");
        assert_eq!(late.num_records(), dataset.len());
        assert_eq!(late.snapshot().blocks(), incremental.snapshot().blocks());
        assert_eq!(late.running_counts(), incremental.running_counts());
        assert_eq!(early.next_record_id(), RecordId(4));
    }

    /// The `(band, sub-map)` slots holding a record's buckets.
    fn sub_maps_of(blocker: &IncrementalSaLshBlocker, id: RecordId) -> BTreeSet<(usize, usize)> {
        blocker.bucket_refs[id.index()]
            .iter()
            .map(|reference| (reference.band, BandIndex::sub_map_of(reference.key)))
            .collect()
    }

    /// Every sub-map outside `touched` is still the view's allocation, and
    /// every one inside it has been copied away from the view.
    fn assert_only_touched_copied(
        blocker: &IncrementalSaLshBlocker,
        view: &IndexView,
        touched: &BTreeSet<(usize, usize)>,
    ) {
        for (band, (head, frozen)) in blocker.bands.iter().zip(&view.bands).enumerate() {
            for (sub, (mine, theirs)) in head.sub_maps().iter().zip(frozen.sub_maps()).enumerate() {
                let copied = !Arc::ptr_eq(mine, theirs);
                assert_eq!(copied, touched.contains(&(band, sub)), "band {band} sub-map {sub}");
            }
        }
    }

    /// With a view held, a one-row insert or removal copies the sub-maps
    /// holding the record's buckets — at most one per band — and nothing
    /// else, the same number on a 1k- and an 8k-record index; with no view
    /// held it copies nothing.
    #[test]
    fn one_row_writes_copy_at_most_one_sub_map_per_band() {
        use sablock_datasets::{CoraConfig, CoraGenerator};

        let dataset = CoraGenerator::new(CoraConfig { num_records: 8_001, ..CoraConfig::small() })
            .generate()
            .unwrap();
        let (corpus, rest) = dataset.records().split_at(8_000);
        let schema = Arc::clone(rest[0].schema());
        let row = rest[0].values().to_vec();
        let mut increments = Vec::new();
        for size in [1_000usize, 8_000] {
            let (_, mut blocker) = salsh_pair();
            let bands = blocker.bands.len();
            blocker.insert_batch(&corpus[..size]).unwrap();

            // No view held: the writer owns every sub-map and copies none.
            blocker.insert_values(&schema, vec![row.clone()]).unwrap();
            blocker.remove(RecordId(0)).unwrap();
            assert_eq!(blocker.cow_copies, 0, "size {size}: writes with no view held copy nothing");

            // View held: a one-row insert copies the row's sub-maps only.
            let view = blocker.publish_view();
            let inserted = blocker.next_record_id();
            blocker.insert_values(&schema, vec![row.clone()]).unwrap();
            let touched = sub_maps_of(&blocker, inserted);
            let insert_copies = blocker.cow_copies;
            assert!(!touched.is_empty(), "the row lands in some bucket");
            assert_eq!(insert_copies, touched.len() as u64, "size {size}");
            assert!(insert_copies as usize <= bands, "size {size}: {insert_copies} copies");
            assert_only_touched_copied(&blocker, &view, &touched);
            assert_eq!(blocker.publish_view().num_cow_copies(), insert_copies);

            // A fresh view shares everything again; removing the row copies
            // only the sub-maps holding its buckets.
            let view = blocker.publish_view();
            blocker.remove(inserted).unwrap();
            let remove_copies = blocker.cow_copies - insert_copies;
            assert_eq!(remove_copies, touched.len() as u64, "size {size}");
            assert_only_touched_copied(&blocker, &view, &touched);
            increments.push((insert_copies, remove_copies));
        }
        assert_eq!(increments[0], increments[1], "copies per one-row write do not grow with the index");
    }

    #[test]
    fn probe_validation_and_empty_probes() {
        let dataset = sample_dataset();
        let mut incremental = lsh_builder().into_incremental().unwrap();
        incremental.insert_batch(dataset.records()).unwrap();
        let view = incremental.publish_view();

        // A probe whose schema lacks the blocking attribute is rejected.
        let other = Schema::shared(["name"]).unwrap();
        let wrong = Record::new(RecordId(50), other, vec![Some("x".into())]).unwrap();
        assert!(view.candidates(&wrong).is_err());

        // A text-free probe collides with nothing.
        let empty = titles_dataset(&[""]);
        assert!(view.candidates(&empty.records()[0]).unwrap().is_empty());

        // Probing with an indexed record's own id excludes the record itself.
        let own = view.candidates(&dataset.records()[0]).unwrap();
        assert!(!own.contains(&RecordId(0)));
        assert_eq!(own, one_shot_partners(&view.snapshot(), RecordId(0)));

        // The view shingles with the blocker's shingler.
        assert!(!view.shingler().shingles(&dataset.records()[0]).is_empty());
        assert_eq!(view.entity_table().len(), 0, "unannotated ingest leaves the table empty");
    }
}
