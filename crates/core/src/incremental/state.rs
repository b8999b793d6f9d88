//! Exportable mutable state of an incremental index (persistence support).
//!
//! [`IndexDump`] is everything an [`IncrementalSaLshBlocker`] accumulates at
//! runtime — buckets, tombstones, entity annotations, running counters
//! — decoupled from its *configuration* (shingler, minhash permutations,
//! banding, pinned semantic family), which is deterministic from the builder
//! and therefore never serialised. A persistence layer encodes the dump in
//! whatever container format it likes; restoring it into a freshly built
//! blocker of the same configuration ([`IncrementalSaLshBlocker::restore`])
//! reproduces the dumped index **byte-identically**: same snapshots, same
//! running counts, and — because the bucket back-references are rebuilt in
//! the exact order ingest would have produced — same behaviour under every
//! future insert/remove sequence.
//!
//! Restore never trusts the dump: band counts, key ordering, member
//! ordering, id bounds and per-bucket tombstone accounting are all
//! re-validated, and violations surface as typed [`CoreError::Config`]
//! errors instead of corrupting the index (or panicking later).

use std::sync::Arc;

use sablock_datasets::ground_truth::EntityId;
use sablock_datasets::RecordId;

use crate::error::{CoreError, Result};

use super::{BandIndex, Bucket, BucketRef, DeltaPairs, IncrementalSaLshBlocker, RunningCounts};

/// One bucket of one band shard, in exportable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketDump {
    /// The `(textual bucket key, semantic sub-key)` the bucket lives under.
    pub key: (u64, u64),
    /// Members in strictly ascending id order — tombstoned members
    /// included, exactly as they linger in the live index.
    pub members: Vec<RecordId>,
    /// How many of `members` are currently tombstoned.
    pub dead: u32,
}

/// The full runtime state of an [`IncrementalSaLshBlocker`] (see the module
/// docs). Produced by [`IncrementalSaLshBlocker::dump`], consumed by
/// [`IncrementalSaLshBlocker::restore`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDump {
    /// Per band (ascending band order), the buckets sorted strictly
    /// ascending by key.
    pub bands: Vec<Vec<BucketDump>>,
    /// Dense tombstone flags; the length is the ingested id space, so
    /// `removed.len()` is the next record id.
    pub removed: Vec<bool>,
    /// Entity annotations (a dense prefix of the id space; shorter than
    /// `removed` when batches were ingested unannotated).
    pub entity_of: Vec<EntityId>,
    /// The running `|Γ|` / `|Γ_tp|` counters over the live corpus.
    pub running: RunningCounts,
    /// Number of batches ingested so far.
    pub batches_ingested: u64,
    /// Number of bucket compactions performed so far.
    pub compactions: u64,
    /// The dead fraction at which removal-touched buckets compact.
    pub compaction_threshold: f64,
}

impl IncrementalSaLshBlocker {
    /// Exports the blocker's runtime state (see [`IndexDump`]). The dump is
    /// fully deterministic: bucket keys are sorted per band, so two blockers
    /// with equal observable state produce equal dumps.
    pub fn dump(&self) -> IndexDump {
        let bands = self
            .bands
            .iter()
            .map(|band| {
                band.sorted()
                    .into_iter()
                    .map(|(&key, bucket)| BucketDump { key, members: bucket.members.clone(), dead: bucket.dead })
                    .collect()
            })
            .collect();
        let batches_ingested = self.batches_ingested as u64;
        IndexDump {
            bands,
            removed: self.removed.clone(),
            entity_of: self.entity_of.clone(),
            running: self.running,
            batches_ingested,
            compactions: self.compactions,
            compaction_threshold: self.compaction_threshold,
        }
    }

    /// Installs a dumped state into a freshly built blocker of the same
    /// configuration, consuming it builder-style. Everything the dump
    /// claims is re-validated (band count, key/member ordering, id bounds,
    /// tombstone accounting); violations return [`CoreError::Config`] and
    /// leave no half-restored index behind.
    ///
    /// The restored blocker is observationally identical to the dumped one:
    /// snapshots, candidate lookups, running counts and all future
    /// insert/remove behaviour match byte for byte (the per-record bucket
    /// back-references are rebuilt in exactly the band-then-key order ingest
    /// produces). The only non-restored state is the last per-batch delta,
    /// which resets to empty — it describes an ingest call, not the index.
    pub fn restore(mut self, dump: IndexDump) -> Result<Self> {
        if self.next_id != 0 {
            return Err(CoreError::Config(
                "restore target must be a freshly built incremental blocker with no ingested records".into(),
            ));
        }
        if dump.bands.len() != self.bands.len() {
            return Err(CoreError::Config(format!(
                "dump carries {} band shards but the blocker is configured for {}",
                dump.bands.len(),
                self.bands.len()
            )));
        }
        let dumped_len = dump.removed.len();
        let claimed = dumped_len as u64;
        let next_id = u32::try_from(dumped_len).map_err(|_| CoreError::RecordIdOverflow(claimed))?;
        if dump.entity_of.len() > dumped_len {
            return Err(CoreError::Config(format!(
                "dump annotates {} entities over an id space of {dumped_len}",
                dump.entity_of.len()
            )));
        }
        if !dump.compaction_threshold.is_finite() || dump.compaction_threshold < 0.0 {
            return Err(CoreError::Config(format!(
                "dump compaction threshold {} is not a finite non-negative fraction",
                dump.compaction_threshold
            )));
        }
        let batches_ingested = usize::try_from(dump.batches_ingested)
            .map_err(|_| CoreError::Config(format!("dump batch count {} overflows usize", dump.batches_ingested)))?;

        // Validation + back-reference rebuild in one borrow pass. Walking
        // bands ascending and keys ascending appends each live record's refs
        // in exactly the order ingest accumulated them, so future removals
        // behave identically on the restored index.
        let mut bucket_refs: Vec<Vec<BucketRef>> = vec![Vec::new(); dumped_len];
        for (band, buckets) in dump.bands.iter().enumerate() {
            let mut previous_key: Option<(u64, u64)> = None;
            for bucket in buckets {
                if previous_key.is_some_and(|previous| previous >= bucket.key) {
                    return Err(CoreError::Config(format!(
                        "band {band} bucket keys are not strictly ascending at {:?}",
                        bucket.key
                    )));
                }
                previous_key = Some(bucket.key);
                if bucket.members.is_empty() {
                    return Err(CoreError::Config(format!(
                        "band {band} bucket {:?} has no members — empty buckets are never stored",
                        bucket.key
                    )));
                }
                let mut dead = 0u32;
                let mut previous_member: Option<RecordId> = None;
                for &member in &bucket.members {
                    if member.index() >= dumped_len {
                        return Err(CoreError::Config(format!(
                            "band {band} bucket {:?} member {member} is outside the dumped id space of {dumped_len}",
                            bucket.key
                        )));
                    }
                    if previous_member.is_some_and(|previous| previous >= member) {
                        return Err(CoreError::Config(format!(
                            "band {band} bucket {:?} members are not strictly ascending at {member}",
                            bucket.key
                        )));
                    }
                    previous_member = Some(member);
                    if dump.removed[member.index()] {
                        dead += 1;
                    } else {
                        bucket_refs[member.index()].push(BucketRef { band, key: bucket.key });
                    }
                }
                if dead != bucket.dead {
                    return Err(CoreError::Config(format!(
                        "band {band} bucket {:?} claims {} dead members but {dead} are tombstoned",
                        bucket.key, bucket.dead
                    )));
                }
            }
        }

        let removed_count = dump.removed.iter().filter(|&&removed| removed).count();
        self.bands = dump
            .bands
            .into_iter()
            .map(|buckets| {
                let buckets = buckets
                    .into_iter()
                    .map(|bucket| (bucket.key, Bucket { members: bucket.members, dead: bucket.dead }))
                    .collect();
                Arc::new(BandIndex::from_buckets(buckets))
            })
            .collect();
        self.bucket_refs = bucket_refs;
        self.entity_of = dump.entity_of;
        self.running = dump.running;
        self.compaction_threshold = dump.compaction_threshold;
        self.compactions = dump.compactions;
        self.next_id = next_id;
        self.removed = dump.removed;
        self.removed_count = removed_count;
        self.last_delta = DeltaPairs::empty();
        self.batches_ingested = batches_ingested;
        // `check-invariants` builds: the cross-batch disjointness set starts
        // empty, which is sound — every future delta pair involves a record
        // with id ≥ the restored `next_id`, so it cannot collide with any
        // key the dumped index emitted before the dump.
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{lsh_builder, salsh_pair, sample_dataset};
    use super::super::IncrementalBlocker;
    use super::*;

    /// Dump → restore into a fresh twin → every observable must match.
    #[test]
    fn dump_restore_round_trips_byte_identically() {
        let dataset = sample_dataset();
        let (_, mut original) = salsh_pair();
        for chunk in dataset.records().chunks(3) {
            original.insert_batch(chunk).unwrap();
        }
        original.remove(RecordId(2)).unwrap();

        let dump = original.dump();
        let (_, fresh) = salsh_pair();
        let restored = fresh.restore(dump.clone()).unwrap();

        assert_eq!(restored.snapshot().blocks(), original.snapshot().blocks());
        assert_eq!(restored.running_counts(), original.running_counts());
        assert_eq!(restored.num_records(), original.num_records());
        assert_eq!(restored.num_removed(), original.num_removed());
        assert_eq!(restored.num_batches(), original.num_batches());
        assert_eq!(restored.num_compactions(), original.num_compactions());
        assert_eq!(restored.dump(), dump, "re-dumping the restored index is a fixpoint");

        // Future behaviour matches: same inserts and removals on both sides
        // keep the twins byte-identical.
        let extra = sample_dataset();
        let rows: Vec<Vec<Option<String>>> =
            extra.records().iter().take(2).map(|r| r.values().to_vec()).collect();
        let schema = std::sync::Arc::clone(extra.records()[0].schema());
        let mut original = original;
        let mut restored = restored;
        original.insert_values(&schema, rows.clone()).unwrap();
        restored.insert_values(&schema, rows).unwrap();
        assert_eq!(restored.delta_pairs(), original.delta_pairs());
        original.remove(RecordId(0)).unwrap();
        restored.remove(RecordId(0)).unwrap();
        assert_eq!(restored.snapshot().blocks(), original.snapshot().blocks());
        assert_eq!(restored.running_counts(), original.running_counts());
        assert_eq!(restored.dump(), original.dump());
    }

    #[test]
    fn restore_validates_the_dump() {
        let dataset = sample_dataset();
        let mut blocker = lsh_builder().into_incremental().unwrap();
        blocker.insert_batch(dataset.records()).unwrap();
        let good = blocker.dump();

        let fresh = || lsh_builder().into_incremental().unwrap();

        // A non-empty target is rejected.
        let mut seeded = fresh();
        seeded.insert_batch(&dataset.records()[..1]).unwrap();
        assert!(seeded.restore(good.clone()).is_err());

        // Band-count mismatch.
        let mut bad = good.clone();
        bad.bands.pop();
        assert!(fresh().restore(bad).is_err());

        // Non-ascending bucket keys.
        let mut bad = good.clone();
        let band = bad.bands.iter_mut().find(|b| b.len() >= 2).expect("some band has 2+ buckets");
        band.swap(0, 1);
        assert!(fresh().restore(bad).is_err());

        // Member outside the id space.
        let mut bad = good.clone();
        bad.removed.pop();
        assert!(fresh().restore(bad).is_err());

        // Non-ascending members within a bucket.
        let mut bad = good.clone();
        let bucket = bad
            .bands
            .iter_mut()
            .flat_map(|band| band.iter_mut())
            .find(|bucket| bucket.members.len() >= 2)
            .expect("some bucket has 2+ members");
        bucket.members.swap(0, 1);
        assert!(fresh().restore(bad).is_err());

        // Dead-count mismatch.
        let mut bad = good.clone();
        bad.bands[0][0].dead += 1;
        assert!(fresh().restore(bad).is_err());

        // Empty bucket.
        let mut bad = good.clone();
        bad.bands[0][0].members.clear();
        bad.bands[0][0].dead = 0;
        assert!(fresh().restore(bad).is_err());

        // Oversized entity table.
        let mut bad = good.clone();
        bad.entity_of = vec![EntityId(0); bad.removed.len() + 1];
        assert!(fresh().restore(bad).is_err());

        // Non-finite compaction threshold.
        let mut bad = good.clone();
        bad.compaction_threshold = f64::NAN;
        assert!(fresh().restore(bad).is_err());

        // The pristine dump still restores after all those rejections.
        assert!(fresh().restore(good).is_ok());
    }
}
