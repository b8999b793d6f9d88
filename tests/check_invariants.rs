//! Cora-scale exercise of the `check-invariants` runtime sanitizer.
//!
//! These tests always run and always assert the observable contracts
//! (delta totals matching one-shot counts, snapshot/count consistency,
//! removal bookkeeping). Built with `--features
//! sablock_core/check-invariants` — the way CI runs them — they
//! additionally drive every internal invariant assertion in
//! `sablock_core::invariants`: per-batch deltas distinct and pairwise
//! disjoint, the partner-dedup seen-set left clear after every insert and
//! removal, and the tombstone set staying inside the inserted id range.

use sablock::core::incremental::IncrementalBlocker;
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::datasets::record::RecordPair;
use sablock::prelude::*;

fn cora_dataset(records: usize) -> Dataset {
    CoraGenerator::new(CoraConfig { num_records: records, seed: 0xD5EED, ..CoraConfig::default() })
        .generate()
        .unwrap()
}

fn salsh_builder() -> SaLshBlockerBuilder {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let family = SemhashFamily::from_all_leaves(&tree).unwrap();
    SaLshBlocker::builder()
        .attributes(["title", "authors"])
        .qgram(3)
        .rows_per_band(2)
        .bands(8)
        .seed(0xB10C)
        .semantic(
            SemanticConfig::new(tree, zeta)
                .with_w(2)
                .with_mode(SemanticMode::Or)
                .with_seed(11)
                .with_pinned_family(family),
        )
}

/// One-shot SA-LSH blocking at Cora scale drives the streaming Γ counter —
/// dense ranks, inverted index, partner-dedup kernel — under the sanitizer,
/// and its streamed counts must agree with the materialised pair set.
#[test]
fn one_shot_blocking_under_sanitizer_matches_materialised_counts() {
    let dataset = cora_dataset(600);
    let blocker = salsh_builder().build().unwrap();
    let blocks = blocker.block(&dataset).unwrap();

    let truth = dataset.ground_truth();
    let streamed = blocks.stream_packed_counts(|pair: &RecordPair| truth.is_match(pair.first(), pair.second()));

    let mut distinct: Vec<_> = blocks.blocks().iter().flat_map(|b| b.pairs()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(streamed.distinct, distinct.len() as u64);
}

/// Batched ingest with interleaved removals at Cora scale: cumulative
/// per-batch delta counts must equal the one-shot distinct pair count, and
/// the tombstone bookkeeping must stay exact throughout. Under the
/// sanitizer this additionally proves every batch's delta disjoint from
/// all earlier ones.
#[test]
fn batched_ingest_under_sanitizer_sums_to_one_shot_counts() {
    let dataset = cora_dataset(500);
    let one_shot = salsh_builder().build().unwrap().block(&dataset).unwrap();
    let one_shot_distinct = one_shot.stream_packed_counts(|_: &RecordPair| false).distinct;

    let mut incremental = salsh_builder().into_incremental().unwrap();
    let mut cumulative = 0u64;
    let sizes = [1usize, 7, 64, 128, 300];
    let mut offset = 0usize;
    let mut batch = 0usize;
    while offset < dataset.len() {
        let size = sizes.get(batch).copied().unwrap_or(97).min(dataset.len() - offset);
        let delta = incremental.insert_batch(&dataset.records()[offset..offset + size]).unwrap();
        cumulative += delta.num_pairs();
        offset += size;
        batch += 1;
    }
    assert_eq!(cumulative, one_shot_distinct, "cumulative deltas must sum to the one-shot distinct pairs");

    // Tombstone a few records afterwards so the tombstone checks run
    // against a bitmap that changes, including double-removal.
    for victim in [0u32, 17, 499] {
        assert!(incremental.remove(RecordId(victim)).unwrap());
        assert!(!incremental.remove(RecordId(victim)).unwrap());
    }
    assert_eq!(incremental.num_removed(), 3);
}

/// Snapshots taken mid-stream re-run the streaming Γ counter over the live
/// index; their streamed counts must never exceed the unfiltered total and
/// must be reproducible.
#[test]
fn snapshots_under_sanitizer_are_reproducible() {
    let dataset = cora_dataset(300);
    let mut incremental = salsh_builder().into_incremental().unwrap();
    incremental.insert_batch(&dataset.records()[..150]).unwrap();
    incremental.insert_batch(&dataset.records()[150..]).unwrap();
    incremental.remove(RecordId(10)).unwrap();

    let a = incremental.snapshot().stream_packed_counts(|_: &RecordPair| false).distinct;
    let b = incremental.snapshot().stream_packed_counts(|_: &RecordPair| false).distinct;
    assert_eq!(a, b, "snapshot pair counts must be reproducible");
}

/// Running counters + compaction at Cora scale under the sanitizer: an
/// annotated ingest followed by a removal storm (threshold 0.0, so every
/// touched bucket compacts immediately) drives the counter-subtraction and
/// bucket-tombstone-accounting checks on real data, and the counters must
/// land exactly on a from-scratch recount of the survivors.
#[test]
fn removal_storm_with_compaction_under_sanitizer_keeps_counts_exact() {
    let dataset = cora_dataset(400);
    let entities = dataset.ground_truth().entity_table();
    let mut incremental = salsh_builder().into_incremental().unwrap().with_compaction_threshold(0.0);
    let mut offset = 0usize;
    for chunk in dataset.records().chunks(80) {
        incremental
            .insert_batch_with_entities(chunk, &entities[offset..offset + chunk.len()])
            .unwrap();
        offset += chunk.len();
    }
    // Remove every third record — each removal subtracts its live pairs and
    // compacts every bucket it touched.
    for victim in (0..400u32).step_by(3) {
        assert!(incremental.remove(RecordId(victim)).unwrap());
    }
    assert!(incremental.num_compactions() > 0, "threshold 0.0 must have compacted buckets");
    // Forced compaction afterwards finds nothing left to do.
    assert_eq!(incremental.compact(), 0);

    let recount = incremental
        .snapshot()
        .stream_packed_counts(EntityTableProbe::new(incremental.entity_table()));
    assert_eq!(incremental.running_counts().pairs, recount.distinct);
    assert_eq!(incremental.running_counts().true_positives, recount.matching);
}
