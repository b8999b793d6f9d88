//! Integration tests of the incremental (streaming-ingest) blocking
//! subsystem: batched ingest of **any** partition of a dataset — batch size
//! 1, one giant batch, arbitrary random splits, with and without interleaved
//! removals — must be observationally identical to one-shot blocking, both
//! in block structure and in streamed Γ counts, and the golden Cora delta
//! trajectory is pinned so a drift in delta enumeration cannot hide behind a
//! correct final total.

use proptest::prelude::*;

use sablock::core::incremental::{IncrementalBlocker, IncrementalSaLshBlocker};
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::core::parallel::with_threads;
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::prelude::*;

/// The Cora quality configuration (the paper's k = 4, l = 63 operating
/// point is too heavy for per-case property tests; this is the small
/// configuration the workspace's other integration tests use).
fn cora_dataset(records: usize) -> Dataset {
    CoraGenerator::new(CoraConfig { num_records: records, seed: 0xD5EED, ..CoraConfig::default() })
        .generate()
        .unwrap()
}

fn lsh_builder() -> SaLshBlockerBuilder {
    SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(2).bands(8).seed(0xB10C)
}

/// SA-LSH over the bibliographic taxonomy with the semhash family pinned —
/// the family must be identical between the one-shot reference and the
/// incremental index for byte-level comparison (see `core::incremental`).
fn salsh_builder() -> SaLshBlockerBuilder {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let family = SemhashFamily::from_all_leaves(&tree).unwrap();
    lsh_builder().semantic(
        SemanticConfig::new(tree, zeta)
            .with_w(2)
            .with_mode(SemanticMode::Or)
            .with_seed(11)
            .with_pinned_family(family),
    )
}

/// Splits `records` into consecutive batches whose sizes follow `cuts`
/// (each at least 1); the tail goes into a final batch.
fn ingest_in_batches(
    blocker: &mut IncrementalSaLshBlocker,
    dataset: &Dataset,
    batch_sizes: &[usize],
) -> u64 {
    let mut offset = 0usize;
    let mut total_delta = 0u64;
    let mut sizes = batch_sizes.iter().copied();
    while offset < dataset.len() {
        let size = sizes.next().unwrap_or(dataset.len() - offset).clamp(1, dataset.len() - offset);
        let delta = blocker.insert_batch(&dataset.records()[offset..offset + size]).unwrap();
        total_delta += delta.num_pairs();
        offset += size;
    }
    total_delta
}

/// One-shot blocks with a set of record ids filtered out of every block —
/// the reference semantics of tombstoning removal.
fn filtered_reference(blocks: &BlockCollection, removed: &[RecordId]) -> BlockCollection {
    let filtered: Vec<Block> = blocks
        .blocks()
        .iter()
        .map(|b| {
            Block::new(
                b.key().to_string(),
                b.members().iter().copied().filter(|id| !removed.contains(id)).collect(),
            )
        })
        .collect();
    BlockCollection::from_blocks(filtered)
}

#[test]
fn extreme_batch_shapes_match_one_shot() {
    let dataset = cora_dataset(120);
    for (name, builder) in [("LSH", lsh_builder()), ("SA-LSH", salsh_builder())] {
        let reference = builder.clone().build().unwrap().block(&dataset).unwrap();
        // Batch size 1 (one insert per record) and one giant batch.
        for batch_size in [1usize, dataset.len()] {
            let mut incremental = builder.clone().into_incremental().unwrap();
            let sizes: Vec<usize> = vec![batch_size; dataset.len().div_ceil(batch_size)];
            let total_delta = ingest_in_batches(&mut incremental, &dataset, &sizes);
            let snapshot = incremental.snapshot();
            assert_eq!(snapshot.blocks(), reference.blocks(), "{name}, batch_size={batch_size}");
            assert_eq!(total_delta, reference.num_distinct_pairs(), "{name}, batch_size={batch_size}");
        }
    }
}

#[test]
fn incremental_ingest_is_thread_count_invariant() {
    let dataset = cora_dataset(150);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut incremental = salsh_builder().into_incremental().unwrap();
            for chunk in dataset.records().chunks(40) {
                incremental.insert_batch(chunk).unwrap();
            }
            incremental.snapshot()
        })
    };
    let single = run(1);
    let quad = run(4);
    assert_eq!(single.blocks(), quad.blocks(), "1 vs 4 ingest workers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any partition of the dataset into batches yields blocks and Γ counts
    /// identical to one-shot blocking, for plain LSH and pinned SA-LSH.
    #[test]
    fn any_batch_partition_matches_one_shot(
        sizes in proptest::collection::vec(1usize..40, 1..10),
        semantic in any::<bool>(),
    ) {
        let dataset = cora_dataset(90);
        let builder = if semantic { salsh_builder() } else { lsh_builder() };
        let reference = builder.clone().build().unwrap().block(&dataset).unwrap();
        let mut incremental = builder.into_incremental().unwrap();
        let total_delta = ingest_in_batches(&mut incremental, &dataset, &sizes);
        let snapshot = incremental.snapshot();
        prop_assert_eq!(snapshot.blocks(), reference.blocks());
        // Delta counts are disjoint across batches: their sum is |Γ| exactly,
        // and the streamed count of the snapshot agrees.
        prop_assert_eq!(total_delta, reference.num_distinct_pairs());
        let truth = dataset.ground_truth();
        let streamed = BlockingMetrics::evaluate(&snapshot, truth);
        let one_shot = BlockingMetrics::evaluate(&reference, truth);
        prop_assert_eq!(streamed, one_shot);
    }

    /// Interleaved inserts and removes: after every prefix of batches a few
    /// records are tombstoned; the final snapshot equals the one-shot blocks
    /// with exactly those records filtered out, and the streamed Γ counts of
    /// the two collections agree field for field.
    #[test]
    fn interleaved_inserts_and_removes_match_filtered_one_shot(
        sizes in proptest::collection::vec(1usize..30, 1..8),
        removals in proptest::collection::vec(0u32..80, 0..12),
        semantic in any::<bool>(),
    ) {
        let dataset = cora_dataset(80);
        let builder = if semantic { salsh_builder() } else { lsh_builder() };
        let reference = builder.clone().build().unwrap().block(&dataset).unwrap();
        let mut incremental = builder.into_incremental().unwrap();

        // Ingest batch by batch, removing the next queued id after each batch
        // (only ids already ingested are eligible — removal of future ids is
        // an error by contract).
        let mut removal_queue: Vec<RecordId> = removals.iter().map(|&id| RecordId(id)).collect();
        let mut removed: Vec<RecordId> = Vec::new();
        let mut offset = 0usize;
        let mut sizes_iter = sizes.iter().copied();
        while offset < dataset.len() {
            let size = sizes_iter.next().unwrap_or(dataset.len() - offset).clamp(1, dataset.len() - offset);
            incremental.insert_batch(&dataset.records()[offset..offset + size]).unwrap();
            offset += size;
            removal_queue.retain(|&id| {
                if id.index() < offset {
                    if incremental.remove(id).unwrap() {
                        removed.push(id);
                    }
                    false
                } else {
                    true
                }
            });
        }
        for id in removal_queue {
            // Whatever never became eligible is removed at the end (all ids
            // are ingested by now).
            if incremental.remove(id).unwrap() {
                removed.push(id);
            }
        }

        let expected = filtered_reference(&reference, &removed);
        let snapshot = incremental.snapshot();
        prop_assert_eq!(snapshot.blocks(), expected.blocks());
        let truth = dataset.ground_truth();
        prop_assert_eq!(
            BlockingMetrics::evaluate(&snapshot, truth),
            BlockingMetrics::evaluate(&expected, truth)
        );
    }
}

/// Golden Cora delta-pair trajectory: ingesting the deterministic 100-record
/// Cora prefix in five 20-record batches through the pinned SA-LSH
/// configuration must reproduce these exact per-batch delta counts **and**
/// per-batch running Γ/Γ_tp counter values (printed by
/// `cargo test --test incremental -- --nocapture` when they shift) — not
/// just the final sums, so a drift in the running-counter maintenance cannot
/// hide behind a correct total. The cumulative sum is additionally pinned
/// against the one-shot |Γ| so the table cannot drift as a whole.
#[test]
fn golden_cora_delta_pair_counts() {
    const GOLDEN_DELTAS: [u64; 5] = [66, 84, 76, 77, 340];
    const GOLDEN_RUNNING: [(u64, u64); 5] = [(66, 63), (150, 135), (226, 188), (303, 241), (643, 539)];
    let dataset = cora_dataset(100);
    let entities = dataset.ground_truth().entity_table();
    let mut incremental = salsh_builder().into_incremental().unwrap();
    let mut deltas = Vec::new();
    let mut running = Vec::new();
    let mut offset = 0usize;
    for chunk in dataset.records().chunks(20) {
        deltas.push(
            incremental
                .insert_batch_with_entities(chunk, &entities[offset..offset + chunk.len()])
                .unwrap()
                .num_pairs(),
        );
        offset += chunk.len();
        let counts = incremental.running_counts();
        running.push((counts.pairs, counts.true_positives));
    }
    println!("golden Cora delta counts: {deltas:?}");
    println!("golden Cora running (|Γ|, |Γ_tp|): {running:?}");
    assert_eq!(deltas, GOLDEN_DELTAS, "per-batch delta pair counts shifted");
    assert_eq!(running, GOLDEN_RUNNING, "per-batch running Γ/Γ_tp counters shifted");
    let reference = salsh_builder().build().unwrap().block(&dataset).unwrap();
    assert_eq!(deltas.iter().sum::<u64>(), reference.num_distinct_pairs());
    assert_eq!(incremental.snapshot().blocks(), reference.blocks());
    // The final running counters equal a full evaluation of the one-shot
    // blocking — PC's numerator straight from the counter.
    let reference_metrics = BlockingMetrics::evaluate(&reference, dataset.ground_truth());
    assert_eq!(incremental.running_counts().pairs, reference_metrics.candidate_pairs);
    assert_eq!(incremental.running_counts().true_positives, reference_metrics.true_positives);
}

/// FNV-1a-64 continued from `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Every golden Cora delta pinned byte for byte and in order: an
/// order-sensitive FNV-1a-64 digest over each batch's
/// `DeltaPairs::distinct_packed()` (keys as u64 little-endian, a `0xFF`
/// separator after each batch), for the pinned SA-LSH configuration over
/// the golden 100-record prefix ingested in irregular batch sizes. A
/// removal after some batches leaves tombstones in the buckets, so later
/// deltas walk buckets with dead members too. The documented delta order
/// does not depend on the worker count, so one and four workers must give
/// the same digest. Counts alone (`golden_cora_delta_pair_counts`) cannot
/// see a reordered or swapped key.
#[test]
fn golden_cora_deltas_are_pinned_byte_for_byte() {
    const GOLDEN: (u64, usize) = (0xb4ad_f63b_d7cb_f658, 641);
    const BATCH_SIZES: [usize; 9] = [1, 2, 17, 5, 33, 1, 9, 24, 8];
    const REMOVALS: [(usize, u32); 3] = [(2, 4), (4, 40), (6, 57)];
    let dataset = cora_dataset(100);
    let digest = |threads: usize| {
        with_threads(threads, || {
            let mut incremental = salsh_builder().into_incremental().unwrap();
            let (mut hash, mut keys, mut offset) = (0xCBF2_9CE4_8422_2325u64, 0usize, 0usize);
            for (batch, size) in BATCH_SIZES.into_iter().enumerate() {
                let delta = incremental.insert_batch(&dataset.records()[offset..offset + size]).unwrap();
                for key in delta.distinct_packed() {
                    hash = fnv1a(hash, &key.to_le_bytes());
                }
                hash = fnv1a(hash, &[0xFF]);
                keys += delta.distinct_packed().len();
                offset += size;
                for &(_, victim) in REMOVALS.iter().filter(|&&(after, _)| after == batch) {
                    assert!(incremental.remove(RecordId(victim)).unwrap());
                }
            }
            assert_eq!(offset, dataset.len(), "the batches cover the corpus");
            (hash, keys)
        })
    };
    let (single, quad) = (digest(1), digest(4));
    println!("    const GOLDEN: (u64, usize) = ({:#018x}, {});", single.0, single.1);
    assert_eq!(single, GOLDEN, "golden Cora deltas shifted (1 worker)");
    assert_eq!(quad, GOLDEN, "golden Cora deltas shifted (4 workers)");
}
