//! Determinism regression tests: the entire pipeline — data generation,
//! signature computation and blocking — must be a pure function of its
//! configured seed, independent of thread count. Every experiment, test and
//! bench in this workspace relies on that reproducibility.

use sablock::core::minhash::shingle::RecordShingler;
use sablock::core::parallel::{parallel_map, with_threads};
use sablock::datasets::record::RecordPair;
use sablock::prelude::*;

fn small_cora() -> Dataset {
    CoraGenerator::new(CoraConfig { num_records: 250, seed: 0xD5EED, ..CoraConfig::default() })
        .generate()
        .unwrap()
}

fn salsh_blocker() -> SaLshBlocker {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    SaLshBlocker::builder()
        .attributes(["title", "authors"])
        .qgram(3)
        .rows_per_band(3)
        .bands(12)
        .seed(0xB10C)
        .semantic(SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or))
        .build()
        .unwrap()
}

/// The generator is a pure function of its seed: two runs with the same
/// config produce identical records and ground truth.
#[test]
fn generation_is_deterministic_for_a_fixed_seed() {
    let a = small_cora();
    let b = small_cora();
    assert_eq!(a.len(), b.len());
    assert_eq!(a.records(), b.records());
    assert_eq!(a.ground_truth().num_entities(), b.ground_truth().num_entities());
    let pairs = |d: &Dataset| d.ground_truth().true_match_pairs().collect::<Vec<_>>();
    assert_eq!(pairs(&a), pairs(&b));

    // And a different seed actually produces different data (the test would
    // be vacuous if the generator ignored its seed).
    let c = CoraGenerator::new(CoraConfig { num_records: 250, seed: 0x0DD5EED, ..CoraConfig::default() })
        .generate()
        .unwrap();
    assert_ne!(a.records(), c.records());
}

/// Blocking the same dataset twice with identically-configured blockers
/// yields byte-for-byte identical block collections.
#[test]
fn blocking_is_deterministic_for_a_fixed_seed() {
    let dataset = small_cora();
    let first = salsh_blocker().block(&dataset).unwrap();
    let second = salsh_blocker().block(&dataset).unwrap();
    assert_eq!(first.blocks(), second.blocks());
    assert_eq!(first.num_distinct_pairs(), second.num_distinct_pairs());
}

/// `parallel_map` splits work across scoped threads but must stitch results
/// back in input order: 1 worker and 4 workers give identical output, both
/// for a plain function and for the real signature pipeline.
#[test]
fn parallel_map_is_thread_count_invariant() {
    let numbers: Vec<u64> = (0..1_000).collect();
    let sequential = parallel_map(&numbers, 1, |x| x.wrapping_mul(2654435761).rotate_left(13));
    let parallel = parallel_map(&numbers, 4, |x| x.wrapping_mul(2654435761).rotate_left(13));
    assert_eq!(sequential, parallel);

    let dataset = small_cora();
    let shingler = RecordShingler::new(["title", "authors"], 3).unwrap();
    let hasher = MinHasher::new(36, 0x5EED);
    let shingles: Vec<_> = dataset.records().iter().map(|r| shingler.shingles(r)).collect();
    let signatures_1 = parallel_map(&shingles, 1, |set| hasher.signature(set));
    let signatures_4 = parallel_map(&shingles, 4, |set| hasher.signature(set));
    assert_eq!(signatures_1, signatures_4);
}

/// The sharded bucket phase must be thread-count invariant: blocking with 1
/// worker and with 4 workers produces byte-identical block collections
/// (same keys, same members, same order), for both plain LSH and SA-LSH.
#[test]
fn bucket_phase_is_thread_count_invariant() {
    let dataset = small_cora();
    let blocker_with = |semantic: bool| {
        let mut builder =
            SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(3).bands(12).seed(0xB10C);
        if semantic {
            let tree = bibliographic_taxonomy();
            let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
            builder = builder.semantic(SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or));
        }
        builder.build().unwrap()
    };
    for semantic in [false, true] {
        let blocker = blocker_with(semantic);
        let single = with_threads(1, || blocker.block(&dataset)).unwrap();
        let quad = with_threads(4, || blocker.block(&dataset)).unwrap();
        assert_eq!(single.blocks(), quad.blocks(), "semantic={semantic}");
        assert_eq!(single.distinct_pairs(), quad.distinct_pairs(), "semantic={semantic}");
    }
}

/// End-to-end: the full SA-LSH pipeline (which decides its own worker count
/// from the dataset size) produces the same blocks as a rerun, and its
/// evaluation metrics are stable — same seed ⇒ the same `BlockingMetrics`,
/// field for field.
#[test]
fn end_to_end_metrics_are_reproducible() {
    let dataset = small_cora();
    let blocker = salsh_blocker();
    let first = BlockingMetrics::evaluate(&blocker.block(&dataset).unwrap(), dataset.ground_truth());
    let second = BlockingMetrics::evaluate(&blocker.block(&dataset).unwrap(), dataset.ground_truth());
    assert_eq!(first, second, "same seed must reproduce every metric field");
    assert_eq!(first.pc(), second.pc());
    assert_eq!(first.pq(), second.pq());
    assert_eq!(first.rr(), second.rr());
    assert_eq!(first.candidate_pairs, second.candidate_pairs);
}

/// The streaming Γ evaluation is thread-count invariant: counting the same
/// block collection with 1 worker and with 4 workers produces identical
/// `BlockingMetrics` (and both agree with the materialised reference), for
/// every slice count of the pair-space partitioning.
#[test]
fn streaming_evaluation_is_thread_count_invariant() {
    let dataset = small_cora();
    let blocks = salsh_blocker().block(&dataset).unwrap();
    let truth = dataset.ground_truth();
    let reference = BlockingMetrics::evaluate_materialised(&blocks, truth);
    let single = with_threads(1, || BlockingMetrics::evaluate(&blocks, truth));
    let quad = with_threads(4, || BlockingMetrics::evaluate(&blocks, truth));
    assert_eq!(single, quad, "1 vs 4 streaming workers");
    assert_eq!(single, reference, "streaming vs materialised");
    // The same invariance holds when the pair space is force-split into
    // slices far smaller than the automatic heuristic would pick.
    for slices in [2usize, 5, 16] {
        for threads in [1usize, 4] {
            let counts = with_threads(threads, || {
                blocks.stream_packed_counts_sliced(slices, |p: &RecordPair| truth.is_match_pair(p))
            });
            assert_eq!(counts.distinct, reference.candidate_pairs, "slices={slices} threads={threads}");
            assert_eq!(counts.matching, reference.true_positives, "slices={slices} threads={threads}");
        }
    }
}

/// The parallel suffix-array, q-gram and sorted-neighbourhood bucket
/// constructions, and meta-blocking's chunked graph build, are thread-count
/// invariant: 1 worker and 4 workers produce byte-identical block output on
/// a dataset large enough to engage the chunked parallel path.
#[test]
fn baseline_bucket_construction_is_thread_count_invariant() {
    use sablock::baselines::{
        AdaptiveSortedNeighbourhood, AllSubstringsBlocking, BlockingKey, MetaBlocking, PruningAlgorithm, QGramBlocking,
        RobustSuffixArrayBlocking, SortedNeighbourhoodArray, SortedNeighbourhoodInverted, SuffixArrayBlocking,
        WeightingScheme,
    };
    use sablock::textual::similarity::SimilarityFunction;

    // > 1,024 records so the chunked parallel index construction engages;
    // SuA's 2,292 blocks also exceed the graph build's 256-block chunks.
    let dataset = NcVoterGenerator::new(NcVoterConfig { num_records: 2_500, ..NcVoterConfig::small() })
        .generate()
        .unwrap();

    let suffix_array = || SuffixArrayBlocking::new(BlockingKey::ncvoter(), 3, 10).unwrap();
    let blockers: Vec<(&str, Box<dyn Blocker>)> = vec![
        ("SuA", Box::new(suffix_array())),
        ("SuAS", Box::new(AllSubstringsBlocking::new(BlockingKey::ncvoter(), 3, 10).unwrap())),
        (
            "RSuA",
            Box::new(
                RobustSuffixArrayBlocking::new(BlockingKey::ncvoter(), 3, 10, SimilarityFunction::JaroWinkler, 0.9)
                    .unwrap(),
            ),
        ),
        ("QGr", Box::new(QGramBlocking::new(BlockingKey::ncvoter(), 2, 0.8).unwrap())),
        ("SorA", Box::new(SortedNeighbourhoodArray::new(BlockingKey::ncvoter(), 3).unwrap())),
        ("SorII", Box::new(SortedNeighbourhoodInverted::new(BlockingKey::ncvoter(), 3).unwrap())),
        (
            "ASor",
            Box::new(
                AdaptiveSortedNeighbourhood::new(BlockingKey::ncvoter(), SimilarityFunction::JaroWinkler, 0.9).unwrap(),
            ),
        ),
        (
            "SuA+CBS+WEP",
            Box::new(MetaBlocking::new(suffix_array(), WeightingScheme::Cbs, PruningAlgorithm::WeightedEdgePruning)),
        ),
    ];
    for (name, blocker) in blockers {
        let run = |threads: usize| {
            with_threads(threads, || {
                let blocks = blocker.block(&dataset).unwrap();
                let distinct = blocks.num_distinct_pairs();
                (blocks, distinct)
            })
        };
        let (single, single_distinct) = run(1);
        let (quad, quad_distinct) = run(4);
        assert_eq!(single.blocks(), quad.blocks(), "{name}: 1 vs 4 worker block output");
        assert_eq!(single_distinct, quad_distinct, "{name}: streamed pair counts");
    }
}

/// Canopy and string-map — the last baselines to gain a parallel path — are
/// thread-count invariant too: representation build and key extraction go
/// through the chunked index construction, similarity scans through
/// `parallel_map`, and 1-worker vs 4-worker runs produce byte-identical
/// blocks on a dataset large enough to engage the chunked path.
#[test]
fn canopy_and_stringmap_are_thread_count_invariant() {
    use sablock::baselines::{
        BlockingKey, CanopyNearestNeighbour, CanopySimilarity, CanopyThreshold, StringMapNearestNeighbour,
        StringMapThreshold,
    };
    use sablock::textual::SimilarityFunction;

    // > 1,024 records so `build_index_chunked` actually chunks.
    let dataset = NcVoterGenerator::new(NcVoterConfig { num_records: 1_100, ..NcVoterConfig::small() })
        .generate()
        .unwrap();

    let blockers: Vec<(&str, Box<dyn Blocker>)> = vec![
        (
            "CaTh",
            Box::new(
                CanopyThreshold::new(BlockingKey::ncvoter(), CanopySimilarity::TfIdfCosine, 0.9, 0.6)
                    .unwrap()
                    .with_seed(5),
            ),
        ),
        (
            "CaNN",
            Box::new(
                CanopyNearestNeighbour::new(BlockingKey::ncvoter(), CanopySimilarity::Jaccard { q: 2 }, 5, 10)
                    .unwrap()
                    .with_seed(5),
            ),
        ),
        (
            "StMT",
            Box::new(
                StringMapThreshold::new(BlockingKey::ncvoter(), 6, 2.0, SimilarityFunction::JaroWinkler, 0.85).unwrap(),
            ),
        ),
        ("StMNN", Box::new(StringMapNearestNeighbour::new(BlockingKey::ncvoter(), 6, 5.0, 3).unwrap())),
    ];
    for (name, blocker) in blockers {
        let single = with_threads(1, || blocker.block(&dataset)).unwrap();
        let quad = with_threads(4, || blocker.block(&dataset)).unwrap();
        assert_eq!(single.blocks(), quad.blocks(), "{name}: 1 vs 4 worker block output");
    }
}

/// The batch-parallel incremental insert path (per-band shard updates via
/// `parallel_map_mut`, stitched in band order) must be thread-count
/// invariant *per batch*, not just at the end: identical per-batch delta
/// runs, identical running Γ/Γ_tp counters after every batch and removal,
/// and a byte-identical final snapshot for 1 vs 4 ingest workers.
#[test]
fn incremental_insert_is_thread_count_invariant_per_batch() {
    use sablock::core::incremental::IncrementalBlocker;

    let dataset = small_cora();
    let entities = dataset.ground_truth().entity_table();
    let mut single = salsh_blocker().into_incremental().unwrap();
    let mut quad = salsh_blocker().into_incremental().unwrap();
    let mut offset = 0usize;
    for chunk in dataset.records().chunks(64) {
        let batch_entities = &entities[offset..offset + chunk.len()];
        let delta_1 = with_threads(1, || single.insert_batch_with_entities(chunk, batch_entities).cloned()).unwrap();
        let delta_4 = with_threads(4, || quad.insert_batch_with_entities(chunk, batch_entities).cloned()).unwrap();
        offset += chunk.len();
        assert_eq!(delta_1, delta_4, "per-batch delta runs differ between 1 and 4 workers");
        assert_eq!(single.running_counts(), quad.running_counts(), "running counters diverged mid-stream");
        // Remove one record per batch so the subtraction path (built on the
        // back-references the parallel insert recorded) is exercised too.
        let victim = RecordId(offset as u32 - 1);
        assert_eq!(single.remove(victim).unwrap(), quad.remove(victim).unwrap());
        assert_eq!(single.running_counts(), quad.running_counts(), "removal subtraction diverged");
    }
    assert_eq!(single.snapshot().blocks(), quad.snapshot().blocks(), "1 vs 4 ingest workers");
}
