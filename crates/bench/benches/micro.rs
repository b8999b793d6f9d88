//! Micro-benchmarks of the hot paths: q-gram extraction, scoring one ranked
//! query candidate (fresh hash sets, a reused hash set, and the
//! allocation-free kernel), minhash signatures, semhash signatures, banding
//! keys, the similarity metrics used by the baselines, the streaming Γ
//! counter against the materialising `distinct_pairs()` oracle, and the
//! partner walk of incremental ingest against the one-shot Γ counter's.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sablock_core::blocking::{Block, BlockCollection, Blocker, EntityTableProbe, PairCounts};
use sablock_core::lsh::salsh::SaLshBlocker;
use sablock_core::lsh::BandingScheme;
use sablock_core::minhash::shingle::RecordShingler;
use sablock_core::minhash::{MinHasher, MinhashConfig};
use sablock_core::semantic::pattern::PatternSemanticFunction;
use sablock_core::semantic::semhash::SemhashFamily;
use sablock_core::semantic::SemanticFunction;
use sablock_core::taxonomy::bib::bibliographic_taxonomy;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{CoraConfig, CoraGenerator, RecordId};
use sablock_eval::experiments::voter_dataset_of_size;
use sablock_textual::qgrams::hashed_qgram_set;
use sablock_textual::similarity::{SimilarityFunction, StringSimilarity};
use sablock_textual::{jaccard, JaccardScorer, StableHashSet};

const TITLE_A: &str = "the cascade correlation learning architecture for neural networks";
const TITLE_B: &str = "a genetic cascade correlation learning algorithm for neural nets";

fn bench_textual(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/textual");
    group.bench_function("qgram_set_q4", |b| b.iter(|| hashed_qgram_set(black_box(TITLE_A), 4)));

    // One QUERYK candidate under the served Cora shingling (title + authors,
    // q = 3), probe already shingled, scored three ways: a fresh hash set
    // per candidate; window hashes in reused buffers collected into a
    // reused hash set; the same window hashes scored by a loaded probe
    // table. The middle case separates what the table adds from what
    // reusing buffers saves.
    let dataset = CoraGenerator::new(CoraConfig { num_records: 2, ..CoraConfig::small() }).generate().unwrap();
    let (probe, candidate) = (&dataset.records()[0], &dataset.records()[1]);
    let shingler = RecordShingler::new(["title", "authors"], 3).unwrap();
    let probe_set = shingler.shingles(probe);
    let (mut text, mut hashes, mut set) = (String::new(), Vec::new(), StableHashSet::default());
    shingler.window_hashes_into(probe, &mut text, &mut hashes);
    let mut scorer = JaccardScorer::default();
    scorer.load(&hashes);
    let mut score_reused_set = |candidate| {
        shingler.window_hashes_into(candidate, &mut text, &mut hashes);
        set.clear();
        set.extend(hashes.iter().copied());
        jaccard(&probe_set, &set)
    };
    let reference = jaccard(&probe_set, &shingler.shingles(candidate));
    assert_eq!(score_reused_set(candidate), reference, "the reused set must score exactly like the reference");
    group.bench_function("score_candidate_reference", |b| {
        b.iter(|| jaccard(&probe_set, &shingler.shingles(black_box(candidate))))
    });
    group.bench_function("score_candidate_reused_set", |b| b.iter(|| score_reused_set(black_box(candidate))));
    let (mut text, mut hashes) = (String::new(), Vec::new());
    shingler.window_hashes_into(candidate, &mut text, &mut hashes);
    assert_eq!(scorer.score(&hashes), reference, "the kernel must score exactly like the reference");
    group.bench_function("score_candidate_kernel", |b| {
        b.iter(|| {
            shingler.window_hashes_into(black_box(candidate), &mut text, &mut hashes);
            scorer.score(&hashes)
        })
    });
    for function in [
        SimilarityFunction::JaroWinkler,
        SimilarityFunction::QGram(2),
        SimilarityFunction::EditDistance,
        SimilarityFunction::LongestCommonSubstring,
    ] {
        group.bench_function(format!("similarity/{}", function.name()), |b| {
            b.iter(|| function.similarity(black_box(TITLE_A), black_box(TITLE_B)))
        });
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let shingles = hashed_qgram_set(TITLE_A, 4);
    let hasher = MinHasher::from_config(&MinhashConfig::cora_paper());
    let banding = BandingScheme::new(63, 4).unwrap();
    let signature = hasher.signature(&shingles);

    let mut group = c.benchmark_group("micro/signatures");
    group.bench_function("minhash_signature_252", |b| b.iter(|| hasher.signature(black_box(&shingles))));
    group.bench_function("band_keys_63", |b| b.iter(|| banding.band_keys(black_box(&signature))));
    group.finish();
}

fn bench_semantics(c: &mut Criterion) {
    let dataset = CoraGenerator::new(CoraConfig {
        num_records: 200,
        ..CoraConfig::small()
    })
    .generate()
    .unwrap();
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let interpretations: Vec<_> = dataset.records().iter().map(|r| zeta.interpret(r)).collect();
    let family = SemhashFamily::build(&tree, interpretations.iter()).unwrap();
    let record = &dataset.records()[0];

    let mut group = c.benchmark_group("micro/semantics");
    group.bench_function("interpret_record", |b| b.iter(|| zeta.interpret(black_box(record))));
    group.bench_function("semhash_signature", |b| {
        b.iter(|| family.signature(black_box(&tree), black_box(&interpretations[0])))
    });
    group.finish();
}

/// A deterministic xorshift so the synthetic collection is reproducible
/// without pulling the dataset generators into a micro-bench.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// An overlap-heavy synthetic collection of about 1M redundant pairs:
/// 3,200 blocks of up to 32 members, each drawn from a 64-id window of a
/// 4,000-record universe, so a record sits in about 20 blocks and a
/// distinct pair repeats in about 4.5 of them (989,398 redundant pairs,
/// 222,427 distinct).
fn synthetic_collection() -> BlockCollection {
    let mut rng = XorShift(0x5AB10C);
    let blocks = (0..3_200)
        .map(|i| {
            let base = rng.next() % 4_000;
            let members = (0..32)
                .map(|_| RecordId(u32::try_from(base + rng.next() % 64).expect("synthetic ids fit u32")))
                .collect();
            Block::new(format!("b{i}"), members)
        })
        .collect();
    BlockCollection::from_blocks(blocks)
}

fn bench_gamma_count(c: &mut Criterion) {
    let collection = synthetic_collection();
    let probe = |p: &RecordPair| p.first().0 % 7 == 0;
    let oracle = |collection: &BlockCollection| {
        let pairs = collection.distinct_pairs();
        PairCounts { distinct: pairs.len() as u64, matching: pairs.iter().filter(|p| probe(p)).count() as u64 }
    };
    let redundant = collection.redundant_pair_count();
    let expected = oracle(&collection);
    assert!(expected.distinct < redundant, "the synthetic collection repeats pairs across blocks");
    assert_eq!(collection.stream_packed_counts(probe), expected, "the streaming counter must count like the oracle");

    let mut group = c.benchmark_group("micro/gamma_count");
    group.sample_size(10);
    group.bench_function(format!("distinct_pairs_oracle_{redundant}p"), |b| {
        b.iter(|| oracle(black_box(&collection)))
    });
    group.bench_function(format!("stream_packed_counts_{redundant}p"), |b| {
        b.iter(|| black_box(&collection).stream_packed_counts(probe))
    });
    group.finish();
}

/// Voter rows the partner-walk group ingests: four 4,096-row batches.
const PARTNER_WALK_RECORDS: usize = 16_384;

/// The two partner walks over one corpus: incremental ingest in 4,096-row
/// batches, whose delta walk anchors every pair on its larger id, and the
/// one-shot Γ counter over the same corpus's blocks. Both walk every
/// redundant pair once, so both names carry that count and ns per partner
/// reads straight off the times (the ingest time also holds the batch's
/// signatures and band updates). The blocker is the served voter profile
/// (`sablock-serve --profile voter`): textual LSH over first name, last
/// name and city, 10 bands of 3 rows over bigrams.
fn bench_partner_walk(c: &mut Criterion) {
    let dataset = voter_dataset_of_size(PARTNER_WALK_RECORDS).expect("voter dataset");
    let builder = SaLshBlocker::builder()
        .attributes(["first_name", "last_name", "city"])
        .minhash(MinhashConfig { bands: 10, rows_per_band: 3, qgram: 2, seed: 0xB10C });
    let blocks = builder.clone().build().expect("blocker").block(&dataset).expect("one-shot blocks");
    let entities = dataset.ground_truth().entity_table();
    let probe = EntityTableProbe::new(entities);
    let ingest = || {
        let mut index = builder.clone().into_incremental().expect("incremental blocker");
        for (batch, batch_entities) in dataset.records().chunks(4_096).zip(entities.chunks(4_096)) {
            index.insert_batch_with_entities(batch, batch_entities).expect("ingest");
        }
        index.running_counts().as_pair_counts()
    };
    let redundant = blocks.redundant_pair_count();
    let streamed = blocks.stream_packed_counts(probe);
    assert!(streamed.distinct < redundant, "the voter buckets repeat pairs");
    assert_eq!(ingest(), streamed, "the ingest's running counts must equal the one-shot streamed counts");

    let mut group = c.benchmark_group("micro/partner_walk");
    group.sample_size(10);
    group.bench_function(format!("ingest_4096r_batches_{redundant}p"), |b| b.iter(ingest));
    group.bench_function(format!("stream_packed_counts_{redundant}p"), |b| {
        b.iter(|| black_box(&blocks).stream_packed_counts(probe))
    });
    group.finish();
}

criterion_group!(benches, bench_textual, bench_signatures, bench_semantics, bench_gamma_count, bench_partner_walk);
criterion_main!(benches);
