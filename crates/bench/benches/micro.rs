//! Micro-benchmarks of the hot paths: q-gram extraction, ranked queries
//! (the bounded top-k walk against scoring every candidate and sorting,
//! under the served profiles), minhash signatures (one title, and the
//! served profiles' generated rows, checked against the reference loop),
//! semhash signatures, banding keys, the similarity metrics used by the
//! baselines, the streaming Γ counter against the materialising
//! `distinct_pairs()` oracle, and the partner walk of incremental ingest
//! against the one-shot Γ counter's.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

use sablock_core::blocking::{Block, BlockCollection, Blocker, EntityTableProbe, PairCounts};
use sablock_core::lsh::salsh::{SaLshBlocker, SaLshBlockerBuilder};
use sablock_core::lsh::semantic_hash::SemanticMode;
use sablock_core::lsh::{BandingScheme, SemanticConfig};
use sablock_core::minhash::shingle::RecordShingler;
use sablock_core::minhash::{MinHasher, MinhashConfig};
use sablock_core::semantic::pattern::PatternSemanticFunction;
use sablock_core::semantic::semhash::SemhashFamily;
use sablock_core::semantic::SemanticFunction;
use sablock_core::taxonomy::bib::bibliographic_taxonomy;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{CoraConfig, CoraGenerator, Dataset, Record, RecordId};
use sablock_eval::experiments::voter_dataset_of_size;
use sablock_serve::{CandidateService, EpochState};
use sablock_textual::hashing::mix64;
use sablock_textual::qgrams::hashed_qgram_set;
use sablock_textual::similarity::{SimilarityFunction, StringSimilarity};
use sablock_textual::JaccardScorer;

const TITLE_A: &str = "the cascade correlation learning architecture for neural networks";
const TITLE_B: &str = "a genetic cascade correlation learning algorithm for neural nets";

fn bench_textual(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/textual");
    group.bench_function("qgram_set_q4", |b| b.iter(|| hashed_qgram_set(black_box(TITLE_A), 4)));

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

/// Corpus rows and held-out probes per served profile in the ranked query
/// group, and how many best candidates each probe asks for.
const QUERYK_CORPUS: usize = 4_000;
const QUERYK_PROBES: usize = 500;
const QUERYK_K: usize = 10;

/// The served profiles' blockers (`sablock-serve --profile cora|voter`).
fn served_profiles() -> [(&'static str, SaLshBlockerBuilder, Dataset); 2] {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let family = SemhashFamily::from_all_leaves(&tree).unwrap();
    let semantic =
        SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or).with_seed(11).with_pinned_family(family);
    let rows = QUERYK_CORPUS + QUERYK_PROBES;
    let cora = CoraGenerator::new(CoraConfig { num_records: rows, ..CoraConfig::default() }).generate().unwrap();
    let voter = voter_dataset_of_size(rows).expect("voter dataset");
    let builder = || SaLshBlocker::builder().seed(0xB10C);
    [
        (
            "cora",
            builder().attributes(["title", "authors"]).qgram(3).bands(8).rows_per_band(2).semantic(semantic),
            cora,
        ),
        ("voter", builder().attributes(["first_name", "last_name", "city"]).qgram(2).bands(10).rows_per_band(3), voter),
    ]
}

/// The ranking the bounded walk must reproduce: every candidate scored in
/// full, all of them sorted by score descending then id ascending, the
/// first `k` kept.
fn score_all_and_sort(state: &EpochState, probe: &Record, k: usize) -> Vec<(RecordId, f64)> {
    let shingler = state.view().shingler();
    let (mut text, mut hashes) = (String::new(), Vec::new());
    shingler.window_hashes_into(probe, &mut text, &mut hashes);
    let mut scorer = JaccardScorer::default();
    scorer.load(&hashes);
    let mut scored: Vec<(RecordId, f64)> = state
        .query(probe)
        .unwrap()
        .into_iter()
        .map(|id| {
            scorer.start(f64::NEG_INFINITY);
            shingler.walk_windows(state.record(id).unwrap(), &mut text, |hash, rest| scorer.push(hash, rest));
            (id, scorer.jaccard())
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// `QUERYK 10` for held-out probes over each served profile's generated
/// rows: the bounded top-k walk of `EpochState::query_top_k` against
/// scoring every candidate and sorting. Both include the candidate lookup;
/// setup asserts that they rank every probe the same.
fn bench_queryk(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/queryk");
    // A sample ranks 500 probes (tens to hundreds of ms); ten keep the
    // group to seconds.
    group.sample_size(10);
    for (name, builder, dataset) in served_profiles() {
        let service = CandidateService::new(builder.into_incremental().unwrap(), Arc::clone(dataset.schema())).unwrap();
        let rows: Vec<Vec<Option<String>>> = dataset.records().iter().map(|record| record.values().to_vec()).collect();
        let (corpus, held_out) = rows.split_at(QUERYK_CORPUS);
        service.insert_rows(corpus.to_vec()).unwrap();
        let state = service.current();
        let probes: Vec<Record> = held_out.iter().map(|values| service.probe_record(&state, values.clone()).unwrap()).collect();
        for probe in &probes {
            assert_eq!(
                state.query_top_k(probe, QUERYK_K).unwrap(),
                score_all_and_sort(&state, probe, QUERYK_K),
                "the bounded walk must rank exactly like scoring every candidate"
            );
        }
        group.bench_function(format!("{name}_bounded_walk_{QUERYK_PROBES}probes"), |b| {
            b.iter(|| probes.iter().map(|probe| state.query_top_k(black_box(probe), QUERYK_K).unwrap().len()).sum::<usize>())
        });
        group.bench_function(format!("{name}_score_all_and_sort_{QUERYK_PROBES}probes"), |b| {
            b.iter(|| probes.iter().map(|probe| score_all_and_sort(&state, black_box(probe), QUERYK_K).len()).sum::<usize>())
        });
    }
    group.finish();
}

/// Generated rows per served profile in the signature group.
const SIGNATURE_ROWS: usize = 2_000;

/// The minhash signature by definition, the loop the kernel replaced: per
/// window, per hash function, keep the smaller of the slot and
/// `mix64(window ^ seed)`, with the seeds `MinHasher::new` draws (one
/// `StdRng::seed_from_u64(seed)` draw per hash function).
fn reference_signature(num_hashes: usize, seed: u64, windows: &[u64]) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds: Vec<u64> = (0..num_hashes).map(|_| rng.gen()).collect();
    let mut signature = vec![u64::MAX; num_hashes];
    for &window in windows {
        for (slot, &seed) in signature.iter_mut().zip(&seeds) {
            *slot = (*slot).min(mix64(window ^ seed));
        }
    }
    signature
}

fn bench_signatures(c: &mut Criterion) {
    let shingles = hashed_qgram_set(TITLE_A, 4);
    let hasher = MinHasher::from_config(&MinhashConfig::cora_paper());
    let banding = BandingScheme::new(63, 4).unwrap();
    let signature = hasher.signature(&shingles);

    let mut group = c.benchmark_group("micro/signatures");
    group.bench_function("minhash_signature_252", |b| b.iter(|| hasher.signature(black_box(&shingles))));
    group.bench_function("band_keys_63", |b| b.iter(|| banding.band_keys(black_box(&signature))));

    // The two served profiles (`sablock-serve --profile cora|voter`) over
    // generated rows' window hashes, as block and ingest fold them: Cora
    // titles and authors in trigrams into 8 × 2 = 16 hash functions, voter
    // names and city in bigrams into 10 × 3 = 30.
    let cora_config = CoraConfig { num_records: SIGNATURE_ROWS, ..CoraConfig::small() };
    let cora = CoraGenerator::new(cora_config).generate().unwrap();
    let voter = voter_dataset_of_size(SIGNATURE_ROWS).expect("voter dataset");
    let profiles = [
        ("cora_q3", &cora, RecordShingler::new(["title", "authors"], 3).unwrap(), 16),
        ("voter_q2", &voter, RecordShingler::new(["first_name", "last_name", "city"], 2).unwrap(), 30),
    ];
    for (name, dataset, shingler, num_hashes) in profiles {
        let (mut text, mut rows) = (String::new(), Vec::new());
        for record in dataset.records() {
            let mut windows = Vec::new();
            shingler.window_hashes_into(record, &mut text, &mut windows);
            rows.push(windows);
        }
        let hasher = MinHasher::new(num_hashes, 0xB10C);
        for windows in &rows {
            assert_eq!(
                hasher.signature(windows),
                reference_signature(num_hashes, 0xB10C, windows),
                "the kernel must sign exactly like the reference loop"
            );
        }
        group.bench_function(format!("{name}_{num_hashes}h_{SIGNATURE_ROWS}rows"), |b| {
            b.iter(|| black_box(&rows).iter().map(|windows| hasher.signature(windows)[0]).fold(0, u64::wrapping_add))
        });
    }
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

criterion_group!(benches, bench_textual, bench_queryk, bench_signatures, bench_semantics, bench_gamma_count, bench_partner_walk);
criterion_main!(benches);
