//! Micro-benchmarks of the hot paths: q-gram extraction, scoring one ranked
//! query candidate (fresh hash sets, a reused hash set, and the
//! allocation-free kernel), minhash signatures, semhash signatures, banding
//! keys, the similarity metrics used by the baselines, and the packed
//! pair-merge machinery (loser-tree vs heap merge, radix vs tuple sort)
//! behind the streaming Γ counter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sablock_core::blocking::{merge_count_packed_runs, radix_sort_packed, PairCounts};
use sablock_core::lsh::BandingScheme;
use sablock_core::minhash::shingle::RecordShingler;
use sablock_core::minhash::{MinHasher, MinhashConfig};
use sablock_core::semantic::pattern::PatternSemanticFunction;
use sablock_core::semantic::semhash::SemhashFamily;
use sablock_core::semantic::SemanticFunction;
use sablock_core::taxonomy::bib::bibliographic_taxonomy;
use sablock_datasets::record::RecordPair;
use sablock_datasets::{CoraConfig, CoraGenerator, RecordId};
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

/// A deterministic xorshift so the merge/sort inputs are reproducible
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

/// Sorted, deduplicated packed runs shaped like the streaming counter's
/// per-shard runs: each run is the pair enumeration of `blocks` small
/// blocks — a cluster of consecutive keys per anchor — over a
/// `universe`-record id space (smaller universes ⇒ heavier cross-run
/// duplication; the full-scale SA-LSH merge collapses ~13.6× cross-run
/// redundancy).
fn synthetic_runs(runs: usize, blocks: usize, block_size: u64, universe: u64) -> Vec<Vec<u64>> {
    let mut rng = XorShift(0x5AB10C ^ ((runs as u64) << 32) ^ blocks as u64);
    (0..runs)
        .map(|_| {
            let mut keys: Vec<u64> = Vec::with_capacity(blocks * block_size as usize);
            for _ in 0..blocks {
                let anchor = (rng.next() % universe) as u32;
                let base = anchor + 1 + (rng.next() % 64) as u32;
                let width = u32::try_from(block_size).expect("synthetic block sizes fit u32");
                for j in 0..width {
                    keys.push(RecordPair::pack_ascending(RecordId(anchor), RecordId(base + j)));
                }
            }
            keys.sort_unstable();
            keys.dedup();
            keys
        })
        .collect()
}

/// The PR-3 k-way merge counter this PR replaced, verbatim: a binary heap of
/// `Reverse<(RecordPair, usize)>` heads, one pop + push per redundant pair,
/// with a closure probe per emitted distinct pair.
fn heap_merge_count(runs: &[Vec<RecordPair>], probe: impl Fn(&RecordPair) -> bool) -> PairCounts {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut iters: Vec<_> = runs.iter().map(|run| run.iter().copied()).collect();
    let mut heap: BinaryHeap<Reverse<(RecordPair, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (idx, iter) in iters.iter_mut().enumerate() {
        if let Some(pair) = iter.next() {
            heap.push(Reverse((pair, idx)));
        }
    }
    let mut counts = PairCounts::default();
    let mut last: Option<RecordPair> = None;
    while let Some(Reverse((pair, idx))) = heap.pop() {
        if last != Some(pair) {
            counts.distinct += 1;
            if probe(&pair) {
                counts.matching += 1;
            }
            last = Some(pair);
        }
        if let Some(next) = iters[idx].next() {
            heap.push(Reverse((next, idx)));
        }
    }
    counts
}

fn bench_pair_merge(c: &mut Criterion) {
    let probe = |p: &RecordPair| p.first().0 % 7 == 0;
    let mut group = c.benchmark_group("micro/pair_merge");
    group.sample_size(10);
    // Two run shapes: a moderate fan-in, and the ~1,000-run fan-in of a
    // paper-scale pair-space slice (one run per 256-block shard), where the
    // heap's per-pair pop+push pays 2·log₂(k) tuple compares against the
    // loser tree's single path replay (and its per-segment gallop over each
    // block's key cluster).
    for (runs, blocks, universe) in [(48usize, 700usize, 60_000u64), (1_024, 1_400, 12_000)] {
        let packed = synthetic_runs(runs, blocks, 6, universe);
        let tuples: Vec<Vec<RecordPair>> =
            packed.iter().map(|run| run.iter().map(|&key| RecordPair::from_packed(key)).collect()).collect();
        group.bench_function(format!("heap_tuple_merge_{runs}r_{blocks}b_u{universe}"), |b| {
            b.iter(|| heap_merge_count(black_box(&tuples), probe))
        });
        group.bench_function(format!("loser_tree_packed_merge_{runs}r_{blocks}b_u{universe}"), |b| {
            b.iter(|| merge_count_packed_runs(black_box(&packed), &probe))
        });
    }
    group.finish();
}

fn bench_run_sort(c: &mut Criterion) {
    // One unsorted shard enumeration's worth of pairs, as tuples and packed.
    let packed: Vec<u64> = {
        let mut rng = XorShift(0xC0FFEE);
        (0..200_000)
            .map(|_| {
                let a = (rng.next() % 250_000) as u32;
                let b = a + 1 + (rng.next() % 512) as u32;
                RecordPair::pack_ascending(RecordId(a), RecordId(b))
            })
            .collect()
    };
    let tuples: Vec<RecordPair> = packed.iter().map(|&key| RecordPair::from_packed(key)).collect();

    let mut group = c.benchmark_group("micro/run_sort");
    group.sample_size(10);
    group.bench_function("tuple_sort_unstable_200k", |b| {
        b.iter(|| {
            let mut run = tuples.clone();
            run.sort_unstable();
            black_box(run)
        })
    });
    group.bench_function("packed_radix_sort_200k", |b| {
        b.iter(|| {
            let mut run = packed.clone();
            radix_sort_packed(&mut run);
            black_box(run)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_textual, bench_signatures, bench_semantics, bench_pair_merge, bench_run_sort);
criterion_main!(benches);
