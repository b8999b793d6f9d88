//! The offline pipeline, in process, over the workload's served corpus.
//!
//! Three timed phases at the profile's configuration: one-shot
//! `SaLshBlocker::block`, the streamed Γ count
//! (`BlockCollection::stream_packed_counts` with the corpus's
//! `EntityTableProbe`), and ingest of the corpus into the incremental index
//! in 4,096-record batches (`insert_batch_with_entities`). The phases run
//! in rounds — three blocks, one Γ count, one ingest — for at least three
//! rounds and until `--seconds` have passed, and each reports its median,
//! so no figure rests on one short measurement and each samples the host's
//! speed over the whole offline window. The gates check that the three
//! agree.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sablock::prelude::*;

use crate::inputs::{Inputs, BATCH};
use crate::report::Report;
use crate::server::Profile;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{procfs, Result};

/// Rounds of the offline phases: at least this many, and more until the
/// budget has passed.
const MIN_ROUNDS: usize = 3;
/// Block runs per round: the phase is the shortest.
const BLOCKS_PER_ROUND: usize = 3;

/// The FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a, continued from `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// An order-sensitive digest of a blocking: FNV-1a over every block's key
/// and member ids, with the block and member counts. Two blockings with
/// equal digests are equal up to a 64-bit hash collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlocksDigest {
    hash: u64,
    blocks: usize,
    members: usize,
}

impl BlocksDigest {
    fn of(collection: &BlockCollection) -> Self {
        let step = fnv1a;
        let mut digest = Self {
            hash: FNV_OFFSET,
            blocks: 0,
            members: 0,
        };
        for block in collection.blocks() {
            digest.hash = step(digest.hash, block.key().as_bytes());
            digest.hash = step(digest.hash, &[0xFF]);
            for member in block.members() {
                digest.hash = step(digest.hash, &member.0.to_le_bytes());
            }
            digest.blocks += 1;
            digest.members += block.len();
        }
        digest
    }
}

/// Wall and CPU time of one phase run.
struct Phase {
    wall: Duration,
    cpu_s: f64,
    rss_mb: f64,
}

/// Runs `work` as a timed phase. In traced runs the resident-set
/// high-water mark is reset first, so `rss_mb` is the phase's own peak.
fn phase<T>(
    tracer: &mut Tracer,
    name: &'static str,
    work: impl FnOnce(&mut Tracer, u64) -> Result<T>,
) -> Result<(T, Phase)> {
    if tracer.enabled() {
        procfs::reset_own_peak_rss()?;
    }
    let cpu_before = procfs::own_cpu_seconds()?;
    let span = tracer.open_span(name, 0, 0);
    let started = Instant::now();
    let value = work(tracer, span)?;
    let wall = started.elapsed();
    tracer.close_span(span);
    let cpu_s = procfs::own_cpu_seconds()? - cpu_before;
    let rss_mb = procfs::peak_rss_mb(std::process::id())?;
    Ok((
        value,
        Phase {
            wall,
            cpu_s,
            rss_mb,
        },
    ))
}

/// The repeated runs of one phase.
#[derive(Default)]
struct Runs {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    rss_mb: f64,
}

impl Runs {
    fn add(&mut self, phase: &Phase) {
        self.wall_s.push(phase.wall.as_secs_f64());
        self.cpu_s.push(phase.cpu_s);
        self.rss_mb = self.rss_mb.max(phase.rss_mb);
    }

    /// CPU seconds per run: the total over every run, whose 10 ms ticks
    /// would coarsen a single run's figure, divided by the runs.
    fn cpu_per_run(&self) -> f64 {
        self.cpu_s.iter().sum::<f64>() / self.cpu_s.len().max(1) as f64
    }
}

/// What the offline phases measured.
pub struct Offline {
    block: Runs,
    gamma: Runs,
    ingest: Runs,
    blocks: usize,
    redundant: u64,
    counts: PairCounts,
    batch_times: Samples,
    deltas: Vec<u64>,
    /// |Γ| of the ingested corpus, which the served index must also hold.
    pub pairs: u64,
}

/// Runs the offline phases over `inputs.corpus` in rounds until `budget`
/// has passed, and records their gates.
pub fn run(
    profile: Profile,
    inputs: &Inputs,
    budget: Duration,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Offline> {
    let dataset = &inputs.corpus;
    let truth = dataset.ground_truth();
    let builder = profile.builder()?;
    let one_shot = builder.clone().build()?;
    let mut block = Runs::default();
    let mut gamma = Runs::default();
    let mut ingest = Runs::default();
    let mut first = None;
    let mut all_counts = Vec::new();
    let mut batch_times = Samples::new();
    let mut deltas = Vec::new();
    let mut ingested = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        if round >= MIN_ROUNDS && started.elapsed() >= budget {
            break;
        }
        let mut last = None;
        for _ in 0..BLOCKS_PER_ROUND {
            drop(last.take());
            let (blocks, timed) = phase(tracer, "SaLshBlocker::block", |_, _| {
                Ok(one_shot.block(dataset)?)
            })?;
            block.add(&timed);
            if first.is_none() {
                first = Some((
                    BlocksDigest::of(&blocks),
                    blocks.num_blocks(),
                    blocks.redundant_pair_count(),
                ));
            }
            last = Some(blocks);
        }
        let blocks = last.ok_or("no block phase ran")?;
        let (counts, timed) = phase(tracer, "BlockCollection::stream_packed_counts", |_, _| {
            Ok(blocks.stream_packed_counts(EntityTableProbe::new(truth.entity_table())))
        })?;
        gamma.add(&timed);
        all_counts.push(counts);
        drop(blocks);

        let mut index = builder.clone().into_incremental()?;
        let ((times, run_deltas), timed) = phase(
            tracer,
            "IncrementalSaLshBlocker::ingest",
            |tracer, parent| {
                let mut times = Samples::new();
                let mut deltas = Vec::new();
                let batches = dataset
                    .records()
                    .chunks(BATCH)
                    .zip(truth.entity_table().chunks(BATCH));
                for (batch, (chunk, entities)) in (0u64..).zip(batches) {
                    let (delta, elapsed) =
                        tracer.timed("insert_batch_with_entities", parent, batch, || {
                            index
                                .insert_batch_with_entities(chunk, entities)
                                .map(|delta| delta.num_pairs())
                        });
                    deltas.push(delta?);
                    times.add(elapsed);
                }
                Ok((times, deltas))
            },
        )?;
        ingest.add(&timed);
        batch_times.absorb(times);
        let running = index.running_counts();
        ingested.push((running.pairs, running.true_positives));
        if round == 0 {
            deltas = run_deltas;
            let digest = BlocksDigest::of(&index.snapshot());
            let (one_shot_blocks, ..) = first.ok_or("no block phase ran")?;
            report.gate(
                "the ingested index equals the one-shot blocks",
                digest == one_shot_blocks,
                format!("ingested {digest:?}, one-shot {one_shot_blocks:?}"),
            );
        }
    }
    let (_, num_blocks, redundant) = first.ok_or("no block phase ran")?;
    let counts = *all_counts.first().ok_or("no Γ phase ran")?;

    report.gate(
        "Γ equals the ingest's running counters on every run",
        all_counts.iter().all(|c| *c == counts)
            && ingested
                .iter()
                .all(|&(pairs, tps)| pairs == counts.distinct && tps == counts.matching),
        format!(
            "streamed |Γ| {} / |Γ_tp| {}; running (|Γ|, |Γ_tp|) per ingest {ingested:?}",
            counts.distinct, counts.matching
        ),
    );
    Ok(Offline {
        block,
        gamma,
        ingest,
        blocks: num_blocks,
        redundant,
        counts,
        batch_times,
        deltas,
        pairs: counts.distinct,
    })
}

impl Offline {
    /// The phases' wall time, for the traced run's overhead share.
    pub fn wall_s(&self) -> f64 {
        [&self.block, &self.gamma, &self.ingest]
            .iter()
            .map(|runs| runs.wall_s.iter().sum::<f64>())
            .sum()
    }

    /// Spans the phases recorded.
    pub fn spans(&self) -> usize {
        self.block.wall_s.len()
            + self.gamma.wall_s.len()
            + self.ingest.wall_s.len()
            + self.batch_times.count()
    }

    /// `block_cpu_s`, `gamma_cpu_s` and `ingest_cpu_s`: the CPU seconds,
    /// over all worker threads, of one run of each phase. Host steal
    /// stretches the phases' wall times by as much as it likes; it does not
    /// enter the process's CPU time.
    pub fn end_to_end(&self, report: &mut Report) {
        for (name, runs) in [
            ("block_cpu_s", &self.block),
            ("gamma_cpu_s", &self.gamma),
            ("ingest_cpu_s", &self.ingest),
        ] {
            report.metric(name, runs.cpu_per_run(), "s", runs.cpu_s.len());
        }
    }

    /// The offline layers' metrics, with single-threaded passes over the
    /// corpus through the signature layers.
    pub fn layers(
        &mut self,
        profile: Profile,
        inputs: &Inputs,
        report: &mut Report,
        tracer: &mut Tracer,
    ) -> Result<()> {
        let records = inputs.corpus.records();
        let stages = profile.stages()?;
        let signature_cpu_s = cpu_per_pass(
            tracer,
            "RecordShingler::shingles+MinHasher::signature",
            || {
                for record in records {
                    black_box(stages.hasher.signature(&stages.shingler.shingles(record)));
                }
            },
        )?;
        let semhash_cpu_s = cpu_per_pass(
            tracer,
            "SemanticFunction::interpret+SemhashFamily::signature",
            || {
                for record in records {
                    black_box(stages.semantic.signature(record));
                }
            },
        )?;

        report.metric("signature_cpu_s", signature_cpu_s, "s", records.len());
        report.metric("semhash_cpu_s", semhash_cpu_s, "s", records.len());
        report.metric(
            "block_s",
            median(&self.block.wall_s),
            "s",
            self.block.wall_s.len(),
        );
        report.metric("blocks", self.blocks as f64, "count", 1);
        report.metric("redundant_pairs", self.redundant as f64, "count", 1);
        report.metric(
            "gamma_s",
            median(&self.gamma.wall_s),
            "s",
            self.gamma.wall_s.len(),
        );
        report.metric("distinct_pairs", self.counts.distinct as f64, "count", 1);
        report.metric(
            "dedup_ratio",
            self.counts.distinct as f64 / self.redundant.max(1) as f64,
            "ratio",
            1,
        );
        report.metric("gamma_rss_mb", self.gamma.rss_mb, "MB", 1);
        report.metric(
            "sorted_mb",
            8.0 * self.redundant as f64 / (1024.0 * 1024.0),
            "MB",
            1,
        );
        report.metric(
            "ingest_s",
            median(&self.ingest.wall_s),
            "s",
            self.ingest.wall_s.len(),
        );
        report.metric(
            "ingest_batch_p50_ms",
            self.batch_times.quantile_ms(0.5),
            "ms",
            self.batch_times.count(),
        );
        let delta_mean = self.deltas.iter().sum::<u64>() as f64 / self.deltas.len().max(1) as f64;
        report.metric(
            "delta_pairs_per_batch",
            delta_mean,
            "count",
            self.deltas.len(),
        );
        report.metric("ingest_rss_mb", self.ingest.rss_mb, "MB", 1);
        Ok(())
    }
}

/// Repeats the single-threaded `pass` until it has used at least half a
/// second of this thread's CPU, and returns the CPU seconds of one pass. A
/// pass can take a few milliseconds, less than the process-wide 10 ms ticks
/// resolve, and the thread clock may lag by a scheduler tick.
fn cpu_per_pass(tracer: &mut Tracer, name: &'static str, mut pass: impl FnMut()) -> Result<f64> {
    let before = procfs::thread_cpu_seconds()?;
    let mut passes = 0u32;
    loop {
        let span = tracer.open_span(name, 0, u64::from(passes));
        pass();
        tracer.close_span(span);
        passes += 1;
        let used = procfs::thread_cpu_seconds()? - before;
        if used >= 0.5 {
            return Ok(used / f64::from(passes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn both_profiles_block_a_small_corpus_like_the_incremental_index() {
        for profile in [Profile::Cora, Profile::Voter] {
            let dataset = inputs::generate(profile, 1).unwrap().corpus.prefix(600);
            let blocks = profile
                .builder()
                .unwrap()
                .build()
                .unwrap()
                .block(&dataset)
                .unwrap();
            let mut incremental = profile.blocker().unwrap();
            let truth = dataset.ground_truth();
            for (chunk, entities) in dataset
                .records()
                .chunks(128)
                .zip(truth.entity_table().chunks(128))
            {
                incremental
                    .insert_batch_with_entities(chunk, entities)
                    .unwrap();
            }
            assert_eq!(incremental.snapshot().blocks(), blocks.blocks());
            assert_eq!(
                BlocksDigest::of(&incremental.snapshot()),
                BlocksDigest::of(&blocks)
            );
            let fewer = BlockCollection::from_blocks(blocks.blocks()[1..].to_vec());
            assert_ne!(BlocksDigest::of(&fewer), BlocksDigest::of(&blocks));
            let counts = blocks.stream_packed_counts(EntityTableProbe::new(truth.entity_table()));
            assert_eq!(incremental.running_counts().pairs, counts.distinct);
        }
    }
}
