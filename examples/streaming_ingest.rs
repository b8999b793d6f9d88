//! Streaming ingest walk-through: incremental SA-LSH blocking over a live
//! NC-Voter record stream, batch by batch, with O(delta) running metrics.
//!
//! Run with `cargo run --release --example streaming_ingest`.
//!
//! By default the example ingests a 10,000-record stream in 1,024-record
//! batches so it finishes in seconds and cross-checks every invariant
//! against a from-scratch rebuild. Set `SABLOCK_STREAM_FULL=1` (and use
//! `--release`) to ingest the full 292,892-record voter roll of Fig. 13's
//! right-most point in 16,384-record batches:
//!
//! ```sh
//! SABLOCK_STREAM_FULL=1 cargo run --release --example streaming_ingest
//! ```
//!
//! The walk-through demonstrates:
//!
//! 1. **Bounded-batch ingest** — `NcVoterStream::next_chunk` hands out
//!    records in bounded batches; `insert_values_with_entities` appends them
//!    to the cached per-band bucket shards (each insert touches only the
//!    buckets it lands in) without recomputing anything about the records
//!    already ingested.
//! 2. **O(delta) running metrics** — the blocker folds each batch's delta
//!    pairs and true positives into its `RunningCounts` as they are
//!    produced, so cumulative PC/RR per batch — and the final snapshot
//!    metrics — are an O(1) read, not an O(corpus) re-count. The ground
//!    truth denominators (`|Ω_tp|`, `|Ω|`) are likewise maintained
//!    incrementally from per-entity tallies.
//! 3. **Incremental ≡ one-shot** — after the last batch, the running
//!    counters are asserted equal to a from-scratch streamed re-count of the
//!    snapshot AND to a from-scratch `SaLshBlocker::block` of the very same
//!    records (byte-identical blocks; at full scale the 56,156,606 pairs /
//!    112,220 true positives of `BENCH_fig13.json`).
//! 4. **Removal + compaction** (quick mode) — tombstoning records subtracts
//!    exactly their live pairs from the running counters by walking only the
//!    buckets they occupy, and bucket-local compaction reclaims dead members
//!    without observable effect.
//!
//! Per-batch insert latencies (p50/p99/max), the O(1) snapshot-metrics time,
//! and the rebuild comparison (including the ingest / rebuild-end-to-end
//! ratio) are written to `BENCH_fig13.json` under the `"incremental"`
//! section (`"incremental_quick"` for default runs). Set
//! `SABLOCK_STREAM_BUDGET=1` to additionally *assert* that total ingest
//! stays within 2× of the one-shot rebuild end-to-end (blocking + Γ count) —
//! the CI streaming smoke runs with the assertion on.

use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sablock::core::incremental::IncrementalBlocker;
use sablock::eval::experiments::VOTER_SEMANTIC_BITS;
use sablock::eval::perf::{peak_rss_bytes, upsert_section, JsonValue, LatencyStats};
use sablock::prelude::*;

/// The full NC Voter extract size used by the paper (Fig. 13).
const FULL_SCALE: usize = 292_892;
/// The affordable default for a debug-friendly walk-through.
const QUICK_SCALE: usize = 10_000;

/// Incrementally maintained ground-truth denominators: appending a record of
/// entity `e` to a cluster of current size `c` adds `c` true-match pairs to
/// `|Ω_tp|` and `n−1` pairs to `|Ω|` — no per-batch `GroundTruth`
/// materialisation needed.
#[derive(Default)]
struct TruthTotals {
    cluster_sizes: Vec<u64>,
    records: u64,
    true_matches: u64,
    total_pairs: u64,
}

impl TruthTotals {
    fn push(&mut self, entity: EntityId) {
        let slot = entity.0 as usize;
        if slot >= self.cluster_sizes.len() {
            self.cluster_sizes.resize(slot + 1, 0);
        }
        self.true_matches += self.cluster_sizes[slot];
        self.cluster_sizes[slot] += 1;
        self.total_pairs += self.records;
        self.records += 1;
    }

    /// The blocking metrics of the running counters against the records
    /// pushed so far (`redundant_pairs` is left at 0: PQ*/FM* are not used).
    fn metrics(&self, counts: RunningCounts) -> BlockingMetrics {
        BlockingMetrics {
            candidate_pairs: counts.pairs,
            redundant_pairs: 0,
            true_positives: counts.true_positives,
            total_true_matches: self.true_matches,
            total_pairs: self.total_pairs,
        }
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let full = std::env::var("SABLOCK_STREAM_FULL").is_ok_and(|v| v == "1");
    let enforce_budget = std::env::var("SABLOCK_STREAM_BUDGET").is_ok_and(|v| v == "1");
    let num_records = if full { FULL_SCALE } else { QUICK_SCALE };
    let batch_size = if full { 16_384 } else { 1_024 };
    println!(
        "streaming_ingest: {} records in batches of {}{}",
        num_records,
        batch_size,
        if full { " (full Fig. 13 scale)" } else { " (set SABLOCK_STREAM_FULL=1 for the full 292,892)" }
    );

    // The paper's NC Voter operating point (k = 9, l = 15; the same
    // parameters as `voter_salsh(9, 15, …)`), with the semhash family pinned
    // to all 12 taxonomy leaves *up front* so the incremental index and the
    // one-shot rebuild below share it by construction — the documented
    // contract for byte-level comparison. For NC Voter the pinned family is
    // also exactly what an unpinned one-shot run derives, which the
    // full-scale pair-count assertion below additionally witnesses.
    let zeta = VoterSemanticFunction::default_voter();
    let tree = zeta.taxonomy().clone();
    let family = SemhashFamily::from_all_leaves(&tree)?;
    let semantic = SemanticConfig::new(tree, zeta)
        .with_w(VOTER_SEMANTIC_BITS)
        .with_mode(SemanticMode::Or)
        .with_seed(0x5eed)
        .with_pinned_family(family);
    let builder = SaLshBlocker::builder()
        .attributes(["first_name", "last_name"])
        .qgram(2)
        .rows_per_band(9)
        .bands(15)
        .seed(0x7013)
        .semantic(semantic);
    let blocker = builder.clone().build()?;
    let mut incremental = builder.into_incremental()?;

    // --- 1. Ingest the stream batch by batch ---------------------------------
    let generator = NcVoterGenerator::new(NcVoterConfig { num_records, ..NcVoterConfig::default() });
    let mut stream = generator.stream()?;
    let schema = Arc::clone(stream.schema());

    // Kept only for the final rebuild cross-check — the incremental index
    // itself never needs the history.
    let mut entities: Vec<EntityId> = Vec::with_capacity(num_records);
    let mut all_rows: Vec<Vec<Option<String>>> = Vec::with_capacity(num_records);

    let mut truth_totals = TruthTotals::default();
    let mut latencies = LatencyStats::new();
    let mut batch_index = 0usize;
    while let Some(chunk) = stream.next_chunk(batch_size) {
        let mut rows = Vec::with_capacity(chunk.len());
        let mut batch_entities = Vec::with_capacity(chunk.len());
        for (values, entity) in chunk {
            entities.push(entity);
            truth_totals.push(entity);
            batch_entities.push(entity);
            all_rows.push(values.clone());
            rows.push(values);
        }
        let batch_records = rows.len();
        let start = Instant::now();
        let delta_pairs = incremental.insert_values_with_entities(&schema, rows, &batch_entities)?.num_pairs();
        let elapsed = start.elapsed();
        latencies.record(elapsed);

        // Cumulative quality so far: the running counters already fold the
        // delta — reading them is O(1), no pair is ever re-probed.
        let cumulative = truth_totals.metrics(incremental.running_counts());
        batch_index += 1;
        println!(
            "batch {:>3}: +{:>7} records in {:>8.2} ms | +{:>9} delta pairs | cumulative PC={:.4} RR={:.4}",
            batch_index,
            batch_records,
            elapsed.as_secs_f64() * 1e3,
            delta_pairs,
            cumulative.pc(),
            cumulative.rr(),
        );
    }
    let insert_total_s = latencies.total_secs();
    println!(
        "ingested {} records in {} batches: insert p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms, total {:.2} s",
        incremental.num_records(),
        incremental.num_batches(),
        latencies.p50_secs() * 1e3,
        latencies.p99_secs() * 1e3,
        latencies.max_secs() * 1e3,
        insert_total_s,
    );

    // --- 2. Snapshot metrics in O(delta): an O(1) counter read ---------------
    let metrics_start = Instant::now();
    let running = incremental.running_counts();
    let final_metrics = truth_totals.metrics(running);
    let snapshot_metrics_time = metrics_start.elapsed();
    println!(
        "snapshot metrics (running counters): |Γ| = {}, |Γ_tp| = {}, PC={:.4} RR={:.4} in {:.6}s",
        running.pairs,
        running.true_positives,
        final_metrics.pc(),
        final_metrics.rr(),
        snapshot_metrics_time.as_secs_f64(),
    );
    assert!(
        snapshot_metrics_time.as_secs_f64() < 1.0,
        "running-counter snapshot metrics must be an O(1) read, not an O(corpus) re-count"
    );

    // --- 3. Cross-check the counters against a from-scratch snapshot count ---
    let truth = GroundTruth::from_assignments(entities.clone());
    assert_eq!(truth.num_true_matches(), truth_totals.true_matches, "incremental |Ω_tp| is exact");
    assert_eq!(truth.num_total_pairs(), truth_totals.total_pairs, "incremental |Ω| is exact");
    let snapshot = incremental.snapshot();
    let stream_start = Instant::now();
    let snapshot_counts = snapshot.stream_packed_counts(EntityTableProbe::new(truth.entity_table()));
    let snapshot_count_time = stream_start.elapsed();
    assert_eq!(
        snapshot_counts.distinct,
        running.pairs,
        "running |Γ| must equal the snapshot's streamed re-count"
    );
    assert_eq!(snapshot_counts.matching, running.true_positives, "running |Γ_tp| must match too");
    println!(
        "snapshot re-count: {} blocks, {} distinct pairs, {} true positives (streamed in {:.2}s) — matches \
         the running counters",
        snapshot.num_blocks(),
        snapshot_counts.distinct,
        snapshot_counts.matching,
        snapshot_count_time.as_secs_f64(),
    );

    // --- 4. Rebuild from scratch and require byte-identical blocking ---------
    let mut dataset_builder =
        sablock::datasets::dataset::DatasetBuilder::new("ncvoter-streamed", Arc::clone(&schema));
    dataset_builder.reserve(all_rows.len());
    for (values, entity) in all_rows.into_iter().zip(entities.iter()) {
        dataset_builder.push_values(values, *entity)?;
    }
    let dataset = dataset_builder.build()?;
    let rebuild_start = Instant::now();
    let rebuilt = blocker.block(&dataset)?;
    let rebuild_time = rebuild_start.elapsed();
    assert_eq!(
        rebuilt.blocks(),
        snapshot.blocks(),
        "incremental snapshot must be byte-identical to a from-scratch rebuild"
    );
    let reference = BlockingMetrics::evaluate(&rebuilt, dataset.ground_truth());
    assert_eq!(reference.candidate_pairs, running.pairs, "running |Γ| ≡ rebuild |Γ|");
    assert_eq!(reference.true_positives, running.true_positives, "running |Γ_tp| ≡ rebuild |Γ_tp|");
    // A one-shot deployment pays blocking *plus* a full Γ count to get the
    // numbers the running counters deliver for free — that is the
    // end-to-end cost streaming ingest is budgeted against.
    let rebuild_end_to_end_s = rebuild_time.as_secs_f64() + snapshot_count_time.as_secs_f64();
    let ingest_ratio = insert_total_s / rebuild_end_to_end_s;
    println!(
        "rebuild: blocked {} records from scratch in {:.2}s (+{:.2}s one-shot Γ count = {:.2}s end-to-end) — \
         blocks and pair counts identical (|Γ| = {}, final PC={:.4} RR={:.4}); ingest/rebuild ratio {:.2}×",
        dataset.len(),
        rebuild_time.as_secs_f64(),
        snapshot_count_time.as_secs_f64(),
        rebuild_end_to_end_s,
        reference.candidate_pairs,
        reference.pc(),
        reference.rr(),
        ingest_ratio,
    );
    if full {
        assert_eq!(
            reference.candidate_pairs, 56_156_606,
            "full-scale SA-LSH pair count must match BENCH_fig13.json's one-shot run"
        );
        assert_eq!(
            running.true_positives, 112_220,
            "full-scale SA-LSH true positives must match BENCH_fig13.json's one-shot run"
        );
    }
    if enforce_budget {
        assert!(
            ingest_ratio <= 2.0,
            "streaming ingest ({insert_total_s:.2}s) exceeded 2× the one-shot rebuild end-to-end \
             ({rebuild_end_to_end_s:.2}s)"
        );
        println!("budget check: ingest within 2× of rebuild end-to-end ✓");
    }

    // --- 5. Removal + compaction demo (quick mode only) ----------------------
    if !full {
        let victims = [RecordId(17), RecordId(512), RecordId(513)];
        for victim in victims {
            incremental.remove(victim)?;
        }
        let after_removal = incremental.running_counts();
        let live_truth = GroundTruth::from_assignments(entities.clone());
        let recount = incremental
            .snapshot()
            .stream_packed_counts(EntityTableProbe::new(live_truth.entity_table()));
        assert_eq!(after_removal.pairs, recount.distinct, "removal subtracts exactly the retired pairs");
        assert_eq!(after_removal.true_positives, recount.matching);
        let before_compaction = incremental.snapshot();
        let compacted = incremental.compact();
        assert_eq!(
            incremental.snapshot().blocks(),
            before_compaction.blocks(),
            "compaction is observation-equivalent"
        );
        assert_eq!(incremental.running_counts(), after_removal);
        println!(
            "removals: tombstoned {} records, running counters subtracted exactly ({} pairs live); \
             compacted {} buckets ({} total so far) with no observable change",
            victims.len(),
            after_removal.pairs,
            compacted,
            incremental.num_compactions(),
        );
    }

    // --- 6. Record the measurements machine-readably -------------------------
    let peak_rss = peak_rss_bytes();
    let report = JsonValue::Object(vec![
        ("records".into(), JsonValue::UInt(dataset.len() as u64)),
        ("batch_size".into(), JsonValue::UInt(batch_size as u64)),
        ("batches".into(), JsonValue::UInt(batch_index as u64)),
        ("insert_p50_s".into(), JsonValue::Float(latencies.p50_secs())),
        ("insert_p99_s".into(), JsonValue::Float(latencies.p99_secs())),
        ("insert_max_s".into(), JsonValue::Float(latencies.max_secs())),
        ("insert_total_s".into(), JsonValue::Float(insert_total_s)),
        ("snapshot_metrics_s".into(), JsonValue::Float(snapshot_metrics_time.as_secs_f64())),
        ("rebuild_blocking_s".into(), JsonValue::Float(rebuild_time.as_secs_f64())),
        ("snapshot_count_s".into(), JsonValue::Float(snapshot_count_time.as_secs_f64())),
        ("rebuild_end_to_end_s".into(), JsonValue::Float(rebuild_end_to_end_s)),
        ("ingest_vs_rebuild_ratio".into(), JsonValue::Float(ingest_ratio)),
        ("salsh_candidate_pairs".into(), JsonValue::UInt(running.pairs)),
        ("salsh_true_positives".into(), JsonValue::UInt(running.true_positives)),
        ("peak_rss_bytes".into(), peak_rss.map_or(JsonValue::Null, JsonValue::UInt)),
    ]);
    let section = if full { "incremental" } else { "incremental_quick" };
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig13.json"));
    match upsert_section(path, section, &report) {
        Ok(()) => println!("wrote the measurements to {} (section \"{section}\")", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
    Ok(())
}
