//! Paper-scale blocking walk-through: the streaming NC-Voter generator and
//! the Fig. 13 operating point, end to end.
//!
//! Run with `cargo run --release --example paper_scale`.
//!
//! By default the example runs a 20,000-record slice so it finishes in
//! seconds. Set `SABLOCK_PAPER_FULL=1` (and do use `--release`) to run the
//! full 292,892-record voter roll of Fig. 13's right-most point:
//!
//! ```sh
//! SABLOCK_PAPER_FULL=1 cargo run --release --example paper_scale
//! ```
//!
//! The walk-through demonstrates:
//!
//! 1. **Streaming generation** — `NcVoterGenerator::stream` yields records in
//!    bounded chunks; only the assembled dataset itself is ever resident.
//! 2. **Parallel blocking** — signatures are computed per record and the
//!    banding/bucket phase is sharded per band, merged deterministically.
//! 3. **Streaming Γ evaluation** — candidate pairs are counted (and probed
//!    against ground truth) per anchor record: each record keeps its
//!    partners with smaller ids once through a per-worker seen-set, so no
//!    pair is sorted, merged or stored, and peak memory stays at an
//!    inverted index of the memberships plus one seen-set per worker even at
//!    236M+ LSH pairs.
//!
//! The measured numbers (records, blocking times, Γ-count time, peak RSS)
//! are also written to `BENCH_fig13.json` in the working directory — the
//! machine-readable companion of `BENCH_NOTES.md` — under the
//! `"paper_scale"` section (`"quick_scale"` for default runs, so quick
//! smoke runs never clobber committed paper-scale numbers).

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use sablock::eval::experiments::{voter_lsh, voter_salsh, VOTER_SEMANTIC_BITS};
use sablock::eval::perf::{peak_rss_bytes, upsert_section, JsonValue};
use sablock::prelude::*;

/// The full NC Voter extract size used by the paper (Fig. 13).
const FULL_SCALE: usize = 292_892;
/// The affordable default for a debug-friendly walk-through.
const QUICK_SCALE: usize = 20_000;

fn main() -> Result<(), Box<dyn Error>> {
    let full = std::env::var("SABLOCK_PAPER_FULL").is_ok_and(|v| v == "1");
    let num_records = if full { FULL_SCALE } else { QUICK_SCALE };
    println!(
        "paper_scale: {} records{}",
        num_records,
        if full { " (full Fig. 13 scale)" } else { " (set SABLOCK_PAPER_FULL=1 for the full 292,892)" }
    );

    // --- 1. Stream the voter roll in bounded chunks --------------------------
    let generator = NcVoterGenerator::new(NcVoterConfig {
        num_records,
        ..NcVoterConfig::default()
    });
    let start = Instant::now();
    let mut stream = generator.stream()?;
    let schema = std::sync::Arc::clone(stream.schema());
    let mut builder = sablock::datasets::dataset::DatasetBuilder::new("ncvoter-streamed", schema);
    builder.reserve(num_records);
    let chunk_size = 16_384;
    let mut chunks = 0usize;
    while let Some(chunk) = stream.next_chunk(chunk_size) {
        chunks += 1;
        for (values, entity) in chunk {
            builder.push_values(values, entity)?;
        }
    }
    let dataset = builder.build()?;
    println!(
        "streamed {} records in {} chunks of ≤{} rows in {:.2}s (transient state: one duplicate cluster)",
        dataset.len(),
        chunks,
        chunk_size,
        start.elapsed().as_secs_f64()
    );

    // --- 2. Block at the paper's operating point (k = 9, l = 15) -------------
    let lsh_result = run_blocker("LSH", &voter_lsh(9, 15)?, &dataset)?;
    println!("{}", lsh_result.summary());
    // Block SA-LSH once and keep the collection so step 3 can reuse it
    // instead of repeating the most expensive phase at full scale.
    let salsh = voter_salsh(9, 15, VOTER_SEMANTIC_BITS, SemanticMode::Or)?;
    let blocking_start = Instant::now();
    let blocks = salsh.block(&dataset)?;
    let blocking_time = blocking_start.elapsed();
    let salsh_result =
        sablock::eval::runner::evaluate_blocks("SA-LSH", &salsh.name(), &dataset, &blocks, blocking_time);
    println!("{}", salsh_result.summary());

    // --- 3. Stream the candidate-pair counts ---------------------------------
    // `stream_packed_counts` anchors every pair on its larger id and keeps
    // each anchor's partners once through the partner-dedup kernel, probing
    // the dense ground-truth entity table per distinct pair — Γ itself is
    // never resident.
    let stream_start = Instant::now();
    let truth = dataset.ground_truth();
    let counts = blocks.stream_packed_counts(EntityTableProbe::new(truth.entity_table()));
    let gamma_count_time = stream_start.elapsed();
    println!(
        "{} blocks → {} distinct candidate pairs, {} true positives (streamed in {:.2}s, Γ never materialised)",
        blocks.num_blocks(),
        counts.distinct,
        counts.matching,
        gamma_count_time.as_secs_f64(),
    );
    assert_eq!(counts.distinct, salsh_result.metrics.candidate_pairs);
    assert_eq!(counts.matching, salsh_result.metrics.true_positives);
    if !full {
        // At the quick scale it is affordable to cross-check the streaming
        // counts against the materialised enumeration.
        let pairs = blocks.distinct_pairs();
        assert_eq!(pairs.len() as u64, counts.distinct, "streaming counts match the materialised Γ");
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "enumeration is sorted and deduplicated");
    }

    // --- 4. Record the measurements machine-readably -------------------------
    let peak_rss = peak_rss_bytes();
    let report = JsonValue::Object(vec![
        ("records".into(), JsonValue::UInt(dataset.len() as u64)),
        ("lsh_blocking_s".into(), JsonValue::Float(lsh_result.blocking_time.as_secs_f64())),
        ("salsh_blocking_s".into(), JsonValue::Float(blocking_time.as_secs_f64())),
        ("gamma_count_s".into(), JsonValue::Float(gamma_count_time.as_secs_f64())),
        ("lsh_candidate_pairs".into(), JsonValue::UInt(lsh_result.metrics.candidate_pairs)),
        ("salsh_candidate_pairs".into(), JsonValue::UInt(counts.distinct)),
        ("salsh_true_positives".into(), JsonValue::UInt(counts.matching)),
        ("salsh_blocks".into(), JsonValue::UInt(blocks.num_blocks() as u64)),
        (
            "peak_rss_bytes".into(),
            peak_rss.map_or(JsonValue::Null, JsonValue::UInt),
        ),
    ]);
    let section = if full { "paper_scale" } else { "quick_scale" };
    // The facade crate's manifest dir *is* the workspace root, so the report
    // lands next to BENCH_NOTES.md no matter where the example is run from.
    // The write is best-effort: an unwritable workspace must not fail a run
    // whose results were already computed and printed.
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig13.json"));
    match upsert_section(path, section, &report) {
        Ok(()) => println!(
            "wrote the measurements to {} (section \"{}\"{})",
            path.display(),
            section,
            peak_rss.map_or(String::new(), |b| format!(", peak RSS {:.2} GB", b as f64 / 1e9)),
        ),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
    Ok(())
}
