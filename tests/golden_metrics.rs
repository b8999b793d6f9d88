//! Golden regression test for the candidate-pair path: exact Cora metric
//! counts (`candidate_pairs`, `redundant_pairs`, `true_positives`) for LSH,
//! SA-LSH and the representative setting of every baseline technique.
//!
//! Every count below is produced by the *streaming* Γ evaluation
//! (`BlockingMetrics::evaluate` → `BlockCollection::stream_packed_counts`), so
//! any refactor of pair enumeration, deduplication, slicing or counting that
//! silently shifts a single pair fails this test. The generators and
//! blockers are pure functions of their fixed seeds, so the numbers are
//! stable across platforms and thread counts.
//!
//! If a change *intentionally* alters blocking output (new default
//! parameters, a generator fix), re-run with
//! `cargo test --test golden_metrics -- --nocapture` and update the table
//! from the printed actual values.

use sablock::baselines::params::reduced_grids;
use sablock::core::blocking::Blocker;
use sablock::core::lsh::semantic_hash::SemanticMode;
use sablock::core::taxonomy::bib::BibVariant;
use sablock::eval::experiments::{cora_dataset, cora_lsh, cora_salsh, Scale, CORA_SEMANTIC_BITS};
use sablock::prelude::*;

/// One pinned row: technique, |Γ|, |Γ_m|, |Γ_tp|.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("LSH", 3014, 21954, 2186),
    ("SA-LSH", 2641, 34499, 2186),
    ("TBlo", 22, 22, 22),
    ("SorA", 797, 1194, 323),
    ("SorII", 853, 1311, 340),
    ("ASor", 817, 817, 489),
    ("QGr", 27, 1413, 27),
    ("CaTh", 4080, 23161, 2411),
    ("CaNN", 3617, 7535, 1965),
    ("StMT", 422, 735, 407),
    ("StMNN", 2087, 5832, 363),
    ("SuA", 897, 17631, 818),
    ("SuAS", 6235, 150753, 1911),
    ("RSuA", 6506, 60612, 2155),
];

/// The blockers under golden pinning: the Fig. 11/12 LSH and SA-LSH
/// operating points plus the first (representative) setting of every
/// baseline technique grid.
fn golden_blockers() -> Vec<(String, Box<dyn Blocker>)> {
    let mut blockers: Vec<(String, Box<dyn Blocker>)> = vec![
        ("LSH".into(), Box::new(cora_lsh(4, 63).unwrap())),
        (
            "SA-LSH".into(),
            Box::new(cora_salsh(4, 63, CORA_SEMANTIC_BITS, SemanticMode::Or, BibVariant::Full, 0x1212).unwrap()),
        ),
    ];
    for grid in reduced_grids(&BlockingKey::cora()) {
        let mut settings = grid.settings;
        blockers.push((grid.technique.to_string(), settings.remove(0)));
    }
    blockers
}

#[test]
fn cora_pair_counts_are_pinned() {
    let dataset = cora_dataset(Scale::Quick).unwrap();
    let truth = dataset.ground_truth();
    let mut failures = Vec::new();
    let blockers = golden_blockers();
    assert_eq!(blockers.len(), GOLDEN.len(), "golden table covers every technique");
    for ((name, blocker), &(golden_name, pairs, redundant, tps)) in blockers.into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "technique order matches the golden table");
        let blocks = blocker.block(&dataset).unwrap();
        let m = BlockingMetrics::evaluate(&blocks, truth);
        println!(
            "    (\"{name}\", {}, {}, {}),",
            m.candidate_pairs, m.redundant_pairs, m.true_positives
        );
        if (m.candidate_pairs, m.redundant_pairs, m.true_positives) != (pairs, redundant, tps) {
            failures.push(format!(
                "{name}: got (|Γ|={}, |Γ_m|={}, |Γ_tp|={}), golden (|Γ|={pairs}, |Γ_m|={redundant}, |Γ_tp|={tps})",
                m.candidate_pairs, m.redundant_pairs, m.true_positives
            ));
        }
        // The streaming counts being pinned must also agree with the
        // materialised reference — a golden shift can then only mean the
        // *blocks* changed, never a silent pair-path divergence.
        assert_eq!(m, BlockingMetrics::evaluate_materialised(&blocks, truth), "{name}: streaming vs materialised");
    }
    assert!(failures.is_empty(), "golden Cora counts shifted:\n{}", failures.join("\n"));
}
