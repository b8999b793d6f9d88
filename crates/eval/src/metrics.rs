//! Blocking quality measures (paper §6, "Evaluation measures").
//!
//! With Γ the set of distinct candidate pairs produced by the blocks, Γ_tp
//! its true matches, Γ_m the redundant (per-block) pair count, Ω all record
//! pairs of the dataset and Ω_tp all true matches:
//!
//! * PC  = |Γ_tp| / |Ω_tp| — how many true matches survive blocking,
//! * PQ  = |Γ_tp| / |Γ|    — how clean the candidate pairs are,
//! * RR  = 1 − |Γ| / |Ω|   — how much comparison work blocking saves,
//! * FM  = harmonic mean of PC and PQ,
//! * PQ* = |Γ_tp| / |Γ_m|  — PQ against redundant pairs (the variant used by
//!   the meta-blocking paper, Fig. 12),
//! * FM* = harmonic mean of PC and PQ*.

use sablock_core::blocking::{BlockCollection, EntityTableProbe};
use sablock_datasets::GroundTruth;

/// The evaluation measures of one blocking result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingMetrics {
    /// Number of distinct candidate pairs |Γ|.
    pub candidate_pairs: u64,
    /// Number of redundant candidate pairs |Γ_m| (with multiplicity).
    pub redundant_pairs: u64,
    /// Number of distinct candidate pairs that are true matches |Γ_tp|.
    pub true_positives: u64,
    /// Number of true matches in the dataset |Ω_tp|.
    pub total_true_matches: u64,
    /// Number of record pairs in the dataset |Ω|.
    pub total_pairs: u64,
}

impl BlockingMetrics {
    /// Evaluates a block collection against ground truth.
    ///
    /// Γ is never materialised: `|Γ|` and `|Γ_tp|` come from
    /// [`BlockCollection::stream_packed_counts`], which folds per-shard
    /// radix-sorted packed pair runs through the deduplicating
    /// loser-tree/galloping merge counter and probes ground truth once per
    /// distinct pair through [`EntityTableProbe`] — a dense record → entity
    /// table, so the match test inside the merge loop is two array loads and
    /// one compare. The memory high-water mark of evaluating paper-scale
    /// collections is one pair-space slice per worker instead of the whole
    /// candidate-pair set.
    pub fn evaluate(blocks: &BlockCollection, truth: &GroundTruth) -> Self {
        let counts = blocks.stream_packed_counts(EntityTableProbe::new(truth.entity_table()));
        Self {
            candidate_pairs: counts.distinct,
            redundant_pairs: blocks.redundant_pair_count(),
            true_positives: counts.matching,
            total_true_matches: truth.num_true_matches(),
            total_pairs: truth.num_total_pairs(),
        }
    }

    /// The pre-streaming reference implementation: materialises Γ as a sorted
    /// vector and counts over it. Kept public so tests (and callers that
    /// already hold the pair set) can pin the streaming path's equivalence;
    /// prefer [`BlockingMetrics::evaluate`] everywhere else.
    pub fn evaluate_materialised(blocks: &BlockCollection, truth: &GroundTruth) -> Self {
        let distinct = blocks.distinct_pairs();
        let true_positives = distinct.iter().filter(|pair| truth.is_match_pair(pair)).count() as u64;
        Self {
            candidate_pairs: distinct.len() as u64,
            redundant_pairs: blocks.redundant_pair_count(),
            true_positives,
            total_true_matches: truth.num_true_matches(),
            total_pairs: truth.num_total_pairs(),
        }
    }

    /// Pair completeness PC.
    pub fn pc(&self) -> f64 {
        ratio(self.true_positives, self.total_true_matches)
    }

    /// Pair quality PQ.
    pub fn pq(&self) -> f64 {
        ratio(self.true_positives, self.candidate_pairs)
    }

    /// Reduction ratio RR.
    pub fn rr(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        1.0 - self.candidate_pairs as f64 / self.total_pairs as f64
    }

    /// F-measure FM (harmonic mean of PC and PQ).
    pub fn fm(&self) -> f64 {
        harmonic(self.pc(), self.pq())
    }

    /// PQ* — pair quality against redundant pairs (meta-blocking convention).
    pub fn pq_star(&self) -> f64 {
        ratio(self.true_positives, self.redundant_pairs)
    }

    /// FM* — harmonic mean of PC and PQ*.
    pub fn fm_star(&self) -> f64 {
        harmonic(self.pc(), self.pq_star())
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn harmonic(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_core::blocking::Block;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::RecordId;

    fn rid(i: u32) -> RecordId {
        RecordId(i)
    }

    /// 6 records: {0,1,2} are one entity, {3,4} another, {5} a singleton.
    fn truth() -> GroundTruth {
        GroundTruth::from_assignments(vec![
            EntityId(0),
            EntityId(0),
            EntityId(0),
            EntityId(1),
            EntityId(1),
            EntityId(2),
        ])
    }

    #[test]
    fn perfect_blocking_scores_perfectly() {
        // One block per entity cluster: every true match is covered and no
        // non-match is proposed.
        let blocks = BlockCollection::from_blocks(vec![
            Block::new("e0", vec![rid(0), rid(1), rid(2)]),
            Block::new("e1", vec![rid(3), rid(4)]),
        ]);
        let m = BlockingMetrics::evaluate(&blocks, &truth());
        assert_eq!(m.true_positives, 4);
        assert_eq!(m.candidate_pairs, 4);
        assert_eq!(m.pc(), 1.0);
        assert_eq!(m.pq(), 1.0);
        assert_eq!(m.fm(), 1.0);
        assert!((m.rr() - (1.0 - 4.0 / 15.0)).abs() < 1e-12);
        assert_eq!(m.pq_star(), 1.0);
        assert_eq!(m.fm_star(), 1.0);
    }

    #[test]
    fn single_giant_block_has_full_pc_but_poor_pq() {
        let blocks = BlockCollection::from_blocks(vec![Block::new("all", (0..6).map(rid).collect())]);
        let m = BlockingMetrics::evaluate(&blocks, &truth());
        assert_eq!(m.pc(), 1.0);
        assert!((m.pq() - 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(m.rr(), 0.0);
        assert!(m.fm() < 0.5);
    }

    #[test]
    fn empty_blocking_scores_zero() {
        let blocks = BlockCollection::new();
        let m = BlockingMetrics::evaluate(&blocks, &truth());
        assert_eq!(m.pc(), 0.0);
        assert_eq!(m.pq(), 0.0);
        assert_eq!(m.fm(), 0.0);
        assert_eq!(m.rr(), 1.0);
        assert_eq!(m.pq_star(), 0.0);
        assert_eq!(m.fm_star(), 0.0);
    }

    #[test]
    fn partial_blocking_matches_hand_computed_values() {
        // Blocks: {0,1,3} (pairs 01 tp, 03 fp, 13 fp), {3,4} (tp) → Γ = 4, tp = 2.
        let blocks = BlockCollection::from_blocks(vec![
            Block::new("a", vec![rid(0), rid(1), rid(3)]),
            Block::new("b", vec![rid(3), rid(4)]),
        ]);
        let m = BlockingMetrics::evaluate(&blocks, &truth());
        assert_eq!(m.candidate_pairs, 4);
        assert_eq!(m.true_positives, 2);
        assert!((m.pc() - 0.5).abs() < 1e-12);
        assert!((m.pq() - 0.5).abs() < 1e-12);
        assert!((m.fm() - 0.5).abs() < 1e-12);
        assert!((m.rr() - (1.0 - 4.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn redundant_pairs_lower_pq_star_but_not_pq() {
        // The same true-match pair appears in two blocks: PQ stays 1 while
        // PQ* halves — exactly the difference the paper notes between its PQ
        // and the meta-blocking paper's PQ*.
        let blocks = BlockCollection::from_blocks(vec![
            Block::new("a", vec![rid(0), rid(1)]),
            Block::new("b", vec![rid(0), rid(1)]),
        ]);
        let m = BlockingMetrics::evaluate(&blocks, &truth());
        assert_eq!(m.pq(), 1.0);
        assert_eq!(m.pq_star(), 0.5);
        assert!(m.fm_star() < m.fm());
    }

    #[test]
    fn degenerate_ground_truth_is_handled() {
        let truth = GroundTruth::from_assignments(vec![]);
        let m = BlockingMetrics::evaluate(&BlockCollection::new(), &truth);
        assert_eq!(m.pc(), 0.0);
        assert_eq!(m.rr(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sablock_core::blocking::Block;
    use sablock_core::parallel::with_threads;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::RecordId;

    fn arb_blocks(num_records: u32) -> impl Strategy<Value = BlockCollection> {
        proptest::collection::vec(
            proptest::collection::vec(0..num_records, 2..6),
            0..8,
        )
        .prop_map(|blocks| {
            BlockCollection::from_blocks(
                blocks
                    .into_iter()
                    .enumerate()
                    .map(|(i, members)| Block::new(format!("b{i}"), members.into_iter().map(RecordId).collect()))
                    .collect(),
            )
        })
    }

    fn arb_truth(num_records: u32, num_entities: u32) -> impl Strategy<Value = GroundTruth> {
        proptest::collection::vec(0..num_entities, num_records as usize..=num_records as usize)
            .prop_map(|assignment| GroundTruth::from_assignments(assignment.into_iter().map(EntityId).collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn all_measures_stay_in_the_unit_interval(blocks in arb_blocks(12), truth in arb_truth(12, 4)) {
            let m = BlockingMetrics::evaluate(&blocks, &truth);
            for value in [m.pc(), m.pq(), m.fm(), m.pq_star(), m.fm_star()] {
                prop_assert!((0.0..=1.0).contains(&value), "{value}");
            }
            prop_assert!(m.rr() <= 1.0);
        }

        #[test]
        fn fm_lies_between_its_components(blocks in arb_blocks(12), truth in arb_truth(12, 4)) {
            let m = BlockingMetrics::evaluate(&blocks, &truth);
            let lo = m.pc().min(m.pq());
            let hi = m.pc().max(m.pq());
            // The harmonic mean lies between min and max of its inputs (and is
            // 0 when either input is 0).
            if lo > 0.0 {
                prop_assert!(m.fm() + 1e-12 >= lo);
            }
            prop_assert!(m.fm() <= hi + 1e-12);
            // PQ* <= PQ, and the harmonic mean is monotone in each argument.
            prop_assert!(m.fm_star() <= m.fm() + 1e-12);
        }

        #[test]
        fn streaming_evaluation_equals_materialised(blocks in arb_blocks(12), truth in arb_truth(12, 4)) {
            let streamed = BlockingMetrics::evaluate(&blocks, &truth);
            prop_assert_eq!(streamed, BlockingMetrics::evaluate_materialised(&blocks, &truth));
            for threads in [1usize, 4] {
                prop_assert_eq!(streamed, with_threads(threads, || BlockingMetrics::evaluate(&blocks, &truth)));
            }
        }

        #[test]
        fn true_positives_never_exceed_either_side(blocks in arb_blocks(12), truth in arb_truth(12, 4)) {
            let m = BlockingMetrics::evaluate(&blocks, &truth);
            prop_assert!(m.true_positives <= m.candidate_pairs);
            prop_assert!(m.true_positives <= m.total_true_matches);
            prop_assert!(m.candidate_pairs <= m.redundant_pairs);
        }
    }
}
