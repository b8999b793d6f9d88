//! Cross-crate property-based tests of the framework's structural invariants:
//! random taxonomy trees, random interpretations, random block collections and
//! random blocker configurations must all respect the propositions of the
//! paper and the algebra of the evaluation measures.

use proptest::prelude::*;

use sablock::core::blocking::{Block, BlockCollection, EntityTableProbe, MAX_RECORD_ID};
use sablock::core::lsh::probability::{banding_collision_probability, salsh_collision_probability, w_way_probability};
use sablock::core::parallel::with_threads;
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::core::semantic::similarity::{concept_similarity, record_semantic_similarity};
use sablock::core::semantic::Interpretation;
use sablock::core::taxonomy::{ConceptId, TaxonomyTree};
use sablock::datasets::record::RecordPair;
use sablock::prelude::*;

/// Builds a random taxonomy tree from a parent-pointer list: node `i + 1`
/// attaches to node `parents[i] % (i + 1)`, guaranteeing a valid tree.
fn tree_from_parents(parents: &[u8]) -> TaxonomyTree {
    let mut tree = TaxonomyTree::new("random");
    let root = tree.add_root("n0").unwrap();
    let mut nodes = vec![root];
    for (i, &p) in parents.iter().enumerate() {
        let parent = nodes[(p as usize) % nodes.len()];
        let id = tree.add_child(parent, format!("n{}", i + 1)).unwrap();
        nodes.push(id);
    }
    tree
}

fn arb_tree() -> impl Strategy<Value = TaxonomyTree> {
    proptest::collection::vec(any::<u8>(), 1..20).prop_map(|parents| tree_from_parents(&parents))
}

/// Interprets a flat id list as consecutive `(a, b)` pairs, dropping the
/// self-pairs (the vendored proptest has no tuple strategies).
fn ids_to_pairs(ids: &[u32]) -> Vec<RecordPair> {
    ids.chunks_exact(2)
        .filter_map(|ab| RecordPair::new(RecordId(ab[0]), RecordId(ab[1])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants of random taxonomy trees: validation passes, the
    /// leaves of the root are all leaves of the tree, and every concept's leaf
    /// set is a subset of its ancestors' leaf sets.
    #[test]
    fn random_trees_are_structurally_sound(tree in arb_tree()) {
        prop_assert!(tree.validate().is_ok());
        let root = tree.root().unwrap();
        prop_assert_eq!(tree.leaves_under(root).len(), tree.all_leaves().len());
        for concept in tree.concepts() {
            let leaves = tree.leaves_under(concept);
            prop_assert!(!leaves.is_empty());
            if let Some(parent) = tree.parent(concept) {
                let parent_leaves = tree.leaves_under(parent);
                prop_assert!(leaves.iter().all(|l| parent_leaves.contains(l)));
                prop_assert!(tree.subsumed_by(concept, parent));
                prop_assert!(!tree.subsumed_by(parent, concept) || parent == concept);
            }
        }
    }

    /// Eq. 4 on random trees: concept similarity is symmetric, bounded,
    /// reflexive, zero for unrelated siblings and monotone along chains.
    #[test]
    fn concept_similarity_axioms_hold_on_random_trees(tree in arb_tree()) {
        let concepts: Vec<ConceptId> = tree.concepts().collect();
        for &a in &concepts {
            prop_assert_eq!(concept_similarity(&tree, a, a), 1.0);
            for &b in &concepts {
                let s = concept_similarity(&tree, a, b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((s - concept_similarity(&tree, b, a)).abs() < 1e-12);
                // Unrelated concepts have disjoint leaf sets => similarity 0.
                if !tree.related(a, b) {
                    prop_assert_eq!(s, 0.0);
                }
                // Related concepts always share the descendant's leaves => > 0.
                if tree.related(a, b) {
                    prop_assert!(s > 0.0);
                }
            }
        }
    }

    /// Eq. 5 and Proposition 4.2 on random trees and random interpretations.
    #[test]
    fn record_similarity_axioms_hold_on_random_trees(
        tree in arb_tree(),
        picks_a in proptest::collection::vec(any::<u8>(), 1..4),
        picks_b in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let concepts: Vec<ConceptId> = tree.concepts().collect();
        let pick = |choices: &[u8]| -> Interpretation {
            Interpretation::new(&tree, choices.iter().map(|&c| concepts[(c as usize) % concepts.len()]))
        };
        let zeta_a = pick(&picks_a);
        let zeta_b = pick(&picks_b);
        let s_ab = record_semantic_similarity(&tree, &zeta_a, &zeta_b);
        let s_ba = record_semantic_similarity(&tree, &zeta_b, &zeta_a);
        prop_assert!((0.0..=1.0).contains(&s_ab));
        prop_assert!((s_ab - s_ba).abs() < 1e-12);
        // Self-similarity of a non-empty interpretation is 1.
        prop_assert!((record_semantic_similarity(&tree, &zeta_a, &zeta_a) - 1.0).abs() < 1e-12);
        // Proposition 4.3-style compatibility: zero semantic similarity iff the
        // semhash signatures share no bit (over the full-leaf family).
        let family = SemhashFamily::from_all_leaves(&tree).unwrap();
        let sig_a = family.signature(&tree, &zeta_a);
        let sig_b = family.signature(&tree, &zeta_b);
        prop_assert_eq!(s_ab == 0.0, !sig_a.intersects(&sig_b));
    }

    /// The closed-form collision model: monotone in every argument and
    /// consistent between the plain and semantic-aware families.
    #[test]
    fn collision_model_is_monotone(
        s in 0.0f64..1.0,
        s_prime in 0.0f64..1.0,
        k in 1usize..8,
        l in 1usize..100,
        w in 1usize..10,
    ) {
        let base = banding_collision_probability(s, k, l);
        prop_assert!((0.0..=1.0).contains(&base));
        // More bands help, more rows hurt.
        prop_assert!(banding_collision_probability(s, k, l + 1) + 1e-12 >= base);
        prop_assert!(banding_collision_probability(s, k + 1, l) <= base + 1e-12);
        // The semantic factor can only lower the probability, and OR dominates AND.
        for mode in [SemanticMode::And, SemanticMode::Or] {
            let sa = salsh_collision_probability(s, s_prime, k, l, w, mode);
            prop_assert!(sa <= base + 1e-12);
            prop_assert!((0.0..=1.0).contains(&sa));
        }
        prop_assert!(
            w_way_probability(s_prime, w, SemanticMode::Or) + 1e-12 >= w_way_probability(s_prime, w, SemanticMode::And)
        );
    }

    /// The packed pair key is a faithful, order-preserving encoding: packing
    /// round-trips exactly and the numeric order of packed keys is the
    /// derived `Ord` on [`RecordPair`].
    #[test]
    fn packed_keys_round_trip_and_preserve_ordering(
        ids in proptest::collection::vec(any::<u32>(), 2..128),
    ) {
        let pairs = ids_to_pairs(&ids);
        for &pair in &pairs {
            prop_assert_eq!(RecordPair::from_packed(pair.pack()), pair);
            prop_assert_eq!(RecordPair::pack_ascending(pair.first(), pair.second()), pair.pack());
        }
        for &a in &pairs {
            for &b in &pairs {
                prop_assert_eq!(a.cmp(&b), a.pack().cmp(&b.pack()), "{} vs {}", a, b);
            }
        }
    }

    /// The sort-dedup pair enumeration is a drop-in replacement
    /// for the old per-collection HashSet: on random block collections —
    /// including empty blocks, singleton blocks and overlap-heavy collections
    /// drawn from a tiny record universe so most pairs repeat across blocks —
    /// `distinct_pairs` yields exactly the reference set, in sorted order.
    #[test]
    fn sorted_merge_enumeration_matches_hashset_semantics(
        // Up to 600 blocks of 0..6 members over only 9 records: heavy overlap,
        // with empty and singleton blocks mixed in.
        blocks in proptest::collection::vec(proptest::collection::vec(0u32..9, 0..6), 0..600),
    ) {
        let collection = BlockCollection::from_blocks(
            blocks
                .iter()
                .enumerate()
                .map(|(i, members)| Block::new(format!("b{i}"), members.iter().copied().map(RecordId).collect()))
                .collect(),
        );
        // Reference: the pre-refactor semantics — a hash set accumulated
        // per block, here ordered through a BTreeSet for comparison.
        let reference: std::collections::BTreeSet<_> =
            collection.blocks().iter().flat_map(|b| b.pairs()).collect();
        let enumerated = collection.distinct_pairs();
        prop_assert!(enumerated.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
        prop_assert_eq!(enumerated.len(), reference.len());
        prop_assert_eq!(enumerated, reference.into_iter().collect::<Vec<_>>());
    }

    /// Streaming Γ evaluation is a drop-in replacement for the materialised
    /// computation: on random block collections — overlap-heavy (blocks drawn
    /// from a 9-record universe), with singleton and empty blocks mixed in —
    /// `BlockingMetrics::evaluate` equals `evaluate_materialised` field for
    /// field, for every worker count.
    #[test]
    fn streaming_evaluation_matches_materialised_evaluation(
        blocks in proptest::collection::vec(proptest::collection::vec(0u32..9, 0..6), 0..600),
        entities in proptest::collection::vec(0u32..4, 9),
    ) {
        let collection = BlockCollection::from_blocks(
            blocks
                .iter()
                .enumerate()
                .map(|(i, members)| Block::new(format!("b{i}"), members.iter().copied().map(RecordId).collect()))
                .collect(),
        );
        let truth = GroundTruth::from_assignments(entities.into_iter().map(EntityId).collect());
        let reference = BlockingMetrics::evaluate_materialised(&collection, &truth);
        let streamed = BlockingMetrics::evaluate(&collection, &truth);
        prop_assert_eq!(streamed, reference);
        for threads in [1usize, 4] {
            prop_assert_eq!(with_threads(threads, || BlockingMetrics::evaluate(&collection, &truth)), reference);
        }
        // A closure probe instead of the entity table must not change any
        // count either, whatever the worker count.
        for threads in [1usize, 2, 4] {
            let counts = with_threads(threads, || {
                collection.stream_packed_counts(|p: &RecordPair| truth.is_match_pair(p))
            });
            prop_assert_eq!(counts.distinct, reference.candidate_pairs, "threads={}", threads);
            prop_assert_eq!(counts.matching, reference.true_positives, "threads={}", threads);
        }
    }

    /// The dense-rank mapping of the streaming counter: ids from `0..9`
    /// mixed with ids within 9 of `MAX_RECORD_ID` count exactly like the
    /// materialised evaluation, for 1, 2 and 4 workers, and a probe that
    /// reads the high ids sees each distinct pair once. So do the same
    /// blocks on ids `0..9` plus one block whose top id makes the largest
    /// id + 1 equal the membership count — the largest id space whose ids
    /// are their own ranks — or exceed it by one, the smallest that takes
    /// the sorted ranks.
    #[test]
    fn streaming_counts_map_sparse_ids_to_dense_ranks(
        blocks in proptest::collection::vec(proptest::collection::vec(0u32..18, 0..6), 0..200),
        entities in proptest::collection::vec(0u32..3, 9),
    ) {
        let id = |v: u32| RecordId(if v < 9 { v } else { MAX_RECORD_ID - (v - 9) });
        let collection = BlockCollection::try_from_blocks(
            blocks
                .iter()
                .enumerate()
                .map(|(i, members)| Block::new(format!("b{i}"), members.iter().map(|&v| id(v)).collect()))
                .collect(),
        )
        .unwrap();
        let truth = GroundTruth::from_assignments(entities.into_iter().map(EntityId).collect());
        let reference = BlockingMetrics::evaluate_materialised(&collection, &truth);
        let high = |p: &RecordPair| p.second().0 > MAX_RECORD_ID - 9 && p.first().0 % 2 == 0;
        let expected_high = collection.distinct_pairs().iter().filter(|p| high(p)).count() as u64;
        for threads in [1usize, 2, 4] {
            let counts = with_threads(threads, || {
                collection.stream_packed_counts(EntityTableProbe::new(truth.entity_table()))
            });
            prop_assert_eq!(counts.distinct, reference.candidate_pairs, "threads={}", threads);
            prop_assert_eq!(counts.matching, reference.true_positives, "threads={}", threads);
            let counts = with_threads(threads, || collection.stream_packed_counts(high));
            prop_assert_eq!(counts.matching, expected_high, "threads={}", threads);
        }

        // The top block `{0..=pad, top}`: with `m` memberships before it,
        // `top = m + pad + 1` makes the largest id + 1 equal all `m + pad + 2`
        // memberships, and `pad` keeps `top` above every id in `0..9`.
        let small: Vec<Block> = blocks
            .iter()
            .enumerate()
            .map(|(i, members)| Block::new(format!("s{i}"), members.iter().map(|&v| RecordId(v % 9)).collect()))
            .collect();
        let memberships: usize = BlockCollection::from_blocks(small.clone()).blocks().iter().map(Block::len).sum();
        let pad = 8usize.saturating_sub(memberships);
        for past in [0usize, 1] {
            let top = memberships + pad + 1 + past;
            let mut edge = small.clone();
            edge.push(Block::new("top", (0..=pad).chain([top]).map(|v| RecordId(u32::try_from(v).unwrap())).collect()));
            let collection = BlockCollection::from_blocks(edge);
            let members: usize = collection.blocks().iter().map(Block::len).sum();
            prop_assert_eq!(top + 1, members + past);
            let reference = BlockingMetrics::evaluate_materialised(&collection, &truth);
            for threads in [1usize, 2, 4] {
                let counts = with_threads(threads, || {
                    collection.stream_packed_counts(EntityTableProbe::new(truth.entity_table()))
                });
                prop_assert_eq!(counts.distinct, reference.candidate_pairs, "past={} threads={}", past, threads);
                prop_assert_eq!(counts.matching, reference.true_positives, "past={} threads={}", past, threads);
            }
        }
    }

    /// Degenerate inputs of the streaming evaluation: singleton-only and
    /// empty block collections yield all-zero pair counts for every worker
    /// count.
    #[test]
    fn streaming_evaluation_handles_degenerate_collections(
        singletons in proptest::collection::vec(0u32..50, 0..12),
        entities in proptest::collection::vec(0u32..4, 50),
    ) {
        let collection = BlockCollection::from_blocks(
            singletons
                .iter()
                .enumerate()
                .map(|(i, &m)| Block::new(format!("s{i}"), vec![RecordId(m)]))
                .collect(),
        );
        prop_assert!(collection.is_empty(), "singleton blocks are dropped at construction");
        let truth = GroundTruth::from_assignments(entities.into_iter().map(EntityId).collect());
        let streamed = BlockingMetrics::evaluate(&collection, &truth);
        prop_assert_eq!(streamed, BlockingMetrics::evaluate_materialised(&collection, &truth));
        prop_assert_eq!(streamed.candidate_pairs, 0);
        prop_assert_eq!(streamed.true_positives, 0);
        let empty = BlockCollection::new();
        for threads in [1usize, 2, 4] {
            let counts = with_threads(threads, || empty.stream_packed_counts(|_: &RecordPair| true));
            prop_assert_eq!(counts.distinct, 0);
            prop_assert_eq!(counts.matching, 0);
        }
    }

    /// BlockCollection algebra on random block structures: θ is symmetric and
    /// consistent with the distinct-pair set, counts are consistent, and the
    /// membership index covers exactly the blocked records.
    #[test]
    fn block_collection_algebra(blocks in proptest::collection::vec(proptest::collection::vec(0u32..20, 2..6), 0..10)) {
        let collection = BlockCollection::from_blocks(
            blocks
                .iter()
                .enumerate()
                .map(|(i, members)| Block::new(format!("b{i}"), members.iter().copied().map(RecordId).collect()))
                .collect(),
        );
        let pairs = collection.distinct_pairs();
        prop_assert_eq!(pairs.len() as u64, collection.num_distinct_pairs());
        prop_assert!(collection.num_distinct_pairs() <= collection.redundant_pair_count());
        for pair in pairs.iter().take(50) {
            prop_assert!(collection.theta(pair.first(), pair.second()));
            prop_assert!(collection.theta(pair.second(), pair.first()));
        }
        let membership = collection.membership();
        for block in collection.blocks() {
            for member in block.members() {
                prop_assert!(membership.contains_key(member));
            }
        }
        prop_assert!(collection.max_block_size() <= 6);
    }
}
