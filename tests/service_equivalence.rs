//! The service's load-bearing property: a [`CandidateService`] query over any
//! published epoch returns **exactly** the partner set one-shot blocking
//! would pair the probe with over `corpus ∪ {probe}` — regardless of how the
//! corpus was split into insert batches, for plain LSH and semantic SA-LSH
//! configurations alike, and (with dense-id remapping) after removals.
//! A ranked query returns that same set, each candidate scored with its
//! exact shingle-set Jaccard similarity to the probe.
//!
//! The vendored `proptest` derives its RNG seed from the test name, so every
//! run replays the same fixed-seed case set.

use std::sync::Arc;

use proptest::prelude::*;

use sablock::core::blocking::{Blocker, BlockCollection};
use sablock::core::lsh::salsh::SaLshBlockerBuilder;
use sablock::core::semantic::semhash::SemhashFamily;
use sablock::datasets::dataset::DatasetBuilder;
use sablock::prelude::*;

fn lsh_builder() -> SaLshBlockerBuilder {
    SaLshBlocker::builder().attributes(["title", "authors"]).qgram(3).rows_per_band(2).bands(8).seed(0xB10C)
}

fn salsh_builder() -> SaLshBlockerBuilder {
    let tree = bibliographic_taxonomy();
    let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
    let family = SemhashFamily::from_all_leaves(&tree).unwrap();
    lsh_builder().semantic(
        SemanticConfig::new(tree, zeta)
            .with_w(2)
            .with_mode(SemanticMode::Or)
            .with_seed(11)
            .with_pinned_family(family),
    )
}

/// A deliberately tiny vocabulary: rows drawn from it share many q-grams, so
/// random corpora produce dense bucket collisions instead of all-singletons.
const TITLE_WORDS: &[&str] =
    &["theory", "record", "linkage", "entity", "resolution", "semantic", "blocking", "errors"];
const AUTHOR_WORDS: &[&str] = &["fellegi", "sunter", "wang", "newcombe"];

/// Decodes one generated byte string into a `(title, authors)` row. An empty
/// pick leaves the attribute missing, exercising the pattern-ζ semantic path.
fn row_from(picks: &[u8]) -> Vec<Option<String>> {
    let title: Vec<&str> =
        picks.iter().skip(1).map(|&byte| TITLE_WORDS[byte as usize % TITLE_WORDS.len()]).collect();
    let title = if title.is_empty() { None } else { Some(title.join(" ")) };
    let authors = picks.first().map(|&byte| AUTHOR_WORDS[byte as usize % AUTHOR_WORDS.len()].to_string());
    vec![title, authors]
}

fn schema() -> Arc<Schema> {
    Schema::shared(["title", "authors"]).unwrap()
}

/// The reference: one-shot blocking over `rows ∪ {probe}` (dense ids in row
/// order, probe last), reduced to the probe's co-block partner set.
fn one_shot_partners(
    builder: SaLshBlockerBuilder,
    rows: &[Vec<Option<String>>],
    probe: &[Option<String>],
) -> Vec<RecordId> {
    let mut dataset = DatasetBuilder::new("equivalence-reference", schema());
    for row in rows {
        let entity = EntityId(u32::try_from(dataset.len()).unwrap());
        dataset.push_values(row.clone(), entity).unwrap();
    }
    let probe_id = dataset.push_values(probe.to_vec(), EntityId(u32::MAX)).unwrap();
    let blocks: BlockCollection = builder.build().unwrap().block(&dataset.build().unwrap()).unwrap();
    let mut partners: Vec<RecordId> = Vec::new();
    for block in blocks.blocks() {
        if block.members().contains(&probe_id) {
            partners.extend(block.members().iter().copied().filter(|&id| id != probe_id));
        }
    }
    partners.sort_unstable();
    partners.dedup();
    partners
}

/// Builds a service and feeds it `rows` split into batches at the points the
/// generated `cuts` select.
fn service_over(
    builder: SaLshBlockerBuilder,
    rows: &[Vec<Option<String>>],
    cuts: &[u8],
) -> CandidateService {
    let service = CandidateService::new(builder.into_incremental().unwrap(), schema()).unwrap();
    let mut boundaries: Vec<usize> = cuts.iter().map(|&cut| cut as usize % (rows.len() + 1)).collect();
    boundaries.push(0);
    boundaries.push(rows.len());
    boundaries.sort_unstable();
    boundaries.dedup();
    for window in boundaries.windows(2) {
        // Empty batches between equal boundaries were deduplicated away;
        // each window is a non-empty chunk of the corpus in row order.
        service.insert_rows(rows[window[0]..window[1]].to_vec()).unwrap();
    }
    service
}

fn query_ids(service: &CandidateService, probe_values: &[Option<String>]) -> Vec<RecordId> {
    let state = service.current();
    let probe = service.probe_record(&state, probe_values.to_vec()).unwrap();
    state.query(&probe).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain-LSH equivalence over arbitrary corpora and batch partitions.
    #[test]
    fn lsh_service_query_equals_one_shot_blocking(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 0..20),
        cuts in proptest::collection::vec(any::<u8>(), 0..6),
        probe_raw in proptest::collection::vec(any::<u8>(), 0..5),
    ) {
        let rows: Vec<Vec<Option<String>>> = raw.iter().map(|picks| row_from(picks)).collect();
        let probe = row_from(&probe_raw);
        let service = service_over(lsh_builder(), &rows, &cuts);
        prop_assert_eq!(query_ids(&service, &probe), one_shot_partners(lsh_builder(), &rows, &probe));
    }

    /// The same property with the full semantic machinery armed (pattern ζ,
    /// pinned semhash family, 2-way OR sub-keys).
    #[test]
    fn salsh_service_query_equals_one_shot_blocking(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 0..16),
        cuts in proptest::collection::vec(any::<u8>(), 0..4),
        probe_raw in proptest::collection::vec(any::<u8>(), 0..5),
    ) {
        let rows: Vec<Vec<Option<String>>> = raw.iter().map(|picks| row_from(picks)).collect();
        let probe = row_from(&probe_raw);
        let service = service_over(salsh_builder(), &rows, &cuts);
        prop_assert_eq!(query_ids(&service, &probe), one_shot_partners(salsh_builder(), &rows, &probe));
    }

    /// Equivalence survives removals: after tombstoning a generated subset,
    /// the query result — remapped through the live-id order — equals
    /// one-shot partners over the *live* rows alone.
    #[test]
    fn service_query_after_removals_equals_one_shot_over_live_rows(
        raw in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 1..16),
        cuts in proptest::collection::vec(any::<u8>(), 0..4),
        doomed in proptest::collection::vec(any::<u8>(), 0..8),
        probe_raw in proptest::collection::vec(any::<u8>(), 0..5),
    ) {
        let rows: Vec<Vec<Option<String>>> = raw.iter().map(|picks| row_from(picks)).collect();
        let probe = row_from(&probe_raw);
        let service = service_over(lsh_builder(), &rows, &cuts);
        let mut removed = vec![false; rows.len()];
        for &pick in &doomed {
            let index = pick as usize % rows.len();
            if !removed[index] {
                removed[index] = true;
                service.remove(RecordId(u32::try_from(index).unwrap())).unwrap();
            }
        }

        // Dense re-ids: live row i of the service corresponds to the i-th
        // pushed record of the reference dataset.
        let live_ids: Vec<RecordId> =
            (0..rows.len()).filter(|&index| !removed[index]).map(|index| RecordId(u32::try_from(index).unwrap())).collect();
        let live_rows: Vec<Vec<Option<String>>> =
            (0..rows.len()).filter(|&index| !removed[index]).map(|index| rows[index].clone()).collect();
        let expected_dense = one_shot_partners(lsh_builder(), &live_rows, &probe);
        let expected: Vec<RecordId> = expected_dense.iter().map(|id| live_ids[id.index()]).collect();
        prop_assert_eq!(query_ids(&service, &probe), expected);
    }
}

/// `QUERYK`'s ranking over a real corpus: a 2,000-row Cora service ranks
/// exactly the probe's candidate set, scores each candidate with the exact
/// shingle-set Jaccard similarity (compared with `==`), and orders by score
/// descending, then id ascending. The probes are 50 held-out rows plus a
/// non-ASCII and a punctuation-heavy variant of one of them.
#[test]
fn ranked_query_scores_are_exact_jaccard_over_a_cora_corpus() {
    let dataset = CoraGenerator::new(CoraConfig { num_records: 2_050, ..CoraConfig::default() }).generate().unwrap();
    let rows: Vec<Vec<Option<String>>> = dataset.records().iter().map(|record| record.values().to_vec()).collect();
    let (corpus, held_out) = rows.split_at(2_000);
    // Copies of held-out rows tie exactly: two copies each of rows 1–5
    // across first place, twelve of row 6 across tenth.
    let mut corpus = corpus.to_vec();
    for (at, copies) in [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 12)] {
        corpus.extend(std::iter::repeat(&held_out[at]).take(copies).cloned());
    }
    let service =
        CandidateService::new(salsh_builder().into_incremental().unwrap(), Arc::clone(dataset.schema())).unwrap();
    service.insert_rows(corpus).unwrap();
    let state = service.current();
    let shingler = state.view().shingler();

    let title = dataset.schema().index_of("title").unwrap();
    let base_title = held_out[0][title].clone().unwrap();
    let mut non_ascii = held_out[0].clone();
    non_ascii[title] = Some(format!("{base_title} — Ünïcödé İSTANBUL Straße ǅemal 日本語 ΣΊΣΥΦΟΣ"));
    let mut punctuated = held_out[0].clone();
    punctuated[title] = Some(format!("...{}!!! (((v2))) ;;; --", base_title.replace(' ', "--//--")));
    let probes: Vec<Vec<Option<String>>> = held_out.iter().cloned().chain([non_ascii, punctuated]).collect();

    let (mut ranked_candidates, mut ties_across_k) = (0usize, [0usize; 2]);
    for (at, values) in probes.into_iter().enumerate() {
        let probe = service.probe_record(&state, values).unwrap();
        let candidates = state.query(&probe).unwrap();
        let ranked = state.query_top_k(&probe, usize::MAX).unwrap();
        if at >= held_out.len() {
            assert!(!candidates.is_empty(), "probe {at} should collide with the corpus");
        }

        let mut ranked_ids: Vec<RecordId> = ranked.iter().map(|&(id, _)| id).collect();
        ranked_ids.sort_unstable();
        assert_eq!(ranked_ids, candidates, "probe {at}: the ranking covers exactly the candidate set");
        for &(id, score) in &ranked {
            let stored = state.record(id).unwrap();
            assert_eq!(score, shingler.jaccard(&probe, stored), "probe {at}, candidate {id}");
        }
        for pair in ranked.windows(2) {
            let ((first_id, first), (second_id, second)) = (pair[0], pair[1]);
            assert!(first > second || (first == second && first_id < second_id), "probe {at}: order {pair:?}");
        }
        // A bounded top-k gives candidates up part-way; it must still
        // answer the prefix of the full ranking, ties included.
        for (ties, k) in ties_across_k.iter_mut().zip([1, 10]) {
            let top = state.query_top_k(&probe, k).unwrap();
            assert_eq!(top.as_slice(), &ranked[..k.min(ranked.len())], "probe {at}, k {k}");
            *ties += usize::from(ranked.len() > k && ranked[k - 1].1 == ranked[k].1);
        }
        ranked_candidates += ranked.len();
    }
    assert!(ranked_candidates > 1_000, "the probes should rank a real workload, got {ranked_candidates} candidates");
    assert!(ties_across_k.iter().all(|&ties| ties >= 1), "some probe must tie across the k-th place: {ties_across_k:?}");
}
