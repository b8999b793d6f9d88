//! Canopy clustering blocking (CaTh and CaNN in Table 3).
//!
//! McCallum, Nigam and Ungar's canopy clustering uses a *cheap* similarity
//! (TF-IDF cosine or Jaccard over tokens/q-grams) and two thresholds: pick a
//! random seed record, put every record within the *loose* threshold into its
//! canopy (block), and remove every record within the *tight* threshold from
//! the pool of future seeds. The nearest-neighbour variant replaces the two
//! thresholds with two neighbour counts (`n1` records join the canopy, the
//! `n2` closest are removed from the pool).
//!
//! Canopy clustering computes similarities between the seed and every
//! remaining record, so it retains an O(n²)-flavoured cost — the paper lists
//! it among the slower baselines. On large datasets both the per-record
//! representation build (q-gram sets / TF-IDF vectors, routed through
//! `build_index_chunked`) and the per-centre similarity scan
//! (`parallel_map`) run across worker threads; the canopy-forming sweep
//! itself stays sequential, so the blocks are byte-identical for every
//! worker count (pinned in `tests/determinism.rs`).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sablock_datasets::{Dataset, Record};
use sablock_textual::hashing::StableHashSet;
use sablock_textual::qgrams::qgram_set;
use sablock_textual::setsim::jaccard;
use sablock_textual::tfidf::{dot, SparseVector, TfIdfModel};

use sablock_core::blocking::{Block, BlockCollection, Blocker};
use sablock_core::error::{CoreError, Result};
use sablock_core::parallel::{parallel_map, resolve_threads};

use crate::key::BlockingKey;
use crate::{build_index_chunked, record_id_of_index};

/// The cheap similarity used to form canopies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CanopySimilarity {
    /// Jaccard over character q-grams of the key value.
    Jaccard {
        /// The q-gram size.
        q: usize,
    },
    /// TF-IDF cosine over the key value's word tokens.
    TfIdfCosine,
}

impl CanopySimilarity {
    fn name(&self) -> String {
        match self {
            Self::Jaccard { q } => format!("jaccard(q={q})"),
            Self::TfIdfCosine => "tfidf-cosine".to_string(),
        }
    }
}

/// Pre-computed per-record representations for the chosen similarity.
enum Repr {
    Jaccard(Vec<StableHashSet<String>>),
    TfIdf(Vec<SparseVector>),
}

impl Repr {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match self {
            Repr::Jaccard(sets) => jaccard(&sets[a], &sets[b]),
            Repr::TfIdf(vectors) => dot(&vectors[a], &vectors[b]).clamp(0.0, 1.0),
        }
    }
}

/// Extracts every record's blocking-key value and its similarity
/// representation in one pass, indexing record chunks in parallel through
/// [`build_index_chunked`] (per-chunk vectors append in ascending chunk
/// order, so the result is byte-identical to a sequential pass for any
/// worker count). The TF-IDF model's document frequencies are a global
/// statistic, so that variant fits the model sequentially after the value
/// pass and chunks only the per-record vectorisation ([`parallel_map`]).
fn prepare_repr(similarity: CanopySimilarity, dataset: &Dataset, key: &BlockingKey) -> (Vec<String>, Repr) {
    match similarity {
        CanopySimilarity::Jaccard { q } => {
            let q = q.max(1);
            let pairs: Vec<(String, StableHashSet<String>)> = build_index_chunked(
                dataset.records(),
                |records: &[Record]| {
                    records
                        .iter()
                        .map(|r| {
                            let value = key.value(r);
                            let set = qgram_set(&value, q);
                            (value, set)
                        })
                        .collect::<Vec<_>>()
                },
                |merged, partial| merged.extend(partial),
            );
            let mut values = Vec::with_capacity(pairs.len());
            let mut sets = Vec::with_capacity(pairs.len());
            for (value, set) in pairs {
                values.push(value);
                sets.push(set);
            }
            (values, Repr::Jaccard(sets))
        }
        CanopySimilarity::TfIdfCosine => {
            let values: Vec<String> = build_index_chunked(
                dataset.records(),
                |records: &[Record]| records.iter().map(|r| key.value(r)).collect::<Vec<String>>(),
                |merged, partial| merged.extend(partial),
            );
            let model = TfIdfModel::fit(values.iter());
            let vectors = parallel_map(&values, resolve_threads(values.len()), |v| model.vectorize(v));
            (values, Repr::TfIdf(vectors))
        }
    }
}

/// The similarities of one canopy centre against every keyed record, in
/// record order ([`parallel_map`] across index chunks; empty-keyed records
/// and the centre itself score −1 so they never pass a threshold). Keeping
/// the scan order fixed keeps canopy formation thread-count invariant.
fn centre_similarities(repr: &Repr, values: &[String], centre: usize, threads: usize) -> Vec<f64> {
    let ids: Vec<usize> = (0..values.len()).collect();
    parallel_map(&ids, threads, |&other| {
        if other == centre || values[other].is_empty() {
            -1.0
        } else {
            repr.similarity(centre, other)
        }
    })
}

/// Threshold-based canopy clustering (CaTh).
#[derive(Debug, Clone)]
pub struct CanopyThreshold {
    key: BlockingKey,
    similarity: CanopySimilarity,
    loose: f64,
    tight: f64,
    seed: u64,
}

impl CanopyThreshold {
    /// Creates the blocker. The paper sweeps the thresholds over
    /// {0.9/0.8, 0.8/0.7} with Jaccard and TF-IDF cosine similarities.
    /// `tight` must be at least `loose` (the tight threshold removes records
    /// from the seed pool, so it is the *higher* similarity).
    pub fn new(key: BlockingKey, similarity: CanopySimilarity, tight: f64, loose: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&tight) || !(0.0..=1.0).contains(&loose) {
            return Err(CoreError::Config("canopy thresholds must be in [0, 1]".into()));
        }
        if tight < loose {
            return Err(CoreError::Config(format!(
                "the tight threshold ({tight}) must be >= the loose threshold ({loose})"
            )));
        }
        Ok(Self {
            key,
            similarity,
            loose,
            tight,
            seed: 0xCA11,
        })
    }

    /// Sets the seed used to pick canopy centres.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Blocker for CanopyThreshold {
    fn name(&self) -> String {
        format!(
            "CaTh({},{}/{},{})",
            self.similarity.name(),
            self.tight,
            self.loose,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let (values, repr) = prepare_repr(self.similarity, dataset, &self.key);
        let threads = resolve_threads(dataset.len());

        // Candidate pool: records with a non-empty key, in random order.
        let mut pool: Vec<usize> = (0..values.len()).filter(|&i| !values[i].is_empty()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        pool.shuffle(&mut rng);
        let mut in_pool = vec![false; values.len()];
        for &i in &pool {
            in_pool[i] = true;
        }

        let mut blocks = Vec::new();
        let mut canopy_id = 0usize;
        while let Some(centre) = pool.pop() {
            if !in_pool[centre] {
                continue;
            }
            in_pool[centre] = false;
            // The O(n) similarity scan runs across workers; membership and
            // tight claiming stay sequential in record order, so the canopy
            // is identical for every worker count.
            let sims = centre_similarities(&repr, &values, centre, threads);
            let mut members = vec![record_id_of_index(centre)];
            for (other, &sim) in sims.iter().enumerate() {
                // A record may appear in several canopies (loose membership),
                // but only records still in the pool can be claimed tightly.
                if sim >= self.loose {
                    members.push(record_id_of_index(other));
                    if sim >= self.tight && in_pool[other] {
                        in_pool[other] = false;
                    }
                }
            }
            pool.retain(|&i| in_pool[i]);
            if members.len() >= 2 {
                blocks.push(Block::new(format!("canopy{canopy_id}"), members));
                canopy_id += 1;
            }
        }
        Ok(BlockCollection::from_blocks(blocks))
    }
}

/// Nearest-neighbour canopy clustering (CaNN).
#[derive(Debug, Clone)]
pub struct CanopyNearestNeighbour {
    key: BlockingKey,
    similarity: CanopySimilarity,
    include_nearest: usize,
    remove_nearest: usize,
    seed: u64,
}

impl CanopyNearestNeighbour {
    /// Creates the blocker. The paper sweeps the neighbour counts over
    /// {5/10, 10/20} (remove/include).
    pub fn new(key: BlockingKey, similarity: CanopySimilarity, remove_nearest: usize, include_nearest: usize) -> Result<Self> {
        if remove_nearest == 0 || include_nearest == 0 {
            return Err(CoreError::Config("neighbour counts must be > 0".into()));
        }
        if remove_nearest > include_nearest {
            return Err(CoreError::Config(format!(
                "remove_nearest ({remove_nearest}) must be <= include_nearest ({include_nearest})"
            )));
        }
        Ok(Self {
            key,
            similarity,
            include_nearest,
            remove_nearest,
            seed: 0xCA22,
        })
    }

    /// Sets the seed used to pick canopy centres.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Blocker for CanopyNearestNeighbour {
    fn name(&self) -> String {
        format!(
            "CaNN({},{}/{},{})",
            self.similarity.name(),
            self.remove_nearest,
            self.include_nearest,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.key.validate_against(dataset)?;
        let (values, repr) = prepare_repr(self.similarity, dataset, &self.key);
        let threads = resolve_threads(dataset.len());

        let mut pool: Vec<usize> = (0..values.len()).filter(|&i| !values[i].is_empty()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        pool.shuffle(&mut rng);
        let mut in_pool = vec![false; values.len()];
        for &i in &pool {
            in_pool[i] = true;
        }

        let mut blocks = Vec::new();
        let mut canopy_id = 0usize;
        while let Some(centre) = pool.pop() {
            if !in_pool[centre] {
                continue;
            }
            in_pool[centre] = false;
            // Similarities to every other keyed record (scanned across
            // workers in record order), most similar first; the stable sort
            // keeps ties in record order, so the ranking is thread-count
            // invariant.
            let sims = centre_similarities(&repr, &values, centre, threads);
            let mut neighbours: Vec<(usize, f64)> = sims
                .into_iter()
                .enumerate()
                .filter(|&(other, _)| other != centre && !values[other].is_empty())
                .collect();
            neighbours.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

            let mut members = vec![record_id_of_index(centre)];
            for (rank, (other, _)) in neighbours.iter().enumerate() {
                if rank < self.include_nearest {
                    members.push(record_id_of_index(*other));
                }
                if rank < self.remove_nearest && in_pool[*other] {
                    in_pool[*other] = false;
                }
                if rank >= self.include_nearest {
                    break;
                }
            }
            pool.retain(|&i| in_pool[i]);
            if members.len() >= 2 {
                blocks.push(Block::new(format!("canopy-nn{canopy_id}"), members));
                canopy_id += 1;
            }
        }
        Ok(BlockCollection::from_blocks(blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_core::parallel::with_threads;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::RecordId;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::Schema;

    fn key() -> BlockingKey {
        BlockingKey::exact(["title"]).unwrap()
    }

    fn papers() -> Dataset {
        let schema = Schema::shared(["title"]).unwrap();
        let mut b = DatasetBuilder::new("papers", schema);
        let rows = [
            ("the cascade correlation learning architecture", 0),
            ("cascade correlation learning architecture", 0),
            ("the cascade corelation learning architecture", 0),
            ("efficient clustering of high dimensional data sets", 1),
            ("efficient clustering of high dimensional data", 1),
            ("a theory for record linkage", 2),
            ("", 3),
        ];
        for (t, e) in rows {
            let title = if t.is_empty() { None } else { Some(t.to_string()) };
            b.push_values(vec![title], EntityId(e)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn threshold_validation() {
        assert!(CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 0.7, 0.8).is_err());
        assert!(CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 1.2, 0.8).is_err());
        assert!(CanopyNearestNeighbour::new(key(), CanopySimilarity::TfIdfCosine, 0, 5).is_err());
        assert!(CanopyNearestNeighbour::new(key(), CanopySimilarity::TfIdfCosine, 10, 5).is_err());
        let ok = CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 0.9, 0.8).unwrap();
        assert!(ok.name().contains("CaTh"));
        let ok = CanopyNearestNeighbour::new(key(), CanopySimilarity::TfIdfCosine, 5, 10).unwrap();
        assert!(ok.name().contains("CaNN"));
    }

    #[test]
    fn threshold_canopies_group_similar_titles() {
        let ds = papers();
        for similarity in [CanopySimilarity::Jaccard { q: 2 }, CanopySimilarity::TfIdfCosine] {
            let blocks = CanopyThreshold::new(key(), similarity, 0.8, 0.5).unwrap().block(&ds).unwrap();
            assert!(blocks.theta(RecordId(0), RecordId(1)), "{similarity:?}: cascade papers together");
            assert!(blocks.theta(RecordId(3), RecordId(4)), "{similarity:?}: clustering papers together");
            assert!(
                !blocks.theta(RecordId(0), RecordId(5)),
                "{similarity:?}: unrelated titles must not share a canopy"
            );
        }
    }

    #[test]
    fn canopies_are_deterministic_given_a_seed() {
        let ds = papers();
        let blocker = CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 0.9, 0.4).unwrap().with_seed(5);
        let a = blocker.block(&ds).unwrap().distinct_pairs();
        let b = blocker.block(&ds).unwrap().distinct_pairs();
        assert_eq!(a, b);
    }

    #[test]
    fn looser_thresholds_capture_more_pairs() {
        let ds = papers();
        let strict = CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 0.95, 0.85).unwrap().block(&ds).unwrap();
        let loose = CanopyThreshold::new(key(), CanopySimilarity::Jaccard { q: 2 }, 0.8, 0.3).unwrap().block(&ds).unwrap();
        assert!(loose.num_distinct_pairs() >= strict.num_distinct_pairs());
    }

    #[test]
    fn nearest_neighbour_canopies_cover_all_clusters() {
        let ds = papers();
        let blocks = CanopyNearestNeighbour::new(key(), CanopySimilarity::Jaccard { q: 2 }, 1, 2).unwrap().block(&ds).unwrap();
        // With include_nearest = 2 each canopy holds its centre plus its two
        // nearest records, so the cascade trio is recovered across canopies.
        assert!(blocks.theta(RecordId(0), RecordId(1)) || blocks.theta(RecordId(0), RecordId(2)));
        assert!(blocks.theta(RecordId(3), RecordId(4)));
        // Empty records never join canopies.
        assert!(blocks.distinct_pairs().iter().all(|p| p.second().0 != 6));
    }

    #[test]
    fn thread_count_does_not_change_canopies() {
        let ds = papers();
        for similarity in [CanopySimilarity::Jaccard { q: 2 }, CanopySimilarity::TfIdfCosine] {
            let threshold = CanopyThreshold::new(key(), similarity, 0.8, 0.4).unwrap();
            let nearest = CanopyNearestNeighbour::new(key(), similarity, 1, 2).unwrap();
            for blocker in [&threshold as &dyn Blocker, &nearest] {
                let single = with_threads(1, || blocker.block(&ds)).unwrap();
                let quad = with_threads(4, || blocker.block(&ds)).unwrap();
                assert_eq!(single.blocks(), quad.blocks(), "{}", blocker.name());
            }
        }
    }

    #[test]
    fn unknown_key_attribute_errors() {
        let ds = papers();
        assert!(CanopyThreshold::new(BlockingKey::ncvoter(), CanopySimilarity::TfIdfCosine, 0.9, 0.8)
            .unwrap()
            .block(&ds)
            .is_err());
        assert!(CanopyNearestNeighbour::new(BlockingKey::ncvoter(), CanopySimilarity::TfIdfCosine, 5, 10)
            .unwrap()
            .block(&ds)
            .is_err());
    }
}
