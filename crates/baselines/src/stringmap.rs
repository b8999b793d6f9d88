//! String-map (FastMap-style embedding) blocking: StMT and StMNN in Table 3.
//!
//! Jin, Li and Mehrotra's technique embeds the blocking-key strings into a
//! low-dimensional Euclidean space with a FastMap-like procedure driven by
//! edit distance, then finds candidate pairs in the embedded space: either
//! every pair within a distance threshold (StMT) or each record's nearest
//! neighbours (StMNN). A uniform grid over the first two embedding
//! dimensions prunes the search; the remaining dimensions still participate
//! in the exact Euclidean distance check. The paper's Table 3 reports these
//! two techniques as by far the slowest baselines, which this implementation
//! reproduces qualitatively (embedding + neighbourhood search dominate).
//! Both phases run across worker threads on large datasets — key extraction
//! through `build_index_chunked`, embedding and candidate search through
//! `parallel_map` — with blocks stitched back in record order, so the output
//! is byte-identical for every worker count (pinned in
//! `tests/determinism.rs`).

use std::collections::HashMap;

use sablock_datasets::{Dataset, Record};
use sablock_textual::edit::levenshtein;
use sablock_textual::similarity::{SimilarityFunction, StringSimilarity};

use sablock_core::blocking::{Block, BlockCollection, Blocker};
use sablock_core::error::{CoreError, Result};
use sablock_core::parallel::{parallel_map, resolve_threads};

use crate::key::BlockingKey;
use crate::{build_index_chunked, record_id_of_index};

/// A FastMap-style embedding of strings into `dimensions`-dimensional space.
///
/// Each dimension is defined by a pivot pair `(a, b)`; the coordinate of a
/// string `x` is the standard FastMap projection
/// `(d(x,a)² + d(a,b)² − d(x,b)²) / (2·d(a,b))` with `d` = edit distance.
/// Pivots are chosen deterministically by a farthest-point heuristic.
#[derive(Debug, Clone)]
pub struct StringMapEmbedding {
    pivots: Vec<(String, String)>,
}

impl StringMapEmbedding {
    /// Builds an embedding from the distinct strings of a corpus.
    pub fn fit(strings: &[String], dimensions: usize) -> Result<Self> {
        if dimensions == 0 {
            return Err(CoreError::Config("the embedding needs at least one dimension".into()));
        }
        let distinct: Vec<&String> = {
            let mut seen = std::collections::HashSet::new();
            strings.iter().filter(|s| !s.is_empty() && seen.insert(s.as_str())).collect()
        };
        if distinct.len() < 2 {
            return Err(CoreError::Config("the embedding needs at least two distinct non-empty strings".into()));
        }
        let mut pivots = Vec::with_capacity(dimensions);
        for dim in 0..dimensions {
            // Farthest-point heuristic seeded deterministically by dimension.
            let start = &distinct[dim % distinct.len()];
            let a = farthest_from(start, &distinct);
            let b = farthest_from(a, &distinct);
            pivots.push(((*a).clone(), (*b).clone()));
        }
        Ok(Self { pivots })
    }

    /// Number of dimensions.
    pub fn dimensions(&self) -> usize {
        self.pivots.len()
    }

    /// Embeds one string.
    pub fn embed(&self, s: &str) -> Vec<f64> {
        self.pivots
            .iter()
            .map(|(a, b)| {
                let d_ab = levenshtein(a, b) as f64;
                if d_ab == 0.0 {
                    return 0.0;
                }
                let d_xa = levenshtein(s, a) as f64;
                let d_xb = levenshtein(s, b) as f64;
                (d_xa * d_xa + d_ab * d_ab - d_xb * d_xb) / (2.0 * d_ab)
            })
            .collect()
    }
}

fn farthest_from<'a>(origin: &str, strings: &[&'a String]) -> &'a String {
    strings
        .iter()
        .max_by_key(|s| levenshtein(origin, s))
        .expect("strings is non-empty")
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Shared preparation for both string-map variants: key values, embedding,
/// embedded points and the 2-D grid index over the first two dimensions.
struct Prepared {
    keyed: Vec<(usize, String)>,
    points: Vec<Vec<f64>>,
    grid: HashMap<(i64, i64), Vec<usize>>,
    cell: f64,
}

fn prepare(dataset: &Dataset, key: &BlockingKey, dimensions: usize, grid_cell: f64) -> Result<Option<Prepared>> {
    key.validate_against(dataset)?;
    // Key extraction is chunked through `build_index_chunked` (records are
    // dense, so `record.id().index()` is the global position and per-chunk
    // vectors append back in record order — byte-identical to a sequential
    // pass for every worker count).
    let keyed: Vec<(usize, String)> = build_index_chunked(
        dataset.records(),
        |records: &[Record]| {
            records
                .iter()
                .map(|r| (r.id().index(), key.compact_value(r)))
                .filter(|(_, v)| !v.is_empty())
                .collect::<Vec<_>>()
        },
        |merged, partial| merged.extend(partial),
    );
    if keyed.len() < 2 {
        return Ok(None);
    }
    let strings: Vec<String> = keyed.iter().map(|(_, v)| v.clone()).collect();
    let embedding = StringMapEmbedding::fit(&strings, dimensions)?;
    // Embedding a string costs `3 · dimensions` edit-distance evaluations —
    // the dominant cost of string-map blocking — and each string embeds
    // independently, so the projection runs across workers.
    let points: Vec<Vec<f64>> = parallel_map(&strings, resolve_threads(strings.len()), |s| embedding.embed(s));

    let cell = grid_cell.max(1e-9);
    let mut grid: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for (idx, point) in points.iter().enumerate() {
        let gx = (point[0] / cell).floor() as i64;
        let gy = (point.get(1).copied().unwrap_or(0.0) / cell).floor() as i64;
        grid.entry((gx, gy)).or_default().push(idx);
    }
    Ok(Some(Prepared { keyed, points, grid, cell }))
}

/// Neighbouring grid cells (3×3 neighbourhood) of a point.
fn neighbourhood(prepared: &Prepared, idx: usize) -> Vec<usize> {
    let point = &prepared.points[idx];
    let gx = (point[0] / prepared.cell).floor() as i64;
    let gy = (point.get(1).copied().unwrap_or(0.0) / prepared.cell).floor() as i64;
    let mut out = Vec::new();
    for dx in -1..=1 {
        for dy in -1..=1 {
            if let Some(members) = prepared.grid.get(&(gx + dx, gy + dy)) {
                out.extend(members.iter().copied());
            }
        }
    }
    out
}

/// Threshold-based string-map blocking (StMT).
#[derive(Debug, Clone)]
pub struct StringMapThreshold {
    key: BlockingKey,
    dimensions: usize,
    grid_cell: f64,
    similarity: SimilarityFunction,
    threshold: f64,
}

impl StringMapThreshold {
    /// Creates the blocker. The paper sweeps the grid size, the mapping
    /// dimension (15 or 20), the string similarity function and the
    /// thresholds (e.g. 0.9/0.8).
    pub fn new(key: BlockingKey, dimensions: usize, grid_cell: f64, similarity: SimilarityFunction, threshold: f64) -> Result<Self> {
        if dimensions == 0 {
            return Err(CoreError::Config("dimensions must be > 0".into()));
        }
        if grid_cell <= 0.0 {
            return Err(CoreError::Config("grid_cell must be positive".into()));
        }
        if !(0.0..=1.0).contains(&threshold) {
            return Err(CoreError::Config("threshold must be in [0, 1]".into()));
        }
        Ok(Self {
            key,
            dimensions,
            grid_cell,
            similarity,
            threshold,
        })
    }
}

impl Blocker for StringMapThreshold {
    fn name(&self) -> String {
        format!(
            "StMT(d={},cell={},{},t={},{})",
            self.dimensions,
            self.grid_cell,
            self.similarity.name(),
            self.threshold,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        let Some(prepared) = prepare(dataset, &self.key, self.dimensions, self.grid_cell)? else {
            return Ok(BlockCollection::new());
        };
        // Each embedded point's candidate search is independent: the grid
        // neighbourhood, the embedded-space screen and the string-similarity
        // check read only shared immutable state, so the per-record loop runs
        // across workers and stitches blocks back in record order.
        let indices: Vec<usize> = (0..prepared.keyed.len()).collect();
        let threads = resolve_threads(prepared.keyed.len());
        let blocks: Vec<Option<Block>> = parallel_map(&indices, threads, |&idx| {
            let mut members = vec![record_id_of_index(prepared.keyed[idx].0)];
            for other in neighbourhood(&prepared, idx) {
                if other <= idx {
                    continue;
                }
                // Cheap embedded-space screen followed by the configured
                // string-similarity threshold check on the actual key values.
                let embedded_close = euclidean(&prepared.points[idx], &prepared.points[other]) <= 2.0 * prepared.cell;
                if !embedded_close {
                    continue;
                }
                let sim = self.similarity.similarity(&prepared.keyed[idx].1, &prepared.keyed[other].1);
                if sim >= self.threshold {
                    members.push(record_id_of_index(prepared.keyed[other].0));
                }
            }
            (members.len() >= 2).then(|| Block::new(format!("stmt{idx}"), members))
        });
        Ok(BlockCollection::from_blocks(blocks.into_iter().flatten().collect()))
    }
}

/// Nearest-neighbour string-map blocking (StMNN).
#[derive(Debug, Clone)]
pub struct StringMapNearestNeighbour {
    key: BlockingKey,
    dimensions: usize,
    grid_cell: f64,
    neighbours: usize,
}

impl StringMapNearestNeighbour {
    /// Creates the blocker with the number of nearest neighbours each record
    /// is blocked with.
    pub fn new(key: BlockingKey, dimensions: usize, grid_cell: f64, neighbours: usize) -> Result<Self> {
        if dimensions == 0 {
            return Err(CoreError::Config("dimensions must be > 0".into()));
        }
        if grid_cell <= 0.0 {
            return Err(CoreError::Config("grid_cell must be positive".into()));
        }
        if neighbours == 0 {
            return Err(CoreError::Config("neighbours must be > 0".into()));
        }
        Ok(Self {
            key,
            dimensions,
            grid_cell,
            neighbours,
        })
    }
}

impl Blocker for StringMapNearestNeighbour {
    fn name(&self) -> String {
        format!(
            "StMNN(d={},cell={},nn={},{})",
            self.dimensions,
            self.grid_cell,
            self.neighbours,
            self.key.describe()
        )
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        let Some(prepared) = prepare(dataset, &self.key, self.dimensions, self.grid_cell)? else {
            return Ok(BlockCollection::new());
        };
        // Per-record nearest-neighbour searches are independent reads of
        // shared state (see `StringMapThreshold::block`), so they run across
        // workers; the stable sort keeps equal distances in neighbourhood
        // order, which is itself deterministic.
        let indices: Vec<usize> = (0..prepared.keyed.len()).collect();
        let threads = resolve_threads(prepared.keyed.len());
        let blocks: Vec<Option<Block>> = parallel_map(&indices, threads, |&idx| {
            let mut candidates: Vec<(usize, f64)> = neighbourhood(&prepared, idx)
                .into_iter()
                .filter(|&other| other != idx)
                .map(|other| (other, euclidean(&prepared.points[idx], &prepared.points[other])))
                .collect();
            candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            candidates.dedup_by_key(|(other, _)| *other);
            let mut members = vec![record_id_of_index(prepared.keyed[idx].0)];
            members.extend(
                candidates
                    .into_iter()
                    .take(self.neighbours)
                    .map(|(other, _)| record_id_of_index(prepared.keyed[other].0)),
            );
            (members.len() >= 2).then(|| Block::new(format!("stmnn{idx}"), members))
        });
        Ok(BlockCollection::from_blocks(blocks.into_iter().flatten().collect()))
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
        BlockingKey::exact(["last_name", "first_name"]).unwrap()
    }

    fn people() -> Dataset {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("people", schema);
        let rows = [
            ("anna", "anderson", 0),
            ("ana", "anderson", 0),
            ("anna", "andersen", 0),
            ("william", "shakespeare", 1),
            ("bill", "shakespere", 1),
            ("xu", "li", 2),
        ];
        for (f, l, e) in rows {
            b.push_values(vec![Some(f.into()), Some(l.into())], EntityId(e)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn embedding_reflects_edit_distance_structure() {
        let strings: Vec<String> = vec![
            "andersonanna".into(),
            "andersonana".into(),
            "shakespearewilliam".into(),
            "lixu".into(),
        ];
        let embedding = StringMapEmbedding::fit(&strings, 4).unwrap();
        assert_eq!(embedding.dimensions(), 4);
        let p: Vec<Vec<f64>> = strings.iter().map(|s| embedding.embed(s)).collect();
        let close = euclidean(&p[0], &p[1]);
        let far = euclidean(&p[0], &p[2]);
        assert!(close < far, "similar strings must embed closer ({close} vs {far})");
    }

    #[test]
    fn embedding_construction_validation() {
        assert!(StringMapEmbedding::fit(&["a".into(), "b".into()], 0).is_err());
        assert!(StringMapEmbedding::fit(&["only".into()], 3).is_err());
        assert!(StringMapEmbedding::fit(&[], 3).is_err());
        // Identical strings collapse to a single distinct value.
        assert!(StringMapEmbedding::fit(&["x".into(), "x".into()], 2).is_err());
    }

    #[test]
    fn threshold_variant_blocks_similar_names() {
        let ds = people();
        let blocker = StringMapThreshold::new(key(), 6, 2.0, SimilarityFunction::JaroWinkler, 0.85).unwrap();
        assert!(blocker.name().contains("StMT"));
        let blocks = blocker.block(&ds).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)), "anderson variants should block together");
        assert!(!blocks.theta(RecordId(0), RecordId(5)), "anderson and li must not block together");
    }

    #[test]
    fn nearest_neighbour_variant_links_each_record_to_close_names() {
        let ds = people();
        let blocker = StringMapNearestNeighbour::new(key(), 6, 5.0, 2).unwrap();
        assert!(blocker.name().contains("StMNN"));
        let blocks = blocker.block(&ds).unwrap();
        // Every keyed record forms a block with its nearest neighbours, so the
        // anderson cluster and the shakespeare pair are both recovered.
        assert!(blocks.theta(RecordId(0), RecordId(1)) || blocks.theta(RecordId(0), RecordId(2)));
        assert!(blocks.theta(RecordId(3), RecordId(4)));
    }

    #[test]
    fn parameter_validation() {
        assert!(StringMapThreshold::new(key(), 0, 1.0, SimilarityFunction::Jaro, 0.8).is_err());
        assert!(StringMapThreshold::new(key(), 5, 0.0, SimilarityFunction::Jaro, 0.8).is_err());
        assert!(StringMapThreshold::new(key(), 5, 1.0, SimilarityFunction::Jaro, 1.5).is_err());
        assert!(StringMapNearestNeighbour::new(key(), 5, 1.0, 0).is_err());
        assert!(StringMapNearestNeighbour::new(key(), 0, 1.0, 3).is_err());
    }

    #[test]
    fn degenerate_datasets_produce_empty_blockings() {
        let schema = Schema::shared(["first_name", "last_name"]).unwrap();
        let mut b = DatasetBuilder::new("tiny", schema);
        b.push_values(vec![Some("solo".into()), Some("person".into())], EntityId(0)).unwrap();
        let ds = b.build().unwrap();
        let blocks = StringMapThreshold::new(key(), 4, 1.0, SimilarityFunction::Jaro, 0.8).unwrap().block(&ds).unwrap();
        assert_eq!(blocks.num_blocks(), 0);
        let blocks = StringMapNearestNeighbour::new(key(), 4, 1.0, 2).unwrap().block(&ds).unwrap();
        assert_eq!(blocks.num_blocks(), 0);
    }

    #[test]
    fn thread_count_does_not_change_blocks() {
        let ds = people();
        let threshold = StringMapThreshold::new(key(), 6, 2.0, SimilarityFunction::JaroWinkler, 0.85).unwrap();
        let nearest = StringMapNearestNeighbour::new(key(), 6, 5.0, 2).unwrap();
        for blocker in [&threshold as &dyn Blocker, &nearest] {
            let single = with_threads(1, || blocker.block(&ds)).unwrap();
            let quad = with_threads(4, || blocker.block(&ds)).unwrap();
            assert_eq!(single.blocks(), quad.blocks(), "{}", blocker.name());
        }
    }

    #[test]
    fn unknown_key_attribute_errors() {
        let ds = people();
        assert!(StringMapThreshold::new(BlockingKey::cora(), 4, 1.0, SimilarityFunction::Jaro, 0.8)
            .unwrap()
            .block(&ds)
            .is_err());
    }
}
