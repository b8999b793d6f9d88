//! The LSH and SA-LSH blockers (paper §5.2, Fig. 4).
//!
//! [`SaLshBlocker`] implements the full pipeline of Fig. 4(a):
//!
//! 1. **Shingling + minhashing** — each record's selected attributes are
//!    q-gram shingled and minhashed into an `l · k` signature.
//! 2. **Banding** — the signature is split into `l` bands of `k` rows; each
//!    band hashes the record into a bucket (plain LSH blocking would stop
//!    here and emit every bucket as a block).
//! 3. **Semantic augmentation** — when a [`SemanticConfig`] is present, each
//!    band is additionally equipped with an independently drawn w-way AND/OR
//!    semantic hash function over the records' semhash signatures; a textual
//!    bucket is split into the sub-blocks induced by that function, so two
//!    records end up in a common block iff they collide textually *and* the
//!    semantic predicate holds for the pair — exactly the collision model
//!    `1 − (1 − s^k · p)^l` of §5.2.
//!
//! Omitting the semantic component yields the plain textual LSH blocker used
//! as the "LSH" comparison point throughout the paper's evaluation
//! ([`LshBlocker`] is an alias for that configuration).
//!
//! Both hot phases run in parallel on large datasets: signatures are
//! computed per record and the banding/bucket phase is sharded per band
//! (each band builds and sorts its own bucket map, and the shards are merged
//! back in ascending band order). Every phase stitches results in a fixed
//! order, so blocking output is byte-identical for any worker count — a
//! property `tests/determinism.rs` enforces by diffing 1-thread and 4-thread
//! runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

use sablock_datasets::{Dataset, RecordId};

use crate::blocking::{Block, BlockCollection, Blocker};
use crate::error::{CoreError, Result};
use crate::lsh::semantic_hash::WWaySemanticHash;
use crate::lsh::{BandingScheme, SemanticConfig};
use crate::minhash::shingle::RecordShingler;
use crate::minhash::{MinHasher, MinhashConfig};
use crate::parallel::{parallel_map, resolve_threads};
use crate::semantic::semhash::{SemanticSignature, SemhashFamily};

/// The semantic-aware LSH blocker (and, without a semantic component, the
/// plain textual LSH blocker).
#[derive(Debug, Clone)]
pub struct SaLshBlocker {
    shingler: RecordShingler,
    minhash: MinhashConfig,
    banding: BandingScheme,
    semantic: Option<SemanticConfig>,
}

/// The paper's plain textual LSH blocker: an [`SaLshBlocker`] without a
/// semantic component (build one via [`SaLshBlocker::builder`] by simply not
/// calling `semantic`).
pub type LshBlocker = SaLshBlocker;

impl SaLshBlocker {
    /// Starts a builder.
    pub fn builder() -> SaLshBlockerBuilder {
        SaLshBlockerBuilder::default()
    }

    /// The minhash configuration in use.
    pub fn minhash_config(&self) -> &MinhashConfig {
        &self.minhash
    }

    /// The semantic configuration, if any.
    pub fn semantic_config(&self) -> Option<&SemanticConfig> {
        self.semantic.as_ref()
    }

    /// Whether this blocker uses semantic augmentation (SA-LSH) or not (LSH).
    pub fn is_semantic(&self) -> bool {
        self.semantic.is_some()
    }

    /// Converts this blocker into an incremental (online) index for
    /// streaming ingest — see [`crate::incremental`]. The configuration
    /// (attributes, minhash, banding, semantic component) is carried over
    /// unchanged. For SA-LSH the semhash family is pinned for the index's
    /// lifetime: the explicitly pinned one when
    /// [`SemanticConfig::with_pinned_family`] was used, all taxonomy leaves
    /// otherwise. The index maintains running `|Γ|`/`|Γ_tp|` counters in
    /// O(delta) per batch (O(1) snapshot metrics) and compacts tombstoned
    /// bucket members in place once a bucket's dead fraction crosses
    /// [`crate::incremental::DEFAULT_COMPACTION_THRESHOLD`].
    pub fn into_incremental(self) -> Result<crate::incremental::IncrementalSaLshBlocker> {
        crate::incremental::IncrementalSaLshBlocker::from_parts(
            self.shingler,
            self.minhash,
            self.banding,
            self.semantic,
        )
    }

    /// Computes the semhash signatures of every record, or `None` when no
    /// semantic component is configured.
    ///
    /// The semhash family is the pinned one when the configuration carries it
    /// (see [`SemanticConfig::with_pinned_family`]); otherwise it is derived
    /// from the interpretations of this dataset (Algorithm 1).
    fn semantic_signatures(&self, dataset: &Dataset, threads: usize) -> Result<Option<Vec<SemanticSignature>>> {
        let Some(semantic) = &self.semantic else {
            return Ok(None);
        };
        semantic.validate()?;
        let function = &semantic.function;
        let interpretations = parallel_map(dataset.records(), threads, |record| function.interpret(record));
        let family = match &semantic.pinned_family {
            Some(family) => family.clone(),
            None => SemhashFamily::build(&semantic.taxonomy, interpretations.iter())?,
        };
        let signatures = parallel_map(&interpretations, threads, |interp| family.signature(&semantic.taxonomy, interp));
        Ok(Some(signatures))
    }
}

impl Blocker for SaLshBlocker {
    fn name(&self) -> String {
        let base = format!(
            "k={},l={},q={}",
            self.minhash.rows_per_band, self.minhash.bands, self.minhash.qgram
        );
        match &self.semantic {
            Some(semantic) => format!("SA-LSH({base},{})", semantic.describe()),
            None => format!("LSH({base})"),
        }
    }

    fn block(&self, dataset: &Dataset) -> Result<BlockCollection> {
        self.shingler.validate_against(dataset)?;
        let threads = resolve_threads(dataset.len());

        // Step 1-2: shingle and minhash every record (`None`: no text).
        let hasher = MinHasher::from_config(&self.minhash);
        let signatures = parallel_map(dataset.records(), threads, |record| self.shingler.signature(&hasher, record));

        // Step 3: semhash signatures (when configured).
        let semantic_signatures = self.semantic_signatures(dataset, threads)?;

        // One independently drawn w-way semantic hash function per band.
        let band_hashes: Option<Vec<WWaySemanticHash>> = match (&self.semantic, &semantic_signatures) {
            (Some(semantic), Some(signatures)) => {
                let num_features = match &semantic.pinned_family {
                    Some(family) => family.len(),
                    None => signatures.first().map(SemanticSignature::len).unwrap_or(0),
                };
                if num_features == 0 {
                    return Err(CoreError::Config("the semhash family has no features".into()));
                }
                let mut rng = StdRng::seed_from_u64(semantic.seed);
                let hashes = (0..self.banding.bands())
                    .map(|_| WWaySemanticHash::sample(num_features, semantic.w, semantic.mode, &mut rng))
                    .collect::<Result<Vec<_>>>()?;
                Some(hashes)
            }
            _ => None,
        };

        // Step 4: banding. Records without a signature carry no textual
        // evidence and are not indexed (they would otherwise all collide on
        // the all-sentinel signature).
        //
        // Each band's bucket index is independent of every other band's, so
        // the bucket phase shards per band: `parallel_map` builds one bucket
        // map per band concurrently, each shard sorts its buckets by key, and
        // the shards are merged back in ascending band order. The merged
        // output is therefore byte-identical for any worker count.
        let bands: Vec<usize> = (0..self.banding.bands()).collect();
        let per_band: Vec<Vec<Block>> = parallel_map(&bands, threads, |&band| {
            let mut buckets: HashMap<u64, Vec<RecordId>> = HashMap::new();
            for (idx, signature) in signatures.iter().enumerate() {
                let Some(signature) = signature else { continue };
                let key = self.banding.band_key(signature, band);
                let id = RecordId::try_from_index(idx).expect("dataset record ids are validated at construction");
                buckets.entry(key).or_default().push(id);
            }

            let mut bucket_entries: Vec<(u64, Vec<RecordId>)> = buckets.into_iter().collect();
            bucket_entries.sort_by_key(|(key, _)| *key);

            let mut blocks = Vec::new();
            for (bucket_key, members) in bucket_entries {
                if members.len() < 2 {
                    continue;
                }
                match (&band_hashes, &semantic_signatures) {
                    (Some(hashes), Some(sem_signatures)) => {
                        // Split the textual bucket into the sub-blocks induced
                        // by this band's w-way semantic hash function.
                        let hash = &hashes[band];
                        let mut sub_blocks: HashMap<usize, Vec<RecordId>> = HashMap::new();
                        for &member in &members {
                            for sub_key in hash.sub_keys(&sem_signatures[member.index()]) {
                                sub_blocks.entry(sub_key).or_default().push(member);
                            }
                        }
                        let mut sub_entries: Vec<(usize, Vec<RecordId>)> = sub_blocks.into_iter().collect();
                        sub_entries.sort_by_key(|(key, _)| *key);
                        for (sub_key, sub_members) in sub_entries {
                            if sub_members.len() >= 2 {
                                blocks.push(Block::new(format!("b{band}:{bucket_key:016x}:g{sub_key}"), sub_members));
                            }
                        }
                    }
                    _ => {
                        blocks.push(Block::new(format!("b{band}:{bucket_key:016x}"), members));
                    }
                }
            }
            blocks
        });
        BlockCollection::try_from_blocks(per_band.into_iter().flatten().collect())
    }
}

/// Builder for [`SaLshBlocker`].
#[derive(Debug, Clone, Default)]
pub struct SaLshBlockerBuilder {
    attributes: Vec<String>,
    minhash: MinhashConfig,
    semantic: Option<SemanticConfig>,
}

impl SaLshBlockerBuilder {
    /// Sets the attributes whose values are shingled for textual similarity.
    pub fn attributes<I, S>(mut self, attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.attributes = attributes.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the whole minhash configuration at once.
    pub fn minhash(mut self, config: MinhashConfig) -> Self {
        self.minhash = config;
        self
    }

    /// Sets the q-gram size.
    pub fn qgram(mut self, q: usize) -> Self {
        self.minhash.qgram = q;
        self
    }

    /// Sets the number of bands (`l`).
    pub fn bands(mut self, l: usize) -> Self {
        self.minhash.bands = l;
        self
    }

    /// Sets the number of rows per band (`k`).
    pub fn rows_per_band(mut self, k: usize) -> Self {
        self.minhash.rows_per_band = k;
        self
    }

    /// Sets the minhash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.minhash.seed = seed;
        self
    }

    /// Adds the semantic component, turning the blocker into SA-LSH.
    pub fn semantic(mut self, config: SemanticConfig) -> Self {
        self.semantic = Some(config);
        self
    }

    /// Builds the blocker and converts it straight into an incremental
    /// (online) index — the streaming-ingest counterpart of
    /// [`SaLshBlockerBuilder::build`].
    pub fn into_incremental(self) -> Result<crate::incremental::IncrementalSaLshBlocker> {
        self.build()?.into_incremental()
    }

    /// Builds the blocker, validating every component.
    pub fn build(self) -> Result<SaLshBlocker> {
        self.minhash.validate()?;
        if let Some(semantic) = &self.semantic {
            semantic.validate()?;
        }
        let shingler = RecordShingler::new(self.attributes, self.minhash.qgram)?;
        let banding = BandingScheme::new(self.minhash.bands, self.minhash.rows_per_band)?;
        Ok(SaLshBlocker {
            shingler,
            minhash: self.minhash,
            banding,
            semantic: self.semantic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::semantic_hash::SemanticMode;
    use crate::parallel::with_threads;
    use crate::semantic::pattern::PatternSemanticFunction;
    use crate::taxonomy::bib::bibliographic_taxonomy;
    use sablock_datasets::dataset::DatasetBuilder;
    use sablock_datasets::ground_truth::EntityId;
    use sablock_datasets::{CoraConfig, CoraGenerator, Schema};

    /// The running example of Fig. 1, reduced to its essence: six records
    /// whose titles are all near-identical, three conference articles (r1, r2,
    /// r3), two technical reports (r4, r5) and one ambiguous record (r6).
    fn running_example() -> Dataset {
        let schema = Schema::shared(["title", "authors", "journal", "booktitle", "institution"]).unwrap();
        let mut builder = DatasetBuilder::new("fig1", schema);
        let rows: Vec<(&str, &str, Option<&str>, Option<&str>)> = vec![
            // (title, authors, booktitle, institution)
            ("The cascade-correlation learning architecture", "E. Fahlman and C. Lebiere", Some("nisps proceedings"), None),
            ("Cascade correlation learning architecture", "E. Fahlman & C. Lebiere", Some("neural information systems"), None),
            ("The cascade correlation learning architecture", "Fahlman and Lebiere", Some("proceedings on neural ntw"), None),
            ("The cascade corelation learning architecture", "Fahlman, S., & Lebiere, C.", None, Some("tr")),
            ("The cascade correlation learning architectures", "S. Fahlman, C. Lebiere", None, Some("technical report")),
            ("The cascade-correlation learn architecture", "Lebiere, C. and Fahlman, S.", None, None),
        ];
        for (i, (title, authors, booktitle, institution)) in rows.into_iter().enumerate() {
            builder
                .push_values(
                    vec![
                        Some(title.to_string()),
                        Some(authors.to_string()),
                        None,
                        booktitle.map(str::to_string),
                        institution.map(str::to_string),
                    ],
                    // r1, r2, r3, r6 cite the same paper; r4, r5 are the TR version.
                    if i == 3 || i == 4 { EntityId(1) } else { EntityId(0) },
                )
                .unwrap();
        }
        builder.build().unwrap()
    }

    fn lsh_blocker(bands: usize, rows: usize) -> SaLshBlocker {
        SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(2)
            .bands(bands)
            .rows_per_band(rows)
            .seed(7)
            .build()
            .unwrap()
    }

    fn salsh_blocker(bands: usize, rows: usize, w: usize, mode: SemanticMode) -> SaLshBlocker {
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(2)
            .bands(bands)
            .rows_per_band(rows)
            .seed(7)
            .semantic(SemanticConfig::new(tree, zeta).with_w(w).with_mode(mode).with_seed(11))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validation() {
        assert!(SaLshBlocker::builder().build().is_err(), "no attributes selected");
        assert!(SaLshBlocker::builder().attributes(["title"]).bands(0).build().is_err());
        assert!(SaLshBlocker::builder().attributes(["title"]).qgram(0).build().is_err());
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        let bad_semantic = SemanticConfig::new(tree, zeta).with_w(0);
        assert!(SaLshBlocker::builder().attributes(["title"]).semantic(bad_semantic).build().is_err());

        let lsh = lsh_blocker(4, 2);
        assert!(!lsh.is_semantic());
        assert!(lsh.name().starts_with("LSH("));
        let sa = salsh_blocker(4, 2, 1, SemanticMode::Or);
        assert!(sa.is_semantic());
        assert!(sa.name().starts_with("SA-LSH("));
        assert!(sa.semantic_config().is_some());
        assert_eq!(sa.minhash_config().rows_per_band, 2);
    }

    #[test]
    fn unknown_attribute_fails_at_block_time() {
        let blocker = SaLshBlocker::builder().attributes(["no_such_attr"]).build().unwrap();
        let err = blocker.block(&running_example()).unwrap_err();
        assert!(err.to_string().contains("no_such_attr"));
    }

    #[test]
    fn textually_similar_records_are_blocked_together() {
        let dataset = running_example();
        let blocks = lsh_blocker(16, 2).block(&dataset).unwrap();
        assert!(blocks.num_blocks() > 0);
        // The near-identical titles of r1 and r2 must collide in some band.
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        // Plain LSH also lumps the technical report r4 in with them: this is
        // the false candidate the semantic filter is designed to remove.
        assert!(blocks.theta(RecordId(0), RecordId(3)));
    }

    #[test]
    fn semantic_filter_removes_cross_type_pairs() {
        let dataset = running_example();
        let blocks = salsh_blocker(16, 2, 4, SemanticMode::Or).block(&dataset).unwrap();
        // Conference articles still pair up…
        assert!(blocks.theta(RecordId(0), RecordId(1)));
        assert!(blocks.theta(RecordId(0), RecordId(2)));
        // …and so do the two technical reports…
        assert!(blocks.theta(RecordId(3), RecordId(4)));
        // …but a proceedings record and a technical report have semantic
        // similarity 0 and must never share a block (Proposition 5.3 (1)).
        assert!(!blocks.theta(RecordId(0), RecordId(3)));
        assert!(!blocks.theta(RecordId(1), RecordId(4)));
        // The ambiguous record r6 (interpreted as "publication") is related to
        // both sides and may pair with either.
        assert!(blocks.theta(RecordId(0), RecordId(5)) || blocks.theta(RecordId(3), RecordId(5)));
    }

    #[test]
    fn salsh_produces_no_more_pairs_than_lsh() {
        let dataset = running_example();
        let lsh_pairs = lsh_blocker(16, 2).block(&dataset).unwrap().num_distinct_pairs();
        for (w, mode) in [(1, SemanticMode::Or), (2, SemanticMode::Or), (1, SemanticMode::And), (2, SemanticMode::And)] {
            let sa_pairs = salsh_blocker(16, 2, w, mode).block(&dataset).unwrap().num_distinct_pairs();
            assert!(
                sa_pairs <= lsh_pairs,
                "SA-LSH (w={w}, {mode:?}) produced {sa_pairs} pairs, more than LSH's {lsh_pairs}"
            );
        }
    }

    #[test]
    fn blocking_is_deterministic() {
        let dataset = running_example();
        let blocker = salsh_blocker(8, 2, 2, SemanticMode::Or);
        let a = blocker.block(&dataset).unwrap();
        let b = blocker.block(&dataset).unwrap();
        assert_eq!(a.num_blocks(), b.num_blocks());
        let pa = a.distinct_pairs();
        let pb = b.distinct_pairs();
        assert_eq!(pa, pb);
    }

    #[test]
    fn bucket_phase_is_thread_count_invariant() {
        // The sharded bucket phase must merge to byte-identical blocks no
        // matter how many workers built it.
        let dataset = running_example();
        for (w, mode) in [(0, SemanticMode::Or), (2, SemanticMode::Or), (2, SemanticMode::And)] {
            let mut builder =
                SaLshBlocker::builder().attributes(["title", "authors"]).qgram(2).bands(16).rows_per_band(2).seed(7);
            if w > 0 {
                let tree = bibliographic_taxonomy();
                let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
                builder = builder.semantic(SemanticConfig::new(tree, zeta).with_w(w).with_mode(mode).with_seed(11));
            }
            let blocker = builder.build().unwrap();
            let single = with_threads(1, || blocker.block(&dataset)).unwrap();
            let quad = with_threads(4, || blocker.block(&dataset)).unwrap();
            assert_eq!(single.blocks(), quad.blocks(), "w={w} {mode:?}");
        }
    }

    #[test]
    fn identical_records_always_collide() {
        // Proposition 5.2 (1): textual similarity 1 ⇒ collision probability 1,
        // for any (k, l).
        let schema = Schema::shared(["title"]).unwrap();
        let mut builder = DatasetBuilder::new("dup", schema);
        builder.push_values(vec![Some("identical record text".into())], EntityId(0)).unwrap();
        builder.push_values(vec![Some("identical record text".into())], EntityId(0)).unwrap();
        builder.push_values(vec![Some("something totally different xyz".into())], EntityId(1)).unwrap();
        let dataset = builder.build().unwrap();
        let blocker = SaLshBlocker::builder().attributes(["title"]).qgram(3).bands(5).rows_per_band(6).build().unwrap();
        let blocks = blocker.block(&dataset).unwrap();
        assert!(blocks.theta(RecordId(0), RecordId(1)));
    }

    #[test]
    fn records_without_text_are_not_indexed() {
        let schema = Schema::shared(["title"]).unwrap();
        let mut builder = DatasetBuilder::new("empties", schema);
        builder.push_values(vec![None], EntityId(0)).unwrap();
        builder.push_values(vec![None], EntityId(0)).unwrap();
        builder.push_values(vec![Some("real text".into())], EntityId(1)).unwrap();
        let dataset = builder.build().unwrap();
        let blocks = lsh_blocker(4, 2).block(&dataset);
        // lsh_blocker uses title+authors; rebuild over title only.
        let blocker = SaLshBlocker::builder().attributes(["title"]).qgram(2).bands(4).rows_per_band(2).build().unwrap();
        let blocks2 = blocker.block(&dataset).unwrap();
        assert_eq!(blocks2.num_distinct_pairs(), 0, "empty records must not form blocks");
        drop(blocks);
    }

    #[test]
    fn works_on_a_generated_cora_dataset() {
        let dataset = CoraGenerator::new(CoraConfig { num_records: 150, ..CoraConfig::small() }).generate().unwrap();
        let tree = bibliographic_taxonomy();
        let zeta = PatternSemanticFunction::cora_default(&tree).unwrap();
        let blocker = SaLshBlocker::builder()
            .attributes(["title", "authors"])
            .qgram(4)
            .bands(20)
            .rows_per_band(4)
            .semantic(SemanticConfig::new(tree, zeta).with_w(2).with_mode(SemanticMode::Or))
            .build()
            .unwrap();
        let blocks = blocker.block(&dataset).unwrap();
        assert!(blocks.num_blocks() > 0);
        assert!(blocks.num_distinct_pairs() > 0);
        // Blocking must reduce the comparison space drastically.
        assert!(blocks.num_distinct_pairs() < dataset.num_total_pairs() / 2);
    }
}
