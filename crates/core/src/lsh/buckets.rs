//! Where a record lands in the LSH / SA-LSH bucket index (paper §5.2,
//! Fig. 4(a)).
//!
//! Band `b` files a record under the textual bucket key
//! [`BandingScheme::band_key`]. SA-LSH splits that bucket by band `b`'s own
//! w-way semantic hash: the record lands under one sub-key per entry of
//! [`WWaySemanticHash::sub_keys`], and plain LSH under the single sub-key 0.
//! Two records share a block iff they share a `(band, bucket, sub-key)`,
//! which is the collision model `1 − (1 − s^k · p)^l`.
//!
//! [`BucketScheme`] is the one place that decides this. One-shot blocking,
//! incremental ingest, probe lookups and snapshots all go through it, so
//! they share the keys, the per-band hash functions (drawn once from
//! [`SemanticConfig::seed`]), the block-key format and the rule that a
//! block needs two members.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sablock_datasets::{Record, RecordId};

use crate::blocking::Block;
use crate::error::Result;
use crate::lsh::semantic_hash::WWaySemanticHash;
use crate::lsh::{BandingScheme, SemanticConfig};
use crate::minhash::MinhashSignature;
use crate::parallel::parallel_map;
use crate::semantic::semhash::{SemanticSignature, SemhashFamily};

/// A bucket's key within one band: `(textual bucket key, semantic sub-key)`.
/// Plain LSH files everything under sub-key 0.
pub(crate) type BucketKey = (u64, u64);

/// Where records land (see the module docs): the banding scheme plus, for
/// SA-LSH, the semantic configuration, a fixed semhash family and one w-way
/// semantic hash per band.
#[derive(Debug, Clone)]
pub(crate) struct BucketScheme {
    banding: BandingScheme,
    semantic: Option<SemanticBuckets>,
}

/// The SA-LSH part of a [`BucketScheme`].
#[derive(Debug, Clone)]
struct SemanticBuckets {
    config: SemanticConfig,
    family: SemhashFamily,
    band_hashes: Vec<WWaySemanticHash>,
}

impl BucketScheme {
    /// Plain LSH over `banding`, or SA-LSH over a semantic configuration and
    /// a fixed family. Band `b`'s w-way hash is the `b`-th one drawn over the
    /// family from `config.seed`.
    pub(crate) fn new(banding: BandingScheme, semantic: Option<(SemanticConfig, SemhashFamily)>) -> Result<Self> {
        let semantic = match semantic {
            Some((config, family)) => {
                let mut rng = StdRng::seed_from_u64(config.seed);
                let band_hashes = (0..banding.bands())
                    .map(|_| WWaySemanticHash::sample(family.len(), config.w, config.mode, &mut rng))
                    .collect::<Result<Vec<_>>>()?;
                Some(SemanticBuckets { config, family, band_hashes })
            }
            None => None,
        };
        Ok(Self { banding, semantic })
    }

    /// Number of bands.
    pub(crate) fn bands(&self) -> usize {
        self.banding.bands()
    }

    /// The semantic configuration, `None` for plain LSH.
    pub(crate) fn semantic_config(&self) -> Option<&SemanticConfig> {
        self.semantic.as_ref().map(|semantic| &semantic.config)
    }

    /// The semhash family, `None` for plain LSH.
    pub(crate) fn family(&self) -> Option<&SemhashFamily> {
        self.semantic.as_ref().map(|semantic| &semantic.family)
    }

    /// The semhash signatures of `records` in order, `None` for plain LSH.
    pub(crate) fn semhashes(&self, records: &[Record], threads: usize) -> Option<Vec<SemanticSignature>> {
        let SemanticBuckets { config, family, .. } = self.semantic.as_ref()?;
        Some(parallel_map(records, threads, |record| {
            family.signature(&config.taxonomy, &config.function.interpret(record))
        }))
    }

    /// Calls `land` with every key band `band` files a record under, in
    /// ascending order. `semhash` is the record's entry of
    /// [`BucketScheme::semhashes`].
    pub(crate) fn keys(
        &self,
        band: usize,
        minhash: &MinhashSignature,
        semhash: Option<&SemanticSignature>,
        mut land: impl FnMut(BucketKey),
    ) {
        let bucket = self.banding.band_key(minhash, band);
        match (&self.semantic, semhash) {
            (Some(semantic), Some(semhash)) => {
                for sub in semantic.band_hashes[band].sub_keys(semhash) {
                    land((bucket, sub as u64));
                }
            }
            _ => land((bucket, 0)),
        }
    }

    /// Band `band`'s placements of `records`: one `(key, id)` per key a
    /// record lands under, sorted by key and then id. A record without a
    /// minhash signature has no text and lands nowhere (on the all-sentinel
    /// signature every such record would collide).
    pub(crate) fn placements(
        &self,
        band: usize,
        records: &[Record],
        minhashes: &[Option<MinhashSignature>],
        semhashes: Option<&[SemanticSignature]>,
    ) -> Vec<(BucketKey, RecordId)> {
        let mut placements = Vec::with_capacity(records.len());
        for (offset, (record, minhash)) in records.iter().zip(minhashes).enumerate() {
            let Some(minhash) = minhash else { continue };
            let semhash = semhashes.and_then(|semhashes| semhashes.get(offset));
            self.keys(band, minhash, semhash, |key| placements.push((key, record.id())));
        }
        placements.sort_unstable();
        placements
    }

    /// The block of band `band`'s bucket `key`, or `None` when it has fewer
    /// than two members and so no pair.
    pub(crate) fn block(&self, band: usize, (bucket, sub): BucketKey, members: Vec<RecordId>) -> Option<Block> {
        if members.len() < 2 {
            return None;
        }
        let key = match self.semantic {
            Some(_) => format!("b{band}:{bucket:016x}:g{sub}"),
            None => format!("b{band}:{bucket:016x}"),
        };
        Some(Block::new(key, members))
    }

    /// Band `band`'s blocks, in key order, from its sorted
    /// [`placements`](BucketScheme::placements).
    pub(crate) fn blocks(&self, band: usize, placements: &[(BucketKey, RecordId)]) -> Vec<Block> {
        key_runs(placements)
            // Singletons are skipped before their member list is built.
            .filter(|run| run.len() >= 2)
            .filter_map(|run| self.block(band, run[0].0, run.iter().map(|&(_, id)| id).collect()))
            .collect()
    }
}

/// The runs of sorted placements that share a bucket key, in order.
pub(crate) fn key_runs(placements: &[(BucketKey, RecordId)]) -> impl Iterator<Item = &[(BucketKey, RecordId)]> {
    let mut rest = placements;
    std::iter::from_fn(move || {
        let key = rest.first()?.0;
        let (run, tail) = rest.split_at(rest.iter().take_while(|(other, _)| *other == key).count());
        rest = tail;
        Some(run)
    })
}
