//! Baseline blocking techniques and meta-blocking.
//!
//! The paper's evaluation (§6.3.4, Table 3, Fig. 11, Fig. 12) compares the
//! semantic-aware LSH blocker against the twelve state-of-the-art techniques
//! of Christen's indexing survey and against meta-blocking. This crate
//! re-implements every one of them behind the same
//! [`Blocker`](sablock_core::blocking::Blocker) trait, so the evaluation
//! harness can sweep their parameter grids uniformly:
//!
//! | Abbrev. | Technique | Module |
//! |---|---|---|
//! | TBlo | traditional/standard blocking | [`standard`] |
//! | SorA | array-based sorted neighbourhood | [`sorted`] |
//! | SorII | inverted-index sorted neighbourhood | [`sorted`] |
//! | ASor | adaptive sorted neighbourhood | [`sorted`] |
//! | QGr | q-gram based indexing | [`qgram`] |
//! | CaTh | threshold-based canopy clustering | [`canopy`] |
//! | CaNN | nearest-neighbour canopy clustering | [`canopy`] |
//! | StMT | threshold-based string-map blocking | [`stringmap`] |
//! | StMNN | nearest-neighbour string-map blocking | [`stringmap`] |
//! | SuA | suffix-array blocking | [`suffix`] |
//! | SuAS | suffix-array blocking (all substrings) | [`suffix`] |
//! | RSuA | robust suffix-array blocking | [`suffix`] |
//! | — | token blocking (meta-blocking input) | [`standard`] |
//! | WEP/CEP/WNP/CNP × ARCS/CBS/ECBS/JS/EJS | meta-blocking | [`meta`] |
//!
//! [`params`] reproduces the parameter grids the paper sweeps (163 settings
//! for Cora, 161 for NC Voter).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canopy;
pub mod key;
pub mod meta;
pub mod params;
pub mod qgram;
pub mod sorted;
pub mod standard;
pub mod stringmap;
pub mod suffix;

pub use canopy::{CanopyNearestNeighbour, CanopySimilarity, CanopyThreshold};
pub use key::{BlockingKey, KeyEncoding};
pub use meta::{MetaBlocking, PruningAlgorithm, WeightingScheme};
pub use qgram::QGramBlocking;
pub use sorted::{AdaptiveSortedNeighbourhood, SortedNeighbourhoodArray, SortedNeighbourhoodInverted};
pub use standard::{StandardBlocking, TokenBlocking};
pub use stringmap::{StringMapNearestNeighbour, StringMapThreshold};
pub use suffix::{AllSubstringsBlocking, RobustSuffixArrayBlocking, SuffixArrayBlocking};

/// How many records one chunk of a parallel bucket/index construction
/// covers (suffix-array and q-gram blocking).
pub(crate) const INDEX_CHUNK_RECORDS: usize = 1_024;

/// Checked dense-index → [`RecordId`](sablock_datasets::RecordId)
/// conversion for indices obtained by enumerating a dataset's records.
/// `DatasetBuilder` already bounds datasets to `MAX_RECORD_ID` records, so
/// the conversion can only fail on an index that never came from a dataset.
pub(crate) fn record_id_of_index(index: usize) -> sablock_datasets::RecordId {
    sablock_datasets::RecordId::try_from_index(index)
        .expect("dataset record ids are validated at construction")
}

/// Builds a record-keyed index in parallel: `index_chunk` indexes one run of
/// records into a fresh map, chunks are processed via
/// [`parallel_map`](sablock_core::parallel::parallel_map), and `merge_into`
/// folds the per-chunk maps together **in ascending chunk order** — so as
/// long as `merge_into` appends posting lists, the merged index is
/// byte-identical to a sequential build for every worker count. The worker
/// count comes from [`resolve_threads`](sablock_core::parallel::resolve_threads):
/// a [`with_threads`](sablock_core::parallel::with_threads) pin wins,
/// otherwise datasets of at least
/// [`PARALLEL_THRESHOLD`](sablock_core::parallel::PARALLEL_THRESHOLD)
/// records parallelise automatically.
pub(crate) fn build_index_chunked<M, F, G>(records: &[sablock_datasets::Record], index_chunk: F, mut merge_into: G) -> M
where
    M: Send,
    F: Fn(&[sablock_datasets::Record]) -> M + Sync,
    G: FnMut(&mut M, M),
{
    let threads = sablock_core::parallel::resolve_threads(records.len());
    if threads <= 1 || records.len() <= INDEX_CHUNK_RECORDS {
        return index_chunk(records);
    }
    let chunks: Vec<&[sablock_datasets::Record]> = records.chunks(INDEX_CHUNK_RECORDS).collect();
    let mut partials = sablock_core::parallel::parallel_map(&chunks, threads, |chunk| index_chunk(chunk)).into_iter();
    let mut merged = partials.next().expect("at least one chunk");
    for partial in partials {
        merge_into(&mut merged, partial);
    }
    merged
}
