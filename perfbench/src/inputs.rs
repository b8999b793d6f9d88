//! A workload's generated inputs: the served corpus, held-out rows to
//! insert, and held-out probe rows.
//!
//! The rows come from the profile's generator at its default seed; `--seed`
//! picks which rows are held out (and, in the traffic, every request
//! choice). Rolls from different generator seeds differ by up to a third in
//! the cost of a ranked query, which would make the run-to-run spread
//! measure the inputs rather than the program.

use std::sync::Arc;

use sablock::datasets::{CoraConfig, CoraGenerator, Dataset, Record, RecordId};
use sablock::prelude::*;

use crate::server::Profile;
use crate::{traffic, Result, Rng};

/// One row's attribute values, in schema order.
pub type Row = Vec<Option<String>>;

/// Rows per bulk batch: the set-up's `insert_rows` calls, the offline
/// ingest and the write mirror's replay of the corpus.
pub const BATCH: usize = 4_096;
/// Held-out rows the write traffic inserts (each connection takes every
/// other one).
pub const POOL: usize = 8_192;
/// Held-out probe rows for `QUERY` and `QUERYK`.
pub const PROBES: usize = 2_048;

/// Rows in the served corpus of a profile.
pub fn corpus_size(profile: Profile) -> usize {
    match profile {
        Profile::Cora => 20_000,
        Profile::Voter => 40_000,
    }
}

/// Generated inputs.
pub struct Inputs {
    /// The served corpus as a dataset: dense ids in corpus order, with the
    /// generator's entities, for the offline phases.
    pub corpus: Dataset,
    /// The same corpus as protocol rows, in id order.
    pub rows: Vec<Row>,
    /// Held-out rows to insert.
    pub pool: Vec<Row>,
    /// Held-out probe rows.
    pub probes: Vec<Row>,
}

/// Generates the inputs of `profile` for `seed`.
pub fn generate(profile: Profile, seed: u64) -> Result<Inputs> {
    let total = corpus_size(profile) + POOL + PROBES;
    let dataset = match profile {
        Profile::Cora => CoraGenerator::new(CoraConfig {
            num_records: total,
            ..CoraConfig::default()
        })
        .generate()?,
        Profile::Voter => NcVoterGenerator::new(NcVoterConfig {
            num_records: total,
            ..NcVoterConfig::default()
        })
        .generate()?,
    };
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    Rng::new(seed, 1).shuffle(&mut order);
    let (held_out, kept) = order.split_at(PROBES + POOL);
    let values = |index: &usize| {
        dataset
            .records()
            .get(*index)
            .map(|record| record.values().to_vec())
    };
    let probes: Vec<Row> = held_out[..PROBES].iter().filter_map(values).collect();
    let pool: Vec<Row> = held_out[PROBES..].iter().filter_map(values).collect();
    let mut kept = kept.to_vec();
    kept.sort_unstable();
    let rows: Vec<Row> = kept.iter().filter_map(values).collect();
    let entities = kept
        .iter()
        .filter_map(|&index| dataset.ground_truth().entity_table().get(index).copied())
        .collect();
    let schema = Arc::clone(dataset.schema());
    let records = (0u32..)
        .zip(&rows)
        .map(|(id, row)| Record::new(RecordId(id), Arc::clone(&schema), row.clone()))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let corpus = Dataset::new(dataset.name(), schema, records, entities)?;
    if !rows
        .iter()
        .chain(&pool)
        .chain(&probes)
        .all(|row| traffic::sendable(row))
    {
        return Err("a generated row holds a tab or newline".into());
    }
    Ok(Inputs {
        corpus,
        rows,
        pool,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_held_out_and_dense() {
        for profile in [Profile::Cora, Profile::Voter] {
            let first = generate(profile, 5).unwrap();
            assert_eq!(
                (first.rows.len(), first.pool.len(), first.probes.len()),
                (corpus_size(profile), POOL, PROBES)
            );
            assert_eq!(first.corpus.len(), first.rows.len());
            assert_eq!(first.corpus.ground_truth().num_records(), first.rows.len());
            let again = generate(profile, 5).unwrap();
            assert_eq!(first.probes, again.probes, "equal seeds give equal inputs");
            assert_eq!(first.pool, again.pool);
            assert_ne!(first.probes, generate(profile, 6).unwrap().probes);
            let last = first.corpus.records().last().unwrap();
            assert_eq!(last.id().index(), first.rows.len() - 1);
            assert_eq!(last.values(), first.rows.last().unwrap().as_slice());
        }
    }
}
