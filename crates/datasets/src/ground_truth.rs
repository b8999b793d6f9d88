//! Entity-level ground truth: which records refer to the same real-world
//! entity.
//!
//! The evaluation measures of the paper (PC, PQ, RR, FM — Section 6) are all
//! defined against the set of *true matches* `Ω_tp`: record pairs that
//! represent the same entity. We store ground truth as an entity id per
//! record; true-match pairs follow from equality of entity ids.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::record::{RecordId, RecordPair};

/// Identifier of a real-world entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Ground truth: the entity each record represents.
///
/// Clusters are kept in a `BTreeMap` so that every iteration — most
/// importantly [`GroundTruth::true_match_pairs`] — enumerates in a stable,
/// reproducible order across runs and platforms.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    entity_of: Vec<EntityId>,
    clusters: BTreeMap<EntityId, Vec<RecordId>>,
}

impl GroundTruth {
    /// Builds ground truth from a per-record entity assignment, where element
    /// `i` is the entity of record `i`.
    pub fn from_assignments(entity_of: Vec<EntityId>) -> Self {
        let mut clusters: BTreeMap<EntityId, Vec<RecordId>> = BTreeMap::new();
        for (i, &entity) in entity_of.iter().enumerate() {
            let id = RecordId::try_from_index(i).expect("assignment table exceeds MAX_RECORD_ID records");
            clusters.entry(entity).or_default().push(id);
        }
        Self { entity_of, clusters }
    }

    /// Number of records covered.
    pub fn num_records(&self) -> usize {
        self.entity_of.len()
    }

    /// Number of distinct entities.
    pub fn num_entities(&self) -> usize {
        self.clusters.len()
    }

    /// Entity of a record, if the record id is in range.
    pub fn entity_of(&self, record: RecordId) -> Option<EntityId> {
        self.entity_of.get(record.index()).copied()
    }

    /// Whether two records represent the same entity. Records out of range
    /// (or a record paired with itself) are never a match.
    pub fn is_match(&self, a: RecordId, b: RecordId) -> bool {
        if a == b {
            return false;
        }
        match (self.entity_of(a), self.entity_of(b)) {
            (Some(ea), Some(eb)) => ea == eb,
            _ => false,
        }
    }

    /// Whether a canonical pair is a true match.
    pub fn is_match_pair(&self, pair: &RecordPair) -> bool {
        self.is_match(pair.first(), pair.second())
    }

    /// The dense per-record entity table: element `i` is the entity of record
    /// `i`. Records beyond the table (ids the ground truth never covered) are
    /// unmatched by definition, so a bulk matching probe is two bounds-checked
    /// loads and one compare — the representation the streaming Γ counter
    /// monomorphises into its merge loop instead of a per-pair closure call.
    pub fn entity_table(&self) -> &[EntityId] {
        &self.entity_of
    }

    /// Total number of true-match pairs `|Ω_tp| = Σ_c |c|·(|c|−1)/2`.
    pub fn num_true_matches(&self) -> u64 {
        self.clusters
            .values()
            .map(|members| {
                let n = members.len() as u64;
                n * (n - 1) / 2
            })
            .sum()
    }

    /// Total number of distinct record pairs `|Ω| = n·(n−1)/2`.
    pub fn num_total_pairs(&self) -> u64 {
        let n = self.entity_of.len() as u64;
        n * (n.saturating_sub(1)) / 2
    }

    /// Iterates over all true-match pairs.
    pub fn true_match_pairs(&self) -> impl Iterator<Item = RecordPair> + '_ {
        self.clusters.values().flat_map(|members| {
            let members = members.clone();
            (0..members.len()).flat_map(move |i| {
                let members = members.clone();
                ((i + 1)..members.len()).filter_map(move |j| RecordPair::new(members[i], members[j]))
            })
        })
    }

    /// The duplicate clusters (entity → member records), for statistics.
    pub fn clusters(&self) -> &BTreeMap<EntityId, Vec<RecordId>> {
        &self.clusters
    }

    /// Distribution of cluster sizes: `size → number of entities of that size`.
    pub fn cluster_size_histogram(&self) -> HashMap<usize, usize> {
        let mut hist = HashMap::new();
        for members in self.clusters.values() {
            *hist.entry(members.len()).or_insert(0) += 1;
        }
        hist
    }

    /// Restricts the ground truth to the first `n` records (used by the
    /// scalability experiment when slicing datasets into prefixes).
    pub fn truncate(&self, n: usize) -> Self {
        Self::from_assignments(self.entity_of.iter().take(n).copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GroundTruth {
        // records 0,1,2 -> entity 0; records 3,4 -> entity 1; record 5 -> entity 2
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
    fn counts_are_correct() {
        let gt = sample();
        assert_eq!(gt.num_records(), 6);
        assert_eq!(gt.num_entities(), 3);
        assert_eq!(gt.num_true_matches(), 3 + 1); // C(3,2) + C(2,2)
        assert_eq!(gt.num_total_pairs(), 15);
    }

    #[test]
    fn match_queries() {
        let gt = sample();
        assert!(gt.is_match(RecordId(0), RecordId(2)));
        assert!(gt.is_match(RecordId(3), RecordId(4)));
        assert!(!gt.is_match(RecordId(0), RecordId(3)));
        assert!(!gt.is_match(RecordId(5), RecordId(5)));
        assert!(!gt.is_match(RecordId(0), RecordId(99)));
        let pair = RecordPair::new(RecordId(1), RecordId(0)).unwrap();
        assert!(gt.is_match_pair(&pair));
    }

    #[test]
    fn true_match_pairs_enumerated() {
        let gt = sample();
        let pairs: Vec<RecordPair> = gt.true_match_pairs().collect();
        assert_eq!(pairs.len() as u64, gt.num_true_matches());
        assert!(pairs.iter().all(|p| gt.is_match_pair(p)));
    }

    #[test]
    fn histogram_and_clusters() {
        let gt = sample();
        let hist = gt.cluster_size_histogram();
        assert_eq!(hist[&3], 1);
        assert_eq!(hist[&2], 1);
        assert_eq!(hist[&1], 1);
        assert_eq!(gt.clusters().len(), 3);
    }

    #[test]
    fn truncation_preserves_prefix() {
        let gt = sample().truncate(4);
        assert_eq!(gt.num_records(), 4);
        assert_eq!(gt.num_entities(), 2);
        assert_eq!(gt.num_true_matches(), 3); // C(3,2) + C(1,2) = 3 + 0
    }

    #[test]
    fn empty_ground_truth() {
        let gt = GroundTruth::from_assignments(vec![]);
        assert_eq!(gt.num_records(), 0);
        assert_eq!(gt.num_true_matches(), 0);
        assert_eq!(gt.num_total_pairs(), 0);
        assert_eq!(gt.true_match_pairs().count(), 0);
    }

    #[test]
    fn entity_display() {
        assert_eq!(EntityId(3).to_string(), "e3");
    }
}
