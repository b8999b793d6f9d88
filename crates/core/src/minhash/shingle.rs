//! Record shingling: converting records into sets of hashed q-grams
//! (paper §5.1, step "Shingling").

use sablock_datasets::{Dataset, Record};
use sablock_textual::hashing::StableHashSet;
use sablock_textual::normalize::normalize_into;
use sablock_textual::qgrams::hash_qgrams_into;
use sablock_textual::setsim::jaccard;

use super::{MinHasher, MinhashSignature};
use crate::error::{CoreError, Result};

/// Shingles a record by concatenating selected attributes and extracting
/// hashed character q-grams.
#[derive(Debug, Clone)]
pub struct RecordShingler {
    attributes: Vec<String>,
    qgram: usize,
}

impl RecordShingler {
    /// Creates a shingler over the named attributes with q-grams of size `q`.
    pub fn new<I, S>(attributes: I, qgram: usize) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        if attributes.is_empty() {
            return Err(CoreError::Config("at least one attribute must be selected for shingling".into()));
        }
        if qgram == 0 {
            return Err(CoreError::Config("qgram size must be > 0".into()));
        }
        Ok(Self { attributes, qgram })
    }

    /// The attributes being shingled.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// The q-gram size.
    pub fn qgram(&self) -> usize {
        self.qgram
    }

    /// Validates that every selected attribute exists in the dataset schema.
    pub fn validate_against(&self, dataset: &Dataset) -> Result<()> {
        for attribute in &self.attributes {
            if dataset.schema().index_of(attribute).is_none() {
                return Err(CoreError::Config(format!(
                    "attribute '{attribute}' selected for blocking does not exist in dataset '{}'",
                    dataset.name()
                )));
            }
        }
        Ok(())
    }

    /// The normalised text of a record over the selected attributes.
    pub fn text(&self, record: &Record) -> String {
        let mut text = String::new();
        self.text_into(record, &mut text);
        text
    }

    /// The hashed q-gram shingle set of a record.
    pub fn shingles(&self, record: &Record) -> StableHashSet<u64> {
        let mut hashes = Vec::new();
        self.window_hashes_into(record, &mut String::new(), &mut hashes);
        hashes.into_iter().collect()
    }

    /// The hash of every q-gram window of the record's normalised text, in
    /// order and with repeats — the shingle set before deduplication, and
    /// the one shingling path: [`RecordShingler::shingles`] collects it,
    /// minhash signatures fold it, and ranked queries score it. `text` and
    /// `hashes` are working buffers, overwritten; reusing them across
    /// records allocates nothing once they are large enough.
    pub fn window_hashes_into(&self, record: &Record, text: &mut String, hashes: &mut Vec<u64>) {
        self.text_into(record, text);
        hash_qgrams_into(text, self.qgram, hashes);
    }

    /// The minhash signature of a record's window hashes, or `None` for a
    /// record with no text — such records are never indexed, so they
    /// collide with nothing.
    pub(crate) fn signature(&self, hasher: &MinHasher, record: &Record) -> Option<MinhashSignature> {
        let (mut text, mut hashes) = (String::new(), Vec::new());
        self.window_hashes_into(record, &mut text, &mut hashes);
        // Repeated windows are folded, not removed: they cannot change a
        // minimum, and even at 252 hash functions folding them measured
        // cheaper than sorting them out first.
        (!hashes.is_empty()).then(|| hasher.signature(&hashes))
    }

    /// [`RecordShingler::text`] into a reused buffer. Missing values and
    /// attributes the schema lacks contribute nothing.
    fn text_into(&self, record: &Record, text: &mut String) {
        normalize_into(self.attributes.iter().filter_map(|attribute| record.value(attribute)), text);
    }

    /// The exact Jaccard textual similarity of two records under this
    /// shingler — the quantity the minhash/banding stage approximates, and the
    /// quantity the parameter-tuning stage measures on a training sample.
    pub fn jaccard(&self, a: &Record, b: &Record) -> f64 {
        jaccard(&self.shingles(a), &self.shingles(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sablock_datasets::record::RecordBuilder;
    use sablock_datasets::{CoraConfig, CoraGenerator, RecordId, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::shared(["title", "authors", "year"]).unwrap()
    }

    fn record(title: &str, authors: &str, id: u32) -> Record {
        RecordBuilder::new(schema())
            .set("title", title)
            .unwrap()
            .set("authors", authors)
            .unwrap()
            .build(RecordId(id))
    }

    #[test]
    fn construction_validation() {
        assert!(RecordShingler::new(Vec::<String>::new(), 2).is_err());
        assert!(RecordShingler::new(["title"], 0).is_err());
        let s = RecordShingler::new(["title", "authors"], 3).unwrap();
        assert_eq!(s.attributes(), &["title", "authors"]);
        assert_eq!(s.qgram(), 3);
    }

    #[test]
    fn text_concatenates_and_normalizes() {
        let s = RecordShingler::new(["title", "authors"], 2).unwrap();
        let r = record("The Cascade-Correlation!", "Fahlman, S.", 0);
        assert_eq!(s.text(&r), "the cascade correlation fahlman s");
        // A missing value in between contributes nothing, not a gap.
        let with_missing = RecordShingler::new(["title", "year", "authors"], 2).unwrap();
        assert_eq!(with_missing.text(&r), "the cascade correlation fahlman s");
    }

    #[test]
    fn shingles_capture_textual_similarity() {
        let s = RecordShingler::new(["title", "authors"], 2).unwrap();
        let a = record("The cascade-correlation learning architecture", "E. Fahlman and C. Lebiere", 0);
        let b = record("Cascade correlation learning architecture", "E. Fahlman & C. Lebiere", 1);
        let c = record("Controlled growth of cascade correlation nets", "", 2);
        let sim_ab = s.jaccard(&a, &b);
        let sim_ac = s.jaccard(&a, &c);
        assert!(sim_ab > 0.75, "near-duplicates should be very similar, got {sim_ab}");
        assert!(sim_ac < sim_ab, "different papers should be less similar ({sim_ac} vs {sim_ab})");
        assert_eq!(s.jaccard(&a, &a), 1.0);
    }

    #[test]
    fn missing_attributes_yield_empty_shingles() {
        let s = RecordShingler::new(["authors"], 2).unwrap();
        let r = record("title only", "", 0);
        assert!(s.shingles(&r).is_empty());
        assert_eq!(s.jaccard(&r, &r), 0.0);
    }

    #[test]
    fn unknown_attributes_are_silently_empty_but_validated_against_datasets() {
        // Record::value has no value for an unknown attribute name, so the
        // shingler itself produces empty text; validate_against catches the
        // mistake at blocker construction time.
        let s = RecordShingler::new(["nonexistent"], 2).unwrap();
        let r = record("abc", "def", 0);
        assert!(s.shingles(&r).is_empty());

        let ds = CoraGenerator::new(CoraConfig { num_records: 10, ..CoraConfig::small() }).generate().unwrap();
        assert!(s.validate_against(&ds).is_err());
        let ok = RecordShingler::new(["title", "authors"], 4).unwrap();
        assert!(ok.validate_against(&ds).is_ok());
    }
}
