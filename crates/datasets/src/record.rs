//! Records: identifiers plus positionally-stored optional attribute values.

use std::fmt;
use std::sync::Arc;

use crate::error::{DatasetError, Result};
use crate::schema::Schema;

/// Identifier of a record within its dataset (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

/// The largest record id the packed-pair fast path can represent:
/// `u32::MAX` itself is reserved — `u64::MAX` doubles as the exhausted-run
/// sentinel of the loser-tree merge, so a pair of ids at `u32::MAX` must
/// never be packable. Construction paths that assign ids
/// ([`crate::dataset::DatasetBuilder`], the incremental blocker) reject ids
/// beyond this bound with a typed `RecordIdOverflow` error instead of
/// truncating.
pub const MAX_RECORD_ID: u32 = u32::MAX - 1; // sablock-lint: allow(raw-sentinel): this is the definition of the named sentinel bound itself

impl RecordId {
    /// The record id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Converts a dense index into a record id, rejecting indices beyond
    /// [`MAX_RECORD_ID`] (which would silently truncate in the `as u32`
    /// casts of the packed-pair paths).
    #[inline]
    pub fn try_from_index(index: usize) -> Result<Self> {
        // usize → u64 cannot lose width on any supported platform.
        let wide = index as u64;
        match u32::try_from(index) {
            Ok(id) if id <= MAX_RECORD_ID => Ok(Self(id)),
            _ => Err(DatasetError::RecordIdOverflow(wide)),
        }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for RecordId {
    fn from(value: u32) -> Self {
        Self(value)
    }
}

/// An unordered pair of distinct record ids, stored in canonical (min, max)
/// order so it can be used directly as a hash-set key for candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordPair {
    smaller: RecordId,
    larger: RecordId,
}

impl RecordPair {
    /// Creates a canonical pair. Returns `None` when both ids are equal
    /// (a record is never a candidate match with itself).
    pub fn new(a: RecordId, b: RecordId) -> Option<Self> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(Self { smaller: a, larger: b }),
            std::cmp::Ordering::Greater => Some(Self { smaller: b, larger: a }),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The smaller record id of the pair.
    pub fn first(&self) -> RecordId {
        self.smaller
    }

    /// The larger record id of the pair.
    pub fn second(&self) -> RecordId {
        self.larger
    }

    /// Packs the pair into a single `u64`: the smaller id in the high 32
    /// bits, the larger in the low 32. Because the smaller id occupies the
    /// more significant half, the numeric order of packed keys equals the
    /// derived [`Ord`] on pairs — sorting, deduplicating and merging packed
    /// keys is therefore a single integer compare per step, which is what
    /// the bulk pair-enumeration and merge-counting paths run on.
    #[inline]
    pub fn pack(self) -> u64 {
        (u64::from(self.smaller.0) << 32) | u64::from(self.larger.0)
    }

    /// Packs two *distinct, ascending* record ids directly. Callers must
    /// guarantee `a < b` (e.g. ids drawn from a sorted, deduplicated member
    /// list); [`RecordPair::new`] remains the checked constructor.
    #[inline]
    pub fn pack_ascending(a: RecordId, b: RecordId) -> u64 {
        debug_assert!(a < b, "pack_ascending requires a < b");
        (u64::from(a.0) << 32) | u64::from(b.0)
    }

    /// Reverses [`RecordPair::pack`]. The key must come from a packed valid
    /// pair (high half strictly below low half); this is checked in debug
    /// builds only, keeping the unpack on the counting hot path two shifts.
    #[inline]
    pub fn from_packed(key: u64) -> Self {
        let smaller = RecordId((key >> 32) as u32); // sablock-lint: allow(lossy-id-cast): unpacking the id halves of a packed key is exact by construction
        let larger = RecordId(key as u32); // sablock-lint: allow(lossy-id-cast): unpacking the id halves of a packed key is exact by construction
        debug_assert!(smaller < larger, "packed key {key:#x} does not encode a canonical pair");
        Self { smaller, larger }
    }
}

impl fmt::Display for RecordPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.smaller, self.larger)
    }
}

/// A record: an id plus one optional string value per schema attribute.
///
/// `None` models a missing value — the paper's semantic functions are driven
/// precisely by which attributes are missing (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    id: RecordId,
    schema: Arc<Schema>,
    values: Vec<Option<String>>,
}

impl Record {
    /// Creates a record, validating that the value count matches the schema.
    pub fn new(id: RecordId, schema: Arc<Schema>, values: Vec<Option<String>>) -> Result<Self> {
        if values.len() != schema.len() {
            return Err(DatasetError::ArityMismatch {
                expected: schema.len(),
                actual: values.len(),
            });
        }
        Ok(Self { id, schema, values })
    }

    /// The record's identifier.
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// The schema this record conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Value of the attribute at `index`, if present and non-empty.
    pub fn value_at(&self, index: usize) -> Option<&str> {
        self.values
            .get(index)
            .and_then(|v| v.as_deref())
            .filter(|v| !v.trim().is_empty())
    }

    /// Value of the named attribute, if the attribute exists and the value is
    /// present and non-empty.
    pub fn value(&self, attribute: &str) -> Option<&str> {
        self.schema.index_of(attribute).and_then(|i| self.value_at(i))
    }

    /// Whether the named attribute is missing (absent attribute, `None`, or
    /// an empty/whitespace value).
    pub fn is_missing(&self, attribute: &str) -> bool {
        self.value(attribute).is_none()
    }

    /// All raw values, in schema order.
    pub fn values(&self) -> &[Option<String>] {
        &self.values
    }

    /// Number of attributes with a present, non-empty value.
    pub fn present_count(&self) -> usize {
        (0..self.schema.len()).filter(|&i| self.value_at(i).is_some()).count()
    }
}

/// Builder-style helper for constructing records by attribute name, used by
/// the generators and tests.
#[derive(Debug, Clone)]
pub struct RecordBuilder {
    schema: Arc<Schema>,
    values: Vec<Option<String>>,
}

impl RecordBuilder {
    /// Starts a record with all attributes missing.
    pub fn new(schema: Arc<Schema>) -> Self {
        let values = vec![None; schema.len()];
        Self { schema, values }
    }

    /// Sets a value by attribute name; unknown names are an error.
    pub fn set(mut self, attribute: &str, value: impl Into<String>) -> Result<Self> {
        let idx = self.schema.require(attribute)?;
        self.values[idx] = Some(value.into());
        Ok(self)
    }

    /// Sets an optional value by attribute name.
    pub fn set_opt(mut self, attribute: &str, value: Option<String>) -> Result<Self> {
        let idx = self.schema.require(attribute)?;
        self.values[idx] = value;
        Ok(self)
    }

    /// Finishes the record with the given id.
    pub fn build(self, id: RecordId) -> Record {
        Record {
            id,
            schema: self.schema,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::shared(["title", "authors", "publisher"]).unwrap()
    }

    #[test]
    fn record_access_by_name_and_index() {
        let r = Record::new(
            RecordId(0),
            schema(),
            vec![Some("The cascade-correlation learning architecture".into()), Some("E. Fahlman and C. Lebiere".into()), None],
        )
        .unwrap();
        assert_eq!(r.id(), RecordId(0));
        assert!(r.value("title").unwrap().contains("cascade"));
        assert_eq!(r.value("publisher"), None);
        assert!(r.is_missing("publisher"));
        assert!(!r.is_missing("title"));
        assert_eq!(r.value("nonexistent"), None);
        assert_eq!(r.present_count(), 2);
    }

    #[test]
    fn empty_string_counts_as_missing() {
        let r = Record::new(RecordId(1), schema(), vec![Some("  ".into()), Some("".into()), Some("TR".into())]).unwrap();
        assert!(r.is_missing("title"));
        assert!(r.is_missing("authors"));
        assert_eq!(r.value("publisher"), Some("TR"));
        assert_eq!(r.present_count(), 1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let err = Record::new(RecordId(0), schema(), vec![None]).unwrap_err();
        assert!(matches!(err, DatasetError::ArityMismatch { expected: 3, actual: 1 }));
    }

    #[test]
    fn builder_sets_by_name() {
        let r = RecordBuilder::new(schema())
            .set("title", "Entity Resolution")
            .unwrap()
            .set_opt("publisher", None)
            .unwrap()
            .build(RecordId(7));
        assert_eq!(r.id(), RecordId(7));
        assert_eq!(r.value("title"), Some("Entity Resolution"));
        assert!(r.is_missing("authors"));
        assert!(RecordBuilder::new(schema()).set("zzz", "x").is_err());
    }

    #[test]
    fn record_pair_is_canonical() {
        let p1 = RecordPair::new(RecordId(5), RecordId(2)).unwrap();
        let p2 = RecordPair::new(RecordId(2), RecordId(5)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.first(), RecordId(2));
        assert_eq!(p1.second(), RecordId(5));
        assert!(RecordPair::new(RecordId(3), RecordId(3)).is_none());
        assert_eq!(p1.to_string(), "(r2, r5)");
    }

    #[test]
    fn packed_keys_round_trip_and_preserve_order() {
        let pairs = [
            RecordPair::new(RecordId(0), RecordId(1)).unwrap(),
            RecordPair::new(RecordId(0), RecordId(u32::MAX)).unwrap(),
            RecordPair::new(RecordId(7), RecordId(9)).unwrap(),
            RecordPair::new(RecordId(u32::MAX - 1), RecordId(u32::MAX)).unwrap(),
        ];
        for &p in &pairs {
            assert_eq!(RecordPair::from_packed(p.pack()), p);
            assert_eq!(RecordPair::pack_ascending(p.first(), p.second()), p.pack());
        }
        for &a in &pairs {
            for &b in &pairs {
                assert_eq!(a.cmp(&b), a.pack().cmp(&b.pack()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn record_id_display_and_conversion() {
        let id: RecordId = 42u32.into();
        assert_eq!(id.to_string(), "r42");
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn record_id_width_is_validated() {
        assert_eq!(RecordId::try_from_index(0).unwrap(), RecordId(0));
        assert_eq!(RecordId::try_from_index(MAX_RECORD_ID as usize).unwrap(), RecordId(MAX_RECORD_ID));
        // One past the boundary: the id that would alias the merge sentinel.
        let err = RecordId::try_from_index(MAX_RECORD_ID as usize + 1).unwrap_err();
        assert!(matches!(err, DatasetError::RecordIdOverflow(id) if id == u64::from(u32::MAX)));
    }
}
