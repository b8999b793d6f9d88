//! Error type for the blocking framework.

use std::fmt;

use sablock_datasets::DatasetError;

/// Errors raised while configuring or running blockers.
#[derive(Debug)]
pub enum CoreError {
    /// A configuration value is invalid (e.g. zero bands, unknown attribute).
    Config(String),
    /// A taxonomy operation failed (unknown concept, malformed tree).
    Taxonomy(String),
    /// A record id beyond [`MAX_RECORD_ID`](crate::blocking::MAX_RECORD_ID).
    /// The value `u32::MAX` is reserved so that an id space's length — the
    /// incremental index's `next_id = last id + 1` — still fits a `u32`;
    /// such an id is rejected with this typed error instead of wrapping.
    RecordIdOverflow(u64),
    /// An error bubbled up from the dataset layer.
    Dataset(DatasetError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "configuration error: {msg}"),
            Self::Taxonomy(msg) => write!(f, "taxonomy error: {msg}"),
            Self::RecordIdOverflow(id) => write!(
                f,
                "record id {id} exceeds the maximum packable record id {} (u32::MAX is reserved)",
                sablock_datasets::MAX_RECORD_ID
            ),
            Self::Dataset(err) => write!(f, "dataset error: {err}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dataset(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DatasetError> for CoreError {
    fn from(err: DatasetError) -> Self {
        Self::Dataset(err)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::Config("bands must be > 0".into()).to_string().contains("bands"));
        assert!(CoreError::Taxonomy("unknown concept c9".into()).to_string().contains("c9"));
        let overflow = CoreError::RecordIdOverflow(u64::from(u32::MAX));
        assert!(overflow.to_string().contains(&u32::MAX.to_string()));
        let err: CoreError = DatasetError::UnknownAttribute("title".into()).into();
        assert!(err.to_string().contains("title"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
