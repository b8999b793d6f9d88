//! Attribute schemas.
//!
//! A schema is an ordered list of named attributes; records store their values
//! positionally against it. Blocking techniques are configured with the names
//! of the attributes they should consider (e.g. `title` + `authors` for Cora,
//! `first_name` + `last_name` for NC Voter).

use std::sync::Arc;

use crate::error::{DatasetError, Result};

/// An ordered, named attribute schema shared by all records of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    /// Builds a schema from attribute names. Duplicate names are rejected.
    ///
    /// # Examples
    /// ```
    /// use sablock_datasets::Schema;
    /// let schema = Schema::new(["title", "authors"]).unwrap();
    /// assert_eq!(schema.len(), 2);
    /// assert_eq!(schema.index_of("authors"), Some(1));
    /// ```
    pub fn new<I, S>(names: I) -> Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Err(DatasetError::InvalidConfig(format!("duplicate attribute name: {name}")));
            }
        }
        Ok(Self { names })
    }

    /// Builds a schema, wrapped in an [`Arc`] for cheap sharing across records.
    pub fn shared<I, S>(names: I) -> Result<Arc<Self>>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(Arc::new(Self::new(names)?))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The attribute names, in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Position of an attribute by name. A scan, not a hash map: schemas
    /// are a handful of attributes, and every record value read by name
    /// comes through here.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|candidate| candidate == name)
    }

    /// Position of an attribute by name, or an error naming the attribute.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| DatasetError::UnknownAttribute(name.to_string()))
    }

    /// Resolves a list of attribute names to their positions, preserving order.
    pub fn resolve<S: AsRef<str>>(&self, names: &[S]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.require(n.as_ref())).collect()
    }

    /// Name of the attribute at `index`.
    pub fn name_at(&self, index: usize) -> Option<&str> {
        self.names.get(index).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_indexes() {
        let s = Schema::new(["title", "authors", "year"]).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.index_of("title"), Some(0));
        assert_eq!(s.index_of("year"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.name_at(1), Some("authors"));
        assert_eq!(s.name_at(9), None);
    }

    #[test]
    fn rejects_duplicates() {
        let err = Schema::new(["a", "b", "a"]).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn require_and_resolve() {
        let s = Schema::new(["first_name", "last_name", "gender", "race"]).unwrap();
        assert_eq!(s.require("gender").unwrap(), 2);
        assert!(s.require("city").is_err());
        assert_eq!(s.resolve(&["last_name", "first_name"]).unwrap(), vec![1, 0]);
        assert!(s.resolve(&["last_name", "zip"]).is_err());
    }

    #[test]
    fn empty_schema_allowed() {
        let s = Schema::new(Vec::<String>::new()).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn shared_schema_is_arc() {
        let s = Schema::shared(["a"]).unwrap();
        let s2 = Arc::clone(&s);
        assert_eq!(s2.index_of("a"), Some(0));
    }
}
