//! Generalized databases: named extensional relations.
//!
//! A generalized database (§2.1) supplies the extensional predicates of a
//! deductive program, each as a [`GeneralizedRelation`].

use itdb_lrp::{parser, Error, GeneralizedRelation, Result, Schema};
use std::collections::BTreeMap;
use std::fmt;

/// A named collection of generalized relations (the EDB).
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, GeneralizedRelation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation under `name`.
    pub fn insert(&mut self, name: impl Into<String>, rel: GeneralizedRelation) {
        self.relations.insert(name.into(), rel);
    }

    /// Adds a relation parsed from the textual tuple format of
    /// [`itdb_lrp::parser`], e.g.
    ///
    /// ```text
    /// (168n+8, 168n+10; database) : T2 = T1 + 2
    /// ```
    pub fn insert_parsed(&mut self, name: impl Into<String>, text: &str) -> Result<()> {
        self.relations
            .insert(name.into(), parser::parse_relation(text)?);
        Ok(())
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&GeneralizedRelation> {
        self.relations.get(name)
    }

    /// Looks up a relation mutably — the streaming-ingestion hook: new
    /// EDB tuples are merged into the existing relation (with
    /// subsumption) rather than replacing it wholesale.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut GeneralizedRelation> {
        self.relations.get_mut(name)
    }

    /// The underlying name → relation map (for whole-database encoders).
    pub(crate) fn relations(&self) -> &BTreeMap<String, GeneralizedRelation> {
        &self.relations
    }

    /// Rebuilds a database from a decoded name → relation map.
    pub(crate) fn from_relations(relations: BTreeMap<String, GeneralizedRelation>) -> Self {
        Database { relations }
    }

    /// Looks up a relation, failing with a schema check against `expected`.
    pub fn get_checked(&self, name: &str, expected: Schema) -> Result<&GeneralizedRelation> {
        match self.relations.get(name) {
            None => Err(Error::SchemaMismatch(format!(
                "extensional predicate `{name}` is not present in the database"
            ))),
            Some(r) if r.schema() != expected => Err(Error::SchemaMismatch(format!(
                "extensional predicate `{name}` has schema {} but the program uses {expected}",
                r.schema()
            ))),
            Some(r) => Ok(r),
        }
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &GeneralizedRelation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name} {}", rel)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdb_lrp::DataValue;

    #[test]
    fn insert_and_get() {
        let mut db = Database::new();
        db.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
        let r = db.get("course").unwrap();
        assert!(r.contains(&[8, 10], &[DataValue::sym("database")]));
        assert!(db.get("nope").is_none());
    }

    #[test]
    fn get_checked_validates_schema() {
        let mut db = Database::new();
        db.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        assert!(db.get_checked("course", Schema::new(2, 1)).is_ok());
        assert!(db.get_checked("course", Schema::new(1, 1)).is_err());
        assert!(db.get_checked("absent", Schema::new(1, 0)).is_err());
    }

    #[test]
    fn display_names_relations() {
        let mut db = Database::new();
        db.insert_parsed("r", "(2n)").unwrap();
        let s = db.to_string();
        assert!(s.contains('r'), "{s}");
        assert!(s.contains("2n+0"), "{s}");
    }
}
