//! Schemas: ordered lists of named, typed fields.

use crate::attrs::AttrId;
use crate::error::{Error, Result};
use std::fmt;
use std::sync::Arc;

/// Declared type of a column. The engine is dynamically typed at the value
/// level; `DataType` is used for binding and for generator/codec decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "TEXT"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields. Attribute ids ([`AttrId`]) are positions
/// in the schema, so resolving a name yields the id used by the attribute
/// algebra throughout the optimizer.
///
/// Schemas are cheaply cloneable (`Arc` inside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Build a schema from fields. Names must be unique (case-insensitive).
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            for g in &fields[..i] {
                if f.name.eq_ignore_ascii_case(&g.name) {
                    return Err(Error::SchemaMismatch(format!(
                        "duplicate field name `{}`",
                        f.name
                    )));
                }
            }
        }
        Ok(Schema {
            fields: fields.into(),
        })
    }

    /// Convenience constructor from `(name, type)` pairs; panics on duplicate
    /// names (intended for tests and static schemas).
    pub fn of(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Field::new(*n, *t)).collect())
            .expect("static schema must have unique names")
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The field at position `id`.
    pub fn field(&self, id: AttrId) -> &Field {
        &self.fields[id.index()]
    }

    /// Resolve a name (case-insensitive) to an attribute id.
    pub fn resolve(&self, name: &str) -> Result<AttrId> {
        self.fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(name))
            .map(AttrId::new)
            .ok_or_else(|| Error::UnknownAttribute(name.to_string()))
    }

    /// Name of an attribute id (for plan display).
    pub fn name(&self, id: AttrId) -> &str {
        &self.fields[id.index()].name
    }

    /// The fields at `columns`, in that order (a projection). Errors when
    /// a column is named twice, as [`Schema::new`] does.
    pub fn select(&self, columns: &[AttrId]) -> Result<Schema> {
        Schema::new(columns.iter().map(|&a| self.field(a).clone()).collect())
    }

    /// A new schema with `extra` appended (window functions append their
    /// output column to the windowed table).
    pub fn with_appended(&self, extra: Field) -> Result<Schema> {
        let mut fields: Vec<Field> = self.fields.to_vec();
        fields.push(extra);
        Schema::new(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("c", DataType::Float),
        ])
    }

    #[test]
    fn resolve_is_case_insensitive() {
        let s = abc();
        assert_eq!(s.resolve("a").unwrap(), AttrId::new(0));
        assert_eq!(s.resolve("B").unwrap(), AttrId::new(1));
        assert!(matches!(s.resolve("zz"), Err(Error::UnknownAttribute(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("X", DataType::Int),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn with_appended_extends() {
        let s = abc();
        let s2 = s.with_appended(Field::new("rank", DataType::Int)).unwrap();
        assert_eq!(s2.len(), 4);
        assert_eq!(s2.resolve("rank").unwrap(), AttrId::new(3));
        // Original untouched.
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn appended_duplicate_rejected() {
        let s = abc();
        assert!(s.with_appended(Field::new("a", DataType::Int)).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(abc().to_string(), "(a INT, b TEXT, c FLOAT)");
    }
}
