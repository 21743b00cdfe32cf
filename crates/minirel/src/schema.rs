//! Table schemas: named, typed columns, and row validation.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::fmt;

/// Column type. `Int` covers all of the paper's id/counter columns
/// (64-bit `oid`, 32-bit `tid`, 16-bit `cid`, `numtries`, timestamps);
/// `Float` covers scores and log-probabilities; `Str` covers URLs/names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl ColumnType {
    /// Does `v` inhabit this type? NULL inhabits every type.
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_)) // widening is fine
                | (ColumnType::Str, Value::Str(_))
        )
    }

    /// Parse a SQL type name.
    pub fn parse(name: &str) -> Option<ColumnType> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" | "smallint" => Some(ColumnType::Int),
            "float" | "double" | "real" => Some(ColumnType::Float),
            "str" | "text" | "varchar" | "char" => Some(ColumnType::Str),
            _ => None,
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "int"),
            ColumnType::Float => write!(f, "float"),
            ColumnType::Str => write!(f, "str"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Lower-cased column name.
    pub name: String,
    /// Value domain.
    pub ty: ColumnType,
}

impl Column {
    /// Construct (name is lower-cased; SQL identifiers are case-insensitive).
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into().to_ascii_lowercase(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// Columns in storage order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    pub fn new(cols: impl IntoIterator<Item = (impl Into<String>, ColumnType)>) -> Self {
        Schema {
            columns: cols.into_iter().map(|(n, t)| Column::new(n, t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Validate a row against this schema, widening ints stored in float
    /// columns so downstream arithmetic sees a consistent type.
    #[allow(clippy::ptr_arg)] // callers hold Vec rows; arity check needs len anyway
    pub fn check_row(&self, row: &mut Vec<Value>) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::Schema(format!(
                "row arity {} does not match schema arity {}",
                row.len(),
                self.columns.len()
            )));
        }
        for (v, c) in row.iter_mut().zip(&self.columns) {
            if !c.ty.admits(v) {
                return Err(DbError::Schema(format!(
                    "value {v} does not fit column {} of type {}",
                    c.name, c.ty
                )));
            }
            if c.ty == ColumnType::Float {
                if let Value::Int(i) = v {
                    *v = Value::Float(*i as f64);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crawl_schema() -> Schema {
        Schema::new([
            ("oid", ColumnType::Int),
            ("url", ColumnType::Str),
            ("relevance", ColumnType::Float),
        ])
    }

    #[test]
    fn index_is_case_insensitive() {
        let s = crawl_schema();
        assert_eq!(s.index_of("OID"), Some(0));
        assert_eq!(s.index_of("Relevance"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn check_row_validates_and_widens() {
        let s = crawl_schema();
        let mut ok = vec![Value::Int(7), Value::Str("u".into()), Value::Int(1)];
        s.check_row(&mut ok).unwrap();
        assert_eq!(ok[2], Value::Float(1.0)); // widened
        let mut bad_arity = vec![Value::Int(7)];
        assert!(s.check_row(&mut bad_arity).is_err());
        let mut bad_type = vec![Value::Str("x".into()), Value::Str("u".into()), Value::Null];
        assert!(s.check_row(&mut bad_type).is_err());
        let mut nulls = vec![Value::Null, Value::Null, Value::Null];
        s.check_row(&mut nulls).unwrap(); // NULL inhabits every type
    }

    #[test]
    fn type_parsing() {
        assert_eq!(ColumnType::parse("BIGINT"), Some(ColumnType::Int));
        assert_eq!(ColumnType::parse("double"), Some(ColumnType::Float));
        assert_eq!(ColumnType::parse("varchar"), Some(ColumnType::Str));
        assert_eq!(ColumnType::parse("blob"), None);
    }
}
