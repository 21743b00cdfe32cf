//! Engine-wide error type.

use std::fmt;

/// Errors surfaced by the storage layer, executor, and SQL front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// OS-level I/O failure, tagged with the operation and the file it
    /// hit so a failed `sync` on the WAL is distinguishable from a
    /// failed `read` on the data file.
    Io {
        /// What was being attempted ("open", "read", "write", "sync", …).
        op: String,
        /// Path (or `<memory>`) the operation targeted.
        path: String,
        /// Underlying `std::io::Error` text.
        source: String,
    },
    /// Page id out of range or page corrupt.
    Page(String),
    /// A record id no longer resolves to a live record.
    BadRid { page: u32, slot: u16 },
    /// Catalog misuse: duplicate/unknown table or index.
    Catalog(String),
    /// Schema violation: wrong arity or type for a row.
    Schema(String),
    /// SQL lexing/parsing failure with position information.
    Parse(String),
    /// Query refers to an unknown column/table/function.
    Binding(String),
    /// Runtime evaluation error (type mismatch, division by zero, …).
    Eval(String),
    /// A record larger than a page was inserted.
    RecordTooLarge(usize),
    /// An index key longer than a B+tree node can hold
    /// ([`crate::btree::MAX_KEY_LEN`]); refused before any write.
    KeyTooLarge(usize),
    /// A stored row decoded to values its consumer cannot accept —
    /// on-disk corruption or a schema drifting out from under its
    /// readers. Never masked with fabricated defaults.
    Corrupt(String),
    /// A mutating statement reached a read-only entry point
    /// (`Database::query` accepts SELECT only).
    ReadOnly(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io { op, path, source } => {
                write!(f, "io error: {op} {path}: {source}")
            }
            DbError::Page(m) => write!(f, "page error: {m}"),
            DbError::BadRid { page, slot } => {
                write!(f, "dangling rid (page {page}, slot {slot})")
            }
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Parse(m) => write!(f, "sql parse error: {m}"),
            DbError::Binding(m) => write!(f, "binding error: {m}"),
            DbError::Eval(m) => write!(f, "evaluation error: {m}"),
            DbError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds page capacity")
            }
            DbError::KeyTooLarge(n) => {
                let max = crate::btree::MAX_KEY_LEN;
                write!(f, "index key of {n} bytes exceeds the {max}-byte maximum")
            }
            DbError::Corrupt(m) => write!(f, "corrupt row: {m}"),
            DbError::ReadOnly(m) => write!(f, "read-only violation: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl DbError {
    /// Build an [`DbError::Io`] with operation and path context.
    pub fn io(op: &str, path: impl AsRef<std::path::Path>, e: std::io::Error) -> DbError {
        DbError::Io {
            op: op.to_owned(),
            path: path.as_ref().display().to_string(),
            source: e.to_string(),
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io {
            op: "io".to_owned(),
            path: "<unknown>".to_owned(),
            source: e.to_string(),
        }
    }
}

/// Engine result alias.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_contextual() {
        assert!(DbError::BadRid { page: 3, slot: 9 }
            .to_string()
            .contains("page 3"));
        assert!(DbError::Parse("near 'selec'".into())
            .to_string()
            .contains("selec"));
    }

    #[test]
    fn io_error_converts() {
        let e: DbError = std::io::Error::other("boom").into();
        assert!(matches!(e, DbError::Io { .. }));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn io_error_carries_op_and_path() {
        let e = DbError::io(
            "sync",
            std::path::Path::new("/tmp/db.wal"),
            std::io::Error::other("disk gone"),
        );
        let msg = e.to_string();
        assert!(msg.contains("sync"), "{msg}");
        assert!(msg.contains("/tmp/db.wal"), "{msg}");
        assert!(msg.contains("disk gone"), "{msg}");
    }
}
