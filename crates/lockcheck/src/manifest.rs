//! Parser for `LOCK_ORDER.toml`, the declared lock-order lattice.
//!
//! Hand-rolled TOML subset (tables, array-of-tables, string / integer /
//! bool / string-array values) — the offline `vendor/` tree carries no
//! `toml` crate, and the manifest deliberately sticks to this subset.

use std::fmt;

/// Which primitive a declared lock wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `OrderedMutex` — all acquisitions exclusive.
    Mutex,
    /// `OrderedRwLock` — `.read()` shared, `.write()` exclusive.
    RwLock,
}

/// One `[[lock]]` entry: a named rank plus the field/receiver names and
/// file scope that bind source acquisitions to it.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Manifest name, e.g. `"crawler.store"`.
    pub name: String,
    /// Rank value: the `rank::ALL` constant of the same name, or — for a
    /// lock the registry does not know (fixture manifests) — its `rank`
    /// key. Never both: there is one number per lock.
    pub rank: u16,
    /// Wrapped primitive.
    pub kind: LockKind,
    /// Field or accessor-function names whose `.lock()/.read()/.write()`
    /// resolve to this lock (e.g. `["shards", "shard_of"]`).
    pub fields: Vec<String>,
    /// Path substrings scoping `fields`; empty means any scanned file.
    pub files: Vec<String>,
}

/// One `[[blocking]]` entry: a `receiver.method` call that must not run
/// under locks other than those in `allow`.
#[derive(Debug, Clone)]
pub struct BlockingCall {
    /// Label used in findings, e.g. `"fetch"`.
    pub name: String,
    /// Receiver identifier; `"*"` matches any receiver.
    pub receiver: String,
    /// Method identifier.
    pub method: String,
    /// Lock names permitted to be held across the call.
    pub allow: Vec<String>,
}

/// One `[[allow]]` entry: a suppressed edge, with the reason recorded.
#[derive(Debug, Clone)]
pub struct AllowEdge {
    /// Held lock name.
    pub from: String,
    /// Acquired lock name.
    pub to: String,
    /// Why the edge is intentional.
    pub reason: String,
}

/// `[scan]` table: where the analyzer walks.
#[derive(Debug, Clone, Default)]
pub struct ScanConfig {
    /// Directories (relative to the workspace root) to walk.
    pub roots: Vec<String>,
    /// Path substrings to skip entirely.
    pub exclude: Vec<String>,
    /// Directory *names* to skip wherever they appear (`tests`,
    /// `benches`, `target`, ...).
    pub exclude_dirs: Vec<String>,
}

/// The parsed manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Declared locks.
    pub locks: Vec<LockDecl>,
    /// Blocking-call specs.
    pub blocking: Vec<BlockingCall>,
    /// Suppressed edges.
    pub allows: Vec<AllowEdge>,
    /// Scan scope.
    pub scan: ScanConfig,
}

impl Manifest {
    /// Look up a lock by manifest name.
    pub fn lock_by_name(&self, name: &str) -> Option<&LockDecl> {
        self.locks.iter().find(|l| l.name == name)
    }

    /// Resolve a source acquisition `receiver` in `file` to a lock index.
    /// File scoping disambiguates shared field names (`queue`, `inner`).
    pub fn resolve_field(&self, receiver: &str, file: &str) -> Option<usize> {
        self.locks.iter().position(|l| {
            l.fields.iter().any(|f| f == receiver)
                && (l.files.is_empty() || l.files.iter().any(|p| file.contains(p.as_str())))
        })
    }

    /// True if an inversion edge `from -> to` is explicitly allowed.
    pub fn edge_allowed(&self, from: &str, to: &str) -> bool {
        self.allows.iter().any(|a| a.from == from && a.to == to)
    }
}

/// Manifest parse error with 1-based line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LOCK_ORDER.toml:{}: {}", self.line, self.message)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Scan,
    Lock,
    Blocking,
    Allow,
}

/// Parse the manifest source.
pub fn parse(src: &str) -> Result<Manifest, ParseError> {
    let mut m = Manifest::default();
    // The `rank` key of each `[[lock]]`, where given.
    let mut declared: Vec<Option<u16>> = Vec::new();
    let mut section = Section::None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = match header.trim() {
                "lock" => {
                    m.locks.push(LockDecl {
                        name: String::new(),
                        rank: 0,
                        kind: LockKind::Mutex,
                        fields: Vec::new(),
                        files: Vec::new(),
                    });
                    declared.push(None);
                    Section::Lock
                }
                "blocking" => {
                    m.blocking.push(BlockingCall {
                        name: String::new(),
                        receiver: "*".into(),
                        method: String::new(),
                        allow: Vec::new(),
                    });
                    Section::Blocking
                }
                "allow" => {
                    m.allows.push(AllowEdge {
                        from: String::new(),
                        to: String::new(),
                        reason: String::new(),
                    });
                    Section::Allow
                }
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown array table [[{other}]]"),
                    })
                }
            };
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = match header.trim() {
                "scan" => Section::Scan,
                other => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown table [{other}]"),
                    })
                }
            };
            continue;
        }
        let (key, value) = split_kv(line, lineno)?;
        match section {
            Section::None => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("key `{key}` outside any table"),
                })
            }
            Section::Scan => match key {
                "roots" => m.scan.roots = value.as_strings(lineno)?,
                "exclude" => m.scan.exclude = value.as_strings(lineno)?,
                "exclude_dirs" => m.scan.exclude_dirs = value.as_strings(lineno)?,
                _ => return unknown_key(key, "scan", lineno),
            },
            Section::Lock => {
                let lock = m.locks.last_mut().expect("inside [[lock]]");
                match key {
                    "name" => lock.name = value.as_string(lineno)?,
                    "rank" => {
                        *declared.last_mut().expect("inside [[lock]]") =
                            Some(value.as_int(lineno)? as u16)
                    }
                    "kind" => {
                        lock.kind = match value.as_string(lineno)?.as_str() {
                            "mutex" => LockKind::Mutex,
                            "rwlock" => LockKind::RwLock,
                            other => {
                                return Err(ParseError {
                                    line: lineno,
                                    message: format!("kind must be mutex|rwlock, got `{other}`"),
                                })
                            }
                        }
                    }
                    "fields" => lock.fields = value.as_strings(lineno)?,
                    "files" => lock.files = value.as_strings(lineno)?,
                    _ => return unknown_key(key, "lock", lineno),
                }
            }
            Section::Blocking => {
                let b = m.blocking.last_mut().expect("inside [[blocking]]");
                match key {
                    "name" => b.name = value.as_string(lineno)?,
                    "call" => {
                        let call = value.as_string(lineno)?;
                        let (recv, method) = call.split_once('.').ok_or(ParseError {
                            line: lineno,
                            message: format!("call must be `receiver.method`, got `{call}`"),
                        })?;
                        b.receiver = recv.to_string();
                        b.method = method.to_string();
                    }
                    "allow" => b.allow = value.as_strings(lineno)?,
                    _ => return unknown_key(key, "blocking", lineno),
                }
            }
            Section::Allow => {
                let a = m.allows.last_mut().expect("inside [[allow]]");
                match key {
                    "from" => a.from = value.as_string(lineno)?,
                    "to" => a.to = value.as_string(lineno)?,
                    "reason" => a.reason = value.as_string(lineno)?,
                    _ => return unknown_key(key, "allow", lineno),
                }
            }
        }
    }
    let checked = assign_ranks(&mut m, &declared).and_then(|()| validate(&m));
    checked.map_err(|message| ParseError { line: 0, message })?;
    Ok(m)
}

/// Give every lock its rank: from the registry ([`crate::rank::ALL`]) by
/// name, else from its own `rank` key. A lock with both has two numbers
/// that could drift, a lock with neither has none — both are rejected.
fn assign_ranks(m: &mut Manifest, declared: &[Option<u16>]) -> Result<(), String> {
    for (lock, &declared) in m.locks.iter_mut().zip(declared) {
        let registry = crate::rank::ALL.iter().find(|r| r.name == lock.name);
        lock.rank = match (registry, declared) {
            (Some(r), None) => r.value,
            (None, Some(rank)) => rank,
            (Some(r), Some(_)) => {
                return Err(format!(
                    "lock `{}` takes its rank ({}) from the registry \
                     (crates/lockcheck/src/rank.rs); drop its `rank` key",
                    lock.name, r.value
                ))
            }
            (None, None) => {
                return Err(format!(
                    "lock `{}` is not in the rank registry and declares no `rank`",
                    lock.name
                ))
            }
        };
    }
    Ok(())
}

fn unknown_key(key: &str, table: &str, line: usize) -> Result<Manifest, ParseError> {
    Err(ParseError {
        line,
        message: format!("unknown key `{key}` in [{table}]"),
    })
}

fn validate(m: &Manifest) -> Result<(), String> {
    for lock in &m.locks {
        if lock.name.is_empty() {
            return Err("a [[lock]] entry is missing `name`".into());
        }
        if lock.fields.is_empty() {
            return Err(format!("lock `{}` declares no fields", lock.name));
        }
    }
    for (i, a) in m.locks.iter().enumerate() {
        for b in &m.locks[i + 1..] {
            if a.name == b.name {
                return Err(format!("duplicate lock name `{}`", a.name));
            }
        }
    }
    for b in &m.blocking {
        if b.method.is_empty() {
            return Err(format!("blocking call `{}` is missing `call`", b.name));
        }
        for name in &b.allow {
            if m.lock_by_name(name).is_none() {
                return Err(format!(
                    "blocking call `{}` allows unknown lock `{name}`",
                    b.name
                ));
            }
        }
    }
    for a in &m.allows {
        for name in [&a.from, &a.to] {
            if m.lock_by_name(name).is_none() {
                return Err(format!("[[allow]] references unknown lock `{name}`"));
            }
        }
        if a.reason.is_empty() {
            return Err(format!("[[allow]] {} -> {} needs a `reason`", a.from, a.to));
        }
    }
    Ok(())
}

/// Strip a `#` comment that is not inside a string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

enum Value {
    Str(String),
    Int(i64),
    Strings(Vec<String>),
}

impl Value {
    fn as_string(&self, line: usize) -> Result<String, ParseError> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(ParseError {
                line,
                message: "expected a string".into(),
            }),
        }
    }
    fn as_int(&self, line: usize) -> Result<i64, ParseError> {
        match self {
            Value::Int(v) => Ok(*v),
            _ => Err(ParseError {
                line,
                message: "expected an integer".into(),
            }),
        }
    }
    fn as_strings(&self, line: usize) -> Result<Vec<String>, ParseError> {
        match self {
            Value::Strings(v) => Ok(v.clone()),
            _ => Err(ParseError {
                line,
                message: "expected an array of strings".into(),
            }),
        }
    }
}

fn split_kv(line: &str, lineno: usize) -> Result<(&str, Value), ParseError> {
    let (key, raw) = line.split_once('=').ok_or(ParseError {
        line: lineno,
        message: format!("expected `key = value`, got `{line}`"),
    })?;
    let key = key.trim();
    let raw = raw.trim();
    let value = if let Some(body) = raw.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level_commas(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_string(part, lineno)?);
        }
        Value::Strings(items)
    } else if raw.starts_with('"') {
        Value::Str(parse_string(raw, lineno)?)
    } else {
        Value::Int(raw.parse::<i64>().map_err(|_| ParseError {
            line: lineno,
            message: format!("unsupported value `{raw}`"),
        })?)
    };
    Ok((key, value))
}

fn parse_string(raw: &str, lineno: usize) -> Result<String, ParseError> {
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(|s| s.to_string())
        .ok_or(ParseError {
            line: lineno,
            message: format!("expected a quoted string, got `{raw}`"),
        })
}

fn split_top_level_commas(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_str = false;
    let mut start = 0;
    for (i, b) in body.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let src = r#"
# comment
[scan]
roots = ["crates", "src"]
exclude_dirs = ["tests"]

[[lock]]
name = "a.b"          # trailing comment
rank = 100
kind = "rwlock"
fields = ["b", "b_of"]
files = ["crates/a/src"]

[[lock]]
name = "a.c"
rank = 200
kind = "mutex"
fields = ["c"]

[[blocking]]
name = "fetch"
call = "fetcher.fetch"
allow = ["a.c"]

[[allow]]
from = "a.c"
to = "a.b"
reason = "intentional"
"#;
        let m = parse(src).expect("parse");
        assert_eq!(m.scan.roots, vec!["crates", "src"]);
        assert_eq!(m.locks.len(), 2);
        assert_eq!(m.locks[0].rank, 100);
        assert_eq!(m.locks[0].kind, LockKind::RwLock);
        assert_eq!(m.blocking[0].receiver, "fetcher");
        assert_eq!(m.blocking[0].method, "fetch");
        assert!(m.edge_allowed("a.c", "a.b"));
        assert!(!m.edge_allowed("a.b", "a.c"));
        assert_eq!(m.resolve_field("b", "crates/a/src/lib.rs"), Some(0));
        assert_eq!(m.resolve_field("b", "crates/z/src/lib.rs"), None);
        assert_eq!(m.resolve_field("c", "anywhere.rs"), Some(1));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("rank = 1").is_err());
        assert!(parse("[[lock]]\nname = \"x\"").is_err()); // no fields
        assert!(parse("[[allow]]\nfrom = \"x\"\nto = \"y\"").is_err()); // unknown locks
    }

    #[test]
    fn a_lock_has_exactly_one_rank() {
        let lock = |name: &str, rank: &str| {
            parse(&format!(
                "[[lock]]\nname = \"{name}\"\n{rank}\nfields = [\"f\"]"
            ))
        };
        // A registry lock takes the registry's number...
        let m = lock("crawler.store", "").expect("registry lock needs no rank");
        assert_eq!(m.locks[0].rank, crate::rank::STORE.value);
        // ...and may not carry a second one, even an equal one.
        let e = lock("crawler.store", "rank = 300").unwrap_err();
        assert!(e.message.contains("drop its `rank` key"), "{e}");
        // A lock the registry does not know brings its own, or is refused.
        assert_eq!(lock("fix.low", "rank = 10").unwrap().locks[0].rank, 10);
        let e = lock("fix.low", "").unwrap_err();
        assert!(e.message.contains("declares no `rank`"), "{e}");
    }
}
