//! Guardrails for the one lock checker, after lix's `sql_guardrails.rs`:
//! lockcheck's static half stays deleted, and no production source
//! builds a lock the runtime checker cannot see.

use std::path::{Path, PathBuf};

mod scan;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// What the static half was: its lexer, TOML parser, guard walker, CLI
/// and manifest. The registry in `rank.rs` and the checker in
/// `ordered.rs` replace all of them.
const DELETED: [&str; 5] = [
    "crates/lockcheck/src/analyze.rs",
    "crates/lockcheck/src/lexer.rs",
    "crates/lockcheck/src/manifest.rs",
    "crates/lockcheck/src/main.rs",
    "LOCK_ORDER.toml",
];

#[test]
fn workspace_scan_is_finding_free() {
    let root = workspace_root();
    let mut findings: Vec<String> = DELETED
        .iter()
        .filter(|path| root.join(path).exists())
        .map(|path| format!("{path}: the static lock checker is deleted; declare ranks and blocking points in crates/lockcheck/src/rank.rs"))
        .collect();
    let cargo = std::fs::read_to_string(root.join("crates/lockcheck/Cargo.toml"))
        .expect("read lockcheck's Cargo.toml");
    if cargo.lines().any(|line| line.trim() == "[[bin]]") {
        findings.push("crates/lockcheck/Cargo.toml: lockcheck has no binary".to_owned());
    }
    let files = production_sources(root);
    // Sanity that the walk saw the tree, not an empty directory.
    assert!(files.len() > 50, "only {} sources found", files.len());
    for file in &files {
        let src = std::fs::read_to_string(file).expect("read source");
        let rel = file.strip_prefix(root).unwrap_or(file);
        findings.extend(scan::raw_locks(&rel.display().to_string(), &src));
    }
    assert!(
        findings.is_empty(),
        "workspace must stay clean under the lock guardrails (a line naming a raw lock \
         needs a lockcheck::Ordered* wrapper and a rank from rank.rs):\n{}",
        findings.join("\n")
    );
}

/// Every production source under `root`: `crates/*/src` except
/// lockcheck's own (it wraps the raw primitives), `src/` and
/// `examples/`. Sorted, so findings read in a stable order.
fn production_sources(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src"), root.join("examples")];
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let krate = krate.expect("crates/ entry").path();
        if !krate.ends_with("lockcheck") {
            dirs.push(krate.join("src"));
        }
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}
