//! Guardrail: `CRAWL` rows addressed by oid are written through one
//! keyed batch rewrite, and it stays that way.
//!
//! `frontier.rs` once spelled "find the row by oid → check its state →
//! rewrite it" eight times across two forks: a per-link fork
//! (`oid_lookup`, then `Catalog::update_row`, which re-read from the
//! heap the row its caller had just decoded) and a batch fork
//! (`lookup_many`, `get_row`, `update_many`, pasted into every batch
//! mutator). The per-link fork's last caller outside tests was one of
//! four benchmark mains older than `focus-bench/`, three of which
//! appended to root `BENCH_*.json` files nothing read. Every mutator is
//! now a closure over the one `rewrite` primitive; this test reads the
//! sources and fails if the per-link fork, a second keyed lookup, or
//! the bench estate that kept the fork alive comes back — the bench
//! mains, and since then everything else in the workspace that nothing
//! ran: the compile-only figure benches, the per-figure bins, and the
//! `vendor/` stand-ins (`criterion`, `serde*`) that existed for them.

use std::path::{Path, PathBuf};

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The non-test code lines of one file: everything before the first
/// `#[cfg(test)]` at column 0, minus blank lines and `//` comments.
fn code_lines(text: &str) -> Vec<&str> {
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect()
}

#[test]
fn crawl_rows_are_rewritten_through_one_keyed_path() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    assert!(files.len() >= 10, "source walk found only {files:?}");
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        for line in code_lines(&text) {
            for gone in ["fn upsert_frontier", "fn oid_lookup", "update_row("] {
                assert!(
                    !line.contains(gone),
                    "`{gone}` is back in {}: rows addressed by oid go through \
                     `frontier::rewrite`, which hands `update_many` the rows it read",
                    path.display()
                );
            }
        }
    }

    let frontier = std::fs::read_to_string(src.join("frontier.rs")).expect("frontier.rs");
    let calls = |what: &str| {
        code_lines(&frontier)
            .iter()
            .filter(|l| l.contains(what))
            .count()
    };
    assert_eq!(
        calls(".lookup_many("),
        1,
        "`frontier.rs` probes `crawl_oid` in one place: the keyed rewrite"
    );
    assert_eq!(
        calls(".insert_many("),
        1,
        "`frontier.rs` inserts rows in one place: the keyed rewrite's creates"
    );
    assert!(
        calls(".update_many(") <= 2,
        "`frontier.rs` updates rows in two places: the keyed rewrite and the range-pop claim"
    );
}

#[test]
fn the_pre_focus_bench_estate_stays_retired() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let names = |dir: PathBuf| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    for name in names(root.clone()) {
        assert!(
            !(name.starts_with("BENCH_") && name.ends_with(".json")),
            "{name} at the repo root: the recorded trajectories are frozen under \
             docs/history/, and nothing appends to them any more"
        );
    }

    // Nothing is left that nothing runs: the compile-only figure benches
    // and the per-figure bins are gone, and `vendor/` holds the two
    // stand-ins whose callers need them.
    for gone in ["crates/bench", "crates/eval/src/bin"] {
        assert!(
            !root.join(gone).exists(),
            "{gone} is back: the figures run through `cargo run -p focus-eval -- \
             <experiment|all> [scale]` (crates/eval/src/main.rs) and performance is \
             measured by `focus-bench/` (see BENCHMARK.json)"
        );
    }
    assert_eq!(
        names(root.join("vendor")),
        ["README.md", "proptest", "rand"],
        "vendor/ holds a stand-in only while a caller that runs needs it"
    );

    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let members: Vec<&str> = manifest
        .lines()
        .skip_while(|l| !l.starts_with("members = ["))
        .skip(1)
        .take_while(|l| !l.starts_with(']'))
        .map(|l| l.trim().trim_end_matches(',').trim_matches('"'))
        .collect();
    assert!(members.len() >= 10, "member walk found only {members:?}");
    for member in members {
        assert!(
            root.join(member).join("Cargo.toml").is_file(),
            "workspace member {member} does not exist"
        );
    }

    let mut manifests = vec![root.join("Cargo.toml")];
    let mut rust = Vec::new();
    for krate in names(root.join("crates")) {
        manifests.push(root.join("crates").join(&krate).join("Cargo.toml"));
    }
    for dir in ["crates", "src", "tests", "examples"] {
        sources(&root.join(dir), &mut rust);
    }
    assert!(rust.len() >= 100, "source walk found only {}", rust.len());
    for path in &manifests {
        let text = std::fs::read_to_string(path).expect("readable manifest");
        for line in text.lines() {
            assert!(
                !line.contains("serde") && !line.contains("criterion"),
                "{}: `{line}` — nothing reads serialized results and nothing runs \
                 criterion benches; the figures print their tables",
                path.display()
            );
        }
    }
    for path in rust
        .iter()
        .filter(|p| !p.ends_with("tests/one_frontier_write_path.rs"))
    {
        let text = std::fs::read_to_string(path).expect("readable source");
        for gone in ["serde::", "criterion::"] {
            assert!(
                !text.contains(gone),
                "`{gone}` is back in {}: its stand-in under vendor/ was deleted \
                 because nothing that runs needed it",
                path.display()
            );
        }
    }

    let buffer =
        std::fs::read_to_string(root.join("crates/minirel/src/buffer.rs")).expect("buffer.rs");
    for gone in ["Clock", "ref_bit"] {
        assert!(
            !buffer.contains(gone),
            "`{gone}` is back in buffer.rs: LRU is the one eviction policy; the \
             second-chance sweep's only caller was a bench nothing ran"
        );
    }
}
