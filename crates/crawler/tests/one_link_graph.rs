//! Guardrail: a session has exactly one in-memory picture of the link
//! graph, and distills it outside the store lock.
//!
//! `StoreState` once mirrored `LINK` as a `links: Vec<(Oid, u32, Oid,
//! u32)>` and `CRAWL.relevance` as a `relevance: FxHashMap<Oid, f64>`,
//! and `distill_locked` re-materialised an edge list from them and ran
//! the hash-map HITS walk (`memory::WeightedHits`) under the store
//! write lock. Both mirrors became `focus_distiller::graph::LinkGraph`
//! and the pass runs on a snapshot of it; this test reads the crate's
//! sources and fails if a mirror, the locked pass, or a crawl-path call
//! of the reference walk comes back — or if a second place starts a
//! pass.
//!
//! The same goes for the way *back* into that picture. `new`, `restore`
//! and `recover` once each rebuilt the graph, the server tallies and the
//! health map in their own loops (and `CrawlCluster` mirrored the
//! constructors once more); now `StoreState::load` is the one place
//! in-memory state is derived from tables and `CrawlSession::build` the
//! one opener. The second test fails if a private rebuild reappears.
//!
//! What memory must agree with is checked in one place as well:
//! `CrawlSession::check_invariants` holds live memory to the loader's
//! derivation, beside the crawl's other invariants, over
//! `Database::check_integrity` and under `CrawlCluster::check_invariants`.
//! The suites once carried their own copies of those checks, which had
//! drifted apart; the third test fails if one comes back.

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

#[test]
fn one_link_graph_and_one_place_starts_a_pass() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    assert!(files.len() >= 10, "source walk found only {files:?}");

    let mut snapshots_cut = Vec::new();
    let mut kernel_calls = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        // Whole files, tests and comments included: the crate's own
        // unit tests have no business with the old names either.
        for (n, line) in text.lines().enumerate() {
            for gone in [
                "WeightedHits",
                "edges_from_links",
                "distill_locked",
                // The mirror's 4-tuple; `CrawlCheckpoint::links` carries
                // `LINK`'s `discovered` column too and keeps its shape.
                "links: Vec<(Oid, u32, Oid, u32)>",
                "relevance: FxHashMap<Oid",
            ] {
                assert!(
                    !line.contains(gone),
                    "`{gone}` is back at {}:{}: the session's link and relevance \
                     state is one `LinkGraph`, distilled on a snapshot",
                    path.display(),
                    n + 1
                );
            }
            if line.contains(".snapshot()") {
                snapshots_cut.push(format!("{}:{}", path.display(), n + 1));
            }
            if line.contains("snapshot.distill(") {
                kernel_calls.push(format!("{}:{}", path.display(), n + 1));
            }
        }
    }
    assert_eq!(
        (snapshots_cut.len(), kernel_calls.len()),
        (1, 1),
        "exactly one function (`CrawlSession::distill_pass`) cuts a snapshot and runs \
         the kernel on it: snapshots at {snapshots_cut:?}, kernel calls at {kernel_calls:?}"
    );
}

#[test]
fn one_loader_derives_memory_from_tables() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    // `file:line` of every production line (before the file's first
    // `#[cfg(test)]`, comments aside) that contains `needle`.
    let sites = |needle: &str| -> Vec<String> {
        let mut hits = Vec::new();
        for path in &files {
            let text = std::fs::read_to_string(path).expect("readable source");
            let production = text
                .lines()
                .enumerate()
                .take_while(|(_, l)| !l.trim_start().starts_with("#[cfg(test)]"))
                .filter(|(_, l)| !l.trim_start().starts_with("//"));
            for (n, line) in production {
                if line.contains(needle) {
                    hits.push(format!("{}:{}", path.display(), n + 1));
                }
            }
        }
        hits
    };
    let in_store = |hits: &[String]| hits.iter().filter(|h| h.contains("store.rs:")).count();

    let maps = sites("HealthMap::new(");
    assert_eq!(
        maps.len(),
        1,
        "one place creates a `HealthMap` over a store — `store::fresh_health`, which \
         also empties `server_health`: {maps:?}"
    );
    let links = sites(".add_link(");
    assert!(
        links.len() == 2 && in_store(&links) == 1,
        "links enter the graph when a page lands (a first visit or a hub revisit, one \
         function) and in `StoreState::load` — nowhere else: {links:?}"
    );
    let relevance = sites(".set_relevance(");
    assert!(
        in_store(&relevance) <= 2,
        "store.rs sets relevance in the loader and in the checkpoint's exact-R \
         overlay: {relevance:?}"
    );
    for gone in [
        "fn new_inner",
        "fn restore_inner",
        "fn new_sharded",
        "fn restore_sharded",
    ] {
        let back = sites(gone);
        assert!(
            back.is_empty(),
            "`{gone}` is back at {back:?}: every way into a session is \
             `CrawlSession::build(.., origin, shard)`"
        );
    }
    let rows = sites("Value::Int(sid_dst");
    assert!(
        !rows.is_empty() && rows.iter().all(|h| h.contains("tables.rs:")),
        "a `LINK` row is spelled out once, in `tables::link_row`: {rows:?}"
    );
}

#[test]
fn the_suites_check_invariants_through_the_checkers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    sources(&root.join("crates/crawler/tests"), &mut files);
    sources(&root.join("tests"), &mut files);
    for suite in ["wal_recovery.rs", "crash_matrix.rs"] {
        files.push(root.join("crates/minirel/tests").join(suite));
    }
    assert!(files.len() >= 20, "source walk found only {files:?}");
    let mut models = Vec::new();
    for path in files.iter().filter(|p| !p.ends_with("one_link_graph.rs")) {
        let text = std::fs::read_to_string(path).expect("readable source");
        for gone in [
            "fn validate_indexes",
            "fn assert_session_invariants",
            "fn claimed_rows",
            ".btree.validate(",
        ] {
            assert!(
                !text.contains(gone),
                "`{gone}` is back in {}: heap/index agreement and the crawl's \
                 invariants are checked by `Database::check_integrity` and \
                 `CrawlSession::check_invariants` — call those",
                path.display()
            );
        }
        if text.contains("fn trained_model") {
            models.push(path.display().to_string());
        }
    }
    assert_eq!(
        models.len(),
        1,
        "the suites share one `trained_model`, in tests/support/mod.rs: {models:?}"
    );
}
