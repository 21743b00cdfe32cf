//! Guardrail: the crawler has exactly one worker loop, and it stays
//! that way.
//!
//! `session.rs` once carried the crawl twice — an inline loop
//! (`worker_inline` / `process_batch`) beside a pooled one — chosen by
//! whether `fetch_pool` was zero. They were unified around the fetch
//! executor ([`focus_crawler::fetch_pool`]); this test reads the
//! crate's sources and fails if the second loop (or a second claim
//! path, or a file growing back into a 1,900-line monolith) reappears.
//!
//! Crawl maintenance was the last fork: `maintenance_pass_with` fetched
//! hubs on the caller's thread through its own copy of admit → fetch →
//! charge → land. A revisit is now a requeued `CRAWL` row the one loop
//! fetches; the second test fails if a second fetch site, a second
//! admission site, or the fork's vocabulary comes back.

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
fn there_is_one_crawl_loop_and_no_file_is_a_monolith() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    assert!(files.len() >= 10, "source walk found only {files:?}");

    let mut next_tick_calls = Vec::new();
    let mut claim_admitted_calls = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let code = code_lines(&text);
        assert!(
            code.len() <= 800,
            "{} has {} non-test code lines (limit 800): split it by role",
            path.display(),
            code.len()
        );
        for line in &code {
            for gone in ["fn worker_inline", "fn process_batch"] {
                assert!(
                    !line.contains(gone),
                    "`{gone}` is back in {}: the fetch executor is the only \
                     variation point of the worker loop",
                    path.display()
                );
            }
            if line.contains(".next_tick(") {
                next_tick_calls.push(path.display().to_string());
            }
            if line.contains(".claim_admitted(") {
                claim_admitted_calls.push(path.display().to_string());
            }
        }
    }
    assert_eq!(
        next_tick_calls.len(),
        1,
        "`next_tick` must have exactly one call site (the worker loop): {next_tick_calls:?}"
    );
    assert_eq!(
        claim_admitted_calls.len(),
        1,
        "`claim_admitted` must have exactly one call site (`next_tick`): {claim_admitted_calls:?}"
    );
}

#[test]
fn there_is_one_fetch_site_and_one_admission_site() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);

    let mut admissions = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        for gone in ["HubRevisit", "maintenance_pass_with", "Unclassifiable"] {
            assert!(
                !text.contains(gone),
                "`{gone}` is back in {}: a hub revisit is a requeued frontier row, \
                 fetched, failed and landed by the one worker loop",
                path.display()
            );
        }
        for line in code_lines(&text) {
            let fetches = line.contains(".fetch(") || line.contains(".fetch_with_ordinal(");
            assert!(
                !fetches || path.ends_with("fetch_pool.rs"),
                "{} fetches outside the fetch executor: `{line}`",
                path.display()
            );
            if line.contains("health.admit(") {
                admissions.push(path.display().to_string());
            }
        }
    }
    assert_eq!(
        admissions.len(),
        1,
        "`HealthMap::admit` must have exactly one call site (`claim_admitted`): {admissions:?}"
    );
}
