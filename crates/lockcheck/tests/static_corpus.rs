//! The static pass against its seeded-violation corpus
//! (`tests/fixtures/`): every planted defect must be flagged on the
//! right line, and the clean control must not be.

use lockcheck::analyze::{analyze_sources, Analysis, FindingKind};
use lockcheck::manifest;

/// Two-rank lattice plus two blocking calls — the smallest manifest that
/// exercises every finding kind.
const MANIFEST: &str = r#"
[scan]
roots = ["fixtures"]

[[lock]]
name = "fix.low"
rank = 10
kind = "mutex"
fields = ["low"]
files = ["fixtures/"]

[[lock]]
name = "fix.high"
rank = 20
kind = "mutex"
fields = ["high"]
files = ["fixtures/"]

[[blocking]]
name = "fetch"
call = "fetcher.fetch"
allow = []

[[blocking]]
name = "distill-pass"
call = "snapshot.distill"
allow = []
"#;

fn check(path: &str, src: &str) -> Analysis {
    let manifest = manifest::parse(MANIFEST).expect("fixture manifest parses");
    analyze_sources(&[(path.to_string(), src.to_string())], &manifest)
}

#[test]
fn seeded_inversion_is_flagged() {
    let a = check(
        "fixtures/inversion.rs",
        include_str!("fixtures/inversion.rs"),
    );
    let inv: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::Inversion)
        .collect();
    assert_eq!(inv.len(), 1, "findings: {:?}", a.findings);
    assert!(
        inv[0].message.contains("fix.high") && inv[0].message.contains("fix.low"),
        "inversion names both locks: {}",
        inv[0].message
    );
}

#[test]
fn try_write_inversion_is_flagged_once() {
    let a = check(
        "fixtures/try_write_inversion.rs",
        include_str!("fixtures/try_write_inversion.rs"),
    );
    // Only the `low.lock()` inside the `if let` that holds `high`; the
    // function that tries twice and locks `low` afterwards is clean,
    // which it only is if each `try_write` guard dies with its block.
    assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(a.findings[0].kind, FindingKind::Inversion);
    assert_eq!(a.findings[0].line, 16, "flagged at: {}", a.findings[0]);
    assert!(
        a.findings[0].message.contains("fix.high") && a.findings[0].message.contains("fix.low"),
        "inversion names both locks: {}",
        a.findings[0].message
    );
    assert_eq!(a.acquisitions, 5, "every site resolved: {a:?}");
}

#[test]
fn unwrapped_mutex_is_flagged() {
    let a = check(
        "fixtures/unwrapped.rs",
        include_str!("fixtures/unwrapped.rs"),
    );
    assert!(
        a.findings
            .iter()
            .any(|f| f.kind == FindingKind::UnknownLock),
        "raw Mutex must surface as unknown-lock: {:?}",
        a.findings
    );
    assert!(
        a.findings
            .iter()
            .any(|f| f.kind == FindingKind::UnknownLock && f.message.contains("naked")),
        ".lock() on an undeclared receiver must be flagged: {:?}",
        a.findings
    );
}

#[test]
fn guard_held_across_fetch_is_flagged() {
    let a = check(
        "fixtures/held_across_fetch.rs",
        include_str!("fixtures/held_across_fetch.rs"),
    );
    let held: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::HeldAcrossBlocking)
        .collect();
    assert_eq!(held.len(), 1, "findings: {:?}", a.findings);
    assert!(
        held[0].message.contains("fix.low"),
        "names the held lock: {}",
        held[0].message
    );
}

#[test]
fn guard_held_across_distill_pass_is_flagged() {
    let a = check(
        "fixtures/held_across_distill.rs",
        include_str!("fixtures/held_across_distill.rs"),
    );
    let held: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.kind == FindingKind::HeldAcrossBlocking)
        .collect();
    // Only the function that iterates under its guard; the one that
    // drops the guard first is the shape the crawler uses.
    assert_eq!(held.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(held[0].line, 14, "flagged at the kernel call: {}", held[0]);
    assert!(
        held[0].message.contains("fix.low") && held[0].message.contains("distill-pass"),
        "names the held lock and the rule: {}",
        held[0].message
    );
}

#[test]
fn transitive_inversion_through_call_edge_is_flagged() {
    let a = check(
        "fixtures/transitive.rs",
        include_str!("fixtures/transitive.rs"),
    );
    assert!(
        a.findings.iter().any(|f| f.kind == FindingKind::Inversion),
        "holding high across a call that locks low is an inversion: {:?}",
        a.findings
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let a = check("fixtures/clean.rs", include_str!("fixtures/clean.rs"));
    assert!(a.findings.is_empty(), "false positives: {:?}", a.findings);
    assert!(a.acquisitions >= 3, "all sites resolved: {a:?}");
}
