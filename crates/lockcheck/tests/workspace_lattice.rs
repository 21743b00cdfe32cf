//! The real workspace against the real `LOCK_ORDER.toml`: the manifest
//! must name exactly the locks of the compiled-in rank registry (which
//! is where their ranks come from), and the migration must stay
//! finding-free. This is the regression net for every violation
//! the initial static sweep surfaced — a reintroduced raw lock or a
//! descending edge fails here, not just in the CI lockcheck step.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn load_manifest() -> lockcheck::manifest::Manifest {
    let path = workspace_root().join("LOCK_ORDER.toml");
    let src = std::fs::read_to_string(&path).expect("read LOCK_ORDER.toml");
    lockcheck::manifest::parse(&src).expect("LOCK_ORDER.toml parses")
}

#[test]
fn lock_order_toml_matches_rank_registry() {
    // The manifest carries no numbers of its own (a registry lock that
    // declared a `rank` would not have parsed): the registry is the one
    // place ranks live, and the two must name the same set of locks.
    let manifest = load_manifest();
    let mut declared: Vec<&str> = manifest.locks.iter().map(|l| l.name.as_str()).collect();
    let mut registry: Vec<&str> = lockcheck::rank::ALL.iter().map(|r| r.name).collect();
    declared.sort_unstable();
    registry.sort_unstable();
    assert_eq!(
        declared, registry,
        "every rank constant needs a LOCK_ORDER.toml entry and vice versa"
    );
}

#[test]
fn workspace_scan_is_finding_free() {
    let manifest = load_manifest();
    let analysis =
        lockcheck::analyze::analyze_workspace(workspace_root(), &manifest).expect("workspace scan");
    assert!(
        analysis.findings.is_empty(),
        "workspace must stay clean under lockcheck:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity that the scan actually saw the tree: the migrated lock
    // sites across minirel/crawler/webgraph, not an empty walk.
    assert!(analysis.files_scanned > 50, "{analysis:?}");
    assert!(analysis.acquisitions > 80, "{analysis:?}");
    assert!(analysis.edges > 20, "{analysis:?}");
}
