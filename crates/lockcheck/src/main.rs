//! `cargo run -p lockcheck` — static lock-order checker CLI.
//!
//! Loads `LOCK_ORDER.toml` from the workspace root (or `--manifest`),
//! scans the sources named by its `[scan]` table (or `--root`), and
//! exits non-zero if any finding survives. CI runs this on every push.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--manifest" => manifest_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: lockcheck [--root DIR] [--manifest LOCK_ORDER.toml]\n\
                     Checks the workspace acquisition graph against the declared lattice."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lockcheck: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    // Default root: the workspace root, two levels above this crate.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });
    let manifest_path = manifest_path.unwrap_or_else(|| root.join("LOCK_ORDER.toml"));

    let src = match std::fs::read_to_string(&manifest_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lockcheck: cannot read {}: {e}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    };
    let manifest = match lockcheck::manifest::parse(&src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("lockcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    let analysis = match lockcheck::analyze::analyze_workspace(&root, &manifest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lockcheck: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &analysis.findings {
        println!("{f}");
    }
    println!(
        "lockcheck: {} files, {} declared locks, {} acquisition sites, {} edges, {} finding(s)",
        analysis.files_scanned,
        manifest.locks.len(),
        analysis.acquisitions,
        analysis.edges,
        analysis.findings.len()
    );
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
