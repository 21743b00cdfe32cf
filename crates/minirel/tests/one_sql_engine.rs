//! Guardrail: minirel ships one SQL engine, and it stays that way.
//!
//! The crate once carried two — the staged planner for SELECT and a
//! bind-and-evaluate interpreter (`sql/reference.rs`) for INSERT/UPDATE/
//! DELETE, each with its own AST → `Expr` binder and aggregate rewrite.
//! DML now runs plan → lower → execute like everything else and the
//! interpreter lives on only as the test-side oracle under
//! `tests/support/`. This test reads the workspace's sources and fails
//! if the second engine, an importer of it, a second binder, or a
//! statement-kind fallback in `Database::run` reappears.
//!
//! The last two tests guard the other things there is one of. The log
//! reader: recovery, checkpoint counting and both replica kinds once
//! each materialised the log as owned records their own way; now they
//! all read `wal::records` and apply through one follower. And the log
//! writer: the pool once logged pages from three hand-copied blocks,
//! one of them uncounted, each record through its own `Vec`s and its
//! own `write`; now a page leaves through one `write_back` and a record
//! is encoded in place in the staging buffer.

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

/// Non-blank, non-comment lines (test modules included: an importer of
/// the old engine is as unwelcome in a unit test as in the code).
fn code_lines(text: &str) -> Vec<&str> {
    text.lines()
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect()
}

/// `crates/*/src/**/*.rs` plus everything under `crates/bench`.
fn production_sources() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("minirel lives under crates/")
        .to_owned();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("readable crates dir") {
        let krate = entry.expect("dir entry").path();
        if krate.join("src").is_dir() {
            sources(&krate.join("src"), &mut files);
        }
    }
    assert!(files.len() >= 60, "source walk found only {}", files.len());
    files
}

#[test]
fn the_interpreter_is_gone_from_production_code() {
    for path in production_sources() {
        assert!(
            !path.ends_with("sql/reference.rs"),
            "{} is back: the reference interpreter is a test-side oracle \
             (crates/minirel/tests/support/reference.rs), not an engine",
            path.display()
        );
        let text = std::fs::read_to_string(&path).expect("readable source");
        for line in code_lines(&text) {
            for gone in ["run_statement", "run_select", "SqlCtx", "sql::reference"] {
                assert!(
                    !line.contains(gone),
                    "`{gone}` appears in {}: statements run through \
                     Database::{{execute, query}} — plan → lower → execute — only",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn there_is_one_ast_to_expr_binder() {
    // A binder is a function with a match arm that turns
    // `AstExpr::Column { .. }` into `Expr::Col(..)`.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    let mut binders = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable source");
        let code = code_lines(&text);
        let mut current_fn = "";
        for (i, line) in code.iter().enumerate() {
            match line.split_once("fn ") {
                Some((head, rest)) if head.is_empty() || head.starts_with("pub") => {
                    current_fn = rest.split(['(', '<']).next().unwrap_or(rest);
                }
                _ => {}
            }
            let window = &code[i..code.len().min(i + 4)];
            if line.contains("AstExpr::Column {") && window.iter().any(|l| l.contains("Expr::Col("))
            {
                binders.push(format!("{}::{current_fn}", path.display()));
            }
        }
    }
    assert_eq!(
        binders.len(),
        1,
        "exactly one function may bind AST columns to `Expr::Col` \
         (`Planner::bind_expr`): {binders:?}"
    );
    assert!(binders[0].ends_with("plan.rs::bind_expr"), "{binders:?}");
}

#[test]
fn database_run_plans_everything_but_ddl() {
    let db = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/db.rs");
    let text = std::fs::read_to_string(db).expect("readable db.rs");
    let body: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("    fn run("))
        .take_while(|l| *l != "    }")
        .collect();
    assert!(body.len() > 5, "Database::run not found in db.rs");
    let mut kinds: Vec<&str> = body
        .iter()
        .flat_map(|l| l.split("Statement::").skip(1))
        .map(|rest| {
            rest.split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or("")
        })
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(
        kinds,
        ["CreateIndex", "CreateTable", "DropTable"],
        "Database::run may name the three DDL statements and nothing else: \
         every other kind goes through prepare_plan in the catch-all arm"
    );
    assert!(
        body.iter().any(|l| l.contains("prepare_plan(")),
        "Database::run must plan what it does not hand to the catalog"
    );
}

/// Production code only: up to a file's first `#[cfg(test)]`.
fn production(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("readable source");
    let end = text.find("#[cfg(test)]").unwrap_or(text.len());
    text[..end].to_owned()
}

#[test]
fn one_borrowing_reader_feeds_recovery_and_both_followers() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    for path in files.iter().filter(|p| !p.ends_with("wal.rs")) {
        for line in code_lines(&production(path)) {
            assert!(
                !line.contains("scan_records("),
                "`scan_records(` is called in {}: the owned scan is a convenience for \
                 the format tests; consumers iterate `wal::records`",
                path.display()
            );
        }
    }
    let recovery = production(&src.join("recovery.rs"));
    for line in code_lines(&recovery) {
        assert!(
            !line.contains(".to_vec()") || line.contains("from_utf8"),
            "recovery.rs copies log bytes (`{line}`): page images are applied \
             borrowed from the bytes the reader was given"
        );
    }
    // No function both re-reads a whole file and sleeps: the tailer's
    // poll seeks to its offset and reads the suffix.
    let mut fns: Vec<Vec<&str>> = Vec::new();
    for line in code_lines(&recovery) {
        if line.starts_with("fn ") || line.starts_with("pub fn ") || fns.is_empty() {
            fns.push(Vec::new());
        }
        fns.last_mut().expect("pushed above").push(line);
    }
    assert!(
        fns.len() > 10,
        "function split of recovery.rs found {}",
        fns.len()
    );
    for body in fns {
        let has = |needle: &str| body.iter().any(|l| l.contains(needle));
        assert!(
            !(has("fs::read(") && has("sleep(")),
            "`{}` reads a whole file in a function that sleeps: a poll loop must \
             not re-read the log",
            body[0]
        );
    }
}

#[test]
fn one_write_back_logs_pages_and_records_are_encoded_in_place() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let buffer = production(&src.join("buffer.rs"));
    let calls: Vec<&str> = code_lines(&buffer)
        .into_iter()
        .filter(|l| l.contains(".log_page("))
        .collect();
    assert_eq!(
        calls.len(),
        1,
        "buffer.rs logs pages from one place (`write_back`, which also counts \
         `physical_writes` and clears `dirty`), not {calls:?}"
    );
    let wal = production(&src.join("wal.rs"));
    for line in code_lines(&wal) {
        assert!(
            !line.contains("encode_record(") || line.starts_with("pub fn encode_record("),
            "wal.rs calls `encode_record(` (`{line}`): the owned encoder is a convenience \
             for the format tests; the log stages records in place through `put_record`"
        );
    }
}
