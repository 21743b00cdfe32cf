//! Guardrails: what the workspace deleted stays deleted, and what it has
//! one of stays one. After lix's `sql_guardrails.rs`, every such check
//! lives here, over one walker ([`Tree::disk`]) and one counting rule
//! ([`lines`], the rule of `scripts/code_lines.sh`):
//!
//! * [`FORBIDDEN`]: code that must not come back — patterns, where, and
//!   whether comments and test modules count;
//! * [`COUNTED`]: call sites that keep their count;
//! * named checks for what is not a pattern: the AST binder window,
//!   `Database::run`'s statement kinds, the manifest/vendor/`BENCH_*`
//!   estate, the raw-lock scan and the crawler's file-size cap.
//!
//! Each table row names its check, a `#[test]` that reads its rows and
//! runs its named checks (see [`checks!`]).
//!
//! `every_rule_fires_on_its_paste_back` feeds each row and each named
//! check a snippet of what it forbids, in memory, and asserts that its
//! message comes out.

use std::path::Path;

/// This file: it names every pattern it forbids.
const SELF: &str = "tests/guardrails.rs";

/// Whether a rule reads every line of a file or only its code lines.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Every line: comments and test modules count.
    Whole,
    /// Code lines only (see [`lines`]).
    Code,
}

/// Where a rule looks: `Scope(roots, skip, min_files)` is the files under
/// any of `roots` (space-separated; `*` matches one path segment; a root
/// naming a file is that file, a directory means its `.rs` files), except
/// paths that start or end with an entry of `skip`. The real tree must
/// hold at least `min_files` of them: a rule over nothing would pass.
#[derive(Clone, Copy, Debug)]
struct Scope(&'static str, &'static str, usize);

const CRAWLER: Scope = Scope("crates/crawler/src", "", 10);
const MINIREL: Scope = Scope("crates/minirel/src", "", 20);
/// Production code outside lockcheck, which wraps the raw primitives.
const PRODUCTION: Scope = Scope("crates/*/src src examples", "crates/lockcheck/", 50);
const SUITES: Scope = Scope("crates/*/tests tests", "", 20);
const WORKSPACE: Scope = Scope(
    "crates src tests examples .github/workflows/ci.yml",
    "",
    100,
);
const FRONTIER: Scope = Scope("crates/crawler/src/frontier.rs", "", 1);
const STORE: Scope = Scope("crates/crawler/src/session/store.rs", "", 1);
const BUFFER: Scope = Scope("crates/minirel/src/buffer.rs", "", 1);
const DB: Scope = Scope("crates/minirel/src/db.rs", "", 1);
const PLAN: Scope = Scope("crates/minirel/src/sql/plan.rs", "", 1);

const POLICY: Scope = Scope("crates/crawler/src/policy.rs", "", 1);
const CATALOG: Scope = Scope("crates/minirel/src/catalog.rs", "", 1);
const BTREE: Scope = Scope("crates/minirel/src/btree.rs", "", 1);

const ONE_PROTOCOL: &str = "every session is a shard of an exchange, and the exchange keeps \
     every entry it is handed";

const ONE_RUN_HANDLE: &str = "a crawl of one shard and a crawl of n return the same `CrawlRun`, \
     built in one place (`cluster::launch`); its shards share one event channel";

const CHECKPOINT_IS_A_COPY: &str = "a checkpoint is a copy of the store's pages; restore \
     loads it the way recover loads a file — no per-column capture or re-insert";

const ONE_STORAGE: &str = "the page file, the log and recovery are written once over \
     `storage::Storage`; memory and disk differ only in the `Fs` a database is opened over, and \
     crashes are injected by a test-side `Fs`";

const ONE_ADMISSION: &str = "a scan's access path is chosen at execution, by one admission \
     function (`lower::admit`) over the shape-only candidates the planner lists as one `Probe` \
     type; the planner reads no row counts to choose it";

const ONE_MERGE: &str = "a sort-merge is one kernel (`exec::join::merge_join`) that hands each \
     left row its run, and the bulk probe folds PARTIAL and DOCLEN into its one pass; a table has \
     one materializing scan (`Catalog::scan_rows`); row collectors live beside their test callers";

const PUSHED_ROWS: &str = "a SELECT pushes each row from its access path to its consumer \
     through one reused row; only a join's inputs, an aggregate's groups, a sort, a CTE slot and \
     DISTINCT's seen-set hold rows, and row collectors live beside their test callers";

const KEPT_ONLY: &str = "a claim and a landing allocate only what their callers keep: a batch is \
     read in place, keyed and encoded into buffers the catalog keeps, and a stored row is edited \
     in place";

const ONE_WRITE_PATH: &str = "every row change is staged in a `RowBatch` (`Catalog::batch`), \
     which checks every row before the first write and passes over each index once: SQL \
     `DELETE`, Fig 8d's naive pass and index backfill write through it, and no per-row path \
     keeps its own key checks and index upkeep";

const STATE_IS_TABLES: &str = "a crawl's state is its tables (`LANDING`, `CRAWL_STATE`, \
     `TAXONOMY.type`); a checkpoint is a copy of the store with no overlay beside it, and \
     recover loads what restore loads";

/// Code that must not come back: (check, patterns, where, how files are
/// read, why). The check is the `#[test]` that reads the row (see
/// [`checks!`]).
type Forbidden = (
    &'static str,
    &'static [&'static str],
    Scope,
    Mode,
    &'static str,
);

#[rustfmt::skip]
const FORBIDDEN: &[Forbidden] = &[
    ("no_file_is_a_monolith",
     &["fn worker_inline", "fn process_batch"], CRAWLER, Mode::Code,
     "the fetch executor is the only variation point of the worker loop"),
    ("there_is_one_fetch_site_and_one_admission_site",
     &["HubRevisit", "maintenance_pass_with", "Unclassifiable"], CRAWLER, Mode::Whole,
     "a hub revisit is a requeued frontier row, fetched, failed and landed by the one worker loop"),
    ("there_is_one_fetch_site_and_one_admission_site",
     &[".fetch(", ".fetch_with_ordinal("], Scope("crates/crawler/src", "fetch_pool.rs", 10),
     Mode::Code, "a fetch outside the fetch executor (`fetch_pool.rs`)"),
    ("crawl_rows_are_rewritten_through_one_keyed_path",
     &["fn upsert_frontier", "fn oid_lookup", "update_row("], CRAWLER, Mode::Code,
     "rows addressed by oid go through `frontier::rewrite`, which edits the rows it read in place \
     and stages them in one `RowBatch`"),
    ("crawl_rows_are_rewritten_through_one_keyed_path",
     &[".insert_many(", ".update_many("], FRONTIER, Mode::Code,
     "`frontier.rs` writes rows through the `RowBatch` of the keyed rewrite and the range-pop \
     claim, never through a hand-rolled catalog mutator"),
    ("one_link_graph_and_one_place_starts_a_pass",
     &["WeightedHits", "edges_from_links", "distill_locked", "links: Vec<(Oid, u32, Oid, u32)>",
       "relevance: FxHashMap<Oid"], CRAWLER, Mode::Whole,
     "the session's link and relevance state is one `LinkGraph`, distilled on a snapshot"),
    ("one_loader_derives_memory_from_tables",
     &["fn new_inner", "fn restore_inner", "fn new_sharded", "fn restore_sharded"], CRAWLER,
     Mode::Code, "every way into a session is `CrawlSession::build(.., origin, shard)`"),
    ("one_loader_derives_memory_from_tables",
     &["Value::Int(sid_dst"], Scope("crates/crawler/src", "tables.rs", 10), Mode::Code,
     "a `LINK` row is spelled out once, in `tables::link_row_into`"),
    ("one_loader_derives_memory_from_tables",
     &["struct CheckpointPage", "CheckpointPage {",
       "\"select oid, url, kcid, numtries, relevance, serverload, lastvisited, "], CRAWLER,
     Mode::Code, CHECKPOINT_IS_A_COPY),
    ("one_loader_derives_memory_from_tables",
     &["fn clone_committed_state"], MINIREL, Mode::Code, CHECKPOINT_IS_A_COPY),
    ("one_loader_derives_memory_from_tables",
     &["fn overlay", "class_probs:", "budget_remaining", "good_topics", "completion_order: Vec",
       "harvest: Vec", "max(not_before)"], CRAWLER, Mode::Code, STATE_IS_TABLES),
    ("the_suites_check_invariants_through_the_checkers",
     &["fn validate_indexes", "fn assert_session_invariants", "fn claimed_rows", ".btree.validate("],
     SUITES, Mode::Whole, "heap/index agreement and the crawl's invariants are checked by \
     `Database::check_integrity` and `CrawlSession::check_invariants` — call those"),
    ("the_interpreter_is_gone_from_production_code",
     &["run_statement", "run_select", "SqlCtx", "sql::reference"], Scope("crates/*/src", "", 60),
     Mode::Whole, "statements run through Database::{execute, query} — parse → bind → plan → \
     execute — only; the interpreter is the test-side oracle in crates/minirel/tests/support/"),
    ("a_statement_has_one_plan_tree",
     &["fn lower_node", "fn lower_select", "enum Phys {", "PhysSelect", "fn render_logical",
       "fn render_sel_logical", "\"== logical ==\""], MINIREL, Mode::Code,
     "the planner's tree is the tree that runs and the tree EXPLAIN prints; there is no \
     lowering copy"),
    ("no_function_reads_a_whole_file_and_sleeps",
     &["fs::read("], MINIREL, Mode::Code,
     "recovery reads the log in chunks; minirel never holds a whole file"),
    ("no_function_reads_a_whole_file_and_sleeps",
     &[".to_vec()"], Scope("crates/minirel/src/recovery.rs", "", 1), Mode::Code,
     "recovery.rs copies log bytes: an image is read back by offset, and only delta payloads \
     are copied, into the commit group and the page index"),
    ("no_function_reads_a_whole_file_and_sleeps",
     &["fn scan_records", "fn decode_record", "fn to_record", "struct Record {"], MINIREL,
     Mode::Code, "the log has one reader, `wal::records`, whose records are borrowed; the owned \
     copies had no caller outside minirel's tests"),
    ("the_pre_focus_bench_estate_stays_retired",
     &["Clock", "ref_bit"], BUFFER, Mode::Whole,
     "LRU is the one eviction policy; the second-chance sweep's only caller was a bench nothing ran"),
    ("the_pre_focus_bench_estate_stays_retired",
     &["serde::", "criterion::"], WORKSPACE, Mode::Whole,
     "its stand-in under vendor/ was deleted because nothing that runs needed it"),
    ("the_pre_focus_bench_estate_stays_retired",
     &["serde", "criterion"], Scope("Cargo.toml crates/*/Cargo.toml", "", 10), Mode::Whole,
     "nothing reads serialized results and nothing runs criterion benches; the figures print tables"),
    ("workspace_scan_is_finding_free",
     &["[[bin]]"], Scope("crates/lockcheck/Cargo.toml", "", 1), Mode::Whole,
     "lockcheck has no binary: the static lock checker is deleted"),
    ("minirel_keeps_what_callers_outside_it_reach",
     &["fn tail_file", "fn copy_files", "fn count_checkpoints", "fn from_recovered_parts"],
     MINIREL, Mode::Code, "the file-tailing replica had no caller outside minirel's tests; a \
     cross-process console waits for a file-backed cluster"),
    ("minirel_keeps_what_callers_outside_it_reach",
     &["fn first_at_or_after", "fn set_capacity", "fn copy_page", "fn table_names",
       "fn create_at_path", "fn remap", "fn durable_commit_lsn", "fn parse_script",
       "fn current_timestamp", "fn first_n_at_or_after"], MINIREL, Mode::Code,
     "nothing outside minirel's own tests called it, so it was deleted"),
    ("minirel_keeps_what_callers_outside_it_reach",
     &["fn merge_join_inner", "fn merge_join_left_outer", "fn scan_table", "fn scan_rows_pruned"],
     MINIREL, Mode::Code, ONE_MERGE),
    ("the_bulk_probe_is_one_merge_pass",
     &["feature_tids", "merge_join_inner("], Scope("crates/eval/src", "", 15), Mode::Code,
     ONE_MERGE),
    ("every_session_is_a_shard",
     &["Option<ShardCtx>", "self.shard.as_ref()", "fn discard_inbox", "fn any_live"], CRAWLER,
     Mode::Code, ONE_PROTOCOL),
    ("one_run_handle",
     &["struct ClusterRun", "fn shard_runs", "fn start_cluster", "fn build_cluster",
       "fn resume_cluster", "fn take_events(&mut self,", "Vec<CrawlRun>"],
     Scope("crates/*/src", "", 60), Mode::Code, ONE_RUN_HANDLE),
    ("the_crawler_carries_no_dead_fork",
     &["fn decide("], POLICY, Mode::Code,
     "the policy has one entry point, `decide_eval`; the `Posterior` twin had no caller"),
    ("the_crawler_carries_no_dead_fork",
     &["next_due"], FRONTIER, Mode::Code,
     "a claim scan counts parked rows; the earliest due tick had no reader outside tests"),
    ("one_storage_trait_under_pages_and_log",
     &["MINIREL_CRASH_SYNCS", "fn crash_hook", "enum Backend", "enum WalStore", "background: bool",
       "pub fn in_memory(group_every"], MINIREL, Mode::Code, ONE_STORAGE),
    ("an_equi_join_is_a_hash_join",
     &["MergeJoin", "merge_join_", "external_sort", "NL_JOIN_EST"],
     Scope("crates/minirel/src/sql", "", 7), Mode::Whole,
     "an equi-join is a hash join; SQL execution never sorts through the buffer pool"),
    ("a_select_pushes_rows_to_its_consumer",
     &["fn apply_filters", "fn aggregate(", "fn hash_join_rows", "fn decode_composite_key"],
     MINIREL, Mode::Code, PUSHED_ROWS),
    ("access_paths_are_chosen_once_at_execution",
     &["MIN_PROBE_ROWS", "struct IndexProbe", "struct InProbe", "enum InSrc", "struct KeyIndex",
       "struct Reduce", "fn table_stats"],
     MINIREL, Mode::Code, ONE_ADMISSION),
    ("the_planner_reads_no_row_counts",
     &["Permute", "est_rows", "fn selectivity", "SEL_EQ", "heap.len()"], PLAN, Mode::Code,
     "a plan depends on its statement and the schema alone: comma joins run in textual greedy \
     order, and the planner reads no row counts to order them"),
    ("a_landing_allocates_only_what_it_keeps",
     &["fn entry_cells", "-> DbResult<Vec<Vec<Rid>>>", "DbResult<Vec<(PageId, usize, usize)>>",
       "Vec<Vec<Vec<u8>>>", "candidates: Vec<usize>"], MINIREL, Mode::Code, KEPT_ONLY),
    ("a_landing_allocates_only_what_it_keeps",
     &["fn with_relevance", "fn claimed_row", "Vec<(Vec<u8>, usize)>", ".first_n_at_or_after(",
       "known.contains(", "fn frontier_row(", "fn link_row("], CRAWLER, Mode::Code, KEPT_ONLY),
    ("a_row_is_written_through_one_batch",
     &["fn delete_row", "fn update_row", "fn checked_keys", "fn checked_key"], MINIREL, Mode::Code,
     ONE_WRITE_PATH),
    ("a_row_is_written_through_one_batch",
     &["pub fn delete("], BTREE, Mode::Code,
     "a B+tree entry is removed by `delete_many`, the sorted pass a `RowBatch` makes over each \
     index; the per-entry descent had no caller outside tests"),
    ("no_knob_skips_a_wall_clock_assertion",
     &["FOCUS_LAX_TIMING"], WORKSPACE, Mode::Whole, "no knob skips a wall-clock assertion: tests \
     print wall-clock ratios and assert deterministic counts; focus-bench/ measures throughput"),
];

/// Call sites that keep their count, in code lines: (check, pattern,
/// where, count, why).
type Counted = (&'static str, &'static str, Scope, usize, &'static str);

const PASS: &str =
    "one function (`CrawlSession::distill_pass`) cuts a snapshot and runs the kernel";
const LINKS: &str =
    "links enter the graph when a page lands and in `StoreState::load`, nowhere else";

#[rustfmt::skip]
const COUNTED: &[Counted] = &[
    ("no_file_is_a_monolith",
     ".next_tick(", CRAWLER, 1, "`next_tick` has one call site, the worker loop"),
    ("no_file_is_a_monolith",
     ".claim_admitted(", CRAWLER, 1, "`claim_admitted` has one call site, `next_tick`"),
    ("there_is_one_fetch_site_and_one_admission_site",
     "health.admit(", CRAWLER, 1, "`HealthMap::admit` has one call site, `claim_admitted`"),
    ("one_link_graph_and_one_place_starts_a_pass", ".snapshot()", CRAWLER, 1, PASS),
    ("one_link_graph_and_one_place_starts_a_pass", "snapshot.distill(", CRAWLER, 1, PASS),
    ("one_loader_derives_memory_from_tables", "HealthMap::new(", CRAWLER, 1,
     "one place creates a `HealthMap` over a store: `store::fresh_health`, which empties `server_health`"),
    ("one_loader_derives_memory_from_tables", ".add_link(", CRAWLER, 2, LINKS),
    ("one_loader_derives_memory_from_tables", ".add_link(", STORE, 1, LINKS),
    ("one_loader_derives_memory_from_tables", ".set_relevance(", STORE, 1,
     "store.rs sets relevance in the loader only: a checkpoint is tables, with no overlay"),
    ("one_loader_derives_memory_from_tables",
     "Value::Int(sid_dst", Scope("crates/crawler/src/tables.rs", "", 1), 1,
     "a `LINK` row is spelled out once, in `tables::link_row_into`"),
    ("crawl_rows_are_rewritten_through_one_keyed_path", ".lookup_many(", FRONTIER, 1,
     "`frontier.rs` probes `crawl_oid` in one place: the keyed rewrite"),
    ("crawl_rows_are_rewritten_through_one_keyed_path", ".insert_with(", FRONTIER, 1,
     "`frontier.rs` inserts rows in one place: the keyed rewrite's creates"),
    ("crawl_rows_are_rewritten_through_one_keyed_path", ".update_with(", FRONTIER, 2,
     "`frontier.rs` updates rows in two places: the keyed rewrite and the range-pop claim"),
    ("one_write_back_logs_pages_and_records_are_encoded_in_place", ".log_page(", BUFFER, 1,
     "buffer.rs logs pages from one place: `write_back`, which also counts `physical_writes` \
     and clears `dirty`"),
    ("one_write_back_logs_pages_and_records_are_encoded_in_place",
     "encode_record(", Scope("crates/minirel/src/wal.rs", "", 1), 1, "the owned encoder is for \
     the format tests; the log stages records in place through `put_record`"),
    ("every_session_is_a_shard", ".arm(", CRAWLER, 1,
     "one launch sequence (`cluster::launch`) arms the exchange, for one shard or all of a \
     cluster's"),
    ("one_run_handle", "= CrawlRun {", CRAWLER, 1, ONE_RUN_HANDLE),
    ("one_storage_trait_under_pages_and_log", "impl Storage for", MINIREL, 2,
     "two file systems implement `Storage`: `OsFs`'s files and `MemFs`'s"),
    ("the_suites_check_invariants_through_the_checkers", "fn trained_model", SUITES, 1,
     "the suites share one `trained_model`, in crates/crawler/tests/support/mod.rs"),
    ("access_paths_are_chosen_once_at_execution", "admit(", MINIREL, 1, ONE_ADMISSION),
    ("a_row_is_written_through_one_batch", ".heap.insert_many(", CATALOG, 1,
     "a table's heap gains rows in one place: `RowBatch::write`"),
    ("a_row_is_written_through_one_batch", ".heap.update(", CATALOG, 1,
     "a table's heap replaces rows in one place: `RowBatch::write`"),
    ("a_row_is_written_through_one_batch", ".heap.delete(", CATALOG, 1,
     "a table's heap loses rows in one place: `RowBatch::write`"),
];

impl Scope {
    fn covers(&self, path: &str) -> bool {
        let segs: Vec<&str> = path.split('/').collect();
        let under = |root: &str| {
            let r: Vec<&str> = root.split('/').collect();
            let prefix =
                r.len() <= segs.len() && r.iter().zip(&segs).all(|(r, s)| r == s || *r == "*");
            prefix && (r.len() == segs.len() || path.ends_with(".rs"))
        };
        let skipped = |s: &str| path.starts_with(s) || path.ends_with(s);
        path != SELF
            && self.0.split_whitespace().any(under)
            && !self.1.split_whitespace().any(skipped)
    }

    /// A path this scope covers, for a pasted snippet.
    fn example(&self) -> String {
        match self
            .0
            .split_whitespace()
            .next()
            .unwrap_or_default()
            .replace('*', "pasted")
        {
            file if file.contains('.') => file,
            dir => format!("{dir}/pasted.rs"),
        }
    }
}

/// The files the rules read: (path from the repository root, text).
struct Tree(Vec<(String, String)>);

impl Tree {
    /// The one walker: the files at the repository root and every file
    /// under the directories the rules look into.
    fn disk() -> Tree {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let walked = ["crates", "src", "tests", "examples", "vendor", ".github"];
        let (mut files, mut dirs) = (Vec::new(), vec![String::new()]);
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(root.join(&dir)).expect("readable directory") {
                let path = entry.expect("directory entry").path();
                let rel = format!(
                    "{dir}{}",
                    path.file_name().expect("named").to_string_lossy()
                );
                if path.is_file() {
                    let bytes = std::fs::read(&path).expect("readable file");
                    files.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
                } else if !rel.ends_with("/target") && (!dir.is_empty() || walked.contains(&&*rel))
                {
                    dirs.push(rel + "/");
                }
            }
        }
        Tree(files)
    }

    fn pasted(files: &[(&str, &str)]) -> Tree {
        Tree(files.iter().map(|&(p, t)| (p.into(), t.into())).collect())
    }

    fn files(&self, scope: Scope) -> impl Iterator<Item = (&str, &str)> {
        let files = self.0.iter().filter(move |(p, _)| scope.covers(p));
        files.map(|(p, t)| (p.as_str(), t.as_str()))
    }

    /// `(path, line number, line)` of every line `mode` reads in `scope`.
    fn lines(&self, scope: Scope, mode: Mode) -> Vec<(&str, usize, &str)> {
        let numbered = |(p, t)| lines(t, mode).into_iter().map(move |(n, l)| (p, n, l));
        self.files(scope).flat_map(numbered).collect()
    }

    fn read(&self, path: &str) -> &str {
        let file = self.0.iter().find(|(p, _)| p == path);
        file.map_or("", |(_, t)| t)
    }

    /// Entries of directory `dir` (`""`, or ending in `/`) that hold a
    /// file, sorted.
    fn names(&self, dir: &str) -> Vec<&str> {
        let entries = self.0.iter().filter_map(|(p, _)| p.strip_prefix(dir));
        let mut names: Vec<&str> = entries.filter_map(|rest| rest.split('/').next()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    fn exists(&self, path: &str) -> bool {
        let dir = format!("{path}/");
        self.0.iter().any(|(p, _)| p == path || p.starts_with(&dir))
    }
}

/// The lines a rule reads, numbered from 1: every line (`Whole`), or the
/// code lines — non-blank, not a `//` comment, before the file's first
/// `#[cfg(test)]` — that `scripts/code_lines.sh` counts (`Code`).
fn lines(text: &str, mode: Mode) -> Vec<(usize, &str)> {
    let numbered = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match mode {
        Mode::Whole => numbered.collect(),
        Mode::Code => numbered
            .map(|(n, l)| (n, l.trim_start()))
            .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with("//"))
            .collect(),
    }
}

fn forbidden(tree: &Tree, (_, patterns, scope, mode, why): &Forbidden) -> Vec<String> {
    let mut out = Vec::new();
    for (path, n, line) in tree.lines(*scope, *mode) {
        for p in patterns.iter().filter(|p| line.contains(*p)) {
            out.push(format!("{path}:{n}: `{p}` is back: {why}"));
        }
    }
    out
}

fn counted(tree: &Tree, (_, pattern, scope, want, why): &Counted) -> Vec<String> {
    let hits = tree
        .lines(*scope, Mode::Code)
        .into_iter()
        .filter(|(_, _, l)| l.contains(pattern));
    let sites: Vec<String> = hits.map(|(path, n, _)| format!("{path}:{n}")).collect();
    match sites.len() == *want {
        true => Vec::new(),
        false => vec![format!(
            "`{pattern}` at {} places, not {want}: {why}: {sites:?}",
            sites.len()
        )],
    }
}

/// A binder is a function with a match arm that turns
/// `AstExpr::Column { .. }` into `Expr::Col(..)` within four code lines.
fn one_binder(tree: &Tree) -> Vec<String> {
    let mut binders = Vec::new();
    for (path, text) in tree.files(MINIREL) {
        let code: Vec<&str> = lines(text, Mode::Code)
            .into_iter()
            .map(|(_, l)| l)
            .collect();
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
                binders.push(format!("{path}::{current_fn}"));
            }
        }
    }
    match &binders[..] {
        [one] if one.ends_with("sql/plan.rs::bind_expr") => Vec::new(),
        _ => vec![format!(
            "exactly one function may bind AST columns to `Expr::Col` (`Planner::bind_expr`): \
             {binders:?}"
        )],
    }
}

/// `Database::run` names the three DDL statements and plans the rest.
fn run_plans_all_but_ddl(tree: &Tree) -> Vec<String> {
    let db = tree.files(DB).next().unwrap_or_default().1;
    let run = db.lines().skip_while(|l| !l.starts_with("    fn run("));
    let body: Vec<&str> = run.take_while(|l| *l != "    }").collect();
    if body.len() <= 5 {
        return vec!["Database::run not found in db.rs".to_owned()];
    }
    let named = body.iter().flat_map(|l| l.split("Statement::").skip(1));
    let mut kinds: Vec<&str> = named
        .filter_map(|rest| rest.split(['(', ' ', '{']).next())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut out = Vec::new();
    if kinds != ["CreateIndex", "CreateTable", "DropTable"] {
        out.push(format!(
            "Database::run names {kinds:?}: it may name the three DDL statements and nothing \
             else; every other kind goes through prepare_plan in the catch-all arm"
        ));
    }
    if !body.iter().any(|l| l.contains("prepare_plan(")) {
        out.push("Database::run must plan what it does not hand to the catalog".to_owned());
    }
    out
}

/// Only `storage.rs` names the operating system's file API in minirel:
/// everything else opens files through an `Fs`.
fn one_file_api(tree: &Tree) -> Vec<String> {
    let storage = "crates/minirel/src/storage.rs";
    let mut namers: Vec<&str> = tree
        .lines(MINIREL, Mode::Code)
        .into_iter()
        .filter(|(_, _, l)| l.contains("std::fs::") || l.contains("OpenOptions"))
        .map(|(path, _, _)| path)
        .collect();
    namers.dedup();
    match namers[..] {
        [one] if one == storage => Vec::new(),
        _ => vec![format!(
            "minirel names `std::fs::` or `OpenOptions` in {namers:?}: only {storage} may, \
             and it must ({ONE_STORAGE})"
        )],
    }
}

/// What must not exist, and why.
#[rustfmt::skip]
const DELETED: &[(&str, &str)] = &[
    ("crates/lockcheck/src/analyze.rs", "the static lock checker is deleted"),
    ("crates/lockcheck/src/lexer.rs", "the static lock checker is deleted"),
    ("crates/lockcheck/src/manifest.rs", "the static lock checker is deleted"),
    ("crates/lockcheck/src/main.rs", "the static lock checker is deleted"),
    ("LOCK_ORDER.toml", "the static lock checker is deleted"),
    ("crates/bench", "performance is measured by `focus-bench/` (see BENCHMARK.json)"),
    ("crates/eval/src/bin", "the figures run through `cargo run -p focus-eval -- <experiment|all> [scale]`"),
    ("crates/minirel/src/sql/reference.rs",
     "the reference interpreter is a test-side oracle (crates/minirel/tests/support/reference.rs)"),
];

/// The estate: nothing is left that nothing runs.
fn estate(tree: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    let bench = |n: &&str| n.starts_with("BENCH_") && n.ends_with(".json");
    for name in tree.names("").into_iter().filter(bench) {
        out.push(format!(
            "{name} at the repo root: the recorded trajectories are frozen under docs/history/, \
             and nothing appends to them any more"
        ));
    }
    for (path, why) in DELETED.iter().filter(|(path, _)| tree.exists(path)) {
        out.push(format!("{path} is back: {why}"));
    }
    let vendor = tree.names("vendor/");
    if vendor != ["README.md", "proptest", "rand"] {
        let why = "a stand-in stays only while a caller that runs needs it";
        out.push(format!("vendor/ holds {vendor:?}: {why}"));
    }
    let manifest = tree.read("Cargo.toml").lines();
    let members: Vec<&str> = (manifest
        .skip_while(|l| !l.starts_with("members = ["))
        .skip(1))
    .take_while(|l| !l.starts_with(']'))
    .map(|l| l.trim().trim_end_matches(',').trim_matches('"'))
    .collect();
    if members.len() < 10 {
        out.push(format!("member walk found only {members:?}"));
    }
    for member in members {
        if !tree.exists(&format!("{member}/Cargo.toml")) {
            out.push(format!("workspace member {member} does not exist"));
        }
    }
    out
}

/// Raw lock types: naming one outside lockcheck builds a lock the
/// runtime checker cannot see, since it carries no rank.
fn raw_locks(tree: &Tree) -> Vec<String> {
    let mut out = Vec::new();
    for (path, n, line) in tree.lines(PRODUCTION, Mode::Code) {
        let code = line.split("//").next().unwrap_or_default();
        let mut words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        if words.any(|w| ["Mutex", "RwLock", "Condvar"].contains(&w)) {
            out.push(format!(
                "{path}:{n}: {line} — a raw lock needs a lockcheck::Ordered* wrapper and a rank \
                 from crates/lockcheck/src/rank.rs"
            ));
        }
    }
    out
}

/// No crawler source grows back into a monolith.
fn no_monolith(tree: &Tree) -> Vec<String> {
    let sizes = tree
        .files(CRAWLER)
        .map(|(path, text)| (path, lines(text, Mode::Code).len()));
    let big = sizes.filter(|(_, n)| *n > 800);
    big.map(|(path, n)| format!("{path} has {n} non-test code lines (limit 800): split it by role"))
        .collect()
}

fn assert_clean(findings: Vec<String>) {
    assert!(findings.is_empty(), "\n{}", findings.join("\n"));
}

#[test]
fn every_scope_walks_real_files() {
    let tree = Tree::disk();
    let rows = FORBIDDEN
        .iter()
        .map(|r| r.2)
        .chain(COUNTED.iter().map(|r| r.2));
    for scope in rows.chain([MINIREL, PRODUCTION, CRAWLER, DB]) {
        let n = tree.files(scope).count();
        assert!(n >= scope.2, "source walk of `{}` found only {n}", scope.0);
    }
}

/// The findings of the [`FORBIDDEN`] and [`COUNTED`] rows of `check`.
fn table(tree: &Tree, check: &str) -> Vec<String> {
    let banned = FORBIDDEN.iter().filter(|r| r.0 == check);
    let counts = COUNTED.iter().filter(|r| r.0 == check);
    let mut out: Vec<String> = banned.flat_map(|row| forbidden(tree, row)).collect();
    out.extend(counts.flat_map(|row| counted(tree, row)));
    out
}

/// One `#[test]` per check: `name: named, ..;` reads the table rows
/// tagged `name`, then runs the named checks. [`CHECKS`] lists the names,
/// so a row cannot carry a tag no test reads.
macro_rules! checks {
    ($($check:ident: $($named:ident),*;)*) => {
        const CHECKS: &[&str] = &[$(stringify!($check)),*];
        $(
            #[test]
            fn $check() {
                let tree = Tree::disk();
                assert_clean([table(&tree, stringify!($check)) $(, $named(&tree))*].concat());
            }
        )*
    };
}

checks! {
    no_file_is_a_monolith: no_monolith;
    there_is_one_fetch_site_and_one_admission_site: ;
    crawl_rows_are_rewritten_through_one_keyed_path: ;
    the_pre_focus_bench_estate_stays_retired: estate;
    one_link_graph_and_one_place_starts_a_pass: ;
    one_loader_derives_memory_from_tables: ;
    the_suites_check_invariants_through_the_checkers: ;
    the_interpreter_is_gone_from_production_code: ;
    a_statement_has_one_plan_tree: ;
    there_is_one_ast_to_expr_binder: one_binder;
    database_run_plans_everything_but_ddl: run_plans_all_but_ddl;
    no_function_reads_a_whole_file_and_sleeps: ;
    one_write_back_logs_pages_and_records_are_encoded_in_place: ;
    workspace_scan_is_finding_free: raw_locks;
    minirel_keeps_what_callers_outside_it_reach: ;
    one_storage_trait_under_pages_and_log: one_file_api;
    no_knob_skips_a_wall_clock_assertion: ;
    an_equi_join_is_a_hash_join: ;
    the_bulk_probe_is_one_merge_pass: ;
    access_paths_are_chosen_once_at_execution: ;
    a_select_pushes_rows_to_its_consumer: ;
    the_planner_reads_no_row_counts: ;
    every_session_is_a_shard: ;
    one_run_handle: ;
    the_crawler_carries_no_dead_fork: ;
    a_landing_allocates_only_what_it_keeps: ;
    a_row_is_written_through_one_batch: ;
}

/// Assert that one of `findings` contains `message`, and print it.
fn fires(findings: &[String], message: &str, what: &str) {
    match findings.iter().find(|f| f.contains(message)) {
        Some(f) => println!("{what}: {f}"),
        None => panic!("{what} must report `{message}`, got {findings:?}"),
    }
}

#[test]
fn every_rule_fires_on_its_paste_back() {
    // Each pattern pasted as a line fires; in a commented test module it
    // fires exactly when its row reads whole files.
    for row in FORBIDDEN {
        let (check, patterns, scope, mode, why) = row;
        assert!(CHECKS.contains(check), "no test reads `{check}`");
        let path = scope.example();
        assert!(scope.covers(&path), "{path} is outside {scope:?}");
        for p in *patterns {
            fires(&forbidden(&Tree::pasted(&[(&path, p)]), row), why, p);
            let hidden = format!("#[cfg(test)]\nmod tests {{\n    // {p}\n}}\n");
            let found = forbidden(&Tree::pasted(&[(&path, &hidden)]), row);
            assert_eq!(
                found.is_empty(),
                *mode == Mode::Code,
                "`{p}` in tests: {found:?}"
            );
        }
    }
    // One call site too many fires; the allowed count does not.
    for row in COUNTED {
        let (check, pattern, scope, want, why) = row;
        assert!(CHECKS.contains(check), "no test reads `{check}`");
        let (path, line) = (scope.example(), format!("{pattern}\n"));
        let pasted = |n: usize| counted(&Tree::pasted(&[(&path, &line.repeat(n))]), row);
        fires(&pasted(want + 1), why, pattern);
        assert_clean(pasted(*want));
    }

    let binder = "fn bind_expr(e: &AstExpr) -> Expr {\n    match e {\n        \
                  AstExpr::Column { i } => Expr::Col(*i),\n    }\n}\n";
    let plan = "crates/minirel/src/sql/plan.rs";
    assert_clean(one_binder(&Tree::pasted(&[(plan, binder)])));
    let second = Tree::pasted(&[(plan, binder), ("crates/minirel/src/sql/pasted.rs", binder)]);
    fires(
        &one_binder(&second),
        "exactly one function may bind",
        "a second binder",
    );

    let run = "    fn run(&mut self) {\n        match stmt {\n            \
               Statement::CreateTable { .. } => {}\n            Statement::Select(q) => {}\n        \
               }\n        // no plan\n    }\n";
    let db = run_plans_all_but_ddl(&Tree::pasted(&[("crates/minirel/src/db.rs", run)]));
    fires(
        &db,
        "may name the three DDL statements",
        "Statement::Select in Database::run",
    );
    fires(
        &db,
        "must plan what it does not",
        "Database::run without prepare_plan",
    );

    let storage = (
        "crates/minirel/src/storage.rs",
        "use std::fs::OpenOptions;\n",
    );
    assert_clean(one_file_api(&Tree::pasted(&[storage])));
    let opened = (
        "crates/minirel/src/wal.rs",
        "let f = std::fs::File::open(path)?;\n",
    );
    for (files, what) in [
        (&[storage, opened][..], "a second file opening files"),
        (&[][..], "storage.rs naming no file API"),
    ] {
        fires(
            &one_file_api(&Tree::pasted(files)),
            "only crates/minirel/src/storage.rs may",
            what,
        );
    }

    let estate_of = |files: &[(&str, &str)]| estate(&Tree::pasted(files));
    let members = "members = [\n    \"crates/a\",\n    \"crates/gone\",\n]\n";
    let found = estate_of(&[
        ("Cargo.toml", members),
        ("BENCH_frontier.json", "[]"),
        ("vendor/serde/src/lib.rs", ""),
        ("crates/a/Cargo.toml", ""),
    ]);
    for message in [
        "BENCH_frontier.json at the repo root",
        "vendor/ holds",
        "member walk found only",
        "workspace member crates/gone does not exist",
    ] {
        fires(&found, message, "estate");
    }
    for (path, why) in DELETED {
        let file = match path.contains('.') {
            true => path.to_string(),
            false => format!("{path}/pasted.rs"),
        };
        fires(
            &estate_of(&[(&file, "")]),
            &format!("{path} is back: {why}"),
            path,
        );
    }

    // The lockcheck corpus's raw-lock fixture, and its control.
    let unwrapped = include_str!("../crates/lockcheck/tests/fixtures/unwrapped.rs");
    let naked = raw_locks(&Tree::pasted(&[(
        "crates/pasted/src/unwrapped.rs",
        unwrapped,
    )]));
    fires(&naked, "use std::sync::Mutex;", "fixtures/unwrapped.rs");
    fires(&naked, "naked: Mutex<", "fixtures/unwrapped.rs");
    let clean = include_str!("../crates/lockcheck/tests/fixtures/clean.rs");
    assert_clean(raw_locks(&Tree::pasted(&[(
        "crates/pasted/src/clean.rs",
        clean,
    )])));

    let big = "let x = 1;\n".repeat(801);
    let monolith = Tree::pasted(&[("crates/crawler/src/pasted.rs", &big)]);
    fires(
        &no_monolith(&monolith),
        "has 801 non-test code lines",
        "801 lines",
    );
}
