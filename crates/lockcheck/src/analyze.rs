//! The static half of lockcheck: walk workspace sources, track lock
//! acquisitions per function body, propagate held-lock sets across
//! intra-crate call edges, and diff the resulting acquisition graph
//! against the `LOCK_ORDER.toml` lattice.
//!
//! The walker is heuristic by design (a hand-rolled lexer, not a full
//! parser — see ISSUE 10): it models Rust's temporary-scope rules for
//! guards closely enough for this workspace's idioms — `let`-bound
//! guards live to end of block or `drop(g)`, chained temporaries to end
//! of statement, `if let`/`match` scrutinee temporaries through the
//! following block — and resolves receivers through index/call chains
//! like `self.inboxes[owner].lock()` or `self.shard_of(pid).lock()`.

use crate::lexer::{lex, TokKind, Token};
use crate::manifest::Manifest;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// Classification of a reported problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// An acquisition edge that descends or ties in rank.
    Inversion,
    /// A lock (declared field or `.lock()` receiver) the manifest does
    /// not know, or a raw `Mutex`/`RwLock` that bypasses the wrappers.
    UnknownLock,
    /// A declared-blocking call made while holding disallowed locks.
    HeldAcrossBlocking,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::Inversion => "inversion",
            FindingKind::UnknownLock => "unknown-lock",
            FindingKind::HeldAcrossBlocking => "held-across-blocking",
        })
    }
}

/// One reported problem, anchored to a file and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What kind of problem.
    pub kind: FindingKind,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.kind, self.message
        )
    }
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Problems found, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of distinct acquisition edges observed.
    pub edges: usize,
    /// Number of acquisition sites resolved to manifest locks.
    pub acquisitions: usize,
}

/// Scan the workspace under `root` per the manifest's `[scan]` table.
pub fn analyze_workspace(root: &Path, manifest: &Manifest) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for r in &manifest.scan.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            collect_rs(&dir, root, manifest, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(analyze_sources(&files, manifest))
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    manifest: &Manifest,
    out: &mut Vec<(String, String)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if manifest
            .scan
            .exclude
            .iter()
            .any(|e| rel.contains(e.as_str()))
        {
            continue;
        }
        if path.is_dir() {
            if manifest.scan.exclude_dirs.iter().any(|d| d == &name) {
                continue;
            }
            collect_rs(&path, root, manifest, out)?;
        } else if name.ends_with(".rs") {
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Analyze in-memory sources: `(workspace-relative path, contents)`.
/// Split out from [`analyze_workspace`] so tests can feed fixture files.
pub fn analyze_sources(files: &[(String, String)], manifest: &Manifest) -> Analysis {
    let mut world = World::new(manifest);
    for (path, src) in files {
        world.scan_file(path, src);
    }
    world.finish()
}

/// A held guard during body simulation.
#[derive(Debug, Clone)]
struct Guard {
    lock: usize,
    exclusive: bool,
    line: u32,
    binding: Option<String>,
    /// Block depth owning this guard; popped when that block closes.
    depth: usize,
    /// Dies at the next `;` at its depth (chained / argument temporary).
    stmt_temp: bool,
    /// `if let` / `while let` / `match` scrutinee: adopted by the next
    /// opened block instead of the current one.
    attach_next_block: bool,
    /// Token index of creation (for condition-temporary cleanup).
    created_at: usize,
}

/// One observed ordered pair of acquisitions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    from: usize,
    from_excl: bool,
    to: usize,
    to_excl: bool,
    file: String,
    line: u32,
    note: String,
}

/// A call site observed with its held-lock snapshot.
#[derive(Debug, Clone)]
struct CallEvent {
    callee: String,
    receiver: Option<String>,
    held: Vec<(usize, bool, u32)>,
    file: String,
    line: u32,
    fn_id: usize,
}

#[derive(Debug, Default)]
struct FnInfo {
    crate_name: String,
    name: String,
    /// Direct acquisitions: (lock, exclusive, line, file).
    direct: BTreeSet<(usize, bool)>,
    /// Direct blocking-spec hits (indices into manifest.blocking).
    direct_blocking: BTreeSet<usize>,
    callees: BTreeSet<String>,
}

struct World<'m> {
    manifest: &'m Manifest,
    fns: Vec<FnInfo>,
    edges: BTreeSet<Edge>,
    calls: Vec<CallEvent>,
    findings: Vec<Finding>,
    files_scanned: usize,
    acquisitions: usize,
}

const ACQ_METHODS: &[&str] = &["lock", "try_lock", "read", "write", "try_write"];
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "loop", "for", "match", "return", "let", "fn", "impl", "struct", "enum",
    "trait", "mod", "use", "pub", "const", "static", "mut", "ref", "move", "in", "break",
    "continue", "where", "unsafe", "as", "dyn", "type", "crate", "super", "self", "Self",
];
/// Names too ubiquitous to resolve to a unique in-crate function; the
/// call-graph propagation skips them to avoid std-shadowing false edges.
const CALL_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "take",
    "iter",
    "into_iter",
    "next",
    "clear",
    "contains",
    "contains_key",
    "flush",
    "sync",
    "min",
    "max",
    "eq",
    "cmp",
    "hash",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "to_string",
    "to_vec",
    "extend",
    "send",
    "recv",
    "join",
    "spawn",
    "with",
    "expect",
    "unwrap",
    "map",
    "and_then",
    "ok",
    "err",
    "is_some",
    "is_none",
];

impl<'m> World<'m> {
    fn new(manifest: &'m Manifest) -> World<'m> {
        World {
            manifest,
            fns: Vec::new(),
            edges: BTreeSet::new(),
            calls: Vec::new(),
            findings: Vec::new(),
            files_scanned: 0,
            acquisitions: 0,
        }
    }

    fn scan_file(&mut self, path: &str, src: &str) {
        self.files_scanned += 1;
        let toks = lex(src);
        let (open_of, close_of) = match_brackets(&toks);
        let excluded = excluded_ranges(&toks, &close_of);
        let crate_name = crate_of(path);

        self.check_decls(path, &toks, &excluded);

        // Find every `fn name(...) { body }` and simulate its body.
        let mut i = 0;
        while i < toks.len() {
            if excluded[i] {
                i += 1;
                continue;
            }
            if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
                let name = toks[i + 1].text.clone();
                // Body = first `{` after the signature; trait decls hit `;`.
                let mut j = i + 2;
                let mut body = None;
                while j < toks.len() {
                    if toks[j].is_punct(';') {
                        break;
                    }
                    if toks[j].is_punct('{') {
                        body = Some(j);
                        break;
                    }
                    // Skip parenthesised signature chunks wholesale.
                    if toks[j].is_punct('(') {
                        j = close_of[j].unwrap_or(j) + 1;
                        continue;
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let close = close_of[open].unwrap_or(toks.len() - 1);
                    let fn_id = self.fns.len();
                    self.fns.push(FnInfo {
                        crate_name: crate_name.clone(),
                        name,
                        ..FnInfo::default()
                    });
                    self.scan_body(path, &toks, &open_of, &close_of, open, close, fn_id);
                    i = j + 1; // continue after signature; nested fns re-found
                    continue;
                }
                i = j + 1;
                continue;
            }
            i += 1;
        }
    }

    /// Flag raw `Mutex`/`RwLock` mentions and `Ordered*` field
    /// declarations the manifest does not cover.
    fn check_decls(&mut self, path: &str, toks: &[Token], excluded: &[bool]) {
        for (i, t) in toks.iter().enumerate() {
            if excluded[i] || t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "Mutex" | "RwLock" | "Condvar" => {
                    self.findings.push(Finding {
                        kind: FindingKind::UnknownLock,
                        file: path.to_string(),
                        line: t.line,
                        message: format!(
                            "raw `{}` bypasses the order checker; use lockcheck::Ordered{} \
                             and declare it in LOCK_ORDER.toml",
                            t.text,
                            if t.text == "Condvar" {
                                "Condvar"
                            } else {
                                &t.text
                            },
                        ),
                    });
                }
                "OrderedMutex" | "OrderedRwLock" => {
                    // Declaration context: `name: [&] OrderedMutex<..>` or
                    // `name: Vec<OrderedMutex<..>>`. Skip constructor
                    // paths (`OrderedMutex::new`) and return types.
                    if i + 1 < toks.len() && toks[i + 1].is_punct(':') {
                        continue; // `OrderedMutex::new` (first `:` of `::`)
                    }
                    let mut k = i;
                    let mut field = None;
                    let mut borrowed = false;
                    let mut steps = 0;
                    while k > 0 && steps < 8 {
                        k -= 1;
                        steps += 1;
                        let tk = &toks[k];
                        if tk.is_punct('&') {
                            borrowed = true;
                        } else if tk.is_punct(':') {
                            // `::` path — constructor, not a declaration.
                            if k > 0 && toks[k - 1].is_punct(':') {
                                break;
                            }
                            if k > 0 && toks[k - 1].kind == TokKind::Ident {
                                field = Some(toks[k - 1].text.clone());
                            }
                            break;
                        } else if tk.kind == TokKind::Ident || tk.is_punct('<') {
                            continue; // Vec< / Arc< / path segments
                        } else {
                            break;
                        }
                    }
                    if borrowed {
                        continue; // `&OrderedMutex<T>` parameter, not a field
                    }
                    if let Some(field) = field {
                        if self.manifest.resolve_field(&field, path).is_none() {
                            self.findings.push(Finding {
                                kind: FindingKind::UnknownLock,
                                file: path.to_string(),
                                line: t.line,
                                message: format!(
                                    "lock field `{field}` is not declared in LOCK_ORDER.toml"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_body(
        &mut self,
        path: &str,
        toks: &[Token],
        open_of: &[Option<usize>],
        close_of: &[Option<usize>],
        open: usize,
        close: usize,
        fn_id: usize,
    ) {
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0usize;
        // Set at `if`/`while` (non-let): temporaries created in the
        // condition die when its block opens.
        let mut cond_start: Option<usize> = None;

        let mut i = open;
        while i <= close {
            let t = &toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_bytes()[0] {
                    b'{' => {
                        if let Some(cs) = cond_start.take() {
                            guards.retain(|g| !(g.stmt_temp && g.created_at > cs));
                        }
                        depth += 1;
                        for g in guards.iter_mut() {
                            if g.attach_next_block {
                                g.attach_next_block = false;
                                g.depth = depth;
                            }
                        }
                    }
                    b'}' => {
                        guards.retain(|g| g.depth < depth || g.attach_next_block);
                        depth = depth.saturating_sub(1);
                    }
                    b';' => {
                        guards.retain(|g| !(g.stmt_temp && g.depth == depth));
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            // Skip nested fn bodies; they are scanned as their own items.
            if t.is_ident("fn") && i > open && i < close && toks[i + 1].kind == TokKind::Ident {
                let mut j = i + 2;
                while j <= close && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('(') {
                        j = close_of[j].unwrap_or(j) + 1;
                        continue;
                    }
                    j += 1;
                }
                if j <= close && toks[j].is_punct('{') {
                    i = close_of[j].unwrap_or(close) + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if (t.is_ident("if") || t.is_ident("while"))
                && !(i < close && toks[i + 1].is_ident("let"))
            {
                cond_start = Some(i);
                i += 1;
                continue;
            }
            // `drop(g)` releases a bound guard early.
            if t.is_ident("drop")
                && i + 3 <= close
                && toks[i + 1].is_punct('(')
                && toks[i + 2].kind == TokKind::Ident
                && toks[i + 3].is_punct(')')
            {
                let victim = &toks[i + 2].text;
                if let Some(pos) = guards
                    .iter()
                    .rposition(|g| g.binding.as_deref() == Some(victim.as_str()))
                {
                    guards.remove(pos);
                }
                i += 4;
                continue;
            }
            // Acquisition: `.lock()` / `.try_lock()` / `.read()` / `.write()`
            // / `.try_write()` with an empty argument list.
            let is_acq = i > open
                && toks[i - 1].is_punct('.')
                && ACQ_METHODS.contains(&t.text.as_str())
                && i + 2 <= close
                && toks[i + 1].is_punct('(')
                && toks[i + 2].is_punct(')');
            if is_acq {
                let receiver = receiver_of(toks, open_of, i - 1);
                let lock = receiver
                    .as_deref()
                    .and_then(|r| self.manifest.resolve_field(r, path));
                match lock {
                    Some(lock) => {
                        self.acquisitions += 1;
                        let exclusive = t.text != "read";
                        for g in &guards {
                            self.edges.insert(Edge {
                                from: g.lock,
                                from_excl: g.exclusive,
                                to: lock,
                                to_excl: exclusive,
                                file: path.to_string(),
                                line: t.line,
                                note: format!("held since line {}", g.line),
                            });
                        }
                        self.fns[fn_id].direct.insert((lock, exclusive));
                        let after = i + 3;
                        let chained = after <= close && toks[after].is_punct('.');
                        let (binding, attach, temp) = if chained {
                            (None, false, true)
                        } else {
                            binding_of(toks, open_of, i - 1)
                        };
                        guards.push(Guard {
                            lock,
                            exclusive,
                            line: t.line,
                            binding,
                            depth,
                            stmt_temp: temp,
                            attach_next_block: attach,
                            created_at: i,
                        });
                        i += 3;
                        continue;
                    }
                    None => {
                        // Unresolved `.lock()` means a lock outside the
                        // manifest; `.read()`/`.write()` are too generic
                        // to flag without a declared receiver. Std stream
                        // handles (`stdin().lock()`) are not sync locks.
                        let std_stream = matches!(
                            receiver.as_deref(),
                            Some("stdin") | Some("stdout") | Some("stderr")
                        );
                        if (t.text == "lock" || t.text == "try_lock") && !std_stream {
                            self.findings.push(Finding {
                                kind: FindingKind::UnknownLock,
                                file: path.to_string(),
                                line: t.line,
                                message: format!(
                                    "`.{}()` on `{}` which LOCK_ORDER.toml does not declare",
                                    t.text,
                                    receiver.as_deref().unwrap_or("<expr>"),
                                ),
                            });
                        }
                        i += 3;
                        continue;
                    }
                }
            }
            // Plain call: `name(` — record for propagation and blocking.
            if i < close
                && toks[i + 1].is_punct('(')
                && !KEYWORDS.contains(&t.text.as_str())
                && !ACQ_METHODS.contains(&t.text.as_str())
            {
                let is_macro = i > 0 && toks[i - 1].is_punct('!');
                let is_method = i > open && toks[i - 1].is_punct('.');
                if !is_macro {
                    let receiver = if is_method {
                        receiver_of(toks, open_of, i - 1)
                    } else {
                        None
                    };
                    self.fns[fn_id].callees.insert(t.text.clone());
                    if let Some(spec) = self.manifest.blocking.iter().position(|b| {
                        b.method == t.text
                            && (b.receiver == "*"
                                || receiver.as_deref() == Some(b.receiver.as_str()))
                    }) {
                        self.fns[fn_id].direct_blocking.insert(spec);
                        // Direct hit recorded with its own held set below.
                    }
                    if !guards.is_empty() {
                        self.calls.push(CallEvent {
                            callee: t.text.clone(),
                            receiver,
                            held: guards
                                .iter()
                                .map(|g| (g.lock, g.exclusive, g.line))
                                .collect(),
                            file: path.to_string(),
                            line: t.line,
                            fn_id,
                        });
                    }
                }
            }
            i += 1;
        }
    }

    fn finish(mut self) -> Analysis {
        // Fixpoint: transitive acquisitions and blocking hits per fn,
        // resolving callees to unique same-crate function names.
        let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            by_name
                .entry((f.crate_name.clone(), f.name.clone()))
                .or_default()
                .push(id);
        }
        let resolve = |caller: usize, callee: &str, fns: &[FnInfo]| -> Option<usize> {
            if CALL_STOPLIST.contains(&callee) {
                return None;
            }
            let key = (fns[caller].crate_name.clone(), callee.to_string());
            match by_name.get(&key) {
                Some(ids) if ids.len() == 1 => Some(ids[0]),
                _ => None,
            }
        };

        let mut trans_acq: Vec<BTreeSet<(usize, bool)>> =
            self.fns.iter().map(|f| f.direct.clone()).collect();
        let mut trans_blocking: Vec<BTreeSet<usize>> =
            self.fns.iter().map(|f| f.direct_blocking.clone()).collect();
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                let callees: Vec<usize> = self.fns[id]
                    .callees
                    .iter()
                    .filter_map(|c| resolve(id, c, &self.fns))
                    .collect();
                for c in callees {
                    if c == id {
                        continue;
                    }
                    let add: Vec<_> = trans_acq[c].difference(&trans_acq[id]).cloned().collect();
                    if !add.is_empty() {
                        trans_acq[id].extend(add);
                        changed = true;
                    }
                    let addb: Vec<_> = trans_blocking[c]
                        .difference(&trans_blocking[id])
                        .cloned()
                        .collect();
                    if !addb.is_empty() {
                        trans_blocking[id].extend(addb);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Call events: propagate held sets into resolved callees' locks,
        // and check blocking specs (direct textual hits plus transitive).
        let calls = std::mem::take(&mut self.calls);
        for ev in &calls {
            let mut blocking_hits: BTreeSet<usize> = self
                .manifest
                .blocking
                .iter()
                .enumerate()
                .filter(|(_, b)| {
                    b.method == ev.callee
                        && (b.receiver == "*"
                            || ev.receiver.as_deref() == Some(b.receiver.as_str()))
                })
                .map(|(i, _)| i)
                .collect();
            if let Some(callee) = resolve(ev.fn_id, &ev.callee, &self.fns) {
                blocking_hits.extend(trans_blocking[callee].iter().cloned());
                for &(lock, excl) in &trans_acq[callee] {
                    for &(from, from_excl, from_line) in &ev.held {
                        self.edges.insert(Edge {
                            from,
                            from_excl,
                            to: lock,
                            to_excl: excl,
                            file: ev.file.clone(),
                            line: ev.line,
                            note: format!(
                                "held since line {from_line}, acquired inside `{}`",
                                ev.callee
                            ),
                        });
                    }
                }
            }
            for spec_idx in blocking_hits {
                let spec = &self.manifest.blocking[spec_idx];
                for &(lock, _, from_line) in &ev.held {
                    let name = &self.manifest.locks[lock].name;
                    if !spec.allow.contains(name) {
                        self.findings.push(Finding {
                            kind: FindingKind::HeldAcrossBlocking,
                            file: ev.file.clone(),
                            line: ev.line,
                            message: format!(
                                "`{}` (held since line {from_line}) is held across blocking \
                                 call `{}`; only {:?} may be held here",
                                name, spec.name, spec.allow
                            ),
                        });
                    }
                }
            }
        }

        // Diff every observed edge against the lattice.
        let locks = &self.manifest.locks;
        for e in &self.edges {
            let (from, to) = (&locks[e.from], &locks[e.to]);
            let reentrant_read = e.from == e.to && !e.from_excl && !e.to_excl;
            let ascends = from.rank < to.rank;
            if ascends || reentrant_read || self.manifest.edge_allowed(&from.name, &to.name) {
                continue;
            }
            let shape = if e.from == e.to {
                "re-acquired".to_string()
            } else {
                format!("rank {} -> {}", from.rank, to.rank)
            };
            self.findings.push(Finding {
                kind: FindingKind::Inversion,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "acquiring `{}` while holding `{}` ({shape}; {}); ranks must strictly \
                     ascend — fix the order or add an [[allow]] with a reason",
                    to.name, from.name, e.note
                ),
            });
        }

        self.findings.sort_by(|a, b| {
            (&a.file, a.line, format!("{}", a.kind), &a.message).cmp(&(
                &b.file,
                b.line,
                format!("{}", b.kind),
                &b.message,
            ))
        });
        self.findings
            .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);

        Analysis {
            files_scanned: self.files_scanned,
            edges: self.edges.len(),
            acquisitions: self.acquisitions,
            findings: std::mem::take(&mut self.findings),
        }
    }
}

/// Walk back from the `.` of a method call to the receiver identifier,
/// hopping over one balanced `(...)`/`[...]` group (accessor calls and
/// index expressions).
fn receiver_of(toks: &[Token], open_of: &[Option<usize>], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if toks[j].is_punct(')') || toks[j].is_punct(']') {
        j = open_of[j]?;
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

/// Walk back from the `.` of an acquisition to the start of its receiver
/// chain, then classify the binding context. Returns
/// `(binding, attach_next_block, stmt_temp)`.
fn binding_of(
    toks: &[Token],
    open_of: &[Option<usize>],
    dot: usize,
) -> (Option<String>, bool, bool) {
    // Find the head of the chain: idents, `.`/`::` separators, and
    // balanced groups.
    let mut j = dot;
    loop {
        if j == 0 {
            return (None, false, true);
        }
        let prev = &toks[j - 1];
        let path_keyword = ["self", "Self", "crate", "super"].contains(&prev.text.as_str());
        if prev.kind == TokKind::Ident && KEYWORDS.contains(&prev.text.as_str()) && !path_keyword {
            break; // `match`, `return`, …: not a path segment, the chain starts here
        } else if prev.kind == TokKind::Ident || prev.is_punct('.') || prev.is_punct(':') {
            j -= 1;
        } else if prev.is_punct(')') || prev.is_punct(']') {
            match open_of[j - 1] {
                Some(o) => j = o,
                None => return (None, false, true),
            }
        } else {
            break;
        }
    }
    // `j` is the chain head; look at what precedes it.
    if j == 0 {
        return (None, false, true);
    }
    let before = &toks[j - 1];
    if before.is_ident("match") {
        // Scrutinee temporary: lives through the match block.
        return (None, true, false);
    }
    if !before.is_punct('=') {
        // Argument position, `return`, operator chain, ... — a statement
        // temporary.
        return (None, false, true);
    }
    // `... = <chain>.lock()`; find the bound name and whether this is an
    // `if let` / `while let` (scrutinee lives through the block).
    let mut k = j - 1; // at `=`
    let mut name = None;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(')') {
            // `Some(g)` / `Ok(mut g)` destructuring: first ident inside.
            if let Some(o) = open_of[k] {
                let inner = toks[o + 1..k]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut"));
                if let Some(inner) = inner {
                    name = Some(inner.text.clone());
                }
                k = o;
            }
            continue;
        }
        if t.kind == TokKind::Ident && !t.is_ident("let") {
            // The first name wins: walking on from `(g)` this is the
            // pattern's constructor (`Some`, `Ok`), not a binding.
            if !t.is_ident("mut") && name.is_none() {
                name = Some(t.text.clone());
            }
            continue;
        }
        if t.is_ident("let") {
            let in_cond = k > 0 && (toks[k - 1].is_ident("if") || toks[k - 1].is_ident("while"));
            return (name, in_cond, false);
        }
        break;
    }
    // Assignment to an existing slot (`g = x.lock()`): scope-bound.
    (name, false, false)
}

/// Compute matching-bracket tables for `()`, `[]`, `{}`.
/// Returns `(open_of_closer, close_of_opener)`.
fn match_brackets(toks: &[Token]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut open_of = vec![None; toks.len()];
    let mut close_of = vec![None; toks.len()];
    let mut stack: Vec<(u8, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_bytes()[0] {
            b @ (b'(' | b'[' | b'{') => stack.push((b, i)),
            b')' => pop_match(&mut stack, b'(', i, &mut open_of, &mut close_of),
            b']' => pop_match(&mut stack, b'[', i, &mut open_of, &mut close_of),
            b'}' => pop_match(&mut stack, b'{', i, &mut open_of, &mut close_of),
            _ => {}
        }
    }
    (open_of, close_of)
}

fn pop_match(
    stack: &mut Vec<(u8, usize)>,
    want: u8,
    closer: usize,
    open_of: &mut [Option<usize>],
    close_of: &mut [Option<usize>],
) {
    // Tolerate mismatches (macro-heavy code): unwind to the wanted kind.
    while let Some((kind, at)) = stack.pop() {
        if kind == want {
            open_of[closer] = Some(at);
            close_of[at] = Some(closer);
            return;
        }
    }
}

/// Mark token ranges excluded from analysis: `#[cfg(test)]` and
/// `#[test]` items (whole `mod tests { .. }` blocks included).
fn excluded_ranges(toks: &[Token], close_of: &[Option<usize>]) -> Vec<bool> {
    let mut excluded = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = close_of[i + 1];
            if let Some(close) = close {
                let body = &toks[i + 2..close];
                let is_test_attr = body.len() == 1 && body[0].is_ident("test");
                let is_cfg_test = body.len() >= 4
                    && body[0].is_ident("cfg")
                    && body[1].is_punct('(')
                    && body[2].is_ident("test")
                    && body[3].is_punct(')');
                if is_test_attr || is_cfg_test {
                    // Exclude from the attribute through the end of the
                    // decorated item (next `;` or balanced `{..}` at
                    // paren depth 0, skipping further attributes).
                    let mut j = close + 1;
                    while j < toks.len() {
                        if toks[j].is_punct('#') && j + 1 < toks.len() && toks[j + 1].is_punct('[')
                        {
                            j = close_of[j + 1].map(|c| c + 1).unwrap_or(j + 1);
                            continue;
                        }
                        if toks[j].is_punct(';') {
                            break;
                        }
                        if toks[j].is_punct('(') || toks[j].is_punct('{') {
                            let c = close_of[j].unwrap_or(toks.len() - 1);
                            if toks[j].is_punct('{') {
                                j = c;
                                break;
                            }
                            j = c + 1;
                            continue;
                        }
                        j += 1;
                    }
                    let end = j.min(toks.len() - 1);
                    for slot in excluded.iter_mut().take(end + 1).skip(i) {
                        *slot = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    excluded
}

fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(c) = parts.next() {
            return c.to_string();
        }
    }
    "root".to_string()
}
