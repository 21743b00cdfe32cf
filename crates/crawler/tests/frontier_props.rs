//! Property test of the frontier's write paths: random interleavings of
//! every public `frontier` operation — the maintenance requeue
//! included — against a `BTreeMap<Oid, row>` model. After each
//! operation the `CRAWL` table equals the model, both of its indexes
//! hold exactly one entry per row (each row reachable
//! through each index under the key its current values encode to) and
//! pass `BTree::validate`, and claims come out in the paper's
//! `(numtries, −log R, serverload)` order.
//!
//! The generator leans on the corners the hand-written mutators used to
//! each get right on their own: duplicate oids inside one upsert batch,
//! empty batches, rows in all four `visited` states, parked rows, oids
//! whose key order differs from their numeric order, URLs that grow at
//! `mark_done` (the row no longer fits its slot and moves, so both
//! indexes must follow it), and operations aimed at rows in the wrong
//! state, which must refuse and change nothing.

use focus_crawler::frontier::{
    self, Admission, BatchUpsert, Claim, FailDisposition, FailureUpdate, FrontierEntry,
};
use focus_crawler::tables::{create_tables, visited};
use focus_types::Oid;
use minirel::{Database, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One `CRAWL` row as the model keeps it. `negrel` is `−relevance`
/// except on a requeued revisit, which keeps the page's own relevance
/// and sits at the top priority.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    url: String,
    kcid: i64,
    numtries: i64,
    relevance: f64,
    negrel: f64,
    serverload: i64,
    lastvisited: i64,
    visited: i64,
    not_before: i64,
}

impl Row {
    fn values(&self, oid: u64) -> Vec<Value> {
        vec![
            Value::Int(oid as i64),
            Value::Str(self.url.clone()),
            Value::Int(self.kcid),
            Value::Int(self.numtries),
            Value::Float(self.relevance),
            Value::Float(self.negrel),
            Value::Int(self.serverload),
            Value::Int(self.lastvisited),
            Value::Int(self.visited),
            Value::Int(self.not_before),
        ]
    }

    /// The frontier index's order below its `visited` prefix.
    fn priority_cmp(&self, other: &Row) -> Ordering {
        (self.numtries.cmp(&other.numtries))
            .then(self.negrel.total_cmp(&other.negrel))
            .then(self.serverload.cmp(&other.serverload))
    }

    /// A new priority, mirrored in both columns.
    fn set_relevance(&mut self, log_relevance: f64) {
        self.relevance = log_relevance;
        self.negrel = -log_relevance;
    }
}

type Model = BTreeMap<u64, Row>;

/// A small oid universe so operations collide; every eighth oid has its
/// top bit set, which sorts *first* in the index's signed key order.
fn oid(pick: u64) -> u64 {
    let i = pick % 24;
    if i % 8 == 7 {
        u64::MAX - i
    } else {
        i + 1
    }
}

/// Log-relevance from a coarse grid, so equal priorities are common.
fn rel(pick: i64) -> f64 {
    -(pick.rem_euclid(6) as f64) / 4.0
}

/// One generated step: an operation selector plus raw material the
/// operation interprets (oids to aim at, two small integers, a flag).
#[derive(Debug, Clone)]
struct Step {
    kind: u32,
    picks: Vec<u64>,
    a: i64,
    b: i64,
    flag: bool,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u32..12,
        proptest::collection::vec(0u64..1000, 0..7),
        (0i64..40, 0i64..7, any::<bool>()),
    )
        .prop_map(|(kind, picks, (a, b, flag))| Step {
            kind,
            picks,
            a,
            b,
            flag,
        })
}

/// Distinct oids to operate on: rows in `state` when there are any (so
/// state-checked operations mostly succeed); an arbitrary oid first
/// when `stray` (so they also meet rows they must refuse).
fn aim(model: &Model, state: i64, picks: &[u64], stray: bool) -> Vec<u64> {
    let in_state: Vec<u64> = (model.iter())
        .filter(|(_, r)| r.visited == state)
        .map(|(&o, _)| o)
        .collect();
    let mut out: Vec<u64> = Vec::new();
    for (i, &p) in picks.iter().enumerate() {
        let o = if in_state.is_empty() || (stray && i == 0) {
            oid(p)
        } else {
            in_state[p as usize % in_state.len()]
        };
        if !out.contains(&o) {
            out.push(o);
        }
    }
    out
}

/// The table equals the model, and each index is exactly the table.
fn check(db: &Database, model: &Model) -> Result<(), TestCaseError> {
    let (pool, catalog) = db.parts();
    let tid = catalog.table_id("crawl").unwrap();
    let mut got = catalog.scan_rows(pool, tid, None).unwrap();
    got.sort_by_key(|row| row[0].as_i64().unwrap() as u64);
    let want: Vec<Vec<Value>> = model.iter().map(|(&o, r)| r.values(o)).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(catalog.table(tid).indexes.len(), 2);
    if let Err(e) = db.check_integrity() {
        prop_assert!(false, "{e}");
    }
    Ok(())
}

/// `upsert_batch`: per oid the first occurrence's url/serverload and
/// the best endorsement; an absent row is created, a `FRONTIER` row is
/// raised only upward, anything else is left alone.
fn upsert(db: &mut Database, model: &mut Model, s: &Step) -> Result<(), TestCaseError> {
    let items: Vec<FrontierEntry> = (s.picks.iter().enumerate())
        .map(|(i, &p)| FrontierEntry {
            oid: Oid(oid(p)),
            url: match p % 5 {
                0 => String::new(),
                _ => format!("u{}-{i}", oid(p)),
            },
            log_relevance: rel(p as i64 / 24 + s.a),
            serverload: (p as i64 / 7 + s.b) % 3,
        })
        .collect();
    let mut merged: Vec<FrontierEntry> = Vec::new();
    for e in &items {
        match merged.iter_mut().find(|m| m.oid == e.oid) {
            Some(m) => m.log_relevance = m.log_relevance.max(e.log_relevance),
            None => merged.push(e.clone()),
        }
    }
    let mut want = BatchUpsert::default();
    for e in merged {
        match model.get_mut(&e.oid.raw()) {
            None => {
                want.created += 1;
                model.insert(
                    e.oid.raw(),
                    Row {
                        url: e.url,
                        kcid: -1,
                        numtries: 0,
                        relevance: e.log_relevance,
                        negrel: -e.log_relevance,
                        serverload: e.serverload,
                        lastvisited: 0,
                        visited: visited::FRONTIER,
                        not_before: 0,
                    },
                );
            }
            Some(row) if row.visited == visited::FRONTIER && e.log_relevance > -row.negrel => {
                want.raised += 1;
                row.set_relevance(e.log_relevance);
            }
            Some(_) => {}
        }
    }
    prop_assert_eq!(frontier::upsert_batch(db, &items).unwrap(), want);
    Ok(())
}

/// `claim_batch_where`: each row is shown to the gate at most once, and
/// only a due frontier row; what comes back is due, claimed by the
/// gate, best first, and nothing better was passed over; a parked row
/// stays in the frontier with its `not_before`; when it comes back short
/// the parked/deferred tallies are exact.
fn claim(db: &mut Database, model: &mut Model, s: &Step) -> Result<(), TestCaseError> {
    let n = s.picks.len();
    let now = s.a / 4;
    // Now and then defer one residue class of oids (politeness) and park
    // another (a breaker), until a tick that may lie behind `now`.
    let until = now + s.b - 3;
    let verdict = |o: u64| match (s.flag, (o + s.b as u64) % 3) {
        (true, 0) => Admission::Defer,
        (true, 1) => Admission::Park { until },
        _ => Admission::Claim,
    };
    let mut shown: BTreeMap<u64, usize> = BTreeMap::new();
    let out = frontier::claim_batch_where(db, n, now, |c| {
        *shown.entry(c.oid.raw()).or_default() += 1;
        verdict(c.oid.raw())
    })
    .unwrap();
    prop_assert!(out.claims.len() <= n);
    let due = |r: &Row| r.visited == visited::FRONTIER && r.not_before <= now;
    for (&o, &times) in &shown {
        prop_assert_eq!(times, 1, "oid {} shown to the gate {} times", o, times);
        let row = model.get(&o);
        prop_assert!(
            row.is_some_and(due),
            "shown a row that is not due: {o} {row:?}"
        );
    }
    let is = |want: Admission| move |o: &&u64| verdict(**o) == want;
    prop_assert_eq!(
        out.deferred,
        shown.keys().filter(is(Admission::Defer)).count()
    );
    for o in shown.keys().filter(is(Admission::Park { until })) {
        model.get_mut(o).unwrap().not_before = until.max(now + 1);
    }
    let eligible = |o: u64, r: &Row| due(r) && verdict(o) == Admission::Claim;
    let mut worst: Option<Row> = None;
    for c in &out.claims {
        let o = c.oid.raw();
        let row = model.get(&o).cloned();
        prop_assert!(row.is_some(), "claimed unknown oid {o}");
        let row = row.unwrap();
        prop_assert!(eligible(o, &row), "claimed ineligible row {o}: {row:?}");
        prop_assert_eq!(&c.url, &row.url);
        prop_assert_eq!(c.numtries, row.numtries);
        prop_assert_eq!(c.log_relevance, row.relevance);
        if let Some(w) = &worst {
            prop_assert!(
                w.priority_cmp(&row) != Ordering::Greater,
                "claims out of priority order at {o}"
            );
        }
        worst = Some(row);
        // Claimed on the spot, so an oid popped twice fails the check above.
        let row = model.get_mut(&o).unwrap();
        row.visited = visited::CLAIMED;
        row.not_before = 0;
    }
    // Whatever eligible work is left must not beat the worst claim.
    let left: Vec<&Row> = (model.iter())
        .filter(|(&o, r)| eligible(o, r))
        .map(|(_, r)| r)
        .collect();
    if out.claims.len() < n {
        prop_assert!(left.is_empty(), "short claim left eligible rows behind");
        let frontier = || model.values().filter(|r| r.visited == visited::FRONTIER);
        let parked = frontier().filter(|r| r.not_before > now).count();
        prop_assert_eq!(out.parked, parked);
        let deferred = frontier().filter(|r| r.not_before <= now).count();
        prop_assert_eq!(out.deferred, deferred);
    } else if let Some(w) = &worst {
        for r in left {
            prop_assert!(
                r.priority_cmp(w) != Ordering::Less,
                "a better row was passed over: {r:?} beats {w:?}"
            );
        }
    }
    Ok(())
}

fn claim_of(oid: u64) -> Claim {
    Claim {
        oid: Oid(oid),
        url: String::new(),
        numtries: 0,
        log_relevance: 0.0,
    }
}

fn apply(db: &mut Database, model: &mut Model, s: &Step) -> Result<(), TestCaseError> {
    match s.kind {
        0..=2 => upsert(db, model, s)?,
        3..=4 => claim(db, model, s)?,
        // Unclaim / park: all-or-nothing, only `CLAIMED` rows qualify.
        5 | 6 => {
            let oids = aim(model, visited::CLAIMED, &s.picks, s.a % 5 == 0);
            let until = s.a;
            let res = if s.kind == 5 {
                let claims: Vec<Claim> = oids.iter().map(|&o| claim_of(o)).collect();
                frontier::unclaim_batch(db, &claims)
            } else {
                let parks: Vec<(Oid, i64)> = oids.iter().map(|&o| (Oid(o), until)).collect();
                frontier::park_batch(db, &parks)
            };
            let claimed = |o: &u64| (model.get(o)).is_some_and(|r| r.visited == visited::CLAIMED);
            prop_assert_eq!(res.is_ok(), oids.iter().all(claimed), "{res:?}");
            if res.is_ok() {
                for o in &oids {
                    let row = model.get_mut(o).unwrap();
                    row.visited = visited::FRONTIER;
                    if s.kind == 6 {
                        row.not_before = until;
                    }
                }
            }
        }
        // mark_done: the URL may grow far past the row's slot.
        7 | 8 => {
            let Some(&o) = aim(model, visited::CLAIMED, &s.picks, s.a % 5 == 0).first() else {
                return Ok(());
            };
            let url = match s.b {
                0 => String::new(),
                b => format!("http://h{o}.example/{}", "x".repeat(300 * b as usize)),
            };
            let res = frontier::mark_done(db, Oid(o), &url, rel(s.a), s.b, s.a);
            prop_assert_eq!(res.is_ok(), model.contains_key(&o), "{res:?}");
            if let Some(row) = model.get_mut(&o) {
                row.kcid = s.b;
                row.set_relevance(rel(s.a));
                row.lastvisited = s.a;
                row.visited = visited::DONE;
                if !url.is_empty() {
                    row.url = url;
                }
            }
        }
        // mark_failed_batch: requeue parked, or die.
        9 => {
            let oids = aim(model, visited::CLAIMED, &s.picks, s.a % 5 == 0);
            let max_tries = 1 + s.b % 3;
            let items: Vec<FailureUpdate> = (oids.iter().enumerate())
                .map(|(i, &o)| FailureUpdate {
                    oid: Oid(o),
                    retriable: (i + s.flag as usize) % 3 != 1,
                    not_before: s.a / 2,
                })
                .collect();
            let res = frontier::mark_failed_batch(db, &items, max_tries);
            let known = oids.iter().all(|o| model.contains_key(o));
            prop_assert_eq!(res.is_ok(), known, "{res:?}");
            if let Ok(dispositions) = res {
                prop_assert_eq!(dispositions.len(), items.len());
                for (item, got) in items.iter().zip(dispositions) {
                    let row = model.get_mut(&item.oid.raw()).unwrap();
                    row.numtries += 1;
                    let want = if item.retriable && row.numtries < max_tries {
                        row.visited = visited::FRONTIER;
                        row.not_before = item.not_before;
                        FailDisposition::Retried {
                            not_before: item.not_before,
                        }
                    } else {
                        row.visited = visited::DEAD;
                        row.not_before = 0;
                        FailDisposition::Dead
                    };
                    prop_assert_eq!(got, want);
                }
            }
        }
        // set_visited_relevance: fetched rows (`kcid ≥ 0`) take the new
        // relevance, and only a `DONE` row's priority moves with it;
        // unknown oids and unfetched rows are skipped.
        10 => {
            let oids = aim(model, visited::DONE, &s.picks, s.flag);
            let items: Vec<(Oid, f64)> = (oids.iter().enumerate())
                .map(|(i, &o)| (Oid(o), rel(s.a + i as i64)))
                .collect();
            frontier::set_visited_relevance(db, &items).unwrap();
            for (o, r) in items {
                match model.get_mut(&o.raw()) {
                    Some(row) if row.visited == visited::DONE => row.set_relevance(r),
                    Some(row) if row.kcid >= 0 => row.relevance = r,
                    _ => {}
                }
            }
        }
        // requeue_done: `DONE` rows go back to the frontier at the top
        // priority, keeping what the fetch learned; other states and
        // unknown oids are left alone. The next claim is one of them
        // (or a row that ties with them).
        _ => {
            let oids = aim(model, visited::DONE, &s.picks, s.flag);
            let targets: Vec<Oid> = oids.iter().map(|&o| Oid(o)).collect();
            let mut requeued = Vec::new();
            for o in &oids {
                if let Some(row) = model.get_mut(o).filter(|r| r.visited == visited::DONE) {
                    row.visited = visited::FRONTIER;
                    row.numtries = 0;
                    row.not_before = 0;
                    row.negrel = -0.0;
                    requeued.push(row.clone());
                }
            }
            let n = frontier::requeue_done(db, &targets).unwrap();
            prop_assert_eq!(n, requeued.len());
            if let Some(revisit) = requeued.first() {
                check(db, model)?;
                let out = frontier::claim_batch_where(db, 1, 0, |_| true).unwrap();
                prop_assert_eq!(out.claims.len(), 1, "a requeued row is due at once");
                let popped = model.get_mut(&out.claims[0].oid.raw()).unwrap();
                prop_assert!(
                    popped.visited == visited::FRONTIER
                        && popped.priority_cmp(revisit) != Ordering::Greater,
                    "{popped:?} popped ahead of the requeued {revisit:?}"
                );
                popped.visited = visited::CLAIMED;
                popped.not_before = 0;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_interleaving_leaves_table_and_indexes_equal_to_the_model(
        steps in proptest::collection::vec(step(), 20..80),
    ) {
        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        let mut model = Model::new();
        for (i, s) in steps.iter().enumerate() {
            if let Err(TestCaseError::Fail(msg)) = apply(&mut db, &mut model, s)
                .and_then(|()| check(&db, &model))
            {
                prop_assert!(false, "step {i} {s:?}: {msg}");
            }
        }
    }
}
