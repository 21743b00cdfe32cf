//! Frontier management over the `CRAWL` table.
//!
//! "An important aspect of this work is the design of flexible schemes for
//! crawl frontier management" (§1.3). Work is checked out through the
//! `(visited, numtries, negrel, serverload)` B+tree index — the paper's
//! aggressive-discovery order — and every state change flows through the
//! catalog so index and heap stay consistent (the "reinvented wheel" §3.1
//! credits the DBMS for).
//!
//! The module touches storage in exactly three shapes:
//!
//! * **keyed rewrite** — `rewrite`, the one write path for rows
//!   addressed by oid: order the batch by oid key, one `lookup_many`
//!   over `crawl_oid` (one descent for the whole batch, reading each
//!   B+tree node on the keys' paths once), one heap read per hit, each
//!   staged in a [`minirel::RowBatch`] as its edit leaves it. Every
//!   mutator below ([`upsert_batch`], [`unclaim_batch`], [`park_batch`],
//!   [`mark_done`], [`mark_failed_batch`], [`set_visited_relevance`],
//!   [`requeue_done`]) is a closure over it that is shown the stored
//!   row (or its absence), changes it in place and answers whether to
//!   store it;
//! * **batch insert** — the rows a rewrite fills in for oids that have
//!   no row yet land in the same batch, before its replacements;
//! * **range-pop claim** — [`claim_batch_where`]: one walk of the
//!   frontier index from its front ([`minirel::RowBatch::scan_from`])
//!   that shows each due row to the caller's gate once and stages what
//!   the gate answers — `CLAIMED`, or a park's `not_before` — in one
//!   batch.
//!
//! Rows are decoded into, and staged from, rows the catalog keeps, so a
//! batch allocates only what its caller keeps (a [`Claim`]'s URL). A
//! closure's refusal (`Err`) comes before the first write, so a batch
//! either lands whole or changes nothing.
//!
//! A **revisit** (§3.2 crawl maintenance) is not a fourth shape: it is a
//! fetched row that [`requeue_done`] put back in the frontier, claimed,
//! failed or marked done like any other. Such a row keeps what its first
//! visit learned — `kcid ≥ 0` says it was fetched, `relevance` stays the
//! page's own log R — and only `negrel`, the column the frontier index
//! orders by, carries the revisit's priority.

use crate::tables::{crawl_col, frontier_row_into, visited};
use focus_types::Oid;
use minirel::value::{int_key, Row};
use minirel::{Database, DbError, DbResult, Value};

/// A claimed unit of work.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Page to fetch.
    pub oid: Oid,
    /// Its URL.
    pub url: String,
    /// Fetch attempts so far.
    pub numtries: i64,
    /// Stored log-relevance priority.
    pub log_relevance: f64,
}

/// One frontier upsert in a batch (an outlink endorsement, a seed, or a
/// distiller boost).
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// Page to enqueue.
    pub oid: Oid,
    /// Its URL ("" when only the oid is known, e.g. distiller boosts).
    pub url: String,
    /// Priority: log R of the endorsing parent (0.0 = top).
    pub log_relevance: f64,
    /// Per-server fetch count at insert time.
    pub serverload: i64,
}

/// What a batch upsert did, in aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchUpsert {
    /// New frontier rows created.
    pub created: usize,
    /// Existing unvisited rows whose priority rose.
    pub raised: usize,
}

impl BatchUpsert {
    /// Rows whose frontier priority actually changed.
    pub fn changed(&self) -> usize {
        self.created + self.raised
    }
}

/// Strictly decode one column; a mistyped value is storage corruption,
/// not a default (a fabricated `Oid(0)` or `""` would silently poison
/// claims, checkpoints, and events downstream). Shared with the
/// loader in [`crate::session`], which reads whole tables.
pub(crate) fn col_i64(row: &[Value], col: usize, what: &str) -> DbResult<i64> {
    row[col]
        .as_i64()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected int, got {}", row[col])))
}

pub(crate) fn col_f64(row: &[Value], col: usize, what: &str) -> DbResult<f64> {
    row[col]
        .as_f64()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected float, got {}", row[col])))
}

pub(crate) fn col_str<'a>(row: &'a [Value], col: usize, what: &str) -> DbResult<&'a str> {
    row[col]
        .as_str()
        .ok_or_else(|| DbError::Corrupt(format!("crawl.{what}: expected text, got {}", row[col])))
}

/// Strictly decode a frontier row into a [`Claim`].
fn decode_claim(row: &[Value]) -> DbResult<Claim> {
    Ok(Claim {
        oid: Oid(col_i64(row, crawl_col::OID, "oid")? as u64),
        url: col_str(row, crawl_col::URL, "url")?.to_owned(),
        numtries: col_i64(row, crawl_col::NUMTRIES, "numtries")?,
        log_relevance: col_f64(row, crawl_col::RELEVANCE, "relevance")?,
    })
}

/// Give `row` a new priority (`relevance` and its index mirror `negrel`).
fn set_relevance(row: &mut [Value], log_relevance: f64) {
    row[crawl_col::RELEVANCE] = Value::Float(log_relevance);
    row[crawl_col::NEGREL] = Value::Float(-log_relevance);
}

/// An oid's `crawl_oid` key, and the position of its oid in a batch.
struct Keyed([u8; 9], usize);

impl AsRef<[u8]> for Keyed {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The keyed rewrite: the one write path for `CRAWL` rows addressed by
/// oid. The `i`-th oid is shown to `edit(i, row, stored)`: when
/// `stored`, `row` holds the oid's stored row, which `edit` may change
/// in place; otherwise `row` is a row the catalog keeps, holding what an
/// earlier edit left, which `edit` overwrites whole
/// ([`frontier_row_into`]) to create one. `edit` answers whether to
/// store `row`. Oids must be distinct.
///
/// One ordered pass: sort by oid key, one `lookup_many` over
/// `crawl_oid`, one heap read per hit; then the new rows land and the
/// replacements are written through one [`minirel::RowBatch`]. Every
/// `edit` runs before the first write, so an `Err` from it leaves the
/// table untouched. Returns `(rows created, rows replaced)`.
fn rewrite(
    db: &mut Database,
    oids: impl Iterator<Item = Oid>,
    mut edit: impl FnMut(usize, &mut Row, bool) -> DbResult<bool>,
) -> DbResult<(usize, usize)> {
    let mut keyed: Vec<Keyed> = (oids.enumerate())
        .map(|(i, oid)| Keyed(int_key(oid.raw() as i64), i))
        .collect();
    if keyed.is_empty() {
        return Ok((0, 0));
    }
    keyed.sort_unstable_by_key(|k| k.0);
    let tid = db.table_id("crawl")?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(tid, &[crawl_col::OID])
        .ok_or_else(|| DbError::Catalog("crawl lacks oid index".into()))?;
    let mut batch = catalog.batch(pool, tid);
    batch.lookup_many(idx, &keyed)?;
    let (mut created, mut replaced) = (0, 0);
    for (n, &Keyed(_, i)) in keyed.iter().enumerate() {
        match batch.found(n).first().copied() {
            None => created += usize::from(batch.insert_with(|row| edit(i, row, false))?),
            Some(rid) => replaced += usize::from(batch.update_with(rid, |row| edit(i, row, true))?),
        }
    }
    batch.write()?;
    Ok((created, replaced))
}

/// Batch upsert: the whole outlink set of a page (or a seed batch) in
/// one keyed `rewrite` — an oid with no row yet gets a fresh frontier
/// row, an unvisited row whose priority the endorsement beats is
/// raised, anything else (visited, claimed, dead, or no improvement) is
/// left alone.
///
/// Duplicate oids within the batch collapse to the per-link sequential
/// semantics: the first occurrence's url/serverload win, the priority is
/// the maximum endorsement.
pub fn upsert_batch(db: &mut Database, items: &[FrontierEntry]) -> DbResult<BatchUpsert> {
    // `(item, best endorsement)`, one per oid, in oid order.
    let mut merged: Vec<(usize, f64)> = (items.iter().enumerate())
        .map(|(i, e)| (i, e.log_relevance))
        .collect();
    merged.sort_unstable_by_key(|&(i, _)| (items[i].oid, i));
    merged.dedup_by(|later, first| {
        let same = items[later.0].oid == items[first.0].oid;
        if same {
            first.1 = first.1.max(later.1);
        }
        same
    });
    let oids = merged.iter().map(|&(i, _)| items[i].oid);
    let (created, raised) = rewrite(db, oids, |m, row, stored| {
        let (e, best) = (&items[merged[m].0], merged[m].1);
        if !stored {
            frontier_row_into(row, e.oid, &e.url, best, e.serverload);
            return Ok(true);
        }
        let state = col_i64(row, crawl_col::VISITED, "visited")?;
        // The priority to beat is the one the frontier index orders by
        // (`relevance` mirrors it, except on a requeued revisit, which
        // sits at the top and is never raised).
        let old = -col_f64(row, crawl_col::NEGREL, "negrel")?;
        let raise = state == visited::FRONTIER && best > old;
        if raise {
            set_relevance(row, best);
        }
        Ok(raise)
    })?;
    Ok(BatchUpsert { created, raised })
}

/// What a claim's gate makes of one due frontier row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Claim it: the row is marked `CLAIMED`.
    Claim,
    /// Leave it where it is, due, for a later claim.
    Defer,
    /// Park it: the row stays in the frontier, under the same index key,
    /// and is not due before `until` (nor before the next tick).
    Park {
        /// The tick the row is due again.
        until: i64,
    },
}

impl From<bool> for Admission {
    /// `true` claims the row, `false` defers it.
    fn from(claim: bool) -> Admission {
        match claim {
            true => Admission::Claim,
            false => Admission::Defer,
        }
    }
}

/// What a batch claim found: the claims, and how much of the frontier
/// it passed over. `parked` and `deferred` are exact when `claims` came
/// back short (the whole frontier range was walked) — exactly the case
/// where the caller needs them for its idle verdict — and lower bounds
/// otherwise.
#[derive(Debug, Default)]
pub struct ClaimOutcome {
    /// Due entries, best first, now marked `CLAIMED`.
    pub claims: Vec<Claim>,
    /// Frontier rows passed over because their `not_before` has not
    /// passed, and rows the gate parked ([`Admission::Park`]).
    pub parked: usize,
    /// Due rows the gate deferred ([`Admission::Defer`]: politeness, their
    /// server is saturated right now). They keep their frontier position
    /// untouched — near-future work, so the caller's idle verdict must
    /// count them like parked rows.
    pub deferred: usize,
}

/// Claim the `n` best *due* frontier entries (lowest `(numtries, −logR,
/// serverload)`) in one pass: one walk of the frontier index from its
/// front shows each due row to `gate` once, in priority order, and one
/// batch writes what the gate answered ([`Admission`]): a claimed row
/// flips to `CLAIMED`, a parked one gets its `not_before`, a deferred
/// one is left as it was. The walk stops at the `n`-th claim or the end
/// of the frontier range, so it returns fewer than `n` (possibly zero)
/// claims only when the due frontier runs short. Rows parked past `now`
/// are passed over without losing their place in the priority order.
///
/// This is how per-server politeness caps and breakers shape claiming
/// without the pop/park churn a round-trip through `CLAIMED` would cost:
/// a saturated server's rows simply wait their turn in the frontier. A
/// `bool` gate claims or defers.
pub fn claim_batch_where<G: Into<Admission>>(
    db: &mut Database,
    n: usize,
    now: i64,
    mut gate: impl FnMut(&Claim) -> G,
) -> DbResult<ClaimOutcome> {
    if n == 0 {
        return Ok(ClaimOutcome::default());
    }
    let mut out = ClaimOutcome {
        claims: Vec::with_capacity(n),
        ..ClaimOutcome::default()
    };
    let tid = db.table_id("crawl")?;
    let (pool, catalog) = db.parts_mut();
    let idx = catalog
        .find_index(
            tid,
            &[
                crawl_col::VISITED,
                crawl_col::NUMTRIES,
                crawl_col::NEGREL,
                crawl_col::SERVERLOAD,
            ],
        )
        .ok_or_else(|| DbError::Catalog("crawl lacks frontier index".into()))?;
    let mut batch = catalog.batch(pool, tid);
    batch.scan_from(idx, &int_key(visited::FRONTIER), |row| {
        if col_i64(row, crawl_col::VISITED, "visited")? != visited::FRONTIER {
            return Err(DbError::Corrupt(format!(
                "frontier index points at non-frontier row (oid {})",
                row[crawl_col::OID]
            )));
        }
        if col_i64(row, crawl_col::NOT_BEFORE, "not_before")? > now {
            out.parked += 1;
            return Ok((false, true));
        }
        let claim = decode_claim(row)?;
        match gate(&claim).into() {
            Admission::Claim => {
                out.claims.push(claim);
                row[crawl_col::VISITED] = Value::Int(visited::CLAIMED);
                row[crawl_col::NOT_BEFORE] = Value::Int(0);
                Ok((true, out.claims.len() < n))
            }
            Admission::Defer => {
                out.deferred += 1;
                Ok((false, true))
            }
            Admission::Park { until } => {
                out.parked += 1;
                row[crawl_col::NOT_BEFORE] = Value::Int(until.max(now + 1));
                Ok((true, true))
            }
        }
    })?;
    batch.write()?;
    Ok(out)
}

/// The stored row behind a claim its caller still holds. It must exist
/// and be `CLAIMED`; anything else means the caller's view of its own
/// claims is broken, so the whole batch is refused.
fn check_claimed(row: &[Value], stored: bool, oid: Oid, what: &str) -> DbResult<()> {
    if !stored {
        return Err(DbError::Corrupt(format!(
            "{what}: claimed row vanished ({oid})"
        )));
    }
    if col_i64(row, crawl_col::VISITED, "visited")? != visited::CLAIMED {
        return Err(DbError::Corrupt(format!("{what}: row not claimed ({oid})")));
    }
    Ok(())
}

/// Return claims to the frontier *unfetched* — a worker winding down on
/// `stop()` hands its not-yet-fetched batch remainder back, so the work
/// survives for the next run (or a checkpoint) instead of being fetched
/// after the administrator asked for a stop.
pub fn unclaim_batch(db: &mut Database, claims: &[Claim]) -> DbResult<()> {
    rewrite(db, claims.iter().map(|c| c.oid), |i, row, stored| {
        check_claimed(row, stored, claims[i].oid, "unclaim")?;
        row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
        Ok(true)
    })?;
    Ok(())
}

/// Return claims to the frontier *parked*: each row keeps its priority
/// and `numtries`, but cannot be popped again before its `not_before`
/// tick — the page was never fetched, so nothing else about the row
/// changes. For a caller that parks a claim it already holds; a claim's
/// gate parks a row it has not claimed in the claim's own pass
/// ([`Admission::Park`]).
pub fn park_batch(db: &mut Database, items: &[(Oid, i64)]) -> DbResult<()> {
    rewrite(db, items.iter().map(|&(oid, _)| oid), |i, row, stored| {
        let (oid, until) = items[i];
        check_claimed(row, stored, oid, "park")?;
        row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
        row[crawl_col::NOT_BEFORE] = Value::Int(until);
        Ok(true)
    })?;
    Ok(())
}

/// Record a successful fetch: relevance, best-leaf class, timestamps,
/// and the fetched URL (filled in for rows that entered the frontier by
/// oid alone) — one row rewrite.
pub fn mark_done(
    db: &mut Database,
    oid: Oid,
    url: &str,
    log_relevance: f64,
    kcid: i64,
    now_secs: i64,
) -> DbResult<()> {
    rewrite(db, std::iter::once(oid), |_, row, stored| {
        if !stored {
            return Err(DbError::Eval(format!(
                "mark_done: {oid} not in crawl table"
            )));
        }
        set_relevance(row, log_relevance);
        row[crawl_col::KCID] = Value::Int(kcid);
        row[crawl_col::LASTVISITED] = Value::Int(now_secs);
        row[crawl_col::VISITED] = Value::Int(visited::DONE);
        if !url.is_empty() {
            row[crawl_col::URL].set_str(url);
        }
        Ok(true)
    })?;
    Ok(())
}

/// One failed fetch in a batch. The caller has already made the backoff
/// decision — the session computes `not_before` from per-server health
/// and charges the retry budget inside its claim critical section, so
/// this layer only has to write rows.
#[derive(Debug, Clone, Copy)]
pub struct FailureUpdate {
    /// The page that failed.
    pub oid: Oid,
    /// Whether this failure may requeue (a timeout with retry budget
    /// left); hard 404s and budget-exhausted timeouts pass `false`.
    pub retriable: bool,
    /// Backoff: tick before which a requeued row must not be popped
    /// (0 = immediately poppable).
    pub not_before: i64,
}

/// What a failure did to the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailDisposition {
    /// Requeued for another attempt, poppable at `not_before`.
    Retried {
        /// Earliest tick the retry can be claimed.
        not_before: i64,
    },
    /// Marked dead: non-retriable, out of retry budget, or `max_tries`
    /// reached.
    Dead,
}

/// Record a batch of failed fetches in one keyed rewrite — a burst of
/// failures from one sick server is one critical section, not N row
/// rewrites. Each retriable row under `max_tries` requeues (numtries+1)
/// parked until its `not_before`; the rest die. Dispositions come back
/// aligned with `items`.
pub fn mark_failed_batch(
    db: &mut Database,
    items: &[FailureUpdate],
    max_tries: i64,
) -> DbResult<Vec<FailDisposition>> {
    let mut out = vec![FailDisposition::Dead; items.len()];
    rewrite(db, items.iter().map(|f| f.oid), |i, row, stored| {
        let FailureUpdate {
            oid,
            retriable,
            not_before,
        } = items[i];
        if !stored {
            return Err(DbError::Eval(format!(
                "mark_failed: {oid} not in crawl table"
            )));
        }
        let tries = col_i64(row, crawl_col::NUMTRIES, "numtries")? + 1;
        row[crawl_col::NUMTRIES] = Value::Int(tries);
        if retriable && tries < max_tries {
            row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
            row[crawl_col::NOT_BEFORE] = Value::Int(not_before);
            out[i] = FailDisposition::Retried { not_before };
        } else {
            row[crawl_col::VISITED] = Value::Int(visited::DEAD);
            row[crawl_col::NOT_BEFORE] = Value::Int(0);
        }
        Ok(true)
    })?;
    Ok(out)
}

/// Rewrite the stored relevance of *fetched* pages (`kcid ≥ 0`) after a
/// good-mark change (§3.7), so monitoring SQL (`avg(exp(relevance))`,
/// the paper's `log R(u) > −1` cut) reflects the new marking. A `DONE`
/// row's `negrel` follows; any other fetched row (a requeued revisit, or
/// one whose revisit failed) keeps its frontier priority. Unfetched rows,
/// and oids with no row, are skipped.
pub fn set_visited_relevance(db: &mut Database, items: &[(Oid, f64)]) -> DbResult<()> {
    rewrite(db, items.iter().map(|&(oid, _)| oid), |i, row, stored| {
        if !stored || row[crawl_col::KCID].as_i64() < Some(0) {
            return Ok(false);
        }
        let negrel = row[crawl_col::NEGREL].clone();
        let done = is_done(row);
        set_relevance(row, items[i].1);
        if !done {
            row[crawl_col::NEGREL] = negrel;
        }
        Ok(true)
    })?;
    Ok(())
}

/// `negrel` of the top frontier priority, log R = 0: what a seed is
/// inserted with and what a requeued revisit is given.
pub(crate) const TOP_NEGREL: f64 = -0.0;

fn is_done(row: &[Value]) -> bool {
    row[crawl_col::VISITED].as_i64() == Some(visited::DONE)
}

/// Put fetched pages back in the frontier for a revisit (§3.2 crawl
/// maintenance: "good hubs should be checked frequently for new resource
/// links"). Each `DONE` row becomes poppable at a seed's priority with
/// `numtries` and `not_before` cleared; `kcid`, `url`, `lastvisited` and
/// `relevance` stay, so the row still says it was fetched and what it
/// scored. Rows in any other state, and oids with no row, are left
/// alone. Oids must be distinct. Returns how many rows were requeued.
pub fn requeue_done(db: &mut Database, oids: &[Oid]) -> DbResult<usize> {
    let (_, requeued) = rewrite(db, oids.iter().copied(), |_, row, stored| {
        if !stored || !is_done(row) {
            return Ok(false);
        }
        row[crawl_col::VISITED] = Value::Int(visited::FRONTIER);
        row[crawl_col::NUMTRIES] = Value::Int(0);
        row[crawl_col::NOT_BEFORE] = Value::Int(0);
        row[crawl_col::NEGREL] = Value::Float(TOP_NEGREL);
        Ok(true)
    })?;
    Ok(requeued)
}

/// [`claim_batch_where`] admitting every due row (tests only).
#[cfg(test)]
pub(crate) fn claim_batch(db: &mut Database, n: usize, now: i64) -> DbResult<ClaimOutcome> {
    claim_batch_where(db, n, now, |_| true)
}

/// Pop the single best frontier entry, treating every parked row as
/// already due (tests only).
#[cfg(test)]
pub(crate) fn claim_next(db: &mut Database) -> DbResult<Option<Claim>> {
    Ok(claim_batch(db, 1, i64::MAX)?.claims.pop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::create_tables;
    use crate::tables::tests::frontier_row;

    fn db() -> Database {
        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        db
    }

    fn entry(oid: u64, url: &str, r: f64, load: i64) -> FrontierEntry {
        FrontierEntry {
            oid: Oid(oid),
            url: url.to_owned(),
            log_relevance: r,
            serverload: load,
        }
    }

    /// Enqueue (or endorse again) one page.
    fn put(db: &mut Database, oid: u64, url: &str, r: f64, load: i64) -> BatchUpsert {
        upsert_batch(db, &[entry(oid, url, r, load)]).unwrap()
    }

    /// The per-link upsert the batch path replaced, kept as its oracle
    /// and deliberately built on nothing `rewrite` uses: plain SQL
    /// through the planner, one statement pair per endorsement.
    fn upsert_frontier(db: &mut Database, e: &FrontierEntry) {
        let oid = Value::Int(e.oid.raw() as i64);
        let found = db
            .execute_with(
                "select visited, relevance from crawl where oid = ?",
                std::slice::from_ref(&oid),
            )
            .unwrap();
        match found.rows.first() {
            None => {
                let tid = db.table_id("crawl").unwrap();
                let row = frontier_row(e.oid, &e.url, e.log_relevance, e.serverload);
                db.insert(tid, row).unwrap();
            }
            Some(row) => {
                let unvisited = row[0] == Value::Int(visited::FRONTIER);
                if unvisited && e.log_relevance > row[1].as_f64().unwrap() {
                    db.execute_with(
                        "update crawl set relevance = ?, negrel = ? where oid = ?",
                        &[
                            Value::Float(e.log_relevance),
                            Value::Float(-e.log_relevance),
                            oid,
                        ],
                    )
                    .unwrap();
                }
            }
        }
    }

    /// A one-item [`mark_failed_batch`], immediately poppable.
    fn mark_failed(db: &mut Database, oid: Oid, retriable: bool, max_tries: i64) {
        let item = FailureUpdate {
            oid,
            retriable,
            not_before: 0,
        };
        mark_failed_batch(db, &[item], max_tries).unwrap();
    }

    /// `CRAWL` as rows and as index entries.
    type Contents = (Vec<Row>, Vec<(Vec<u8>, minirel::Rid)>);

    fn contents(db: &Database) -> Contents {
        let rows = db.query("select * from crawl order by oid").unwrap().rows;
        let (pool, catalog) = db.parts();
        let t = catalog.table(db.table_id("crawl").unwrap());
        let mut entries = Vec::new();
        for idx in &t.indexes {
            let scan = idx.btree.scan_from(pool, &[], |k, rid| {
                entries.push((k.to_vec(), rid));
                true
            });
            scan.unwrap();
        }
        (rows, entries)
    }

    #[test]
    fn a_refused_rewrite_leaves_nothing_for_the_next() {
        let build = |refused: bool| {
            let mut db = db();
            upsert_batch(
                &mut db,
                &[
                    entry(1, "http://a.example/1", -1.0, 0),
                    entry(2, "b", -2.0, 1),
                ],
            )
            .unwrap();
            if refused {
                // An absent oid refuses: alone, and after staged rows.
                assert!(mark_done(&mut db, Oid(9), "http://i.example/9", -0.1, 3, 5).is_err());
                let fail = |oid| FailureUpdate {
                    oid: Oid(oid),
                    retriable: true,
                    not_before: 0,
                };
                assert!(mark_failed_batch(&mut db, &[fail(1), fail(2), fail(9)], 5).is_err());
            }
            let batch = [
                entry(3, "http://c.example/3", -0.5, 2),
                entry(2, "", -0.2, 0),
            ];
            let done = upsert_batch(&mut db, &batch).unwrap();
            assert_eq!(
                done,
                BatchUpsert {
                    created: 1,
                    raised: 1
                }
            );
            db.check_integrity().unwrap();
            contents(&db)
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn claims_follow_priority_order() {
        let mut db = db();
        // Same numtries: order by descending relevance.
        put(&mut db, 1, "u1", -2.0, 0);
        put(&mut db, 2, "u2", -0.5, 0);
        put(&mut db, 3, "u3", -1.0, 0);
        let order: Vec<u64> =
            std::iter::from_fn(|| claim_next(&mut db).unwrap().map(|c| c.oid.raw())).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(claim_next(&mut db).unwrap().is_none(), "frontier drained");
    }

    #[test]
    fn numtries_dominates_relevance() {
        let mut db = db();
        put(&mut db, 1, "u1", 0.0, 0);
        // Fail oid 1 once: numtries=1, requeued.
        claim_next(&mut db).unwrap();
        mark_failed(&mut db, Oid(1), true, 5);
        // New lower-relevance page with numtries=0 must be claimed first.
        put(&mut db, 2, "u2", -3.0, 0);
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(2));
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(1));
        assert_eq!(c.numtries, 1);
    }

    #[test]
    fn serverload_breaks_ties() {
        let mut db = db();
        put(&mut db, 1, "u1", -1.0, 10);
        put(&mut db, 2, "u2", -1.0, 2);
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(2), "lighter server first");
    }

    #[test]
    fn upsert_raises_priority_only_upward() {
        let mut db = db();
        let did = |created, raised| BatchUpsert { created, raised };
        assert_eq!(put(&mut db, 1, "u1", -2.0, 0), did(1, 0));
        assert_eq!(put(&mut db, 1, "u1", -1.0, 0), did(0, 1));
        assert_eq!(put(&mut db, 1, "u1", -5.0, 0), did(0, 0));
        let c = claim_next(&mut db).unwrap().unwrap();
        assert!((c.log_relevance - -1.0).abs() < 1e-12, "kept the max");
    }

    #[test]
    fn done_pages_leave_the_frontier() {
        let mut db = db();
        put(&mut db, 1, "u1", 0.0, 0);
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_done(&mut db, c.oid, "u1", -0.2, 5, 100).unwrap();
        assert!(claim_next(&mut db).unwrap().is_none());
        let unvisited = db.execute("select count(*) from crawl where visited = 0");
        assert_eq!(unvisited.unwrap().scalar_i64(), Some(0));
        // Re-discovering a visited page does not resurrect it.
        put(&mut db, 1, "u1", 0.0, 0);
        assert!(claim_next(&mut db).unwrap().is_none());
        let rs = db
            .execute("select kcid, lastvisited from crawl where oid = 1")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(5));
        assert_eq!(rs.rows[0][1], Value::Int(100));
    }

    #[test]
    fn failures_retry_then_die() {
        let mut db = db();
        put(&mut db, 1, "u1", 0.0, 0);
        for expected_tries in 1..3i64 {
            let c = claim_next(&mut db).unwrap().unwrap();
            assert_eq!(c.numtries, expected_tries - 1);
            mark_failed(&mut db, c.oid, true, 3);
        }
        // Third failure reaches max_tries: dead.
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_failed(&mut db, c.oid, true, 3);
        assert!(claim_next(&mut db).unwrap().is_none());
        // Non-retriable dies immediately.
        put(&mut db, 2, "u2", 0.0, 0);
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_failed(&mut db, c.oid, false, 3);
        assert!(claim_next(&mut db).unwrap().is_none());
    }

    #[test]
    fn boost_raises_unvisited_priority() {
        let mut db = db();
        put(&mut db, 1, "u1", -4.0, 0);
        put(&mut db, 2, "u2", -1.0, 0);
        // A distiller boost knows the oid, not the URL.
        assert_eq!(put(&mut db, 1, "", -0.1, 0).changed(), 1);
        let c = claim_next(&mut db).unwrap().unwrap();
        assert_eq!(c.oid, Oid(1), "boosted page wins");
    }

    #[test]
    fn upsert_batch_matches_sequential_upserts() {
        // The batch path must land the exact same CRAWL state as the
        // per-link loop, including intra-batch duplicates.
        let items = vec![
            entry(10, "a", -2.0, 1),
            entry(11, "b", -0.5, 0),
            entry(10, "a2", -0.25, 9), // dup: raises 10, keeps url "a"
            entry(12, "c", -3.0, 2),
            entry(11, "b2", -4.0, 0), // dup: no improvement
        ];
        let mut seq = db();
        upsert_frontier(&mut seq, &entry(5, "pre", -1.0, 0));
        for e in &items {
            upsert_frontier(&mut seq, e);
        }
        let mut bat = db();
        put(&mut bat, 5, "pre", -1.0, 0);
        let res = upsert_batch(&mut bat, &items).unwrap();
        assert_eq!(
            res,
            BatchUpsert {
                created: 3,
                raised: 0
            }
        );
        let dump = |d: &mut Database| {
            d.execute("select oid, url, relevance, serverload from crawl order by oid")
                .unwrap()
                .rows
        };
        assert_eq!(dump(&mut seq), dump(&mut bat));
        // A second batch over existing rows takes the raise path.
        let res =
            upsert_batch(&mut bat, &[entry(10, "x", -0.1, 0), entry(5, "y", -2.0, 0)]).unwrap();
        assert_eq!(
            res,
            BatchUpsert {
                created: 0,
                raised: 1
            }
        );
        upsert_frontier(&mut seq, &entry(10, "x", -0.1, 0));
        upsert_frontier(&mut seq, &entry(5, "y", -2.0, 0));
        assert_eq!(dump(&mut seq), dump(&mut bat));
    }

    #[test]
    fn upsert_batch_skips_visited_and_dead_rows() {
        let mut db = db();
        put(&mut db, 1, "u1", -1.0, 0);
        let c = claim_next(&mut db).unwrap().unwrap();
        mark_done(&mut db, c.oid, "u1", -0.2, 3, 10).unwrap();
        let res = upsert_batch(&mut db, &[entry(1, "u1", 0.0, 0)]).unwrap();
        assert_eq!(res.changed(), 0, "visited page must not resurrect");
        assert!(claim_next(&mut db).unwrap().is_none());
    }

    #[test]
    fn upsert_never_changes_a_fetched_row() {
        let mut db = db();
        // Enqueue `oid`, pop it (nothing else is due) and land its fetch.
        let fetch = |db: &mut Database, oid: u64| {
            put(db, oid, &format!("u{oid}"), -1.0, 0);
            let c = claim_batch(db, 1, 0).unwrap().claims.pop().unwrap();
            assert_eq!(c.oid, Oid(oid));
            mark_done(db, c.oid, &c.url, -0.5, 3, 10).unwrap();
        };
        // Requeue a fetched page for a revisit and pop it again.
        let revisit = |db: &mut Database, oid: u64| {
            assert_eq!(requeue_done(db, &[Oid(oid)]).unwrap(), 1);
            let c = claim_batch(db, 1, 0).unwrap().claims.pop().unwrap();
            assert_eq!(c.oid, Oid(oid));
        };
        let fail = |db: &mut Database, oid: u64, retriable: bool| {
            let item = FailureUpdate {
                oid: Oid(oid),
                retriable,
                not_before: 50,
            };
            mark_failed_batch(db, &[item], 5).unwrap();
        };
        fetch(&mut db, 1);
        fetch(&mut db, 2);
        revisit(&mut db, 2);
        fail(&mut db, 2, false);
        fetch(&mut db, 3);
        revisit(&mut db, 3);
        fetch(&mut db, 4);
        revisit(&mut db, 4);
        fail(&mut db, 4, true);
        fetch(&mut db, 5);
        assert_eq!(requeue_done(&mut db, &[Oid(5)]).unwrap(), 1);
        let states = db
            .execute("select visited, numtries, not_before, kcid from crawl order by oid")
            .unwrap()
            .rows;
        let int = Value::Int;
        assert_eq!(
            states,
            [
                [int(visited::DONE), int(0), int(0), int(3)],
                [int(visited::DEAD), int(1), int(0), int(3)],
                [int(visited::CLAIMED), int(0), int(0), int(3)],
                [int(visited::FRONTIER), int(1), int(50), int(3)],
                [int(visited::FRONTIER), int(0), int(0), int(3)],
            ],
            "done, dead after a revisit, a revisit in flight, a parked retry \
             of one, a requeued one"
        );
        let dump = |db: &mut Database| db.execute("select * from crawl").unwrap().rows;
        let before = dump(&mut db);
        let endorse: Vec<FrontierEntry> = (1..=5).map(|oid| entry(oid, "new", 0.0, 99)).collect();
        assert_eq!(upsert_batch(&mut db, &endorse).unwrap().changed(), 0);
        assert_eq!(dump(&mut db), before);
    }

    #[test]
    fn claim_batch_pops_in_priority_order() {
        let mut db = db();
        for (oid, r) in [(1u64, -2.0), (2, -0.5), (3, -1.0), (4, -0.1), (5, -3.0)] {
            put(&mut db, oid, &format!("u{oid}"), r, 0);
        }
        let batch = claim_batch(&mut db, 3, 0).unwrap().claims;
        let oids: Vec<u64> = batch.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![4, 2, 3], "three best, best first");
        // Claimed rows are out of the frontier; the rest still pop.
        let rest = claim_batch(&mut db, 10, 0).unwrap().claims;
        let oids: Vec<u64> = rest.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![1, 5]);
        assert!(
            claim_batch(&mut db, 4, 0).unwrap().claims.is_empty(),
            "drained"
        );
    }

    #[test]
    fn claim_batch_agrees_with_repeated_claim_next() {
        let build = || {
            let mut d = db();
            for i in 0..40u64 {
                let r = -((i % 7) as f64) / 3.0;
                put(&mut d, i + 1, &format!("u{i}"), r, (i % 3) as i64);
            }
            d
        };
        let mut one = build();
        let singly: Vec<u64> =
            std::iter::from_fn(|| claim_next(&mut one).unwrap().map(|c| c.oid.raw())).collect();
        let mut many = build();
        let mut batched = Vec::new();
        loop {
            let b = claim_batch(&mut many, 7, 0).unwrap().claims;
            if b.is_empty() {
                break;
            }
            batched.extend(b.into_iter().map(|c| c.oid.raw()));
        }
        assert_eq!(singly, batched);
    }

    #[test]
    fn parked_rows_hide_until_due_without_losing_priority() {
        let mut db = db();
        put(&mut db, 1, "u1", -0.5, 0); // best
        put(&mut db, 2, "u2", -1.0, 0);
        put(&mut db, 3, "u3", -2.0, 0);
        // Park the best entry until tick 10.
        let c = claim_batch(&mut db, 1, 0).unwrap().claims.pop().unwrap();
        assert_eq!(c.oid, Oid(1));
        park_batch(&mut db, &[(Oid(1), 10)]).unwrap();
        // Before tick 10 the pop path skips it but reports it parked.
        let out = claim_batch(&mut db, 3, 5).unwrap();
        let oids: Vec<u64> = out.claims.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![2, 3], "parked row skipped, order kept");
        assert_eq!(out.parked, 1);
        unclaim_batch(&mut db, &out.claims).unwrap();
        // At tick 10 it pops first again: parking never cost priority.
        let out = claim_batch(&mut db, 3, 10).unwrap();
        let oids: Vec<u64> = out.claims.iter().map(|c| c.oid.raw()).collect();
        assert_eq!(oids, vec![1, 2, 3]);
        assert_eq!(out.parked, 0);
    }

    #[test]
    fn a_row_the_gate_parks_keeps_its_place_in_both_indexes() {
        let mut db = db();
        for oid in 1..=3u64 {
            put(&mut db, oid, &format!("u{oid}"), -1.0, 0);
        }
        let (_, entries) = contents(&db);
        let out = claim_batch_where(&mut db, 3, 5, |_| Admission::Park { until: 9 }).unwrap();
        assert_eq!((out.claims.len(), out.parked), (0, 3));
        assert_eq!(contents(&db).1, entries, "no index entry moved");
        let out = claim_batch(&mut db, 3, 8).unwrap();
        assert_eq!(
            (out.claims.len(), out.parked),
            (0, 3),
            "parked until tick 9"
        );
        // A park that names a tick already past is a park to the next one.
        claim_batch_where(&mut db, 3, 9, |c| match c.oid {
            Oid(1) => Admission::Park { until: 2 },
            _ => Admission::Defer,
        })
        .unwrap();
        let out = claim_batch(&mut db, 3, 9).unwrap();
        assert_eq!((out.claims.len(), out.parked), (2, 1));
        assert_eq!(claim_batch(&mut db, 3, 10).unwrap().claims[0].oid, Oid(1));
    }

    #[test]
    fn all_parked_frontier_claims_nothing_but_counts() {
        let mut db = db();
        for oid in 1..=4u64 {
            put(&mut db, oid, &format!("u{oid}"), -1.0, 0);
        }
        let claims = claim_batch(&mut db, 4, 0).unwrap().claims;
        let parked: Vec<(Oid, i64)> = claims.iter().map(|c| (c.oid, 7)).collect();
        park_batch(&mut db, &parked).unwrap();
        let out = claim_batch(&mut db, 2, 3).unwrap();
        assert!(out.claims.is_empty());
        assert_eq!(out.parked, 4, "exact when the scan exhausts the range");
        // claim_next (diagnostics) ignores parking entirely.
        assert!(claim_next(&mut db).unwrap().is_some());
    }

    #[test]
    fn mark_failed_batch_matches_sequential_and_parks_retries() {
        let build = || {
            let mut d = db();
            for oid in 1..=3u64 {
                put(&mut d, oid, &format!("u{oid}"), -1.0, 0);
            }
            let claims = claim_batch(&mut d, 3, 0).unwrap().claims;
            (d, claims)
        };
        let (mut seq, claims) = build();
        for c in &claims {
            mark_failed(&mut seq, c.oid, c.oid != Oid(2), 3);
        }
        let (mut bat, claims) = build();
        let items: Vec<FailureUpdate> = claims
            .iter()
            .map(|c| FailureUpdate {
                oid: c.oid,
                retriable: c.oid != Oid(2),
                not_before: 0,
            })
            .collect();
        let dispo = mark_failed_batch(&mut bat, &items, 3).unwrap();
        assert_eq!(dispo[0], FailDisposition::Retried { not_before: 0 });
        assert_eq!(dispo[1], FailDisposition::Dead, "non-retriable dies");
        assert_eq!(dispo[2], FailDisposition::Retried { not_before: 0 });
        let dump = |d: &mut Database| {
            d.execute("select oid, numtries, visited, not_before from crawl order by oid")
                .unwrap()
                .rows
        };
        assert_eq!(dump(&mut seq), dump(&mut bat));
        // A parked retry is invisible before its tick, poppable after.
        let claims = claim_batch(&mut bat, 3, 0).unwrap().claims;
        let items: Vec<FailureUpdate> = claims
            .iter()
            .map(|c| FailureUpdate {
                oid: c.oid,
                retriable: true,
                not_before: 20,
            })
            .collect();
        let dispo = mark_failed_batch(&mut bat, &items, 3).unwrap();
        assert!(dispo
            .iter()
            .all(|d| *d == FailDisposition::Retried { not_before: 20 }));
        let out = claim_batch(&mut bat, 3, 19).unwrap();
        assert!(out.claims.is_empty());
        assert_eq!(out.parked, 2);
        let out = claim_batch(&mut bat, 3, 20).unwrap();
        assert_eq!(out.claims.len(), 2);
    }

    #[test]
    fn corrupt_rows_error_instead_of_fabricating_values() {
        let mut db = db();
        // Bypass the typed helpers: insert a row whose url column is
        // Null (every column type admits Null), so the decode layer must
        // catch it rather than fabricate "".
        let tid = db.table_id("crawl").unwrap();
        let mut row = frontier_row(Oid(7), "u7", -0.5, 0);
        row[crawl_col::URL] = Value::Null;
        db.insert(tid, row).unwrap();
        let err = claim_next(&mut db).unwrap_err();
        assert!(
            matches!(err, DbError::Corrupt(ref m) if m.contains("url")),
            "expected Corrupt(url), got {err:?}"
        );
    }
}
