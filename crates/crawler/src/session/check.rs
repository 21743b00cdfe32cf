//! The crawl's invariants, checked in one place per layer:
//! [`minirel::Database::check_integrity`] for the store,
//! [`CrawlSession::check_invariants`] for a session over it, and
//! [`crate::CrawlCluster::check_invariants`] for the shards together.
//! Each violation names its invariant, so a failure says what broke.
//!
//! Builds with debug assertions check on their own, and panic naming
//! what broke: right after `CrawlSession::build` loads a store, and at
//! the end of every `CrawlRun::join` that returns `Ok`, for each shard
//! of the run and for its shards together — so every test that joins a
//! run checks them. Release builds compile those calls out.
//!
//! Not checked here: exactly-once fetch (only the fetcher sees a page
//! fetched twice) and replica = committed prefix of the leader.

use super::*;
use focus_distiller::graph::Node;
use std::fmt::Debug;

/// One broken invariant: which, and what the check found.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant's name.
    pub invariant: &'static str,
    /// The values the check found, `Debug`-printed.
    pub detail: String,
}

/// Record `invariant` as broken, with the values the check `got`,
/// unless it `held`.
pub(crate) fn expect(v: &mut Vec<Violation>, invariant: &'static str, held: bool, got: impl Debug) {
    if !held {
        let detail = format!("{got:?}");
        v.push(Violation { invariant, detail });
    }
}

/// The automatic check: in builds with debug assertions, run `check`
/// and panic naming every invariant it found broken.
pub(crate) fn debug_check(check: impl FnOnce() -> Result<(), Vec<Violation>>) {
    if !cfg!(debug_assertions) {
        return;
    }
    if let Err(broken) = check() {
        let names: Vec<&str> = broken.iter().map(|v| v.invariant).collect();
        panic!("crawl invariants broken: {names:?}\n{broken:#?}");
    }
}

impl CrawlSession {
    /// Check a session at rest — no run live on it — and return every
    /// invariant that does not hold:
    ///
    /// * `successes + failures ≤ attempts ≤ budget`, with one `LANDING`
    ///   row per success, whose relevance sums to the harvest sum;
    /// * the in-flight gauge and every politeness slot at zero, no
    ///   `CLAIMED` row and no `Probing` breaker;
    /// * `server_health` and the breakers agree on who is quarantined;
    /// * the store's heaps and indexes agree ([`Database::check_integrity`]);
    /// * memory is a cache over the tables: the link graph, visited
    ///   pages' relevance (exactly `exp(CRAWL.relevance)`) and the server
    ///   tallies are what `StoreState::load` derives, every landed page
    ///   (so the latest posterior of each) is a fetched one, and
    ///   `TAXONOMY.type` is the live marking.
    ///
    /// Reads through [`minirel::unobserved`]: a check moves no counter.
    pub fn check_invariants(&self) -> Result<(), Vec<Violation>> {
        let mut out = Vec::new();
        let (s, budget) = (self.stats(), self.counters.budget.load(Ordering::Acquire));
        let found = (s.successes + s.failures, s.attempts, budget);
        let held = found.0 <= found.1 && found.1 <= found.2;
        expect(&mut out, "landed <= attempts <= budget", held, found);
        let claims = self.counters.in_flight.load(Ordering::Acquire);
        expect(&mut out, "in-flight gauge is zero", claims == 0, claims);
        let (model, g) = (self.model.read(), self.store.read());
        if let Err(e) = minirel::unobserved(|| check_store(&g, &model, &s, &mut out)) {
            expect(&mut out, "tables readable", false, e);
        }
        out.is_empty().then_some(()).ok_or(out)
    }
}

/// The store's half of [`CrawlSession::check_invariants`].
fn check_store(
    g: &StoreState,
    model: &TrainedModel,
    s: &CrawlStats,
    out: &mut Vec<Violation>,
) -> DbResult<()> {
    let claimed = "select count(*) from crawl where visited = ?";
    let claimed = g.db.query_with(claimed, &[Value::Int(visited::CLAIMED)])?;
    let claimed = claimed.scalar_i64().unwrap_or(0);
    expect(out, "no CLAIMED row", claimed == 0, claimed);
    let mut open = Vec::new();
    for (sid, h) in g.health.servers() {
        let held = g.health.in_flight(sid);
        expect(out, "politeness slots released", held == 0, (sid, held));
        let probing = h.breaker == Breaker::Probing;
        expect(out, "no Probing breaker", !probing, sid);
        if h.breaker != Breaker::Closed {
            open.push(sid.raw() as i64);
        }
    }
    let mirror =
        g.db.query("select sid from server_health where state <> 'closed'")?;
    let mut mirror: Vec<i64> = mirror.rows.iter().filter_map(|r| r[0].as_i64()).collect();
    open.sort_unstable();
    mirror.sort_unstable();
    let held = open == mirror;
    expect(out, "server_health = breakers", held, (open, mirror));
    if let Err(e) = g.db.check_integrity() {
        expect(out, "heap/index agreement", false, e);
    }

    let (stored, server_counts) = store::derive(&g.db)?;
    let ends = |(s, d): (Node, Node)| (s.oid, s.sid, d.oid, d.sid);
    let held = g.graph.links().map(ends).eq(stored.links().map(ends));
    let found = (g.graph.num_links(), stored.num_links());
    expect(out, "link graph = LINK", held, found);
    let found = (g.graph.visited().count(), stored.visited().count());
    let same = |(o, r): (Oid, f64)| stored.relevance(o) == Some(r);
    let held = found.0 == found.1 && g.graph.visited().all(same);
    expect(out, "relevance = CRAWL", held, found);
    let found = (&g.server_counts, &server_counts);
    expect(out, "server counts = CRAWL", found.0 == found.1, found);
    let (rows, sum) = store::landed(&g.db)?;
    let held = rows == s.successes && sum.to_bits() == s.harvest_sum.to_bits();
    let found = ((rows, sum), (s.successes, s.harvest_sum));
    expect(out, "LANDING = successes", held, found);
    let landed = g.db.query("select oid from landing")?;
    let oids = landed
        .rows
        .iter()
        .map(|r| Oid(r[0].as_i64().unwrap_or(0) as u64));
    let stray: Vec<Oid> = oids.filter(|&o| stored.relevance(o).is_none()).collect();
    expect(out, "posteriors of fetched pages", stray.is_empty(), stray);
    let types = "select kcid, type from taxonomy order by kcid";
    let types = g.db.query(types)?;
    let table = types.rows.iter().map(|r| (r[0].as_i64(), r[1].as_str()));
    let t = &model.taxonomy;
    let mark = |c: ClassId| (Some(c.raw() as i64), Some(tables::mark_name(t, c)));
    let held = table.eq(t.all().map(mark));
    expect(out, "TAXONOMY.type = marking", held, types.rows);
    Ok(())
}
