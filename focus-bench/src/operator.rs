//! The §3.7 operator: one pass of the monitor suite against a session's
//! leader store, the lock wait and every query timed. The same queries,
//! prepared one by one on a quiesced store, give the `minirel.sql.*`
//! layer metrics.

use crate::stats;
use crate::world::World;
use focus_crawler::monitor as queries;
use focus_crawler::session::CrawlSession;
use minirel::{Database, DbResult, ResultSet, Value};
use std::time::Instant;

/// Hub drill-downs per suite.
pub const DRILLDOWNS: usize = 20;
/// The hub drill-down, the revisit query the crawler itself issues.
pub const HUB_OUTLINKS_SQL: &str = "select oid_dst from link where oid_src = ?";
pub const HUBS_SQL: &str = "select oid, score from hubs";
/// Hub-score quantile above which `missed_hub_neighbors` looks (the
/// paper's 90th percentile).
const PSI_QUANTILE: f64 = 90.0;

/// Latencies of one suite: the wait for the store's read lock, then the
/// queries by class — *light* is the dashboard (harvest per minute, class
/// census, frontier health), *heavy* the sociology joins (missed hub
/// neighbours, community evolution, cross-topic citations), *probe* the
/// hub list plus its drill-downs.
#[derive(Debug, Default, Clone)]
pub struct SuiteSample {
    pub lock_wait_ms: f64,
    pub light_ms: Vec<f64>,
    pub heavy_ms: Vec<f64>,
    pub probe_ms: Vec<f64>,
    /// Call to return of the whole suite.
    pub total_ms: f64,
    /// Queries that returned `Err`.
    pub errors: u64,
}

impl SuiteSample {
    pub fn queries(&self) -> u64 {
        (self.light_ms.len() + self.heavy_ms.len() + self.probe_ms.len()) as u64
    }
}

fn timed<T>(
    samples: &mut Vec<f64>,
    errors: &mut u64,
    query: impl FnOnce() -> DbResult<T>,
) -> Option<T> {
    let t = Instant::now();
    let result = query();
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    if let Err(e) = &result {
        eprintln!("monitor query failed: {e}");
        *errors += 1;
    }
    result.ok()
}

/// `(ψ, hub oids)` from the `HUBS` table: the score threshold of the
/// missed-neighbours query and the [`DRILLDOWNS`] best hubs, padded with
/// start-set pages while the crawl has not distilled that many yet.
pub fn hub_targets(hubs: Option<&ResultSet>, world: &World) -> (f64, Vec<i64>) {
    let mut scored: Vec<(i64, f64)> = hubs
        .map(|rs| {
            rs.rows
                .iter()
                .filter_map(|row| Some((row[0].as_i64()?, row[1].as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let psi = if scored.is_empty() {
        0.0
    } else {
        let scores: Vec<f64> = scored.iter().map(|&(_, s)| s).collect();
        stats::percentile(&scores, PSI_QUANTILE)
    };
    let oids = scored
        .iter()
        .map(|&(oid, _)| oid)
        .chain(world.seeds.iter().cycle().map(|o| o.raw() as i64))
        .take(DRILLDOWNS)
        .collect();
    (psi, oids)
}

/// The dashboard queries.
pub const LIGHT: [fn(&Database) -> DbResult<ResultSet>; 3] = [
    queries::harvest_per_minute,
    queries::census_by_class,
    queries::frontier_by_numtries,
];

type Heavy = fn(&Database, &World, f64) -> DbResult<ResultSet>;

/// The sociology joins, given the world and ψ.
pub const HEAVY: [Heavy; 3] = [
    |db, _, psi| queries::missed_hub_neighbors(db, psi),
    |db, world, _| {
        queries::community_evolution(db, world.citer_kcid, world.cited_kcid, 0)
            .map(|_| ResultSet::default())
    },
    |db, world, _| queries::cross_topic_citations(db, world.cited_kcid, world.citer_kcid, 2),
];

/// One operator pass over `session`'s leader store: a dashboard refresh
/// is one read of one consistent state, so the whole suite runs under a
/// single hold of the store's read lock (and the crawl waits that long).
/// Taking the lock per query instead makes the suite's time a matter of
/// how often the operator wins the lock from a worker that re-takes it
/// every page, which does not repeat from run to run.
pub fn run_suite(session: &CrawlSession, world: &World) -> SuiteSample {
    let mut s = SuiteSample::default();
    let called = Instant::now();
    session.with_db_read(|db| {
        s.lock_wait_ms = called.elapsed().as_secs_f64() * 1e3;
        for query in LIGHT {
            timed(&mut s.light_ms, &mut s.errors, || query(db));
        }
        let hubs = timed(&mut s.probe_ms, &mut s.errors, || db.query(HUBS_SQL));
        let (psi, hub_oids) = hub_targets(hubs.as_ref(), world);
        for query in HEAVY {
            timed(&mut s.heavy_ms, &mut s.errors, || query(db, world, psi));
        }
        for oid in hub_oids {
            timed(&mut s.probe_ms, &mut s.errors, || {
                db.query_with(HUB_OUTLINKS_SQL, &[Value::Int(oid)])
            });
        }
    });
    s.total_ms = called.elapsed().as_secs_f64() * 1e3;
    s
}
