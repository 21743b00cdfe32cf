//! The traced run: the stage replay (traced and untraced), the reference
//! and workload sessions it is compared with, and the direct drives of
//! the layers no crawl isolates — B+tree and heap at two working-set
//! sizes, the fetch pool, the health map, the monitor queries one by
//! one, recovery and replica catch-up.

use crate::operator::{self, HUB_OUTLINKS_SQL};
use crate::replay::{self, Counts, ReplayPlan, Replayed};
use crate::report::{Report, Values};
use crate::stats;
use crate::trace::{NoTrace, Stage, StageTime, Tracer};
use crate::workloads::{self, SessionFiles, Workload};
use crate::world::{Scale, World};
use focus_crawler::fetch_pool::FetchPool;
use focus_crawler::frontier::Claim;
use focus_crawler::health::{BackoffConfig, BreakerConfig, HealthMap, PolitenessConfig};
use focus_crawler::session::CrawlSession;
use focus_types::{Oid, ServerId};
use focus_webgraph::SimFetcher;
use minirel::btree::BTree;
use minirel::buffer::{BufferPool, EvictionPolicy};
use minirel::disk::DiskManager;
use minirel::heap::HeapFile;
use minirel::page::PAGE_SIZE;
use minirel::value::encode_composite_key;
use minirel::{Database, DbError, DbResult, Replica, Rid, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames of the session store's pool, which the *fit* drives stay
/// inside; the *spill* drives get a pool an eighth of their working set.
const POOL_FRAMES: usize = 512;
const SPILL_FACTOR: usize = 8;
/// Bytes per row of the heap drives (about a CRAWL row).
const HEAP_ROW_BYTES: usize = 120;
/// Cold prepares per query (the plan cache is emptied by a DDL between).
const PREPARE_ROUNDS: usize = 5;
/// Warm executions per query.
const EXEC_ROUNDS: usize = 3;
/// Rows of the burst a replica catches up with.
const REPLICA_BURST_ROWS: i64 = 5_000;
/// How far the replay may differ from the 1-worker session it mirrors.
const REPLAY_TOLERANCE: f64 = 0.02;

/// Correctness checks of the drives, counted like the workloads' ones.
#[derive(Default)]
struct Checks {
    ops: u64,
    failed: u64,
}

impl Checks {
    /// `ops` operations whose result `holds` vouches for.
    fn check(&mut self, name: &str, ops: u64, holds: bool) {
        self.ops += ops;
        if !holds {
            eprintln!("correctness check violated: {name}");
            self.failed += ops;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Distinct pseudo-random keys: an odd multiplier permutes `u64`.
fn scattered(i: u64) -> i64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as i64
}

// ---------------------------------------------------------------- replay

fn replay_metrics(
    out: &mut Values,
    counts: &Counts,
    times: &[StageTime; Stage::COUNT],
    traced: &Replayed,
    untraced_wall_s: f64,
    spans: usize,
) {
    let t = |s: Stage| times[s as usize];
    let io = |s: Stage| counts.io[s as usize];
    let pages = counts.attempts as f64;
    let done = counts.successes as f64;
    let per_page = |s: Stage, n: f64| ratio(us(t(s).total_ns), n);
    let reads = |s: Stage, n: f64| ratio(io(s).logical_reads as f64, n);

    out.put(
        "crawler.frontier.claim_us_per_page",
        per_page(Stage::Claim, pages),
    );
    out.put(
        "crawler.frontier.claim_reads_per_page",
        reads(Stage::Claim, pages),
    );
    out.put(
        "crawler.frontier.claim_deferred_per_page",
        ratio(counts.claim_deferred as f64, pages),
    );
    out.put(
        "crawler.frontier.mark_done_us_per_page",
        per_page(Stage::MarkDone, done),
    );
    out.put(
        "crawler.frontier.mark_done_reads_per_page",
        reads(Stage::MarkDone, done),
    );
    out.put(
        "crawler.frontier.upsert_us_per_page",
        per_page(Stage::Upsert, done),
    );
    out.put(
        "crawler.frontier.upsert_reads_per_page",
        reads(Stage::Upsert, done),
    );
    out.put(
        "crawler.frontier.upsert_changed_ratio",
        ratio(counts.upsert_changed as f64, counts.upsert_offered as f64),
    );
    out.put(
        "crawler.frontier.mark_failed_us_per_failure",
        per_page(Stage::MarkFailed, counts.failures as f64),
    );
    out.put(
        "minirel.db.link_insert_us_per_page",
        per_page(Stage::LinkInsert, done),
    );
    out.put(
        "minirel.db.link_insert_reads_per_page",
        reads(Stage::LinkInsert, done),
    );

    let total = io(Stage::Replay);
    out.put(
        "minirel.buffer.logical_reads_per_page",
        ratio(total.logical_reads as f64, pages),
    );
    out.put("minirel.buffer.hit_ratio", total.hit_ratio());
    out.put(
        "minirel.buffer.evictions_per_page",
        ratio(total.evictions as f64, pages),
    );

    let wal_bytes = traced.db.wal().map_or(0, |w| w.len_bytes()) as f64;
    let commits = counts.commits as f64;
    out.put("minirel.wal.commit_us", per_page(Stage::Commit, commits));
    out.put("minirel.wal.bytes_per_commit", ratio(wal_bytes, commits));
    out.put("minirel.wal.bytes_per_page", ratio(wal_bytes, done));
    out.put(
        "minirel.wal.write_amp",
        ratio(wal_bytes, traced.db.num_pages() as f64 * PAGE_SIZE as f64),
    );

    out.put(
        "classifier.compiled.evaluate_us_per_page",
        per_page(Stage::Classify, done),
    );
    out.put(
        "classifier.compiled.terms_per_doc",
        ratio(counts.terms as f64, done),
    );

    let (edges, hits) = (t(Stage::DistillEdges), t(Stage::DistillHits));
    let distill_ns = edges.total_ns + hits.total_ns;
    let (edges_last, iterations) = counts.distills.last().copied().unwrap_or((0, 0));
    out.put(
        "distiller.memory.pass_ms_mean",
        ratio(distill_ns as f64 / 1e6, counts.distills.len() as f64),
    );
    out.put(
        "distiller.memory.pass_ms_last",
        (edges.last_ns + hits.last_ns) as f64 / 1e6,
    );
    out.put("distiller.memory.edges_last", edges_last as f64);
    out.put(
        "distiller.memory.ns_per_edge_iter",
        ratio(hits.last_ns as f64, (edges_last * iterations) as f64),
    );
    out.put(
        "distiller.memory.share_of_replay",
        ratio(distill_ns as f64, t(Stage::Replay).total_ns as f64),
    );

    out.put("webgraph.fetch.us_per_page", per_page(Stage::Fetch, pages));
    out.put(
        "webgraph.fetch.injected_fail_share",
        ratio(counts.failures as f64, pages),
    );
    out.put("trace.spans", spans as f64);
    out.put(
        "trace.overhead_ratio",
        ratio(traced.wall_s, untraced_wall_s),
    );
}

// --------------------------------------------------------------- storage

fn pool(frames: usize) -> BufferPool {
    BufferPool::new(DiskManager::in_memory(), frames, EvictionPolicy::Lru)
}

/// `(insert ns/key, lookup ns/key, reads/lookup, pages)` of a B+tree of
/// `n` scattered keys in a pool of `frames`.
fn btree_drive(n: usize, frames: usize) -> DbResult<(f64, f64, f64, usize)> {
    let pool = pool(frames);
    let mut tree = BTree::create(&pool)?;
    let keys: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| encode_composite_key(&[Value::Int(scattered(i))]))
        .collect();
    let t = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        let rid = Rid {
            page: i as u32,
            slot: 0,
        };
        tree.insert(&pool, key, rid)?;
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let before = pool.stats();
    let t = Instant::now();
    // Every other key, in insertion (scattered) order.
    let mut found = 0;
    for key in keys.iter().step_by(2) {
        found += tree.lookup(&pool, key)?.len();
    }
    let lookups = n.div_ceil(2) as f64;
    let lookup_ns = t.elapsed().as_nanos() as f64 / lookups;
    assert_eq!(found as f64, lookups, "every inserted key is found once");
    let reads = pool.stats().since(&before).logical_reads as f64 / lookups;
    Ok((insert_ns, lookup_ns, reads, pool.num_pages() as usize))
}

/// `(insert ns/row, get ns/row, pages)` of a heap of `n` rows.
fn heap_drive(n: usize, frames: usize) -> DbResult<(f64, f64, usize)> {
    let pool = pool(frames);
    let mut heap = HeapFile::create(&pool)?;
    let row = [0xA5u8; HEAP_ROW_BYTES];
    let t = Instant::now();
    let rids: Vec<Rid> = (0..n)
        .map(|_| heap.insert(&pool, &row))
        .collect::<DbResult<_>>()?;
    let insert_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let t = Instant::now();
    for i in 0..n as u64 {
        let rid = rids[(scattered(i) as u64 % n as u64) as usize];
        black_box(heap.get(&pool, rid)?);
    }
    let get_ns = t.elapsed().as_nanos() as f64 / n as f64;
    Ok((insert_ns, get_ns, pool.num_pages() as usize))
}

fn drive_storage(scale: &Scale, out: &mut Values, checks: &mut Checks) -> DbResult<()> {
    let n = scale.storage_fit_keys;
    let (insert, lookup, reads, tree_pages) = btree_drive(n, POOL_FRAMES)?;
    out.put("minirel.btree.insert_ns_per_key.fit", insert);
    out.put("minirel.btree.lookup_ns_per_key.fit", lookup);
    out.put("minirel.btree.reads_per_lookup.fit", reads);
    let (insert, lookup, reads, _) = btree_drive(n, (tree_pages / SPILL_FACTOR).max(8))?;
    out.put("minirel.btree.insert_ns_per_key.spill", insert);
    out.put("minirel.btree.lookup_ns_per_key.spill", lookup);
    out.put("minirel.btree.reads_per_lookup.spill", reads);

    let rows = n / 2;
    let (insert, get, heap_pages) = heap_drive(rows, POOL_FRAMES)?;
    out.put("minirel.heap.insert_ns_per_row.fit", insert);
    out.put("minirel.heap.get_ns_per_row.fit", get);
    let (insert, get, _) = heap_drive(rows, (heap_pages / SPILL_FACTOR).max(8))?;
    out.put("minirel.heap.insert_ns_per_row.spill", insert);
    out.put("minirel.heap.get_ns_per_row.spill", get);
    checks.check(
        "storage_fit_drives_fit_the_pool",
        (n + rows) as u64,
        tree_pages <= POOL_FRAMES && heap_pages <= POOL_FRAMES,
    );
    Ok(())
}

// ------------------------------------------------------ fetch pool, health

/// Push `jobs` fetches of real pages through a pool of `threads`, at most
/// `2 × threads` outstanding; returns the wall time.
fn pool_drive(fetcher: SimFetcher, world: &World, threads: usize, jobs: usize) -> (f64, usize) {
    let pool = Arc::new(FetchPool::new(Arc::new(fetcher), threads));
    let mut handle = pool.handle();
    let mut oids = world.graph.pages().iter().map(|p| p.oid).cycle();
    let (mut submitted, mut completed) = (0, 0);
    let t = Instant::now();
    while completed < jobs {
        let room = (2 * threads).saturating_sub(handle.outstanding());
        let batch = room.min(jobs - submitted);
        if batch > 0 {
            let claims: Vec<Claim> = oids
                .by_ref()
                .take(batch)
                .map(|oid: Oid| Claim {
                    oid,
                    url: String::new(),
                    numtries: 0,
                    log_relevance: 0.0,
                })
                .collect();
            handle.submit(claims, submitted as u64 + 1);
            submitted += batch;
        }
        if let Some(done) = handle.next_completion(Duration::from_millis(100)) {
            black_box(done);
            completed += 1;
        }
    }
    (t.elapsed().as_secs_f64(), completed)
}

fn drive_fetch_pool(world: &World, scale: &Scale, out: &mut Values, checks: &mut Checks) {
    let zero = SimFetcher::new(Arc::clone(&world.graph), None);
    let (wall, done) = pool_drive(zero, world, 2, scale.pool_jobs);
    out.put(
        "crawler.fetch_pool.overhead_us_per_job",
        wall * 1e6 / scale.pool_jobs as f64,
    );
    let latency = Duration::from_millis(scale.wan_latency_ms.max(1));
    let slow = SimFetcher::new(Arc::clone(&world.graph), Some(latency));
    let jobs = scale.wan_pool * 8;
    let (wall, done_slow) = pool_drive(slow, world, scale.wan_pool, jobs);
    out.put(
        "crawler.fetch_pool.achieved_concurrency",
        jobs as f64 * latency.as_secs_f64() / wall,
    );
    checks.check(
        "fetch_pool_completes_every_job",
        (scale.pool_jobs + jobs) as u64,
        done == scale.pool_jobs && done_slow == jobs,
    );
}

fn drive_health(scale: &Scale, out: &mut Values) {
    let mut health = HealthMap::new(
        BackoffConfig::default(),
        BreakerConfig::default(),
        PolitenessConfig::default(),
    );
    let rounds = scale.pool_jobs as u32 * 10;
    let t = Instant::now();
    for i in 0..rounds {
        let server = ServerId(i % 256);
        black_box(health.admit(server, i as i64));
        health.release(server);
    }
    out.put(
        "crawler.health.admit_release_ns",
        t.elapsed().as_nanos() as f64 / rounds as f64,
    );
}

// -------------------------------------------------------------------- SQL

struct Query {
    name: &'static str,
    sql: &'static str,
    params: Vec<Value>,
}

/// The suite's statements as `focus_crawler::monitor` words them. The
/// texts are copied because the monitor functions do not expose theirs;
/// [`drive_sql`] checks the copies still hit the plans those functions
/// cache.
fn queries(world: &World, psi: f64, hub: i64) -> Vec<Query> {
    let (citer, cited) = (Value::Int(world.citer_kcid), Value::Int(world.cited_kcid));
    vec![
        Query {
            name: "harvest_per_minute",
            sql: "select minute(lastvisited), avg(exp(relevance)) \
                  from crawl \
                  where lastvisited + 1 hour > current timestamp and visited = 1 \
                  group by minute(lastvisited) \
                  order by minute(lastvisited)",
            params: vec![],
        },
        Query {
            name: "census_by_class",
            sql: "with census(kcid, cnt) as \
                    (select kcid, count(oid) from crawl where visited = 1 group by kcid) \
                  select census.kcid, cnt, name from census, taxonomy \
                  where census.kcid = taxonomy.kcid order by cnt",
            params: vec![],
        },
        Query {
            name: "frontier_by_numtries",
            sql: "select numtries, count(*) from crawl where visited = 0 \
                  group by numtries order by numtries",
            params: vec![],
        },
        Query {
            name: "missed_hub_neighbors",
            sql: "select url, relevance from crawl where oid in \
                    (select oid_dst from link \
                     where oid_src in (select oid from hubs where score > ?) \
                       and sid_src <> sid_dst) \
                  and numtries = 0 and visited = 0",
            params: vec![Value::Float(psi)],
        },
        Query {
            name: "community_evolution",
            sql: "select count(*) from link, crawl c1, crawl c2 \
                  where oid_src = c1.oid and oid_dst = c2.oid \
                    and c1.kcid = ? and c2.kcid = ? \
                    and discovered >= ?",
            params: vec![citer.clone(), cited.clone(), Value::Int(0)],
        },
        Query {
            name: "cross_topic_citations",
            sql: "with citers(oid_dst, cnt) as \
                    (select oid_dst, count(*) from link, crawl \
                     where oid_src = crawl.oid and kcid = ? \
                     group by oid_dst) \
                  select url, cnt from crawl, citers \
                  where crawl.oid = citers.oid_dst and kcid = ? \
                    and cnt >= ? \
                  order by cnt desc",
            params: vec![citer, cited, Value::Int(2)],
        },
        Query {
            name: "hub_outlinks",
            sql: HUB_OUTLINKS_SQL,
            params: vec![Value::Int(hub)],
        },
    ]
}

/// Empty the plan cache the only way the public API offers: a DDL.
fn invalidate_plans(db: &mut Database) -> DbResult<()> {
    db.execute("create table focus_bench_scratch (x int)")?;
    db.execute("drop table focus_bench_scratch").map(|_| ())
}

/// Each monitor query alone on the quiesced store: cold `prepare`, warm
/// `query_prepared`, logical reads per row returned; then the plan-cache
/// hit ratio of three operator suites starting from a cold cache.
fn drive_sql(
    session: &CrawlSession,
    world: &World,
    out: &mut Values,
    checks: &mut Checks,
) -> DbResult<()> {
    let in_sync = session.with_db(|db| -> DbResult<bool> {
        let hubs = db.query(operator::HUBS_SQL).ok();
        let (psi, hub_oids) = operator::hub_targets(hubs.as_ref(), world);
        let suite = queries(world, psi, hub_oids[0]);
        let mut prepare_us = vec![Vec::new(); suite.len()];
        for _ in 0..PREPARE_ROUNDS {
            invalidate_plans(db)?;
            for (q, samples) in suite.iter().zip(&mut prepare_us) {
                let t = Instant::now();
                black_box(db.prepare(q.sql)?);
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        for (q, prepares) in suite.iter().zip(&prepare_us) {
            let plan = db.prepare(q.sql)?;
            let mut exec_ms = Vec::new();
            let mut reads_per_row = 0.0;
            for _ in 0..EXEC_ROUNDS {
                let before = db.io_stats();
                let t = Instant::now();
                let rs = db.query_prepared(&plan, &q.params)?;
                exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
                reads_per_row =
                    db.io_stats().since(&before).logical_reads as f64 / rs.rows.len().max(1) as f64;
            }
            let name = |metric: &str| format!("minirel.sql.{}.{metric}", q.name);
            out.put(name("prepare_us"), stats::median(prepares));
            out.put(name("exec_ms"), stats::median(&exec_ms));
            out.put(name("reads_per_row"), reads_per_row);
        }
        // The copied texts are the monitor functions' texts exactly when
        // those functions find every plan already cached.
        let in_sync = {
            let db: &Database = db;
            let (_, misses_before) = db.plan_cache_stats();
            operator::LIGHT.into_iter().all(|q| q(db).is_ok())
                && operator::HEAVY
                    .into_iter()
                    .all(|q| q(db, world, psi).is_ok())
                && db.plan_cache_stats().1 == misses_before
        };
        invalidate_plans(db)?;
        Ok(in_sync)
    })?;
    checks.check("monitor_sql_copies_in_sync", 6, in_sync);

    let (hits0, misses0) = session.with_db_read(|db| db.plan_cache_stats());
    let (mut queries, mut errors) = (0, 0);
    for _ in 0..3 {
        let suite = operator::run_suite(session, world);
        queries += suite.queries();
        errors += suite.errors;
    }
    checks.check("monitor_queries_ok", queries, errors == 0);
    let (hits1, misses1) = session.with_db_read(|db| db.plan_cache_stats());
    let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
    out.put(
        "minirel.sql.plan_cache_hit_ratio",
        ratio(hits, hits + misses),
    );
    Ok(())
}

// ------------------------------------------------------ recovery, replica

/// Reopen the file-backed replay's store (redo-on-open over its whole
/// log), then let a replica catch up with one burst of inserts.
fn drive_recovery(
    traced: Replayed,
    files: &SessionFiles,
    out: &mut Values,
    checks: &mut Checks,
) -> DbResult<()> {
    let Replayed { mut db, .. } = traced;
    db.commit_durable()?;
    let wal_mb = db.wal().map_or(0, |w| w.len_bytes()) as f64 / 1e6;
    let rows_before = db.table_len("crawl")?;
    drop(db);
    let t = Instant::now();
    let mut db = Database::open_with(&files.path, POOL_FRAMES, minirel::DEFAULT_GROUP_COMMIT)?;
    let open_s = t.elapsed().as_secs_f64();
    out.put("minirel.recovery.open_s", open_s);
    out.put("minirel.recovery.replay_mb_per_s", ratio(wal_mb, open_s));
    checks.check(
        "reopen_recovers_every_row",
        1,
        db.table_len("crawl")? == rows_before,
    );

    let replica = Replica::spawn(&mut db)?;
    let link = db.table_id("link")?;
    let rows = (0..REPLICA_BURST_ROWS)
        .map(|i| vec![Value::Int(-1 - i); 5])
        .collect();
    db.insert_many(link, rows)?;
    let t = Instant::now();
    let lsn = db.commit()?;
    let caught_up = replica.wait_for_lsn(lsn, Duration::from_secs(30));
    out.put(
        "minirel.replica.catchup_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    checks.check(
        "replica_catches_up",
        1,
        caught_up && replica.error().is_none(),
    );
    Ok(())
}

// ------------------------------------------------------------- sessions

/// Per-layer numbers that only whole sessions give: the reference
/// session against the replay, the workload's own crawls against the
/// reference, and what only some workloads have (recovery and disk
/// footprint, live monitor latencies, the cluster's exchange).
fn session_metrics(
    out: &mut Values,
    reference: &workloads::Rep,
    outcome: &workloads::Outcome,
    replay_us_per_page: f64,
) {
    let pps_1w = reference.pages_per_sec();
    out.put("crawler.session.pps_1w", pps_1w);
    out.put(
        "crawler.session.vs_1w",
        ratio(outcome.median_of(|r| r.pages_per_sec()), pps_1w),
    );
    out.put(
        "crawler.session.harvest_vs_1w",
        ratio(outcome.median_of(|r| r.harvest), reference.harvest),
    );
    out.put(
        "crawler.session.unattributed_share",
        1.0 - ratio(replay_us_per_page, 1e6 / pps_1w),
    );
    let p50 = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(xs)
        }
    };
    out.put(
        "crawler.session.recover_s",
        p50(&outcome.optional(|r| r.recover_s)),
    );
    out.put(
        "crawler.session.disk_bytes_per_page",
        p50(&outcome.optional(|r| r.disk_bytes_per_page())),
    );

    // Latencies of live suites only: a suite against a finished store
    // says nothing about reads beside writes.
    let live = outcome.workload == Workload::MonitorMixed;
    let class = |f: fn(&operator::SuiteSample) -> &Vec<f64>| {
        if live {
            outcome.suite_class(f)
        } else {
            Vec::new()
        }
    };
    let heavy = class(|s| &s.heavy_ms);
    let waits: Vec<f64> = outcome
        .suites()
        .filter(|_| live)
        .map(|s| s.lock_wait_ms)
        .collect();
    out.put("crawler.monitor.lock_wait_p50_ms", p50(&waits));
    out.put("crawler.monitor.light_p50_ms", p50(&class(|s| &s.light_ms)));
    out.put("crawler.monitor.heavy_p50_ms", p50(&heavy));
    out.put(
        "crawler.monitor.heavy_tail_ms",
        if heavy.is_empty() {
            0.0
        } else {
            stats::tail(&heavy).1
        },
    );
    out.put("crawler.monitor.probe_p50_ms", p50(&class(|s| &s.probe_ms)));
    if let (true, Some(p)) = (live, stats::reportable_tail(heavy.len())) {
        println!(
            "crawler.monitor.heavy_tail_ms is p{p} of {} samples",
            heavy.len()
        );
    }

    out.put(
        "crawler.cluster.exchange_dropped",
        outcome.median_of(|r| r.exchange_dropped as f64),
    );
    out.put(
        "crawler.cluster.shard_attempt_skew",
        outcome.median_of(|r| {
            let max = r.shard_attempts.iter().max().copied().unwrap_or(0);
            let min = r.shard_attempts.iter().min().copied().unwrap_or(0);
            ratio(max as f64, min as f64)
        }),
    );
}

/// The traced run of `workload`: every per-layer metric, the spans
/// written to `trace-<workload>.json` in the work directory.
pub fn run(world: &World, scale: &Scale, workload: Workload, seconds: f64) -> DbResult<Report> {
    let mut out = Values::default();
    let mut checks = Checks::default();
    let spec = workload.spec(scale);
    let reference_spec = spec.reference();

    // The replay, traced and untraced, each on a fresh store.
    let files = |tag: &str| spec.file_backed.then(|| SessionFiles::new(tag));
    let (traced_files, untraced_files) = (files("replay-traced"), files("replay-untraced"));
    let plan = |files: &Option<SessionFiles>| ReplayPlan {
        cfg: reference_spec.cfg.clone(),
        in_flight: (spec.cfg.fetch_pool > 0).then_some(2 * spec.cfg.fetch_pool),
        file: files.as_ref().map(|f| f.path.clone()),
    };
    let mut tracer = Tracer::default();
    let traced = replay::replay(world, &plan(&traced_files), &mut tracer)?;
    let untraced = replay::replay(world, &plan(&untraced_files), &mut NoTrace)?;
    drop(untraced_files);
    let counts = traced.counts.clone();
    let times = tracer.by_stage();
    let untraced_wall_s = untraced.wall_s;
    println!(
        "replay wall: traced {:.3} s, untraced {untraced_wall_s:.3} s",
        traced.wall_s
    );
    drop(untraced);
    replay_metrics(
        &mut out,
        &counts,
        &times,
        &traced,
        untraced_wall_s,
        tracer.spans.len(),
    );
    checks.check(
        "replay_attempts_eq_budget",
        counts.attempts,
        counts.attempts == spec.cfg.max_fetches
            && counts.attempts == counts.successes + counts.failures,
    );
    let dir = workloads::work_dir();
    let trace_path = dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_json(&trace_path));
    checks.check("trace_written", 1, written.is_ok());
    drop(tracer);

    // The reference session: the same crawl at 1 worker.
    let finished = workloads::single_session(world, &reference_spec, "reference");
    let reference = &finished.rep;
    checks.ops += reference.ops;
    if !reference.violations.is_empty() {
        checks.failed += reference.ops;
    }
    let close = |a: f64, b: f64| (a - b).abs() <= REPLAY_TOLERANCE * b.abs();
    let replay_harvest = ratio(counts.harvest_sum, counts.successes as f64);
    println!(
        "replay vs 1-worker session: successes {} vs {}, harvest {replay_harvest:.4} vs {:.4}",
        counts.successes, reference.successes, reference.harvest
    );
    checks.check(
        "replay_is_representative",
        counts.attempts,
        close(counts.successes as f64, reference.successes as f64)
            && close(replay_harvest, reference.harvest),
    );
    let session = finished
        .session
        .as_ref()
        .ok_or_else(|| DbError::Eval("the reference session did not survive its crawl".into()))?;
    let t = Instant::now();
    let distilled = session.distill_now();
    out.put(
        "crawler.session.distill_now_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    checks.check("distill_now_ok", 1, distilled.is_ok());
    drive_sql(session, world, &mut out, &mut checks)?;

    // The workload's own crawls, for half the window.
    let outcome = workloads::run(world, scale, workload, seconds / 2.0);
    checks.ops += outcome.ops();
    checks.failed += outcome.failed_ops();
    session_metrics(
        &mut out,
        reference,
        &outcome,
        ratio(untraced_wall_s * 1e6, counts.attempts as f64),
    );
    drop(finished);

    drive_storage(scale, &mut out, &mut checks)?;
    drive_fetch_pool(world, scale, &mut out, &mut checks);
    drive_health(scale, &mut out);
    match &traced_files {
        Some(files) => drive_recovery(traced, files, &mut out, &mut checks)?,
        None => {
            for name in [
                "minirel.recovery.open_s",
                "minirel.recovery.replay_mb_per_s",
                "minirel.replica.catchup_ms",
            ] {
                out.put(name, 0.0);
            }
        }
    }
    Ok(Report {
        values: out,
        attempted: checks.ops,
        failed: checks.failed,
    })
}
