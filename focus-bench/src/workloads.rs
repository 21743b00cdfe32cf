//! The five workloads, run end to end through the public session and
//! cluster APIs: fixed-budget crawls repeated in a closed loop until the
//! measuring window is used up, every one followed by its correctness
//! checks.

use crate::operator::{self, SuiteSample};
use crate::stats;
use crate::world::{Scale, World};
use focus_crawler::session::{CrawlConfig, CrawlSession, CrawlStats, Durability};
use focus_crawler::tables::visited;
use focus_crawler::{CrawlCluster, CrawlEvent, StartOptions};
use focus_webgraph::{Fetcher, SimFetcher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest crawls a run reports a median over, however short the window.
const MIN_REPS: usize = 3;
/// Suite passes against a finished store; their median is reported. One
/// pass alone lands now and then on the kernel still writing back a
/// file-backed crawl's log.
const FINISHED_STORE_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CrawlCpu,
    CrawlWan,
    CrawlDurable,
    MonitorMixed,
    CrawlSharded,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CrawlCpu,
        Workload::CrawlWan,
        Workload::CrawlDurable,
        Workload::MonitorMixed,
        Workload::CrawlSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrawlCpu => "crawl-cpu",
            Workload::CrawlWan => "crawl-wan",
            Workload::CrawlDurable => "crawl-durable",
            Workload::MonitorMixed => "monitor-mixed",
            Workload::CrawlSharded => "crawl-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Attempts per crawl.
    pub fn budget(self, scale: &Scale) -> u64 {
        match self {
            Workload::CrawlCpu => scale.budget_cpu,
            Workload::CrawlWan => scale.budget_wan,
            Workload::CrawlDurable => scale.budget_durable,
            Workload::MonitorMixed => scale.budget_monitor,
            Workload::CrawlSharded => scale.budget_sharded,
        }
    }

    /// The shipping configuration (`SoftFocus`, distil every 500, batch
    /// 8, 512 frames, default politeness and failure handling) with what
    /// this workload varies. CPU workers never exceed the two cores the
    /// benchmark is sized for; `crawl-wan`'s pool threads sleep inside
    /// the simulated fetch and are the one exception.
    pub fn spec(self, scale: &Scale) -> SessionSpec {
        let base = CrawlConfig {
            threads: 2,
            max_fetches: self.budget(scale),
            ..CrawlConfig::default()
        };
        let cfg = match self {
            Workload::CrawlCpu | Workload::CrawlSharded => base,
            Workload::CrawlWan => CrawlConfig {
                fetch_pool: scale.wan_pool,
                batch_size: scale.wan_batch,
                ..base
            },
            Workload::CrawlDurable | Workload::MonitorMixed => CrawlConfig { threads: 1, ..base },
        };
        SessionSpec {
            cfg,
            latency: (self == Workload::CrawlWan && scale.wan_latency_ms > 0)
                .then(|| Duration::from_millis(scale.wan_latency_ms)),
            file_backed: self == Workload::CrawlDurable,
            watch_every: (self == Workload::MonitorMixed).then_some(scale.watch_every),
        }
    }
}

/// One session's shape: its configuration (durability is filled in per
/// crawl, with a fresh file), the simulated fetch latency, whether its
/// store is file-backed, and how often the operator watching it refreshes
/// (`None` = nobody watches).
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub cfg: CrawlConfig,
    pub latency: Option<Duration>,
    pub file_backed: bool,
    /// The operator runs one suite per this many classified pages. Refreshing on progress instead of on a
    /// timer puts every crawl's suites at the same store sizes; on a
    /// timer, a suite that starts a little later meets a larger store,
    /// holds the lock longer and delays the next one, and neither suite
    /// time nor crawl throughput repeats.
    pub watch_every: Option<u64>,
}

impl SessionSpec {
    /// The same crawl with nothing overlapped or waited for: one worker,
    /// a zero-latency web, nobody watching. What the traced run compares
    /// a workload and the stage replay against.
    pub fn reference(&self) -> SessionSpec {
        SessionSpec {
            cfg: CrawlConfig {
                threads: 1,
                ..self.cfg.clone()
            },
            latency: None,
            file_backed: self.file_backed,
            watch_every: None,
        }
    }

    fn fetcher(&self, world: &World) -> Arc<SimFetcher> {
        Arc::new(SimFetcher::new(Arc::clone(&world.graph), self.latency))
    }
}

/// Where file-backed sessions and traces go: inside the build directory,
/// so a run reads and writes only what `.gitignore` already names.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("focus-bench")
}

/// A file-backed session's data file and WAL, removed on drop — also
/// when a rep panics or fails a check.
pub(crate) struct SessionFiles {
    pub(crate) path: PathBuf,
}

impl SessionFiles {
    pub(crate) fn new(tag: &str) -> SessionFiles {
        // Process id and a counter keep concurrent runs, and concurrent
        // tests of one process, on files of their own.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir();
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        let files = SessionFiles {
            path: dir.join(format!("{tag}-{}-{n}.db", std::process::id())),
        };
        files.remove();
        files
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
        let _ = std::fs::remove_file(minirel::wal_path_for(&self.path));
    }

    pub(crate) fn bytes(&self) -> u64 {
        [self.path.clone(), minirel::wal_path_for(&self.path)]
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum()
    }
}

impl Drop for SessionFiles {
    fn drop(&mut self) {
        self.remove();
    }
}

/// One crawl and everything measured around it.
#[derive(Debug, Default)]
pub struct Rep {
    /// Session/cluster/file construction and seeding.
    pub construct_s: f64,
    /// `start()` to `join()` returning.
    pub crawl_s: f64,
    pub attempts: u64,
    pub successes: u64,
    pub harvest: f64,
    /// Every monitor suite run on this crawl's store(s), live or after.
    pub suites: Vec<SuiteSample>,
    /// Monitor-suite wall time of this crawl: the mean of its live suites
    /// when it was watched (they run at growing store sizes, so their
    /// mean moves smoothly where a pooled median would jump between
    /// sizes); otherwise the suite against the finished store — on
    /// `crawl-sharded` the operator has to ask every shard, so the
    /// shards' suites add up.
    pub suite_ms: f64,
    /// `crawl-durable`: wall time of `CrawlSession::recover` and the
    /// data + WAL file bytes at wind-down.
    pub recover_s: Option<f64>,
    pub disk_bytes: Option<u64>,
    /// `crawl-sharded`: exchange drops and per-shard attempts.
    pub exchange_dropped: u64,
    pub shard_attempts: Vec<u64>,
    /// Operations attempted: page attempts, monitor queries, recoveries.
    pub ops: u64,
    /// Names of the correctness checks this crawl violated.
    pub violations: Vec<String>,
}

impl Rep {
    pub fn pages_per_sec(&self) -> f64 {
        self.attempts as f64 / self.crawl_s
    }

    pub fn disk_bytes_per_page(&self) -> Option<f64> {
        Some(self.disk_bytes? as f64 / self.successes as f64)
    }

    fn check(&mut self, name: &str, holds: bool) {
        if !holds {
            eprintln!("correctness check violated: {name}");
            self.violations.push(name.to_owned());
        }
    }

    fn check_stats(&mut self, budget: u64, stats: &CrawlStats, fetcher: &SimFetcher) {
        self.attempts = stats.attempts;
        self.successes = stats.successes;
        self.harvest = stats.mean_harvest();
        self.check("attempts_eq_budget", stats.attempts == budget);
        self.check(
            "attempts_eq_successes_plus_failures",
            stats.attempts == stats.successes + stats.failures,
        );
        self.check(
            "fetch_count_eq_attempts",
            fetcher.fetch_count() == stats.attempts,
        );
    }

    /// Store-side invariants of one finished session; returns its
    /// visited count.
    fn check_store(&mut self, session: &CrawlSession) -> u64 {
        let claimed = session
            .sql(&format!(
                "select count(*) from crawl where visited = {}",
                visited::CLAIMED
            ))
            .ok()
            .and_then(|rs| rs.scalar_i64());
        self.check("no_claimed_rows", claimed == Some(0));
        session.visited().len() as u64
    }

    fn add_suite(&mut self, suite: SuiteSample) {
        self.ops += suite.queries();
        self.check("monitor_queries_ok", suite.errors == 0);
        self.suites.push(suite);
    }

    /// The operator's suite against a finished store: the median of
    /// [`FINISHED_STORE_PASSES`] passes, added to `suite_ms`.
    fn watch_finished(&mut self, session: &CrawlSession, world: &World) {
        let totals: Vec<f64> = (0..FINISHED_STORE_PASSES)
            .map(|_| {
                let suite = operator::run_suite(session, world);
                let total = suite.total_ms;
                self.add_suite(suite);
                total
            })
            .collect();
        self.suite_ms += stats::median(&totals);
    }
}

/// A finished crawl: what was measured, and the session itself (the
/// recovered one when file-backed) for whoever wants its quiesced store.
pub struct Finished {
    pub rep: Rep,
    pub session: Option<Arc<CrawlSession>>,
    /// Declared after `session` so the files outlive the store on them.
    _files: Option<SessionFiles>,
}

/// Crawl one fresh session of `spec` to its budget, check it, run the
/// operator's suite (live when the spec is watched), and recover it if
/// it is file-backed (`tag` names its files).
pub fn single_session(world: &World, spec: &SessionSpec, tag: &str) -> Finished {
    let mut rep = Rep::default();
    let budget = spec.cfg.max_fetches;
    let fetcher = spec.fetcher(world);
    let files = spec.file_backed.then(|| SessionFiles::new(tag));
    let cfg = CrawlConfig {
        durability: match &files {
            Some(f) => Durability::File {
                path: f.path.clone(),
                group_commit: minirel::DEFAULT_GROUP_COMMIT,
            },
            None => Durability::None,
        },
        ..spec.cfg.clone()
    };

    let t = Instant::now();
    let session = CrawlSession::new(fetcher.clone(), world.model.clone(), cfg.clone())
        .and_then(|s| s.seed(&world.seeds).map(|()| Arc::new(s)));
    rep.construct_s = t.elapsed().as_secs_f64();
    rep.ops = budget;
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            rep.check(&format!("session_built ({e})"), false);
            return Finished {
                rep,
                session: None,
                _files: files,
            };
        }
    };

    let (result, live) = std::thread::scope(|scope| {
        // The operator is told of every `every`th classified page by an
        // observer counting inside the worker; following the event stream
        // itself would wake the operator thread once per page.
        let (due, refreshes) = std::sync::mpsc::channel::<()>();
        let mut options = StartOptions::default();
        if let Some(every) = spec.watch_every {
            let classified = AtomicU64::new(0);
            options.observers.push(Arc::new(move |event: &CrawlEvent| {
                if matches!(event, CrawlEvent::PageClassified { .. })
                    && (classified.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every)
                {
                    let _ = due.send(());
                }
            }));
        }
        let operator = spec.watch_every.map(|_| {
            let session = &session;
            scope.spawn(move || {
                // Ends when the run, and with it the observer, is gone.
                refreshes
                    .into_iter()
                    .map(|()| operator::run_suite(session, world))
                    .collect::<Vec<_>>()
            })
        });
        let t = Instant::now();
        let result = session.start_with(options).and_then(|run| run.join());
        rep.crawl_s = t.elapsed().as_secs_f64();
        let live = operator.map(|h| h.join().expect("operator thread"));
        (result, live)
    });
    match result {
        Ok(stats) => rep.check_stats(budget, &stats, &fetcher),
        Err(e) => rep.check(&format!("run_ok ({e})"), false),
    }
    let visited = rep.check_store(&session);
    rep.check("visited_eq_successes", visited == rep.successes);
    match live {
        Some(suites) => {
            let totals: Vec<f64> = suites.iter().map(|s| s.total_ms).collect();
            rep.suite_ms = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
            suites.into_iter().for_each(|s| rep.add_suite(s));
        }
        None => rep.watch_finished(&session, world),
    }

    let mut session = Some(session);
    if let Some(files) = &files {
        rep.disk_bytes = Some(files.bytes());
        // Recovery reopens the files, so the crawled session goes first.
        session = None;
        rep.ops += 1;
        let t = Instant::now();
        let recovered = CrawlSession::recover(spec.fetcher(world), world.model.clone(), cfg);
        rep.recover_s = Some(t.elapsed().as_secs_f64());
        match recovered {
            Ok(s) => {
                rep.check("recover_visited_eq", s.visited().len() as u64 == visited);
                session = Some(Arc::new(s));
            }
            Err(e) => rep.check(&format!("recover_ok ({e})"), false),
        }
    }
    Finished {
        rep,
        session,
        _files: files,
    }
}

fn sharded(world: &World, spec: &SessionSpec) -> Rep {
    let mut rep = Rep::default();
    let budget = spec.cfg.max_fetches;
    let fetcher = spec.fetcher(world);
    let t = Instant::now();
    let cluster = CrawlCluster::new(2, fetcher.clone(), world.model.clone(), spec.cfg.clone())
        .and_then(|c| c.seed(&world.seeds).map(|()| c));
    rep.construct_s = t.elapsed().as_secs_f64();
    rep.ops = budget;
    let cluster = match cluster {
        Ok(c) => c,
        Err(e) => {
            rep.check(&format!("cluster_built ({e})"), false);
            return rep;
        }
    };
    let t = Instant::now();
    let result = cluster.start().and_then(|run| run.join());
    rep.crawl_s = t.elapsed().as_secs_f64();
    match result {
        Ok(stats) => {
            rep.check_stats(budget, &stats, &fetcher);
            let shards: Vec<CrawlStats> = cluster.shards().iter().map(|s| s.stats()).collect();
            let sum = |f: fn(&CrawlStats) -> u64| shards.iter().map(f).sum::<u64>();
            let total = cluster.stats();
            rep.check(
                "cluster_stats_eq_shard_sum",
                total.attempts == sum(|s| s.attempts)
                    && total.successes == sum(|s| s.successes)
                    && total.failures == sum(|s| s.failures)
                    && total.attempts == stats.attempts,
            );
            rep.shard_attempts = shards.iter().map(|s| s.attempts).collect();
        }
        Err(e) => rep.check(&format!("run_ok ({e})"), false),
    }
    rep.exchange_dropped = cluster.exchange_dropped();
    let mut visited = 0;
    for shard in cluster.shards() {
        visited += rep.check_store(shard);
        rep.watch_finished(shard, world);
    }
    rep.check("visited_eq_successes", visited == rep.successes);
    rep
}

/// Everything one workload's crawls measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub reps: Vec<Rep>,
}

impl Outcome {
    pub fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    pub fn samples(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps.iter().map(f).collect()
    }

    /// What only some crawls measure (recovery, disk footprint).
    pub fn optional(&self, f: impl Fn(&Rep) -> Option<f64>) -> Vec<f64> {
        self.reps.iter().filter_map(f).collect()
    }

    /// Query latencies of one class, pooled over every suite.
    pub fn suite_class(&self, f: impl Fn(&SuiteSample) -> &Vec<f64>) -> Vec<f64> {
        self.suites().flat_map(f).copied().collect()
    }

    pub fn suites(&self) -> impl Iterator<Item = &SuiteSample> {
        self.reps.iter().flat_map(|r| &r.suites)
    }

    pub fn ops(&self) -> u64 {
        self.reps.iter().map(|r| r.ops).sum()
    }

    /// Every operation of a crawl that violated a check counts as failed.
    pub fn failed_ops(&self) -> u64 {
        self.reps
            .iter()
            .filter(|r| !r.violations.is_empty())
            .map(|r| r.ops)
            .sum()
    }
}

/// Crawl `workload` over and over for `seconds` (at least [`MIN_REPS`]
/// times): fixed work per crawl, a fresh session each time, the next one
/// starting only when the previous has been checked.
pub fn run(world: &World, scale: &Scale, workload: Workload, seconds: f64) -> Outcome {
    let spec = workload.spec(scale);
    let window = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || window.elapsed().as_secs_f64() < seconds {
        reps.push(match workload {
            Workload::CrawlSharded => sharded(world, &spec),
            _ => single_session(world, &spec, workload.name()).rep,
        });
    }
    Outcome { workload, reps }
}
