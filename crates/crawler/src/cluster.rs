//! Sharded crawling: N independent [`CrawlSession`]s behind one handle,
//! the same [`CrawlRun`] a crawl of one session returns.
//!
//! The paper's title promises *distributed* resource discovery, and its
//! §3.1 design — all crawl state in relational tables — is what makes
//! the distribution mechanical: partition the `CRAWL` table by server
//! and every per-server invariant becomes a per-shard invariant. A
//! [`CrawlCluster`] owns `n_shards` sessions, each with its own
//! [`minirel::Database`], worker pool, classifier copy, and distiller;
//! a page lives on the shard
//!
//! ```text
//! host_server_id(url) % n_shards
//! ```
//!
//! so *all* pages of one server land on one shard. That keeps the §2.2
//! nepotism filter and the per-server load accounting local facts — no
//! shard ever needs another shard's tables to apply them.
//!
//! **The exchange.** Links cross servers, so they cross shards: when a
//! worker classifies a page whose outlink belongs elsewhere, the
//! [`FrontierEntry`] — carrying the priority this shard's classifier
//! assigned — is pushed into the owner's bounded inbox on the
//! `ShardExchange`. Owners drain their inbox exactly where they drain
//! the command queue (page boundaries and the top of the worker loop),
//! so cross-shard latency equals steering latency. Every session has an
//! exchange: a standalone [`CrawlSession`] is shard 0 of a one-shard
//! exchange of its own, so routing, gauges and the stagnation verdict
//! are one code path for one shard or many.
//!
//! **Nothing is dropped but overflow.** An inbox keeps every entry it
//! is handed, also while its shard has no live workers (its share of
//! the budget is spent, or it was stopped): the entries land at that
//! shard's next start, or at a checkpoint, which drains every inbox.
//! Only an inbox already holding [`EXCHANGE_CAPACITY`] entries drops
//! one, and counts it ([`CrawlCluster::exchange_dropped`]) — the same
//! never-block contract as the event channel.
//!
//! **Termination.** "My frontier is empty and nothing is in flight" is a
//! shard-local fact; the crawl is only over when it holds on every shard
//! with live workers *and* nothing is queued for one. The exchange
//! tracks an in-flight gauge, a queued-entry gauge and an idle flag per
//! shard, per-shard live-worker counts, and an epoch that moves whenever
//! an idle flag falls. A locally-idle worker records its verdict and the
//! epoch under its store lock and asks the exchange (`try_finish`)
//! for the global one, which latches only on a consistent cut: a page's
//! cross-shard entries are routed *before* its in-flight gauge falls,
//! drained entries stay queued until they are in the owner's frontier,
//! and any work that reaches an idle shard after the caller's verdict
//! moves the epoch. Every run, of one shard or all of them, starts
//! through one launch sequence (`launch`), which re-arms the verdict and
//! builds the run's [`CrawlRun`].
//!
//! **What is global, what is not.** The run's `mark_topic` broadcasts to
//! every shard (each recompiles and Arc-swaps its own [`CompiledModel`]).
//! `pause`/`resume`/`stop` broadcast; latency stays one page per shard.
//! `add_seeds` hands each seed to its owner, `add_budget` splits over
//! the live shards, and every shard emits into the run's one event
//! channel. `stats()` sums counters ([`merge_stats`]) and `landings()`
//! merges the shards' landing series ([`merge_landings`]). Checkpoints
//! are one [`CrawlCheckpoint`] per shard in a [`ClusterCheckpoint`]
//! manifest. Distillation stays **per-shard**:
//! each shard runs HITS over the links it discovered (its boosts still
//! route by owner). Budget and workers are split across shards at
//! construction — by one shard loop, for `new` and `restore` alike: a
//! shard is a session built over nothing or over its checkpoint.
//! Every shard would get the same `Durability::File` path, so a
//! file-backed cluster of more than one shard is refused up front (one
//! store file per shard is not supported).
//!
//! [`CompiledModel`]: focus_classifier::compiled::CompiledModel

use crate::events::{EventSink, EventStream};
use crate::frontier::FrontierEntry;
use crate::run::{spawn_thread, CrawlError, CrawlRun, ShardRun, StartOptions, WorkerSpawner};
use crate::session::{expect, Violation};
use crate::session::{
    CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats, Durability, Landing, Origin,
};
use crate::tables::host_server_id;
use focus_classifier::model::TrainedModel;
use focus_types::{ClassId, Oid, ServerId};
use focus_webgraph::Fetcher;
use lockcheck::{rank, OrderedMutex};
use minirel::{DbError, DbResult, Value};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;

/// Per-inbox bound of the cross-shard exchange. Generous: inboxes are
/// drained every page boundary, so an inbox only grows when its owner is
/// paused or much slower than its peers; overflow drops entries (and
/// counts them) rather than blocking the classifying shard.
pub const EXCHANGE_CAPACITY: usize = 65_536;

/// A session's view of its exchange: which shard it is, of how many,
/// plus the exchange itself — shared by a cluster's shards, or a
/// standalone session's own ([`ShardCtx::alone`]).
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) shard: usize,
    /// Total shards in the cluster.
    pub(crate) n_shards: usize,
    /// The shared exchange.
    pub(crate) exchange: Arc<ShardExchange>,
}

/// THE partition function: the shard owning server `sid`. Every routing
/// site — link-time outlink routing, boost routing, seed routing, and
/// the public [`CrawlCluster::owner_of`] — must go through this one
/// definition; a second spelling that drifted (say, to a different hash
/// mix) would scatter a server across shards and break the exactly-once
/// and nepotism-locality invariants.
pub(crate) fn shard_of(sid: ServerId, n_shards: usize) -> usize {
    sid.raw() as usize % n_shards
}

impl ShardCtx {
    /// A standalone session's view: shard 0 of a one-shard exchange of
    /// its own.
    pub(crate) fn alone() -> ShardCtx {
        ShardCtx {
            shard: 0,
            n_shards: 1,
            exchange: Arc::new(ShardExchange::new(1, EXCHANGE_CAPACITY)),
        }
    }

    /// The shard owning `sid`'s pages.
    pub(crate) fn owner_of(&self, sid: ServerId) -> usize {
        shard_of(sid, self.n_shards)
    }
}

/// The shard owning a seed: by host when the URL is known, by
/// `oid % n_shards` otherwise (a fetcher without `url_of` metadata).
/// The single definition keeps every seed-routing site — cluster-level
/// partitioning, live `add_seeds`, and the per-session re-partition in
/// `seed_entries` — agreeing, so a seed can never be handed to a shard
/// that would route it elsewhere.
///
/// The oid fallback is a *different* partition than link-time routing
/// (which always has the URL): a URL-less seed can land off its true
/// owner, and if the same page is later discovered by URL the owner
/// fetches it again — per-shard upsert dedup cannot see the stray row.
/// Fetchers should implement [`focus_webgraph::Fetcher::url_of`] to
/// keep the exactly-once and one-server-one-shard invariants strict;
/// without it they hold only for link-discovered pages.
pub(crate) fn seed_owner(url: &str, oid: Oid, n_shards: usize) -> usize {
    if url.is_empty() {
        oid.raw() as usize % n_shards
    } else {
        shard_of(host_server_id(url), n_shards)
    }
}

/// The cross-shard fabric: bounded per-shard inboxes plus the gauges the
/// termination verdict reads. Every session holds one: a cluster's
/// shards share theirs, a standalone session is shard 0 of its own. See
/// [`ShardExchange::try_finish`] for how the verdict reads the gauges.
/// Every atomic here is `SeqCst`, so the verdict's reads and the
/// writers' updates fall in one total order.
pub(crate) struct ShardExchange {
    /// One bounded inbox per shard. An inbox keeps its entries until its
    /// shard drains it — also while that shard has no live workers.
    inboxes: Vec<OrderedMutex<VecDeque<FrontierEntry>>>,
    /// Per shard: entries routed to it and not yet landed in its
    /// frontier. This deliberately covers the take→upsert gap:
    /// [`ShardExchange::take`] leaves entries counted until
    /// [`ShardExchange::landed`].
    queued: Vec<AtomicUsize>,
    /// Claims checked out across all shards (mirror of the per-session
    /// gauges, maintained under the same critical sections).
    in_flight: AtomicUsize,
    /// Shard observed itself locally idle (empty frontier, nothing in
    /// flight, judged under its store lock). Cleared before work is
    /// routed to or lands on the shard.
    idle: Vec<AtomicBool>,
    /// Bumped whenever an idle flag goes from true to false (and at
    /// every arming): a verdict taken at one epoch is stale at another.
    epoch: AtomicU64,
    /// Live (registered) workers per shard. The verdict reads only the
    /// shards with live workers: a dead shard's frontier and inbox wait
    /// for its next start.
    live: Vec<AtomicUsize>,
    /// Shards whose runs are still launching: blocks the verdict until
    /// every shard's pool is registered.
    arming: AtomicUsize,
    /// The verdict of the current run, latched once.
    done: AtomicBool,
    /// Entries dropped because their inbox held [`EXCHANGE_CAPACITY`].
    dropped: AtomicU64,
    capacity: usize,
}

impl ShardExchange {
    pub(crate) fn new(n_shards: usize, capacity: usize) -> ShardExchange {
        ShardExchange {
            inboxes: (0..n_shards)
                .map(|_| OrderedMutex::new(rank::EXCHANGE_INBOX, VecDeque::new()))
                .collect(),
            queued: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
            in_flight: AtomicUsize::new(0),
            idle: (0..n_shards).map(|_| AtomicBool::new(false)).collect(),
            epoch: AtomicU64::new(0),
            live: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
            arming: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            capacity,
        }
    }

    /// Hand entries to `owner`'s inbox. Callers route *before* releasing
    /// the in-flight cover of the page that produced the entries.
    pub(crate) fn route(&self, owner: usize, entries: Vec<FrontierEntry>) {
        if entries.is_empty() {
            return;
        }
        // Coverage ordering (see `try_finish`): the idle flag falls and
        // the queued gauge rises *before* any entry becomes visible in
        // the inbox, so at no instant does queued undercount transit
        // work. Overflow drops are subtracted back out afterwards.
        self.clear_idle(owner);
        self.queued[owner].fetch_add(entries.len(), SeqCst);
        let mut dropped = 0usize;
        {
            let mut inbox = self.inboxes[owner].lock();
            for e in entries {
                if inbox.len() >= self.capacity {
                    dropped += 1;
                } else {
                    inbox.push_back(e);
                }
            }
        }
        if dropped > 0 {
            self.queued[owner].fetch_sub(dropped, SeqCst);
            self.dropped.fetch_add(dropped as u64, SeqCst);
        }
    }

    /// Entries routed to `shard` and not yet landed: one load, so a
    /// drain with nothing queued costs no lock.
    pub(crate) fn queued(&self, shard: usize) -> usize {
        self.queued[shard].load(SeqCst)
    }

    /// Pop everything queued for `shard`. The entries stay counted in
    /// its `queued` gauge until [`ShardExchange::landed`] — the caller
    /// upserts them into its frontier in between, and the gauge is what
    /// stops a verdict from firing inside that gap.
    pub(crate) fn take(&self, shard: usize) -> Vec<FrontierEntry> {
        let mut inbox = self.inboxes[shard].lock();
        if inbox.is_empty() {
            return Vec::new();
        }
        inbox.drain(..).collect()
    }

    /// `n` taken entries are now in `shard`'s frontier (or abandoned by
    /// an aborting run): release their queued cover and mark the shard
    /// non-idle.
    pub(crate) fn landed(&self, shard: usize, n: usize) {
        self.clear_idle(shard);
        self.queued[shard].fetch_sub(n, SeqCst);
    }

    pub(crate) fn add_in_flight(&self, n: usize) {
        self.in_flight.fetch_add(n, SeqCst);
    }

    /// Saturating: a panicked run's leak is subtracted once, when its
    /// shard's last worker exits, so a stray double-release must clamp
    /// at zero rather than wrap.
    pub(crate) fn sub_in_flight(&self, n: usize) {
        let _ = (self.in_flight).fetch_update(SeqCst, SeqCst, |v| Some(v.saturating_sub(n)));
    }

    /// Record `shard`'s local-idle verdict (empty frontier, nothing in
    /// flight, judged under its store lock) and return the epoch it was
    /// taken at, for [`ShardExchange::try_finish`].
    pub(crate) fn mark_idle(&self, shard: usize) -> u64 {
        self.idle[shard].store(true, SeqCst);
        self.epoch.load(SeqCst)
    }

    /// Work is about to reach `shard`: lower its idle flag. Only a
    /// true→false transition writes, and it bumps the epoch first, so a
    /// verdict that read the flag true and the epoch unchanged read both
    /// before the work arrived.
    pub(crate) fn clear_idle(&self, shard: usize) {
        if self.idle[shard].load(SeqCst) {
            self.epoch.fetch_add(1, SeqCst);
            self.idle[shard].store(false, SeqCst);
        }
    }

    /// The termination verdict of a caller that judged its own shard
    /// idle at `epoch` ([`ShardExchange::mark_idle`]): nothing launching,
    /// nothing in flight anywhere, nothing queued for a live shard,
    /// every live shard idle, and no idle flag lowered since `epoch`.
    /// Latches [`ShardExchange::finished`] on success. Shards without
    /// live workers are not read: what waits for them waits for their
    /// next start.
    ///
    /// The reads are a sweep, not a snapshot: in-flight, the live
    /// shards' queues, the live shards' flags, then both gauges again,
    /// then the epoch. It latches only on a consistent cut, because
    /// every unit of undone work keeps at least one indicator "bad" for
    /// its whole lifetime, with overlap at every handoff —
    ///
    /// * exchange transit: `queued[s]` rises before the entry is visible
    ///   in an inbox ([`ShardExchange::route`]) and falls only after it
    ///   sits in the owner's frontier ([`ShardExchange::landed`]);
    /// * frontier work: the owner's idle flag is lowered *before* the
    ///   upsert, inside the store critical section, and only a verdict
    ///   that observes an empty frontier with zero local in-flight
    ///   (also under that lock) raises it again;
    /// * claimed work: `in_flight` rises in the claim's critical
    ///   section and falls only after the page's outputs (local
    ///   upserts, cross-shard routes) are published.
    ///
    /// Those alone leave one hole, which the epoch closes. The sweep
    /// reads shard A's flag true and is preempted. Shard B lands a page
    /// routed to A and goes idle again; A drains the entry, so its queue
    /// falls, and before A claims it both gauges read 0 again. Every
    /// indicator the re-read sees is clean, yet A's frontier holds work.
    /// Whatever lowered A's flag after the sweep read it — here the
    /// route — bumped the epoch, so the caller's verdict is stale and
    /// the latch is refused; the caller judges again. The same holds for two workers of one shard: a seed one of
    /// them adds after the other judged the shard idle is crawled.
    ///
    /// External injection that lands after the latch (an `add_seeds`
    /// racing the end of the crawl) funds the next `start()`.
    pub(crate) fn try_finish(&self, epoch: u64) -> bool {
        if self.done.load(SeqCst) {
            return true;
        }
        if self.arming.load(SeqCst) != 0 || self.busy() {
            return false;
        }
        if self.live_shards().any(|s| !self.idle[s].load(SeqCst)) {
            return false;
        }
        if self.busy() || self.epoch.load(SeqCst) != epoch {
            return false;
        }
        self.done.store(true, SeqCst);
        true
    }

    /// Claims in flight anywhere, or entries queued for a live shard.
    fn busy(&self) -> bool {
        self.in_flight.load(SeqCst) != 0
            || self.live_shards().any(|s| self.queued[s].load(SeqCst) != 0)
    }

    /// The shards with registered workers.
    fn live_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).filter(|&s| self.live[s].load(SeqCst) != 0)
    }

    /// Has the current run's verdict latched?
    pub(crate) fn finished(&self) -> bool {
        self.done.load(SeqCst)
    }

    /// Arm a run of `launching` shards: the verdict waits for each to
    /// call [`ShardExchange::launched_one`]. Arms add up, so shards
    /// started on their own can launch concurrently.
    fn arm(&self, launching: usize) {
        self.arming.fetch_add(launching, SeqCst);
        self.done.store(false, SeqCst);
        self.epoch.fetch_add(1, SeqCst);
        for f in &self.idle {
            f.store(false, SeqCst);
        }
    }

    /// One shard's run finished launching (or definitively won't).
    fn launched_one(&self) {
        let _ = (self.arming).fetch_update(SeqCst, SeqCst, |v| Some(v.saturating_sub(1)));
    }

    /// Register `n` workers of `shard` before any of them runs.
    pub(crate) fn workers_arming(&self, shard: usize, n: usize) {
        self.live[shard].fetch_add(n, SeqCst);
    }

    /// Retire one worker registration; `true` when it was the last.
    pub(crate) fn worker_exited(&self, shard: usize) -> bool {
        self.live[shard].fetch_sub(1, SeqCst) == 1
    }

    /// Entries dropped on the floor (inbox overflow).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(SeqCst)
    }
}

/// The one launch sequence, for a standalone session's shard and for
/// every shard of a cluster alike, and the one place a [`CrawlRun`] is
/// built: arm the shards' exchange once, open the run's event channel,
/// spawn each shard's pool ([`ShardRun::spawn`]) and count it launched —
/// or, on a failure, count the rest as never launching and wind down the
/// shards already started (dropping a [`CrawlRun`] stops and joins it).
pub(crate) fn launch(
    shards: &[Arc<CrawlSession>],
    opts: StartOptions,
    spawn: &mut WorkerSpawner,
) -> Result<CrawlRun, CrawlError> {
    let exchange = &shards[0].shard.exchange;
    exchange.arm(shards.len());
    let dropped = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::sync_channel(opts.event_capacity.max(1));
    let sink = Arc::new(EventSink::new(
        Some(tx),
        opts.observers.clone(),
        Arc::clone(&dropped),
    ));
    let mut run = CrawlRun {
        shards: Vec::with_capacity(shards.len()),
        events: Some(EventStream::new(rx, Arc::clone(&dropped))),
        tail_sink: EventSink::new(None, opts.observers, Arc::clone(&dropped)),
        dropped,
    };
    for (i, session) in shards.iter().enumerate() {
        let shard = ShardRun::spawn(Arc::clone(session), &sink, spawn);
        if shard.is_err() {
            (i..shards.len()).for_each(|_| exchange.launched_one());
        }
        run.shards.push(shard?);
        exchange.launched_one();
    }
    Ok(run)
}

/// A sharded crawl: `n_shards` independent sessions partitioned by
/// `host_server_id(url) % n_shards`, wired through one exchange.
///
/// The cluster-level API mirrors the session API: [`CrawlCluster::seed`],
/// [`CrawlCluster::start`] → [`CrawlRun`], [`CrawlCluster::stats`],
/// [`CrawlCluster::checkpoint`] / [`CrawlCluster::restore`]. The
/// configured worker count and fetch budget are split across shards
/// (each shard runs at least one worker).
pub struct CrawlCluster {
    shards: Vec<Arc<CrawlSession>>,
}

impl CrawlCluster {
    /// Build a cluster of `n_shards` sessions over one fetcher. Each
    /// shard gets its own database and classifier copy; `cfg.threads`
    /// and `cfg.max_fetches` are the cluster-wide totals, split across
    /// shards.
    pub fn new(
        n_shards: usize,
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
    ) -> DbResult<CrawlCluster> {
        Self::build(n_shards, fetcher, model, cfg, None)
    }

    /// Rebuild a cluster from a [`ClusterCheckpoint`]: one
    /// [`CrawlSession::restore`] per shard. The shard count is the
    /// manifest's — re-sharding a checkpoint would move rows between
    /// databases and is not supported.
    pub fn restore(
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: &ClusterCheckpoint,
    ) -> DbResult<CrawlCluster> {
        Self::build(ckpt.shards.len(), fetcher, model, cfg, Some(ckpt))
    }

    /// The one shard loop: shard `i` is a session built over nothing, or
    /// over `ckpt.shards[i]`, wired to the shared exchange.
    fn build(
        n_shards: usize,
        fetcher: Arc<dyn Fetcher>,
        model: TrainedModel,
        cfg: CrawlConfig,
        ckpt: Option<&ClusterCheckpoint>,
    ) -> DbResult<CrawlCluster> {
        if n_shards == 0 {
            return Err(DbError::Eval("a cluster needs at least one shard".into()));
        }
        if let (true, Durability::File { path, .. }) = (n_shards > 1, &cfg.durability) {
            // Every shard would open — and rotate the log of — the same
            // files. Refused before the first one is created.
            return Err(DbError::Eval(format!(
                "a cluster of {n_shards} shards cannot share the store file {}: one store \
                 file per shard is not supported (use Durability::Wal, or one shard)",
                path.display()
            )));
        }
        let exchange = Arc::new(ShardExchange::new(n_shards, EXCHANGE_CAPACITY));
        let mut shards = Vec::with_capacity(n_shards);
        for (shard, shard_cfg) in split_config(&cfg, n_shards).into_iter().enumerate() {
            let origin = ckpt.map_or(Origin::Fresh, |c| Origin::Checkpoint(&c.shards[shard]));
            let exchange = Arc::clone(&exchange);
            let ctx = ShardCtx {
                shard,
                n_shards,
                exchange,
            };
            let (fetcher, model) = (Arc::clone(&fetcher), model.clone());
            let session = CrawlSession::build(fetcher, model, shard_cfg, origin, ctx)?;
            shards.push(Arc::new(session));
        }
        Ok(CrawlCluster { shards })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard sessions (monitoring SQL, snapshots). Index `i` is
    /// the shard owning servers with `sid % n_shards == i`.
    pub fn shards(&self) -> &[Arc<CrawlSession>] {
        &self.shards
    }

    /// The shard that owns `url`'s server.
    pub fn owner_of(&self, url: &str) -> usize {
        shard_of(host_server_id(url), self.shards.len())
    }

    /// Seed the cluster with the start set: each seed lands directly on
    /// its owning shard (resolved through [`Fetcher::url_of`]; a seed
    /// with no resolvable URL falls back to `oid % n_shards`).
    pub fn seed(&self, seeds: &[Oid]) -> DbResult<()> {
        let fetcher = self.shards[0].fetcher().as_ref();
        let groups = partition_seeds(fetcher, seeds, self.shards.len());
        for (shard, group) in groups.into_iter().enumerate() {
            if !group.is_empty() {
                let entry = |(oid, url)| FrontierEntry {
                    oid,
                    url,
                    log_relevance: 0.0,
                    serverload: 0,
                };
                self.shards[shard].seed_entries(group.into_iter().map(entry).collect())?;
            }
        }
        Ok(())
    }

    /// Start every shard's worker pool and return the run handle.
    pub fn start(&self) -> Result<CrawlRun, CrawlError> {
        self.start_with(StartOptions::default())
    }

    /// [`CrawlCluster::start`] with explicit options. Every shard emits
    /// into the run's one event channel and observers (events carry no
    /// shard id; start each shard on its own with
    /// [`CrawlCluster::shards`]` + `[`CrawlSession::start_with`] if you
    /// need attribution).
    pub fn start_with(&self, opts: StartOptions) -> Result<CrawlRun, CrawlError> {
        launch(&self.shards, opts, &mut spawn_thread)
    }

    /// Crawl to completion, blocking: [`CrawlCluster::start`] +
    /// [`CrawlRun::join`].
    pub fn run(&self) -> Result<CrawlStats, CrawlError> {
        self.start()?.join()
    }

    /// Summed counters across shards ([`merge_stats`]).
    pub fn stats(&self) -> CrawlStats {
        merge_stats(self.shards.iter().map(|s| s.stats()))
    }

    /// Entries the exchange dropped because an inbox was full
    /// ([`EXCHANGE_CAPACITY`]). Zero in a healthy run.
    pub fn exchange_dropped(&self) -> u64 {
        self.shards[0].shard.exchange.dropped()
    }

    /// Check every shard ([`CrawlSession::check_invariants`]) and the
    /// cluster around them, at rest: nothing is in flight on the
    /// exchange and all it counts as queued sits in an inbox; every
    /// visited page the fetcher resolves a URL for has that URL, is on
    /// the shard owning its server and is visited on no other; so is
    /// every same-server `LINK` row from such a page. Debug builds check
    /// the same at the end of every [`CrawlRun::join`] that returns `Ok`.
    pub fn check_invariants(&self) -> Result<(), Vec<Violation>> {
        let shards: Vec<&CrawlSession> = self.shards.iter().map(|s| &**s).collect();
        let out = shards.iter().filter_map(|s| s.check_invariants().err());
        check_cluster(&shards, out.flatten().collect())
    }

    /// Checkpoint every shard. Pause (or finish) the cluster first for a
    /// snapshot stable against the crawl advancing. Routed entries still
    /// sitting in exchange inboxes are landed into their owners'
    /// frontiers first, so the snapshot never loses cross-shard work
    /// (a restored cluster starts with empty inboxes).
    pub fn checkpoint(&self) -> DbResult<ClusterCheckpoint> {
        for s in &self.shards {
            s.drain_exchange();
        }
        let shards = self.shards.iter().map(|s| s.checkpoint());
        Ok(ClusterCheckpoint {
            shards: shards.collect::<DbResult<_>>()?,
        })
    }

    /// Resolve a topic name against shard 0's (live) taxonomy — all
    /// shards share the marking by construction and via broadcast.
    pub fn find_topic(&self, name: &str) -> Option<ClassId> {
        self.shards[0].find_topic(name)
    }
}

/// What [`CrawlCluster::check_invariants`] checks beyond each shard, for
/// `shards` of one exchange at rest, added to the violations `out`
/// already holds. Each shard's placement is checked against its own
/// index, so a shard run on its own is checked too; the exchange's
/// gauges only when `shards` are all of its shards (a peer shard may
/// still be running). Placement is checked for the pages the fetcher
/// resolves a URL for: a seed it cannot resolve is routed by oid
/// ([`seed_owner`]), so that page and its same-server links may sit off
/// its owner, and on it too.
pub(crate) fn check_cluster(
    shards: &[&CrawlSession],
    mut out: Vec<Violation>,
) -> Result<(), Vec<Violation>> {
    let ShardCtx {
        n_shards: n,
        exchange,
        ..
    } = &shards[0].shard;
    if shards.len() == *n {
        let boxed: Vec<usize> = exchange.inboxes.iter().map(|b| b.lock().len()).collect();
        let queued: Vec<usize> = (0..boxed.len()).map(|s| exchange.queued(s)).collect();
        let in_flight = exchange.in_flight.load(SeqCst);
        let held = in_flight == 0 && queued == boxed;
        let found = (in_flight, queued, boxed);
        expect(&mut out, "exchange drained", held, found);
    }
    let fetcher = shards[0].fetcher();
    let resolves = |o: i64| fetcher.url_of(Oid(o as u64)).is_some();
    let routed = |oid: &Value| oid.as_i64().is_some_and(resolves);
    let mut seen = HashSet::new();
    for shard in shards {
        let i = shard.shard.shard;
        let read = |sql| minirel::unobserved(|| shard.sql(sql));
        let visited = read("select oid, url from crawl where visited = 1");
        let links = read("select oid_src, sid_src from link where sid_src = sid_dst");
        let (Ok(visited), Ok(links)) = (visited, links) else {
            expect(&mut out, "tables readable", false, i);
            continue;
        };
        for row in visited.rows.iter().filter(|r| routed(&r[0])) {
            let url = row[1].as_str().unwrap_or("");
            let held = !url.is_empty() && shard_of(host_server_id(url), *n) == i;
            expect(&mut out, "page on its owner shard", held, (url, i));
            let oid = row[0].as_i64();
            let once = seen.insert(oid);
            expect(&mut out, "one shard per visited page", once, (oid, i));
        }
        for row in links.rows.iter().filter(|r| routed(&r[0])) {
            let owner = shard_of(ServerId(row[1].as_i64().unwrap_or(0) as u32), *n);
            let held = owner == i;
            expect(&mut out, "same-server link on its shard", held, (owner, i));
        }
    }
    out.is_empty().then_some(()).ok_or(out)
}

/// `seeds` with their resolved URLs, grouped by owning shard
/// ([`seed_owner`]).
fn partition_seeds(fetcher: &dyn Fetcher, seeds: &[Oid], n: usize) -> Vec<Vec<(Oid, String)>> {
    let mut groups = vec![Vec::new(); n];
    for &oid in seeds {
        let url = fetcher.url_of(oid).unwrap_or_default();
        groups[seed_owner(&url, oid, n)].push((oid, url));
    }
    groups
}

/// Share `i` of `total` divided as evenly as integers allow over `n`
/// recipients (low indices take the remainder).
pub(crate) fn even_split(total: u64, n: u64, i: u64) -> u64 {
    total / n + u64::from(i < total % n)
}

/// Shard `i`'s slice of a cluster-wide fetcher-thread count: an even
/// split, except that no shard of a cluster given *any* fetcher threads
/// is left with none — a thin shard would otherwise serialize its
/// fetches on its workers while its peers overlap theirs.
fn split_pool(total: usize, n_shards: usize, i: usize) -> usize {
    (even_split(total as u64, n_shards as u64, i as u64) as usize).max(total.min(1))
}

/// Split the cluster-wide config into per-shard configs: budget and
/// workers divided as evenly as integers allow (low shards take the
/// remainder), every shard running at least one worker.
fn split_config(cfg: &CrawlConfig, n_shards: usize) -> Vec<CrawlConfig> {
    let n = n_shards as u64;
    (0..n_shards)
        .map(|i| {
            let mut c = cfg.clone();
            c.max_fetches = even_split(cfg.max_fetches, n, i as u64);
            c.threads = even_split(cfg.threads as u64, n, i as u64).max(1) as usize;
            // Like the fetch budget, the retry budget is a cluster
            // total; shards spend disjoint slices of it.
            c.retry_budget = even_split(cfg.retry_budget, n, i as u64);
            c.fetch_pool = split_pool(cfg.fetch_pool, n_shards, i);
            c
        })
        .collect()
}

/// Merge per-shard stats: every counter sums, and so do the harvest
/// sums and the stage clocks.
pub fn merge_stats(per_shard: impl IntoIterator<Item = CrawlStats>) -> CrawlStats {
    let mut out = CrawlStats::default();
    for s in per_shard {
        out.attempts += s.attempts;
        out.successes += s.successes;
        out.failures += s.failures;
        out.harvest_sum += s.harvest_sum;
        out.distillations += s.distillations;
        out.deferred_landings += s.deferred_landings;
        out.metrics.merge(&s.metrics);
    }
    out
}

/// Merge per-shard landings: interleaved by per-shard attempt index (a
/// proxy for time — shards advance their attempt counters at roughly
/// equal rates) and re-numbered densely, so the x-axis is a cluster-wide
/// completion rank. One shard's landings are returned as they are: their
/// attempts are its own.
pub fn merge_landings(per_shard: impl IntoIterator<Item = Vec<Landing>>) -> Vec<Landing> {
    let mut per_shard: Vec<Vec<Landing>> = per_shard.into_iter().collect();
    if per_shard.len() == 1 {
        return per_shard.remove(0);
    }
    let tagged = per_shard.into_iter().enumerate();
    let mut tagged: Vec<(usize, Landing)> =
        (tagged.flat_map(|(s, v)| v.into_iter().map(move |l| (s, l)))).collect();
    tagged.sort_by_key(|&(shard, l)| (l.attempt, shard));
    let renumber = |(i, (_, l)): (usize, (usize, Landing))| Landing {
        attempt: i as u64 + 1,
        ..l
    };
    tagged.into_iter().enumerate().map(renumber).collect()
}

/// One checkpoint per shard plus the implicit manifest (shard count and
/// order). Restore with [`CrawlCluster::restore`] — same shard count,
/// same partition function.
#[derive(Debug, Clone)]
pub struct ClusterCheckpoint {
    /// Shard `i`'s checkpoint, in shard order.
    pub shards: Vec<CrawlCheckpoint>,
}

impl ClusterCheckpoint {
    /// Poppable frontier entries across all shards.
    pub fn frontier_len(&self) -> usize {
        self.shards.iter().map(|s| s.frontier_len()).sum()
    }

    /// Visited pages across all shards.
    pub fn visited_len(&self) -> usize {
        self.shards.iter().map(|s| s.visited_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(oid: u64) -> FrontierEntry {
        FrontierEntry {
            oid: Oid(oid),
            url: format!("http://s{oid}.example/p"),
            log_relevance: -0.5,
            serverload: 0,
        }
    }

    #[test]
    fn exchange_routes_and_lands() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        x.workers_arming(1, 1);
        x.route(1, vec![entry(1), entry(2)]);
        assert_eq!(x.queued(1), 2);
        let taken = x.take(1);
        assert_eq!(taken.len(), 2);
        // Still counted until landed: no verdict can fire in the gap.
        assert_eq!(x.queued(1), 2);
        x.mark_idle(0);
        let epoch = x.mark_idle(1);
        assert!(!x.try_finish(epoch), "entries in the take gap must block");
        x.landed(1, taken.len());
        assert_eq!(x.queued(1), 0);
        // Landing cleared shard 1's idle flag.
        assert!(!x.try_finish(epoch), "landed work must block until re-idle");
        let epoch = x.mark_idle(1);
        assert!(x.try_finish(epoch));
        assert!(x.finished());
    }

    #[test]
    fn exchange_overflow_drops_and_counts() {
        let x = ShardExchange::new(1, 2);
        x.workers_arming(0, 1);
        x.route(0, vec![entry(1), entry(2), entry(3)]);
        assert_eq!(x.take(0).len(), 2);
        assert_eq!(x.dropped(), 1);
    }

    #[test]
    fn exchange_keeps_entries_for_dead_shards() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        // Shard 1 has no live workers: what is routed to it stays queued
        // and counted, and the verdict over the live shards ignores it.
        x.route(1, vec![entry(1)]);
        assert_eq!(x.queued(1), 1);
        assert_eq!(x.dropped(), 0);
        let epoch = x.mark_idle(0);
        assert!(x.try_finish(epoch));
        // Its next start drains it.
        assert_eq!(x.take(1).len(), 1);
    }

    #[test]
    fn exchange_verdict_respects_gauges_and_arming() {
        let x = ShardExchange::new(2, 8);
        x.arm(2);
        x.workers_arming(0, 1);
        x.mark_idle(0);
        let epoch = x.mark_idle(1);
        assert!(!x.try_finish(epoch), "arming must block the verdict");
        x.launched_one();
        x.launched_one();
        x.add_in_flight(1);
        assert!(!x.try_finish(epoch), "in-flight work must block");
        x.sub_in_flight(1);
        assert!(x.try_finish(epoch));
    }

    #[test]
    fn a_flag_lowered_after_the_verdict_vetoes_the_latch() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        x.workers_arming(1, 1);
        x.mark_idle(1);
        // Shard 0 judges itself idle.
        let stale = x.mark_idle(0);
        // Then an entry is routed to shard 1 and lands there, and shard 1
        // goes idle again before the verdict is asked for.
        x.route(1, vec![entry(1)]);
        let taken = x.take(1);
        x.landed(1, taken.len());
        x.mark_idle(1);
        // Every gauge reads 0 and every flag true, but the verdict
        // predates the landing.
        assert_eq!(
            (x.in_flight.load(SeqCst), x.queued(0), x.queued(1)),
            (0, 0, 0)
        );
        assert!(x.idle.iter().all(|f| f.load(SeqCst)));
        assert!(!x.try_finish(stale), "a stale verdict latched");
        assert!(!x.finished());
        let fresh = x.mark_idle(0);
        assert!(x.try_finish(fresh));
    }

    #[test]
    fn reconcile_clears_leaks() {
        let x = ShardExchange::new(2, 8);
        x.workers_arming(0, 1);
        x.workers_arming(1, 1);
        x.add_in_flight(3);
        x.route(0, vec![entry(1)]);
        // Shard 0's only worker dies holding the claims; its last exit
        // subtracts the leak.
        assert!(x.worker_exited(0));
        x.sub_in_flight(3);
        assert_eq!(x.in_flight.load(SeqCst), 0);
        // Its inbox is kept for its next start.
        assert_eq!(x.queued(0), 1);
        let epoch = x.mark_idle(1);
        assert!(x.try_finish(epoch));
    }

    #[test]
    fn merge_stats_sums_and_interleaves() {
        let a = CrawlStats {
            attempts: 10,
            successes: 2,
            failures: 8,
            harvest_sum: 1.4,
            distillations: 1,
            deferred_landings: 3,
            ..CrawlStats::default()
        };
        let b = CrawlStats {
            attempts: 7,
            successes: 2,
            failures: 5,
            harvest_sum: 1.5,
            distillations: 0,
            deferred_landings: 4,
            ..CrawlStats::default()
        };
        let m = merge_stats([a, b]);
        assert_eq!(m.attempts, 17);
        assert_eq!(m.successes, 4);
        assert_eq!(m.failures, 13);
        assert_eq!(m.harvest_sum, 1.4 + 1.5);
        assert_eq!(m.distillations, 1);
        assert_eq!(m.deferred_landings, 7);
        // Landings interleave by per-shard attempt, re-numbered densely.
        let landed = |v: &[(u64, u64, f64)]| -> Vec<Landing> {
            let landing = |&(attempt, oid, relevance): &(u64, u64, f64)| Landing {
                attempt,
                oid: Oid(oid),
                relevance,
            };
            v.iter().map(landing).collect()
        };
        let a = landed(&[(1, 1, 0.9), (5, 5, 0.5)]);
        let b = landed(&[(2, 2, 0.8), (3, 3, 0.7)]);
        let want = landed(&[(1, 1, 0.9), (2, 2, 0.8), (3, 3, 0.7), (4, 5, 0.5)]);
        assert_eq!(merge_landings([a.clone(), b]), want);
        assert_eq!(merge_landings([a.clone()]), a, "one shard's, as they are");
    }

    #[test]
    fn split_config_partitions_budget_and_workers() {
        let cfg = CrawlConfig {
            max_fetches: 10,
            threads: 5,
            ..CrawlConfig::default()
        };
        let parts = split_config(&cfg, 3);
        assert_eq!(
            parts.iter().map(|c| c.max_fetches).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        assert_eq!(
            parts.iter().map(|c| c.threads).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // Every shard always runs at least one worker.
        let thin = split_config(&cfg, 8);
        assert!(thin.iter().all(|c| c.threads >= 1));
        assert_eq!(thin.iter().map(|c| c.max_fetches).sum::<u64>(), 10);
    }
}
