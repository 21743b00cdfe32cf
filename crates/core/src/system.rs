//! The assembled resource-discovery system and its live run handle.
//!
//! The paper's defining workflow is *interactive* (§1.1, §3.7): an
//! administrator starts a crawl, watches harvest, marks topics good or
//! bad, injects seeds, and re-steers the frontier — all against a
//! long-lived run. [`FocusSystem::start`] spawns that run in the
//! background and returns a [`DiscoveryRun`]: the crawler's own
//! [`CrawlRun`] handle (typed event stream, control commands, stats —
//! reached through `Deref`) plus topic marking by name and a `join()`
//! that ends with the final distillation. A sharded crawl is a
//! [`focus_crawler::CrawlCluster`], whose `start` returns the same
//! [`CrawlRun`].

use focus_classifier::model::TrainedModel;
use focus_crawler::run::{CrawlRun, StartOptions};
use focus_crawler::session::{CrawlCheckpoint, CrawlConfig, CrawlSession, CrawlStats};
use focus_distiller::DistillResult;
use focus_types::{ClassId, FocusError, Oid, ServerId};
use focus_webgraph::Fetcher;
use minirel::Database;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// What a discovery run produces.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Crawl counters and the harvest series.
    pub stats: CrawlStats,
    /// Final distillation (top hubs/authorities of the discovered
    /// subgraph).
    pub distill: DistillResult,
    /// Visited pages as `(oid, linear R, server)`.
    pub visited: Vec<(Oid, f64, ServerId)>,
}

/// A trained, crawl-ready Focus instance.
pub struct FocusSystem {
    model: TrainedModel,
    session: Arc<CrawlSession>,
    cfg: CrawlConfig,
    fetcher: Arc<dyn Fetcher>,
}

impl FocusSystem {
    pub(crate) fn new(
        model: TrainedModel,
        session: Arc<CrawlSession>,
        cfg: CrawlConfig,
        fetcher: Arc<dyn Fetcher>,
    ) -> Self {
        FocusSystem {
            model,
            session,
            cfg,
            fetcher,
        }
    }

    /// The trained classifier **as built**. A live `mark_topic` changes
    /// the *session's* copy; see [`CrawlSession::with_model`].
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The compiled inference engine serving the crawl hot path — a
    /// consistent snapshot under the *live* marking (it tracks
    /// `mark_topic`, unlike [`FocusSystem::model`]). Pair with a
    /// per-thread [`focus_classifier::compiled::Scratch`] to classify
    /// documents exactly as — and as fast as — the crawl does.
    pub fn compiled(&self) -> std::sync::Arc<focus_classifier::CompiledModel> {
        self.session.compiled()
    }

    /// The crawl configuration in effect.
    pub fn config(&self) -> &CrawlConfig {
        &self.cfg
    }

    /// The live crawl session (seed/monitor piecemeal).
    pub fn session(&self) -> &Arc<CrawlSession> {
        &self.session
    }

    /// Seed with `D(C*)` and spawn the crawl in the background, returning
    /// the steering handle.
    pub fn start(&self, seeds: &[Oid]) -> Result<DiscoveryRun, FocusError> {
        self.start_with(seeds, StartOptions::default())
    }

    /// [`FocusSystem::start`] with an explicit event-channel capacity and
    /// observers.
    pub fn start_with(
        &self,
        seeds: &[Oid],
        opts: StartOptions,
    ) -> Result<DiscoveryRun, FocusError> {
        self.session.seed(seeds)?;
        let run = self.session.start_with(opts)?;
        let session = Arc::clone(&self.session);
        Ok(DiscoveryRun { run, session })
    }

    /// Rebuild a system around a [`CrawlCheckpoint`], so a checkpointed
    /// crawl resumes in a fresh session: frontier, stats, budget, link
    /// graph, and good marking all carry over. Call
    /// [`FocusSystem::start`] with no (or extra) seeds to continue.
    pub fn resume(&self, snapshot: &CrawlCheckpoint) -> Result<FocusSystem, FocusError> {
        let session = Arc::new(CrawlSession::restore(
            Arc::clone(&self.fetcher),
            self.model.clone(),
            self.cfg.clone(),
            snapshot,
        )?);
        Ok(FocusSystem {
            model: self.model.clone(),
            session,
            cfg: self.cfg.clone(),
            fetcher: Arc::clone(&self.fetcher),
        })
    }

    /// Ad-hoc SQL against the live crawl database with **exclusive**
    /// access (DDL/DML). Blocks workers for the duration; monitoring
    /// SELECTs should use [`FocusSystem::sql`] or
    /// [`FocusSystem::with_db_read`], which run concurrently with the
    /// crawl.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.session.with_db(f)
    }

    /// Read-only access to the live crawl database, concurrent with the
    /// crawl and with other monitors (§3.7 monitoring).
    pub fn with_db_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.session.with_db_read(f)
    }

    /// Ad-hoc SQL against the live session: SELECTs run under the read
    /// lock (never stalling the crawl); other statements escalate to
    /// exclusive access.
    pub fn sql(&self, sql: &str) -> Result<minirel::ResultSet, FocusError> {
        Ok(self.session.sql(sql)?)
    }
}

/// A live discovery run: the paper's admin console as an API.
///
/// Obtained from [`FocusSystem::start`]. It is the crawler's
/// [`CrawlRun`] — events, `pause`/`resume`/`stop`, `add_seeds`,
/// `mark_topic`, `stats`, all reached through `Deref` — plus what the
/// facade adds: marking a topic by name, and a [`DiscoveryRun::join`]
/// that returns the classic [`DiscoveryOutcome`]. Checkpoints and
/// ad-hoc SQL go to the session ([`FocusSystem::session`]).
pub struct DiscoveryRun {
    run: CrawlRun,
    session: Arc<CrawlSession>,
}

impl Deref for DiscoveryRun {
    type Target = CrawlRun;

    fn deref(&self) -> &CrawlRun {
        &self.run
    }
}

impl DerefMut for DiscoveryRun {
    fn deref_mut(&mut self) -> &mut CrawlRun {
        &mut self.run
    }
}

impl DiscoveryRun {
    /// `mark_topic` by topic name.
    pub fn mark_topic_by_name(&self, name: &str, good: bool) -> Result<ClassId, FocusError> {
        let class = self
            .session
            .find_topic(name)
            .ok_or_else(|| FocusError::InvalidTaxonomy(format!("no topic named {name}")))?;
        self.run.mark_topic(class, good);
        Ok(class)
    }

    /// Wait for the worker pool, then run a final distillation — the
    /// classic blocking batch outcome. Worker panics surface as
    /// [`FocusError::Worker`].
    pub fn join(self) -> Result<DiscoveryOutcome, FocusError> {
        let stats = self.run.join()?;
        let distill = self.session.distill_now()?;
        Ok(DiscoveryOutcome {
            stats,
            distill,
            visited: self.session.visited(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::FocusBuilder;
    use focus_crawler::events::CrawlEvent;
    use focus_crawler::session::CrawlConfig;
    use focus_crawler::CrawlCluster;
    use focus_types::ClassId;
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
    use std::sync::Arc;

    fn cycling_system(seed: u64, budget: u64) -> (Arc<WebGraph>, FocusSystem, ClassId) {
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(seed)));
        let fetcher = Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let mut builder = FocusBuilder::new(graph.taxonomy().clone());
        let cycling = builder.mark_good_by_name("recreation/cycling").unwrap();
        let topics: Vec<ClassId> = builder.taxonomy().all().collect();
        for c in topics {
            if c != ClassId::ROOT {
                builder.add_examples(c, graph.example_docs(c, 5, 3));
            }
        }
        let system = builder
            .crawl_config(CrawlConfig {
                max_fetches: budget,
                threads: 2,
                distill_every: Some(120),
                ..CrawlConfig::default()
            })
            .build(fetcher)
            .unwrap();
        (graph, system, cycling)
    }

    #[test]
    fn end_to_end_discovery_via_start_join() {
        let (graph, system, cycling) = cycling_system(17, 300);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
        let outcome = system.start(&seeds).unwrap().join().unwrap();
        assert!(outcome.stats.successes > 50);
        assert!(!outcome.distill.hubs.is_empty(), "final distillation ran");
        assert!(!outcome.visited.is_empty());
        // Monitoring works against the same database.
        let n = system.with_db(|db| {
            db.execute("select count(*) from crawl")
                .unwrap()
                .scalar_i64()
                .unwrap()
        });
        assert!(n > 0);
        // The discovered subgraph is topical: mean harvest well above the
        // base rate of cycling pages in the web (~1/27 topics).
        assert!(outcome.stats.mean_harvest() > 0.2);
    }

    #[test]
    fn events_flow_while_running() {
        let (graph, system, cycling) = cycling_system(29, 200);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let mut run = system.start(&seeds).unwrap();
        let events = run.take_events().unwrap();
        let outcome = run.join().unwrap();
        let all: Vec<CrawlEvent> = events.collect();
        let classified = all
            .iter()
            .filter(|e| matches!(e, CrawlEvent::PageClassified { .. }))
            .count() as u64;
        assert_eq!(classified, outcome.stats.successes);
        assert!(
            all.iter()
                .any(|e| matches!(e, CrawlEvent::BudgetExhausted { .. })),
            "budget-bounded run must announce exhaustion: {all:?}"
        );
    }

    #[test]
    fn checkpoint_resume_continues_the_crawl() {
        let (graph, system, cycling) = cycling_system(41, 120);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 10);
        let run = system.start(&seeds).unwrap();
        let outcome_stats = {
            let snapshot_run = run;
            // Let the budget run out, checkpoint the finished run.
            while !snapshot_run.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let snapshot = system.session().checkpoint().unwrap();
            snapshot_run.join().unwrap();
            // Fresh session, +80 budget, no new seeds: the restored
            // frontier alone drives the continuation. The raise goes
            // through the session *before* start: the resumed run's
            // budget is already exhausted, so `CrawlRun::add_budget`
            // (a command drained at page boundaries) can lose the race
            // with the workers' immediate exit — its documented
            // semantics land the raise at join() for the *next* run,
            // which is not what this test wants to measure.
            let resumed = system.resume(&snapshot).unwrap();
            resumed.session().add_budget(80);
            let run2 = resumed.start(&[]).unwrap();
            run2.join().unwrap()
        };
        assert_eq!(
            outcome_stats.stats.attempts, 200,
            "120 checkpointed + 80 fresh"
        );
        assert!(outcome_stats.stats.successes > 0);
    }

    #[test]
    fn compiled_snapshot_tracks_live_remarking() {
        use focus_types::Mark;
        let (graph, system, cycling) = cycling_system(61, 100_000);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
        let run = system.start(&seeds).unwrap();
        let before = system.session().compiled();
        let gardening = system.session().find_topic("home/gardening").unwrap();
        assert_eq!(before.taxonomy().mark(gardening), Mark::Null);
        run.mark_topic(gardening, true);
        // The swap lands when a worker drains the command queue at a
        // page boundary; poll for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if system.session().compiled().taxonomy().mark(gardening) == Mark::Good {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "mark_topic never recompiled the model"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        run.stop();
        run.join().unwrap();
        // The pre-remark snapshot is immutable: holders keep classifying
        // under the marking they captured.
        assert_eq!(before.taxonomy().mark(gardening), Mark::Null);
        assert_eq!(before.taxonomy().mark(cycling), Mark::Good);
    }

    #[test]
    fn start_cluster_discovers_and_checkpoints() {
        let (graph, system, cycling) = cycling_system(67, 240);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 12);
        let fetcher = || Arc::new(SimFetcher::new(Arc::clone(&graph), None));
        let (model, cfg) = (system.model().clone(), system.config().clone());
        let cluster = CrawlCluster::new(3, fetcher(), model.clone(), cfg.clone()).unwrap();
        cluster.seed(&seeds).unwrap();
        let stats = cluster.start().unwrap().join().unwrap();
        assert_eq!(stats.attempts, 240, "split budget spends exactly");
        assert!(stats.successes > 50);
        assert!(stats.mean_harvest() > 0.2, "cluster harvest collapsed");
        let snapshot = cluster.checkpoint().unwrap();
        assert_eq!(snapshot.shards.len(), 3);
        assert!(snapshot.visited_len() > 0);
        // Resume into a fresh cluster and continue against the same
        // frontier.
        let resumed = CrawlCluster::restore(fetcher(), model, cfg, &snapshot).unwrap();
        assert_eq!(resumed.stats().attempts, 240, "stats carried over");
        for shard in resumed.shards() {
            shard.add_budget(20);
        }
        let stats = resumed.run().unwrap();
        assert_eq!(stats.attempts, 300, "240 checkpointed + 3×20 fresh");
    }

    #[test]
    fn double_start_is_rejected() {
        let (graph, system, cycling) = cycling_system(53, 100_000);
        let seeds = focus_webgraph::search::topic_start_set(&graph, cycling, 8);
        let run = system.start(&seeds).unwrap();
        assert!(matches!(system.start(&[]), Err(FocusError::Config(_))));
        run.stop();
        run.join().unwrap();
        // After join the session is free again.
        let run2 = system.start(&[]).unwrap();
        run2.stop();
        run2.join().unwrap();
    }
}
