//! The chaos bars: seeded fault injection (`focus_webgraph::chaos`)
//! driven against the crawler's health layer (backoff, circuit
//! breakers, retry budget). Four acceptance bars:
//!
//! 1. dead servers are quarantined within `breaker.threshold`
//!    consecutive failures each;
//! 2. healthy servers keep ≥ 0.8× their clean-run throughput while the
//!    outage lasts (a deterministic work-proxy — success counts under
//!    the same fetch budget — so no wall-clock gating is needed);
//! 3. harvest recovers to within 0.05 of the clean run after the
//!    outage heals;
//! 4. a crawl whose *every* server is quarantined still terminates.
//!
//! Hub revisits ([`CrawlSession::maintenance_pass`]) are claims like any
//! others, so they meet the same layer: a requeued hub waits behind its
//! server's open breaker and is its probe when the cooldown lapses, and
//! a crawl → evolve → requeue → crawl story replays exactly under one
//! worker and one [`ChaosSchedule`].
//!
//! Two server-id spaces meet here: [`ChaosSchedule`] keys on the
//! generator's [`ServerId`]s (via [`Fetcher::server_of`]), while the
//! crawler's health map and its `Server*` events key on
//! [`host_server_id`] of the page URL. The tests translate through the
//! page table.

mod support;

use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::{
    host_server_id, BackoffConfig, BreakerConfig, CrawlCluster, CrawlEvent, CrawlPolicy,
    FetchErrorKind, StartOptions,
};
use focus_types::{Oid, ServerId};
use focus_webgraph::{
    evolve, ChaosFetcher, ChaosSchedule, EvolutionConfig, EvolvingFetcher, FaultProfile,
    FetchError, FetchedPage, Fetcher, SimFetcher, WebConfig, WebGraph,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use support::{trained_model, Recorder};

/// The world under test plus the fault plan: the two cycling-heaviest
/// generator servers are marked for death (the crawl will certainly
/// visit them), seeds are restricted to the surviving servers so the
/// crawl can start, and both id spaces are mapped.
struct ChaosWorld {
    graph: Arc<WebGraph>,
    /// Seeds on servers that stay healthy.
    seeds: Vec<Oid>,
    /// Generator-side ids of the servers taken down.
    dead: Vec<ServerId>,
    /// Crawler-side (`host_server_id`) ids of the same servers.
    dead_sids: HashSet<ServerId>,
    /// oid → crawler-side server id, for event attribution.
    sid_of: HashMap<Oid, ServerId>,
}

fn chaos_world() -> ChaosWorld {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let sim = SimFetcher::new(Arc::clone(&graph), None);
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let mut weight: HashMap<ServerId, usize> = HashMap::new();
    for p in graph.pages() {
        if p.topic == cycling {
            *weight.entry(p.server).or_default() += 1;
        }
    }
    let mut ranked: Vec<(ServerId, usize)> = weight.into_iter().collect();
    ranked.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s.raw()));
    assert!(ranked.len() >= 3, "cycling must span several servers");
    let dead: Vec<ServerId> = ranked.iter().take(2).map(|&(s, _)| s).collect();
    let sid_of: HashMap<Oid, ServerId> = graph
        .pages()
        .iter()
        .map(|p| {
            let url = sim.url_of(p.oid).expect("generated pages have URLs");
            (p.oid, host_server_id(&url))
        })
        .collect();
    let server_of: HashMap<Oid, ServerId> =
        graph.pages().iter().map(|p| (p.oid, p.server)).collect();
    let dead_sids: HashSet<ServerId> = graph
        .pages()
        .iter()
        .filter(|p| dead.contains(&p.server))
        .map(|p| sid_of[&p.oid])
        .collect();
    let seeds: Vec<Oid> = focus_webgraph::search::topic_start_set(&graph, cycling, 12)
        .into_iter()
        .filter(|o| !dead.contains(&server_of[o]))
        .collect();
    assert!(
        seeds.len() >= 2,
        "need seeds on healthy servers to start the crawl"
    );
    ChaosWorld {
        graph,
        seeds,
        dead,
        dead_sids,
        sid_of,
    }
}

/// The shared crawl shape: small breaker/backoff constants keep the
/// cooldown arithmetic (and hence the test) fast.
fn chaos_cfg(max_fetches: u64) -> CrawlConfig {
    CrawlConfig {
        policy: CrawlPolicy::SoftFocus,
        threads: 4,
        max_fetches,
        max_tries: 4,
        distill_every: None,
        backoff: BackoffConfig { base: 2, max: 8 },
        breaker: BreakerConfig {
            threshold: 3,
            cooldown: 8,
            max_cooldown: 32,
        },
        ..CrawlConfig::default()
    }
}

/// An outage covering `[0, duration)` fetch ticks on every dead server.
fn outage_schedule(w: &ChaosWorld, duration: u64) -> ChaosSchedule {
    let mut s = ChaosSchedule::new(4242);
    for &srv in &w.dead {
        s = s.with_profile(srv, FaultProfile::Outage { start: 0, duration });
    }
    s
}

/// Successes attributed to servers outside `dead_sids`.
fn healthy_successes(events: &[CrawlEvent], w: &ChaosWorld) -> usize {
    events
        .iter()
        .filter(|e| {
            matches!(e, CrawlEvent::PageClassified { oid, .. }
                     if !w.dead_sids.contains(&w.sid_of[oid]))
        })
        .count()
}

/// Bars 1 and 2 on a 4-shard cluster: a full-run outage on the two
/// cycling-heaviest servers. Both dead servers must be quarantined
/// within `threshold` failures (counted since the server's last
/// success), healthy-server throughput must hold at ≥ 0.8× the clean
/// run's, and the cluster must terminate.
#[test]
fn outage_quarantines_dead_servers_within_threshold() {
    let w = chaos_world();
    let model = trained_model(&w.graph, "recreation/cycling");
    let budget = 240;

    // Clean reference: same seeds, same budget, no faults.
    let clean_rec = Recorder::new();
    let clean = CrawlCluster::new(
        4,
        Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
        model.clone(),
        chaos_cfg(budget),
    )
    .unwrap();
    clean.seed(&w.seeds).unwrap();
    clean
        .start_with(StartOptions {
            observers: vec![Arc::clone(&clean_rec) as _],
            ..StartOptions::default()
        })
        .unwrap()
        .join()
        .unwrap();
    let clean_healthy = healthy_successes(&clean_rec.events(), &w);
    assert!(clean_healthy > 0, "clean run fetched nothing off-outage");

    // Chaos run: the outage outlives the whole fetch budget.
    let chaos_rec = Recorder::new();
    let chaos = CrawlCluster::new(
        4,
        Arc::new(ChaosFetcher::new(
            Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
            outage_schedule(&w, u64::MAX),
        )),
        model,
        chaos_cfg(budget),
    )
    .unwrap();
    chaos.seed(&w.seeds).unwrap();
    let stats = chaos
        .start_with(StartOptions {
            observers: vec![Arc::clone(&chaos_rec) as _],
            ..StartOptions::default()
        })
        .unwrap()
        .join()
        .expect("outage run must terminate cleanly");
    let events = chaos_rec.events();

    // Bar 1: every dead server quarantined, each within `threshold`
    // failures of its last success (here: of the crawl start).
    let quarantined: HashSet<ServerId> = events
        .iter()
        .filter_map(|e| match e {
            CrawlEvent::ServerQuarantined { server, .. } => Some(*server),
            _ => None,
        })
        .collect();
    for sid in &w.dead_sids {
        assert!(
            quarantined.contains(sid),
            "dead server {sid:?} never quarantined; quarantined={quarantined:?}"
        );
    }
    let threshold = chaos_cfg(budget).breaker.threshold as usize;
    let mut since_success: HashMap<ServerId, usize> = HashMap::new();
    let mut first_quarantine: HashSet<ServerId> = HashSet::new();
    for e in &events {
        match e {
            CrawlEvent::PageClassified { oid, .. } => {
                since_success.insert(w.sid_of[oid], 0);
            }
            CrawlEvent::FetchFailed { oid, error, .. } if *error == FetchErrorKind::Timeout => {
                *since_success.entry(w.sid_of[oid]).or_default() += 1;
            }
            CrawlEvent::ServerQuarantined { server, .. } if first_quarantine.insert(*server) => {
                let n = since_success.get(server).copied().unwrap_or(0);
                assert!(
                    n <= threshold,
                    "server {server:?} absorbed {n} timeouts before its \
                     first quarantine (threshold {threshold})"
                );
            }
            _ => {}
        }
    }

    // Bar 2: healthy servers keep ≥ 0.8× clean throughput during the
    // outage (the outage spans the whole budget, so every success is
    // "during").
    let chaos_healthy = healthy_successes(&events, &w);
    assert!(
        chaos_healthy as f64 >= 0.8 * clean_healthy as f64,
        "healthy-server throughput collapsed under the outage: \
         {chaos_healthy} vs {clean_healthy} clean (stats {stats:?})"
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, CrawlEvent::PageClassified { oid, .. }
                                 if w.dead_sids.contains(&w.sid_of[oid])))
            .count(),
        0,
        "a page landed from a server that was down all run"
    );
}

/// Bar 3 on a single shard (one worker, so both runs are fully
/// deterministic): an outage over the first third of the budget, healed
/// after. The breakers must re-admit the healed servers (ServerRecovered)
/// and tail harvest must come back to within 0.05 of the clean run's.
#[test]
fn harvest_recovers_after_outage_heals() {
    let w = chaos_world();
    let model = trained_model(&w.graph, "recreation/cycling");
    let budget = 240u64;
    let outage_ticks = 80u64;
    let cfg = CrawlConfig {
        threads: 1,
        ..chaos_cfg(budget)
    };
    let tail_mean = |session: &CrawlSession| {
        let landings = session.landings().unwrap();
        let tail: Vec<f64> = (landings.iter())
            .filter(|l| l.attempt > 2 * budget / 3)
            .map(|l| l.relevance)
            .collect();
        assert!(!tail.is_empty(), "no tail harvest: {landings:?}");
        tail.iter().sum::<f64>() / tail.len() as f64
    };

    let clean = Arc::new(
        CrawlSession::new(
            Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
            model.clone(),
            cfg.clone(),
        )
        .unwrap(),
    );
    clean.seed(&w.seeds).unwrap();
    clean.run().unwrap();
    let clean_tail = tail_mean(&clean);

    let rec = Recorder::new();
    let chaos = Arc::new(
        CrawlSession::new(
            Arc::new(ChaosFetcher::new(
                Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
                outage_schedule(&w, outage_ticks),
            )),
            model,
            cfg,
        )
        .unwrap(),
    );
    chaos.seed(&w.seeds).unwrap();
    let run = chaos
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    run.join().unwrap();
    let events = rec.events();

    let recovered: HashSet<ServerId> = events
        .iter()
        .filter_map(|e| match e {
            CrawlEvent::ServerRecovered { server } => Some(*server),
            _ => None,
        })
        .collect();
    assert!(
        recovered.iter().any(|s| w.dead_sids.contains(s)),
        "no dead server recovered after the outage healed: {events:?}"
    );
    let chaos_tail = tail_mean(&chaos);
    assert!(
        chaos_tail >= clean_tail - 0.05,
        "tail harvest never recovered: chaos {chaos_tail:.3} vs clean {clean_tail:.3}"
    );
}

/// After the outage every healed server answers its first fetch — the
/// half-open probe, once it has been quarantined — with a 404, and
/// serves everything after that normally: the probe landed on a dead
/// page of a live host.
struct ProbeHitsDeadPage {
    inner: ChaosFetcher,
    heal_at: u64,
    dead: Vec<ServerId>,
    answered_404: Mutex<HashSet<ServerId>>,
}

impl Fetcher for ProbeHitsDeadPage {
    fn fetch(&self, oid: Oid) -> Result<focus_webgraph::FetchedPage, focus_webgraph::FetchError> {
        self.fetch_with_ordinal(oid, self.inner.ticks())
    }
    fn fetch_with_ordinal(
        &self,
        oid: Oid,
        ordinal: u64,
    ) -> Result<focus_webgraph::FetchedPage, focus_webgraph::FetchError> {
        let first_answer = ordinal >= self.heal_at
            && self
                .inner
                .server_of(oid)
                .filter(|s| self.dead.contains(s))
                .is_some_and(|s| self.answered_404.lock().unwrap().insert(s));
        if first_answer {
            return Err(focus_webgraph::FetchError::NotFound(oid));
        }
        self.inner.fetch_with_ordinal(oid, ordinal)
    }
    fn fetch_count(&self) -> u64 {
        self.inner.fetch_count() + self.answered_404.lock().unwrap().len() as u64
    }
    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }
    fn server_of(&self, oid: Oid) -> Option<ServerId> {
        self.inner.server_of(oid)
    }
}

/// Breaker liveness: the outage heals, but the probe that finds out
/// lands on a dead page. The server *answered*, so the breaker must
/// close — the server's remaining pages get fetched and `server_health`
/// does not end in `'probing'`. (A probe verdict that only timeouts and
/// successes could deliver left such a server parked for the rest of
/// the crawl.)
#[test]
fn a_probe_that_lands_on_a_dead_page_still_recovers_the_server() {
    let w = chaos_world();
    let model = trained_model(&w.graph, "recreation/cycling");
    let outage_ticks = 80u64;
    let cfg = CrawlConfig {
        threads: 1,
        ..chaos_cfg(240)
    };
    let rec = Recorder::new();
    let session = Arc::new(
        CrawlSession::new(
            Arc::new(ProbeHitsDeadPage {
                inner: ChaosFetcher::new(
                    Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
                    outage_schedule(&w, outage_ticks),
                ),
                heal_at: outage_ticks,
                dead: w.dead.clone(),
                answered_404: Mutex::new(HashSet::new()),
            }),
            model,
            cfg,
        )
        .unwrap(),
    );
    session.seed(&w.seeds).unwrap();
    let run = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    run.join().unwrap();
    let events = rec.events();

    // Every quarantined dead server's story ends in a recovery, and
    // that recovery is followed by pages actually landing from it.
    let quarantined: HashSet<ServerId> = events
        .iter()
        .filter_map(|e| match e {
            CrawlEvent::ServerQuarantined { server, .. } => Some(*server),
            _ => None,
        })
        .collect();
    assert!(
        quarantined.iter().any(|s| w.dead_sids.contains(s)),
        "the outage must quarantine a dead server for the probe to matter"
    );
    for sid in &quarantined {
        let last_transition = events.iter().rposition(|e| {
            matches!(e,
                CrawlEvent::ServerQuarantined { server, .. }
                | CrawlEvent::ServerRecovered { server } if server == sid)
        });
        let at = last_transition.expect("quarantined servers have transitions");
        assert!(
            matches!(events[at], CrawlEvent::ServerRecovered { .. }),
            "{sid:?} never recovered after its probe was answered with a 404"
        );
        let landed_after = events[at..]
            .iter()
            .any(|e| matches!(e, CrawlEvent::PageClassified { oid, .. } if w.sid_of[oid] == *sid));
        assert!(landed_after, "{sid:?}'s remaining pages were never fetched");
    }
    let stuck = session
        .sql("select sid from server_health where state <> 'closed'")
        .unwrap();
    assert!(
        stuck.rows.is_empty(),
        "server_health must not end open or probing: {:?}",
        stuck.rows
    );
}

/// The tiny web with a switch: while `down` names a server (by its
/// crawler-side id) its pages time out. Logs every fetch it is asked for.
struct Switchable {
    inner: SimFetcher,
    down: Mutex<Option<ServerId>>,
    log: Mutex<Vec<Oid>>,
}

impl Fetcher for Switchable {
    fn fetch(&self, oid: Oid) -> Result<FetchedPage, FetchError> {
        self.log.lock().unwrap().push(oid);
        let sid = self.url_of(oid).map(|url| host_server_id(&url));
        if sid.is_some() && sid == *self.down.lock().unwrap() {
            return Err(FetchError::Timeout(oid));
        }
        self.inner.fetch(oid)
    }
    fn fetch_count(&self) -> u64 {
        self.log.lock().unwrap().len() as u64
    }
    fn url_of(&self, oid: Oid) -> Option<String> {
        self.inner.url_of(oid)
    }
}

/// A hub revisit is an ordinary claim, so the breaker gates it with no
/// code of its own: while its server is quarantined the requeued row
/// is parked and nothing is fetched from that server; when the
/// cooldown lapses the revisit is the half-open probe, it lands, and
/// the breaker closes — in the map, the event stream and
/// `server_health`. One worker claiming one page at a time, so a tick
/// of the crawl clock is a fetch and the order of fetches is exact.
#[test]
fn a_revisit_waits_out_the_breaker_and_is_its_probe() {
    let graph = Arc::new(WebGraph::generate(WebConfig::tiny(13)));
    let cycling = graph.taxonomy().find("recreation/cycling").unwrap();
    let fetcher = Arc::new(Switchable {
        inner: SimFetcher::new(Arc::clone(&graph), None),
        down: Mutex::new(None),
        log: Mutex::new(Vec::new()),
    });
    let cfg = CrawlConfig {
        threads: 1,
        batch_size: 1,
        ..chaos_cfg(80)
    };
    let model = trained_model(&graph, "recreation/cycling");
    let session = Arc::new(CrawlSession::new(Arc::clone(&fetcher) as _, model, cfg).unwrap());
    let rec = Recorder::new();
    let run = || {
        let opts = StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        };
        session.start_with(opts).unwrap().join().unwrap()
    };
    session
        .seed(&focus_webgraph::search::topic_start_set(
            &graph, cycling, 10,
        ))
        .unwrap();
    run();
    let hub = session.distill_now().unwrap().top_hubs(1)[0].0;
    let sid_of = |oid: Oid| host_server_id(&fetcher.url_of(oid).unwrap());
    let sid = sid_of(hub);

    // The hub's server goes down; as many of its unvisited pages as
    // the breaker has patience for, tried one fetch at a time, time out
    // until it opens. (Having failed once, they queue behind the hub.)
    *fetcher.down.lock().unwrap() = Some(sid);
    let visited: HashSet<Oid> = session.visited().iter().map(|v| v.0).collect();
    let on_server: Vec<Oid> = (graph.pages().iter().map(|p| p.oid))
        .filter(|o| sid_of(*o) == sid && !visited.contains(o))
        .take(chaos_cfg(0).breaker.threshold as usize)
        .collect();
    assert_eq!(on_server.len(), 3, "the hub's server has pages left");
    session.seed(&on_server).unwrap();
    let quarantined_until = || {
        rec.events().iter().find_map(|e| match e {
            CrawlEvent::ServerQuarantined { server, until, .. } if *server == sid => Some(*until),
            _ => None,
        })
    };
    for _ in 0..20 {
        if quarantined_until().is_some() {
            break;
        }
        session.add_budget(1);
        run();
    }
    let until = quarantined_until().expect("three timeouts in a row open the breaker");

    // The server heals, unnoticed, and the hub is requeued behind the
    // open breaker.
    *fetcher.down.lock().unwrap() = None;
    assert_eq!(session.maintenance_pass(1).unwrap(), 1);
    session.checkpoint().unwrap(); // brings `crawl_state` up to date
    let clock = session.sql("select clock from crawl_state").unwrap();
    let cooldown_left = until - clock.scalar_i64().unwrap();
    assert!(cooldown_left > 0, "the breaker is still open");
    fetcher.log.lock().unwrap().clear();
    rec.0.lock().unwrap().clear();
    session.add_budget(cooldown_left as u64 + 10);
    let stats = run();

    let log = fetcher.log.lock().unwrap().clone();
    let at = log.iter().position(|&o| o == hub).expect("hub revisited");
    assert!(
        log[..at].iter().all(|&o| sid_of(o) != sid),
        "a page was fetched past the open breaker: {:?}",
        &log[..at]
    );
    assert!(
        at as i64 >= cooldown_left,
        "the revisit went out {at} fetches in, {cooldown_left} ticks before the cooldown lapsed"
    );
    let events = rec.events();
    let on_sid: Vec<&CrawlEvent> = (events.iter())
        .filter(|e| match e {
            CrawlEvent::PageClassified { oid, .. } | CrawlEvent::FetchFailed { oid, .. } => {
                sid_of(*oid) == sid
            }
            CrawlEvent::ServerQuarantined { server, .. }
            | CrawlEvent::ServerRecovered { server } => *server == sid,
            _ => false,
        })
        .collect();
    assert!(
        matches!(
            on_sid[..2],
            [
                CrawlEvent::ServerRecovered { .. },
                CrawlEvent::PageClassified { oid, .. }
            ] if *oid == hub
        ),
        "the probe is the revisit, and it closes the breaker: {on_sid:?}"
    );
    let landings = session.landings().unwrap();
    let revisits = landings.iter().filter(|l| l.oid == hub);
    assert_eq!(revisits.count(), 2, "a revisit is a second completion");
    let health = session
        .sql("select sid, state from server_health where state <> 'closed'")
        .unwrap();
    assert!(health.rows.is_empty(), "{:?}", health.rows);
    assert_eq!(stats.attempts, stats.successes + stats.failures);
}

/// Crawl, let the web evolve, requeue the top hubs, crawl on — one
/// worker, every server flaky under one seeded schedule. Returns a
/// digest of the whole event stream.
fn crawl_evolve_revisit_crawl() -> u64 {
    let base = Arc::new(WebGraph::generate(WebConfig::tiny(47)));
    let cycling = base.taxonomy().find("recreation/cycling").unwrap();
    let web = Arc::new(EvolvingFetcher::new(Arc::clone(&base)));
    let servers: HashSet<ServerId> = base.pages().iter().map(|p| p.server).collect();
    let mut schedule = ChaosSchedule::new(0x5eed);
    for s in servers {
        schedule = schedule.with_profile(s, FaultProfile::Flaky { p: 0.2 });
    }
    let fetcher = ChaosFetcher::new(web.clone(), schedule);
    let cfg = CrawlConfig {
        threads: 1,
        distill_every: Some(60),
        ..chaos_cfg(150)
    };
    let model = trained_model(&base, "recreation/cycling");
    let session = Arc::new(CrawlSession::new(Arc::new(fetcher), model, cfg).unwrap());
    let rec = Recorder::new();
    let run = || {
        let opts = StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        };
        session.start_with(opts).unwrap().join().unwrap()
    };
    session
        .seed(&focus_webgraph::search::topic_start_set(&base, cycling, 10))
        .unwrap();
    run();
    let evolution = EvolutionConfig {
        new_pages_per_topic: 12,
        hub_update_fraction: 1.0,
        new_links_per_hub: 8,
        content_update_fraction: 0.6,
        seed: 5,
    };
    web.swap(Arc::new(evolve(&base, 1, &evolution)));
    assert_eq!(session.maintenance_pass(10).unwrap(), 10);
    session.add_budget(80);
    let stats = run();

    assert!(stats.attempts <= 230, "{stats:?}");
    assert_eq!(stats.attempts, stats.successes + stats.failures);
    let landings = session.landings().unwrap();
    let revisited = (landings.iter().enumerate())
        .filter(|(i, l)| landings[..*i].iter().any(|p| p.oid == l.oid))
        .count();
    assert!(revisited > 0, "no hub was revisited");
    session.check_invariants().unwrap();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in rec.events() {
        for b in format!("{e:?}\n").bytes() {
            digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// Revisits are numbered attempts fetched by the one loop, so the
/// faults they meet are a function of `(seed, server, oid, ordinal)`
/// like every other fetch's, and the whole story replays.
#[test]
fn a_crawl_with_revisits_replays_exactly() {
    assert_eq!(crawl_evolve_revisit_crawl(), crawl_evolve_revisit_crawl());
}

/// Bar 4: with *every* server down forever, a 4-shard cluster must
/// still terminate — parked rows keep the idle verdict false while the
/// tick clock (advanced by empty polls) serves out the cooldowns, and
/// `max_tries` plus the retry budget drive every row to a terminal
/// state. A wedge here shows up as this test hanging past its deadline.
#[test]
fn fully_quarantined_cluster_terminates() {
    let w = chaos_world();
    let model = trained_model(&w.graph, "recreation/cycling");
    let all_servers: HashSet<ServerId> = w.graph.pages().iter().map(|p| p.server).collect();
    let mut schedule = ChaosSchedule::new(99);
    for &srv in &all_servers {
        schedule = schedule.with_profile(
            srv,
            FaultProfile::Outage {
                start: 0,
                duration: u64::MAX,
            },
        );
    }
    let cfg = CrawlConfig {
        max_tries: 3,
        retry_budget: 40,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: 4,
            max_cooldown: 16,
        },
        backoff: BackoffConfig { base: 2, max: 4 },
        ..chaos_cfg(400)
    };
    let cluster = CrawlCluster::new(
        4,
        Arc::new(ChaosFetcher::new(
            Arc::new(SimFetcher::new(Arc::clone(&w.graph), None)),
            schedule,
        )),
        model,
        cfg,
    )
    .unwrap();
    cluster
        .seed(&focus_webgraph::search::topic_start_set(
            &w.graph,
            w.graph.taxonomy().find("recreation/cycling").unwrap(),
            12,
        ))
        .unwrap();
    let rec = Recorder::new();
    let run = cluster
        .start_with(StartOptions {
            observers: vec![Arc::clone(&rec) as _],
            ..StartOptions::default()
        })
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while !run.is_finished() {
        assert!(
            Instant::now() < deadline,
            "all-quarantined cluster wedged: {:?}",
            run.stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = run.join().expect("all-quarantined run must join cleanly");
    assert_eq!(
        stats.successes, 0,
        "nothing can land with every server down"
    );
    assert!(stats.attempts > 0, "the crawl never even tried");
    assert_eq!(stats.attempts, stats.failures);
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, CrawlEvent::ServerQuarantined { .. })),
        "breakers never opened with every server down"
    );
    // Every frontier row reached a terminal state; none is left parked
    // behind a breaker that will never close.
    cluster.check_invariants().unwrap();
    for shard in cluster.shards() {
        let open = shard.sql("select count(*) from crawl where visited = 0");
        assert_eq!(open.unwrap().scalar_i64(), Some(0), "shard left live rows");
    }
}
