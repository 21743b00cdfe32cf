//! Chaos matrix: the crawl under every [`FaultProfile`], against a
//! clean baseline on the same world, seeds, and fetch budget.
//!
//! The claim under test is *graceful degradation plus recovery*: with
//! per-server backoff, circuit breakers, and a bounded retry budget,
//! faults cost throughput roughly in proportion to the injected failure
//! mass — they must never wedge the crawl, collapse harvest precision
//! on the healthy part of the web, or (for a healing outage) leave the
//! quarantined servers unvisited after they come back.
//!
//! Degradation profiles (`Flaky`, `Bursty`, `Brownout`) cover every
//! server — the whole web misbehaves. The recovery profile (`Outage`)
//! covers the two cycling-heaviest servers for the first third of the
//! fetch budget, then heals; breakers must open while the servers are
//! down and close again (a [`CrawlEvent::ServerRecovered`] per server)
//! once probes start landing.

use crate::common::{Scale, World};
use focus_crawler::session::{CrawlConfig, CrawlSession, Landing};
use focus_crawler::{CrawlEvent, CrawlObserver, StartOptions};
use focus_types::ServerId;
use focus_webgraph::{ChaosFetcher, ChaosSchedule, FaultProfile, Fetcher};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts breaker transitions without retaining the event stream.
#[derive(Default)]
struct BreakerCounter {
    quarantines: AtomicU64,
    recoveries: AtomicU64,
}

impl CrawlObserver for BreakerCounter {
    fn on_event(&self, event: &CrawlEvent) {
        match event {
            CrawlEvent::ServerQuarantined { .. } => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
            }
            CrawlEvent::ServerRecovered { .. } => {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One profile's measurement against the shared clean baseline.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Profile label (`clean` for the baseline row).
    pub profile: String,
    /// Fetch attempts (capped by the budget).
    pub attempts: u64,
    /// Successful fetch+classify cycles.
    pub successes: u64,
    /// Failed attempts (injected + organic).
    pub failures: u64,
    /// Mean linear relevance over all successes.
    pub harvest: f64,
    /// Mean linear relevance over the last third of the budget — the
    /// recovery half of the outage story.
    pub tail_harvest: f64,
    /// Breakers opened ([`CrawlEvent::ServerQuarantined`]).
    pub quarantines: u64,
    /// Breakers closed again ([`CrawlEvent::ServerRecovered`]).
    pub recoveries: u64,
}

/// The matrix: clean baseline first, then one row per fault profile.
#[derive(Debug, Clone)]
pub struct ChaosMatrix {
    /// All rows; `rows[0]` is the clean baseline.
    pub rows: Vec<ChaosRow>,
}

impl ChaosMatrix {
    /// The baseline row.
    pub fn clean(&self) -> &ChaosRow {
        &self.rows[0]
    }

    /// The row for `profile`, if measured.
    pub fn row(&self, profile: &str) -> Option<&ChaosRow> {
        self.rows.iter().find(|r| r.profile == profile)
    }

    /// Print in the repo's experiment-table format.
    pub fn print(&self) {
        println!("profile    attempts  ok   fail  harvest  tail   quar  recov");
        for r in &self.rows {
            println!(
                "{:<9}  {:>8}  {:>3}  {:>4}  {:>7.3}  {:>5.3}  {:>4}  {:>5}",
                r.profile,
                r.attempts,
                r.successes,
                r.failures,
                r.harvest,
                r.tail_harvest,
                r.quarantines,
                r.recoveries
            );
        }
    }
}

fn tail_mean(landings: &[Landing], budget: u64) -> f64 {
    let tail: Vec<f64> = landings
        .iter()
        .filter(|l| l.attempt > 2 * budget / 3)
        .map(|l| l.relevance)
        .collect();
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

fn measure(
    label: &str,
    world: &World,
    seeds: &[focus_types::Oid],
    budget: u64,
    schedule: Option<ChaosSchedule>,
) -> ChaosRow {
    let fetcher: Arc<dyn Fetcher> = match schedule {
        Some(s) => Arc::new(ChaosFetcher::new(world.fetcher(), s)),
        None => world.fetcher(),
    };
    let cfg = CrawlConfig {
        threads: 1,
        max_fetches: budget,
        distill_every: None,
        ..CrawlConfig::default()
    };
    let counter = Arc::new(BreakerCounter::default());
    let session =
        Arc::new(CrawlSession::new(fetcher, world.model.clone(), cfg).expect("chaos session"));
    session.seed(seeds).expect("seed");
    let stats = session
        .start_with(StartOptions {
            observers: vec![Arc::clone(&counter) as _],
            ..StartOptions::default()
        })
        .expect("start")
        .join()
        .expect("chaos crawl must terminate");
    ChaosRow {
        profile: label.into(),
        attempts: stats.attempts,
        successes: stats.successes,
        failures: stats.failures,
        harvest: stats.mean_harvest(),
        tail_harvest: tail_mean(&session.landings().expect("landings"), budget),
        quarantines: counter.quarantines.load(Ordering::Relaxed),
        recoveries: counter.recoveries.load(Ordering::Relaxed),
    }
}

/// The two cycling-heaviest servers — the outage targets (the crawl is
/// guaranteed to want them, so their death and recovery both show).
fn outage_targets(world: &World) -> Vec<ServerId> {
    let mut weight: HashMap<ServerId, usize> = HashMap::new();
    for p in world.graph.pages() {
        if p.topic == world.topic {
            *weight.entry(p.server).or_default() += 1;
        }
    }
    let mut ranked: Vec<(ServerId, usize)> = weight.into_iter().collect();
    ranked.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s.raw()));
    ranked.iter().take(2).map(|&(s, _)| s).collect()
}

/// Run the standard matrix on the cycling world at `scale`'s budget.
pub fn run(scale: Scale) -> ChaosMatrix {
    let world = World::cycling(scale, 31);
    let seeds = world.start_set(12);
    let budget = scale.fetch_budget();
    let all_servers: Vec<ServerId> = {
        let mut s: Vec<ServerId> = world.graph.pages().iter().map(|p| p.server).collect();
        s.sort_by_key(|s| s.raw());
        s.dedup();
        s
    };
    let everywhere = |profile: FaultProfile| {
        all_servers
            .iter()
            .fold(ChaosSchedule::new(1117), |sched, &srv| {
                sched.with_profile(srv, profile)
            })
    };
    let outage = outage_targets(&world)
        .into_iter()
        .fold(ChaosSchedule::new(1117), |sched, srv| {
            sched.with_profile(
                srv,
                FaultProfile::Outage {
                    start: 0,
                    duration: budget / 3,
                },
            )
        });
    let rows = vec![
        measure("clean", &world, &seeds, budget, None),
        measure(
            "flaky",
            &world,
            &seeds,
            budget,
            Some(everywhere(FaultProfile::Flaky { p: 0.2 })),
        ),
        measure(
            "bursty",
            &world,
            &seeds,
            budget,
            Some(everywhere(FaultProfile::Bursty {
                period: 32,
                burst: 8,
            })),
        ),
        measure(
            "brownout",
            &world,
            &seeds,
            budget,
            Some(everywhere(FaultProfile::Brownout {
                period: 16,
                spike: Duration::from_micros(500),
            })),
        ),
        measure("outage", &world, &seeds, budget, Some(outage)),
    ];
    ChaosMatrix { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_degrade_gracefully_and_outages_recover() {
        let m = run(Scale::Tiny);
        m.print();
        let clean = m.clean().clone();
        assert!(clean.successes > 0, "clean baseline crawled nothing");
        for r in &m.rows {
            assert!(
                r.attempts <= clean.attempts,
                "{}: spent past the budget",
                r.profile
            );
            assert!(r.successes > 0, "{}: total collapse", r.profile);
        }
        // Injected failure mass costs throughput proportionally, never
        // totally: a 20%-flaky web keeps at least half the clean yield
        // (retries claw some of it back), brownouts cost latency only.
        let flaky = m.row("flaky").expect("flaky row");
        assert!(
            flaky.successes as f64 >= 0.5 * clean.successes as f64,
            "flaky web collapsed: {} vs {} clean",
            flaky.successes,
            clean.successes
        );
        let brownout = m.row("brownout").expect("brownout row");
        assert!(
            brownout.successes as f64 >= 0.9 * clean.successes as f64,
            "brownout should cost latency, not yield: {} vs {}",
            brownout.successes,
            clean.successes
        );
        // The healing outage: breakers opened while the servers were
        // down, closed again after, and tail harvest came back.
        let outage = m.row("outage").expect("outage row");
        assert!(outage.quarantines > 0, "outage never tripped a breaker");
        assert!(outage.recoveries > 0, "no breaker closed after healing");
        assert!(
            outage.tail_harvest >= clean.tail_harvest - 0.1,
            "tail harvest never recovered: {:.3} vs clean {:.3}",
            outage.tail_harvest,
            clean.tail_harvest
        );
    }
}
