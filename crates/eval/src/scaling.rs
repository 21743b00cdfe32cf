//! Cluster scaling table: pages/sec and harvest precision at 1/2/4
//! shards on the same simulated web, at equal *total* worker count and
//! fetch budget.
//!
//! The paper's title promises distributed discovery; this table is the
//! repo's evidence that the sharded crawler actually delivers it without
//! giving anything up: partitioning the frontier by server must not
//! degrade harvest precision (each shard still pops its local best by
//! the same priority order, and cross-shard endorsements carry their
//! saved priorities through the exchange), and the per-shard databases
//! — each a fraction of the single session's B+trees — must keep
//! throughput at or above the single-session baseline.
//!
//! The `shards = 1` row is a genuine single [`CrawlSession`], not a
//! one-shard cluster, so the comparison includes every gram of cluster
//! overhead (exchange, split budgets, merged stats).
//!
//! **Granularity condition.** Hash partitioning is harvest-neutral when
//! the good topic spans many more servers than there are shards — then
//! every shard owns a fair slice of the topic and its local frontier
//! head matches the global one. The paper's Web trivially satisfies
//! this (thousands of servers per topic); the default test worlds, with
//! 4–6 servers per topic, do *not* — a 4-shard split leaves some shard
//! owning zero cycling servers, and its budget share goes to its local
//! (noise) best. The scaling world therefore raises `servers_per_topic`
//! so partition granularity ≪ topic spread, which is the regime the
//! cluster targets; the condition is part of the sharding contract
//! (documented in the README).

use crate::common::{train_model, Scale, World};
use focus_classifier::compiled::CompiledModel;
use focus_crawler::cluster::CrawlCluster;
use focus_crawler::session::{CrawlConfig, CrawlSession, CrawlStats};
use focus_webgraph::WebGraph;
use std::sync::Arc;
use std::time::Instant;

/// Servers per topic in the scaling world: comfortably above any shard
/// count measured here, so every shard owns a fair slice of the topic.
const SCALING_SERVERS_PER_TOPIC: usize = 24;

/// The cycling world with sharding-grade server granularity (see the
/// module docs for why the default worlds are too coarse).
pub fn scaling_world(scale: Scale, seed: u64) -> World {
    let mut cfg = scale.web_config(seed);
    cfg.servers_per_topic = SCALING_SERVERS_PER_TOPIC;
    let graph = Arc::new(WebGraph::generate(cfg));
    let mut taxonomy = graph.taxonomy().clone();
    let topic = taxonomy.find("recreation/cycling").expect("cycling");
    taxonomy.mark_good(topic).expect("markable");
    let model = train_model(&graph, &taxonomy, scale, seed);
    let compiled = CompiledModel::compile(&model);
    World {
        graph,
        taxonomy,
        topic,
        model,
        compiled,
        scale,
    }
}

/// One configuration's measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Shard count (1 = plain single session).
    pub shards: usize,
    /// Total workers across all shards.
    pub workers_total: usize,
    /// Fetch attempts made (equals the budget when nothing stagnates).
    pub attempts: u64,
    /// Successful fetch+classify cycles.
    pub successes: u64,
    /// Crawl throughput.
    pub pages_per_sec: f64,
    /// Mean linear relevance over all fetched pages (harvest precision).
    pub harvest: f64,
}

/// The scaling table.
#[derive(Debug, Clone)]
pub struct ScalingTable {
    /// One row per shard count, in the order requested.
    pub rows: Vec<ScalingRow>,
}

impl ScalingTable {
    /// The row for `shards`, if measured.
    pub fn row(&self, shards: usize) -> Option<&ScalingRow> {
        self.rows.iter().find(|r| r.shards == shards)
    }

    /// Print in the repo's experiment-table format.
    pub fn print(&self) {
        println!("shards  workers  attempts  pages/sec  harvest");
        for r in &self.rows {
            println!(
                "{:>6}  {:>7}  {:>8}  {:>9.0}  {:>7.3}",
                r.shards, r.workers_total, r.attempts, r.pages_per_sec, r.harvest
            );
        }
    }
}

/// Run the standard table: 1/2/4 shards × 4 total workers on the
/// cycling world at `scale`'s budget.
pub fn run(scale: Scale) -> ScalingTable {
    run_with(scale, 4, &[1, 2, 4], 1)
}

/// Measure `shard_counts` on one world, `reps` timed runs each. The
/// reported pages/sec is the median rep; the reported harvest is the
/// *mean over reps* — claim interleaving makes individual sharded runs
/// vary by a few hundredths of harvest (which pages fill each shard's
/// budget share depends on routing arrival order), and the mean is what
/// the parity assertion should judge. Counters come from the last run.
pub fn run_with(
    scale: Scale,
    workers_total: usize,
    shard_counts: &[usize],
    reps: usize,
) -> ScalingTable {
    let world = scaling_world(scale, 47);
    // A generous start set: with few seeds, a shard can burn budget on
    // its local (noise) best before the first cross-shard endorsements
    // arrive — a cold-start loss, not a steady-state property.
    let seeds = world.start_set(24);
    let budget = scale.fetch_budget();
    let reps = reps.max(1);
    let mut rates: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); shard_counts.len()];
    let mut harvests: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); shard_counts.len()];
    let mut finals: Vec<Option<CrawlStats>> = vec![None; shard_counts.len()];
    // Interleave reps across configurations so machine drift lands on
    // every config equally (the PR 3 lesson).
    for _ in 0..reps {
        for (c, &n_shards) in shard_counts.iter().enumerate() {
            let cfg = CrawlConfig {
                threads: workers_total,
                max_fetches: budget,
                distill_every: Some(250),
                ..CrawlConfig::default()
            };
            let (stats, secs) = if n_shards == 1 {
                let session = Arc::new(
                    CrawlSession::new(world.fetcher(), world.model.clone(), cfg).expect("session"),
                );
                session.seed(&seeds).expect("seed");
                let t = Instant::now();
                let stats = session.run().expect("crawl");
                (stats, t.elapsed().as_secs_f64())
            } else {
                let cluster =
                    CrawlCluster::new(n_shards, world.fetcher(), world.model.clone(), cfg)
                        .expect("cluster");
                cluster.seed(&seeds).expect("seed");
                let t = Instant::now();
                let stats = cluster.run().expect("cluster crawl");
                (stats, t.elapsed().as_secs_f64())
            };
            rates[c].push(stats.attempts as f64 / secs.max(1e-9));
            harvests[c].push(stats.mean_harvest());
            finals[c] = Some(stats);
        }
    }
    let rows = shard_counts
        .iter()
        .zip(rates)
        .zip(harvests)
        .zip(finals)
        .map(|(((&shards, mut r), h), stats)| {
            r.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let stats = stats.expect("measured");
            ScalingRow {
                shards,
                workers_total,
                attempts: stats.attempts,
                successes: stats.successes,
                pages_per_sec: r[r.len() / 2],
                harvest: h.iter().sum::<f64>() / h.len() as f64,
            }
        })
        .collect();
    ScalingTable { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_keeps_harvest_and_throughput() {
        // A 4-shard crawl of the standard simulated web, at equal total
        // worker count and budget, spends the same budget and keeps its
        // harvest precision within noise of the single-session run. The
        // pages/sec of both are printed, not asserted: wall-clock
        // throughput is focus-bench's (`crawl-sharded` `vs_1w`). 3 reps:
        // the harvest mean wants the variance reduction.
        let table = run_with(Scale::Tiny, 4, &[1, 4], 3);
        table.print();
        let single = table.row(1).expect("baseline row");
        let four = table.row(4).expect("4-shard row");
        // Both spend the whole budget.
        assert_eq!(single.attempts, four.attempts, "budgets diverged");
        // Precision parity is deterministic-ish and always asserted: the
        // partitioned frontier pops local bests instead of the global
        // best, so small deltas either way are expected, degradation
        // beyond noise is a routing bug.
        assert!(
            four.harvest > single.harvest - 0.1,
            "sharding degraded harvest: 4-shard {:.3} vs single {:.3}",
            four.harvest,
            single.harvest
        );
    }
}
