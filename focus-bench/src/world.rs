//! The benchmark's input: a generated web, a classifier trained for the
//! good topics, and the start set — everything `--seed` decides. The
//! system under test sees only this.

use focus_classifier::compiled::CompiledModel;
use focus_classifier::model::TrainedModel;
use focus_classifier::train::{train, TrainConfig};
use focus_types::{ClassId, Document, Oid};
use focus_webgraph::{search, WebConfig, WebGraph};
use std::sync::Arc;
use std::time::Instant;

/// The good set: the four topics the paper's experiments name. Four
/// communities in four branches of the taxonomy average out how easy any
/// one of them happens to be in a given generated web, which is what
/// keeps `harvest_rate` comparable from seed to seed (one topic alone
/// spreads ~12% between seeds, the four together ~3%), and they hold
/// four times the relevance mass, so a crawl never runs the topic dry.
pub const GOOD_TOPICS: [&str; 4] = [
    "recreation/cycling",
    "business/investing/mutual-funds",
    "health/hiv",
    "home/gardening",
];

/// Citing topic of the sociology queries (the generator's configured
/// affinity is cycling → first-aid).
const CITED_TOPIC: &str = "health/first-aid";

/// Sizes of everything the benchmark runs. `FULL` is what
/// `BENCHMARK.json` is measured at; `SMOKE` runs every code path in a
/// few seconds for the test suite.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub pages_per_topic: usize,
    pub servers_per_topic: usize,
    /// Training documents per topic. Far more than the paper's handful:
    /// with 20 the classifier's calibration, and with it `harvest_rate`,
    /// moves ~12% between seeds.
    pub examples_per_topic: usize,
    /// World set-ups per end-to-end run; `setup_s` reports their median.
    pub setups: usize,
    /// Attempts per crawl, by workload.
    pub budget_cpu: u64,
    pub budget_wan: u64,
    pub budget_durable: u64,
    pub budget_monitor: u64,
    pub budget_sharded: u64,
    /// `crawl-wan`: simulated fetch latency, pool threads, claim batch.
    pub wan_latency_ms: u64,
    pub wan_pool: usize,
    pub wan_batch: usize,
    /// `monitor-mixed`: classified pages per operator suite. Chosen so the
    /// number of suites in a crawl does not depend on the seed's exact
    /// success count (4,000 attempts give about 3,840 successes: 6 suites)
    /// and so that suites do not coincide with the distillations.
    pub watch_every: u64,
    /// Keys of the direct B+tree/heap drives at the size that fits the
    /// 512-frame pool; the spill drive uses eight times as many.
    pub storage_fit_keys: usize,
    /// Jobs of the zero-latency fetch-pool drive.
    pub pool_jobs: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    pages_per_topic: 3_000,
    servers_per_topic: 24,
    examples_per_topic: 100,
    setups: 3,
    budget_cpu: 10_000,
    budget_wan: 6_000,
    budget_durable: 6_000,
    budget_monitor: 4_000,
    budget_sharded: 10_000,
    wan_latency_ms: 20,
    wan_pool: 64,
    wan_batch: 64,
    watch_every: 600,
    storage_fit_keys: 20_000,
    pool_jobs: 10_000,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    pages_per_topic: 120,
    servers_per_topic: 6,
    examples_per_topic: 8,
    setups: 2,
    budget_cpu: 300,
    budget_wan: 300,
    budget_durable: 200,
    budget_monitor: 300,
    budget_sharded: 300,
    wan_latency_ms: 1,
    wan_pool: 4,
    wan_batch: 8,
    watch_every: 60,
    storage_fit_keys: 500,
    pool_jobs: 200,
};

impl Scale {
    pub fn parse(name: &str) -> Option<Scale> {
        [FULL, SMOKE].into_iter().find(|s| s.name == name)
    }
}

/// A generated web plus the trained classifier and start set.
pub struct World {
    pub graph: Arc<WebGraph>,
    pub model: TrainedModel,
    pub compiled: Arc<CompiledModel>,
    /// Ten keyword-search hits per good topic.
    pub seeds: Vec<Oid>,
    /// Class ids the sociology monitor queries are parameterised with:
    /// the first good topic and the topic it has an affinity to.
    pub citer_kcid: i64,
    pub cited_kcid: i64,
    /// Wall time of this set-up.
    pub setup_s: f64,
}

impl World {
    pub fn build(scale: &Scale, seed: u64) -> World {
        let t = Instant::now();
        let graph = Arc::new(WebGraph::generate(WebConfig {
            seed,
            pages_per_topic: scale.pages_per_topic,
            servers_per_topic: scale.servers_per_topic,
            ..WebConfig::default()
        }));
        let mut taxonomy = graph.taxonomy().clone();
        let goods: Vec<ClassId> = GOOD_TOPICS
            .iter()
            .map(|name| {
                let c = taxonomy.find(name).expect("good topic is in the taxonomy");
                taxonomy.mark_good(c).expect("good topics are leaves");
                c
            })
            .collect();
        let examples: Vec<(ClassId, Document)> = taxonomy
            .all()
            .filter(|&c| c != ClassId::ROOT)
            .flat_map(|c| {
                graph
                    .example_docs(c, scale.examples_per_topic, seed ^ 0x5eed)
                    .into_iter()
                    .map(move |d| (c, d))
            })
            .collect();
        let model = train(&taxonomy, &examples, &TrainConfig::default());
        let compiled = Arc::new(CompiledModel::compile(&model));
        let seeds = goods
            .iter()
            .flat_map(|&c| search::topic_start_set(&graph, c, 10))
            .collect();
        let cited = taxonomy.find(CITED_TOPIC).expect("cited topic exists");
        World {
            graph,
            model,
            compiled,
            seeds,
            citer_kcid: goods[0].raw() as i64,
            cited_kcid: cited.raw() as i64,
            setup_s: t.elapsed().as_secs_f64(),
        }
    }
}
