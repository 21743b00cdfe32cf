//! Metric names, units and the result line. `BENCHMARK.json` lists the
//! same names; `tests/smoke.rs` keeps the two in step.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: &[MetricDef] = &[
    m("pages_per_sec", "pages/s"),
    m("harvest_rate", "ratio"),
    m("monitor_suite_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Single layers, from the traced run. Zero where the workload does not
/// exercise the layer (WAL, recovery and replica off `crawl-durable`,
/// cluster off `crawl-sharded`, live monitor latencies off
/// `monitor-mixed`).
pub const PER_LAYER: &[MetricDef] = &[
    m("crawler.frontier.claim_us_per_page", "us"),
    m("crawler.frontier.claim_reads_per_page", "reads"),
    m("crawler.frontier.claim_deferred_per_page", "rows"),
    m("crawler.frontier.mark_done_us_per_page", "us"),
    m("crawler.frontier.mark_done_reads_per_page", "reads"),
    m("crawler.frontier.upsert_us_per_page", "us"),
    m("crawler.frontier.upsert_reads_per_page", "reads"),
    m("crawler.frontier.upsert_changed_ratio", "ratio"),
    m("crawler.frontier.mark_failed_us_per_failure", "us"),
    m("minirel.db.link_insert_us_per_page", "us"),
    m("minirel.db.link_insert_reads_per_page", "reads"),
    m("minirel.btree.insert_ns_per_key.fit", "ns"),
    m("minirel.btree.insert_ns_per_key.spill", "ns"),
    m("minirel.btree.lookup_ns_per_key.fit", "ns"),
    m("minirel.btree.lookup_ns_per_key.spill", "ns"),
    m("minirel.btree.reads_per_lookup.fit", "reads"),
    m("minirel.btree.reads_per_lookup.spill", "reads"),
    m("minirel.heap.insert_ns_per_row.fit", "ns"),
    m("minirel.heap.insert_ns_per_row.spill", "ns"),
    m("minirel.heap.get_ns_per_row.fit", "ns"),
    m("minirel.heap.get_ns_per_row.spill", "ns"),
    m("minirel.buffer.logical_reads_per_page", "reads"),
    m("minirel.buffer.hit_ratio", "ratio"),
    m("minirel.buffer.evictions_per_page", "count"),
    m("minirel.wal.commit_us", "us"),
    m("minirel.wal.bytes_per_commit", "bytes"),
    m("minirel.wal.bytes_per_page", "bytes"),
    m("minirel.wal.write_amp", "ratio"),
    m("minirel.recovery.open_s", "s"),
    m("minirel.recovery.replay_mb_per_s", "MB/s"),
    m("minirel.replica.catchup_ms", "ms"),
    m("minirel.sql.harvest_per_minute.prepare_us", "us"),
    m("minirel.sql.harvest_per_minute.exec_ms", "ms"),
    m("minirel.sql.harvest_per_minute.reads_per_row", "reads"),
    m("minirel.sql.census_by_class.prepare_us", "us"),
    m("minirel.sql.census_by_class.exec_ms", "ms"),
    m("minirel.sql.census_by_class.reads_per_row", "reads"),
    m("minirel.sql.frontier_by_numtries.prepare_us", "us"),
    m("minirel.sql.frontier_by_numtries.exec_ms", "ms"),
    m("minirel.sql.frontier_by_numtries.reads_per_row", "reads"),
    m("minirel.sql.missed_hub_neighbors.prepare_us", "us"),
    m("minirel.sql.missed_hub_neighbors.exec_ms", "ms"),
    m("minirel.sql.missed_hub_neighbors.reads_per_row", "reads"),
    m("minirel.sql.community_evolution.prepare_us", "us"),
    m("minirel.sql.community_evolution.exec_ms", "ms"),
    m("minirel.sql.community_evolution.reads_per_row", "reads"),
    m("minirel.sql.cross_topic_citations.prepare_us", "us"),
    m("minirel.sql.cross_topic_citations.exec_ms", "ms"),
    m("minirel.sql.cross_topic_citations.reads_per_row", "reads"),
    m("minirel.sql.hub_outlinks.prepare_us", "us"),
    m("minirel.sql.hub_outlinks.exec_ms", "ms"),
    m("minirel.sql.hub_outlinks.reads_per_row", "reads"),
    m("minirel.sql.plan_cache_hit_ratio", "ratio"),
    m("classifier.compiled.evaluate_us_per_page", "us"),
    m("classifier.compiled.terms_per_doc", "terms"),
    m("distiller.memory.pass_ms_mean", "ms"),
    m("distiller.memory.pass_ms_last", "ms"),
    m("distiller.memory.edges_last", "edges"),
    m("distiller.memory.ns_per_edge_iter", "ns"),
    m("distiller.memory.share_of_replay", "ratio"),
    m("webgraph.fetch.us_per_page", "us"),
    m("webgraph.fetch.injected_fail_share", "ratio"),
    m("crawler.fetch_pool.overhead_us_per_job", "us"),
    m("crawler.fetch_pool.achieved_concurrency", "fetches"),
    m("crawler.health.admit_release_ns", "ns"),
    m("crawler.session.pps_1w", "pages/s"),
    m("crawler.session.vs_1w", "ratio"),
    m("crawler.session.harvest_vs_1w", "ratio"),
    m("crawler.session.distill_now_ms", "ms"),
    m("crawler.session.unattributed_share", "ratio"),
    m("crawler.session.recover_s", "s"),
    m("crawler.session.disk_bytes_per_page", "bytes"),
    m("crawler.monitor.lock_wait_p50_ms", "ms"),
    m("crawler.monitor.light_p50_ms", "ms"),
    m("crawler.monitor.heavy_p50_ms", "ms"),
    m("crawler.monitor.heavy_tail_ms", "ms"),
    m("crawler.monitor.probe_p50_ms", "ms"),
    m("crawler.cluster.exchange_dropped", "count"),
    m("crawler.cluster.shard_attempt_skew", "ratio"),
    m("trace.spans", "count"),
    m("trace.overhead_ratio", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let previous = self.0.insert(name.clone(), value);
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// One run's result: the line the driver reads.
#[derive(Debug)]
pub struct Report {
    pub values: Values,
    /// Operations attempted and how many of them belong to a crawl or
    /// drive that violated a correctness check.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with
    /// exactly the metrics of `defs`, in their order. A metric the run
    /// did not produce, or produced as NaN or infinite, is a bug in the
    /// benchmark and panics rather than printing a number.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let extra: Vec<&str> = self
            .values
            .names()
            .filter(|n| defs.iter().all(|d| d.name != *n))
            .collect();
        assert!(extra.is_empty(), "metrics outside the registry: {extra:?}");
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(v.is_finite(), "metric {} is {v}", d.name);
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", d.name, d.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_exactly_the_registry() {
        let mut values = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.put(d.name, i as f64 + 0.5);
        }
        let line = Report {
            values,
            attempted: 10,
            failed: 0,
        }
        .to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":4.5,\"unit\":\"s\"}"));
    }
}
