//! `focus-bench`: the repository's one benchmark. Five workloads run the
//! crawler end to end through its public APIs; a separate traced run
//! replays one crawl stage by stage and drives each layer directly for
//! the per-layer numbers. `README.md` has the metric definitions.

pub mod layers;
pub mod operator;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

use report::{Report, Values};
use workloads::Workload;
use world::{Scale, World};

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_samples(name: &str, unit: &str, xs: &[f64]) {
    if xs.is_empty() {
        return;
    }
    let s = stats::summarize(xs);
    println!(
        "{name:<22} {:>12.4} {unit:<8} min {:.4} max {:.4} n {}",
        s.median, s.min, s.max, s.n
    );
}

/// The untraced run: set the world up `scale.setups` times, crawl
/// `workload` for `seconds`, report every end-to-end metric (and print
/// what only this workload has, for people).
pub fn end_to_end(scale: &Scale, workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut world = World::build(scale, seed);
    let mut setups = vec![world.setup_s];
    while setups.len() < scale.setups {
        // One world at a time: two would double `peak_rss_mb`.
        drop(world);
        world = World::build(scale, seed);
        setups.push(world.setup_s);
    }
    let outcome = workloads::run(&world, scale, workload, seconds);

    let pps = outcome.samples(|r| r.pages_per_sec());
    let harvest = outcome.samples(|r| r.harvest);
    let suite_ms = outcome.samples(|r| r.suite_ms);
    let construct = outcome.samples(|r| r.construct_s);
    print_samples("setup_world_s", "s", &setups);
    print_samples("setup_session_s", "s", &construct);
    print_samples("pages_per_sec", "pages/s", &pps);
    print_samples("harvest_rate", "ratio", &harvest);
    print_samples("monitor_suite_ms", "ms", &suite_ms);
    print_samples(
        "monitor_lock_wait_ms",
        "ms",
        &outcome.suites().map(|s| s.lock_wait_ms).collect::<Vec<_>>(),
    );
    print_samples(
        "monitor_light_ms",
        "ms",
        &outcome.suite_class(|s| &s.light_ms),
    );
    print_samples(
        "monitor_heavy_ms",
        "ms",
        &outcome.suite_class(|s| &s.heavy_ms),
    );
    print_samples(
        "monitor_probe_ms",
        "ms",
        &outcome.suite_class(|s| &s.probe_ms),
    );
    print_samples("recover_s", "s", &outcome.optional(|r| r.recover_s));
    print_samples(
        "disk_bytes_per_page",
        "bytes",
        &outcome.optional(|r| r.disk_bytes_per_page()),
    );

    let mut values = Values::default();
    values.put("pages_per_sec", stats::median(&pps));
    values.put("harvest_rate", stats::median(&harvest));
    values.put("monitor_suite_ms", stats::median(&suite_ms));
    values.put("peak_rss_mb", peak_rss_mb());
    values.put(
        "setup_s",
        stats::median(&setups) + stats::median(&construct),
    );
    Report {
        values,
        attempted: outcome.ops(),
        failed: outcome.failed_ops(),
    }
}

/// The traced run: one world, every per-layer metric.
pub fn traced(
    scale: &Scale,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> minirel::DbResult<Report> {
    layers::run(&World::build(scale, seed), scale, workload, seconds)
}
