//! Every workload, untraced and traced, at smoke scale: the metric and
//! workload names emitted are exactly the ones `BENCHMARK.json` lists,
//! every value is finite, and no correctness check is violated.

use focus_bench_harness::report::{MetricDef, Report, END_TO_END, PER_LAYER};
use focus_bench_harness::workloads::Workload;
use focus_bench_harness::world::SMOKE;
use std::collections::BTreeSet;

const SEED: u64 = 23;
/// Shorter than one smoke crawl: the run's minimum of three crawls.
const SECONDS: f64 = 0.01;

/// Names listed in the array under `key` of `BENCHMARK.json`. The arrays
/// hold flat objects, so the first `]` after the key closes the array.
fn listed(key: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let from = text.find(&format!("\"{key}\"")).expect("key present");
    let array = &text[from..from + text[from..].find(']').expect("array closes")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let open = rest.find('"').expect("name is a string") + 1;
            rest[open..open + rest[open..].find('"').expect("string closes")].to_owned()
        })
        .collect()
}

fn check(report: &Report, defs: &[MetricDef], listed_names: &BTreeSet<String>, what: &str) {
    let emitted: BTreeSet<String> = report.values.names().map(str::to_owned).collect();
    assert_eq!(
        &emitted, listed_names,
        "{what}: names differ from BENCHMARK.json"
    );
    for name in &emitted {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{what}: bad metric name {name}"
        );
        assert!(
            report.values.get(name).unwrap().is_finite(),
            "{what}: {name}"
        );
    }
    assert_eq!(report.failed, 0, "{what}: a correctness check was violated");
    assert!(report.attempted >= 1);
    assert!(report.to_json(defs).starts_with("{\"correct\":true,"));
}

#[test]
fn workload_names_match_benchmark_json() {
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(ours, listed("workloads"));
}

#[test]
fn end_to_end_metrics_match_benchmark_json() {
    let names = listed("end_to_end");
    for w in Workload::ALL {
        let report = focus_bench_harness::end_to_end(&SMOKE, w, SEED, SECONDS);
        check(&report, END_TO_END, &names, w.name());
        for name in &names {
            assert!(
                report.values.get(name).unwrap() > 0.0,
                "{}: end-to-end metric {name} is zero",
                w.name()
            );
        }
    }
}

#[test]
fn per_layer_metrics_match_benchmark_json() {
    let names = listed("per_layer");
    for w in Workload::ALL {
        let report = focus_bench_harness::traced(&SMOKE, w, SEED, SECONDS).expect("traced run");
        check(&report, PER_LAYER, &names, w.name());
    }
}
