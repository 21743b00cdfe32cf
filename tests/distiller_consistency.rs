//! Randomized consistency between the three distiller implementations,
//! and topical-quality properties of the weighting scheme.

use focus_distiller::memory::{edges_from_links, WeightedHits};
use focus_distiller::DistillConfig;
use focus_eval::distiller_db::{create_crawl_stub, create_tables, load_links, run, run_naive};
use focus_types::hash::FxHashMap;
use focus_types::Oid;
use minirel::Database;
use proptest::prelude::*;

type RawGraph = (Vec<(Oid, u32, Oid, u32)>, FxHashMap<Oid, f64>);

fn graph_strategy() -> impl Strategy<Value = RawGraph> {
    // Up to 12 nodes on up to 5 servers; relevances in [0, 1].
    (
        proptest::collection::vec((0..12u64, 0..12u64), 1..40),
        proptest::collection::vec(0.0..1.0f64, 12),
    )
        .prop_map(|(pairs, rels)| {
            let server_of = |n: u64| (n % 5) as u32;
            let links: Vec<(Oid, u32, Oid, u32)> = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (Oid(a), server_of(a), Oid(b), server_of(b)))
                .collect();
            let mut rel: FxHashMap<Oid, f64> = FxHashMap::default();
            for (i, r) in rels.into_iter().enumerate() {
                rel.insert(Oid(i as u64), r);
            }
            (links, rel)
        })
        .prop_filter("need at least one edge", |(l, _)| !l.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memory_join_and_naive_agree((links, rel) in graph_strategy()) {
        let edges = edges_from_links(&links, &rel);
        let cfg = DistillConfig { iterations: 3, ..DistillConfig::default() };
        let mem = WeightedHits::new(&edges, &rel, cfg.clone()).run();

        let mut db = Database::in_memory();
        create_tables(&mut db).unwrap();
        create_crawl_stub(&mut db, &rel).unwrap();
        load_links(&mut db, &edges).unwrap();
        let join = run(&mut db, &cfg).unwrap();

        let mut db2 = Database::in_memory();
        create_tables(&mut db2).unwrap();
        create_crawl_stub(&mut db2, &rel).unwrap();
        load_links(&mut db2, &edges).unwrap();
        let (naive, _) = run_naive(&mut db2, &cfg).unwrap();

        prop_assert_eq!(mem.hubs.len(), join.hubs.len());
        prop_assert_eq!(mem.auths.len(), naive.auths.len());
        for (o, s) in &mem.hubs {
            let j = join.hub_score(*o);
            let n = naive.hub_score(*o);
            prop_assert!((s - j).abs() < 1e-9, "hub {o}: mem {s} join {j}");
            prop_assert!((s - n).abs() < 1e-9, "hub {o}: mem {s} naive {n}");
        }
        // Scores normalized (or empty).
        let hub_sum: f64 = mem.hubs.iter().map(|&(_, s)| s).sum();
        prop_assert!(mem.hubs.is_empty() || (hub_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nepotism_filter_never_scores_single_server_graphs(
        pairs in proptest::collection::vec((0..8u64, 0..8u64), 1..20)
    ) {
        // All nodes on one server: every edge is nepotistic.
        let links: Vec<(Oid, u32, Oid, u32)> = pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (Oid(a), 1, Oid(b), 1))
            .collect();
        prop_assume!(!links.is_empty());
        let mut rel: FxHashMap<Oid, f64> = FxHashMap::default();
        for i in 0..8u64 {
            rel.insert(Oid(i), 0.9);
        }
        let edges = edges_from_links(&links, &rel);
        let r = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        for (_, s) in &r.hubs {
            prop_assert!(*s == 0.0 || !s.is_nan() && *s < 1e-12);
        }
    }
}
