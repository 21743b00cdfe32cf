//! Equivalence proptests: `LinkGraph` → snapshot → kernel must agree
//! with the reference hash-map walk (`memory::WeightedHits`) on random
//! graphs — repeated edges, self-links, same-server edges, relevance
//! absent / 0 / ≤ ρ / > ρ, edges appended in rounds with relevance set
//! and *re-set* between rounds the way a crawl and `mark_topic` do —
//! under every `nepotism_filter`/`weighted_edges` setting and for 0, 1
//! and 10 iterations.
//!
//! The kernel accumulates each node's sums in the reference's edge
//! order; only the normalization sums add up in a different order
//! (dense-id order against hash-map order), so 1e-9 has plenty of
//! slack and any layout bug — interning, the active-edge compaction,
//! set membership after the first iteration — is a gross mismatch.

use focus_distiller::graph::LinkGraph;
use focus_distiller::memory::{edges_from_links, WeightedHits};
use focus_distiller::DistillConfig;
use focus_types::hash::FxHashMap;
use focus_types::Oid;
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// xorshift64*: the test's own generator, so a failing case replays
/// from the `(nodes, servers, rounds, seed)` tuple proptest prints.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The same crawl history told twice: to a `LinkGraph`, and to the
/// `(links, relevance map)` pair the reference takes.
struct History {
    graph: LinkGraph,
    links: Vec<(Oid, u32, Oid, u32)>,
    rel: FxHashMap<Oid, f64>,
}

fn history(nodes: u64, servers: u32, rounds: usize, seed: u64, rho: f64) -> History {
    let mut rng = Rng(seed | 1);
    // Scrambled oids, so oid order is unrelated to dense-id order.
    let oid = |i: u64| Oid(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let sid = |i: u64| (i % servers as u64) as u32;
    let mut h = History {
        graph: LinkGraph::new(),
        links: Vec::new(),
        rel: FxHashMap::default(),
    };
    for _ in 0..rounds {
        // Visit (or re-mark) some pages: R exactly 0, at most ρ, or
        // above it. Pages never picked stay unvisited.
        for _ in 0..rng.below(nodes + 1) {
            let page = oid(rng.below(nodes));
            let r = match rng.below(4) {
                0 => 0.0,
                1 => rho * rng.unit(),
                _ => rho + (1.0 - rho) * rng.unit().max(1e-6),
            };
            h.graph.set_relevance(page, r);
            h.rel.insert(page, r);
        }
        // A few pages land, each with a run of outlinks (repeats and
        // self-links included).
        for _ in 0..rng.below(nodes.min(400) + 1) {
            let s = rng.below(nodes);
            let src = h.graph.node_id(oid(s), sid(s));
            for _ in 0..rng.below(12) {
                let d = if rng.below(16) == 0 {
                    s
                } else {
                    rng.below(nodes)
                };
                h.graph.add_link(src, oid(d), sid(d));
                h.links.push((oid(s), sid(s), oid(d), sid(d)));
            }
        }
    }
    h
}

/// `got` equals `want` as a set of `(oid, score)` — same members, scores
/// within [`TOL`] — and in order wherever the reference order is decided
/// by more than [`TOL`].
fn same_ranking(what: &str, want: &[(Oid, f64)], got: &[(Oid, f64)]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{what}: {} members vs {}", want.len(), got.len()));
    }
    let scores: FxHashMap<Oid, f64> = got.iter().copied().collect();
    for &(o, s) in want {
        match scores.get(&o) {
            Some(g) if (g - s).abs() < TOL => {}
            other => return Err(format!("{what}: {o:?} scores {s} vs {other:?}")),
        }
    }
    let mut start = 0;
    for i in 0..want.len() {
        if i + 1 < want.len() && want[i].1 - want[i + 1].1 <= TOL {
            continue;
        }
        // `start..=i` is a run of reference near-ties: same pages, any order.
        let members = |v: &[(Oid, f64)]| {
            let mut m: Vec<Oid> = v[start..=i].iter().map(|&(o, _)| o).collect();
            m.sort();
            m
        };
        if members(want) != members(got) {
            return Err(format!("{what}: ranks {start}..={i} hold different pages"));
        }
        start = i + 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_agrees_with_the_reference_walk(
        (nodes, servers, rounds, seed) in (1u64..3000, 1u32..40, 1usize..4, any::<u64>())
    ) {
        let rho = 0.05;
        let h = history(nodes, servers, rounds, seed, rho);
        prop_assert_eq!(h.graph.num_links(), h.links.len());
        let served: Vec<(Oid, u32, Oid, u32)> = h
            .graph
            .links()
            .map(|(s, d)| (s.oid, s.sid, d.oid, d.sid))
            .collect();
        prop_assert_eq!(&served, &h.links);
        let visited: FxHashMap<Oid, f64> = h.graph.visited().collect();
        prop_assert_eq!(&visited, &h.rel);

        let edges = edges_from_links(&h.links, &h.rel);
        let snapshot = h.graph.snapshot();
        for (nepotism_filter, weighted_edges) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            for iterations in [0, 1, 10] {
                let cfg = DistillConfig { iterations, rho, nepotism_filter, weighted_edges };
                let want = WeightedHits::new(&edges, &h.rel, cfg.clone()).run();
                let out = snapshot.distill(&cfg, 5);
                let tag = format!("nepotism={nepotism_filter} weighted={weighted_edges} \
                                   iterations={iterations}");
                if let Err(e) = same_ranking("hubs", &want.hubs, &out.result.hubs)
                    .and_then(|()| same_ranking("auths", &want.auths, &out.result.auths))
                {
                    prop_assert!(false, "{tag}: {e}");
                }
                // The endorsed targets are what the session's old scan
                // of its link list picked, link for link.
                let top: Vec<Oid> = out.result.top_hubs(5).iter().map(|&(o, _)| o).collect();
                let expect: Vec<Oid> = h
                    .links
                    .iter()
                    .filter(|(s, ss, d, sd)| {
                        top.contains(s) && ss != sd && !h.rel.contains_key(d)
                    })
                    .map(|&(_, _, d, _)| d)
                    .collect();
                let endorsed: Vec<Oid> =
                    out.endorsed.iter().map(|&id| h.graph.node(id).oid).collect();
                prop_assert_eq!(endorsed, expect, "{}: endorsed targets", tag);
            }
        }
    }
}

#[test]
fn negative_rho_admits_unvisited_targets_like_the_reference() {
    // ρ < 0 makes an unvisited page (R read as 0) an authority
    // candidate; the kernel must read "absent" as 0, not as "filtered".
    let mut g = LinkGraph::new();
    let a = g.node_id(Oid(1), 1);
    g.set_relevance(Oid(1), 0.5);
    g.add_link(a, Oid(2), 2);
    let links = vec![(Oid(1), 1, Oid(2), 2)];
    let rel: FxHashMap<Oid, f64> = [(Oid(1), 0.5)].into_iter().collect();
    let cfg = DistillConfig {
        rho: -1.0,
        ..DistillConfig::default()
    };
    let want = WeightedHits::new(&edges_from_links(&links, &rel), &rel, cfg.clone()).run();
    let got = g.snapshot().distill(&cfg, 0).result;
    same_ranking("hubs", &want.hubs, &got.hubs).unwrap();
    same_ranking("auths", &want.auths, &got.auths).unwrap();
    assert_eq!(got.auths.len(), 1);
}

#[test]
fn empty_graph_matches_the_reference() {
    let rel = FxHashMap::default();
    for iterations in [0, 1, 10] {
        let cfg = DistillConfig {
            iterations,
            ..DistillConfig::default()
        };
        let want = WeightedHits::new(&[], &rel, cfg.clone()).run();
        let got = LinkGraph::new().snapshot().distill(&cfg, 10);
        assert!(want.hubs.is_empty() && want.auths.is_empty());
        assert!(got.result.hubs.is_empty() && got.result.auths.is_empty());
        assert!(got.endorsed.is_empty());
    }
}
