//! Main-memory weighted HITS — the edge-walk formulation the paper used
//! before moving distillation into the database ("In past work on
//! distillation … An array of links would be traversed, reading and
//! updating the endpoints using node hashes"). This is the *reference*:
//! a crawl runs [`crate::graph`]'s kernel, which is property-checked
//! against this walk; semantics are identical to the Figure 4 SQL and
//! the tests of `focus_eval::distiller_db` pin that equality.

use crate::{DistillConfig, DistillResult, LinkEdge};
use focus_types::hash::FxHashMap;
use focus_types::Oid;

/// In-memory distiller state.
pub struct WeightedHits<'a> {
    edges: &'a [LinkEdge],
    /// `relevance(v)` for the ρ filter on authority candidates.
    relevance: &'a FxHashMap<Oid, f64>,
    cfg: DistillConfig,
}

impl<'a> WeightedHits<'a> {
    /// Bind edges + relevance map + config.
    pub fn new(
        edges: &'a [LinkEdge],
        relevance: &'a FxHashMap<Oid, f64>,
        cfg: DistillConfig,
    ) -> Self {
        WeightedHits {
            edges,
            relevance,
            cfg,
        }
    }

    /// Run `cfg.iterations` rounds of the Figure 4 mutual recursion.
    pub fn run(&self) -> DistillResult {
        let cfg = &self.cfg;
        // Initial authority scores: uniform over distinct targets.
        let mut auth: FxHashMap<Oid, f64> = FxHashMap::default();
        for e in self.edges {
            auth.entry(e.dst).or_insert(1.0);
        }
        normalize(&mut auth);
        let mut hubs: FxHashMap<Oid, f64> = FxHashMap::default();
        for _ in 0..cfg.iterations {
            // UpdateHubs: h(u) = Σ a(v)·wgt_rev over non-nepotistic edges.
            hubs.clear();
            for e in self.edges {
                if cfg.nepotism_filter && e.sid_src == e.sid_dst {
                    continue;
                }
                if let Some(&a) = auth.get(&e.dst) {
                    let w = if cfg.weighted_edges { e.wgt_rev } else { 1.0 };
                    *hubs.entry(e.src).or_insert(0.0) += a * w;
                }
            }
            normalize(&mut hubs);
            // UpdateAuth: a(v) = Σ h(u)·wgt_fwd, filtered by relevance > ρ.
            auth.clear();
            for e in self.edges {
                if cfg.nepotism_filter && e.sid_src == e.sid_dst {
                    continue;
                }
                let rel_v = self.relevance.get(&e.dst).copied().unwrap_or(0.0);
                if rel_v <= cfg.rho {
                    continue;
                }
                if let Some(&h) = hubs.get(&e.src) {
                    let w = if cfg.weighted_edges { e.wgt_fwd } else { 1.0 };
                    *auth.entry(e.dst).or_insert(0.0) += h * w;
                }
            }
            normalize(&mut auth);
        }
        let mut hubs: Vec<(Oid, f64)> = hubs.into_iter().collect();
        let mut auths: Vec<(Oid, f64)> = auth.into_iter().collect();
        hubs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        auths.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        DistillResult { hubs, auths }
    }
}

fn normalize(m: &mut FxHashMap<Oid, f64>) {
    let sum: f64 = m.values().sum();
    if sum > 0.0 {
        for v in m.values_mut() {
            *v /= sum;
        }
    }
}

/// Build `LINK` edges from raw links and a relevance map (the §2.2.2
/// weighting: `EF[u,v] = R(v)`, `EB[u,v] = R(u)`).
pub fn edges_from_links(
    links: &[(Oid, u32, Oid, u32)],
    relevance: &FxHashMap<Oid, f64>,
) -> Vec<LinkEdge> {
    links
        .iter()
        .map(|&(src, sid_src, dst, sid_dst)| LinkEdge {
            src,
            sid_src,
            dst,
            sid_dst,
            wgt_fwd: relevance.get(&dst).copied().unwrap_or(0.0),
            wgt_rev: relevance.get(&src).copied().unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small graph: hub 1 and hub 2 both point at authorities 10, 11.
    /// Hub 3 points only at irrelevant page 20. Page 30→31 is a
    /// same-server (nepotistic) edge.
    fn fixture() -> (Vec<LinkEdge>, FxHashMap<Oid, f64>) {
        let mut rel: FxHashMap<Oid, f64> = FxHashMap::default();
        for (o, r) in [
            (1u64, 0.8),
            (2, 0.7),
            (3, 0.6),
            (10, 0.9),
            (11, 0.85),
            (20, 0.01), // irrelevant: below ρ
            (30, 0.9),
            (31, 0.9),
        ] {
            rel.insert(Oid(o), r);
        }
        let links = vec![
            (Oid(1), 100, Oid(10), 200),
            (Oid(1), 100, Oid(11), 201),
            (Oid(2), 101, Oid(10), 200),
            (Oid(2), 101, Oid(11), 201),
            (Oid(3), 102, Oid(20), 202),
            (Oid(30), 300, Oid(31), 300), // nepotistic
        ];
        (edges_from_links(&links, &rel), rel)
    }

    #[test]
    fn hubs_and_authorities_found() {
        let (edges, rel) = fixture();
        let r = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        let top_hub = r.top_hubs(1)[0].0;
        assert!(top_hub == Oid(1) || top_hub == Oid(2));
        let top_auths: Vec<Oid> = r.top_auths(2).iter().map(|&(o, _)| o).collect();
        assert!(top_auths.contains(&Oid(10)));
        assert!(top_auths.contains(&Oid(11)));
    }

    #[test]
    fn rho_filter_excludes_irrelevant_authorities() {
        let (edges, rel) = fixture();
        let r = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        assert!(
            !r.auths.iter().any(|&(o, s)| o == Oid(20) && s > 0.0),
            "page 20 (R=0.01 < rho) must not be an authority"
        );
        // Hub 3 earns nothing: its only target is filtered.
        assert!(r.hub_score(Oid(3)) < 1e-12);
    }

    #[test]
    fn nepotism_filter_blocks_same_server_endorsement() {
        let (edges, rel) = fixture();
        let with = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        assert_eq!(with.hub_score(Oid(30)), 0.0, "nepotistic hub blocked");
        let without = WeightedHits::new(
            &edges,
            &rel,
            DistillConfig {
                nepotism_filter: false,
                ..DistillConfig::default()
            },
        )
        .run();
        assert!(without.hub_score(Oid(30)) > 0.0, "without filter it scores");
    }

    #[test]
    fn scores_are_normalized() {
        let (edges, rel) = fixture();
        let r = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        let hs: f64 = r.hubs.iter().map(|&(_, s)| s).sum();
        let as_: f64 = r.auths.iter().map(|&(_, s)| s).sum();
        assert!((hs - 1.0).abs() < 1e-9, "hub sum {hs}");
        assert!((as_ - 1.0).abs() < 1e-9, "auth sum {as_}");
    }

    #[test]
    fn weighting_protects_against_irrelevant_leakage() {
        // Universal page 50 is linked by everyone but has relevance 0.2
        // (just above rho so only the weighting defends). Authorities 10
        // and 11 have high relevance.
        let mut rel: FxHashMap<Oid, f64> = FxHashMap::default();
        for (o, r) in [
            (1u64, 0.9),
            (2, 0.9),
            (3, 0.9),
            (10, 0.9),
            (11, 0.9),
            (50, 0.2),
        ] {
            rel.insert(Oid(o), r);
        }
        let links = vec![
            (Oid(1), 1, Oid(10), 10),
            (Oid(1), 1, Oid(50), 50),
            (Oid(2), 2, Oid(11), 11),
            (Oid(2), 2, Oid(50), 50),
            (Oid(3), 3, Oid(10), 10),
            (Oid(3), 3, Oid(11), 11),
            (Oid(3), 3, Oid(50), 50),
        ];
        let edges = edges_from_links(&links, &rel);
        let weighted = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        let unweighted = WeightedHits::new(
            &edges,
            &rel,
            DistillConfig {
                weighted_edges: false,
                ..DistillConfig::default()
            },
        )
        .run();
        let rank = |r: &DistillResult, o: Oid| {
            r.auths
                .iter()
                .position(|&(x, _)| x == o)
                .unwrap_or(usize::MAX)
        };
        // With weights the universal page ranks below both topical
        // authorities; without weights it wins (3 in-links vs 2).
        assert!(rank(&weighted, Oid(50)) > rank(&weighted, Oid(10)));
        assert!(rank(&weighted, Oid(50)) > rank(&weighted, Oid(11)));
        assert_eq!(
            rank(&unweighted, Oid(50)),
            0,
            "plain HITS crowns the universal page"
        );
    }

    #[test]
    fn empty_graph() {
        let rel = FxHashMap::default();
        let edges: Vec<LinkEdge> = Vec::new();
        let r = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        assert!(r.hubs.is_empty() && r.auths.is_empty());
    }

    #[test]
    fn deterministic_ordering() {
        let (edges, rel) = fixture();
        let a = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        let b = WeightedHits::new(&edges, &rel, DistillConfig::default()).run();
        assert_eq!(a.hubs, b.hubs);
        assert_eq!(a.auths, b.auths);
    }
}
