//! Figure 6 — coverage/robustness (§3.5): a *reference* crawl from start
//! set S1 and a disjoint *test* crawl from S2; how fast does the test
//! crawl re-find the reference crawl's relevant URLs (a) and servers (b)?
//! The paper reaches ≈83% URL and ≈90% server coverage within an hour.

use crate::common::{Scale, World};
use crate::report::Series;
use focus_crawler::session::{CrawlConfig, CrawlSession, Landing};
use focus_crawler::{host_server_id, CrawlPolicy};
use focus_types::hash::FxHashSet;
use focus_types::{Oid, ServerId};
use focus_webgraph::search::disjoint_start_sets;

/// Figure 6 output.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Fraction of the reference crawl's relevant URLs visited, by #URLs
    /// crawled (Fig 6a).
    pub url_coverage: Series,
    /// Fraction of the reference crawl's servers visited (Fig 6b).
    pub server_coverage: Series,
    /// Final URL coverage.
    pub final_url_coverage: f64,
    /// Final server coverage.
    pub final_server_coverage: f64,
}

fn crawl(world: &World, seeds: &[Oid], budget: u64) -> Vec<Landing> {
    let session = std::sync::Arc::new(
        CrawlSession::new(
            world.fetcher(),
            world.model.clone(),
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 4,
                max_fetches: budget,
                distill_every: Some(400),
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(seeds).expect("seed");
    session.run().expect("crawl");
    session.landings().expect("landings")
}

/// Run the coverage experiment. Relevance cut: the paper's
/// `log R(u) > −1`, i.e. `R > e^{-1}`.
pub fn run(scale: Scale) -> Fig6 {
    let world = World::cycling(scale, 77);
    let (s1, s2) = disjoint_start_sets(&world.graph, world.topic, 15);
    let budget = scale.fetch_budget();
    let cut = (-1.0f64).exp();

    let reference = crawl(&world, &s1, budget);
    let ref_relevant: FxHashSet<Oid> = reference
        .iter()
        .filter(|l| l.relevance > cut)
        .map(|l| l.oid)
        .collect();
    let ref_servers: FxHashSet<ServerId> = ref_relevant
        .iter()
        .filter_map(|&o| world.graph.page(o))
        .map(|p| host_server_id(&p.url))
        .collect();

    let test = crawl(&world, &s2, budget);
    let mut seen_urls: FxHashSet<Oid> = FxHashSet::default();
    let mut seen_servers: FxHashSet<ServerId> = FxHashSet::default();
    let mut url_pts = Vec::new();
    let mut srv_pts = Vec::new();
    let mut url_hits = 0usize;
    let mut srv_hits = 0usize;
    for (i, &Landing { oid, .. }) in test.iter().enumerate() {
        if ref_relevant.contains(&oid) && seen_urls.insert(oid) {
            url_hits += 1;
        }
        if let Some(p) = world.graph.page(oid) {
            let s = host_server_id(&p.url);
            if ref_servers.contains(&s) && seen_servers.insert(s) {
                srv_hits += 1;
            }
        }
        let x = (i + 1) as f64;
        url_pts.push((x, url_hits as f64 / ref_relevant.len().max(1) as f64));
        srv_pts.push((x, srv_hits as f64 / ref_servers.len().max(1) as f64));
    }
    let url_coverage = Series::new("URL coverage", url_pts);
    let server_coverage = Series::new("Server coverage", srv_pts);
    Fig6 {
        final_url_coverage: url_coverage.last_y().unwrap_or(0.0),
        final_server_coverage: server_coverage.last_y().unwrap_or(0.0),
        url_coverage,
        server_coverage,
    }
}

/// Print in the paper's terms.
pub fn print(f: &Fig6) {
    println!("--- Figure 6: coverage from a disjoint start set ---");
    print!("{}", f.url_coverage.ascii_chart(64, 10));
    print!("{}", f.server_coverage.ascii_chart(64, 10));
    println!(
        "final coverage: URLs {:.2}  servers {:.2}   (paper: ~0.83 URLs, ~0.90 servers)",
        f.final_url_coverage, f.final_server_coverage
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_reaches_majority() {
        let f = run(Scale::Tiny);
        assert!(
            f.final_url_coverage > 0.4,
            "URL coverage only {}",
            f.final_url_coverage
        );
        assert!(
            f.final_server_coverage > 0.5,
            "server coverage only {}",
            f.final_server_coverage
        );
        assert!(
            f.final_server_coverage >= f.final_url_coverage * 0.8,
            "server coverage should not lag URL coverage badly"
        );
    }
}
