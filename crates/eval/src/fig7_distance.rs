//! Figure 7 — evidence of large-radius exploration (§3.6): after a
//! focused crawl, how far (in links) are the top-100 authorities from the
//! start set? If they were all 1–2 links out, keyword search + bounded
//! distillation would suffice; the paper finds "excellent resources as
//! far as 12–15 links from the start set". Also prints the top hub list
//! (the paper's cycling hot-list).

use crate::common::{Scale, World};
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::CrawlPolicy;
use focus_types::Oid;

/// Figure 7 output.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Histogram: distance (links) → #top-authorities at that distance.
    pub histogram: Vec<(u32, usize)>,
    /// Top hub URLs with scores.
    pub top_hubs: Vec<(String, f64)>,
    /// Max distance at which a top authority was found.
    pub max_distance: u32,
    /// Fraction of top authorities more than 2 links out.
    pub frac_beyond_2: f64,
}

/// Run the experiment: focused crawl → final distillation → BFS distances
/// on the true graph.
pub fn run(scale: Scale) -> Fig7 {
    let world = World::cycling(scale, 101);
    let seeds = world.start_set(20);
    let session = std::sync::Arc::new(
        CrawlSession::new(
            world.fetcher(),
            world.model.clone(),
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 1,
                max_fetches: scale.fetch_budget(),
                distill_every: Some(400),
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(&seeds).expect("seed");
    session.run().expect("crawl");
    let distill = session.distill_now().expect("distill");

    let dist = world.graph.shortest_distances(&seeds);
    let top_auths: Vec<Oid> = distill.top_auths(100).iter().map(|&(o, _)| o).collect();
    let mut hist: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    let mut max_d = 0;
    let mut beyond = 0usize;
    for &a in &top_auths {
        if let Some(&d) = dist.get(&a) {
            *hist.entry(d).or_insert(0) += 1;
            max_d = max_d.max(d);
            if d > 2 {
                beyond += 1;
            }
        }
    }
    let top_hubs = distill
        .top_hubs(16)
        .iter()
        .map(|&(o, s)| {
            let url = world
                .graph
                .page(o)
                .map(|p| p.url.clone())
                .unwrap_or_else(|| format!("{o}"));
            (url, s)
        })
        .collect();
    Fig7 {
        histogram: hist.into_iter().collect(),
        top_hubs,
        max_distance: max_d,
        frac_beyond_2: beyond as f64 / top_auths.len().max(1) as f64,
    }
}

/// Print in the paper's format (histogram + hub list).
pub fn print(f: &Fig7) {
    println!("--- Figure 7: distance to top authorities ---");
    println!("shortest distance (#links)  frequency");
    for &(d, n) in &f.histogram {
        println!("  {d:>2}  {}", "#".repeat(n.min(60)));
    }
    println!(
        "max distance: {}; fraction beyond 2 links: {:.2}",
        f.max_distance, f.frac_beyond_2
    );
    println!("top hubs (cycling):");
    for (url, s) in &f.top_hubs {
        println!("  {s:.5}  {url}");
    }
    println!("paper: \"excellent resources were found as far as 12-15 links from the start set\"");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authorities_found_beyond_the_start_neighborhood() {
        let f = run(Scale::Tiny);
        assert!(!f.histogram.is_empty(), "no authorities measured");
        assert!(
            f.max_distance >= 2,
            "all authorities within {} links — no exploration evidence",
            f.max_distance
        );
        assert!(!f.top_hubs.is_empty());
        // Hubs should mostly be cycling link pages (URL carries the topic).
        let cycling_hubs = f
            .top_hubs
            .iter()
            .filter(|(u, _)| u.contains("cycling"))
            .count();
        assert!(
            cycling_hubs * 2 >= f.top_hubs.len(),
            "only {cycling_hubs}/{} hubs are cycling-hosted",
            f.top_hubs.len()
        );
    }
}
