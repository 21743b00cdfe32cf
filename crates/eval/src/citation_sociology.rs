//! §1's opening example — *citation sociology*: "Find a topic (other than
//! bicycling) within one link of bicycling pages that is much more
//! frequent than on the web at large. The answer found by the system
//! described in this paper is **first aid**."
//!
//! After a focused cycling crawl we compare the topic distribution of
//! pages within one link of relevant pages against the global topic
//! distribution; the lift ranking should put `health/first-aid` on top
//! among unrelated topics.

use crate::common::{Scale, World};
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_crawler::CrawlPolicy;
use focus_types::hash::FxHashMap;
use focus_types::ClassId;

/// One topic's lift.
#[derive(Debug, Clone)]
pub struct TopicLift {
    /// Topic name.
    pub topic: String,
    /// Frequency among 1-link neighbours of relevant pages.
    pub near_freq: f64,
    /// Frequency on the web at large.
    pub global_freq: f64,
    /// Ratio.
    pub lift: f64,
}

/// Run the query. Returns lifts sorted descending, excluding the good
/// topic itself and its taxonomic relatives (the paper's "other than
/// bicycling").
pub fn run(scale: Scale) -> Vec<TopicLift> {
    let world = World::cycling(scale, 202);
    let session = std::sync::Arc::new(
        CrawlSession::new(
            world.fetcher(),
            world.model.clone(),
            CrawlConfig {
                policy: CrawlPolicy::SoftFocus,
                threads: 4,
                max_fetches: scale.fetch_budget() / 2,
                distill_every: None,
                ..CrawlConfig::default()
            },
        )
        .expect("session"),
    );
    session.seed(&world.start_set(15)).expect("seed");
    session.run().expect("crawl");

    // Pages within one link of *relevant* crawled pages.
    let rel = session.relevance_map();
    let cut = (-1.0f64).exp();
    let mut near_counts: FxHashMap<ClassId, u64> = FxHashMap::default();
    let mut near_total = 0u64;
    for (src, _, dst, _) in session.links() {
        if rel.get(&src).copied().unwrap_or(0.0) <= cut {
            continue;
        }
        if let Some(t) = world.graph.topic_of(dst) {
            if t != ClassId::ROOT {
                *near_counts.entry(t).or_insert(0) += 1;
                near_total += 1;
            }
        }
    }
    // Global topic distribution (the web at large).
    let mut global_counts: FxHashMap<ClassId, u64> = FxHashMap::default();
    let mut global_total = 0u64;
    for p in world.graph.pages() {
        if p.topic != ClassId::ROOT {
            *global_counts.entry(p.topic).or_insert(0) += 1;
            global_total += 1;
        }
    }

    // Exclude the good topic and its ancestors/descendants/siblings.
    let excluded: Vec<ClassId> = {
        let mut v = world.taxonomy.subtree(world.topic);
        v.extend(world.taxonomy.ancestors(world.topic));
        if let Some(parent) = world.taxonomy.parent(world.topic) {
            v.extend(world.taxonomy.children(parent).iter().copied());
        }
        v
    };

    let mut lifts: Vec<TopicLift> = near_counts
        .iter()
        .filter(|(c, _)| !excluded.contains(c))
        .map(|(&c, &n)| {
            let near = n as f64 / near_total.max(1) as f64;
            let global =
                global_counts.get(&c).copied().unwrap_or(0) as f64 / global_total.max(1) as f64;
            TopicLift {
                topic: world.taxonomy.name(c).to_owned(),
                near_freq: near,
                global_freq: global,
                lift: if global > 0.0 { near / global } else { 0.0 },
            }
        })
        .collect();
    lifts.sort_by(|a, b| b.lift.total_cmp(&a.lift));
    lifts
}

/// Print the lift table.
pub fn print(lifts: &[TopicLift]) {
    println!("--- Citation sociology: topics within one link of cycling ---");
    println!(
        "{:<34} {:>10} {:>10} {:>7}",
        "topic", "near freq", "global", "lift"
    );
    for l in lifts.iter().take(8) {
        println!(
            "{:<34} {:>10.4} {:>10.4} {:>7.2}",
            l.topic, l.near_freq, l.global_freq, l.lift
        );
    }
    println!("paper: the answer is first aid");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_aid_tops_the_lift_ranking() {
        let lifts = run(Scale::Tiny);
        assert!(!lifts.is_empty());
        assert_eq!(
            lifts[0].topic,
            "health/first-aid",
            "expected first aid on top, got {:?}",
            lifts.iter().take(3).map(|l| &l.topic).collect::<Vec<_>>()
        );
        assert!(lifts[0].lift > 1.5, "lift {}", lifts[0].lift);
    }
}
