//! §2 — empirical verification of the radius-1 / radius-2 rules on the
//! generated web (the paper verified them on Yahoo!-cataloged pages and
//! patents; "a page that points to a given first level topic of Yahoo!
//! has about a 45% chance of having another link to the same topic").

use crate::common::Scale;
use focus_webgraph::stats::{radius1, radius2};
use focus_webgraph::{WebConfig, WebGraph};

/// Per-topic radius-rule measurements.
#[derive(Debug, Clone)]
pub struct TopicRadius {
    /// Topic name.
    pub topic: String,
    /// P(target same topic | source on topic).
    pub r1_on: f64,
    /// P(target same topic | source off topic).
    pub r1_off: f64,
    /// Radius-1 lift.
    pub r1_lift: f64,
    /// P(≥1 link to topic).
    pub r2_any: f64,
    /// P(≥2 | ≥1) — the paper's "≈45%".
    pub r2_second: f64,
    /// Radius-2 inflation.
    pub r2_inflation: f64,
}

/// Measure both rules for the experiment topics.
pub fn run(scale: Scale) -> Vec<TopicRadius> {
    let graph = WebGraph::generate(match scale {
        Scale::Tiny => WebConfig::tiny(55),
        _ => WebConfig {
            seed: 55,
            ..WebConfig::default()
        },
    });
    let mut out = Vec::new();
    for name in [
        "recreation/cycling",
        "business/investing/mutual-funds",
        "health/hiv",
        "home/gardening",
    ] {
        let Some(topic) = graph.taxonomy().find(name) else {
            continue;
        };
        let r1 = radius1(&graph, topic);
        let r2 = radius2(&graph, topic);
        out.push(TopicRadius {
            topic: name.to_owned(),
            r1_on: r1.p_same_given_relevant,
            r1_off: r1.p_same_given_irrelevant,
            r1_lift: r1.lift(),
            r2_any: r2.p_any,
            r2_second: r2.p_second_given_first,
            r2_inflation: r2.inflation(),
        });
    }
    out
}

/// Print the measurement table.
pub fn print(rows: &[TopicRadius]) {
    println!("--- Radius rules (§2) on the generated web ---");
    println!(
        "{:<34} {:>8} {:>8} {:>7} {:>8} {:>10} {:>10}",
        "topic", "r1 on", "r1 off", "lift", "P(any)", "P(2nd|1st)", "inflation"
    );
    for r in rows {
        println!(
            "{:<34} {:>8.3} {:>8.4} {:>7.1} {:>8.3} {:>10.3} {:>10.1}",
            r.topic, r.r1_on, r.r1_off, r.r1_lift, r.r2_any, r.r2_second, r.r2_inflation
        );
    }
    println!("paper: P(2nd|1st) ≈ 0.45 for Yahoo! first-level topics");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_rules_hold_for_all_experiment_topics() {
        let rows = run(Scale::Tiny);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.r1_lift > 5.0, "{}: radius-1 lift {}", r.topic, r.r1_lift);
            assert!(
                r.r2_second > 0.25 && r.r2_second < 0.9,
                "{}: P(2nd|1st) = {}",
                r.topic,
                r.r2_second
            );
            assert!(
                r.r2_inflation > 2.0,
                "{}: inflation {}",
                r.topic,
                r.r2_inflation
            );
        }
    }
}
