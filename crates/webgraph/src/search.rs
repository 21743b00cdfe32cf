//! Keyword search over the simulated corpus.
//!
//! Stands in for the paper's start-set construction: "representative crawls
//! on bicycling starting from the result of topic distillation with keyword
//! search cycl* bicycl* bike" and the coverage experiment's start sets from
//! "Yahoo!, Infoseek, Excite … Alta Vista". Ranking is keyword-match mass ×
//! log-indegree — crude, like a 1999 engine, which is the point: start sets
//! are relevant but not the best hubs.

use crate::generator::WebGraph;
use focus_types::{ClassId, Oid, TermId};

/// Rank pages by `Σ freq(keyword) × ln(1 + indegree)`; returns the top `k`.
/// A keyword listed twice counts twice.
pub fn keyword_search(graph: &WebGraph, keywords: &[TermId], k: usize) -> Vec<Oid> {
    let mut sorted = keywords.to_vec();
    sorted.sort_unstable();
    let mut scored: Vec<(f64, Oid)> = Vec::new();
    for p in graph.pages() {
        let mass = keyword_mass(p.terms.as_slice(), &sorted);
        if mass > 0 {
            let score = mass as f64 * (1.0 + graph.indegree(p.oid) as f64).ln();
            scored.push((score, p.oid));
        }
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, o)| o).collect()
}

/// `Σ freq(keyword)` over a page's canonical terms in one walk: jump to
/// the smallest keyword, then merge the ascending terms with the ascending
/// `sorted` keywords.
fn keyword_mass(terms: &[(TermId, u32)], sorted: &[TermId]) -> u64 {
    let Some(&first) = sorted.first() else {
        return 0;
    };
    let mut i = terms.partition_point(|&(t, _)| t < first);
    let mut mass = 0;
    for &kw in sorted {
        while i < terms.len() && terms[i].0 < kw {
            i += 1;
        }
        match terms.get(i) {
            Some(&(t, f)) if t == kw => mass += f as u64,
            Some(_) => {}
            None => break,
        }
    }
    mass
}

/// Start set for a topic: keyword-search the topic's name keywords.
pub fn topic_start_set(graph: &WebGraph, topic: ClassId, k: usize) -> Vec<Oid> {
    let kw = graph.lexicon().keyword_terms(topic, 5);
    keyword_search(graph, &kw, k)
}

/// Two *disjoint* start sets for the coverage experiment (§3.5): the
/// reference crawl starts from `S1`, the test crawl from `S2`,
/// `S1 ∩ S2 = ∅`.
pub fn disjoint_start_sets(graph: &WebGraph, topic: ClassId, k: usize) -> (Vec<Oid>, Vec<Oid>) {
    let pool = topic_start_set(graph, topic, k * 2);
    let s1: Vec<Oid> = pool.iter().step_by(2).copied().take(k).collect();
    let s2: Vec<Oid> = pool.iter().skip(1).step_by(2).copied().take(k).collect();
    (s1, s2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WebConfig, WebGraph};

    fn graph() -> WebGraph {
        WebGraph::generate(WebConfig::tiny(5))
    }

    #[test]
    fn search_finds_topical_pages() {
        let g = graph();
        let cycling = g.taxonomy().find("recreation/cycling").unwrap();
        let hits = topic_start_set(&g, cycling, 20);
        assert!(!hits.is_empty());
        let on_topic = hits
            .iter()
            .filter(|&&o| {
                let t = g.topic_of(o).unwrap();
                t == cycling || g.taxonomy().is_ancestor(t, cycling)
            })
            .count();
        assert!(
            on_topic * 2 > hits.len(),
            "only {on_topic}/{} start pages on topic",
            hits.len()
        );
    }

    #[test]
    fn disjoint_sets_are_disjoint_and_nonempty() {
        let g = graph();
        let cycling = g.taxonomy().find("recreation/cycling").unwrap();
        let (s1, s2) = disjoint_start_sets(&g, cycling, 10);
        assert!(!s1.is_empty() && !s2.is_empty());
        for o in &s1 {
            assert!(!s2.contains(o), "start sets overlap");
        }
    }

    #[test]
    fn empty_keywords_give_empty_results() {
        let g = graph();
        assert!(keyword_search(&g, &[], 10).is_empty());
    }

    #[test]
    fn merged_mass_equals_the_sum_of_lookups() {
        let g = graph();
        let cycling = g.taxonomy().find("recreation/cycling").unwrap();
        let kw = g.lexicon().keyword_terms(cycling, 5);
        let absent = TermId(u32::MAX);
        let cases: Vec<Vec<TermId>> = vec![
            vec![],
            kw.clone(),
            kw.iter().rev().copied().collect(),
            vec![kw[1], kw[0], kw[1], kw[1]],
            vec![absent],
            vec![absent, kw[2], TermId(0), kw[2]],
            vec![TermId(0), TermId(1), TermId(0)],
        ];
        for keywords in &cases {
            let mut sorted = keywords.clone();
            sorted.sort_unstable();
            for p in g.pages() {
                let brute: u64 = keywords.iter().map(|&t| p.terms.freq(t) as u64).sum();
                assert_eq!(
                    keyword_mass(p.terms.as_slice(), &sorted),
                    brute,
                    "{keywords:?} on {}",
                    p.url
                );
            }
        }
    }

    #[test]
    fn ranking_is_deterministic() {
        let g = graph();
        let cycling = g.taxonomy().find("recreation/cycling").unwrap();
        let a = topic_start_set(&g, cycling, 15);
        let b = topic_start_set(&g, cycling, 15);
        assert_eq!(a, b);
    }
}
