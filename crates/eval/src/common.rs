//! Shared experiment setup: generate a web, mark a good topic, train the
//! classifier — the "administration" every figure starts from.

use focus_classifier::compiled::CompiledModel;
use focus_classifier::model::TrainedModel;
use focus_classifier::train::{train, TrainConfig};
use focus_types::{ClassId, Document, Taxonomy};
use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
use std::sync::Arc;

/// Experiment scale. Tiny keeps CI fast; Full is what EXPERIMENTS.md
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale (seconds).
    Tiny,
    /// Example scale (tens of seconds).
    Small,
    /// Paper-comparable scale (minutes).
    Full,
}

impl Scale {
    /// A scale by name (any case); `None` for any other word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The optional `[tiny|small|full]` argument of the `focus-eval`
    /// binary and the examples: absent means `Small`; a word that is
    /// not a scale is an error, never a silent `Small`.
    pub fn from_arg(arg: Option<&str>) -> Result<Scale, String> {
        match arg {
            None => Ok(Scale::Small),
            Some(s) => Scale::parse(s)
                .ok_or_else(|| format!("unknown scale {s:?}: expected tiny, small or full")),
        }
    }

    /// Web-generator config for this scale. The fetch budget (below) is
    /// kept well under the good-topic population — the paper's Web had
    /// far more cycling pages than its 6000-fetch crawls could exhaust,
    /// and sustained harvest is only meaningful under that condition.
    pub fn web_config(self, seed: u64) -> WebConfig {
        match self {
            Scale::Tiny => WebConfig {
                seed,
                pages_per_topic: 120,
                hubs_per_topic: 4,
                servers_per_topic: 6,
                universal_sites: 8,
                doc_len: 120,
                ..WebConfig::default()
            },
            Scale::Small => WebConfig {
                seed,
                pages_per_topic: 250,
                hubs_per_topic: 6,
                servers_per_topic: 8,
                universal_sites: 12,
                doc_len: 160,
                ..WebConfig::default()
            },
            Scale::Full => WebConfig {
                seed,
                pages_per_topic: 1200,
                hubs_per_topic: 12,
                servers_per_topic: 12,
                doc_len: 200,
                ..WebConfig::default()
            },
        }
    }

    /// Crawl fetch budget (≈ half the good-topic cluster size).
    pub fn fetch_budget(self) -> u64 {
        match self {
            Scale::Tiny => 250,
            Scale::Small => 600,
            Scale::Full => 3000,
        }
    }

    /// Example documents per topic for training.
    pub fn examples_per_topic(self) -> usize {
        match self {
            Scale::Tiny => 6,
            Scale::Small => 12,
            Scale::Full => 20,
        }
    }
}

/// A generated world plus a trained classifier for one good topic.
pub struct World {
    /// The synthetic web.
    pub graph: Arc<WebGraph>,
    /// Taxonomy with the good topic marked.
    pub taxonomy: Taxonomy,
    /// The good topic.
    pub topic: ClassId,
    /// Trained hierarchical classifier (reference path).
    pub model: TrainedModel,
    /// The same classifier compiled for the zero-alloc hot path; what
    /// the crawl and throughput-sensitive experiments evaluate with.
    pub compiled: CompiledModel,
    /// Scale used.
    pub scale: Scale,
}

impl World {
    /// Build the standard cycling world (the paper's running example).
    pub fn cycling(scale: Scale, seed: u64) -> World {
        World::for_topic("recreation/cycling", scale, seed)
    }

    /// Build a world with `topic_name` marked good.
    pub fn for_topic(topic_name: &str, scale: Scale, seed: u64) -> World {
        let graph = Arc::new(WebGraph::generate(scale.web_config(seed)));
        let mut taxonomy = graph.taxonomy().clone();
        let topic = taxonomy
            .find(topic_name)
            .unwrap_or_else(|| panic!("no topic {topic_name}"));
        taxonomy.mark_good(topic).expect("markable");
        let model = train_model(&graph, &taxonomy, scale, seed);
        let compiled = CompiledModel::compile(&model);
        World {
            graph,
            taxonomy,
            topic,
            model,
            compiled,
            scale,
        }
    }

    /// A fetcher over this world.
    pub fn fetcher(&self) -> Arc<SimFetcher> {
        Arc::new(SimFetcher::new(Arc::clone(&self.graph), None))
    }

    /// Keyword-search start set for the good topic.
    pub fn start_set(&self, k: usize) -> Vec<focus_types::Oid> {
        focus_webgraph::search::topic_start_set(&self.graph, self.topic, k)
    }
}

/// Train a model from generated example documents for every topic.
pub fn train_model(graph: &WebGraph, taxonomy: &Taxonomy, scale: Scale, seed: u64) -> TrainedModel {
    let mut examples: Vec<(ClassId, Document)> = Vec::new();
    for c in taxonomy.all() {
        if c == ClassId::ROOT {
            continue;
        }
        for d in graph.example_docs(c, scale.examples_per_topic(), seed ^ 0x5eed) {
            examples.push((c, d));
        }
    }
    train(taxonomy, &examples, &TrainConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_classifies() {
        let w = World::cycling(Scale::Tiny, 5);
        assert!(w.model.num_nodes() > 0);
        assert!(!w.start_set(10).is_empty());
        // A cycling page from the web classifies as relevant.
        let page = w
            .graph
            .pages_of_topic(w.topic)
            .iter()
            .find_map(|&o| w.graph.page(o))
            .expect("cycling pages exist");
        let r = w.model.evaluate(&page.terms).relevance;
        assert!(r > 0.3, "cycling page scored only {r}");
        // The compiled engine agrees with the reference path.
        let mut scratch = w.compiled.scratch();
        let rc = w
            .compiled
            .evaluate_into(&page.terms, &mut scratch)
            .relevance;
        assert!((r - rc).abs() < 1e-9, "compiled {rc} vs reference {r}");
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("x"), None);
        assert_eq!(Scale::from_arg(None), Ok(Scale::Small));
        assert_eq!(Scale::from_arg(Some("full")), Ok(Scale::Full));
        let err = Scale::from_arg(Some("ful")).unwrap_err();
        assert!(err.contains("tiny, small or full"), "{err}");
    }
}
