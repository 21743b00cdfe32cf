//! Administration: the setup phase where the user expresses interest by
//! example (§1.1) — a taxonomy, good-topic marks, and `D(c)` documents.

use crate::system::FocusSystem;
use focus_classifier::train::{train, TrainConfig};
use focus_crawler::session::{CrawlConfig, CrawlSession};
use focus_types::{ClassId, Document, FocusError, Taxonomy};
use focus_webgraph::Fetcher;
use std::sync::Arc;

/// Builder for a configured [`FocusSystem`].
pub struct FocusBuilder {
    taxonomy: Taxonomy,
    examples: Vec<(ClassId, Document)>,
    train_cfg: TrainConfig,
    crawl_cfg: CrawlConfig,
}

impl FocusBuilder {
    /// Start from a topic taxonomy.
    pub fn new(taxonomy: Taxonomy) -> FocusBuilder {
        FocusBuilder {
            taxonomy,
            examples: Vec::new(),
            train_cfg: TrainConfig::default(),
            crawl_cfg: CrawlConfig::default(),
        }
    }

    /// The taxonomy under administration.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Mark a topic good (enforces the §1.1 nesting constraint).
    pub fn mark_good(&mut self, c: ClassId) -> Result<(), FocusError> {
        self.taxonomy.mark_good(c)
    }

    /// Mark a topic good by its name; returns its id.
    pub fn mark_good_by_name(&mut self, name: &str) -> Result<ClassId, FocusError> {
        let c = self
            .taxonomy
            .find(name)
            .ok_or_else(|| FocusError::InvalidTaxonomy(format!("no topic named {name}")))?;
        self.taxonomy.mark_good(c)?;
        Ok(c)
    }

    /// Attach example documents `D(c)` to a topic.
    pub fn add_examples(&mut self, c: ClassId, docs: impl IntoIterator<Item = Document>) {
        self.examples.extend(docs.into_iter().map(|d| (c, d)));
    }

    /// Override crawl parameters.
    pub fn crawl_config(mut self, cfg: CrawlConfig) -> Self {
        self.crawl_cfg = cfg;
        self
    }

    /// Train the classifier and assemble the system.
    pub fn build(self, fetcher: Arc<dyn Fetcher>) -> Result<FocusSystem, FocusError> {
        if self.taxonomy.good_set().is_empty() {
            return Err(FocusError::Config(
                "mark at least one good topic before building".into(),
            ));
        }
        if self.examples.is_empty() {
            return Err(FocusError::Config("no example documents supplied".into()));
        }
        let model = train(&self.taxonomy, &self.examples, &self.train_cfg);
        let session = Arc::new(CrawlSession::new(
            Arc::clone(&fetcher),
            model.clone(),
            self.crawl_cfg.clone(),
        )?);
        Ok(FocusSystem::new(model, session, self.crawl_cfg, fetcher))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_types::{DocId, TermId, TermVec};
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};

    fn doc(i: u64, t: u32) -> Document {
        Document::new(DocId(i), TermVec::from_counts([(TermId(t), 3)]))
    }

    #[test]
    fn rejects_empty_goods_and_examples() {
        let g = WebGraph::generate(WebConfig::tiny(1));
        let fetcher: Arc<dyn Fetcher> = Arc::new(SimFetcher::new(Arc::new(g), None));
        let mut t = Taxonomy::new("root");
        let a = t.add_child(ClassId::ROOT, "a").unwrap();

        let b1 = FocusBuilder::new(t.clone());
        assert!(matches!(
            b1.build(Arc::clone(&fetcher)),
            Err(FocusError::Config(_))
        ));

        let mut b2 = FocusBuilder::new(t.clone());
        b2.mark_good(a).unwrap();
        assert!(matches!(b2.build(fetcher), Err(FocusError::Config(_))));
    }

    #[test]
    fn builds_with_goods_and_examples() {
        let g = WebGraph::generate(WebConfig::tiny(2));
        let fetcher: Arc<dyn Fetcher> = Arc::new(SimFetcher::new(Arc::new(g), None));
        let mut t = Taxonomy::new("root");
        let a = t.add_child(ClassId::ROOT, "a").unwrap();
        let b = t.add_child(ClassId::ROOT, "b").unwrap();
        let mut builder = FocusBuilder::new(t);
        builder.mark_good(a).unwrap();
        builder.add_examples(a, (0..4).map(|i| doc(i, 10)));
        builder.add_examples(b, (4..8).map(|i| doc(i, 20)));
        let system = builder.build(fetcher).unwrap();
        assert!(system.model().num_nodes() > 0);
    }

    #[test]
    fn mark_good_by_name_errors_on_unknown() {
        let mut b = FocusBuilder::new(Taxonomy::new("root"));
        assert!(b.mark_good_by_name("nope").is_err());
    }
}
