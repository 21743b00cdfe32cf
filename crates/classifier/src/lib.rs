//! # focus-classifier
//!
//! The hierarchical Bayesian (multinomial naive-Bayes) hypertext classifier
//! of §2.1: what a crawl executes, plus one reference evaluator.
//!
//! [`compiled`] is what the crawl hot path runs:
//! [`compiled::CompiledModel`] lowers a trained model into dense interned
//! classes, CSR feature postings with `logtheta + logdenom` pre-combined,
//! and a merge-join evaluator over a caller-provided
//! [`compiled::Scratch`] — zero allocations and zero hash probes per
//! document.
//!
//! [`model`] holds the trained parameters and a pure in-memory *reference*
//! inference path; equivalence proptests pin the compiled evaluator to
//! it.
//!
//! Training (Eq. 1) and feature selection live in [`mod@train`].
//!
//! The classifier *inside the database* — Figure 1's `TAXONOMY`,
//! `STAT_c0`, `BLOB` and `DOCUMENT` tables and the SQL / BLOB / bulk
//! probe paths Figure 8(a) compares — is a paper exhibit, not something
//! a crawl runs; it lives with the figure, in
//! `focus_eval::{tables, single_probe, bulk_probe}`.

pub mod compiled;
pub mod model;
pub mod train;

pub use compiled::{CompiledModel, EvalSummary, Scratch};
pub use model::{NodeModel, Posterior, TrainedModel};
pub use train::{train, TrainConfig};
