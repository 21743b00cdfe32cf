//! # focus-eval
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation section (§3), each exposing a `run(scale)` function that
//! returns structured results and can print them in the paper's format.
//! The package's one binary (`cargo run --release -p focus-eval --
//! <experiment|all> [tiny|small|full]`, `main.rs`) is the front door to
//! all of them; the same functions back the repository examples and
//! each module's own unit test — tiny scales for CI, full scales for
//! paper-comparable numbers. The printed tables, ASCII charts and the
//! paper-vs-measured comparison table are the output: nothing is
//! written to disk.
//!
//! Two exhibits live here rather than in the crates a crawl executes.
//! The **classifier inside the database** — Figure 1's tables
//! ([`tables`]) and the three evaluation paths Figure 8(a) compares:
//! [`single_probe::SingleProbeSql`] (one B+tree probe per term × child,
//! the "SQL" bar), [`single_probe::SingleProbeBlob`] (one probe per term
//! against packed `BLOB` records) and [`bulk_probe`] (Figure 3's inner +
//! left outer sort-merge join, the "CLI" bar) — whose unit tests pin
//! them to `focus_classifier`'s reference evaluator; and the
//! **distiller inside the database** ([`distiller_db`], Figure 8(d)).

#![forbid(unsafe_code)]

pub mod bulk_probe;
pub mod chaos;
pub mod citation_sociology;
pub mod common;
pub mod distiller_db;
pub mod fig5_harvest;
pub mod fig6_coverage;
pub mod fig7_distance;
pub mod fig8a_classifier;
pub mod fig8b_memory;
pub mod fig8c_output;
pub mod fig8d_distiller;
pub mod radius_rules;
pub mod report;
pub mod scaling;
pub mod single_probe;
pub mod tables;

pub use common::{Scale, World};
pub use report::Series;
