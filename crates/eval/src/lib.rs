//! # focus-eval
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation section (§3), each exposing a `run(scale)` function that
//! returns structured results and can print them in the paper's format.
//! The same functions back the `focus-bench` criterion benches, the
//! repository examples, and the integration tests — tiny scales for CI,
//! full scales for the recorded EXPERIMENTS.md numbers.

#![forbid(unsafe_code)]

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

pub use common::{Scale, World};
pub use report::Series;
