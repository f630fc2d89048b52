//! # ddnn-bench
//!
//! Experiment harness for DDNN-RS: one binary per table/figure of the
//! paper's evaluation (see `DESIGN.md` §4 for the experiment index), plus
//! shared helpers for training/evaluating paper-shaped models.

#![warn(missing_docs)]

pub mod harness;
pub mod util;

pub use harness::{ExperimentContext, TrainedDdnn};
