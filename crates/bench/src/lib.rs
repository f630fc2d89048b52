//! # ddnn-bench
//!
//! Experiment harness for DDNN-RS: the paper's evaluation as one table of
//! experiments run by the `paper` binary (see `DESIGN.md` §4 for the
//! experiment index), and shared helpers for training/evaluating
//! paper-shaped models. The `transport` binary streams one workload
//! open-loop over the channel, TCP and UDP (`util` is its helpers).

#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod util;

pub use harness::{ExperimentContext, TrainedDdnn};
