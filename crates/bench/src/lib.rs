//! # itdb-bench — workloads and experiments
//!
//! The paper is a theory paper with no measured tables, so the
//! reproduction's "evaluation" consists of (a) the paper's worked examples
//! reproduced exactly and (b) its complexity/termination claims measured as
//! sweeps. This crate holds the workload generators and the experiment
//! implementations shared by the Criterion benches (`benches/`) and the
//! `experiments` binary that prints every table recorded in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod experiments;
pub mod indexing;
pub mod workloads;

pub use experiments::*;
pub use indexing::{run_indexing, IndexingReport};
pub use workloads::*;
