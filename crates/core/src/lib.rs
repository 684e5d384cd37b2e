//! # itdb-core — the temporal deductive language of the paper (§4)
//!
//! Datalog over the integers with successor/predecessor, an arbitrary
//! number of temporal arguments per predicate, and interpreted `<` / `=`
//! constraints, evaluated **bottom-up in closed form** on the generalized
//! databases of `itdb-lrp`:
//!
//! ```
//! use itdb_core::{evaluate, parse_program, Database};
//!
//! let program = parse_program(
//!     "problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
//!      problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).",
//! ).unwrap();
//! let mut db = Database::new();
//! db.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2").unwrap();
//!
//! let eval = evaluate(&program, &db).unwrap();
//! assert!(eval.outcome.converged());
//! let problems = eval.relation("problems").unwrap();
//! assert!(problems.contains(&[10, 12], &[itdb_lrp::DataValue::sym("database")]));
//! ```
//!
//! The crate implements the full §4 pipeline: AST and parser ([`ast`],
//! [`parser`]), static analysis ([`mod@analyze`]), the generalized-program
//! normalization of §4.3 ([`normalize`]), the `T_GP` fixpoint engine with
//! free-extension and constraint safety ([`engine`]), a window-bounded
//! ground evaluator used as the tuple-at-a-time baseline ([`ground`]), and
//! goal-style querying of computed models ([`mod@query`]).
//!
//! Observability rides on `itdb-trace`: the engine opens structured spans
//! (`evaluate` → `stratum` → `iteration` → `rule`) and emits typed events
//! for every derived/inserted/subsumed tuple; [`provenance`] rebuilds
//! derivation trees from recorded provenance, and [`metrics`] renders
//! evaluation statistics as Prometheus text.

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod checkpoint;
pub mod db;
pub mod engine;
pub mod ground;
pub mod metrics;
pub mod normalize;
pub mod parser;
pub mod provenance;
pub mod query;
pub mod resident;
pub mod service;

pub use analyze::{analyze, ProgramInfo};
pub use ast::{Atom, BodyAtom, Clause, CmpOp, ConstraintAtom, DataTerm, Program, TemporalTerm};
pub use checkpoint::{
    hash_database, hash_program, load_latest, load_latest_with, Checkpoint, CheckpointError,
    CheckpointPolicy, CheckpointReport, Recovered, ResidentImage,
};
pub use db::Database;
pub use engine::{
    evaluate, evaluate_governed, evaluate_with, resume_governed, resume_with, Completeness,
    Derivation, EvalOptions, EvalOutcome, EvalStats, Evaluation, Interruption, IterationTrace,
    StratumStats,
};
pub use itdb_lrp::{CancelToken, Governor, GovernorConfig, GovernorStats, TripReason};
pub use itdb_store::SnapshotStore;
pub use metrics::{render_metrics, render_metrics_full, write_metrics_into};
pub use parser::{parse_atom, parse_clause, parse_program};
pub use provenance::{explain, DerivationNode};
pub use query::{ask, query};
pub use resident::{ApplyError, ApplyOutcome, Fact, Op, ResidentModel, ResidentStats};
pub use service::{
    parse_workload, parse_workload_typed, QueryRequest, QueryResponse, QueryStatus, Service,
    ServiceDefaults, ServiceTotals, Workload, WorkloadError, WorkloadErrorKind,
};
