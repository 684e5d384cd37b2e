//! # itdb-datalog1s — the Chomicki–Imieliński temporal language (§2.2)
//!
//! Datalog with one temporal argument per predicate over ℕ and the
//! successor function \[CI88\], in the TL1 fragment the paper identifies with
//! Templog. The evaluator runs bottom-up time step by time step and
//! *detects the eventual periodicity* of the minimal model (the explicit
//! representation of \[CI89/CI90\]), returning one [`EpSet`] — finite
//! exceptional part + (offset, period, residues) — per `(predicate, data)`
//! pair:
//!
//! ```
//! use itdb_datalog1s::{evaluate, parse_program, DetectOptions, ExternalEdb};
//!
//! // The paper's Example 2.2: a train leaves at 5 and every 40 minutes.
//! let p = parse_program(
//!     "train_leaves[5](liege, brussels).
//!      train_leaves[t + 40](liege, brussels) <- train_leaves[t](liege, brussels).
//!      train_arrives[t + 60](F, T) <- train_leaves[t](F, T).",
//! ).unwrap();
//! let model = evaluate(&p, &ExternalEdb::new(), &DetectOptions::default()).unwrap();
//! let d = [itdb_lrp::DataValue::sym("liege"), itdb_lrp::DataValue::sym("brussels")];
//! let arrives = model.times("train_arrives", &d);
//! assert_eq!(arrives.period(), 40);
//! assert!(arrives.contains(65) && arrives.contains(105));
//! ```
//!
//! The [`bridge`] module makes the paper's data-expressiveness equality
//! executable: eventually periodic sets convert losslessly between this
//! crate's explicit form, Datalog1S programs, and the generalized relations
//! of `itdb-lrp`.

#![warn(missing_docs)]

pub mod ast;
pub mod bridge;
pub mod epset;
pub mod ground;
pub mod parser;

pub use ast::{validate, Atom, Clause, DataTerm, Program, Time, Validated};
pub use epset::EpSet;
pub use ground::{
    evaluate, evaluate_governed, DetectOptions, DlEvaluation, DlOutcome, ExternalEdb, FactKey,
    PeriodicModel,
};
pub use parser::{parse_atom, parse_program};
