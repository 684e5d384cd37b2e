//! # itdb-lrp — generalized databases with linear repeating points
//!
//! The \[KSW90\] substrate of *“On the Representation of Infinite Temporal
//! Data and Queries”* (Baudinet, Niézette & Wolper, PODS 1991): relations
//! whose tuples carry infinite periodic sets of time points (linear
//! repeating points, [`Lrp`]) constrained by difference constraints
//! ([`Constraint`]), together with the closed relational algebra the
//! paper's deductive evaluation is built on.
//!
//! Layering, bottom to top:
//!
//! * [`Lrp`] — canonical periodic sets `{a·n + b | n ∈ ℤ}`;
//! * [`Dbm`] — difference bound matrices over temporal attributes;
//! * [`Zone`] — lrps + DBM with *exact* emptiness, projection and
//!   subsumption (congruence tightening + uniformization);
//! * [`GeneralizedTuple`] — a zone plus uninterpreted data constants;
//! * [`GeneralizedRelation`] — a set of generalized tuples, the paper's
//!   finite representation of an infinite temporal relation;
//! * [`algebra`] — selection, projection, join, union, intersection,
//!   difference, complement, shift;
//! * [`pattern`] — the atom kernel: an atom pattern matched against
//!   generalized tuples, shared by the engine's clause bodies, goal
//!   queries and first-order atoms.

#![warn(missing_docs)]

pub mod algebra;
mod bound;
mod constraint;
mod dbm;
pub mod enumerate;
mod error;
pub mod governor;
mod lrp;
pub mod parser;
pub mod pattern;
mod relation;
pub mod stats;
mod tuple;
mod value;
mod zone;

pub use bound::Bound;
pub use constraint::{Constraint, Var};
pub use dbm::Dbm;
pub use error::{ArityDim, Error, Result};
pub use governor::{
    check_ambient, CancelToken, Governor, GovernorConfig, GovernorScope, GovernorStats, TripReason,
};
pub use lrp::{extended_gcd, gcd, lcm, Lrp, LrpWindowIter};
pub use relation::{GeneralizedRelation, Schema};
pub use tuple::GeneralizedTuple;
pub use value::DataValue;
pub use zone::{Zone, DEFAULT_RESIDUE_BUDGET};
