//! Positive DNF Boolean functions — the representation of query lineage.
//!
//! The lineage of a select-project-join-union query over a database is a
//! *positive* Boolean function in disjunctive normal form whose variables are
//! the endogenous facts of the database (Sec. 2 of the paper). This crate
//! provides that representation together with the operations every algorithm
//! in the workspace relies on:
//!
//! * [`Dnf`] — a positive DNF with an explicit variable *universe* (the
//!   function may be defined over more variables than it mentions, which
//!   matters for model counting, cf. Example 13 of the paper), stored flat:
//!   one variable buffer with clause end offsets, read through the borrowed
//!   [`Clauses`] and [`Clause`] views;
//! * conditioning `φ[x := b]`, evaluation, and structural queries;
//! * the iDNF lower/upper bound constructions `L(φ)` and `U(φ)` of
//!   Sec. 3.2.1 with their linear-time model counting;
//! * [`WeightedDnf`] — the weighted lineage of an aggregate answer, and
//!   [`Lineage`], the one borrowed view over both kinds that every
//!   attribution entry point takes;
//! * brute-force model counting and Banzhaf evaluation used as a test oracle.
//!
//! # Example
//!
//! ```
//! use banzhaf_boolean::{Dnf, Var};
//!
//! // φ = (x ∧ y) ∨ (x ∧ z)   (Example 9 of the paper)
//! let x = Var(0); let y = Var(1); let z = Var(2);
//! let phi = Dnf::from_clauses(vec![vec![x, y], vec![x, z]]);
//! assert_eq!(phi.num_vars(), 3);
//! assert_eq!(phi.brute_force_model_count().to_u64(), Some(3));
//! assert_eq!(phi.brute_force_banzhaf(x).to_i128(), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod brute;
mod clause;
mod dnf;
mod idnf;
mod lineage;
mod var;
mod weighted;

pub use assignment::Assignment;
pub use clause::{canonicalize_tail, Clause, ClauseIter, Clauses};
pub use dnf::Dnf;
pub use idnf::{lower_bound_fn, upper_bound_fn, IdnfCounts};
pub use lineage::{AsLineage, Lineage};
pub use var::{Var, VarSet};
pub use weighted::{AggregateKind, AggregateValue, WeightedDnf};
