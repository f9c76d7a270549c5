//! In-memory relational database substrate.
//!
//! The paper's setting is a database `D = (Dn, Dx)` partitioned into
//! *endogenous* facts (whose contribution we want to quantify; each is mapped
//! to a propositional provenance variable) and *exogenous* facts (taken for
//! granted; they participate in joins but never appear in lineage).
//!
//! This crate provides exactly that substrate: typed values, relation
//! schemas, fact storage with provenance tags, and stable [`FactId`]s that the
//! query evaluator (`banzhaf-query`) uses as the propositional variables of
//! the lineage it constructs.
//!
//! ```
//! use banzhaf_db::{Database, Value};
//!
//! let mut db = Database::new();
//! db.add_relation("R", 1);
//! db.add_relation("S", 2);
//! let r1 = db.insert_endogenous("R", vec![Value::from(1)]).unwrap();
//! db.insert_exogenous("S", vec![Value::from(1), Value::from(2)]).unwrap();
//! assert_eq!(db.num_endogenous(), 1);
//! assert_eq!(db.fact(r1).unwrap().relation(), "R");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod database;
mod fact;
mod index;
mod update;
mod value;

pub use database::{Database, DbError, Relation};
pub use fact::{Fact, FactId, Provenance};
pub use index::{key_hash, Bucket, TupleIndex};
pub use update::Update;
pub use value::Value;
