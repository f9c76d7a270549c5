//! ExaBan, AdaBan and IchiBan — Banzhaf values of facts in query answering.
//!
//! This crate implements the primary contribution of *Banzhaf Values for Facts
//! in Query Answering* (SIGMOD 2024):
//!
//! * [`exaban_all`] / [`exaban_single`] — **ExaBan** (Fig. 1): exact Banzhaf
//!   values and model counts over a complete d-tree; [`exaban_read_once`]
//!   gives the same answer without compiling when the compiler would need
//!   no Shannon step (a read-once lineage).
//! * [`bounds_for_var`] — the `bounds` procedure (Fig. 2): lower/upper bounds
//!   on Banzhaf values and model counts over a *partial* d-tree, using the
//!   iDNF constructions of Sec. 3.2.1 at non-trivial leaves.
//! * [`adaban()`] / [`adaban_all`] — **AdaBan** (Fig. 3): anytime deterministic
//!   approximation with relative error `ε`, intertwining incremental d-tree
//!   compilation with bound refinement.
//! * [`ichiban_rank`] / [`ichiban_topk`] — **IchiBan** (Sec. 4.1): ranking and
//!   top-k of facts by Banzhaf value through interval separation, with both
//!   certain and ε-relaxed modes.
//! * [`shapley_all`] and [`critical_counts_all`] — exact Shapley values and
//!   per-size critical-set counts over the same d-trees (App. D), used to
//!   compare Banzhaf-based and Shapley-based rankings.
//!
//! The typical pipeline is: obtain a lineage [`Dnf`] (from `banzhaf-query` or
//! directly), compile or incrementally expand a [`DTree`], then run one of the
//! algorithms above.
//!
//! ```
//! use banzhaf::{exaban_all, Budget, DTree, PivotHeuristic};
//! use banzhaf_boolean::{Dnf, Var};
//!
//! // Lineage of Example 6/7 of the paper.
//! let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1), Var(3)], vec![Var(0), Var(2), Var(3)]]);
//! let tree = DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
//! let result = exaban_all(&tree);
//! assert_eq!(result.model_count.to_u64(), Some(3));
//! assert_eq!(result.value(Var(1)).unwrap().to_u64(), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaban;
mod aggregate;
mod bounds;
mod exaban;
mod ichiban;
mod shapley;
mod values;

pub use adaban::{adaban, adaban_all, AdaBanOptions, ApproxInterval};
pub use aggregate::{aggregate_banzhaf_all, AggregateBanzhafResult, AggregateCost};
pub use banzhaf_boolean::{AggregateKind, AggregateValue, Dnf, Var, WeightedDnf};
pub use banzhaf_dtree::{Budget, DTree, Interrupted, PivotHeuristic};
pub use bounds::{bounds_for_var, BoundQuad};
pub use exaban::{
    exaban_all, exaban_all_with_counts, exaban_read_once, exaban_single, model_counts,
    BanzhafResult, ModelCounts, ReadOnce,
};
pub use ichiban::{ichiban_rank, ichiban_topk, IchiBanOptions, Ranking, TopK};
pub use shapley::{critical_counts_all, shapley_all, ShapleyValue};
pub use values::{l1_distance_normalized, normalized_index, normalized_power};
