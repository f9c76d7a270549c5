//! Competitor algorithms from prior work, adapted to Banzhaf values.
//!
//! The experimental evaluation of the paper (Sec. 5.1) compares ExaBan /
//! AdaBan / IchiBan against three baselines, which this crate re-implements
//! from scratch:
//!
//! * [`sig22_exact`] — the exact-computation pipeline of Deutch et al.
//!   (SIGMOD 2022), adapted from Shapley to Banzhaf values: encode the lineage
//!   into CNF (Tseitin-style, one auxiliary variable per clause), compile the
//!   CNF with a DPLL-style knowledge compiler (branching + connected-component
//!   decomposition), and read off `#φ[x:=1]` / `#φ[x:=0]` for every fact.
//!   The paper used an off-the-shelf compiler (c2d/dsharp); our from-scratch
//!   compiler follows the same architecture (see DESIGN.md for the
//!   substitution rationale) and in particular shares its key weakness: the
//!   detour through CNF.
//! * [`mc_banzhaf`] — the Monte Carlo randomized approximation of Livshits et
//!   al., sampling random fact subsets and averaging the marginal
//!   contribution.
//! * [`cnf_proxy`] — the CNF Proxy ranking heuristic: a cheap occurrence-based
//!   score with no guarantees, used only for ranking/top-k comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod mc;
mod proxy;
mod sig22;

pub use cnf::CnfFormula;
pub use mc::{mc_banzhaf, mc_banzhaf_par, rank_estimates, McOptions};
pub use proxy::{cnf_proxy, rank_proxy};
pub use sig22::{sig22_exact, Sig22Result};
