//! The backend registry: one declarative descriptor per algorithm.
//!
//! Every attribution backend the engine can dispatch to is described by one
//! [`Backend`] entry in [`REGISTRY`] — its display name, the precision class
//! of its results, whether it accepts aggregate lineages (every backend
//! accepts Boolean ones), whether its results are cacheable, and how to
//! build its [`Attributor`] from an [`EngineConfig`]. Everything that used to `match` on
//! [`Algorithm`] — attributor construction, display names, cache
//! admissibility, the fallback ladder's rung selection — now reads the
//! registry instead, so **adding a backend is one descriptor plus its
//! [`Attributor`] implementation**: sessions, the degradation ladder, the
//! serving layer and the bench harness all pick it up by capability, with no
//! scattered dispatch sites to update.

use crate::attributor::{
    AdaBanAttributor, Attributor, CnfProxyAttributor, ExaBanAttributor, IchiBanAttributor,
    MonteCarloAttributor, Sig22Attributor,
};
use crate::config::{Algorithm, EngineConfig};
use banzhaf::{AdaBanOptions, IchiBanOptions};
use banzhaf_baselines::McOptions;

/// The precision class of a backend's scores — what kind of guarantee a
/// [`crate::Score`] from it carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Precision {
    /// Exact values (`Score::Exact` / `Score::Rational`).
    Exact,
    /// Certified intervals containing the exact value.
    Interval,
    /// Point estimates with no deterministic guarantee.
    Estimate,
}

impl Precision {
    /// The display label used in reports and the README's backend table.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::Interval => "interval",
            Precision::Estimate => "estimate",
        }
    }
}

/// One attribution backend, declaratively: identity, capabilities, and the
/// constructor mapping an [`EngineConfig`] to a ready-to-run [`Attributor`].
pub struct Backend {
    /// The [`Algorithm`] this descriptor implements.
    pub algorithm: Algorithm,
    /// The short display name (what `Algorithm`'s `Display` prints).
    pub name: &'static str,
    /// The precision class of the backend's scores.
    pub precision: Precision,
    /// `true` iff the backend attributes weighted aggregate lineages
    /// (COUNT/SUM/MIN/MAX): [`Attributor::attribute_indexed`] on a
    /// [`banzhaf_boolean::Lineage::Aggregate`].
    pub aggregates: bool,
    /// `true` iff the backend is a deterministic function of the lineage, so
    /// its results may be transferred between isomorphic lineages by the
    /// shared cache. Monte Carlo is excluded: its RNG advances across calls,
    /// so serving one lineage's samples for another would silently correlate
    /// estimates that are supposed to be independent.
    pub cacheable: bool,
    /// Builds the backend's [`Attributor`] from an engine configuration.
    pub build: fn(&EngineConfig) -> Box<dyn Attributor>,
}

/// Every backend the engine knows, in [`Algorithm::ALL`] order. The sole
/// source of truth for dispatch: no `match` on [`Algorithm`] exists outside
/// this module.
pub static REGISTRY: &[Backend] = &[
    Backend {
        algorithm: Algorithm::ExaBan,
        name: "ExaBan",
        precision: Precision::Exact,
        aggregates: true,
        cacheable: true,
        build: |config| {
            Box::new(ExaBanAttributor {
                heuristic: config.heuristic,
                include_shapley: config.include_shapley,
            })
        },
    },
    Backend {
        algorithm: Algorithm::AdaBan,
        name: "AdaBan",
        precision: Precision::Interval,
        aggregates: false,
        cacheable: true,
        build: |config| {
            let mut options = AdaBanOptions::with_epsilon(config.epsilon_or_exact());
            options.heuristic = config.heuristic;
            options.lazy = config.lazy_bounds;
            options.use_opt4 = config.opt4;
            Box::new(AdaBanAttributor { options })
        },
    },
    Backend {
        algorithm: Algorithm::IchiBan,
        name: "IchiBan",
        precision: Precision::Interval,
        aggregates: false,
        cacheable: true,
        build: |config| {
            let mut options = match &config.epsilon {
                Some(eps) => IchiBanOptions::with_epsilon(eps.clone()),
                None => IchiBanOptions::certain(),
            };
            options.heuristic = config.heuristic;
            options.use_opt4 = config.opt4;
            Box::new(IchiBanAttributor { options })
        },
    },
    Backend {
        algorithm: Algorithm::Sig22,
        name: "Sig22",
        precision: Precision::Exact,
        aggregates: false,
        cacheable: true,
        build: |_| Box::new(Sig22Attributor),
    },
    Backend {
        algorithm: Algorithm::MonteCarlo,
        name: "MC",
        precision: Precision::Estimate,
        aggregates: true,
        cacheable: false,
        build: |config| {
            Box::new(
                MonteCarloAttributor::new(
                    McOptions { samples_per_var: config.mc_samples_per_var },
                    config.seed,
                )
                .with_pool(config.pool()),
            )
        },
    },
    Backend {
        algorithm: Algorithm::CnfProxy,
        name: "CNFProxy",
        precision: Precision::Estimate,
        aggregates: false,
        cacheable: false,
        build: |_| Box::new(CnfProxyAttributor),
    },
];

/// The registry descriptor of `algorithm`. Looked up by iteration — the
/// registry is tiny and this keeps the descriptor, not an enum `match`, as
/// the single place capabilities live.
pub fn backend(algorithm: Algorithm) -> &'static Backend {
    REGISTRY
        .iter()
        .find(|b| b.algorithm == algorithm)
        .expect("every Algorithm variant has a registry descriptor")
}

/// The first registry backend of the given precision class that accepts
/// aggregate lineages when `aggregates` is set — how the fallback ladder and
/// the session pick rungs by capability instead of by name.
pub fn first_with(precision: Precision, aggregates: bool) -> Option<&'static Backend> {
    REGISTRY.iter().find(|b| b.precision == precision && (!aggregates || b.aggregates))
}

/// Renders the registry as the GitHub-flavoured markdown table embedded in
/// the README's "Backends" section. A test asserts the README copy matches,
/// so the table can never drift from the descriptors.
pub fn markdown_table() -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "| Backend | Precision | Aggregates | Cacheable |\n\
         |---------|-----------|------------|-----------|\n",
    );
    for b in REGISTRY {
        let tick = |yes: bool| if yes { "yes" } else { "no" };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} |",
            b.name,
            b.precision.label(),
            tick(b.aggregates),
            tick(b.cacheable),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_algorithm_in_order() {
        assert_eq!(REGISTRY.len(), Algorithm::ALL.len());
        for (entry, algorithm) in REGISTRY.iter().zip(Algorithm::ALL) {
            assert_eq!(entry.algorithm, algorithm, "registry order matches Algorithm::ALL");
            assert_eq!(backend(algorithm).name, entry.name);
        }
    }

    #[test]
    fn capability_lookup_finds_ladder_rungs() {
        // The Boolean ladder: certified intervals, then a point estimate.
        assert_eq!(first_with(Precision::Interval, false).unwrap().algorithm, Algorithm::AdaBan);
        assert_eq!(
            first_with(Precision::Estimate, false).unwrap().algorithm,
            Algorithm::MonteCarlo
        );
        // The aggregate ladder skips the Boolean-only interval backends.
        assert!(first_with(Precision::Interval, true).is_none());
        assert_eq!(first_with(Precision::Estimate, true).unwrap().algorithm, Algorithm::MonteCarlo);
        // Exact aggregate attribution exists (ExaBan's threshold/closed-form
        // routes).
        assert_eq!(first_with(Precision::Exact, true).unwrap().algorithm, Algorithm::ExaBan);
    }

    #[test]
    fn every_descriptor_builds_its_attributor() {
        for entry in REGISTRY {
            let config = EngineConfig::new(entry.algorithm);
            let attributor = (entry.build)(&config);
            assert_eq!(attributor.name(), entry.name);
        }
    }

    #[test]
    fn markdown_table_lists_every_backend() {
        let table = markdown_table();
        for entry in REGISTRY {
            assert!(table.contains(entry.name), "{} missing from the table", entry.name);
        }
        assert_eq!(table.lines().count(), REGISTRY.len() + 2);
    }

    #[test]
    fn readme_backends_table_matches_the_registry() {
        // Satellite guarantee: the README's "Backends" table is generated
        // from the registry and must never drift from it.
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md at the repo root");
        let table = markdown_table();
        assert!(
            readme.contains(&table),
            "README.md 'Backends' table is stale; regenerate it with \
             banzhaf_engine::markdown_table():\n{table}"
        );
    }
}
