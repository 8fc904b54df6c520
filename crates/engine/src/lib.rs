//! # dtc-engine — declarative scenarios, evaluation cache, and the `dtc` CLI
//!
//! The scenario engine turns the DSN'13 reproduction into a general
//! evaluation tool. Three pieces:
//!
//! * **Declarative catalogs** ([`catalog`]): a TOML/JSON schema for
//!   describing cloud systems — built-in cities or raw lat/lon sites,
//!   hot/warm PM pools, disaster/backup/WAN parameters — with parameter
//!   grids (`alpha = [0.35, 0.40, 0.45]`) that expand into scenario
//!   batches. The paper's Table VII and Figure 7 ship as bundled catalogs
//!   ([`catalogs`]).
//! * **A content-addressed evaluation cache** ([`hash`], [`cache`]):
//!   stable structural hashes of compiled specs key memoized
//!   availability reports, in memory and optionally on disk, so repeated
//!   sweep points and re-runs skip the ~10⁵-state CTMC solve entirely.
//! * **The `dtc` CLI** ([`cli`]): `dtc run catalog.toml --format csv`,
//!   `dtc table7`, `dtc fig7`, `dtc validate`.
//!
//! The executor ([`executor`]) combines the pieces: it dedups identical
//! specs before fanning out over the parallel sweep harness and reports
//! cache hit/miss counts.
//!
//! ```no_run
//! use dtc_engine::prelude::*;
//!
//! let catalog = Catalog::from_toml_str(r#"
//!     [catalog]
//!     name = "demo"
//!
//!     [[scenario]]
//!     name = "pair"
//!     kind = "two_dc"
//!     secondary = ["Brasilia", "Tokio"]
//!     alpha = [0.35, 0.45]
//! "#)?;
//! let scenarios = catalog.expand()?;
//! let cache = std::sync::Arc::new(EvalCache::in_memory());
//! let result = run_batch(&scenarios, &cache, &RunOptions::default());
//! println!("{}", render(&scenarios, &result, Format::Table));
//! # Ok::<(), dtc_engine::EngineError>(())
//! ```
//!
//! The offline workspace cannot depend on `serde`/`toml`/`serde_json`;
//! [`value`] and [`toml`] provide the self-contained parsing and
//! serialization layer instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod cli;
pub mod error;
pub mod executor;
pub mod hash;
pub mod output;
pub mod toml;
pub mod value;

pub use cache::{
    analysis_report_from_value, analysis_report_to_value, CacheStats, EvalCache, EvalResult,
    Fetch,
};
pub use catalog::{
    analyses_to_value, parse_analyses, parse_search_section, search_to_value, Catalog,
    Scenario, ScenarioTemplate, SearchConfig,
};
/// The one thread-count rule (`0` = one per available core), re-exported
/// for the crates above the engine (`dtc-search`, `dtc-serve`).
pub use dtc_markov::par::resolve_threads;
pub use error::{EngineError, Result};
pub use executor::{run_batch, run_batch_shared, BatchResult, Outcome, Provenance, RunOptions};
pub use hash::{canonical_encoding, canonical_encoding_with, spec_key, SpecKey};
pub use output::{render, render_summary, results_to_value, Format};

/// The paper's catalogs, bundled into the binary.
pub mod catalogs {
    use crate::catalog::Catalog;

    /// TOML source of the Table VII catalog.
    pub const TABLE7_TOML: &str = include_str!("../catalogs/table7.toml");
    /// TOML source of the Figure 7 catalog.
    pub const FIG7_TOML: &str = include_str!("../catalogs/fig7.toml");

    /// The paper's Table VII (eight baseline architectures).
    pub fn table7() -> Catalog {
        Catalog::from_toml_str(TABLE7_TOML).expect("bundled table7 catalog parses")
    }

    /// The paper's Figure 7 sweep (45 configurations).
    pub fn fig7() -> Catalog {
        Catalog::from_toml_str(FIG7_TOML).expect("bundled fig7 catalog parses")
    }
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cache::{CacheStats, EvalCache, EvalResult, Fetch};
    pub use crate::catalog::{parse_analyses, Catalog, Scenario, SearchConfig};
    pub use crate::executor::{run_batch, BatchResult, Provenance, RunOptions};
    pub use crate::hash::{canonical_encoding, canonical_encoding_with, spec_key, SpecKey};
    pub use crate::output::{render, render_summary, results_to_value, Format};
    pub use crate::{EngineError, Result};
    pub use dtc_core::analysis::{AnalysisReport, AnalysisRequest};
}

#[cfg(test)]
mod tests {
    #[test]
    fn bundled_catalogs_parse() {
        assert_eq!(super::catalogs::table7().templates.len(), 8);
        assert_eq!(super::catalogs::fig7().templates.len(), 1);
    }
}
