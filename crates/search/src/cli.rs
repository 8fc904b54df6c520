//! The `dtc search` command.
//!
//! ```text
//! dtc search <catalog.toml|.json> [options]   search a catalog's grid
//! dtc search search7 [options]                bundled Table VII-derived space
//! dtc search fig7 [options]                   bundled Figure 7 sweep as a space
//! dtc search table7 [options]                 bundled Table VII baselines
//!
//! options:
//!   --slo FLOOR                availability floor, e.g. 0.9999
//!                              (overrides the catalog's [search] section)
//!   --cost-ceiling DOLLARS     annual cost ceiling (overrides [search])
//!   --format table|csv|json    output format (default table)
//!   --threads N                thread budget for the candidate batch and
//!                              each break-even probe batch (default or 0:
//!                              one per available core)
//!   --solver NAME              gauss-seidel (default) or direct
//!   --cache FILE               persistent JSON evaluation cache
//!   --cache-cap N              cap resident cache entries
//!   --no-break-even            skip break-even bisections
//!   --break-even-pairs N       cap bisected frontier pairs (default 4)
//! ```
//!
//! The report goes to stdout; the run summary (cache savings, probe
//! counts, solve time) goes to stderr so `--format json` output stays the
//! canonical document.

use crate::report::{render, render_run_summary};
use crate::{run_search, SearchConfig, SearchOptions};
use dtc_core::SloTarget;
use dtc_engine::{Catalog, EngineError, EvalCache, Format, Result};
use std::path::PathBuf;
use std::sync::Arc;

/// Usage text for `dtc search` (also embedded in the serve binary's help).
pub const SEARCH_USAGE: &str = "\
dtc search — SLO-driven design search over a scenario catalog

usage:
  dtc search <catalog.toml|.json> [options]   search a catalog's scenario grid
  dtc search search7 [options]                bundled Table VII-derived space
  dtc search fig7 [options]                   bundled Figure 7 sweep as a space
  dtc search table7 [options]                 bundled Table VII baselines

options:
  --slo FLOOR                availability floor, e.g. 0.9999
                             (overrides the catalog's [search] section)
  --cost-ceiling DOLLARS     annual cost ceiling (overrides [search])
  --format table|csv|json    output format (default table)
  --threads N                thread budget for the candidate batch and
                             each break-even probe batch (default or 0:
                             one per available core)
  --solver NAME              steady-state solver: gauss-seidel (default;
                             exact GTH elimination on chains of <= 4096
                             states where that is cheaper than sweeping,
                             else sweeps with extrapolation jumps kept only
                             when they lower the true residual) or direct
                             (dense elimination, small chains only)
  --cache FILE               persistent JSON evaluation cache
  --cache-cap N              cap resident cache entries (oldest evicted)
  --no-break-even            skip break-even bisections between frontier pairs
  --break-even-pairs N       cap bisected frontier pairs (default 4)
";

#[derive(Debug)]
struct SearchCliOptions {
    format: Format,
    opts: SearchOptions,
    slo_floor: Option<f64>,
    cost_ceiling: Option<f64>,
    no_break_even: bool,
    break_even_pairs: Option<usize>,
    cache_path: Option<PathBuf>,
    cache_cap: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<(SearchCliOptions, Vec<String>)> {
    let mut opts = SearchCliOptions {
        format: Format::Table,
        opts: SearchOptions::default(),
        slo_floor: None,
        cost_ceiling: None,
        no_break_even: false,
        break_even_pairs: None,
        cache_path: None,
        cache_cap: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String> {
            it.next()
                .cloned()
                .ok_or_else(|| EngineError::Schema(format!("{name} needs a value")))
        };
        let parse_f64 = |name: &str, v: String| -> Result<f64> {
            v.parse()
                .map_err(|_| EngineError::Schema(format!("{name} expects a number, got {v:?}")))
        };
        let parse_usize = |name: &str, v: String| -> Result<usize> {
            v.parse()
                .map_err(|_| EngineError::Schema(format!("{name} expects a number, got {v:?}")))
        };
        match arg.as_str() {
            "--slo" => opts.slo_floor = Some(parse_f64("--slo", take("--slo")?)?),
            "--cost-ceiling" => {
                opts.cost_ceiling = Some(parse_f64("--cost-ceiling", take("--cost-ceiling")?)?)
            }
            "--format" => {
                let v = take("--format")?;
                opts.format = Format::from_name(&v).ok_or_else(|| {
                    EngineError::Schema(format!("unknown format {v:?} (table, csv or json)"))
                })?;
            }
            "--threads" => opts.opts.threads = parse_usize("--threads", take("--threads")?)?,
            "--solver" => {
                opts.opts.eval.method =
                    take("--solver")?.parse().map_err(EngineError::Schema)?
            }
            "--cache" => opts.cache_path = Some(PathBuf::from(take("--cache")?)),
            "--cache-cap" => {
                opts.cache_cap = Some(parse_usize("--cache-cap", take("--cache-cap")?)?)
            }
            "--no-break-even" => opts.no_break_even = true,
            "--break-even-pairs" => {
                opts.break_even_pairs =
                    Some(parse_usize("--break-even-pairs", take("--break-even-pairs")?)?)
            }
            "--help" | "-h" => positional.push("help".into()),
            other if other.starts_with("--") => {
                return Err(EngineError::Schema(format!("unknown option {other}")));
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok((opts, positional))
}

/// Resolves a positional catalog argument: a bundled alias or a file path.
fn load_catalog(arg: &str) -> Result<Catalog> {
    match arg {
        "search7" => Ok(crate::catalogs::search7()),
        "table7" => Ok(dtc_engine::catalogs::table7()),
        "fig7" => Ok(dtc_engine::catalogs::fig7()),
        path => Catalog::from_path(std::path::Path::new(path)),
    }
}

/// Merges the catalog's `[search]` section with CLI overrides. A config
/// must come from somewhere: a catalog without `[search]` needs `--slo`.
fn resolve_config(catalog: &Catalog, cli: &SearchCliOptions) -> Result<SearchConfig> {
    let mut config = match (&catalog.search, cli.slo_floor) {
        (Some(section), _) => section.clone(),
        (None, Some(floor)) => SearchConfig {
            slo: SloTarget::new(floor, cli.cost_ceiling)
                .map_err(|e| EngineError::Schema(format!("--slo: {e}")))?,
            cost: dtc_core::economics::CostModel::default(),
            break_even: true,
            max_break_even_pairs: 4,
        },
        (None, None) => {
            return Err(EngineError::Schema(format!(
                "catalog {:?} has no [search] section; pass --slo FLOOR (and optionally \
                 --cost-ceiling) to define the SLO target",
                catalog.name
            )))
        }
    };
    if let Some(floor) = cli.slo_floor {
        config.slo = SloTarget::new(floor, cli.cost_ceiling.or(config.slo.cost_ceiling))
            .map_err(|e| EngineError::Schema(format!("--slo: {e}")))?;
    } else if let Some(ceiling) = cli.cost_ceiling {
        config.slo = SloTarget::new(config.slo.availability_floor, Some(ceiling))
            .map_err(|e| EngineError::Schema(format!("--cost-ceiling: {e}")))?;
    }
    if let Some(pairs) = cli.break_even_pairs {
        config.max_break_even_pairs = pairs;
        config.break_even = pairs > 0;
    }
    if cli.no_break_even {
        config.break_even = false;
    }
    Ok(config)
}

fn dispatch(args: &[String]) -> Result<()> {
    let (cli, positional) = parse_args(args)?;
    let Some(arg) = positional.first() else {
        println!("{SEARCH_USAGE}");
        return Ok(());
    };
    if arg == "help" {
        println!("{SEARCH_USAGE}");
        return Ok(());
    }
    let catalog = load_catalog(arg)?;
    let config = resolve_config(&catalog, &cli)?;
    let cache = Arc::new(EvalCache::open_lenient(cli.cache_path.clone(), cli.cache_cap));
    eprintln!(
        "searching catalog {:?}: availability floor {}{}…",
        catalog.name,
        config.slo.availability_floor,
        match config.slo.cost_ceiling {
            Some(c) => format!(", cost ceiling ${c:.0}/y"),
            None => String::new(),
        },
    );
    let report = run_search(&catalog, &config, &cache, &cli.opts)?;
    cache.persist()?;
    eprintln!("{}", render_run_summary(&report));
    print!("{}", render(&report, cli.format));
    Ok(())
}

/// CLI entry point for `dtc search`; returns the process exit code.
pub fn run_search_cli(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dtc search: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let (opts, positional) = parse_args(&strs(&[
            "--slo",
            "0.9999",
            "--cost-ceiling",
            "1500000",
            "--format",
            "json",
            "--break-even-pairs",
            "2",
            "search7",
        ]))
        .unwrap();
        assert_eq!(opts.slo_floor, Some(0.9999));
        assert_eq!(opts.cost_ceiling, Some(1_500_000.0));
        assert_eq!(opts.format, Format::Json);
        assert_eq!(opts.break_even_pairs, Some(2));
        assert_eq!(positional, vec!["search7".to_string()]);

        assert!(parse_args(&strs(&["--slo", "high"])).is_err());
        assert!(parse_args(&strs(&["--wat"])).is_err());
    }

    #[test]
    fn config_resolution() {
        // A catalog without [search] needs --slo.
        let catalog = dtc_engine::catalogs::table7();
        assert!(catalog.search.is_none());
        let (no_slo, _) = parse_args(&strs(&["table7"])).unwrap();
        assert!(resolve_config(&catalog, &no_slo).is_err());

        let (cli, _) = parse_args(&strs(&["--slo", "0.999", "table7"])).unwrap();
        let config = resolve_config(&catalog, &cli).unwrap();
        assert_eq!(config.slo.availability_floor, 0.999);
        assert!(config.break_even);

        // --no-break-even wins over everything.
        let (cli, _) =
            parse_args(&strs(&["--slo", "0.999", "--no-break-even", "table7"])).unwrap();
        assert!(!resolve_config(&catalog, &cli).unwrap().break_even);

        // The bundled search space carries its own [search] section, and
        // CLI flags override it.
        let search7 = crate::catalogs::search7();
        let section = search7.search.clone().expect("search7 has [search]");
        let (plain, _) = parse_args(&strs(&["search7"])).unwrap();
        assert_eq!(resolve_config(&search7, &plain).unwrap(), section);
        let (override_floor, _) = parse_args(&strs(&["--slo", "0.99", "search7"])).unwrap();
        let config = resolve_config(&search7, &override_floor).unwrap();
        assert_eq!(config.slo.availability_floor, 0.99);
    }

    #[test]
    fn bad_invocations_exit_nonzero() {
        assert_eq!(run_search_cli(&strs(&["/no/such/catalog.toml"])), 2);
        assert_eq!(run_search_cli(&strs(&["--wat"])), 2);
        assert_eq!(run_search_cli(&[]), 0, "no argument prints usage");
        assert_eq!(run_search_cli(&strs(&["help"])), 0);
    }
}
