//! The `dtc` command-line interface.
//!
//! ```text
//! dtc run <catalog.toml|.json> [options]   evaluate a scenario catalog
//! dtc table7 [options]                     bundled Table VII catalog
//! dtc fig7 [options]                       bundled Figure 7 catalog
//! dtc validate <catalog>                   parse + expand + compile only
//! dtc help                                 this text
//!
//! options:
//!   --format table|csv|json   output format (default table)
//!   --threads N               worker threads (default: available cores)
//!   --solver NAME             gauss-seidel (default) or direct
//!   --cache FILE              persistent JSON evaluation cache
//! ```
//!
//! Results go to stdout; progress and the cache summary go to stderr.

use crate::cache::EvalCache;
use crate::catalog::{Catalog, Scenario};
use crate::error::{EngineError, Result};
use crate::executor::{run_batch, BatchResult, Outcome, RunOptions};
use crate::output::{render, render_summary, Format};
use dtc_core::analysis::AnalysisRequest;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "\
dtc — disaster-tolerant cloud scenario evaluator

usage:
  dtc run <catalog.toml|.json> [options]   evaluate a scenario catalog
  dtc table7 [options]                     bundled DSN'13 Table VII catalog
  dtc fig7 [options]                       bundled DSN'13 Figure 7 catalog
  dtc validate <catalog>                   parse, expand and compile only
  dtc cache stats|keys|clear --cache FILE  inspect or prune a cache store
  dtc search <catalog>|search7 [options]   SLO-driven design search (dtc-search)
  dtc serve [serve options]                HTTP evaluation service (dtc-serve)
  dtc help                                 show this text

options:
  --format table|csv|json   output format (default table)
  --threads N               thread budget for the batch, split between
                            scenario workers and each solve (default or 0:
                            one per available core)
  --solver NAME             steady-state solver: gauss-seidel (default;
                            exact GTH elimination on chains of <= 4096
                            states where that is cheaper than sweeping,
                            else sweeps with extrapolation jumps kept only
                            when they lower the true residual) or direct
                            (dense elimination, small chains only)
  --analyses LIST           comma-separated analyses to run per scenario
                            (steady_state, transient, interval, mttsf,
                            capacity_thresholds, cost, simulation, sensitivity);
                            default: the catalog's [analyses] section, else
                            steady_state
  --cache FILE              persistent JSON evaluation cache
  --cache-cap N             cap resident cache entries (oldest evicted)
  --trace                   collect a request-scoped span tree for the run
                            and print it to stderr (explore, solver stages,
                            cache events — the same tree `dtc serve` returns
                            for `?trace=1`)

serve options (see `dtc serve --help`):
  --addr HOST:PORT          listen address (default 127.0.0.1:7878)
  --threads N               HTTP worker threads
  --queue N                 pending-connection queue capacity
  --cache FILE              persistent JSON evaluation cache
  --cache-cap N             cap resident cache entries
";

#[derive(Debug)]
struct CliOptions {
    format: Format,
    run: RunOptions,
    /// `--analyses` override; `None` defers to the catalog's `[analyses]`.
    analyses: Option<Vec<AnalysisRequest>>,
    cache_path: Option<PathBuf>,
    cache_cap: Option<usize>,
    /// `--trace`: collect a span tree for the run and print it to stderr.
    trace: bool,
}

/// Parses a comma-separated `--analyses` list of analysis kinds (each with
/// its default parameters; use a catalog `[analyses]` section to tune
/// them).
fn parse_analyses_flag(list: &str) -> Result<Vec<AnalysisRequest>> {
    let requests: Vec<AnalysisRequest> = list
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty())
        .map(|k| {
            AnalysisRequest::from_kind(k).ok_or_else(|| {
                EngineError::Schema(format!(
                    "unknown analysis kind {k:?} (expected steady_state, transient, interval, \
                     mttsf, capacity_thresholds, cost, simulation or sensitivity)"
                ))
            })
        })
        .collect::<Result<_>>()?;
    if requests.is_empty() {
        return Err(EngineError::Schema("--analyses needs at least one kind".into()));
    }
    Ok(requests)
}

fn parse_options(args: &[String]) -> Result<(CliOptions, Vec<String>)> {
    let mut opts = CliOptions {
        format: Format::Table,
        run: RunOptions::default(),
        analyses: None,
        cache_path: None,
        cache_cap: None,
        trace: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String> {
            it.next()
                .cloned()
                .ok_or_else(|| EngineError::Schema(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--format" => {
                let v = take("--format")?;
                opts.format = Format::from_name(&v).ok_or_else(|| {
                    EngineError::Schema(format!("unknown format {v:?} (table, csv or json)"))
                })?;
            }
            "--threads" => {
                let v = take("--threads")?;
                opts.run.threads = v.parse().map_err(|_| {
                    EngineError::Schema(format!("--threads expects a number, got {v:?}"))
                })?;
            }
            "--solver" => {
                opts.run.eval.method = take("--solver")?.parse().map_err(EngineError::Schema)?
            }
            "--analyses" => opts.analyses = Some(parse_analyses_flag(&take("--analyses")?)?),
            "--cache" => opts.cache_path = Some(PathBuf::from(take("--cache")?)),
            "--cache-cap" => {
                let v = take("--cache-cap")?;
                opts.cache_cap = Some(v.parse().map_err(|_| {
                    EngineError::Schema(format!("--cache-cap expects a number, got {v:?}"))
                })?);
            }
            "--trace" => opts.trace = true,
            other if other.starts_with("--") => {
                return Err(EngineError::Schema(format!("unknown option {other}")));
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok((opts, positional))
}

fn evaluate(catalog: &Catalog, opts: &CliOptions) -> Result<(Vec<Scenario>, BatchResult)> {
    let scenarios = catalog.expand()?;
    let mut run = opts.run.clone();
    // --analyses beats the catalog's [analyses] section.
    run.analyses = opts.analyses.clone().unwrap_or_else(|| catalog.analyses.clone());
    // --threads is the whole solver budget: run_batch divides it between
    // batch workers, per-scenario sweep fan-out (sensitivity), and the
    // parallel march kernels inside each solve (dtc_markov::par).
    eprintln!(
        "catalog {:?}: {} scenario(s) × {} analysis(es) on {} thread(s)…",
        catalog.name,
        scenarios.len(),
        run.analyses.len(),
        dtc_markov::par::resolve_threads(run.threads)
    );
    let cache = Arc::new(EvalCache::open_lenient(opts.cache_path.clone(), opts.cache_cap));
    let trace_ctx = opts
        .trace
        .then(|| dtc_obs::trace::TraceContext::new(dtc_obs::trace::TraceId::generate()));
    let result = {
        let _guard = trace_ctx.as_ref().map(dtc_obs::trace::install);
        let _root = trace_ctx.as_ref().map(|_| {
            let span = dtc_obs::trace::trace_span("run");
            dtc_obs::trace::attr_str("catalog", &catalog.name);
            dtc_obs::trace::attr_int("scenarios", scenarios.len() as i64);
            span
        });
        let result = run_batch(&scenarios, &cache, &run);
        cache.persist()?;
        result
    };
    if let Some(ctx) = &trace_ctx {
        eprint!("{}", dtc_obs::trace::render_text(&ctx.snapshot()));
    }
    eprintln!("{}", render_summary(&result));
    Ok((scenarios, result))
}

/// Renders the Figure 7 view: per city pair, the change in number of nines
/// over that pair's baseline point.
pub fn render_fig7_grid(scenarios: &[Scenario], outcomes: &[Outcome]) -> String {
    let nines_of = |sec: &str, alpha: f64, years: f64| -> f64 {
        scenarios
            .iter()
            .position(|s| {
                s.secondary.as_deref() == Some(sec)
                    && s.alpha == Some(alpha)
                    && s.disaster_years == Some(years)
            })
            .and_then(|i| outcomes[i].steady().map(|r| r.nines))
            .unwrap_or(f64::NAN)
    };
    // Distinct secondaries / alphas / years, in first-appearance order.
    let mut pairs: Vec<String> = Vec::new();
    let mut alphas: Vec<f64> = Vec::new();
    let mut years_axis: Vec<f64> = Vec::new();
    for s in scenarios {
        if let Some(sec) = &s.secondary {
            if !pairs.contains(sec) {
                pairs.push(sec.clone());
            }
        }
        if let Some(a) = s.alpha {
            if !alphas.contains(&a) {
                alphas.push(a);
            }
        }
        if let Some(y) = s.disaster_years {
            if !years_axis.contains(&y) {
                years_axis.push(y);
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 7 — availability increase over the per-pair baseline (Δ nines)\n"
    );
    let _ = write!(out, "{:<12} {:>6} |", "pair", "α");
    for y in &years_axis {
        let _ = write!(out, " {:>9}", format!("{y} y"));
    }
    let _ = writeln!(out, " | {:>9}", "base A");
    let width = 22 + 10 * years_axis.len() + 12;
    let _ = writeln!(out, "{}", "-".repeat(width));
    for pair in &pairs {
        let base = scenarios
            .iter()
            .position(|s| s.secondary.as_deref() == Some(pair.as_str()) && s.is_baseline);
        let (base_nines, base_avail) = match base.and_then(|i| outcomes[i].steady()) {
            Some(r) => (r.nines, r.availability),
            None => (f64::NAN, f64::NAN),
        };
        for (row, &alpha) in alphas.iter().enumerate() {
            if row == 0 {
                let _ = write!(out, "{:<12} {:>6.2} |", pair, alpha);
            } else {
                let _ = write!(out, "{:<12} {:>6.2} |", "", alpha);
            }
            for &y in &years_axis {
                let delta = nines_of(pair, alpha, y) - base_nines;
                let _ = write!(out, " {:>+9.3}", delta);
            }
            if row == 0 {
                let _ = writeln!(out, " | {:>9.6}", base_avail);
            } else {
                let _ = writeln!(out, " |");
            }
        }
    }
    out
}

fn cmd_run(catalog: Catalog, opts: &CliOptions) -> Result<()> {
    let (scenarios, result) = evaluate(&catalog, opts)?;
    print!("{}", render(&scenarios, &result, opts.format));
    Ok(())
}

fn cmd_fig7(catalog: Catalog, opts: &CliOptions) -> Result<()> {
    let (scenarios, result) = evaluate(&catalog, opts)?;
    match opts.format {
        Format::Table => print!("{}", render_fig7_grid(&scenarios, &result.outcomes)),
        other => print!("{}", render(&scenarios, &result, other)),
    }
    Ok(())
}

fn cmd_validate(catalog: Catalog) -> Result<()> {
    let scenarios = catalog.expand()?;
    let mut compiled = 0usize;
    for s in &scenarios {
        dtc_core::CloudModel::build(&s.spec).map_err(|e| {
            EngineError::Schema(format!("scenario {:?} does not compile: {e}", s.name))
        })?;
        compiled += 1;
    }
    println!(
        "catalog {:?} ok: {} template(s), {} scenario(s), all compile",
        catalog.name,
        catalog.templates.len(),
        compiled
    );
    for s in &scenarios {
        println!(
            "  {:<60} dcs={} pms={} vms={} k={}",
            s.name,
            s.spec.data_centers.len(),
            s.spec.total_pms(),
            s.spec.total_vms(),
            s.spec.min_running_vms
        );
    }
    Ok(())
}

fn cmd_cache(positional: &[String], opts: &CliOptions) -> Result<()> {
    let action = positional.first().map(String::as_str).ok_or_else(|| {
        EngineError::Schema("cache needs an action: stats, keys or clear".into())
    })?;
    let path = opts
        .cache_path
        .as_ref()
        .ok_or_else(|| EngineError::Schema("cache commands need --cache FILE".into()))?;
    match action {
        "stats" => {
            let cache = EvalCache::with_store(path.clone())?;
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            let stats = cache.stats();
            println!("store:     {}", path.display());
            println!("entries:   {}", cache.len());
            println!("bytes:     {bytes}");
            println!("hits:      {}", stats.hits);
            println!("misses:    {}", stats.misses);
            println!("joins:     {}", stats.joins);
            println!("evictions: {}", stats.evictions);
            // Batch counters are runtime-only (not persisted), so on a
            // freshly opened store they describe this process: the
            // candidates-vs-distinct-specs split of any batches run here.
            println!("batch candidates: {}", stats.batch_candidates);
            println!("batch distinct:   {}", stats.batch_distinct);
            Ok(())
        }
        "keys" => {
            let cache = EvalCache::with_store(path.clone())?;
            for key in cache.keys() {
                println!("{key}");
            }
            Ok(())
        }
        "clear" => {
            // Count what is there (0 for a corrupt or missing store), then
            // truncate to an empty store. Deliberately NOT `persist`, which
            // would merge the file's entries right back.
            let removed = EvalCache::with_store(path.clone()).map(|c| c.len()).unwrap_or(0);
            std::fs::write(path, EvalCache::in_memory().to_json())
                .map_err(|e| EngineError::Io(format!("{}: {e}", path.display())))?;
            println!(
                "cleared {removed} entr{} from {}",
                if removed == 1 { "y" } else { "ies" },
                path.display()
            );
            Ok(())
        }
        other => Err(EngineError::Schema(format!(
            "unknown cache action {other:?} (expected stats, keys or clear)"
        ))),
    }
}

fn dispatch(args: &[String]) -> Result<()> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let (opts, positional) = parse_options(&args[1..])?;
    let catalog_from_arg = |what: &str| -> Result<Catalog> {
        let path = positional
            .first()
            .ok_or_else(|| EngineError::Schema(format!("{what} needs a catalog file")))?;
        Catalog::from_path(std::path::Path::new(path))
    };
    match command.as_str() {
        "run" => cmd_run(catalog_from_arg("run")?, &opts),
        "table7" => cmd_run(crate::catalogs::table7(), &opts),
        "fig7" => cmd_fig7(crate::catalogs::fig7(), &opts),
        "validate" => cmd_validate(catalog_from_arg("validate")?),
        "cache" => cmd_cache(&positional, &opts),
        "serve" => Err(EngineError::Schema(
            "the serve command lives in the dtc-serve crate's `dtc` binary \
             (cargo run -p dtc-serve --bin dtc -- serve)"
                .into(),
        )),
        "search" => Err(EngineError::Schema(
            "the search command lives in the dtc-search crate, surfaced by the dtc-serve \
             crate's `dtc` binary (cargo run -p dtc-serve --bin dtc -- search)"
                .into(),
        )),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(EngineError::Schema(format!("unknown command {other:?}; try `dtc help`"))),
    }
}

/// CLI entry point; returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("dtc: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing() {
        let args: Vec<String> =
            ["--format", "csv", "--threads", "2", "--solver", "direct", "x"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let (opts, positional) = parse_options(&args).unwrap();
        assert_eq!(opts.format, Format::Csv);
        assert_eq!(opts.run.threads, 2);
        assert_eq!(opts.run.eval.method, dtc_markov::Method::Direct);
        assert_eq!(positional, vec!["x".to_string()]);

        assert!(parse_options(&["--format".into(), "xml".into()]).is_err());
        assert!(parse_options(&["--threads".into()]).is_err());
        assert!(parse_options(&["--wat".into()]).is_err());
    }

    #[test]
    fn unknown_command_fails() {
        assert_eq!(run_cli(&["frobnicate".into()]), 2);
        assert_eq!(run_cli(&[]), 0, "no command prints usage");
        assert_eq!(run_cli(&["help".into()]), 0);
    }

    #[test]
    fn run_needs_a_catalog_path() {
        assert_eq!(run_cli(&["run".into()]), 2);
        assert_eq!(run_cli(&["run".into(), "/no/such/file.toml".into()]), 2);
    }

    #[test]
    fn retired_solvers_are_rejected_naming_the_valid_ones() {
        for retired in ["power", "jacobi", "sor"] {
            let err = parse_options(&["--solver".into(), retired.into()]).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("gauss-seidel") && msg.contains("direct"), "{msg}");
        }
    }
}
