//! Argument parsing and entry points for `dtc serve` and `loadgen`.

use crate::loadgen;
use crate::{ServeConfig, Server};
use std::path::PathBuf;

const SERVE_USAGE: &str = "\
dtc serve — HTTP availability-evaluation service

usage: dtc serve [options]

options:
  --addr HOST:PORT    listen address (default 127.0.0.1:7878; port 0 = ephemeral)
  --threads N         HTTP worker threads (default or 0: one per available core)
  --queue N           pending-connection queue capacity (default 128);
                      the acceptor answers 503 beyond it
  --eval-threads N    thread budget inside one request's batch (default 1;
                      0: one per available core)
  --cache FILE        persistent JSON evaluation cache
  --cache-cap N       cap resident cache entries (oldest evicted first)

routes:
  GET  /healthz         liveness
  GET  /metrics         Prometheus text exposition (HTTP, cache and solver-stage
                        metrics)
  GET  /v1/stats        cache + queue + server counters
  POST /v1/evaluate     evaluate a JSON catalog document (steady state)
  POST /v2/evaluate     {catalog, analyses} or a bare catalog document: run any
                        analysis set (steady_state, transient, interval, mttsf,
                        capacity_thresholds, cost, simulation, sensitivity)
                        from one state-space construction
  POST /v2/search       {catalog, search?} or a bare catalog document with a
                        [search] section: SLO-driven design search (feasible
                        set, Pareto frontier, cheapest-feasible pick,
                        break-even disaster rates); JSON is bit-identical to
                        `dtc search --format json`
  GET  /v2/model/dot    ?scenario=NAME[&catalog=table7|fig7] — the compiled
                        GSPN of a bundled-catalog scenario as Graphviz DOT
  GET  /v1/cache/keys   stored content-addressed keys
  GET  /v2/debug/trace  ?id=TRACE_ID — one request's span tree (the ID every
                        response echoes as X-Dtc-Trace-Id); POST /v2/evaluate
                        with ?trace=1 inlines the tree in the response
  GET  /v2/debug/traces recent traces, newest first (bounded ring)
  GET  /v2/debug/slow   slowest retained traces (survive ring rotation)

diagnostics are JSON lines on stderr; set DTC_LOG=error|warn|info|debug
(default info; debug logs every request with its trace id)

the full request/response cookbook is in docs/HTTP_API.md
";

fn parse_usize(name: &str, value: &str) -> Result<usize, String> {
    value.parse().map_err(|_| format!("{name} expects a number, got {value:?}"))
}

/// Parses `dtc serve` arguments into a [`ServeConfig`].
pub fn parse_serve_args(args: &[String]) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--threads" => config.threads = parse_usize("--threads", &take("--threads")?)?,
            "--queue" => config.queue = parse_usize("--queue", &take("--queue")?)?,
            "--eval-threads" => {
                config.eval_threads = parse_usize("--eval-threads", &take("--eval-threads")?)?
            }
            "--cache" => config.cache_path = Some(PathBuf::from(take("--cache")?)),
            "--cache-cap" => {
                config.cache_cap = Some(parse_usize("--cache-cap", &take("--cache-cap")?)?)
            }
            "--help" | "-h" | "help" => return Ok(None),
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    Ok(Some(config))
}

/// `dtc serve` entry point; blocks until the process is killed.
pub fn run_serve(args: &[String]) -> i32 {
    let config = match parse_serve_args(args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{SERVE_USAGE}");
            return 0;
        }
        Err(msg) => {
            eprintln!("dtc serve: {msg}");
            return 2;
        }
    };
    match Server::start(&config) {
        Ok(server) => {
            let workers = dtc_engine::resolve_threads(config.threads);
            dtc_obs::log::info(
                "dtc-serve",
                "listening",
                &[
                    ("addr", server.addr().to_string().into()),
                    ("workers", (workers as i64).into()),
                    ("queue", (config.queue.max(1) as i64).into()),
                ],
            );
            server.join();
            0
        }
        Err(e) => {
            eprintln!("dtc serve: {e}");
            2
        }
    }
}

const LOADGEN_USAGE: &str = "\
loadgen — throughput/latency harness for dtc-serve

usage: loadgen --addr HOST:PORT [options]

options:
  --addr HOST:PORT    target server (required)
  --clients N         concurrent client threads (default 8)
  --requests N        requests per client (default 50)
  --duration SECONDS  run each client for a wall-clock budget instead of a
                      request count (overrides --requests)
  --healthz           GET /healthz instead of POST /v1/evaluate
  --catalog FILE      POST this JSON catalog instead of the built-in tiny one
  --mix N             rotate through N distinct built-in scenario bodies so the
                      run exercises the cache-miss/solve path, not just hits
";

/// Parses `loadgen` arguments.
pub fn parse_loadgen_args(args: &[String]) -> Result<Option<loadgen::Options>, String> {
    let mut opts = loadgen::Options::default();
    let mut addr_given = false;
    let mut catalog_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => {
                opts.addr = take("--addr")?;
                addr_given = true;
            }
            "--clients" => opts.clients = parse_usize("--clients", &take("--clients")?)?,
            "--requests" => {
                opts.requests_per_client = parse_usize("--requests", &take("--requests")?)?
            }
            "--duration" => {
                let value = take("--duration")?;
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("--duration expects seconds, got {value:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--duration needs a positive duration, got {value}"));
                }
                opts.duration = Some(secs);
            }
            "--healthz" => {
                opts.method = "GET".into();
                opts.path = "/healthz".into();
                opts.body = None;
            }
            "--catalog" => {
                let path = take("--catalog")?;
                let text = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
                opts.body = Some(text);
                catalog_given = true;
            }
            "--mix" => {
                opts.mix = parse_usize("--mix", &take("--mix")?)?;
                if opts.mix == 0 {
                    return Err("--mix needs at least 1 body".into());
                }
            }
            "--help" | "-h" | "help" => return Ok(None),
            other => return Err(format!("unknown loadgen option {other:?}")),
        }
    }
    if !addr_given {
        return Err("--addr HOST:PORT is required (see loadgen --help)".into());
    }
    if opts.mix > 1 && catalog_given {
        return Err("--mix uses the built-in body rotation and would ignore --catalog; \
                    drop one of them"
            .into());
    }
    if opts.mix > 1 && opts.body.is_none() {
        return Err("--mix only applies to POST /v1/evaluate; drop --healthz".into());
    }
    Ok(Some(opts))
}

/// `loadgen` binary entry point.
pub fn run_loadgen(args: &[String]) -> i32 {
    let opts = match parse_loadgen_args(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{LOADGEN_USAGE}");
            return 0;
        }
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            return 2;
        }
    };
    let summary = loadgen::run(&opts);
    print!("{}", loadgen::render(&opts, &summary));
    if summary.failed > 0 {
        eprintln!("loadgen: {} request(s) failed", summary.failed);
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse() {
        let config = parse_serve_args(&strs(&[
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "3",
            "--queue",
            "7",
            "--eval-threads",
            "2",
            "--cache-cap",
            "100",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.threads, 3);
        assert_eq!(config.queue, 7);
        assert_eq!(config.eval_threads, 2);
        assert_eq!(config.cache_cap, Some(100));

        assert!(parse_serve_args(&strs(&["--queue"])).is_err());
        assert!(parse_serve_args(&strs(&["--wat"])).is_err());
        assert!(parse_serve_args(&strs(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn loadgen_args_require_addr() {
        assert!(parse_loadgen_args(&strs(&["--clients", "4"])).is_err());
        let opts = parse_loadgen_args(&strs(&["--addr", "127.0.0.1:1", "--healthz"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.method, "GET");
        assert_eq!(opts.path, "/healthz");
        assert!(opts.body.is_none());
        assert_eq!(opts.mix, 1);
    }

    #[test]
    fn loadgen_mix_parses_and_rejects_zero() {
        let opts = parse_loadgen_args(&strs(&["--addr", "127.0.0.1:1", "--mix", "4"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.mix, 4);
        assert!(parse_loadgen_args(&strs(&["--addr", "127.0.0.1:1", "--mix", "0"])).is_err());
    }

    #[test]
    fn loadgen_duration_parses_and_rejects_nonpositive() {
        let opts = parse_loadgen_args(&strs(&["--addr", "127.0.0.1:1", "--duration", "2.5"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.duration, Some(2.5));
        for bad in ["0", "-1", "inf", "zebra"] {
            assert!(
                parse_loadgen_args(&strs(&["--addr", "127.0.0.1:1", "--duration", bad]))
                    .is_err(),
                "--duration {bad} must be rejected"
            );
        }
    }
}
