//! Load generation against a running `dtc-serve` instance.
//!
//! N client threads hammer the server over real sockets (one fresh TCP
//! connection per request, so the accept → queue → worker path is
//! exercised every time) and the run is summarized as requests/second plus
//! p50/p95/p99 latency — an operator's load tool. The tracked serve
//! benchmark is perfbench's `serve_miss` workload (`perfbench/`).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What to fire at the server.
#[derive(Debug, Clone)]
pub struct Options {
    /// Target `host:port`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued by each client, one connection per request.
    pub requests_per_client: usize,
    /// HTTP method (`GET` or `POST`).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Request body (POST only).
    pub body: Option<Vec<u8>>,
    /// Number of distinct built-in scenario bodies to rotate through
    /// (`--mix`). 1 (the default) hammers one spec — after the first solve
    /// that measures the pure cache-hit path; N > 1 spreads requests over
    /// N different specs so the cache-miss/solve path stays exercised.
    pub mix: usize,
    /// Run for this many seconds instead of a fixed request count
    /// (`--duration`). When set, every client issues requests until the
    /// deadline passes and `requests_per_client` is ignored.
    pub duration: Option<f64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7878".into(),
            clients: 8,
            requests_per_client: 50,
            method: "POST".into(),
            path: "/v1/evaluate".into(),
            body: Some(tiny_catalog_json().into_bytes()),
            mix: 1,
            duration: None,
        }
    }
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Requests attempted.
    pub total: usize,
    /// Responses with a 2xx status.
    pub ok: usize,
    /// Everything else: non-2xx statuses and socket failures.
    pub failed: usize,
    /// Failures by kind: a status code (`"503"`, `"400"`, …) for non-2xx
    /// responses, `"io_error"` for connections that produced no parsable
    /// status line at all. Values sum to `failed`.
    pub failures_by_status: BTreeMap<String, usize>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub rps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
}

/// A built-in minimal catalog (one tiny custom data center) whose solve is
/// fast and whose repeat requests are pure cache hits — the default
/// `POST /v1/evaluate` payload.
pub fn tiny_catalog_json() -> String {
    r#"{
  "catalog": {"name": "loadgen-tiny", "description": "one minimal DC"},
  "params": {"min_running_vms": 1},
  "scenario": [{
    "name": "tiny",
    "kind": "custom",
    "dc": [{
      "site": {"name": "Origin", "lat": 0.0, "lon": 0.0},
      "hot_pms": 1, "vms_per_pm": 1, "pm_capacity": 1,
      "disaster": false, "nas_net": false, "backup_link": false
    }]
  }]
}"#
    .to_string()
}

/// The `i`-th body of a `--mix` run: the tiny catalog with a distinct VM
/// MTTF, so each body is a distinct spec (and cache key) that forces a real
/// solve on first sight. The offset keeps body 0 distinct from
/// [`tiny_catalog_json`]'s Table-VI defaults as well.
pub fn mix_catalog_json(i: usize) -> String {
    let mttf = 2904.0 + 24.0 * i as f64;
    format!(
        r#"{{
  "catalog": {{"name": "loadgen-mix-{i}", "description": "one minimal DC, distinct VM MTTF"}},
  "params": {{"min_running_vms": 1, "vm": {{"mttf_hours": {mttf}, "mttr_hours": 0.5}}}},
  "scenario": [{{
    "name": "tiny",
    "kind": "custom",
    "dc": [{{
      "site": {{"name": "Origin", "lat": 0.0, "lon": 0.0}},
      "hot_pms": 1, "vms_per_pm": 1, "pm_capacity": 1,
      "disaster": false, "nas_net": false, "backup_link": false
    }}]
  }}]
}}"#
    )
}

/// The status code of a raw HTTP/1.1 response, if the status line parses.
fn parse_status(response: &[u8]) -> Option<u16> {
    let rest = response.strip_prefix(b"HTTP/1.1 ")?;
    std::str::from_utf8(rest.get(..3)?).ok()?.parse().ok()
}

fn one_request(opts: &Options, body: &[u8]) -> std::io::Result<(Option<u16>, Duration)> {
    let head = format!(
        "{} {} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\ncontent-type: application/json\r\nconnection: close\r\n\r\n",
        opts.method, opts.path, opts.addr, body.len(),
    );
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(&opts.addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok((parse_status(&response), t0.elapsed()))
}

/// Runs the workload and aggregates latencies across every client.
///
/// With `mix > 1`, requests rotate round-robin (across all clients)
/// through [`mix_catalog_json`] bodies instead of re-sending one spec.
/// With `duration` set, clients fire until the deadline instead of
/// counting requests (each client finishes its in-flight request, so runs
/// overshoot the deadline by at most one request's latency).
pub fn run(opts: &Options) -> Summary {
    let bodies: Vec<Vec<u8>> = if opts.mix > 1 {
        (0..opts.mix).map(|i| mix_catalog_json(i).into_bytes()).collect()
    } else {
        vec![opts.body.clone().unwrap_or_default()]
    };
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = opts.duration.map(|secs| t0 + Duration::from_secs_f64(secs.max(0.0)));
    let samples: Vec<(Option<u16>, Option<Duration>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::with_capacity(opts.requests_per_client);
                    let mut issued = 0usize;
                    loop {
                        match deadline {
                            Some(deadline) => {
                                if Instant::now() >= deadline {
                                    break;
                                }
                            }
                            None => {
                                if issued >= opts.requests_per_client {
                                    break;
                                }
                            }
                        }
                        issued += 1;
                        let body = &bodies[next.fetch_add(1, Ordering::Relaxed) % bodies.len()];
                        match one_request(opts, body) {
                            Ok((status, latency)) => local.push((status, Some(latency))),
                            Err(_) => local.push((None, None)),
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("loadgen client panicked")).collect()
    });
    let elapsed = t0.elapsed();

    let total = samples.len();
    let is_ok = |status: &Option<u16>| status.is_some_and(|s| (200..300).contains(&s));
    let ok = samples.iter().filter(|(status, _)| is_ok(status)).count();
    let mut failures_by_status: BTreeMap<String, usize> = BTreeMap::new();
    for (status, _) in samples.iter().filter(|(status, _)| !is_ok(status)) {
        let key = match status {
            Some(code) => code.to_string(),
            None => "io_error".to_string(),
        };
        *failures_by_status.entry(key).or_insert(0) += 1;
    }
    let mut latencies: Vec<Duration> = samples.iter().filter_map(|(_, l)| *l).collect();
    latencies.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return f64::NAN;
        }
        let rank = ((latencies.len() as f64 * q).ceil() as usize).max(1) - 1;
        latencies[rank.min(latencies.len() - 1)].as_secs_f64() * 1000.0
    };
    Summary {
        total,
        ok,
        failed: total - ok,
        failures_by_status,
        elapsed,
        rps: if elapsed.as_secs_f64() > 0.0 {
            total as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_ms: percentile(0.50),
        p95_ms: percentile(0.95),
        p99_ms: percentile(0.99),
        max_ms: latencies.last().map(|l| l.as_secs_f64() * 1000.0).unwrap_or(f64::NAN),
    }
}

/// Human-readable report block.
pub fn render(opts: &Options, s: &Summary) -> String {
    let mix =
        if opts.mix > 1 { format!(" (mix of {} bodies)", opts.mix) } else { String::new() };
    let workload = match opts.duration {
        Some(secs) => format!("{secs:.1} s each"),
        None => format!("{} request(s)", opts.requests_per_client),
    };
    let failures = if s.failed > 0 {
        let parts: Vec<String> =
            s.failures_by_status.iter().map(|(k, n)| format!("{k}×{n}")).collect();
        format!("failures: {}\n", parts.join(", "))
    } else {
        String::new()
    };
    format!(
        "loadgen: {} {} @ {}{mix} — {} client(s) × {workload}\n\
         requests: {} total, {} ok, {} failed\n\
         {failures}\
         elapsed:  {:.3} s\n\
         rps:      {:.1}\n\
         latency:  p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, max {:.2} ms\n",
        opts.method,
        opts.path,
        opts.addr,
        opts.clients,
        s.total,
        s.ok,
        s.failed,
        s.elapsed.as_secs_f64(),
        s.rps,
        s.p50_ms,
        s.p95_ms,
        s.p99_ms,
        s.max_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_catalog_parses_and_expands() {
        let catalog = dtc_engine::Catalog::from_json_str(&tiny_catalog_json()).unwrap();
        assert_eq!(catalog.expand().unwrap().len(), 1);
    }

    #[test]
    fn mix_bodies_are_distinct_specs() {
        use dtc_engine::{canonical_encoding_with, prelude::AnalysisRequest};
        let opts = dtc_core::metrics::EvalOptions::default();
        let analyses = [AnalysisRequest::SteadyState];
        let mut keys = std::collections::HashSet::new();
        for i in 0..5 {
            let catalog = dtc_engine::Catalog::from_json_str(&mix_catalog_json(i)).unwrap();
            let scenarios = catalog.expand().unwrap();
            assert_eq!(scenarios.len(), 1);
            let canonical = canonical_encoding_with(&scenarios[0].spec, &opts, &analyses);
            assert!(
                keys.insert(dtc_engine::hash::key_of_encoding(&canonical)),
                "mix body {i} collides with an earlier one"
            );
        }
    }

    #[test]
    fn percentiles_come_from_sorted_latencies() {
        // Hit an unreachable port: every request fails fast, so the
        // summary shape is exercised without a server.
        let opts = Options {
            addr: "127.0.0.1:1".into(),
            clients: 2,
            requests_per_client: 3,
            method: "GET".into(),
            path: "/healthz".into(),
            body: None,
            mix: 1,
            duration: None,
        };
        let s = run(&opts);
        assert_eq!(s.total, 6);
        assert_eq!(s.ok, 0);
        assert_eq!(s.failed, 6);
        assert_eq!(
            s.failures_by_status.get("io_error"),
            Some(&6),
            "socket failures land in the io_error bucket"
        );
        assert_eq!(s.failures_by_status.values().sum::<usize>(), s.failed);
        assert!(s.p50_ms.is_nan(), "no successful latency samples");
        assert!(render(&opts, &s).contains("failures: io_error×6"));
    }

    #[test]
    fn status_lines_parse_and_non_2xx_counts_as_failure() {
        assert_eq!(parse_status(b"HTTP/1.1 200 OK\r\n"), Some(200));
        assert_eq!(parse_status(b"HTTP/1.1 503 Service Unavailable\r\n"), Some(503));
        assert_eq!(parse_status(b"HTTP/1.1 zzz"), None);
        assert_eq!(parse_status(b"garbage"), None);
        assert_eq!(parse_status(b""), None);
    }

    #[test]
    fn duration_mode_overrides_the_request_count() {
        // An already-expired deadline: clients stop before their first
        // request, proving the deadline (not requests_per_client) governs.
        let opts = Options {
            addr: "127.0.0.1:1".into(),
            clients: 3,
            requests_per_client: 100,
            method: "GET".into(),
            path: "/healthz".into(),
            body: None,
            mix: 1,
            duration: Some(0.0),
        };
        let s = run(&opts);
        assert_eq!(s.total, 0, "expired deadline issues no requests");
    }
}
