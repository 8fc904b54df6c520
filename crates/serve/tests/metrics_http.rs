//! `GET /metrics` over real TCP: a scripted cache hit/miss/evict, 431/413
//! rejections, keep-alive reuse and a forced 503 shed, with the scrape
//! asserted to move at every step — plus exposition-format validity,
//! histogram invariants, the `X-Dtc-Duration-Us` header and the v2
//! `timings` object.

use dtc_engine::value::Value;
use dtc_serve::{loadgen, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One connection-per-request exchange; returns the whole response text.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let payload = body.unwrap_or("");
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(payload.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    String::from_utf8(raw).expect("UTF-8 response")
}

fn status_of(text: &str) -> u16 {
    text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
}

fn body_of(text: &str) -> String {
    text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
}

fn scrape(addr: SocketAddr) -> String {
    let text = raw_request(addr, "GET", "/metrics", None);
    assert_eq!(status_of(&text), 200, "{text}");
    assert!(
        text.to_lowercase().contains("content-type: text/plain; version=0.0.4"),
        "exposition content type missing: {}",
        text.lines().take(8).collect::<Vec<_>>().join(" | ")
    );
    body_of(&text)
}

/// The value of one fully-qualified sample line (`name{labels}` exact).
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("series {series:?} not in scrape:\n{text}"))
        .parse()
        .expect("sample value parses")
}

/// Structural validity of the whole scrape: HELP/TYPE headers precede their
/// samples, every sample line is `name{labels} value` with a parseable
/// value, and every histogram's `_bucket` series is cumulative, ends at
/// `+Inf`, and agrees with `_count`.
fn assert_valid_exposition(text: &str) {
    let mut typed: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (name, kind) = (parts.next().unwrap(), parts.next().expect("TYPE kind"));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            typed.insert(name, kind);
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad: {line}"));
        let name = series.split('{').next().unwrap();
        assert!(!name.is_empty(), "sample with empty name: {line}");
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.get(base) == Some(&"histogram"))
            .unwrap_or(name);
        assert!(typed.contains_key(base), "sample {name} has no preceding TYPE header");
        if value != "+Inf" && value != "-Inf" {
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    // Histogram invariants for the request-latency family.
    for (name, kind) in &typed {
        if *kind != "histogram" {
            continue;
        }
        // Group bucket lines by their label set minus `le`.
        let mut by_series: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(&format!("{name}_bucket{{")) else { continue };
            let (labels, value) = rest.rsplit_once(' ').expect("bucket line");
            let le_stripped: Vec<&str> = labels
                .trim_end_matches('}')
                .split(',')
                .filter(|kv| !kv.starts_with("le="))
                .collect();
            by_series
                .entry(le_stripped.join(","))
                .or_default()
                .push(value.parse().expect("bucket count"));
        }
        for (labels, cumulative) in by_series {
            for pair in cumulative.windows(2) {
                assert!(
                    pair[0] <= pair[1],
                    "{name}{{{labels}}} buckets not cumulative: {cumulative:?}"
                );
            }
            let count_series = if labels.is_empty() {
                format!("{name}_count")
            } else {
                format!("{name}_count{{{labels}}}")
            };
            let count = sample(text, &count_series);
            assert_eq!(
                *cumulative.last().unwrap(),
                count,
                "{name}{{{labels}}}: +Inf bucket must equal _count"
            );
        }
    }
}

#[test]
fn metrics_move_across_a_scripted_hit_miss_evict_431_413_503_sequence() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        queue: 1,
        eval_threads: 1,
        cache_path: None,
        cache_cap: Some(1),
    })
    .expect("server starts");
    let addr = server.addr();

    // Baseline scrape is already structurally valid.
    let text = scrape(addr);
    assert_valid_exposition(&text);
    assert_eq!(sample(&text, "dtc_http_workers"), 1.0);
    assert_eq!(sample(&text, "dtc_http_queue_capacity"), 1.0);
    assert_eq!(sample(&text, "dtc_cache_hits_total"), 0.0);

    // Miss, hit, then a second spec that evicts the first (cap = 1).
    let first = loadgen::tiny_catalog_json();
    let second = loadgen::mix_catalog_json(0);
    for (body, expected) in [(&first, "miss"), (&first, "hit"), (&second, "evicting miss")] {
        let text = raw_request(addr, "POST", "/v1/evaluate", Some(body));
        assert_eq!(status_of(&text), 200, "{expected}: {text}");
        assert!(
            text.to_lowercase().contains("x-dtc-duration-us: "),
            "duration header missing on {expected}"
        );
    }
    let text = scrape(addr);
    assert_valid_exposition(&text);
    assert_eq!(sample(&text, "dtc_cache_misses_total"), 2.0);
    assert_eq!(sample(&text, "dtc_cache_hits_total"), 1.0);
    assert_eq!(sample(&text, "dtc_cache_evictions_total"), 1.0);
    assert_eq!(sample(&text, "dtc_cache_entries"), 1.0);
    assert_eq!(
        sample(&text, "dtc_http_requests_total{route=\"/v1/evaluate\",status=\"200\"}"),
        3.0
    );
    assert_eq!(sample(&text, "dtc_http_request_seconds_count{route=\"/v1/evaluate\"}"), 3.0);
    assert!(
        sample(&text, "dtc_http_request_seconds_sum{route=\"/v1/evaluate\"}") > 0.0,
        "three evaluations took nonzero time"
    );
    // Solver-stage spans from the global registry rode along.
    assert!(sample(&text, "dtc_stage_seconds_count{stage=\"explore\"}") >= 2.0);
    assert!(sample(&text, "dtc_stage_seconds_count{stage=\"stationary_solve\"}") >= 2.0);
    assert!(sample(&text, "dtc_solver_stationary_iterations_total") >= 1.0);
    // Gauss–Seidel solves export the direct-fallback and loose-accept
    // series even at zero.
    assert!(sample(&text, "dtc_solver_direct_fallbacks_total") >= 0.0);
    assert!(sample(&text, "dtc_solver_loose_accepts_total") >= 0.0);
    // …and their extrapolation jumps by safeguard outcome, apart from the
    // sweep counter.
    assert!(sample(&text, "dtc_solver_extrapolations_total{outcome=\"accepted\"}") >= 0.0);
    assert!(sample(&text, "dtc_solver_extrapolations_total{outcome=\"rejected\"}") >= 0.0);
    // The small served models are solved exactly by an elimination plan.
    assert!(sample(&text, "dtc_solver_eliminations_total") >= 1.0);

    // An unknown route lands in the bounded "other" label.
    assert_eq!(status_of(&raw_request(addr, "GET", "/nope", None)), 404);
    let text = scrape(addr);
    assert_eq!(sample(&text, "dtc_http_requests_total{route=\"other\",status=\"404\"}"), 1.0);

    // Oversized header section → 431; oversized declared body → 413.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        let filler = vec![b'a'; 20 * 1024];
        let _ = stream.write_all(&filler); // may hit EPIPE once rejected
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 431 "), "{text}");
    }
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream
            .write_all(b"POST /v1/evaluate HTTP/1.1\r\ncontent-length: 4194305\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 413 "), "{text}");
    }
    let text = scrape(addr);
    assert_eq!(sample(&text, "dtc_http_read_errors_total{kind=\"header_too_large\"}"), 1.0);
    assert_eq!(sample(&text, "dtc_http_read_errors_total{kind=\"body_too_large\"}"), 1.0);

    // Keep-alive: two requests on one connection count one reuse.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for _ in 0..2 {
            stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: test\r\n\r\n").unwrap();
            let mut raw = Vec::new();
            let mut byte = [0u8; 1];
            while !raw.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).expect("header byte");
                raw.push(byte[0]);
            }
            let head = String::from_utf8_lossy(&raw).to_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("content-length");
            let mut body = vec![0u8; length];
            stream.read_exact(&mut body).expect("body");
        }
    }
    let text = scrape(addr);
    assert!(sample(&text, "dtc_http_keepalive_reuse_total") >= 1.0);

    // Force a 503: one idle connection pins the single worker, a second
    // fills the queue, so a further connection is shed by the acceptor.
    {
        let _pin_worker = TcpStream::connect(addr).unwrap();
        let _fill_queue = TcpStream::connect(addr).unwrap();
        // Give the worker a moment to pop the first connection.
        std::thread::sleep(Duration::from_millis(100));
        let mut shed = false;
        for _ in 0..20 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut raw = Vec::new();
            if stream.read_to_end(&mut raw).is_ok()
                && String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 503 ")
            {
                shed = true;
                break;
            }
        }
        assert!(shed, "never observed a 503 with worker pinned and queue full");
    }
    // The pinned/queued connections are dropped here; give the single
    // worker a moment to drain their EOFs before the final scrape.
    std::thread::sleep(Duration::from_millis(200));
    let text = scrape(addr);
    assert_valid_exposition(&text);
    assert!(sample(&text, "dtc_http_sheds_total") >= 1.0);

    // /v1/stats satellite: queue depth, uptime, totals and joins present.
    let stats_text = raw_request(addr, "GET", "/v1/stats", None);
    assert_eq!(status_of(&stats_text), 200);
    let stats = Value::from_json(&body_of(&stats_text)).expect("stats JSON");
    let int_at = |a: &str, b: &str| {
        stats.get(a).and_then(|x| x.get(b)).and_then(|x| x.as_i64()).expect("stats field")
    };
    assert!(int_at("queue", "depth") >= 0);
    assert!(int_at("cache", "joins") >= 0);
    assert!(int_at("server", "requests") > 0);
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("uptime_seconds"))
            .and_then(|u| u.as_f64())
            .expect("uptime")
            > 0.0
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn v2_responses_carry_timings_and_duration_header() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue: 16,
        eval_threads: 1,
        cache_path: None,
        cache_cap: None,
    })
    .expect("server starts");
    let addr = server.addr();

    let body = format!("{{\"catalog\":{}}}", loadgen::tiny_catalog_json());
    let text = raw_request(addr, "POST", "/v2/evaluate", Some(&body));
    assert_eq!(status_of(&text), 200, "{text}");

    let duration_us: i64 = text
        .to_lowercase()
        .lines()
        .find_map(|l| l.strip_prefix("x-dtc-duration-us: ").map(str::to_string))
        .expect("X-Dtc-Duration-Us header on v2")
        .trim()
        .parse()
        .expect("header is integer microseconds");
    assert!(duration_us > 0, "a real solve takes measurable time");

    let doc = Value::from_json(&body_of(&text)).expect("valid JSON");
    let timings = doc.get("timings").expect("v2 responses carry a timings object");
    let us = |key: &str| {
        timings.get(key).and_then(|v| v.as_i64()).unwrap_or_else(|| panic!("timings.{key}"))
    };
    let (expand, evaluate, persist, total) =
        (us("expand_us"), us("evaluate_us"), us("persist_us"), us("total_us"));
    assert!(expand >= 0 && evaluate > 0 && persist >= 0);
    assert!(
        total >= expand + evaluate + persist,
        "total {total} < expand {expand} + evaluate {evaluate} + persist {persist}"
    );

    // v1 keeps its response shape: no timings object.
    let v1 = raw_request(addr, "POST", "/v1/evaluate", Some(&loadgen::tiny_catalog_json()));
    assert_eq!(status_of(&v1), 200);
    let v1_doc = Value::from_json(&body_of(&v1)).expect("valid JSON");
    assert!(v1_doc.get("timings").is_none(), "v1 stays timings-free");
    assert!(v1.to_lowercase().contains("x-dtc-duration-us: "), "header is on every route");

    server.shutdown().expect("clean shutdown");
}
