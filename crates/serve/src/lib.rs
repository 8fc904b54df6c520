//! # dtc-serve — a concurrent availability-evaluation service
//!
//! The online half of the scenario engine: where `dtc run` answers one
//! catalog and exits, `dtc serve` keeps a worker pool, a bounded accept
//! queue, and one shared [`EvalCache`] resident and answers availability
//! queries continuously over HTTP/1.1 on `std::net` — no external
//! dependencies.
//!
//! * `GET /healthz` — liveness probe.
//! * `GET /metrics` — Prometheus text exposition: per-route request
//!   counters and latency histograms, queue/worker gauges, shed and
//!   read-error counters, the evaluation cache's hit/miss/join/eviction
//!   counters, and the process-global solver-stage spans.
//! * `GET /v1/stats` — cache, queue and server counters.
//! * `POST /v1/evaluate` — a catalog document in the engine's JSON schema;
//!   expanded, deduped, solved for steady state, and rendered back as JSON
//!   (a thin steady-state wrapper over the v2 pipeline).
//! * `POST /v2/evaluate` — `{"catalog": …, "analyses": [...]}` (or a bare
//!   catalog document): runs any analysis set (steady_state, transient,
//!   interval, mttsf, capacity_thresholds, cost, simulation, sensitivity)
//!   per scenario against **one** state-space construction and returns
//!   the full report union.
//! * `POST /v2/search` — `{"catalog": …, "search": {…}?}` (or a bare
//!   catalog document with its own `[search]` section): SLO-driven design
//!   search over the catalog's expanded grid via [`dtc_search`] —
//!   feasible set, cost/availability Pareto frontier, cheapest-feasible
//!   recommendation, break-even disaster rates. The response body is the
//!   canonical search JSON, bit-identical to `dtc search --format json`.
//! * `GET /v2/model/dot?scenario=…[&catalog=table7|fig7]` — the compiled
//!   GSPN of a bundled-catalog scenario as Graphviz DOT, so clients can
//!   *see* the model their numbers come from.
//! * `GET /v1/cache/keys` — the content-addressed keys currently stored.
//! * `GET /v2/debug/trace?id=…` / `GET /v2/debug/traces` /
//!   `GET /v2/debug/slow` — the request-scoped span trees: one trace by
//!   ID, the recent-trace ring, and the slowest-N reservoir (see
//!   [`trace_store`]).
//!
//! Every request runs under a [`dtc_obs::trace::TraceContext`]: the trace
//! ID is taken from an inbound `X-Dtc-Trace-Id` header when present
//! (else generated), echoed back on every response — errors included —
//! and `?trace=1` on `POST /v2/evaluate` inlines the span tree into the
//! response body. Diagnostics go through [`dtc_obs::log`] as JSON lines
//! on stderr (`DTC_LOG=error|warn|info|debug`).
//!
//! The full request/response cookbook lives in `docs/HTTP_API.md`.
//!
//! The hot path is the cache's **single-flight** gate
//! ([`EvalCache::get_or_compute`] via [`dtc_engine::run_batch`]): any
//! number of concurrent requests for the same spec block on one
//! in-progress CTMC solve and share its report. Backpressure is explicit —
//! when the pending-connection queue is full the acceptor answers
//! `503 Service Unavailable` immediately instead of queueing unboundedly.
//!
//! The companion [`loadgen`] module (and `loadgen` binary) hammers a
//! running server over real sockets and reports RPS and latency
//! percentiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod trace_store;

use dtc_core::analysis::AnalysisRequest;
use dtc_engine::value::Value;
use dtc_engine::{
    catalogs, parse_analyses, parse_search_section, results_to_value, run_batch, Catalog,
    EngineError, EvalCache, RunOptions, SearchConfig,
};
use dtc_obs::trace::{self, TraceContext, TraceId};
use dtc_search::SearchOptions;
use http::{read_request, write_response, ReadError, Request, Response, TooLargeKind};
use metrics::ServeMetrics;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace_store::{StoredTrace, TraceStore};

/// Server construction/runtime errors.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(io::Error),
    /// Cache store or catalog failure from the engine layer.
    Engine(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads (`0` = one per available core).
    pub threads: usize,
    /// Pending-connection queue capacity; beyond it the acceptor answers
    /// 503 immediately (backpressure instead of unbounded buffering).
    pub queue: usize,
    /// Worker threads used *inside* one `POST /v1/evaluate` batch. On a
    /// single-scenario batch the whole budget flows into the solver's
    /// parallel march kernels (`dtc_markov::par`). Kept small by
    /// default: request-level parallelism comes from the HTTP worker
    /// pool; `0` means one per available core. Purely a scheduling knob —
    /// responses are bit-identical at every value and the count is
    /// excluded from cache identity.
    pub eval_threads: usize,
    /// Optional persistent JSON cache store.
    pub cache_path: Option<PathBuf>,
    /// Optional cap on resident cache entries (oldest evicted first).
    pub cache_cap: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            threads: 0,
            queue: 128,
            eval_threads: 1,
            cache_path: None,
            cache_cap: None,
        }
    }
}

/// Bounded FIFO of accepted-but-unhandled connections.
#[derive(Debug)]
struct Backlog {
    inner: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

impl Backlog {
    fn new(capacity: usize) -> Backlog {
        Backlog {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues unless full; the stream is handed back on rejection so the
    /// caller can answer 503 on it.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().expect("backlog poisoned");
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once shutdown is flagged and
    /// the queue has drained.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.inner.lock().expect("backlog poisoned");
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).expect("backlog poisoned");
        }
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("backlog poisoned").len()
    }
}

/// State shared between the acceptor, the workers, and [`Server`].
struct Shared {
    cache: Arc<EvalCache>,
    backlog: Backlog,
    eval_threads: usize,
    workers: usize,
    shutdown: AtomicBool,
    started: Instant,
    requests: AtomicUsize,
    evaluations: AtomicUsize,
    rejected: AtomicUsize,
    metrics: ServeMetrics,
    traces: TraceStore,
}

/// A running evaluation service; dropping it does **not** stop the
/// threads — call [`Server::shutdown`] (tests) or [`Server::join`]
/// (the CLI, which serves until killed).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens (or creates) the cache described by `config` and starts the
    /// service.
    pub fn start(config: &ServeConfig) -> Result<Server, ServeError> {
        let cache = EvalCache::open_lenient(config.cache_path.clone(), config.cache_cap);
        Server::start_with(config, Arc::new(cache))
    }

    /// Starts the service around an existing shared cache.
    pub fn start_with(
        config: &ServeConfig,
        cache: Arc<EvalCache>,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = dtc_engine::resolve_threads(config.threads);
        let shared = Arc::new(Shared {
            cache,
            backlog: Backlog::new(config.queue),
            eval_threads: config.eval_threads,
            workers: worker_count,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            requests: AtomicUsize::new(0),
            evaluations: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            metrics: ServeMetrics::new(worker_count, config.queue.max(1)),
            traces: TraceStore::new(trace_store::DEFAULT_RING, trace_store::DEFAULT_SLOW),
        });

        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dtc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dtc-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };

        Ok(Server { addr, shared, acceptor, workers })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared evaluation cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.shared.cache
    }

    /// Connections answered 503 because the accept queue was full.
    pub fn sheds(&self) -> usize {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Blocks on the acceptor — serves until the process dies.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Stops accepting, drains the queue, joins every thread, and persists
    /// a disk-backed cache.
    pub fn shutdown(self) -> Result<(), ServeError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; unblock idle workers via the condvar.
        let _ = TcpStream::connect(self.addr);
        self.shared.backlog.ready.notify_all();
        let _ = self.acceptor.join();
        self.shared.backlog.ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.cache.persist()?;
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept failure (e.g. EMFILE under fd
                // exhaustion) must not busy-spin the acceptor at 100% CPU;
                // back off briefly so workers can close sockets.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Err(mut stream) = shared.backlog.try_push(stream) {
            // Saturated: refuse immediately instead of buffering without
            // bound. The client should retry with backoff.
            let shed_started = Instant::now();
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            shared.metrics.sheds.inc();
            let mut resp = Response::error(503, "evaluation queue is full, retry later");
            resp.extra.push(("retry-after", "1".to_string()));
            stamp_response(&mut resp, TraceId::generate(), shed_started);
            let _ = write_response(&mut stream, &resp, false);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.backlog.pop(&shared.shutdown) {
        shared.metrics.busy_workers.inc();
        let _ = handle_connection(shared, stream);
        shared.metrics.busy_workers.dec();
    }
}

/// Stamps the observability response headers every answer carries —
/// errors, sheds and unroutable requests included: `x-dtc-trace-id` (so
/// the client can quote the ID in a bug report even when nothing was
/// recorded) and `x-dtc-duration-us`.
fn stamp_response(resp: &mut Response, id: TraceId, started: Instant) {
    resp.extra.push(("x-dtc-duration-us", started.elapsed().as_micros().to_string()));
    resp.extra.push(("x-dtc-trace-id", id.to_string()));
}

fn handle_connection(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    // An idle or trickling peer cannot pin a worker forever.
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut served_on_connection = 0usize;
    loop {
        let read_started = Instant::now();
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()), // peer closed between requests
            Err(ReadError::Io(_)) => return Ok(()), // timeout or reset
            Err(ReadError::TooLarge(kind)) => {
                // 431 for an oversized header section, 413 for a declared
                // body beyond the limit.
                let (label, what) = match kind {
                    TooLargeKind::Header => ("header_too_large", "header section"),
                    TooLargeKind::Body => ("body_too_large", "body"),
                };
                shared.metrics.observe_read_error(label);
                let mut resp =
                    Response::error(kind.status(), &format!("{what} exceeds the server limit"));
                stamp_response(&mut resp, TraceId::generate(), read_started);
                return write_response(&mut writer, &resp, false);
            }
            Err(ReadError::Malformed(msg)) => {
                shared.metrics.observe_read_error("malformed");
                let mut resp = Response::error(400, &msg);
                stamp_response(&mut resp, TraceId::generate(), read_started);
                return write_response(&mut writer, &resp, false);
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if served_on_connection > 0 {
            shared.metrics.keepalive_reuse.inc();
        }
        let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        let started = Instant::now();
        // Every request runs under its own trace: the inbound
        // `X-Dtc-Trace-Id` wins (so callers can correlate across systems),
        // else one is minted. The context is installed only for the
        // duration of routing — the guard must drop before the snapshot.
        let trace_id = request
            .header("x-dtc-trace-id")
            .and_then(TraceId::parse)
            .unwrap_or_else(TraceId::generate);
        let ctx = TraceContext::new(trace_id);
        let mut response = {
            let _guard = trace::install(&ctx);
            let _root = trace::trace_span("request");
            trace::attr_str("method", &request.method);
            trace::attr_str("route", metrics::route_label(request.path()));
            let response = route(shared, &request);
            trace::attr_int("status", response.status as i64);
            response
        };
        let micros = started.elapsed().as_micros();
        stamp_response(&mut response, ctx.id(), started);
        shared.metrics.observe_request(
            request.path(),
            response.status,
            started.elapsed().as_secs_f64(),
        );
        shared.traces.record(StoredTrace {
            id: ctx.id().to_string(),
            method: request.method.clone(),
            route: metrics::route_label(request.path()).to_string(),
            status: response.status,
            duration_us: micros as u64,
            snapshot: ctx.snapshot(),
        });
        dtc_obs::log::debug(
            "dtc-serve",
            "request",
            &[
                ("method", request.method.as_str().into()),
                ("path", request.path().into()),
                ("status", (response.status as i64).into()),
                ("duration_us", (micros as i64).into()),
                ("trace_id", ctx.id().to_string().into()),
            ],
        );
        write_response(&mut writer, &response, keep_alive)?;
        served_on_connection += 1;
        if !keep_alive {
            return Ok(());
        }
    }
}

fn route(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics_scrape(shared),
        ("GET", "/v1/stats") => stats(shared),
        ("GET", "/v1/cache/keys") => cache_keys(shared),
        ("POST", "/v1/evaluate") => evaluate(shared, request),
        ("POST", "/v2/evaluate") => evaluate_v2(shared, request),
        ("POST", "/v2/search") => search_v2(shared, request),
        ("GET", "/v2/model/dot") => model_dot(request),
        ("GET", "/v2/debug/trace") => debug_trace(shared, request),
        ("GET", "/v2/debug/traces") => debug_traces(shared),
        ("GET", "/v2/debug/slow") => debug_slow(shared),
        (
            _,
            "/healthz" | "/metrics" | "/v1/stats" | "/v1/cache/keys" | "/v1/evaluate"
            | "/v2/evaluate" | "/v2/search" | "/v2/model/dot" | "/v2/debug/trace"
            | "/v2/debug/traces" | "/v2/debug/slow",
        ) => Response::error(405, "method not allowed for this route"),
        _ => Response::error(404, "no such route"),
    }
}

/// `GET /v2/debug/trace?id=…`: one retained trace — listing metadata plus
/// the full nested span tree — by the ID echoed in `X-Dtc-Trace-Id`.
fn debug_trace(shared: &Shared, request: &Request) -> Response {
    let Some(id) = request.query_param("id") else {
        return Response::error(
            400,
            "debug/trace needs ?id=TRACE_ID (the X-Dtc-Trace-Id of a recent request)",
        );
    };
    match shared.traces.get(&id) {
        Some(t) => Response::json(200, trace_store::trace_to_value(&t).to_json()),
        None => {
            let (ring, slow) = shared.traces.capacities();
            Response::error(
                404,
                &format!(
                    "no retained trace with id {id:?} (the server keeps the {ring} most \
                     recent traces plus the {slow} slowest)"
                ),
            )
        }
    }
}

/// `GET /v2/debug/traces`: the recent-trace ring, newest first — listing
/// metadata only; fetch a tree via `/v2/debug/trace?id=…`.
fn debug_traces(shared: &Shared) -> Response {
    let traces = shared.traces.recent();
    let doc = Value::object([
        ("count", Value::Int(traces.len() as i64)),
        (
            "traces",
            Value::Array(traces.iter().map(|t| trace_store::summary_to_value(t)).collect()),
        ),
    ]);
    Response::json(200, doc.to_json())
}

/// `GET /v2/debug/slow`: the slowest retained traces, slowest first —
/// these survive ring rotation, so the worst requests stay inspectable.
fn debug_slow(shared: &Shared) -> Response {
    let traces = shared.traces.slowest();
    let doc = Value::object([
        ("count", Value::Int(traces.len() as i64)),
        (
            "traces",
            Value::Array(traces.iter().map(|t| trace_store::summary_to_value(t)).collect()),
        ),
    ]);
    Response::json(200, doc.to_json())
}

/// `GET /metrics`: the Prometheus text scrape — this server's HTTP
/// instruments, the evaluation cache's counters, and the process-global
/// solver-stage registry.
fn metrics_scrape(shared: &Shared) -> Response {
    shared.metrics.queue_depth.set(shared.backlog.depth() as i64);
    Response::text(
        200,
        dtc_obs::expo::CONTENT_TYPE,
        shared.metrics.render_scrape(&shared.cache.stats()),
    )
}

/// `GET /v2/model/dot?scenario=…[&catalog=table7|fig7]`: renders the
/// compiled GSPN of one bundled-catalog scenario as Graphviz DOT
/// (`text/vnd.graphviz`; pipe through `dot -Tsvg`). Scenario names are the
/// expanded names `dtc run` prints — percent-encode spaces and brackets.
/// Without `catalog`, both bundled catalogs are searched.
/// The bundled catalogs' expanded scenario lists, computed once per
/// process — `/v2/model/dot` serves from these instead of re-running grid
/// expansion per request. Bundled catalogs are golden-tested to expand;
/// should one ever fail here, it is served as an empty list (every lookup
/// in it 404s) rather than panicking a worker.
fn bundled_expansions() -> &'static [(String, Vec<dtc_engine::Scenario>)] {
    static EXPANSIONS: std::sync::OnceLock<Vec<(String, Vec<dtc_engine::Scenario>)>> =
        std::sync::OnceLock::new();
    EXPANSIONS.get_or_init(|| {
        [catalogs::table7(), catalogs::fig7()]
            .into_iter()
            .map(|catalog| {
                let scenarios = catalog.expand().unwrap_or_else(|e| {
                    dtc_obs::log::warn(
                        "dtc-serve",
                        "bundled catalog does not expand",
                        &[
                            ("catalog", catalog.name.as_str().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    Vec::new()
                });
                (catalog.name, scenarios)
            })
            .collect()
    })
}

fn model_dot(request: &Request) -> Response {
    let Some(scenario) = request.query_param("scenario") else {
        return Response::error(
            400,
            "model/dot needs ?scenario=NAME (an expanded scenario name, percent-encoded)",
        );
    };
    let wanted = request.query_param("catalog");
    let wanted = wanted.as_deref();
    if let Some(name) = wanted {
        if !bundled_expansions().iter().any(|(n, _)| n == name) {
            return Response::error(
                400,
                &format!("unknown catalog {name:?} (expected table7 or fig7)"),
            );
        }
    }
    let searched =
        || bundled_expansions().iter().filter(move |(n, _)| wanted.is_none_or(|w| w == n));
    if let Some(s) =
        searched().flat_map(|(_, scenarios)| scenarios).find(|s| s.name == scenario)
    {
        return match dtc_core::CloudModel::build(&s.spec) {
            Ok(model) => Response::text(
                200,
                "text/vnd.graphviz; charset=utf-8",
                dtc_petri::to_dot(model.net()),
            ),
            Err(e) => Response::error(500, &format!("scenario does not compile: {e}")),
        };
    }
    let names: Vec<String> = searched()
        .flat_map(|(_, scenarios)| scenarios)
        .take(3)
        .map(|s| format!("{:?}", s.name))
        .collect();
    Response::error(
        404,
        &format!(
            "no scenario named {scenario:?} in {}; names look like {}, …",
            searched().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join("/"),
            names.join(", ")
        ),
    )
}

fn healthz(shared: &Shared) -> Response {
    let doc = Value::object([
        ("status", Value::Str("ok".into())),
        ("workers", Value::Int(shared.workers as i64)),
        ("queue_depth", Value::Int(shared.backlog.depth() as i64)),
    ]);
    Response::json(200, doc.to_json())
}

fn stats(shared: &Shared) -> Response {
    let cache = shared.cache.stats();
    let doc = Value::object([
        (
            "cache",
            Value::object([
                ("hits", Value::Int(cache.hits as i64)),
                ("misses", Value::Int(cache.misses as i64)),
                ("joins", Value::Int(cache.joins as i64)),
                ("entries", Value::Int(cache.entries as i64)),
                ("evictions", Value::Int(cache.evictions as i64)),
                // Batch-dedup effectiveness: how many candidates the
                // evaluate/search batches submitted vs. how many distinct
                // specs were left after in-batch dedup.
                ("batch_candidates", Value::Int(cache.batch_candidates as i64)),
                ("batch_distinct", Value::Int(cache.batch_distinct as i64)),
            ]),
        ),
        (
            "queue",
            Value::object([
                ("capacity", Value::Int(shared.backlog.capacity as i64)),
                ("depth", Value::Int(shared.backlog.depth() as i64)),
                ("rejected", Value::Int(shared.rejected.load(Ordering::Relaxed) as i64)),
            ]),
        ),
        (
            "server",
            Value::object([
                ("workers", Value::Int(shared.workers as i64)),
                ("requests", Value::Int(shared.requests.load(Ordering::Relaxed) as i64)),
                ("evaluations", Value::Int(shared.evaluations.load(Ordering::Relaxed) as i64)),
                ("uptime_seconds", Value::Float(shared.started.elapsed().as_secs_f64())),
            ]),
        ),
    ]);
    Response::json(200, doc.to_json())
}

fn cache_keys(shared: &Shared) -> Response {
    let keys = shared.cache.keys();
    let doc = Value::object([
        ("count", Value::Int(keys.len() as i64)),
        ("keys", Value::Array(keys.into_iter().map(Value::Str).collect())),
    ]);
    Response::json(200, doc.to_json())
}

/// A parsed `POST /v1/evaluate` / `POST /v2/evaluate` / `POST /v2/search`
/// request body. Every evaluation route accepts the same two shapes
/// through [`parse_catalog_request`], so a custom catalog document can be
/// POSTed anywhere with one set of error messages:
///
/// * a **bare catalog document** — exactly what `dtc run` reads from
///   disk, serialized to JSON; or
/// * the **envelope** `{"catalog": <catalog document>, "analyses": …?,
///   "search": …?}` — the document plus request-level overrides.
struct CatalogRequest {
    catalog: Catalog,
    /// The envelope's `analyses` override, when present.
    analyses: Option<Vec<AnalysisRequest>>,
    /// The envelope's `search` override, when present.
    search: Option<SearchConfig>,
}

/// The one request-body catalog parser behind all three POST routes.
///
/// A body is the envelope when its `"catalog"` value is itself a catalog
/// *document* (it has a `catalog` metadata table or a `scenario` template
/// list); in a bare document the top-level `"catalog"` key is just the
/// name/description metadata, so the two shapes cannot be confused.
fn parse_catalog_request(body: &[u8]) -> Result<CatalogRequest, Box<Response>> {
    let bad = |msg: String| Box::new(Response::error(400, &msg));
    let text = std::str::from_utf8(body).map_err(|_| bad("body is not UTF-8".into()))?;
    let root = Value::from_json(text).map_err(|e| bad(format!("body does not parse: {e}")))?;
    let envelope = root
        .get("catalog")
        .is_some_and(|inner| inner.get("catalog").is_some() || inner.get("scenario").is_some());
    let doc = if envelope { root.get("catalog").expect("envelope has catalog") } else { &root };
    let catalog =
        Catalog::from_value(doc).map_err(|e| bad(format!("catalog does not parse: {e}")))?;
    let mut parsed = CatalogRequest { catalog, analyses: None, search: None };
    if envelope {
        if let Some(v) = root.get("analyses") {
            parsed.analyses =
                Some(parse_analyses(v).map_err(|e| bad(format!("bad analyses: {e}")))?);
        }
        if let Some(v) = root.get("search") {
            parsed.search =
                Some(parse_search_section(v).map_err(|e| bad(format!("bad search: {e}")))?);
        }
    }
    Ok(parsed)
}

/// `POST /v1/evaluate`: the original steady-state route, now a thin
/// wrapper over the v2 pipeline with a fixed `[steady_state]` analysis
/// set. Existing v1 response fields are unchanged; the shared pipeline
/// additionally includes the `analyses` list and per-result report union
/// (additive for v1 clients).
fn evaluate(shared: &Shared, request: &Request) -> Response {
    let parsed = match parse_catalog_request(&request.body) {
        Ok(parsed) => parsed,
        Err(resp) => return *resp,
    };
    run_analyses(shared, &parsed.catalog, vec![AnalysisRequest::SteadyState], false, false)
}

/// `POST /v2/evaluate`: `{"catalog": <catalog document>, "analyses":
/// [...]}` or a bare catalog document. The analysis set falls back to the
/// catalog's own `[analyses]` section (which itself defaults to steady
/// state). `?trace=1` inlines the request's span tree into the response.
fn evaluate_v2(shared: &Shared, request: &Request) -> Response {
    let inline_trace = request.query_param("trace").is_some_and(|v| v == "1" || v == "true");
    let parsed = match parse_catalog_request(&request.body) {
        Ok(parsed) => parsed,
        Err(resp) => return *resp,
    };
    let analyses = parsed.analyses.clone().unwrap_or_else(|| parsed.catalog.analyses.clone());
    run_analyses(shared, &parsed.catalog, analyses, true, inline_trace)
}

/// `POST /v2/search`: SLO-driven design search over the POSTed catalog's
/// expanded grid. The search configuration comes from the envelope's
/// `"search"` object when present, else the catalog's own `[search]`
/// section; a body carrying neither is a 400. Candidates are evaluated
/// through the same shared single-flight cache as the evaluate routes (so
/// a repeated search is answered from cache), and the response body is
/// the canonical search JSON — bit-identical to
/// `dtc search --format json` on the same catalog.
fn search_v2(shared: &Shared, request: &Request) -> Response {
    let parsed = match parse_catalog_request(&request.body) {
        Ok(parsed) => parsed,
        Err(resp) => return *resp,
    };
    let config = match parsed.search.or_else(|| parsed.catalog.search.clone()) {
        Some(config) => config,
        None => {
            return Response::error(
                400,
                "search needs a configuration: give the catalog a [search] section or \
                 POST {\"catalog\": …, \"search\": {\"availability_floor\": …}}",
            )
        }
    };
    let opts = SearchOptions { threads: shared.eval_threads, ..SearchOptions::default() };
    let report = match dtc_search::run_search(&parsed.catalog, &config, &shared.cache, &opts) {
        Ok(report) => report,
        Err(e) => return Response::error(400, &format!("search failed: {e}")),
    };
    shared.evaluations.fetch_add(1, Ordering::Relaxed);
    if report.stats.evaluated > 0 || report.stats.probe_evaluations > 0 {
        // Same rationale as the evaluate pipeline: flush fresh solves
        // before a kill can discard them. In-memory caches no-op.
        let _span = trace::trace_span("persist");
        if let Err(e) = shared.cache.persist() {
            dtc_obs::log::warn(
                "dtc-serve",
                "cache persist failed",
                &[("error", e.to_string().into())],
            );
        }
    }
    Response::json(200, dtc_search::report::report_to_value(&report).to_json())
}

/// The shared evaluation pipeline behind both routes: expand, fan out
/// through the single-flight cache with the given analysis set, persist,
/// render. With `include_timings` (the v2 route) the response additionally
/// carries a `"timings"` object with per-stage wall times in microseconds;
/// with `inline_trace` (`?trace=1`) it carries the request's span tree so
/// far (the `request` root is still open when the snapshot is taken).
fn run_analyses(
    shared: &Shared,
    catalog: &Catalog,
    analyses: Vec<AnalysisRequest>,
    include_timings: bool,
    inline_trace: bool,
) -> Response {
    let pipeline_started = Instant::now();
    let scenarios = {
        let _span = trace::trace_span("expand");
        let scenarios = match catalog.expand() {
            Ok(scenarios) => scenarios,
            Err(e) => return Response::error(400, &format!("catalog does not expand: {e}")),
        };
        trace::attr_int("scenarios", scenarios.len() as i64);
        scenarios
    };
    let expand_us = pipeline_started.elapsed().as_micros();
    let kinds: Vec<Value> = analyses.iter().map(|a| Value::Str(a.kind().into())).collect();
    // `--eval-threads` is the whole per-request solver budget: run_batch
    // divides it between batch workers and the perturbed-model fan-out
    // inside a sensitivity analysis, so one request cannot oversubscribe
    // the pool (neither threads× workers nor one sweep worker per core).
    let opts = RunOptions { threads: shared.eval_threads, analyses, ..RunOptions::default() };
    let evaluate_started = Instant::now();
    let result = {
        let _span = trace::trace_span("evaluate");
        let result = run_batch(&scenarios, &shared.cache, &opts);
        trace::attr_int("evaluated", result.evaluated as i64);
        trace::attr_int("cached", result.cached as i64);
        result
    };
    let evaluate_us = evaluate_started.elapsed().as_micros();
    shared.evaluations.fetch_add(1, Ordering::Relaxed);
    let persist_started = Instant::now();
    if result.evaluated > 0 {
        // Flush new solves to a disk-backed store right away: a served
        // process is normally stopped by a kill, which would otherwise
        // discard everything since startup. In-memory caches no-op here.
        let _span = trace::trace_span("persist");
        if let Err(e) = shared.cache.persist() {
            dtc_obs::log::warn(
                "dtc-serve",
                "cache persist failed",
                &[("error", e.to_string().into())],
            );
        }
    }
    let persist_us = persist_started.elapsed().as_micros();
    let mut fields = vec![
        ("catalog", Value::Str(catalog.name.clone())),
        ("analyses", Value::Array(kinds)),
        ("results", results_to_value(&scenarios, &result.outcomes)),
        (
            "summary",
            Value::object([
                ("scenarios", Value::Int(result.outcomes.len() as i64)),
                ("evaluated", Value::Int(result.evaluated as i64)),
                ("cached", Value::Int(result.cached as i64)),
                ("deduplicated", Value::Int(result.deduplicated as i64)),
                ("solve_ms", Value::Float(result.solve_time.as_secs_f64() * 1000.0)),
            ]),
        ),
    ];
    if include_timings {
        fields.push((
            "timings",
            Value::object([
                ("expand_us", Value::Int(expand_us as i64)),
                ("evaluate_us", Value::Int(evaluate_us as i64)),
                ("persist_us", Value::Int(persist_us as i64)),
                ("total_us", Value::Int(pipeline_started.elapsed().as_micros() as i64)),
            ]),
        ));
    }
    if inline_trace {
        // The tree as collected so far: everything below the `request`
        // root is finished; the root itself is snapshotted mid-flight
        // (its `open` flag says so) since the response is still being
        // rendered inside it.
        if let Some(snapshot) = trace::snapshot_current() {
            fields.push(("trace", trace_store::snapshot_to_value(&snapshot)));
        }
    }
    Response::json(200, Value::object(fields).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_rejects_when_full_and_drains_fifo() {
        // Loop a listener to mint real TcpStreams without a server.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mint = || {
            let client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            (client, server_side)
        };

        let backlog = Backlog::new(2);
        let shutdown = AtomicBool::new(false);
        let (_c1, s1) = mint();
        let (_c2, s2) = mint();
        let (_c3, s3) = mint();
        let p1 = s1.peer_addr().unwrap();
        let p2 = s2.peer_addr().unwrap();
        assert!(backlog.try_push(s1).is_ok());
        assert!(backlog.try_push(s2).is_ok());
        let bounced = backlog.try_push(s3);
        assert!(bounced.is_err(), "third connection exceeds capacity 2");
        assert_eq!(backlog.depth(), 2);

        assert_eq!(backlog.pop(&shutdown).unwrap().peer_addr().unwrap(), p1, "FIFO");
        assert_eq!(backlog.pop(&shutdown).unwrap().peer_addr().unwrap(), p2);
        shutdown.store(true, Ordering::SeqCst);
        assert!(backlog.pop(&shutdown).is_none(), "drained + shutdown ends workers");
    }

    #[test]
    fn backlog_capacity_is_at_least_one() {
        assert_eq!(Backlog::new(0).capacity, 1);
    }
}
