//! The content-addressed evaluation cache.
//!
//! Maps [`SpecKey`]s (structural hashes of spec + evaluation options +
//! analysis set) to memoized analysis-report sets
//! ([`Vec<AnalysisReport>`]). Lives in memory, with an optional on-disk
//! JSON store so repeated `dtc` invocations skip re-exploring state spaces
//! entirely. Lookups verify the stored canonical encoding, so a hash
//! collision degrades to a miss, never to a wrong answer.
//!
//! The store format is **version 2** (entries carry the full report
//! union); version-1 stores — which held a single steady-state report per
//! entry — are migrated on load: each old entry becomes a
//! `[steady_state]`-set entry under its re-derived v2 key, so previously
//! solved steady-state results stay warm.
//!
//! Two properties make the cache safe to share across a long-running
//! concurrent server ([`dtc-serve`]):
//!
//! * **Single-flight evaluation** ([`EvalCache::get_or_compute`]):
//!   concurrent requests for the same key block on one in-progress solve
//!   instead of racing duplicate ~10⁵-state CTMC solves. Exactly one
//!   caller computes; the rest wait and share the result.
//! * **Bounded residency** ([`EvalCache::with_max_entries`]): an optional
//!   entry cap with oldest-insertion-first eviction, counted in
//!   [`CacheStats::evictions`], so resident memory cannot grow without
//!   limit.
//!
//! [`dtc-serve`]: https://docs.rs/dtc-serve

use crate::error::{EngineError, Result};
use crate::hash::{encode_analyses, key_of_encoding, SpecKey};
use crate::value::Value;
use dtc_core::analysis::{AnalysisReport, AnalysisRequest};
use dtc_core::economics::CostBreakdown;
use dtc_core::metrics::AvailabilityReport;
use dtc_core::params::{downtime_hours_per_year, nines};
use dtc_core::sensitivity::{Parameter, SensitivityRow};
use dtc_core::CloudError;
use dtc_markov::{Method, SolveStats};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hit/miss counters and current size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered without running a solve (stored entries plus
    /// followers that joined an in-flight solve).
    pub hits: usize,
    /// Lookups that required an evaluation.
    pub misses: usize,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries dropped by the max-entries cap since construction.
    pub evictions: usize,
    /// Followers that joined another caller's in-flight solve (a subset of
    /// `hits`): the single-flight savings counter.
    pub joins: usize,
    /// Scenarios submitted through batch runs (`run_batch` candidates,
    /// including design-search sweeps) since construction.
    pub batch_candidates: usize,
    /// Distinct spec keys among those batch candidates: the in-batch dedup
    /// effectiveness denominator. A frontier re-run adds candidates without
    /// adding distinct specs, so the gap is the dedup + cache savings.
    pub batch_distinct: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    canonical: String,
    /// Shared with every hit: report unions can carry whole curves, so
    /// cache hits hand out `Arc` clones instead of deep-copying.
    reports: Arc<Vec<AnalysisReport>>,
    /// Monotone insertion stamp; the smallest is evicted first.
    seq: u64,
}

/// How [`EvalCache::get_or_compute`] obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Served from a stored entry.
    Hit,
    /// Waited on another caller's in-progress solve and shared its result.
    Joined,
    /// This caller ran the solve.
    Computed,
}

/// The result type flowing through single-flight evaluation: the full
/// analysis-report union, in request order, behind an [`Arc`] so cache
/// hits and joined flights share one allocation.
pub type EvalResult = std::result::Result<Arc<Vec<AnalysisReport>>, CloudError>;

/// One in-progress solve that concurrent callers can rendezvous on.
#[derive(Debug)]
struct Flight {
    canonical: String,
    state: Mutex<Option<EvalResult>>,
    done: Condvar,
}

impl Flight {
    fn new(canonical: &str) -> Flight {
        Flight {
            canonical: canonical.to_string(),
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn resolve(&self, result: EvalResult) {
        let mut state = self.state.lock().expect("flight mutex poisoned");
        if state.is_none() {
            *state = Some(result);
        }
        self.done.notify_all();
    }

    fn wait(&self) -> EvalResult {
        let mut state = self.state.lock().expect("flight mutex poisoned");
        loop {
            match &*state {
                Some(result) => return result.clone(),
                None => state = self.done.wait(state).expect("flight mutex poisoned"),
            }
        }
    }
}

/// Resolves an abandoned flight if the leader's compute panics, so
/// followers get a [`CloudError::Panicked`] instead of blocking forever.
struct FlightGuard<'a> {
    cache: &'a EvalCache,
    key: &'a str,
    flight: Arc<Flight>,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flight.resolve(Err(CloudError::Panicked(
                "single-flight leader panicked before resolving".into(),
            )));
            self.cache.remove_flight(self.key);
        }
    }
}

/// A concurrent evaluation cache with an optional JSON backing file.
#[derive(Debug)]
pub struct EvalCache {
    map: Mutex<BTreeMap<String, Entry>>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    joins: AtomicUsize,
    batch_candidates: AtomicUsize,
    batch_distinct: AtomicUsize,
    seq: AtomicU64,
    max_entries: Option<usize>,
    store: Option<PathBuf>,
}

impl EvalCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> EvalCache {
        EvalCache {
            map: Mutex::new(BTreeMap::new()),
            flights: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            joins: AtomicUsize::new(0),
            batch_candidates: AtomicUsize::new(0),
            batch_distinct: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            max_entries: None,
            store: None,
        }
    }

    /// Caps resident entries; inserting past the cap evicts the
    /// oldest-inserted entry first. A cap of 0 means "no limit" (a cache
    /// that can hold nothing is never useful).
    ///
    /// Entries already present — e.g. loaded by [`EvalCache::with_store`]
    /// from an over-cap store file — are trimmed immediately, so the cache
    /// is bounded from construction on, never only after the first insert.
    pub fn with_max_entries(mut self, cap: usize) -> EvalCache {
        self.max_entries = (cap > 0).then_some(cap);
        let mut map = self.map.lock().expect("cache mutex poisoned");
        self.enforce_cap_locked(&mut map);
        drop(map);
        self
    }

    /// A cache backed by a JSON file; existing entries are loaded, and
    /// [`EvalCache::persist`] writes the current contents back.
    ///
    /// Errors on an unreadable or invalid store; use
    /// [`EvalCache::fresh_store`] to start over while keeping the path.
    pub fn with_store(path: impl Into<PathBuf>) -> Result<EvalCache> {
        let path = path.into();
        let cache = EvalCache::in_memory();
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| EngineError::Io(format!("{}: {e}", path.display())))?;
            cache.load_json(&text)?;
        }
        Ok(EvalCache { store: Some(path), ..cache })
    }

    /// A cache that will persist to `path` without loading whatever is
    /// there now — the recovery path when the store file is corrupt.
    pub fn fresh_store(path: impl Into<PathBuf>) -> EvalCache {
        EvalCache { store: Some(path.into()), ..EvalCache::in_memory() }
    }

    /// The forgiving open both the CLI and the server use: no path means
    /// in-memory, a corrupt store warns on stderr and is replaced on the
    /// next persist (instead of wedging every subsequent run), and an
    /// optional max-entries cap is applied — trimming an over-cap store
    /// right away.
    pub fn open_lenient(path: Option<PathBuf>, cap: Option<usize>) -> EvalCache {
        let cache = match path {
            Some(path) => match EvalCache::with_store(path.clone()) {
                Ok(cache) => cache,
                Err(e) => {
                    dtc_obs::log::warn(
                        "dtc-engine",
                        "ignoring unusable cache store",
                        &[
                            ("path", path.display().to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    EvalCache::fresh_store(path)
                }
            },
            None => EvalCache::in_memory(),
        };
        match cap {
            Some(cap) => cache.with_max_entries(cap),
            None => cache,
        }
    }

    /// Collision-checked lookup without touching the hit/miss counters.
    fn lookup(&self, key: &SpecKey, canonical: &str) -> Option<Arc<Vec<AnalysisReport>>> {
        let map = self.map.lock().expect("cache mutex poisoned");
        match map.get(&key.0) {
            Some(e) if e.canonical == canonical => Some(Arc::clone(&e.reports)),
            _ => None,
        }
    }

    /// Looks up a report set. The canonical encoding must match the stored
    /// one for a hit (collision safety).
    pub fn get(&self, key: &SpecKey, canonical: &str) -> Option<Arc<Vec<AnalysisReport>>> {
        match self.lookup(key, canonical) {
            Some(reports) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(reports)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts into a locked map, enforcing the entry cap by evicting the
    /// oldest-inserted entries first.
    fn insert_locked(
        &self,
        map: &mut BTreeMap<String, Entry>,
        key: String,
        canonical: &str,
        reports: Arc<Vec<AnalysisReport>>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        map.insert(key, Entry { canonical: canonical.to_string(), reports, seq });
        self.enforce_cap_locked(map);
    }

    fn enforce_cap_locked(&self, map: &mut BTreeMap<String, Entry>) {
        let Some(cap) = self.max_entries else { return };
        while map.len() > cap {
            let oldest = map
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| k.clone())
                .expect("map is non-empty past the cap");
            map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stores a report set under its key, evicting the oldest entry if a
    /// max-entries cap is configured and exceeded. Accepts a plain `Vec`
    /// or an already-shared `Arc`.
    pub fn put(
        &self,
        key: &SpecKey,
        canonical: &str,
        reports: impl Into<Arc<Vec<AnalysisReport>>>,
    ) {
        let mut map = self.map.lock().expect("cache mutex poisoned");
        self.insert_locked(&mut map, key.0.clone(), canonical, reports.into());
    }

    fn remove_flight(&self, key: &str) {
        self.flights.lock().expect("flight map poisoned").remove(key);
    }

    /// Single-flight evaluation: returns the stored report if present,
    /// otherwise ensures `compute` runs **exactly once** per key across all
    /// concurrent callers — one leader solves while followers block and
    /// share its result (errors included, though errors are never stored,
    /// so a later call retries).
    ///
    /// The [`Fetch`] tag reports which path was taken. `Hit` and `Joined`
    /// count as cache hits; only the leader's `Computed` counts a miss.
    pub fn get_or_compute<F>(
        &self,
        key: &SpecKey,
        canonical: &str,
        compute: F,
    ) -> (EvalResult, Fetch)
    where
        F: FnOnce() -> EvalResult,
    {
        if let Some(report) = self.lookup(key, canonical) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(report), Fetch::Hit);
        }
        let (flight, leading) = {
            let mut flights = self.flights.lock().expect("flight map poisoned");
            match flights.get(&key.0) {
                // A different canonical under the same key is a hash
                // collision mid-flight: solve independently rather than
                // sharing a result for a different spec.
                Some(f) if f.canonical != canonical => {
                    drop(flights);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let result = compute();
                    if let Ok(reports) = &result {
                        self.put(key, canonical, reports.clone());
                    }
                    return (result, Fetch::Computed);
                }
                Some(f) => (Arc::clone(f), false),
                None => {
                    // Re-check the store while holding the flights lock: a
                    // leader that finished between our lookup miss and here
                    // has already done put() (before remove_flight), so
                    // flight-absent + entry-present is a reliable hit.
                    // Without this, that window would mint a duplicate
                    // leader and re-solve the key.
                    if let Some(report) = self.lookup(key, canonical) {
                        drop(flights);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (Ok(report), Fetch::Hit);
                    }
                    let f = Arc::new(Flight::new(canonical));
                    flights.insert(key.0.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leading {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut guard = FlightGuard {
                cache: self,
                key: &key.0,
                flight: Arc::clone(&flight),
                armed: true,
            };
            let result = compute();
            if let Ok(reports) = &result {
                self.put(key, canonical, reports.clone());
            }
            flight.resolve(result.clone());
            self.remove_flight(&key.0);
            guard.armed = false;
            (result, Fetch::Computed)
        } else {
            let result = flight.wait();
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.joins.fetch_add(1, Ordering::Relaxed);
            (result, Fetch::Joined)
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache mutex poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored keys, in key order.
    pub fn keys(&self) -> Vec<String> {
        self.map.lock().expect("cache mutex poisoned").keys().cloned().collect()
    }

    /// Drops every stored entry (counters are kept), returning how many
    /// were removed. Persisting afterwards writes an empty store.
    pub fn clear(&self) -> usize {
        let mut map = self.map.lock().expect("cache mutex poisoned");
        let n = map.len();
        map.clear();
        n
    }

    /// Records one batch submission: `candidates` scenarios of which
    /// `distinct` had unique spec keys. [`crate::executor::run_batch`]
    /// calls this so `dtc cache stats` and `/v1/stats` can report
    /// search-batch dedup effectiveness.
    pub fn note_batch(&self, candidates: usize, distinct: usize) {
        self.batch_candidates.fetch_add(candidates, Ordering::Relaxed);
        self.batch_distinct.fetch_add(distinct, Ordering::Relaxed);
    }

    /// Counters plus current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
            joins: self.joins.load(Ordering::Relaxed),
            batch_candidates: self.batch_candidates.load(Ordering::Relaxed),
            batch_distinct: self.batch_distinct.load(Ordering::Relaxed),
        }
    }

    /// Where this cache persists to, if anywhere.
    pub fn store_path(&self) -> Option<&Path> {
        self.store.as_deref()
    }

    /// Writes the store file, if one was configured.
    ///
    /// Entries written to the file by other processes since our load are
    /// merged in first (our entries win on key conflicts), so concurrent
    /// invocations sharing one store extend it instead of overwriting each
    /// other; a corrupt concurrent state is simply replaced. The write goes
    /// through a temp file + rename, so a crash mid-persist cannot leave a
    /// truncated store; the temp name is unique per call (process id plus a
    /// process-wide sequence number), so concurrent persists — two HTTP
    /// workers, or two caches on one store — never rename each other's
    /// file away. The read-merge-write sequence itself is not atomic:
    /// two processes persisting at the same instant can still drop the
    /// slower one's new entries — a re-solve on the next run, never a wrong
    /// answer.
    pub fn persist(&self) -> Result<()> {
        let Some(path) = &self.store else { return Ok(()) };
        let _persist_span = dtc_obs::trace::trace_span("cache_persist");
        if let Ok(text) = std::fs::read_to_string(path) {
            let _ = self.load_json_keeping_existing(&text);
        }
        let json = self.to_json();
        dtc_obs::trace::attr_int("entries", self.len() as i64);
        dtc_obs::trace::attr_int("bytes", json.len() as i64);
        static PERSIST_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = PERSIST_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("json.{}.{seq}.tmp", std::process::id()));
        let written = std::fs::write(&tmp, json)
            .map_err(|e| EngineError::Io(format!("{}: {e}", tmp.display())))
            .and_then(|()| {
                std::fs::rename(&tmp, path)
                    .map_err(|e| EngineError::Io(format!("{}: {e}", path.display())))
            });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Serializes every entry to the store's JSON schema (version 2).
    pub fn to_json(&self) -> String {
        let map = self.map.lock().expect("cache mutex poisoned");
        let entries: Vec<Value> = map
            .iter()
            .map(|(key, e)| {
                let mut t = BTreeMap::new();
                t.insert("key".into(), Value::Str(key.clone()));
                t.insert("canonical".into(), Value::Str(e.canonical.clone()));
                t.insert(
                    "reports".into(),
                    Value::Array(e.reports.iter().map(analysis_report_to_value).collect()),
                );
                Value::Table(t)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Int(2));
        root.insert("entries".into(), Value::Array(entries));
        Value::Table(root).to_json()
    }

    /// Merges entries from a JSON store document into this cache,
    /// overwriting entries with colliding keys.
    pub fn load_json(&self, text: &str) -> Result<()> {
        self.merge_json(text, true)
    }

    /// Like [`EvalCache::load_json`], but entries already in memory win on
    /// key conflicts (used when merging concurrent writers at persist
    /// time).
    pub fn load_json_keeping_existing(&self, text: &str) -> Result<()> {
        self.merge_json(text, false)
    }

    fn merge_json(&self, text: &str, overwrite: bool) -> Result<()> {
        let root = Value::from_json(text)?;
        let version = match root.get("version").and_then(|v| v.as_i64()) {
            Some(v @ (1 | 2)) => v,
            v => {
                return Err(EngineError::Schema(format!(
                    "unsupported cache store version {v:?}"
                )))
            }
        };
        let entries = root
            .get("entries")
            .and_then(|v| v.as_array())
            .ok_or_else(|| EngineError::Schema("cache store has no entries array".into()))?;
        let mut map = self.map.lock().expect("cache mutex poisoned");
        for e in entries {
            if solved_by_retired_method(e) {
                continue;
            }
            let canonical = e
                .get("canonical")
                .and_then(|v| v.as_str())
                .ok_or_else(|| EngineError::Schema("cache entry missing canonical".into()))?;
            let (key, canonical, reports) = if version == 1 {
                // Migration: a v1 entry held one steady-state report keyed
                // by spec + options only. Re-key it as the v2
                // `[steady_state]` analysis set so the old solve stays
                // warm for steady-state-only requests.
                let report = report_from_value(e.get("report").ok_or_else(|| {
                    EngineError::Schema("cache entry missing report".into())
                })?)?;
                let mut canonical = canonical.to_string();
                encode_analyses(&mut canonical, &[AnalysisRequest::SteadyState]);
                let key = key_of_encoding(&canonical).0;
                (key, canonical, vec![AnalysisReport::SteadyState(report)])
            } else {
                let key = e
                    .get("key")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| EngineError::Schema("cache entry missing key".into()))?;
                let reports = e
                    .get("reports")
                    .and_then(|v| v.as_array())
                    .ok_or_else(|| EngineError::Schema("cache entry missing reports".into()))?
                    .iter()
                    .map(analysis_report_from_value)
                    .collect::<Result<Vec<_>>>()?;
                (key.to_string(), canonical.to_string(), reports)
            };
            if !overwrite && map.contains_key(&key) {
                continue;
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            map.insert(key, Entry { canonical, reports: Arc::new(reports), seq });
        }
        self.enforce_cap_locked(&mut map);
        Ok(())
    }
}

/// Solver names earlier releases stored but this one no longer solves
/// with. The method is part of an entry's key, so no request can reach
/// such an entry again: loading skips it (and the next persist drops it)
/// instead of rejecting the whole store.
const RETIRED_METHODS: [&str; 3] = ["power", "jacobi", "sor"];

/// Whether a stored entry (v1 `report` or v2 `reports`) was solved by a
/// retired method.
fn solved_by_retired_method(entry: &Value) -> bool {
    let v2 = entry.get("reports").and_then(|r| r.as_array()).into_iter().flatten();
    entry.get("report").into_iter().chain(v2).any(|r| {
        r.get("solver_method")
            .and_then(|m| m.as_str())
            .is_some_and(|m| RETIRED_METHODS.contains(&m))
    })
}

fn floats_to_value(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Float(x)).collect())
}

fn floats_from_value(v: &Value, key: &str, ctx: &str) -> Result<Vec<f64>> {
    let items = v
        .get(key)
        .and_then(|x| x.as_array())
        .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing float array {key}")))?;
    items
        .iter()
        .map(|x| {
            x.as_f64().ok_or_else(|| {
                EngineError::Schema(format!("{ctx}: non-numeric entry in {key}"))
            })
        })
        .collect()
}

/// Serializes one [`AnalysisReport`] variant for the v2 store and the JSON
/// output/HTTP layers. Every object carries a `"kind"` discriminator.
pub fn analysis_report_to_value(r: &AnalysisReport) -> Value {
    let mut t = BTreeMap::new();
    t.insert("kind".into(), Value::Str(r.kind().into()));
    match r {
        AnalysisReport::SteadyState(report) => match report_to_value(report) {
            Value::Table(fields) => t.extend(fields),
            _ => unreachable!("report_to_value returns a table"),
        },
        AnalysisReport::Transient { time_points, availability } => {
            t.insert("time_points".into(), floats_to_value(time_points));
            t.insert("availability".into(), floats_to_value(availability));
        }
        AnalysisReport::Interval { horizon_hours, availability } => {
            t.insert("horizon_hours".into(), Value::Float(*horizon_hours));
            t.insert("availability".into(), Value::Float(*availability));
        }
        AnalysisReport::Mttsf { hours } => {
            t.insert("hours".into(), Value::Float(*hours));
        }
        AnalysisReport::CapacityThresholds { availability } => {
            t.insert("availability".into(), floats_to_value(availability));
        }
        AnalysisReport::Cost { breakdown } => {
            t.insert("downtime".into(), Value::Float(breakdown.downtime));
            t.insert("infrastructure".into(), Value::Float(breakdown.infrastructure));
            t.insert("total".into(), Value::Float(breakdown.total()));
        }
        AnalysisReport::Simulation { mean, half_width, replications, confidence } => {
            t.insert("mean".into(), Value::Float(*mean));
            t.insert("half_width".into(), Value::Float(*half_width));
            t.insert("replications".into(), Value::Int(*replications as i64));
            t.insert("confidence".into(), Value::Float(*confidence));
        }
        AnalysisReport::Sensitivity { rel_step, rows } => {
            t.insert("rel_step".into(), Value::Float(*rel_step));
            let rows: Vec<Value> = rows
                .iter()
                .map(|r| {
                    let mut row = BTreeMap::new();
                    // The stable key is authoritative (and parsed back);
                    // the label is a human-readable convenience for JSON
                    // consumers.
                    row.insert("parameter".into(), Value::Str(r.parameter.key()));
                    row.insert("label".into(), Value::Str(r.parameter.to_string()));
                    row.insert("base_value".into(), Value::Float(r.base_value));
                    row.insert("elasticity".into(), Value::Float(r.elasticity));
                    row.insert(
                        "unavailability_shift".into(),
                        Value::Float(r.unavailability_shift),
                    );
                    Value::Table(row)
                })
                .collect();
            t.insert("rows".into(), Value::Array(rows));
        }
    }
    Value::Table(t)
}

/// Inverse of [`analysis_report_to_value`].
pub fn analysis_report_from_value(v: &Value) -> Result<AnalysisReport> {
    let ctx = "cache analysis report";
    let f = |key: &str| -> Result<f64> {
        v.get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing {key}")))
    };
    let kind = v
        .get("kind")
        .and_then(|x| x.as_str())
        .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing kind")))?;
    Ok(match kind {
        "steady_state" => AnalysisReport::SteadyState(report_from_value(v)?),
        "transient" => AnalysisReport::Transient {
            time_points: floats_from_value(v, "time_points", ctx)?,
            availability: floats_from_value(v, "availability", ctx)?,
        },
        "interval" => AnalysisReport::Interval {
            horizon_hours: f("horizon_hours")?,
            availability: f("availability")?,
        },
        "mttsf" => AnalysisReport::Mttsf { hours: f("hours")? },
        "capacity_thresholds" => AnalysisReport::CapacityThresholds {
            availability: floats_from_value(v, "availability", ctx)?,
        },
        "cost" => AnalysisReport::Cost {
            breakdown: CostBreakdown {
                downtime: f("downtime")?,
                infrastructure: f("infrastructure")?,
            },
        },
        "simulation" => AnalysisReport::Simulation {
            mean: f("mean")?,
            half_width: f("half_width")?,
            replications: v
                .get("replications")
                .and_then(|x| x.as_i64())
                .and_then(|x| usize::try_from(x).ok())
                .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing replications")))?,
            confidence: f("confidence")?,
        },
        "sensitivity" => {
            let rows = v
                .get("rows")
                .and_then(|x| x.as_array())
                .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing rows array")))?
                .iter()
                .map(|row| {
                    let rf = |key: &str| -> Result<f64> {
                        row.get(key).and_then(|x| x.as_f64()).ok_or_else(|| {
                            EngineError::Schema(format!("{ctx}: row missing {key}"))
                        })
                    };
                    let key =
                        row.get("parameter").and_then(|x| x.as_str()).ok_or_else(|| {
                            EngineError::Schema(format!("{ctx}: row missing parameter"))
                        })?;
                    let parameter = Parameter::from_key(key).ok_or_else(|| {
                        EngineError::Schema(format!("{ctx}: unknown parameter key {key:?}"))
                    })?;
                    Ok(SensitivityRow {
                        parameter,
                        base_value: rf("base_value")?,
                        elasticity: rf("elasticity")?,
                        unavailability_shift: rf("unavailability_shift")?,
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            AnalysisReport::Sensitivity { rel_step: f("rel_step")?, rows }
        }
        other => return Err(EngineError::Schema(format!("{ctx}: unknown kind {other:?}"))),
    })
}

/// Serializes a report for the store. `nines` and downtime are derived
/// fields recomputed on load, which keeps every stored number finite.
pub fn report_to_value(r: &AvailabilityReport) -> Value {
    let mut t = BTreeMap::new();
    t.insert("availability".into(), Value::Float(r.availability));
    t.insert("expected_running_vms".into(), Value::Float(r.expected_running_vms));
    t.insert(
        "capacity_oriented_availability".into(),
        Value::Float(r.capacity_oriented_availability),
    );
    t.insert("tangible_states".into(), Value::Int(r.tangible_states as i64));
    t.insert("edges".into(), Value::Int(r.edges as i64));
    t.insert("vanishing_markings".into(), Value::Int(r.vanishing_markings as i64));
    t.insert("solver_iterations".into(), Value::Int(r.solve.iterations as i64));
    t.insert("solver_residual".into(), Value::Float(r.solve.residual));
    t.insert("solver_method".into(), Value::Str(r.solve.method.name().into()));
    Value::Table(t)
}

/// Inverse of [`report_to_value`].
pub fn report_from_value(v: &Value) -> Result<AvailabilityReport> {
    let ctx = "cache report";
    let f = |key: &str| -> Result<f64> {
        v.get(key)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing {key}")))
    };
    let u = |key: &str| -> Result<usize> {
        v.get(key)
            .and_then(|x| x.as_i64())
            .and_then(|x| usize::try_from(x).ok())
            .ok_or_else(|| EngineError::Schema(format!("{ctx}: missing {key}")))
    };
    let availability = f("availability")?;
    if !(0.0..=1.0).contains(&availability) {
        return Err(EngineError::Schema(format!(
            "{ctx}: availability {availability} outside [0, 1]"
        )));
    }
    let method = v
        .get("solver_method")
        .and_then(|x| x.as_str())
        .and_then(|x| x.parse::<Method>().ok())
        .ok_or_else(|| EngineError::Schema(format!("{ctx}: bad solver_method")))?;
    Ok(AvailabilityReport {
        availability,
        nines: nines(availability),
        downtime_hours_per_year: downtime_hours_per_year(availability),
        expected_running_vms: f("expected_running_vms")?,
        capacity_oriented_availability: f("capacity_oriented_availability")?,
        tangible_states: u("tangible_states")?,
        edges: u("edges")?,
        vanishing_markings: u("vanishing_markings")?,
        solve: SolveStats {
            iterations: u("solver_iterations")?,
            residual: f("solver_residual")?,
            method,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::key_of_encoding;
    use dtc_petri::reach::ReachStats;

    fn report(a: f64) -> AvailabilityReport {
        AvailabilityReport::new(
            a,
            3.9,
            4,
            ReachStats { tangible_states: 126_000, vanishing_markings: 40, edges: 500_000 },
            SolveStats { iterations: 321, residual: 4.2e-13, method: Method::GaussSeidel },
        )
    }

    /// A one-element steady-state report set (the common cache payload).
    fn set(a: f64) -> Arc<Vec<AnalysisReport>> {
        Arc::new(vec![AnalysisReport::SteadyState(report(a))])
    }

    #[test]
    fn get_put_and_stats() {
        let cache = EvalCache::in_memory();
        let key = key_of_encoding("canon-a");
        assert!(cache.get(&key, "canon-a").is_none());
        cache.put(&key, "canon-a", set(0.999));
        let hit = cache.get(&key, "canon-a").unwrap();
        assert_eq!(hit, set(0.999));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn collision_means_miss_not_wrong_answer() {
        let cache = EvalCache::in_memory();
        let key = key_of_encoding("canon-a");
        cache.put(&key, "canon-a", set(0.999));
        // Same key, different canonical form: must refuse.
        assert!(cache.get(&key, "canon-b").is_none());
    }

    #[test]
    fn report_round_trip_is_exact() {
        for a in [0.0, 0.5, 0.9997317, 1.0] {
            let r = report(a);
            let v = report_to_value(&r);
            let back = report_from_value(&Value::from_json(&v.to_json()).unwrap()).unwrap();
            assert_eq!(r, back, "availability {a}");
        }
    }

    #[test]
    fn analysis_report_union_round_trips_exactly() {
        let reports = vec![
            AnalysisReport::SteadyState(report(0.9997317)),
            AnalysisReport::Transient {
                time_points: vec![0.0, 24.0, 8760.0],
                availability: vec![1.0, 0.99991, 0.9973],
            },
            AnalysisReport::Interval { horizon_hours: 8760.0, availability: 0.99934 },
            AnalysisReport::Mttsf { hours: 1234.5678 },
            AnalysisReport::CapacityThresholds { availability: vec![1.0, 0.999, 0.99, 0.9] },
            AnalysisReport::Cost {
                breakdown: CostBreakdown { downtime: 23_500.0, infrastructure: 446_000.0 },
            },
            AnalysisReport::Simulation {
                mean: 0.9991,
                half_width: 0.0003,
                replications: 8,
                confidence: 0.95,
            },
            AnalysisReport::Sensitivity {
                rel_step: 0.05,
                rows: vec![
                    SensitivityRow {
                        parameter: Parameter::OspmMttr,
                        base_value: 12.0,
                        elasticity: -0.0123456789,
                        unavailability_shift: 1.2e-4,
                    },
                    SensitivityRow {
                        parameter: Parameter::DirectMtt(0, 1),
                        base_value: 3.25,
                        elasticity: 0.0004,
                        unavailability_shift: -4.0e-7,
                    },
                ],
            },
        ];
        for r in &reports {
            let v = analysis_report_to_value(r);
            let back =
                analysis_report_from_value(&Value::from_json(&v.to_json()).unwrap()).unwrap();
            assert_eq!(*r, back, "variant {}", r.kind());
        }
        assert!(analysis_report_from_value(&Value::object([(
            "kind",
            Value::Str("wat".into())
        )]))
        .is_err());
    }

    #[test]
    fn v1_store_migrates_to_steady_state_sets() {
        // A version-1 store entry: single steady-state report, keyed by
        // spec + options only.
        let v1_canonical = "v1;spec-bytes;opts:stuff";
        let mut entry = BTreeMap::new();
        entry.insert("key".into(), Value::Str(key_of_encoding(v1_canonical).0));
        entry.insert("canonical".into(), Value::Str(v1_canonical.into()));
        entry.insert("report".into(), report_to_value(&report(0.998)));
        let mut root = BTreeMap::new();
        root.insert("version".into(), Value::Int(1));
        root.insert("entries".into(), Value::Array(vec![Value::Table(entry)]));
        let text = Value::Table(root).to_json();

        let cache = EvalCache::in_memory();
        cache.load_json(&text).unwrap();
        assert_eq!(cache.len(), 1);

        // The migrated entry answers a v2 lookup for the [steady_state]
        // analysis set of the same spec + options.
        let mut v2_canonical = v1_canonical.to_string();
        encode_analyses(&mut v2_canonical, &[AnalysisRequest::SteadyState]);
        let key = key_of_encoding(&v2_canonical);
        let hit = cache.get(&key, &v2_canonical).expect("migrated entry is warm");
        assert_eq!(*hit, vec![AnalysisReport::SteadyState(report(0.998))]);

        // Persisting re-writes it as version 2; a reload round-trips.
        let rewritten = cache.to_json();
        assert!(rewritten.contains("\"version\":2"));
        let reloaded = EvalCache::in_memory();
        reloaded.load_json(&rewritten).unwrap();
        assert_eq!(reloaded.get(&key, &v2_canonical).unwrap(), hit);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("dtc-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let _ = std::fs::remove_file(&path);

        let cache = EvalCache::with_store(&path).unwrap();
        let key = key_of_encoding("canon-x");
        cache.put(&key, "canon-x", set(0.995));
        cache.persist().unwrap();

        let reloaded = EvalCache::with_store(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.get(&key, "canon-x").unwrap(), set(0.995));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_writers_merge_at_persist() {
        let dir = std::env::temp_dir().join(format!("dtc-cache-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.json");
        let _ = std::fs::remove_file(&path);

        // Two processes load the same (empty) store…
        let a = EvalCache::with_store(&path).unwrap();
        let b = EvalCache::with_store(&path).unwrap();
        a.put(&key_of_encoding("spec-a"), "spec-a", set(0.99));
        b.put(&key_of_encoding("spec-b"), "spec-b", set(0.98));
        // …and persist one after the other: the second must keep the
        // first's entry instead of overwriting the file with its own view.
        a.persist().unwrap();
        b.persist().unwrap();

        let merged = EvalCache::with_store(&path).unwrap();
        assert_eq!(merged.len(), 2, "both writers' entries survive");
        assert!(merged.get(&key_of_encoding("spec-a"), "spec-a").is_some());
        assert!(merged.get(&key_of_encoding("spec-b"), "spec-b").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_persists_never_collide_on_the_temp_file() {
        let dir = std::env::temp_dir().join(format!("dtc-cache-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let _ = std::fs::remove_file(&path);

        // Two threads on one cache plus two on a second cache over the same
        // store: every persist must succeed, since each writes and renames
        // its own temp file.
        let a = Arc::new(EvalCache::with_store(&path).unwrap());
        let b = Arc::new(EvalCache::with_store(&path).unwrap());
        let start = Arc::new(std::sync::Barrier::new(4));
        let writers: Vec<_> = [(&a, "a0"), (&a, "a1"), (&b, "b0"), (&b, "b1")]
            .into_iter()
            .map(|(cache, writer)| {
                let (cache, start) = (Arc::clone(cache), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..20 {
                        let canonical = format!("{writer}-{i}");
                        cache.put(&key_of_encoding(&canonical), &canonical, set(0.99));
                        cache.persist().unwrap_or_else(|e| panic!("{writer} persist {i}: {e}"));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        a.persist().unwrap();
        b.persist().unwrap();
        let reopened = EvalCache::with_store(&path).expect("final store parses");
        assert_eq!(reopened.len(), 80, "sequential persists after the race merge everything");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_store_ignores_corrupt_file_and_replaces_it() {
        let dir = std::env::temp_dir().join(format!("dtc-cache-fresh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "garbage{").unwrap();

        assert!(EvalCache::with_store(&path).is_err(), "strict open rejects corruption");
        let cache = EvalCache::fresh_store(&path);
        assert!(cache.is_empty());
        cache.put(&key_of_encoding("x"), "x", set(0.9));
        cache.persist().unwrap();
        let reopened = EvalCache::with_store(&path).unwrap();
        assert_eq!(reopened.len(), 1, "corrupt store was replaced");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_store_rejected() {
        let cache = EvalCache::in_memory();
        assert!(cache.load_json("{\"version\":3,\"entries\":[]}").is_err());
        assert!(cache.load_json("not json").is_err());
        assert!(cache.load_json("{\"version\":1,\"entries\":[{\"key\":\"k\"}]}").is_err());
        assert!(
            cache
                .load_json("{\"version\":2,\"entries\":[{\"key\":\"k\",\"canonical\":\"c\"}]}")
                .is_err(),
            "v2 entries need a reports array"
        );
    }

    #[test]
    fn max_entries_evicts_oldest_first() {
        let cache = EvalCache::in_memory().with_max_entries(2);
        let (ka, kb, kc) = (key_of_encoding("a"), key_of_encoding("b"), key_of_encoding("c"));
        cache.put(&ka, "a", set(0.91));
        cache.put(&kb, "b", set(0.92));
        cache.put(&kc, "c", set(0.93));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ka, "a").is_none(), "oldest entry evicted");
        assert!(cache.get(&kb, "b").is_some());
        assert!(cache.get(&kc, "c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn with_max_entries_trims_preloaded_entries() {
        // e.g. an over-cap disk store loaded before the cap is applied.
        let cache = EvalCache::in_memory();
        for i in 0..5 {
            let canon = format!("pre{i}");
            cache.put(&key_of_encoding(&canon), &canon, set(0.9));
        }
        let cache = cache.with_max_entries(2);
        assert_eq!(cache.len(), 2, "bounded from construction on");
        assert_eq!(cache.stats().evictions, 3);
        assert!(cache.get(&key_of_encoding("pre4"), "pre4").is_some(), "newest survive");
        assert!(cache.get(&key_of_encoding("pre0"), "pre0").is_none());
    }

    #[test]
    fn open_lenient_covers_missing_corrupt_and_capped() {
        assert!(EvalCache::open_lenient(None, None).store_path().is_none());

        let dir = std::env::temp_dir().join(format!("dtc-cache-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::write(&path, "garbage{").unwrap();
        let cache = EvalCache::open_lenient(Some(path.clone()), Some(2));
        assert!(cache.is_empty(), "corrupt store replaced, not fatal");
        assert_eq!(cache.store_path(), Some(path.as_path()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_cap_means_unlimited() {
        let cache = EvalCache::in_memory().with_max_entries(0);
        for i in 0..10 {
            let canon = format!("c{i}");
            cache.put(&key_of_encoding(&canon), &canon, set(0.9));
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn get_or_compute_computes_once_then_hits() {
        let cache = EvalCache::in_memory();
        let key = key_of_encoding("gc");
        let (r, how) = cache.get_or_compute(&key, "gc", || Ok(set(0.97)));
        assert_eq!(how, Fetch::Computed);
        assert_eq!(r.unwrap(), set(0.97));
        let (r2, how2) = cache.get_or_compute(&key, "gc", || panic!("must not recompute"));
        assert_eq!(how2, Fetch::Hit);
        assert_eq!(r2.unwrap(), set(0.97));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn get_or_compute_errors_are_shared_but_not_cached() {
        let cache = EvalCache::in_memory();
        let key = key_of_encoding("err");
        let (r, how) =
            cache.get_or_compute(&key, "err", || Err(CloudError::BadSpec("nope".into())));
        assert_eq!(how, Fetch::Computed);
        assert!(r.is_err());
        assert!(cache.is_empty(), "errors must not be memoized");
        let (r2, how2) = cache.get_or_compute(&key, "err", || Ok(set(0.9)));
        assert_eq!(how2, Fetch::Computed, "error is retried, not replayed");
        assert!(r2.is_ok());
    }

    #[test]
    fn leader_panic_does_not_wedge_followers() {
        use std::sync::Barrier;
        let cache = Arc::new(EvalCache::in_memory());
        let barrier = Arc::new(Barrier::new(2));
        let follower = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait(); // the leader holds the flight by now
                cache.get_or_compute(&key_of_encoding("boom"), "boom", || Ok(set(0.5)))
            })
        };
        let led = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(&key_of_encoding("boom"), "boom", || {
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("leader dies mid-solve")
            })
        }));
        assert!(led.is_err(), "the leader's panic propagates to its caller");
        // The essential property: the follower terminates. Depending on
        // timing it either joined the doomed flight (shared Panicked error)
        // or arrived after cleanup and solved on its own.
        let (r, how) = follower.join().expect("follower thread finishes");
        match how {
            Fetch::Joined => {
                assert!(matches!(r, Err(CloudError::Panicked(_))), "got {r:?}")
            }
            Fetch::Computed | Fetch::Hit => assert!(r.is_ok()),
        }
    }

    #[test]
    fn keys_and_clear() {
        let cache = EvalCache::in_memory();
        cache.put(&key_of_encoding("a"), "a", set(0.9));
        cache.put(&key_of_encoding("b"), "b", set(0.8));
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&key_of_encoding("a").0));
        assert_eq!(cache.clear(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_solved_by_retired_methods_are_skipped_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("dtc-cache-retired-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let (gs, old) = (key_of_encoding("canon-gs"), key_of_encoding("canon-old"));
        let writer = EvalCache::in_memory();
        writer.put(&gs, "canon-gs", set(0.995));
        let mut direct = report(0.99);
        direct.solve.method = Method::Direct;
        writer.put(&old, "canon-old", Arc::new(vec![AnalysisReport::SteadyState(direct)]));
        // What an older release wrote for a `--solver power` run.
        let text = writer.to_json().replace("\"direct\"", "\"power\"");
        assert!(text.contains("\"solver_method\":\"power\""), "{text}");
        std::fs::write(&path, &text).unwrap();

        let cache =
            EvalCache::with_store(&path).expect("a retired method does not reject the store");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&gs, "canon-gs").unwrap(), set(0.995), "the GS entry stays warm");
        assert!(cache.get(&old, "canon-old").is_none());
        cache.persist().unwrap();
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(
            !rewritten.contains("canon-old"),
            "persist drops the retired entry: {rewritten}"
        );
        assert_eq!(EvalCache::with_store(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
