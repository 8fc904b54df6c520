//! The traced run's span recorder.
//!
//! The benchmark records a span around every call it makes into a layer
//! (`compile`, `key`, `run_batch`, `run_search`, each HTTP request). Calls
//! that happen inside `run_batch` / `run_search` cannot be wrapped from
//! outside, so those calls run with a `dtc_obs` trace installed and the
//! stage spans the program already records at the public entry points of
//! `dtc-petri` (`explore`, `re_rate`) and `dtc-markov`
//! (`stationary_solve`, `uniformized_build`, `march`) are imported under
//! the benchmark's own span. Spans stay in memory until the run ends.

use dtc_obs::trace::{AttrValue, TraceContext, TraceId, TraceSnapshot};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

impl SpanRec {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// The layer a span name belongs to, by the crate whose function it times.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "compile" => "core",
        "explore" | "re_rate" => "petri",
        "stationary_solve" | "uniformized_pass" | "uniformized_build" | "march" | "mttsf" => {
            "markov"
        }
        "key" | "run_batch" | "scenario" | "cache_persist" | "expand" | "evaluate"
        | "persist" => "engine",
        "run_search" | "design_search" | "frontier" | "break_even" => "search",
        "request" => "serve",
        _ => "bench",
    }
}

/// In-memory span arena for one run.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Nanoseconds from the recorder's start to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Adds a span whose times were taken elsewhere (another thread).
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(SpanRec {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Imports a span tree in the JSON form `dtc serve` returns with
    /// `?trace=1` (`name`, `start_us`, `duration_us`, `children`), its
    /// time origin placed at `base_ns`.
    pub fn import_value(&mut self, parent: usize, base_ns: u64, v: &dtc_engine::value::Value) {
        let int = |k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap_or(0).max(0) as u64;
        let id = match v.get("name").and_then(|n| n.as_str()) {
            Some(name) => {
                let start = base_ns + int("start_us") * 1000;
                self.add(name, Some(parent), start, start + int("duration_us") * 1000)
            }
            None => parent,
        };
        for key in ["spans", "children"] {
            for child in v.get(key).and_then(|c| c.as_array()).unwrap_or_default() {
                self.import_value(id, base_ns, child);
            }
        }
    }

    /// Times `f` as span `name` with the program's trace installed, then
    /// imports every span the program recorded as a descendant of it.
    pub fn call<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.begin(name, parent);
        let ctx = TraceContext::new(TraceId(id as u128 + 1));
        let base_ns = self.now_ns();
        let out = {
            let _guard = dtc_obs::trace::install(&ctx);
            f()
        };
        self.end(id);
        self.import(id, base_ns, &ctx.snapshot());
        (id, out)
    }

    fn import(&mut self, parent: usize, base_ns: u64, snap: &TraceSnapshot) {
        let offset = self.spans.len();
        for s in &snap.spans {
            let attrs = s
                .attrs
                .iter()
                .filter_map(|(k, v)| match v {
                    AttrValue::Int(i) => Some((k.clone(), *i as f64)),
                    AttrValue::Float(f) => Some((k.clone(), *f)),
                    _ => None,
                })
                .collect();
            let start_ns = base_ns + s.start_ns;
            self.spans.push(SpanRec {
                name: s.name.clone(),
                parent: Some(s.parent.map_or(parent, |p| offset + p)),
                start_ns,
                end_ns: start_ns + s.duration_ns,
                attrs,
            });
        }
    }

    /// Whether span `i` lies strictly below `root`.
    pub fn is_under(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Spans strictly below `root` named `name`.
    pub fn named_under<'a>(
        &'a self,
        root: usize,
        name: &'a str,
    ) -> impl Iterator<Item = &'a SpanRec> + 'a {
        (0..self.spans.len())
            .filter(move |&i| self.spans[i].name == name && self.is_under(i, root))
            .map(move |i| &self.spans[i])
    }

    /// Total seconds of the spans below `root` named `name`.
    pub fn sum_under(&self, root: usize, name: &str) -> f64 {
        self.named_under(root, name).map(SpanRec::duration_s).sum()
    }

    /// Seconds of `root`'s interval covered by the union of the outermost
    /// spans below it that satisfy `pick` (parallel workers overlap, so
    /// durations are not simply added).
    pub fn covered_under(&self, root: usize, pick: impl Fn(&str) -> bool) -> f64 {
        let chosen: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.is_under(i, root) && pick(&self.spans[i].name))
            .collect();
        let outermost =
            chosen.iter().filter(|&&i| !chosen.iter().any(|&j| j != i && self.is_under(i, j)));
        let intervals =
            outermost.map(|&i| (self.spans[i].start_ns, self.spans[i].end_ns)).collect();
        union_ns(intervals) as f64 * 1e-9
    }

    /// Self time of every layer below and including `root`: each span's
    /// duration minus the part of it its children cover.
    pub fn layer_self_s(&self, root: usize) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for i in (0..self.spans.len()).filter(|&i| i == root || self.is_under(i, root)) {
            let s = &self.spans[i];
            let children = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            let own = (s.end_ns - s.start_ns).saturating_sub(union_ns(children)) as f64 * 1e-9;
            let layer = layer_of(&s.name);
            match totals.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += own,
                None => totals.push((layer, own)),
            }
        }
        totals
    }

    /// The spans as JSON lines: name, layer, parent, start and end (ns).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                layer_of(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Length of the union of half-open intervals, nanoseconds.
fn union_ns(mut v: Vec<(u64, u64)>) -> u64 {
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn program_spans_nest_under_the_call() {
        let mut t = Tracer::new();
        let op = t.begin("op", None);
        let (call, ()) = t.call("run_batch", Some(op), || {
            let _s = dtc_obs::stage_span("explore");
        });
        t.end(op);
        let explore: Vec<_> = t.named_under(op, "explore").collect();
        assert_eq!(explore.len(), 1);
        assert!(t.is_under(t.spans.len() - 1, call));
        let selfs = t.layer_self_s(op);
        let total: f64 = selfs.iter().map(|(_, s)| s).sum();
        assert!((total - t.spans[op].duration_s()).abs() < 1e-6);
    }
}
