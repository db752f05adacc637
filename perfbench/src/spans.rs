//! Span accounting: inclusive and self time per span name, and the share
//! of a window that no span attributes to a named step.
//!
//! Nesting is derived from the intervals on each thread, not from the
//! recorded parent ids: spans recorded with explicit endpoints (`round`,
//! the daemon's `request`) carry no parent, but they still nest in time.

use mmvc_bench::Json;
use mmvc_substrate::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// One span, from either an in-process sink or a daemon trace file.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub tag: Option<String>,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl SpanRec {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// The spans among drained in-process events (counters are dropped).
pub fn from_events(events: &[TraceEvent]) -> Vec<SpanRec> {
    events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| SpanRec {
            name: e.name.to_string(),
            tag: e.tag.clone(),
            tid: e.tid,
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
        })
        .collect()
}

/// The complete (`"ph": "X"`) events of a Chrome-trace document, as the
/// daemon writes them under its trace directory.
pub fn from_chrome_trace(doc: &Json) -> Vec<SpanRec> {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        return Vec::new();
    };
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| {
            let us = |k: &str| e.get(k).and_then(Json::as_f64);
            let tag = e
                .get("args")
                .and_then(|a| a.get("tag"))
                .and_then(Json::as_str)
                .map(str::to_string);
            Some(SpanRec {
                name: e.get("name")?.as_str()?.to_string(),
                tag,
                tid: e.get("tid")?.as_i64()? as u64,
                start_ns: (us("ts")? * 1e3) as u64,
                dur_ns: (us("dur")? * 1e3) as u64,
            })
        })
        .collect()
}

/// Inclusive and self time of every span, with nesting derived per
/// thread. `nested_in_same_name` marks spans inside an ancestor of the
/// same name, so inclusive sums can skip them and count time once.
pub struct Accounted {
    pub spans: Vec<SpanRec>,
    pub self_ns: Vec<u64>,
    pub nested_in_same_name: Vec<bool>,
}

pub fn account(spans: Vec<SpanRec>) -> Accounted {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, u64::MAX - spans[i].dur_ns));
    let mut child_ns = vec![0u64; spans.len()];
    let mut nested = vec![false; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        // A span nests in the innermost open span that contains it whole;
        // spans that only overlap (concurrent requests on the daemon's
        // reactor thread) are siblings.
        while let Some(&top) = stack.last() {
            if spans[top].end_ns() >= s.end_ns() {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += s.dur_ns;
            nested[i] = stack.iter().any(|&a| spans[a].name == s.name);
        }
        stack.push(i);
    }
    let self_ns = spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns.saturating_sub(c))
        .collect();
    Accounted {
        spans,
        self_ns,
        nested_in_same_name: nested,
    }
}

/// Per-name totals: `(count, inclusive ns, self ns)`.
pub type Totals = BTreeMap<String, (u64, u64, u64)>;

impl Accounted {
    /// Totals per span name; inclusive time counts only outermost spans
    /// of each name.
    pub fn totals(&self) -> Totals {
        let mut out = Totals::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_insert((0, 0, 0));
            e.0 += 1;
            if !self.nested_in_same_name[i] {
                e.1 += s.dur_ns;
            }
            e.2 += self.self_ns[i];
        }
        out
    }

    /// The spans on thread `tid` inside the interval of any span called
    /// `window` (empty when there is none).
    pub fn subset(&self, window: &str, tid: u64) -> Accounted {
        let bounds: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == window && s.tid == tid)
            .map(|w| (w.start_ns, w.end_ns()))
            .collect();
        let keep: Vec<usize> = (0..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.tid == tid
                    && bounds
                        .iter()
                        .any(|&(lo, hi)| s.start_ns >= lo && s.end_ns() <= hi)
            })
            .collect();
        Accounted {
            spans: keep.iter().map(|&i| self.spans[i].clone()).collect(),
            self_ns: keep.iter().map(|&i| self.self_ns[i]).collect(),
            nested_in_same_name: keep.iter().map(|&i| self.nested_in_same_name[i]).collect(),
        }
    }

    /// The thread of the first span called `name`.
    pub fn tid_of(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.tid)
    }

    /// Inclusive milliseconds of outermost spans called `name`
    /// (optionally only those tagged `tag`).
    pub fn incl_ms(&self, name: &str, tag: Option<&str>) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.name == name
                    && !self.nested_in_same_name[*i]
                    && tag.is_none_or(|t| s.tag.as_deref() == Some(t))
            })
            .map(|(_, s)| s.dur_ns as f64 / 1e6)
            .sum()
    }

    /// Self milliseconds of spans called `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e6)
            .sum()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// The share of the root span `root`'s wall time (on its thread)
    /// that no span names as a step: the self time of the benchmark's
    /// own `bench.*` wrappers and of the program's container spans
    /// (`build`, `algorithm`), which say that a layer ran but not where
    /// its time went.
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let Some(r) = self.spans.iter().find(|s| s.name == root) else {
            return f64::NAN;
        };
        let unattributed: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| {
                s.tid == r.tid
                    && s.start_ns >= r.start_ns
                    && s.end_ns() <= r.end_ns()
                    && (s.name.starts_with("bench.") || s.name == "build" || s.name == "algorithm")
            })
            .map(|(_, &ns)| ns)
            .sum();
        unattributed as f64 / r.dur_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, tid: u64, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            tag: None,
            tid,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_and_attribution() {
        let acc = account(vec![
            rec("bench.pass", 1, 0, 100),
            rec("algorithm", 1, 10, 60),
            rec("round", 1, 20, 30),
            rec("exec.run_chunked", 1, 25, 10),
            rec("exec.run_chunked", 2, 25, 10),
            rec("bench.render", 1, 80, 10),
        ]);
        let t = acc.totals();
        assert_eq!(t["bench.pass"], (1, 100, 30));
        assert_eq!(t["algorithm"], (1, 60, 30));
        assert_eq!(t["round"], (1, 30, 20));
        assert_eq!(t["exec.run_chunked"].1, 20);
        // pass self 30 + algorithm self 30 + render 10 of 100.
        assert!((acc.unattributed_frac("bench.pass") - 0.7).abs() < 1e-12);
    }
}
