//! Point-in-time exports of a registry: plain data, two expositions.
//!
//! A [`Snapshot`] is what crosses process boundaries — the `Msg::Stats`
//! reply and the `--metrics-file` dump. It owns no atomics; everything
//! is ordinary sorted maps and vectors, so it can be merged
//! ([`Snapshot::merge`] sums instruments and concatenates
//! spans/events — used to serve one view over a mediator's registry plus
//! the process-wide [`crate::global`] one), diffed in tests, and encoded.
//!
//! Two encodings, both deterministic:
//!
//! * **JSON** ([`Snapshot::to_json`] / [`Snapshot::from_json`]): compact,
//!   keys sorted, integers exact up to `u64::MAX`. The encoding is the
//!   *schema*: `to_json ∘ from_json` is the identity on canonical text,
//!   which CI asserts as the stability guard.
//! * **Prometheus-style text** ([`Snapshot::to_prometheus`]): counters
//!   and gauges as samples with `# TYPE` comments, histograms as
//!   cumulative `_bucket{le="…"}` series plus `_sum`/`_count` and
//!   derived `_p50`/`_p95`/`_p99` gauges. Spans and events don't fit the
//!   sample model and appear only as summary comments (use JSON for
//!   them). Metric names may carry their own label set
//!   (`fetch{source="a"}`); suffixes and the `le` label are spliced
//!   inside the braces.
//!
//! Snapshots are not atomic across instruments — counters are read one
//! by one while writers proceed. Within one histogram, `count` is
//! derived from the bucket counts so quantiles are always consistent
//! with it.

use crate::hist::quantile_from_buckets;
use crate::json::{self, Json};
use std::collections::BTreeMap;

/// A point-in-time view of one (or several merged) registries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counts by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous levels by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency/size distributions by metric name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Spans currently retained in the ring, ordered by start time.
    pub spans: Vec<SpanSnapshot>,
    /// Events currently retained, in arrival order.
    pub events: Vec<EventSnapshot>,
}

/// One histogram's state: sparse buckets and derived statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// `(inclusive upper bound, count)` for each non-empty bucket,
    /// ascending; `u64::MAX` is the overflow (+Inf) bucket.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations (sum of bucket counts).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Median (bucket upper bound containing the ⌈0.50·count⌉-th value).
    pub p50: u64,
    /// 95th percentile, same definition.
    pub p95: u64,
    /// 99th percentile, same definition.
    pub p99: u64,
}

impl HistSnapshot {
    /// Builds a snapshot from sparse buckets, deriving count and
    /// quantiles.
    pub fn from_parts(buckets: Vec<(u64, u64)>, sum: u64) -> HistSnapshot {
        let count = buckets.iter().map(|&(_, n)| n).sum();
        HistSnapshot {
            p50: quantile_from_buckets(&buckets, count, 0.50),
            p95: quantile_from_buckets(&buckets, count, 0.95),
            p99: quantile_from_buckets(&buckets, count, 0.99),
            buckets,
            count,
            sum,
        }
    }

    /// The combined distribution (bucket-wise sum, quantiles rederived).
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let mut by_le: BTreeMap<u64, u64> = BTreeMap::new();
        for &(le, n) in self.buckets.iter().chain(&other.buckets) {
            *by_le.entry(le).or_insert(0) += n;
        }
        HistSnapshot::from_parts(
            by_le.into_iter().collect(),
            self.sum.wrapping_add(other.sum),
        )
    }
}

/// One timed pipeline step of one request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// The request's trace id (0 = untraced).
    pub trace: u64,
    /// Interned stage name, e.g. `query` or `fetch/site0`.
    pub stage: String,
    /// Start, in registry-clock nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// One rare, timestamped occurrence (e.g. a breaker transition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventSnapshot {
    /// When, in registry-clock nanoseconds.
    pub at_ns: u64,
    /// Stable machine-readable kind, e.g. `breaker-open`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

fn uint(v: u64) -> Json {
    Json::Int(v as i128)
}

impl Snapshot {
    /// Sums instruments and concatenates spans/events with `other`.
    /// Intended for registries with disjoint metric names (a shared name
    /// is summed, which is only meaningful for counters).
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in &other.counters {
            *out.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *out.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            out.histograms
                .entry(name.clone())
                .and_modify(|mine| *mine = mine.merge(h))
                .or_insert_with(|| h.clone());
        }
        out.spans.extend(other.spans.iter().cloned());
        out.spans.sort_by(|a, b| {
            (a.start_ns, a.trace, &a.stage, a.dur_ns)
                .cmp(&(b.start_ns, b.trace, &b.stage, b.dur_ns))
        });
        out.events.extend(other.events.iter().cloned());
        out.events.sort_by_key(|e| e.at_ns);
        out
    }

    /// The canonical JSON encoding (compact, sorted keys, exact ints).
    pub fn to_json(&self) -> String {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), uint(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Json::Arr(
                        h.buckets
                            .iter()
                            .map(|&(le, n)| Json::Arr(vec![uint(le), uint(n)]))
                            .collect(),
                    );
                    let obj = Json::Obj(vec![
                        ("buckets".into(), buckets),
                        ("count".into(), uint(h.count)),
                        ("p50".into(), uint(h.p50)),
                        ("p95".into(), uint(h.p95)),
                        ("p99".into(), uint(h.p99)),
                        ("sum".into(), uint(h.sum)),
                    ]);
                    (k.clone(), obj)
                })
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("dur_ns".into(), uint(s.dur_ns)),
                        ("stage".into(), Json::Str(s.stage.clone())),
                        ("start_ns".into(), uint(s.start_ns)),
                        ("trace".into(), uint(s.trace)),
                    ])
                })
                .collect(),
        );
        let events = Json::Arr(
            self.events
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("at_ns".into(), uint(e.at_ns)),
                        ("detail".into(), Json::Str(e.detail.clone())),
                        ("kind".into(), Json::Str(e.kind.clone())),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("events".into(), events),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
            ("schema".into(), Json::Str(crate::SCHEMA.into())),
            ("spans".into(), spans),
        ])
        .render()
    }

    /// Decodes [`Snapshot::to_json`] output. Unknown top-level keys are
    /// ignored (forward compatibility); a wrong or missing `schema` is
    /// an error.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = json::parse(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some(s) if s == crate::SCHEMA => {}
            Some(s) => return Err(format!("unsupported snapshot schema {s:?}")),
            None => return Err("missing snapshot schema".to_string()),
        }
        let mut snap = Snapshot::default();
        if let Some(members) = root.get("counters").and_then(Json::as_obj) {
            for (k, v) in members {
                let v = v.as_u64().ok_or_else(|| format!("bad counter {k:?}"))?;
                snap.counters.insert(k.clone(), v);
            }
        }
        if let Some(members) = root.get("gauges").and_then(Json::as_obj) {
            for (k, v) in members {
                let v = v.as_i64().ok_or_else(|| format!("bad gauge {k:?}"))?;
                snap.gauges.insert(k.clone(), v);
            }
        }
        if let Some(members) = root.get("histograms").and_then(Json::as_obj) {
            for (k, h) in members {
                let err = || format!("bad histogram {k:?}");
                let mut buckets = Vec::new();
                for pair in h.get("buckets").and_then(Json::as_arr).ok_or_else(err)? {
                    let pair = pair.as_arr().ok_or_else(err)?;
                    match pair {
                        [le, n] => buckets
                            .push((le.as_u64().ok_or_else(err)?, n.as_u64().ok_or_else(err)?)),
                        _ => return Err(err()),
                    }
                }
                let sum = h.get("sum").and_then(Json::as_u64).ok_or_else(err)?;
                snap.histograms
                    .insert(k.clone(), HistSnapshot::from_parts(buckets, sum));
            }
        }
        if let Some(items) = root.get("spans").and_then(Json::as_arr) {
            for s in items {
                let err = || "bad span".to_string();
                snap.spans.push(SpanSnapshot {
                    trace: s.get("trace").and_then(Json::as_u64).ok_or_else(err)?,
                    stage: s
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or_else(err)?
                        .to_string(),
                    start_ns: s.get("start_ns").and_then(Json::as_u64).ok_or_else(err)?,
                    dur_ns: s.get("dur_ns").and_then(Json::as_u64).ok_or_else(err)?,
                });
            }
        }
        if let Some(items) = root.get("events").and_then(Json::as_arr) {
            for e in items {
                let err = || "bad event".to_string();
                snap.events.push(EventSnapshot {
                    at_ns: e.get("at_ns").and_then(Json::as_u64).ok_or_else(err)?,
                    kind: e
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(err)?
                        .to_string(),
                    detail: e
                        .get("detail")
                        .and_then(Json::as_str)
                        .ok_or_else(err)?
                        .to_string(),
                });
            }
        }
        Ok(snap)
    }

    /// Prometheus-style text exposition. Deterministic for a manual
    /// clock; the golden corpus pins this format byte-for-byte.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# mix-obs exposition (schema ");
        out.push_str(crate::SCHEMA);
        out.push_str(")\n");
        let mut typed = std::collections::BTreeSet::new();
        fn type_line(
            out: &mut String,
            typed: &mut std::collections::BTreeSet<String>,
            name: &str,
            kind: &str,
        ) {
            let base = base_of(name);
            if typed.insert(base.to_string()) {
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
            }
        }
        for (name, v) in &self.counters {
            type_line(&mut out, &mut typed, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, &mut typed, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, &mut typed, name, "histogram");
            let mut cumulative = 0u64;
            let mut saw_inf = false;
            for &(le, n) in &h.buckets {
                cumulative += n;
                saw_inf |= le == u64::MAX;
                let series = splice(name, "_bucket", Some(("le", &le_str(le))));
                out.push_str(&format!("{series} {cumulative}\n"));
            }
            if !saw_inf {
                let series = splice(name, "_bucket", Some(("le", "+Inf")));
                out.push_str(&format!("{series} {}\n", h.count));
            }
            out.push_str(&format!("{} {}\n", splice(name, "_sum", None), h.sum));
            out.push_str(&format!("{} {}\n", splice(name, "_count", None), h.count));
            for (q, v) in [("_p50", h.p50), ("_p95", h.p95), ("_p99", h.p99)] {
                let series = splice(name, q, None);
                type_line(&mut out, &mut typed, &series, "gauge");
                out.push_str(&format!("{series} {v}\n"));
            }
        }
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "# spans: {} retained (JSON exposition only)\n",
                self.spans.len()
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!(
                "# events: {} retained (JSON exposition only)\n",
                self.events.len()
            ));
        }
        out
    }
}

/// The metric name up to its label set: `a{b="c"}` → `a`.
fn base_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// `u64::MAX` is the overflow bucket, exposed as `+Inf`.
fn le_str(le: u64) -> String {
    if le == u64::MAX {
        "+Inf".to_string()
    } else {
        le.to_string()
    }
}

/// Splices `suffix` (and optionally one more label) into a metric name
/// that may already carry labels: `splice("f{a="b"}", "_bucket",
/// Some(("le", "3")))` → `f_bucket{a="b",le="3"}`.
fn splice(name: &str, suffix: &str, label: Option<(&str, &str)>) -> String {
    match name.find('{') {
        None => match label {
            None => format!("{name}{suffix}"),
            Some((k, v)) => format!("{name}{suffix}{{{k}=\"{v}\"}}"),
        },
        Some(i) => {
            let base = &name[..i];
            let inner = &name[i + 1..name.len() - 1];
            match label {
                None => format!("{base}{suffix}{{{inner}}}"),
                Some((k, v)) => format!("{base}{suffix}{{{inner},{k}=\"{v}\"}}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("queries_total".into(), 42);
        s.counters
            .insert("source_retries_total{source=\"site0\"}".into(), 3);
        s.gauges.insert("cache_entries".into(), -2);
        s.histograms.insert(
            "answer_latency_ns".into(),
            HistSnapshot::from_parts(vec![(1023, 2), (2047, 1), (u64::MAX, 1)], 5000),
        );
        s.spans.push(SpanSnapshot {
            trace: 1,
            stage: "query".into(),
            start_ns: 10,
            dur_ns: 90,
        });
        s.events.push(EventSnapshot {
            at_ns: 55,
            kind: "breaker-open".into(),
            detail: "site0: 3 consecutive failures".into(),
        });
        s
    }

    #[test]
    fn json_round_trips_byte_for_byte() {
        let s = sample();
        let text = s.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);
        // and the empty snapshot too
        let empty = Snapshot::default().to_json();
        assert_eq!(Snapshot::from_json(&empty).unwrap().to_json(), empty);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"schema":"mix-obs/999"}"#).is_err());
        assert!(Snapshot::from_json("not json").is_err());
    }

    #[test]
    fn quantiles_are_derived_from_buckets() {
        let h = HistSnapshot::from_parts(vec![(1023, 2), (2047, 1), (u64::MAX, 1)], 5000);
        assert_eq!(h.count, 4);
        assert_eq!(h.p50, 1023);
        assert_eq!(h.p95, u64::MAX);
    }

    #[test]
    fn merge_sums_instruments_and_concatenates() {
        let a = sample();
        let merged = a.merge(&a);
        assert_eq!(merged.counters["queries_total"], 84);
        assert_eq!(merged.gauges["cache_entries"], -4);
        let h = &merged.histograms["answer_latency_ns"];
        assert_eq!(h.count, 8);
        assert_eq!(h.buckets, vec![(1023, 4), (2047, 2), (u64::MAX, 2)]);
        assert_eq!(merged.spans.len(), 2);
        assert_eq!(merged.events.len(), 2);
        // merging with empty is identity
        assert_eq!(a.merge(&Snapshot::default()), a);
        assert_eq!(Snapshot::default().merge(&a), a);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE queries_total counter\nqueries_total 42\n"));
        assert!(text.contains("source_retries_total{source=\"site0\"} 3"));
        assert!(text.contains("# TYPE cache_entries gauge\ncache_entries -2\n"));
        assert!(text.contains("answer_latency_ns_bucket{le=\"1023\"} 2\n"));
        assert!(text.contains("answer_latency_ns_bucket{le=\"2047\"} 3\n"));
        assert!(text.contains("answer_latency_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("answer_latency_ns_sum 5000\n"));
        assert!(text.contains("answer_latency_ns_count 4\n"));
        assert!(text.contains("# TYPE answer_latency_ns_p50 gauge\nanswer_latency_ns_p50 1023\n"));
        assert!(text.contains("# spans: 1 retained"));
        assert!(text.contains("# events: 1 retained"));
    }

    #[test]
    fn labelled_histograms_splice_le_inside_braces() {
        let mut s = Snapshot::default();
        s.histograms.insert(
            "fetch_ns{source=\"a\"}".into(),
            HistSnapshot::from_parts(vec![(3, 1)], 2),
        );
        let text = s.to_prometheus();
        assert!(text.contains("# TYPE fetch_ns histogram\n"), "{text}");
        assert!(
            text.contains("fetch_ns_bucket{source=\"a\",le=\"3\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("fetch_ns_sum{source=\"a\"} 2\n"), "{text}");
        assert!(text.contains("fetch_ns_p50{source=\"a\"} 3\n"), "{text}");
    }
}
