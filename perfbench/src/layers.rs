//! The per-layer metrics of the traced run. Every workload reports the
//! whole list; a layer a workload never enters reads 0 there (see
//! `README.md` for which layer each workload exercises).

use crate::harness::{metric, Metric};
use crate::stats;
use mix_dtd::Dtd;
use mix_xmas::Query;
use std::time::Instant;

#[derive(Default, Debug)]
pub struct Layers {
    pub mediator_fetches_per_op: f64,
    pub mediator_fetch_ms: f64,
    pub mediator_self_ms: f64,
    pub mediator_union_merge_ms: f64,
    pub mediator_composed_ratio: f64,
    pub mediator_materialized_ratio: f64,
    pub mediator_pruned_ratio: f64,
    pub mediator_parse_memo_hit_ratio: f64,
    pub mediator_parse_memo_evictions: f64,
    pub source_answer_ms: f64,
    pub stream_answer_ms: f64,
    pub stream_streamed_ratio: f64,
    pub net_server_handle_ms: f64,
    pub net_client_rpc_ms: f64,
    pub net_queue_wait_ms: f64,
    pub net_bytes_per_op: f64,
    pub net_frames_per_op: f64,
    pub net_faults: f64,
    pub xml_serialize_ms: f64,
    pub xml_reply_parse_ms: f64,
    pub xmas_parse_query_ms: f64,
    pub xmas_normalize_ms: f64,
    pub infer_cache_hit_ratio: f64,
    pub infer_infer_ms: f64,
    pub stages: StageTimes,
    pub sat_check_ms: f64,
    pub sat_pruned_ratio: f64,
    pub sat_unknown_ratio: f64,
    pub relang_dfa_memo_hit_ratio: f64,
    pub relang_inclusion_memo_hit_ratio: f64,
    pub relang_memo_evictions: f64,
    pub relang_pool_nodes: f64,
    pub store_record_ms: f64,
    pub store_bytes_per_op: f64,
    pub store_load_ms: f64,
    pub obs_trace_overhead_pct: f64,
    pub obs_spans_lost: f64,
    pub trace_op_ms: f64,
    pub trace_remainder_ms: f64,
}

impl Layers {
    pub fn to_metrics(&self) -> Vec<Metric> {
        let s = &self.stages;
        vec![
            metric(
                "mediator.fetches_per_op",
                "count",
                self.mediator_fetches_per_op,
            ),
            metric("mediator.fetch_ms", "ms", self.mediator_fetch_ms),
            metric("mediator.self_ms", "ms", self.mediator_self_ms),
            metric(
                "mediator.union_merge_ms",
                "ms",
                self.mediator_union_merge_ms,
            ),
            metric(
                "mediator.composed_ratio",
                "ratio",
                self.mediator_composed_ratio,
            ),
            metric(
                "mediator.materialized_ratio",
                "ratio",
                self.mediator_materialized_ratio,
            ),
            metric("mediator.pruned_ratio", "ratio", self.mediator_pruned_ratio),
            metric(
                "mediator.parse_memo_hit_ratio",
                "ratio",
                self.mediator_parse_memo_hit_ratio,
            ),
            metric(
                "mediator.parse_memo_evictions",
                "count",
                self.mediator_parse_memo_evictions,
            ),
            metric("source.answer_ms", "ms", self.source_answer_ms),
            metric("stream.answer_ms", "ms", self.stream_answer_ms),
            metric("stream.streamed_ratio", "ratio", self.stream_streamed_ratio),
            metric("net.server_handle_ms", "ms", self.net_server_handle_ms),
            metric("net.client_rpc_ms", "ms", self.net_client_rpc_ms),
            metric("net.queue_wait_ms", "ms", self.net_queue_wait_ms),
            metric("net.bytes_per_op", "B", self.net_bytes_per_op),
            metric("net.frames_per_op", "count", self.net_frames_per_op),
            metric("net.faults", "count", self.net_faults),
            metric("xml.serialize_ms", "ms", self.xml_serialize_ms),
            metric("xml.reply_parse_ms", "ms", self.xml_reply_parse_ms),
            metric("xmas.parse_query_ms", "ms", self.xmas_parse_query_ms),
            metric("xmas.normalize_ms", "ms", self.xmas_normalize_ms),
            metric("infer.cache_hit_ratio", "ratio", self.infer_cache_hit_ratio),
            metric("infer.infer_ms", "ms", self.infer_infer_ms),
            metric("infer.tighten_ms", "ms", s.tighten_ms),
            metric("infer.infer_list_ms", "ms", s.infer_list_ms),
            metric("infer.merge_ms", "ms", s.merge_ms),
            metric("infer.assemble_ms", "ms", s.assemble_ms),
            metric("sat.check_ms", "ms", self.sat_check_ms),
            metric("sat.pruned_ratio", "ratio", self.sat_pruned_ratio),
            metric("sat.unknown_ratio", "ratio", self.sat_unknown_ratio),
            metric(
                "relang.dfa_memo_hit_ratio",
                "ratio",
                self.relang_dfa_memo_hit_ratio,
            ),
            metric(
                "relang.inclusion_memo_hit_ratio",
                "ratio",
                self.relang_inclusion_memo_hit_ratio,
            ),
            metric("relang.memo_evictions", "count", self.relang_memo_evictions),
            metric("relang.pool_nodes", "count", self.relang_pool_nodes),
            metric("store.record_ms", "ms", self.store_record_ms),
            metric("store.bytes_per_op", "B", self.store_bytes_per_op),
            metric("store.load_ms", "ms", self.store_load_ms),
            metric("obs.trace_overhead_pct", "%", self.obs_trace_overhead_pct),
            metric("obs.spans_lost", "count", self.obs_spans_lost),
            metric("trace.op_ms", "ms", self.trace_op_ms),
            metric("trace.remainder_ms", "ms", self.trace_remainder_ms),
        ]
    }

    /// Fills the relang and sat ratios from counter growth.
    pub fn fill_automata(&mut self, d: &crate::harness::Delta, end: &crate::harness::Counters) {
        use crate::harness::ratio;
        let (dh, dm) = (
            d.get("relang_dfa_memo_hits_total"),
            d.get("relang_dfa_memo_misses_total"),
        );
        self.relang_dfa_memo_hit_ratio = ratio(dh, dh + dm);
        let (ih, im) = (
            d.get("relang_inclusion_memo_hits_total"),
            d.get("relang_inclusion_memo_misses_total"),
        );
        self.relang_inclusion_memo_hit_ratio = ratio(ih, ih + im);
        self.relang_memo_evictions = d.get("relang_memo_evictions_total") as f64;
        self.relang_pool_nodes = end.gauges.get("relang_pool_nodes").copied().unwrap_or(0) as f64;
        let checks = d.get("sat_checks_total");
        self.sat_pruned_ratio = ratio(d.get("sat_pruned_total"), checks);
        self.sat_unknown_ratio = ratio(d.get("sat_unknown_total"), checks);
        self.sat_check_ms = d.hist_p50("sat_check_ns") / 1e6;
        let (ch, cm) = (
            end.get("inference_cache_hits_total"),
            end.get("inference_cache_misses_total"),
        );
        self.infer_cache_hit_ratio = ratio(ch, ch + cm);
    }
}

/// Per-stage inference times (p50, ms), measured by calling the public
/// stage functions on an operation's inputs.
#[derive(Default, Debug)]
pub struct StageTimes {
    pub parse_query_ms: f64,
    pub normalize_ms: f64,
    pub tighten_ms: f64,
    pub infer_list_ms: f64,
    pub merge_ms: f64,
    pub assemble_ms: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `parse_query`, `normalize`, `tighten`, `infer_list` and `merge`
/// on each `(view text, source DTD)` pair, and `infer_view_dtd` whole;
/// assembly is the whole minus the stages. Reports medians.
pub fn stage_times(pairs: &[(String, Dtd)]) -> StageTimes {
    let mut cols: [Vec<f64>; 6] = Default::default();
    for (text, dtd) in pairs {
        let t = Instant::now();
        let q: Query = match mix_xmas::parse_query(text) {
            Ok(q) => q,
            Err(_) => continue,
        };
        let parse = ms(t);
        let t = Instant::now();
        let Ok(nq) = mix_xmas::normalize(&q, dtd) else {
            continue;
        };
        let normalize = ms(t);
        let t = Instant::now();
        let tightened = mix_infer::tighten(&nq, dtd);
        let tighten = ms(t);
        let t = Instant::now();
        if tightened.verdict != mix_infer::Verdict::Unsatisfiable {
            std::hint::black_box(mix_infer::infer_list(&nq, dtd, &tightened));
        }
        let list = ms(t);
        let t = Instant::now();
        let Ok(iv) = mix_infer::infer_view_dtd(&q, dtd) else {
            continue;
        };
        let whole = ms(t);
        let t = Instant::now();
        std::hint::black_box(mix_infer::merge(&iv.sdtd));
        let merge = ms(t);
        let assemble = (whole - normalize - tighten - list - merge).max(0.0);
        for (col, v) in cols
            .iter_mut()
            .zip([parse, normalize, tighten, list, merge, assemble])
        {
            col.push(v);
        }
    }
    StageTimes {
        parse_query_ms: stats::p50(&cols[0]),
        normalize_ms: stats::p50(&cols[1]),
        tighten_ms: stats::p50(&cols[2]),
        infer_list_ms: stats::p50(&cols[3]),
        merge_ms: stats::p50(&cols[4]),
        assemble_ms: stats::p50(&cols[5]),
    }
}
