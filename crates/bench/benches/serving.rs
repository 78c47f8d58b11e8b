//! X15 — the serving layer: inference-cache cold vs. warm latency on the
//! D1/Q2 workload, and batched `answer_many` throughput at 1/2/4/8
//! worker threads over simulated-latency sources.
//!
//! This bench is a custom harness (not Criterion): X15's acceptance
//! criteria are *ratios* that must land in a committed artifact, so the
//! run measures with `std::time::Instant`, prints a summary, and writes
//! the machine-readable results to `BENCH_PR2.json` at the workspace
//! root.
//!
//! Methodology note on threading: the throughput half wraps every source
//! in a [`LatencyWrapper`] (10 ms per fetch — a fast LAN round-trip).
//! A mediator's sources are remote by definition (the paper's sources
//! are web sites), so batch serving earns its speedup by *overlapping
//! source waits*; measuring against in-memory microsecond sources would
//! only benchmark the thread scheduler. With the waits overlapped, the
//! scaling holds even on a single-core host (this is latency hiding,
//! not CPU parallelism).

use mix_bench::{d1, department_of_size, q2};
use mix_infer::InferenceCache;
use mix_mediator::{LatencyWrapper, Mediator, XmlSource};
use mix_xmas::{parse_query, Query};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COLD_RUNS: usize = 5;
const WARM_ITERS: u32 = 200;
const SOURCES: usize = 4;
const BATCH: usize = 20;
const LATENCY_MS: u64 = 10;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

struct ThroughputRow {
    threads: usize,
    best: Duration,
    qps: f64,
}

fn bench_inference_cache() -> (Duration, Duration, f64) {
    let dtd = d1();
    let q = q2();
    // cold: empty inference cache AND empty automata memo — the first
    // request a fresh mediator process would serve. Best of COLD_RUNS to
    // shed scheduler noise.
    let mut cold = Duration::MAX;
    for _ in 0..COLD_RUNS {
        mix_relang::clear_memo();
        let cache = InferenceCache::new();
        let t = Instant::now();
        cache.infer(&q, &dtd).expect("D1/Q2 infers");
        cold = cold.min(t.elapsed());
    }
    // warm: the same (query, DTD) served from the populated cache.
    let cache = InferenceCache::new();
    cache.infer(&q, &dtd).expect("D1/Q2 infers");
    let t = Instant::now();
    for _ in 0..WARM_ITERS {
        cache.infer(&q, &dtd).expect("warm hit");
    }
    let warm = t.elapsed() / WARM_ITERS;
    let stats = cache.stats();
    assert_eq!(stats.hits, WARM_ITERS as u64, "warm loop must hit");
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    (cold, warm, speedup)
}

fn build_serving_mediator() -> (Mediator, Vec<Query>) {
    let mut m = Mediator::new();
    let mut views = Vec::new();
    for i in 0..SOURCES {
        let source = XmlSource::new(d1(), department_of_size(8)).expect("valid department");
        let slow = LatencyWrapper::new(source, Duration::from_millis(LATENCY_MS));
        let site = format!("site{i}");
        m.add_source(&site, Arc::new(slow));
        let mut view = q2();
        view.view_name = mix_relang::name(&format!("wj{i}"));
        m.register_view(&site, &view).expect("view registers");
        views.push(view.view_name);
    }
    let batch: Vec<Query> = (0..BATCH)
        .map(|i| {
            let view = views[i % views.len()];
            parse_query(&format!(
                "b{i} = SELECT X WHERE <{view}> X:<professor/> </{view}>"
            ))
            .expect("batch query parses")
        })
        .collect();
    (m, batch)
}

fn bench_answer_many() -> Vec<ThroughputRow> {
    let (m, batch) = build_serving_mediator();
    let reference: Vec<String> = m
        .answer_many_with_threads(&batch, 1)
        .iter()
        .map(render)
        .collect();
    THREADS
        .iter()
        .map(|&threads| {
            let mut best = Duration::MAX;
            for _ in 0..REPS {
                let t = Instant::now();
                let answers = m.answer_many_with_threads(&batch, threads);
                let elapsed = t.elapsed();
                best = best.min(elapsed);
                let rendered: Vec<String> = answers.iter().map(render).collect();
                assert_eq!(reference, rendered, "{threads} threads changed answers");
            }
            ThroughputRow {
                threads,
                best,
                qps: BATCH as f64 / best.as_secs_f64().max(1e-12),
            }
        })
        .collect()
}

fn render(a: &Result<mix_mediator::Answer, mix_mediator::MediatorError>) -> String {
    match a {
        Ok(ans) => mix_xml::write_document(&ans.document, mix_xml::WriteConfig::default()),
        Err(e) => format!("error: {e}"),
    }
}

fn main() {
    let (cold, warm, speedup) = bench_inference_cache();
    println!("X15 inference cache (D1/Q2):");
    println!("  cold: {cold:?}   warm: {warm:?}   speedup: {speedup:.1}x");

    let rows = bench_answer_many();
    let base_qps = rows[0].qps;
    println!(
        "X15 answer_many ({BATCH}-query batch, {SOURCES} sources, \
         {LATENCY_MS} ms simulated source latency):"
    );
    for r in &rows {
        println!(
            "  {} thread(s): {:?}  {:.1} q/s  ({:.2}x vs 1 thread)",
            r.threads,
            r.best,
            r.qps,
            r.qps / base_qps
        );
    }

    let memo = mix_relang::memo_stats();
    let throughput_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"threads\": {}, \"elapsed_ms\": {:.3}, \"qps\": {:.1}, \
                 \"speedup_vs_1\": {:.2} }}",
                r.threads,
                r.best.as_secs_f64() * 1e3,
                r.qps,
                r.qps / base_qps
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"X15\",\n  \
         \"generated_by\": \"cargo bench -p mix-bench --bench serving\",\n  \
         \"inference_cache\": {{\n    \"workload\": \"D1/Q2\",\n    \
         \"cold_us\": {:.1},\n    \"warm_us\": {:.3},\n    \
         \"warm_speedup\": {:.1}\n  }},\n  \
         \"answer_many\": {{\n    \"batch\": {BATCH},\n    \"sources\": {SOURCES},\n    \
         \"source_latency_ms\": {LATENCY_MS},\n    \"throughput\": [\n{}\n    ]\n  }},\n  \
         \"automata_memo\": {{ \"inclusion_hits\": {}, \"inclusion_misses\": {} }}\n}}",
        cold.as_secs_f64() * 1e6,
        warm.as_secs_f64() * 1e6,
        speedup,
        throughput_json,
        memo.inclusion_hits,
        memo.inclusion_misses,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR2.json");
    std::fs::write(out, json + "\n").expect("write BENCH_PR2.json");
    println!("wrote {out}");
}
