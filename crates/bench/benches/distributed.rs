//! X16 — distributed serving over the mix-net wire protocol: N loopback
//! `serve-source` daemons behind `RemoteWrapper` sources, batched
//! `answer_many` throughput at 1/2/4/8 client threads.
//!
//! Like X15 this is a custom harness (not Criterion): the acceptance
//! criteria are correctness plus ratios landing in a committed artifact,
//! so the run measures with `std::time::Instant`, asserts the distributed
//! answers are byte-identical to an all-in-process run, and writes the
//! machine-readable results to `BENCH_PR3.json` at the workspace root.
//!
//! Methodology: the daemons run in-process (`Server::spawn`) on loopback,
//! so the measured per-exchange cost is real syscalls, framing, and
//! serialization — everything distribution adds except wide-area latency,
//! which X15 already models with `LatencyWrapper`. Thread scaling here is
//! therefore *pipelining* of socket round-trips, and the 1-thread row
//! doubles as the protocol's per-exchange overhead measurement.

use mix_bench::{d1, department_of_size, q2};
use mix_mediator::{Mediator, RemoteWrapper, WrapperService, XmlSource};
use mix_net::{Server, ServerConfig, ServerHandle};
use mix_xmas::{parse_query, Query};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DAEMONS: usize = 4;
const BATCH: usize = 20;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;
const DOC_SIZE: usize = 8;

struct ThroughputRow {
    threads: usize,
    best: Duration,
    qps: f64,
}

fn spawn_daemons() -> Vec<ServerHandle> {
    (0..DAEMONS)
        .map(|_| {
            let source = XmlSource::new(d1(), department_of_size(DOC_SIZE)).expect("valid dept");
            Server::bind(
                "127.0.0.1:0",
                Arc::new(WrapperService::new(source)),
                ServerConfig::default(),
            )
            .expect("bind")
            .spawn()
            .expect("spawn")
        })
        .collect()
}

/// A mediator over `wrappers`, one q2-shaped view per source, plus the
/// query batch the throughput loop serves.
fn build_mediator(wrappers: Vec<Arc<dyn mix_mediator::Wrapper>>) -> (Mediator, Vec<Query>) {
    let mut m = Mediator::new();
    let mut views = Vec::new();
    for (i, w) in wrappers.into_iter().enumerate() {
        let site = format!("site{i}");
        m.add_source(&site, w);
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

fn render(a: &Result<mix_mediator::Answer, mix_mediator::MediatorError>) -> String {
    match a {
        Ok(ans) => mix_xml::write_document(&ans.document, mix_xml::WriteConfig::default()),
        Err(e) => format!("error: {e}"),
    }
}

fn main() {
    // the in-process twin: same DTD, same documents, no sockets. The
    // documents must be bit-identical, so department_of_size must be
    // deterministic — it is, and the equality assert would catch drift.
    let locals: Vec<Arc<dyn mix_mediator::Wrapper>> = (0..DAEMONS)
        .map(|_| {
            Arc::new(XmlSource::new(d1(), department_of_size(DOC_SIZE)).expect("valid dept"))
                as Arc<dyn mix_mediator::Wrapper>
        })
        .collect();
    let (local_m, local_batch) = build_mediator(locals);
    let reference: Vec<String> = local_m
        .answer_many_with_threads(&local_batch, 1)
        .iter()
        .map(render)
        .collect();

    let daemons = spawn_daemons();
    let remotes: Vec<Arc<dyn mix_mediator::Wrapper>> = daemons
        .iter()
        .map(|d| {
            Arc::new(RemoteWrapper::connect(&d.addr().to_string()).expect("daemon reachable"))
                as Arc<dyn mix_mediator::Wrapper>
        })
        .collect();
    let (m, batch) = build_mediator(remotes);

    println!(
        "X16 distributed serving ({BATCH}-query batch, {DAEMONS} loopback \
         serve-source daemons):"
    );
    let rows: Vec<ThroughputRow> = THREADS
        .iter()
        .map(|&threads| {
            let mut best = Duration::MAX;
            for _ in 0..REPS {
                let t = Instant::now();
                let answers = m.answer_many_with_threads(&batch, threads);
                best = best.min(t.elapsed());
                let rendered: Vec<String> = answers.iter().map(render).collect();
                assert_eq!(
                    reference, rendered,
                    "distributed answers diverged from the in-process run \
                     at {threads} threads"
                );
            }
            ThroughputRow {
                threads,
                best,
                qps: BATCH as f64 / best.as_secs_f64().max(1e-12),
            }
        })
        .collect();
    let base_qps = rows[0].qps;
    for r in &rows {
        println!(
            "  {} thread(s): {:?}  {:.1} q/s  ({:.2}x vs 1 thread)",
            r.threads,
            r.best,
            r.qps,
            r.qps / base_qps
        );
    }
    println!("  answers byte-identical to the all-in-process run");

    let stats = m.serving_metrics();
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
        "{{\n  \"experiment\": \"X16\",\n  \
         \"generated_by\": \"cargo bench -p mix-bench --bench distributed\",\n  \
         \"daemons\": {DAEMONS},\n  \"batch\": {BATCH},\n  \
         \"transport\": \"mix-net loopback TCP, frame version {}\",\n  \
         \"answers_match_in_process\": true,\n  \
         \"throughput\": [\n{}\n  ],\n  \
         \"inference_cache\": {{ \"hits\": {}, \"misses\": {}, \"entries\": {} }},\n  \
         \"automata_memo\": {{ \"inclusion_hits\": {}, \"inclusion_misses\": {} }}\n}}",
        mix_net::FRAME_VERSION,
        throughput_json,
        stats.inference.hits,
        stats.inference.misses,
        stats.inference.entries,
        stats.automata.inclusion_hits,
        stats.automata.inclusion_misses,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR3.json");
    std::fs::write(out, json + "\n").expect("write BENCH_PR3.json");
    println!("wrote {out}");

    for d in daemons {
        d.shutdown();
    }
}
