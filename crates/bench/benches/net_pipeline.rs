//! X20 — the event-driven wire tier: pipelined frames on the X16
//! workload, and the 64-client storm of pipelined batches.
//!
//! Like X16/X19 this is a custom harness (not Criterion): the acceptance
//! criteria are correctness plus ratios landing in a committed artifact,
//! so the run measures with `std::time::Instant`, asserts every batch of
//! answers byte-identical to an all-in-process reference (the same
//! reference X16 asserted against on the blocking PR 3 path), and writes
//! machine-readable results to `BENCH_PR7.json` at the workspace root.
//!
//! Three phases:
//!
//! All timed windows measure *steady-state* serving: the daemons run the
//! serving-side answer memo (`WrapperService::with_answer_memo`, valid
//! because each daemon serves a start-time snapshot), clients hash-cons
//! reply parses (`RemoteWrapper`'s built-in memo), and both tiers are
//! warmed — with the answers byte-checked — before any clock starts.
//!
//! * **Scaling** — the X16 federation (4 loopback daemons, the 20-query
//!   batch) serving 1/2/4/8 *concurrent client threads*, each thread
//!   running the full batch. X16's blocking stack fell to 0.67x under
//!   added concurrency (thread-per-connection handlers fighting over a
//!   single CPU); each daemon now answers on one thread per connection
//!   but lets at most `workers` service calls run at once, so aggregate
//!   q/s must be monotone non-decreasing (within tolerance) as clients
//!   pile on. The 1-thread row is the X16-shape single-thread
//!   measurement the storm phase is judged against.
//! * **Storm** — 64 concurrent clients against one daemon, each client
//!   issuing its requests as pipelined batches over a single
//!   connection. The aggregate q/s must beat the X16-shape 1-thread
//!   measurement from *this same run* by ≥4x: the pipelining dividend
//!   (a window of frames per write syscall, and the daemon reads a
//!   window per read syscall) compounded with the memo tiers —
//!   not parallelism, this container has one CPU. The gate divides a
//!   CPU-bound rate by a latency-bound one, so a change that shortens
//!   a round trip lowers the ratio (EXPERIMENTS X20).
//! * **Equality** — the pipelined batch path (`answer_batch`) and the
//!   one-frame-at-a-time blocking path (`answer`) must produce
//!   byte-identical answers, both equal to the in-process wrapper.

use mix_bench::{d1, department_of_size, q2};
use mix_mediator::{Mediator, RemoteWrapper, Wrapper, WrapperService, XmlSource};
use mix_net::{ClientConfig, Server, ServerConfig, ServerHandle};
use mix_xmas::{parse_query, Query};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DAEMONS: usize = 4;
const BATCH: usize = 20;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 7;
/// Total batch passes per timed window, split evenly across the window's
/// clients. Keeping the *total* work constant makes every window the same
/// length (tens of ms), so best-of-reps has the same upside bias at every
/// thread count — short 1-client windows would otherwise catch lucky
/// scheduler slices that long 8-client windows cannot.
const PASSES_TOTAL: usize = 24;
const DOC_SIZE: usize = 6;
const STORM_CLIENTS: usize = 64;
const STORM_REQS: usize = 30;
/// Allowed backslide between adjacent thread counts before "monotone"
/// is considered violated. On a single-CPU host the curve is flat (the
/// server saturates the core at 1 client), so the claim being defended
/// is that aggregate q/s *holds* under 8x client concurrency — X16's
/// blocking stack collapsed to 0.67x here — and best-of-rep windows on
/// a shared host still jitter by a few percent.
const MONOTONE_TOLERANCE: f64 = 0.90;

fn source() -> XmlSource {
    XmlSource::new(d1(), department_of_size(DOC_SIZE)).expect("valid dept")
}

fn spawn_daemon(config: ServerConfig) -> ServerHandle {
    // the daemons serve a start-time snapshot, so the serving-side answer
    // memo applies (`mixctl serve-source --memo`); the client side
    // hash-conses reply parses unconditionally. Both tiers are warmed
    // before any timed window — X20 measures steady-state serving.
    Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(source()).with_answer_memo(64)),
        config,
    )
    .expect("bind")
    .spawn()
    .expect("spawn")
}

/// A mediator over `wrappers`, one q2-shaped view per source, plus the
/// query batch the throughput loop serves — the X16 workload.
fn build_mediator(wrappers: Vec<Arc<dyn Wrapper>>) -> (Mediator, Vec<Query>) {
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

fn render_doc(doc: &mix_xml::Document) -> String {
    mix_xml::write_document(doc, mix_xml::WriteConfig::default())
}

struct ThroughputRow {
    threads: usize,
    best: Duration,
    qps: f64,
}

fn main() {
    // the in-process reference: same DTD, same deterministic documents,
    // no sockets — the equality oracle X16 used for the blocking path
    let locals: Vec<Arc<dyn Wrapper>> = (0..DAEMONS)
        .map(|_| Arc::new(source()) as Arc<dyn Wrapper>)
        .collect();
    let (local_m, local_batch) = build_mediator(locals);
    let reference: Vec<String> = local_m
        .answer_many_with_threads(&local_batch, 1)
        .iter()
        .map(render)
        .collect();

    println!("X20 event-driven wire tier: pipelined scaling, 64-client storm");

    // ---- phase 1: the X16 shape on the new stack --------------------
    let daemons: Vec<ServerHandle> = (0..DAEMONS)
        .map(|_| spawn_daemon(ServerConfig::default()))
        .collect();
    let remotes: Vec<Arc<dyn Wrapper>> = daemons
        .iter()
        .map(|d| {
            Arc::new(RemoteWrapper::connect(&d.addr().to_string()).expect("daemon reachable"))
                as Arc<dyn Wrapper>
        })
        .collect();
    let (m, batch) = build_mediator(remotes);

    // warm both memo tiers (and the connection pools) outside any timer
    let warm: Vec<String> = m
        .answer_many_with_threads(&batch, 1)
        .iter()
        .map(render)
        .collect();
    assert_eq!(reference, warm, "warm-up answers diverged");

    // reps are interleaved across thread counts (1,2,4,8, 1,2,4,8, …)
    // and each row keeps its best window: consecutive same-count reps
    // would alias any slow drift of the shared host onto the later,
    // higher-count rows and fake a decline
    let mut best = [Duration::MAX; THREADS.len()];
    for _ in 0..REPS {
        for (slot, &threads) in THREADS.iter().enumerate() {
            let t = Instant::now();
            let all: Vec<Vec<Vec<Result<mix_mediator::Answer, mix_mediator::MediatorError>>>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            let (m, batch) = (&m, &batch);
                            scope.spawn(move || {
                                (0..PASSES_TOTAL / threads)
                                    .map(|_| m.answer_many_with_threads(batch, 1))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect()
                });
            best[slot] = best[slot].min(t.elapsed());
            for answers in all.iter().flatten() {
                let rendered: Vec<String> = answers.iter().map(render).collect();
                assert_eq!(
                    reference, rendered,
                    "distributed answers diverged from the in-process run at {threads} threads"
                );
            }
        }
    }
    let rows: Vec<ThroughputRow> = THREADS
        .iter()
        .zip(best)
        .map(|(&threads, best)| ThroughputRow {
            threads,
            best,
            qps: (PASSES_TOTAL * BATCH) as f64 / best.as_secs_f64().max(1e-12),
        })
        .collect();
    let base_qps = rows[0].qps;
    for r in &rows {
        println!(
            "  {} client(s): {:?}  {:.1} q/s aggregate  ({:.2}x vs 1 client)",
            r.threads,
            r.best,
            r.qps,
            r.qps / base_qps
        );
    }
    let mut monotone = true;
    for pair in rows.windows(2) {
        if pair[1].qps < pair[0].qps * MONOTONE_TOLERANCE {
            monotone = false;
            println!(
                "  NOT monotone: {} -> {} threads fell {:.1} -> {:.1} q/s",
                pair[0].threads, pair[1].threads, pair[0].qps, pair[1].qps
            );
        }
    }
    assert!(
        monotone,
        "aggregate q/s must be monotone non-decreasing (within {MONOTONE_TOLERANCE} tolerance) \
         from 1 to 8 client threads"
    );
    println!("  monotone 1->8 threads, answers byte-identical to the in-process run");

    // ---- phase 2: the 64-client pipelined storm ---------------------
    let storm_daemon = spawn_daemon(ServerConfig {
        max_connections: STORM_CLIENTS + 8,
        io_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let storm_addr = storm_daemon.addr().to_string();
    let storm_query = q2();
    let storm_expected = render_doc(&source().answer(&storm_query).expect("reference answer"));
    let storm_batch: Vec<Query> = (0..STORM_REQS).map(|_| storm_query.clone()).collect();

    // connect up front so the measured window is serving, not dialing,
    // and warm every client's parse memo with one answer each
    let clients: Vec<RemoteWrapper> = (0..STORM_CLIENTS)
        .map(|_| {
            let config = ClientConfig {
                pool_size: 1,
                io_timeout: Duration::from_secs(10),
                ..ClientConfig::default()
            };
            let c =
                RemoteWrapper::connect_with(&storm_addr, config).expect("storm client connects");
            assert_eq!(
                render_doc(&c.answer(&storm_query).expect("warm-up answer")),
                storm_expected
            );
            c
        })
        .collect();

    // answers are collected inside the timed window, verified outside
    // it: the measurement is the serving rate, not the checker's speed
    let t = Instant::now();
    let outcomes: Vec<Vec<Result<mix_xml::Document, mix_mediator::SourceError>>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .map(|client| {
                    let storm_batch = &storm_batch;
                    scope.spawn(move || client.answer_batch(storm_batch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("storm client panicked"))
                .collect()
        });
    let storm_elapsed = t.elapsed();
    let wrong: usize = outcomes
        .iter()
        .flatten()
        .filter(|r| match r {
            Ok(doc) => render_doc(doc) != storm_expected,
            Err(_) => true,
        })
        .count();
    let storm_total = STORM_CLIENTS * STORM_REQS;
    let storm_qps = storm_total as f64 / storm_elapsed.as_secs_f64().max(1e-12);
    drop(clients);
    storm_daemon.shutdown();

    assert_eq!(wrong, 0, "every storm answer must be byte-correct");
    let storm_vs_base = storm_qps / base_qps;
    println!(
        "  storm: {} clients x {} pipelined reqs in {:?} = {:.1} q/s ({:.2}x the \
         X16-shape 1-thread rate)",
        STORM_CLIENTS, STORM_REQS, storm_elapsed, storm_qps, storm_vs_base
    );
    assert!(
        storm_vs_base >= 4.0,
        "the 64-client storm must serve at least 4x the X16-shape single-thread rate \
         (got {storm_vs_base:.2}x)"
    );

    // ---- phase 3: pipelined == blocking, byte for byte --------------
    let eq_daemon = spawn_daemon(ServerConfig::default());
    let eq_remote = RemoteWrapper::connect(&eq_daemon.addr().to_string()).expect("reachable");
    let eq_local = source();
    let eq_queries: Vec<Query> = (0..BATCH).map(|_| q2()).collect();
    let blocking: Vec<String> = eq_queries
        .iter()
        .map(|q| render_doc(&eq_remote.answer(q).expect("blocking answer")))
        .collect();
    let pipelined: Vec<String> = eq_remote
        .answer_batch(&eq_queries)
        .into_iter()
        .map(|r| render_doc(&r.expect("pipelined answer")))
        .collect();
    let in_process: Vec<String> = eq_queries
        .iter()
        .map(|q| render_doc(&eq_local.answer(q).expect("local answer")))
        .collect();
    assert_eq!(
        blocking, pipelined,
        "pipelined batch answers must match the blocking path byte for byte"
    );
    assert_eq!(
        pipelined, in_process,
        "wire answers must match the in-process wrapper byte for byte"
    );
    eq_daemon.shutdown();
    println!("  pipelined batch == blocking path == in-process, byte-identical");

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
        "{{\n  \"experiment\": \"X20\",\n  \
         \"generated_by\": \"cargo bench -p mix-bench --bench net_pipeline\",\n  \
         \"transport\": \"mix-net loopback TCP, frame version {}, thread-per-connection \
         server, pooled blocking client\",\n  \
         \"daemons\": {DAEMONS},\n  \"batch\": {BATCH},\n  \
         \"answers_match_in_process\": true,\n  \
         \"throughput\": [\n{}\n  ],\n  \
         \"monotone_1_to_8\": {},\n  \
         \"storm\": {{ \"clients\": {}, \"requests_per_client\": {}, \
         \"elapsed_ms\": {:.3}, \"qps\": {:.1}, \"vs_x16_shape_1_thread\": {:.2}, \
         \"wrong_answers\": {} }},\n  \
         \"pipelined_equals_blocking\": true\n}}",
        mix_net::FRAME_VERSION,
        throughput_json,
        monotone,
        STORM_CLIENTS,
        STORM_REQS,
        storm_elapsed.as_secs_f64() * 1e3,
        storm_qps,
        storm_vs_base,
        wrong,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json");
    std::fs::write(out, json + "\n").expect("write BENCH_PR7.json");
    println!("wrote {out}");

    for d in daemons {
        d.shutdown();
    }
}
