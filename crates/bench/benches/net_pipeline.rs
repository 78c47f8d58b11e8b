//! X20 — the wire under concurrent clients: the X16 federation at 1/2/4/8
//! client threads, and one daemon under 1, 8 and 64 blocking clients.
//!
//! Like X16/X19 this is a custom harness (not Criterion): the acceptance
//! criteria are correctness plus rates landing in a committed artifact,
//! so the run measures with `std::time::Instant`, asserts every answer
//! byte-identical to an all-in-process reference (the same reference X16
//! asserted against), and writes machine-readable results to
//! `BENCH_PR7.json` at the workspace root.
//!
//! Every timed window measures *steady-state* serving: clients hash-cons
//! reply parses (`RemoteWrapper`'s built-in memo), and the memo and the
//! connection pools are warmed — with the answers byte-checked — before
//! any clock starts. Each exchange is one blocking round trip on a pooled
//! connection; each daemon answers a connection on its own thread, with
//! at most `workers` service calls running at once.
//!
//! Two phases:
//!
//! * **Scaling** — the X16 federation (4 loopback daemons, the 20-query
//!   batch) serving 1/2/4/8 *concurrent client threads*, each thread
//!   running the full batch. X16's blocking stack fell to 0.67x under
//!   added concurrency, so aggregate q/s must be monotone non-decreasing
//!   (within tolerance) as clients pile on.
//! * **Storm** — one daemon under 1, 8 and 64 concurrent clients, each a
//!   `RemoteWrapper` looping the blocking `answer` on a connection of its
//!   own. Every answer is byte-checked against the in-process wrapper's.
//!   The three rates are recorded, not gated: on a 2-vCPU host the 64
//!   client threads share the cores with the daemon's 64 connection
//!   threads, and no ratio of these rates told a healthy server from a
//!   serialized one (EXPERIMENTS X20).

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
/// Allowed backslide between adjacent thread counts before "monotone"
/// is considered violated. The claim being defended is that aggregate
/// q/s *holds* under 8x client concurrency — X16's blocking stack
/// collapsed to 0.67x here — and best-of-rep windows on a shared host
/// still jitter by a few percent.
const MONOTONE_TOLERANCE: f64 = 0.90;
const STORM_CLIENTS: [usize; 3] = [1, 8, 64];
/// Requests per storm window, split evenly across the window's clients,
/// for the same reason as [`PASSES_TOTAL`].
const STORM_REQS_TOTAL: usize = 1_920;
const STORM_REPS: usize = 3;

fn source() -> XmlSource {
    XmlSource::new(d1(), department_of_size(DOC_SIZE)).expect("valid dept")
}

fn spawn_daemon(config: ServerConfig) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(source())),
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

struct Row {
    clients: usize,
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

    println!("X20 wire under concurrent clients: federation scaling, one-daemon storm");

    // ---- phase 1: the X16 shape --------------------------------------
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

    // warm the parse memos (and the connection pools) outside any timer
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
    let rows: Vec<Row> = THREADS
        .iter()
        .zip(best)
        .map(|(&clients, best)| Row {
            clients,
            best,
            qps: (PASSES_TOTAL * BATCH) as f64 / best.as_secs_f64().max(1e-12),
        })
        .collect();
    let base_qps = rows[0].qps;
    for r in &rows {
        println!(
            "  {} client(s): {:?}  {:.1} q/s aggregate  ({:.2}x vs 1 client)",
            r.clients,
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
                pair[0].clients, pair[1].clients, pair[0].qps, pair[1].qps
            );
        }
    }
    assert!(
        monotone,
        "aggregate q/s must be monotone non-decreasing (within {MONOTONE_TOLERANCE} tolerance) \
         from 1 to 8 client threads"
    );
    println!("  monotone 1->8 threads, answers byte-identical to the in-process run");

    // ---- phase 2: one daemon under 1, 8 and 64 blocking clients -------
    let max_clients = STORM_CLIENTS[STORM_CLIENTS.len() - 1];
    let storm_daemon = spawn_daemon(ServerConfig {
        max_connections: max_clients + 8,
        io_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let storm_addr = storm_daemon.addr().to_string();
    let storm_query = q2();
    let storm_expected = render_doc(&source().answer(&storm_query).expect("reference answer"));

    // connect up front so the measured windows are serving, not dialing,
    // and warm every client's parse memo with one answer each
    let clients: Vec<RemoteWrapper> = (0..max_clients)
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

    // windows interleaved across client counts, best window per count;
    // answers are collected inside a window and verified outside it: the
    // measurement is the serving rate, not the checker's speed
    let mut storm_best = [Duration::MAX; STORM_CLIENTS.len()];
    let mut wrong = 0;
    for _ in 0..STORM_REPS {
        for (slot, &n) in STORM_CLIENTS.iter().enumerate() {
            let t = Instant::now();
            let outcomes: Vec<Vec<Result<mix_xml::Document, mix_mediator::SourceError>>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = clients[..n]
                        .iter()
                        .map(|client| {
                            let storm_query = &storm_query;
                            scope.spawn(move || {
                                (0..STORM_REQS_TOTAL / n)
                                    .map(|_| client.answer(storm_query))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("storm client panicked"))
                        .collect()
                });
            storm_best[slot] = storm_best[slot].min(t.elapsed());
            wrong += outcomes
                .iter()
                .flatten()
                .filter(|r| match r {
                    Ok(doc) => render_doc(doc) != storm_expected,
                    Err(_) => true,
                })
                .count();
        }
    }
    drop(clients);
    storm_daemon.shutdown();

    assert_eq!(wrong, 0, "every storm answer must be byte-correct");
    let storm_rows: Vec<Row> = STORM_CLIENTS
        .iter()
        .zip(storm_best)
        .map(|(&clients, best)| Row {
            clients,
            best,
            qps: STORM_REQS_TOTAL as f64 / best.as_secs_f64().max(1e-12),
        })
        .collect();
    for r in &storm_rows {
        println!(
            "  storm: {} blocking client(s), {} answers in {:?} = {:.1} q/s",
            r.clients, STORM_REQS_TOTAL, r.best, r.qps
        );
    }
    println!("  every storm answer byte-identical to the in-process wrapper's");

    // both tables start at one client
    let json_rows = |rows: &[Row], key: &str| {
        rows.iter()
            .map(|r| {
                format!(
                    "    {{ \"{key}\": {}, \"elapsed_ms\": {:.3}, \"qps\": {:.1}, \
                     \"vs_1\": {:.2} }}",
                    r.clients,
                    r.best.as_secs_f64() * 1e3,
                    r.qps,
                    r.qps / rows[0].qps
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"experiment\": \"X20\",\n  \
         \"generated_by\": \"cargo bench -p mix-bench --bench net_pipeline\",\n  \
         \"transport\": \"mix-net loopback TCP, frame version {}, thread-per-connection \
         server, pooled blocking client\",\n  \
         \"daemons\": {DAEMONS},\n  \"batch\": {BATCH},\n  \
         \"answers_match_in_process\": true,\n  \
         \"throughput\": [\n{}\n  ],\n  \
         \"monotone_1_to_8\": {},\n  \
         \"storm_requests_per_window\": {STORM_REQS_TOTAL},\n  \
         \"storm\": [\n{}\n  ],\n  \
         \"storm_wrong_answers\": {}\n}}",
        mix_net::FRAME_VERSION,
        json_rows(&rows, "threads"),
        monotone,
        json_rows(&storm_rows, "clients"),
        wrong,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR7.json");
    std::fs::write(out, json + "\n").expect("write BENCH_PR7.json");
    println!("wrote {out}");

    for d in daemons {
        d.shutdown();
    }
}
