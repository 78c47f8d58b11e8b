//! `mixctl` — command-line front end for the MIX view-DTD inference
//! library.
//!
//! ```text
//! mixctl infer      --dtd D1.dtd --query Q2.xmas     infer the view DTDs
//! mixctl classify   --dtd D1.dtd --query Q2.xmas     valid/satisfiable/unsat
//! mixctl validate   --dtd D1.dtd --doc dept.xml      validate a document
//! mixctl eval       --dtd D1.dtd --doc dept.xml --query Q2.xmas
//! mixctl structure  --dtd D1.dtd                     query-interface summary
//! mixctl explain    --sat --dtd D1.dtd --query Q2.xmas   would the fetch be pruned?
//! mixctl explain    --sat --part D1.dtd:Q3.xmas --part D9.dtd:Q3.xmas
//! mixctl tightness  --dtd D1.dtd --query Q2.xmas --max-size 16
//! mixctl union      --part D1.dtd:Q3.xmas --part D1b.dtd:Q3.xmas
//! mixctl federate   --dtd D1.dtd --query Q3.xmas --doc a.xml --doc b.xml \
//!                   --fail-rate 0.3 --fault-seed 7
//! mixctl serve-source --addr 127.0.0.1:0 --dtd D1.dtd --doc dept.xml
//! mixctl serve-source --addr 127.0.0.1:0 --dtd D1.dtd --doc dept.xml \
//!                   --admit-rps 100 --admit-burst 20
//! mixctl serve-source --addr 127.0.0.1:0 --dtd D1.dtd --doc dept.xml \
//!                   --query Q3.xmas --store-dir /var/lib/mix/store
//! mixctl federate   --query Q3.xmas --remote 127.0.0.1:7801 --remote host:7802
//! mixctl federate   --query Q3.xmas --topology cluster.topo
//! mixctl stats      --remote 127.0.0.1:7801 [--format prom]
//! ```
//!
//! A topology file (`federate --topology`) lists replicated
//! `serve-source` daemons, one source per line in union order; each
//! source becomes one union member that fails over across its replicas
//! (a `nodes N` line is accepted and ignored):
//!
//! ```text
//! source site0 = 127.0.0.1:7801, 127.0.0.1:7811
//! source site1 = 127.0.0.1:7802
//! ```
//!
//! DTD files may use real `<!ELEMENT …>` syntax or the paper's compact
//! `<name : model>` notation (auto-detected).
//!
//! Exit codes (stable, scripts may rely on them):
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | success                                                    |
//! | 1    | internal failure (unreadable file, invalid document, …)    |
//! | 2    | usage error                                                |
//! | 3    | degraded but served: a partial federated answer            |
//! | 4    | a DTD / query / document file failed to parse              |
//! | 5    | the query was rejected (normalization failed)              |
//! | 6    | a source is unavailable (or every federated source failed) |

use mix::infer::metrics::tightness_counts;
use mix::prelude::*;
use std::process::ExitCode;

/// Writes to stdout. A reader that went away early (`mixctl … | head`)
/// ends the run quietly, with status 0, instead of a panic.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        exit_on_stdout_error(&e);
    }
}

/// Ends the run after a failed write to stdout: quietly when the reader
/// closed the pipe, with status 1 otherwise.
fn exit_on_stdout_error(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0)
    }
    eprintln!("mixctl: stdout: {e}");
    std::process::exit(1)
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($t:tt)*) => { emit(format_args!($($t)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($t:tt)*) => { emit(format_args!("{}\n", format_args!($($t)*))) };
}

/// Exit code 3: a federated answer was served, but degraded.
const EXIT_DEGRADED: u8 = 3;
/// Exit code 4: a DTD / query / document file failed to parse.
const EXIT_PARSE: u8 = 4;
/// Exit code 5: the query was rejected (normalization failed).
const EXIT_QUERY: u8 = 5;
/// Exit code 6: a source is unavailable / every federated source failed.
const EXIT_UNAVAILABLE: u8 = 6;

fn usage() -> ! {
    eprintln!(
        "usage: mixctl <infer|classify|validate|eval|structure|explain|tightness|union|\
         federate|serve-source|stats> [--dtd FILE] [--query FILE] [--doc FILE] \
         [--max-size N]\n\
         run `mixctl help` for details"
    );
    std::process::exit(2)
}

/// The exit code a [`SourceError`] maps to.
fn source_error_exit(e: &SourceError) -> u8 {
    match e {
        SourceError::Unavailable(_) => EXIT_UNAVAILABLE,
        SourceError::Query(_) => EXIT_QUERY,
        _ => 1,
    }
}

struct Args {
    command: String,
    dtd: Option<String>,
    query: Option<String>,
    docs: Vec<String>,
    parts: Vec<(String, String)>,
    name: String,
    max_size: usize,
    fail_rate: f64,
    fault_seed: u64,
    retries: u32,
    addr: Option<String>,
    remotes: Vec<String>,
    max_conns: usize,
    timeout_ms: u64,
    format: String,
    metrics_file: Option<String>,
    metrics_interval_ms: u64,
    topology: Option<String>,
    admit_rps: Option<u64>,
    admit_burst: Option<u64>,
    workers: usize,
    conns: Option<usize>,
    stream: bool,
    store_dir: Option<String>,
    sat: bool,
}

/// The client configuration the shared flags describe: `--timeout-ms`
/// bounds each reply, and `--conns` caps the connections (and so the
/// exchanges in flight) per remote.
fn client_config(args: &Args) -> ClientConfig {
    let mut cfg = ClientConfig {
        io_timeout: std::time::Duration::from_millis(args.timeout_ms),
        ..ClientConfig::default()
    };
    if let Some(n) = args.conns {
        cfg.pool_size = n.max(1);
    }
    cfg
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        command,
        dtd: None,
        query: None,
        docs: Vec::new(),
        parts: Vec::new(),
        name: "view".to_owned(),
        max_size: 16,
        fail_rate: 0.0,
        fault_seed: 0,
        retries: 2,
        addr: None,
        remotes: Vec::new(),
        max_conns: 64,
        timeout_ms: 10_000,
        format: "json".to_owned(),
        metrics_file: None,
        metrics_interval_ms: 1_000,
        topology: None,
        admit_rps: None,
        admit_burst: None,
        workers: 0,
        conns: None,
        stream: false,
        store_dir: None,
        sat: false,
    };
    while let Some(flag) = argv.next() {
        let mut grab = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dtd" => args.dtd = Some(grab()),
            "--query" => args.query = Some(grab()),
            "--doc" => args.docs.push(grab()),
            "--max-size" => {
                args.max_size = grab().parse().unwrap_or_else(|_| usage());
            }
            "--fail-rate" => {
                args.fail_rate = grab().parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&args.fail_rate) {
                    eprintln!("mixctl: --fail-rate must be in [0, 1]");
                    std::process::exit(2)
                }
            }
            "--fault-seed" => {
                args.fault_seed = grab().parse().unwrap_or_else(|_| usage());
            }
            "--retries" => {
                args.retries = grab().parse().unwrap_or_else(|_| usage());
            }
            "--name" => args.name = grab(),
            "--stream" => args.stream = true,
            "--sat" => args.sat = true,
            "--addr" => args.addr = Some(grab()),
            "--remote" => args.remotes.push(grab()),
            "--max-conns" => {
                args.max_conns = grab().parse().unwrap_or_else(|_| usage());
            }
            "--timeout-ms" => {
                args.timeout_ms = grab().parse().unwrap_or_else(|_| usage());
            }
            "--format" => {
                args.format = grab();
                if args.format != "json" && args.format != "prom" {
                    eprintln!("mixctl: --format must be 'json' or 'prom'");
                    std::process::exit(2)
                }
            }
            "--topology" => args.topology = Some(grab()),
            "--admit-rps" => {
                args.admit_rps = Some(grab().parse().unwrap_or_else(|_| usage()));
            }
            "--admit-burst" => {
                args.admit_burst = Some(grab().parse().unwrap_or_else(|_| usage()));
            }
            "--workers" => {
                args.workers = grab().parse().unwrap_or_else(|_| usage());
            }
            "--conns" => {
                args.conns = Some(grab().parse().unwrap_or_else(|_| usage()));
            }
            "--store-dir" => args.store_dir = Some(grab()),
            "--metrics-file" => args.metrics_file = Some(grab()),
            "--metrics-interval-ms" => {
                args.metrics_interval_ms = grab().parse().unwrap_or_else(|_| usage());
            }
            "--part" => {
                let spec = grab();
                match spec.split_once(':') {
                    Some((d, q)) => args.parts.push((d.to_owned(), q.to_owned())),
                    None => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("mixctl: cannot read '{path}': {e}");
        std::process::exit(1)
    })
}

fn load_dtd_path(path: &str) -> Dtd {
    let text = read(path);
    let parsed = if text.trim_start().starts_with("<!") {
        parse_xml_dtd(&text)
    } else {
        parse_compact(&text)
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("mixctl: {path}: {e}");
        std::process::exit(EXIT_PARSE as i32)
    })
}

fn load_dtd(args: &Args) -> Dtd {
    load_dtd_path(args.dtd.as_deref().unwrap_or_else(|| usage()))
}

fn load_query_path(path: &str) -> Query {
    parse_query(&read(path)).unwrap_or_else(|e| {
        eprintln!("mixctl: {path}: {e}");
        std::process::exit(EXIT_PARSE as i32)
    })
}

fn load_query(args: &Args) -> Query {
    load_query_path(args.query.as_deref().unwrap_or_else(|| usage()))
}

fn load_doc_path(path: &str) -> Document {
    parse_document(&read(path)).unwrap_or_else(|e| {
        eprintln!("mixctl: {path}: {e}");
        std::process::exit(EXIT_PARSE as i32)
    })
}

fn load_doc(args: &Args) -> Document {
    load_doc_path(
        args.docs
            .first()
            .map(String::as_str)
            .unwrap_or_else(|| usage()),
    )
}

/// Opens the `--store-dir` warm-start store against `registry` (so its
/// `store_*` counters sit next to the serving instruments), or `None`
/// when the flag is absent. An unopenable directory is fatal: the user
/// asked for persistence and silently serving cold would lose it.
fn open_store(args: &Args, registry: &Registry) -> Option<std::sync::Arc<Store>> {
    let dir = args.store_dir.as_deref()?;
    match Store::open(dir, registry) {
        Ok(s) => Some(std::sync::Arc::new(s)),
        Err(e) => {
            eprintln!("mixctl: cannot open store directory '{dir}': {e}");
            std::process::exit(1)
        }
    }
}

/// Renders an observability snapshot in the requested `--format`.
fn render_snapshot(snap: &Snapshot, format: &str) -> String {
    match format {
        "prom" => snap.to_prometheus(),
        _ => snap.to_json() + "\n",
    }
}

/// Writes the merged (process-global + given registry) snapshot to
/// `path`. Best-effort: a full metrics disk must not kill serving.
fn dump_metrics(path: &str, registry: &Registry, format: &str) {
    let snap = mix::obs::global().snapshot().merge(&registry.snapshot());
    if let Err(e) = std::fs::write(path, render_snapshot(&snap, format)) {
        eprintln!("mixctl: cannot write metrics file '{path}': {e}");
    }
}

/// Reads a `--topology` file. Exits 4 when it does not parse and 2 when
/// it lists no sources.
fn load_topology(path: &str) -> Topology {
    let topo = Topology::parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("mixctl: {path}: {e}");
        std::process::exit(EXIT_PARSE as i32)
    });
    if topo.sources.is_empty() {
        eprintln!("mixctl: {path}: the topology lists no sources");
        std::process::exit(2)
    }
    topo
}

/// One `federate --topology` member: a [`ReplicaSet`] over the source's
/// replica daemons, recording into `registry`. Replicas that refuse the
/// connection are kept as [`DeadReplica`] placeholders, so failover
/// order stays the configured one. Fails with the exit code when no
/// replica answers or the replicas' DTDs disagree.
fn replica_set(args: &Args, registry: &Registry, spec: &SourceSpec) -> Result<ReplicaSet, u8> {
    use std::sync::Arc;

    let cfg = client_config(args);
    // connect what answers; remember the positions that don't
    let mut live: Vec<Option<Arc<dyn Wrapper>>> = Vec::new();
    for addr in &spec.replicas {
        match RemoteWrapper::connect_with(addr, cfg) {
            Ok(w) => live.push(Some(Arc::new(w))),
            Err(e) => {
                eprintln!("mixctl: warning: {}: replica {addr}: {e}", spec.name);
                live.push(None);
            }
        }
    }
    let Some(dtd) = live.iter().flatten().next().map(|w| w.dtd().clone()) else {
        eprintln!("mixctl: every replica of '{}' is unreachable", spec.name);
        return Err(EXIT_UNAVAILABLE);
    };
    // dead replicas keep their failover position: a later run where
    // the replica died one call in produces the same report
    let replicas: Vec<Arc<dyn Wrapper>> = live
        .into_iter()
        .zip(&spec.replicas)
        .map(|(w, addr)| w.unwrap_or_else(|| Arc::new(DeadReplica::new(addr, dtd.clone()))))
        .collect();
    let n = replicas.len();
    ReplicaSet::new(
        &spec.name,
        replicas,
        ReplicaPolicy::default(),
        ReplicaInstruments::new(registry, &spec.name, n),
    )
    .map_err(|e| {
        eprintln!("mixctl: {}: {e}", spec.name);
        source_error_exit(&e)
    })
}

/// `eval --stream`: one-pass evaluation over the document file with the
/// answer serialized incrementally to stdout (byte-identical to the
/// in-memory path) and a resource report on stderr. Returns `None` when
/// the query is outside the streamable fragment — the caller falls back.
fn stream_eval_command(args: &Args, dtd: &Dtd, nq: &Query) -> Option<ExitCode> {
    let cq = match CompiledQuery::compile(nq, Some(dtd)) {
        Ok(cq) => cq,
        Err(unsupported) => {
            eprintln!("mixctl: query not streamable ({unsupported}); evaluating in memory");
            return None;
        }
    };
    let path = args
        .docs
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage());
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mixctl: {path}: {e}");
            return Some(ExitCode::FAILURE);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match stream_answer_to(
        std::io::BufReader::new(file),
        &cq,
        WriteConfig::default(),
        &mut out,
    ) {
        Ok(stats) => {
            use std::io::Write;
            let _ = out.write_all(b"\n");
            let _ = out.flush();
            eprintln!(
                "streamed {} bytes, {} events; {} answers; peak state {} bytes \
                 (matcher {} + reader buffer {})",
                stats.bytes_read,
                stats.events,
                stats.answers,
                stats.peak_state_bytes(),
                stats.peak_matcher_bytes,
                stats.reader_buffer_high_water,
            );
            Some(ExitCode::SUCCESS)
        }
        Err(mix::stream::StreamError::Parse(e)) => {
            eprintln!("mixctl: {path}: {e}");
            Some(ExitCode::from(EXIT_PARSE))
        }
        Err(mix::stream::StreamError::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            exit_on_stdout_error(&e)
        }
        Err(mix::stream::StreamError::Io(e)) => {
            eprintln!("mixctl: {path}: {e}");
            Some(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            outln!(
                "mixctl — view DTD inference for XML mediators (ICDE 1999)\n\n\
                 commands:\n\
                 \x20 infer      --dtd F --query F   infer the specialized + merged view DTDs\n\
                 \x20 classify   --dtd F --query F   valid | satisfiable | unsatisfiable\n\
                 \x20 validate   --dtd F --doc F     validate a document (exit 1 on failure)\n\
                 \x20 eval       --dtd F --doc F --query F [--stream]   run the query and\n\
                 \x20            print the view. --stream evaluates in one pass over the\n\
                 \x20            document file with bounded state (large documents), with\n\
                 \x20            a one-line resource report on stderr; queries outside\n\
                 \x20            the streamable fragment fall back to in-memory\n\
                 \x20            evaluation\n\
                 \x20 structure  --dtd F             the DTD-based query-interface summary\n\
                 \x20 explain    --sat --dtd F --query F   per-source satisfiability\n\
                 \x20            verdict: 'sat', 'unknown', or 'unsat: WITNESS' with the\n\
                 \x20            proof path, plus whether the mediator would skip the\n\
                 \x20            fetch; a query that does not normalize is 'query\n\
                 \x20            rejected' (exit 5). --part DTD:QUERY … explains a\n\
                 \x20            federated plan (one line per source)\n\
                 \x20 tightness  --dtd F --query F [--max-size N]   exact tightness counts\n\
                 \x20 union      [--name N] --part DTD:QUERY …      infer a union view DTD\n\
                 \x20 federate   --query F [--dtd F --doc F …] [--remote HOST:PORT …]\n\
                 \x20            [--topology FILE] [--fail-rate R] [--fault-seed S]\n\
                 \x20            [--retries N] [--timeout-ms MS] [--conns N]   union\n\
                 \x20            local docs and remote serve-source daemons as one view\n\
                 \x20            under injected faults; print the (partial) answer +\n\
                 \x20            degradation report.\n\
                 \x20            --topology takes the members from a file instead: one\n\
                 \x20            'source NAME = ADDR, ADDR' line per member, in union\n\
                 \x20            order; each call fails over across the source's\n\
                 \x20            replicas (circuit breaker per replica). A 'nodes N'\n\
                 \x20            line is accepted and ignored\n\
                 \x20 serve-source --addr HOST:PORT --dtd F --doc F [--query F]\n\
                 \x20            [--max-conns N] [--timeout-ms MS] [--admit-rps N]\n\
                 \x20            [--admit-burst N] [--workers N]   export the source (or,\n\
                 \x20            with --query, its view — a stacked mediator) over the\n\
                 \x20            mix-net wire protocol; prints 'listening on HOST:PORT'.\n\
                 \x20            --admit-rps / --admit-burst turn on per-client\n\
                 \x20            token-bucket admission control: queries past the budget\n\
                 \x20            get a Throttled reply. --workers N lets at most N\n\
                 \x20            queries be answered at once (0 = one per CPU)\n\
                 \x20 stats      --remote HOST:PORT [--format json|prom]   fetch a serving\n\
                 \x20            daemon's observability snapshot over the wire\n\n\
                 client transport (federate, stats):\n\
                 \x20 --conns N                connections the client may hold per\n\
                 \x20                          remote, one exchange on each at a time\n\
                 \x20                          (default 4)\n\n\
                 warm starts (serve-source, federate):\n\
                 \x20 --store-dir DIR          persist the inference cache, regex pool\n\
                 \x20                          arena, and inclusion memo to DIR and\n\
                 \x20                          reload them on start: restarts answer\n\
                 \x20                          warm. Misses append to a write-behind\n\
                 \x20                          log (killed daemons lose nothing); a\n\
                 \x20                          clean exit compacts one snapshot\n\
                 \x20                          generation. Corrupt or truncated store\n\
                 \x20                          bytes are skipped record-by-record\n\
                 \x20                          (counted in store_load_skipped_total)\n\
                 \x20                          and the daemon falls back to cold\n\
                 \x20                          inference — never to wrong answers\n\n\
                 observability (serve-source, federate):\n\
                 \x20 --metrics-file FILE      dump the mix-obs snapshot to FILE\n\
                 \x20                          (periodically for serve-source, once at\n\
                 \x20                          exit for one-shot commands)\n\
                 \x20 --metrics-interval-ms MS dump interval (default 1000)\n\
                 \x20 --format json|prom       snapshot rendering for --metrics-file\n\
                 \x20                          and stats (default json)\n\n\
                 exit codes: 0 ok; 1 failure; 2 usage; 3 degraded federated answer;\n\
                 \x20 4 DTD/query/document parse error; 5 query rejected (normalization);\n\
                 \x20 6 source unavailable / every federated source failed"
            );
            ExitCode::SUCCESS
        }
        "infer" => {
            let dtd = load_dtd(&args);
            let q = load_query(&args);
            match infer_view_dtd(&q, &dtd) {
                Ok(iv) => {
                    outln!("verdict: {:?}\n", iv.verdict);
                    outln!("specialized view DTD:\n{}\n", iv.sdtd);
                    outln!("merged view DTD:\n{}", iv.dtd);
                    if !iv.merged_names.is_empty() {
                        outln!(
                            "\nnon-tightness introduced by merging on: {}",
                            iv.merged_names
                                .iter()
                                .map(|n| n.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                    }
                    let nondet = mix::dtd::nondeterministic_names(&iv.dtd);
                    if !nondet.is_empty() {
                        outln!(
                            "note: content models of {} are not 1-unambiguous \
                             (XML 1.0 determinism rule)",
                            nondet
                                .iter()
                                .map(|n| n.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mixctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "classify" => {
            let dtd = load_dtd(&args);
            let q = load_query(&args);
            match normalize(&q, &dtd) {
                Ok(nq) => {
                    outln!("{:?}", classify_query(&nq, &dtd));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mixctl: query rejected: {e}");
                    ExitCode::from(EXIT_QUERY)
                }
            }
        }
        "validate" => {
            let dtd = load_dtd(&args);
            let doc = load_doc(&args);
            match validate_document(&dtd, &doc) {
                Ok(()) => {
                    outln!("valid");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    outln!("invalid: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "eval" => {
            let dtd = load_dtd(&args);
            let q = load_query(&args);
            let nq = match normalize(&q, &dtd) {
                Ok(nq) => nq,
                Err(e) => {
                    eprintln!("mixctl: query rejected: {e}");
                    return ExitCode::from(EXIT_QUERY);
                }
            };
            if args.stream {
                if let Some(code) = stream_eval_command(&args, &dtd, &nq) {
                    return code;
                }
                // not streamable: fall through to the in-memory path
            }
            let doc = load_doc(&args);
            let out = evaluate(&nq, &doc);
            outln!("{}", write_document(&out, WriteConfig::default()));
            ExitCode::SUCCESS
        }
        "structure" => {
            let dtd = load_dtd(&args);
            out!("{}", render_structure(&dtd));
            ExitCode::SUCCESS
        }
        "explain" => {
            if !args.sat {
                eprintln!("mixctl: explain needs --sat (per-source satisfiability verdicts)");
                return ExitCode::from(2);
            }
            // one --dtd/--query pair, or per-source --part DTD:QUERY pairs
            // (the federated shape): each line is one source's verdict
            let parts: Vec<(String, String)> = if args.parts.is_empty() {
                vec![(
                    args.dtd.clone().unwrap_or_else(|| usage()),
                    args.query.clone().unwrap_or_else(|| usage()),
                )]
            } else {
                args.parts.clone()
            };
            let mut pruned = 0usize;
            let mut rejected = false;
            for (dtd_path, query_path) in &parts {
                let dtd = load_dtd_path(dtd_path);
                let q = load_query_path(query_path);
                let verdict = check_sat(&q, &dtd);
                // a query that does not normalize is `Unknown`: federate
                // rejects it before any fetch, so there is no plan
                if verdict == SatVerdict::Unknown {
                    if let Err(e) = normalize(&q, &dtd) {
                        outln!("{dtd_path}: query rejected: {e}");
                        rejected = true;
                        continue;
                    }
                }
                let action = match &verdict {
                    SatVerdict::Unsat(_) => {
                        pruned += 1;
                        "fetch skipped"
                    }
                    SatVerdict::Sat => "fetch proceeds",
                    SatVerdict::Unknown => "fetch proceeds (not provably empty)",
                };
                outln!("{dtd_path}: {verdict} [{action}]");
            }
            if rejected {
                return ExitCode::from(EXIT_QUERY);
            }
            outln!("{pruned}/{} source fetches pruned", parts.len());
            ExitCode::SUCCESS
        }
        "union" => {
            if args.parts.is_empty() {
                usage();
            }
            let mut loaded = Vec::new();
            for (dtd_path, query_path) in &args.parts {
                let dtd = load_dtd_path(dtd_path);
                loaded.push((load_query_path(query_path), dtd));
            }
            let refs: Vec<(&Query, &Dtd)> = loaded.iter().map(|(q, d)| (q, d)).collect();
            match mix::infer::infer_union_view_dtd(name(&args.name), &refs) {
                Ok(u) => {
                    outln!("verdict: {:?}\n", u.verdict);
                    outln!("specialized union view DTD:\n{}\n", u.sdtd);
                    outln!("merged union view DTD:\n{}", u.dtd);
                    if !u.kind_conflicts.is_empty() {
                        outln!(
                            "\nWARNING: {} mix PCDATA and element content across sites; \
                             the merged plain DTD is not sound for them (use the s-DTD)",
                            u.kind_conflicts
                                .iter()
                                .map(|n| n.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mixctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "federate" => {
            let q = load_query(&args);
            if args.topology.is_some() && (!args.docs.is_empty() || !args.remotes.is_empty()) {
                eprintln!("mixctl: --topology replaces --doc/--remote members");
                return ExitCode::from(2);
            }
            let topology = args.topology.as_deref().map(load_topology);
            if topology.is_none() && args.docs.is_empty() && args.remotes.is_empty() {
                usage();
            }
            let registry = Registry::new();
            let mut m = match open_store(&args, &registry) {
                Some(store) => Mediator::with_store(
                    ProcessorConfig::default(),
                    registry,
                    store as std::sync::Arc<dyn WarmStore>,
                ),
                None => Mediator::with_registry(ProcessorConfig::default(), registry),
            };
            m.set_resilience_policy(ResiliencePolicy {
                max_retries: args.retries,
                ..ResiliencePolicy::default()
            });
            let mut site_names: Vec<String> = Vec::new();
            // topology members, in file order: one replica set per source
            for spec in topology.iter().flat_map(|t| &t.sources) {
                let set = match replica_set(&args, m.registry(), spec) {
                    Ok(set) => set,
                    Err(code) => return ExitCode::from(code),
                };
                m.add_source(&spec.name, std::sync::Arc::new(set));
                site_names.push(spec.name.clone());
            }
            if !args.docs.is_empty() {
                // local members share the --dtd; remote members export
                // their own DTDs at registration
                let dtd = load_dtd(&args);
                for (i, path) in args.docs.iter().enumerate() {
                    let doc = load_doc_path(path);
                    let source = XmlSource::new(dtd.clone(), doc).unwrap_or_else(|e| {
                        eprintln!("mixctl: {path}: {e}");
                        std::process::exit(1)
                    });
                    // one independent, seeded schedule per site
                    let injector = FaultInjector::seeded(
                        std::sync::Arc::new(source),
                        args.fault_seed.wrapping_add(i as u64),
                        args.fail_rate,
                    );
                    let site = format!("site{i}");
                    m.add_source(&site, std::sync::Arc::new(injector));
                    site_names.push(site);
                }
            }
            for (i, addr) in args.remotes.iter().enumerate() {
                let cfg = client_config(&args);
                let wrapper = match RemoteWrapper::connect_with(addr, cfg) {
                    Ok(w) => w,
                    Err(e) => {
                        eprintln!("mixctl: {addr}: {e}");
                        return ExitCode::from(source_error_exit(&e));
                    }
                };
                let site = format!("remote{i}");
                m.add_source(&site, std::sync::Arc::new(wrapper));
                site_names.push(site);
            }
            let parts: Vec<(&str, Query)> =
                site_names.iter().map(|s| (s.as_str(), q.clone())).collect();
            if let Err(e) = m.register_union_view(&args.name, &parts) {
                if let MediatorError::Normalize(e) = e {
                    eprintln!("mixctl: query rejected: {e}");
                    return ExitCode::from(EXIT_QUERY);
                }
                eprintln!("mixctl: {e}");
                return ExitCode::FAILURE;
            }
            let code = match m.materialize_with_report(name(&args.name)) {
                Ok((doc, report)) => {
                    outln!("{}", write_document(&doc, WriteConfig::default()));
                    out!("{report}");
                    if report.is_clean() {
                        ExitCode::SUCCESS
                    } else {
                        // degraded but served: distinguishable from both
                        // success and hard failure
                        ExitCode::from(EXIT_DEGRADED)
                    }
                }
                Err(e) => {
                    eprintln!("mixctl: {e}");
                    match e {
                        MediatorError::AllSourcesFailed(_) => ExitCode::from(EXIT_UNAVAILABLE),
                        MediatorError::Source { error, .. } => {
                            ExitCode::from(source_error_exit(&error))
                        }
                        MediatorError::Normalize(_) => ExitCode::from(EXIT_QUERY),
                        _ => ExitCode::FAILURE,
                    }
                }
            };
            // one final snapshot: a federate run is one-shot, so the dump
            // happens after the answer rather than on an interval
            if let Some(path) = &args.metrics_file {
                dump_metrics(path, m.registry(), &args.format);
            }
            m.inference_cache().compact_store();
            code
        }
        "stats" => {
            let Some(addr) = args.remotes.first() else {
                eprintln!("mixctl: stats needs --remote HOST:PORT");
                return ExitCode::from(2);
            };
            let cfg = client_config(&args);
            let mut conn = match Connection::connect(addr, &cfg) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("mixctl: {addr}: {e}");
                    return ExitCode::from(EXIT_UNAVAILABLE);
                }
            };
            match conn.request(Msg::Stats(String::new())) {
                Ok(Msg::Stats(json)) => match args.format.as_str() {
                    // re-render remotely: the wire always carries the JSON
                    // snapshot, and `from_json` round-trips it exactly
                    "prom" => match Snapshot::from_json(&json) {
                        Ok(snap) => {
                            out!("{}", snap.to_prometheus());
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("mixctl: {addr}: malformed snapshot: {e}");
                            ExitCode::FAILURE
                        }
                    },
                    _ => {
                        outln!("{json}");
                        ExitCode::SUCCESS
                    }
                },
                Ok(other) => {
                    eprintln!(
                        "mixctl: {addr}: unexpected {:?} reply to a stats request",
                        other.msg_type()
                    );
                    ExitCode::FAILURE
                }
                // an old daemon (or one serving no statistics) is a plain
                // failure, not "unavailable": the peer answered
                Err(NetError::Remote { kind, msg }) => {
                    eprintln!("mixctl: {addr}: remote fault [{kind}]: {msg}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("mixctl: {addr}: {e}");
                    ExitCode::from(EXIT_UNAVAILABLE)
                }
            }
        }
        "serve-source" => {
            let Some(addr) = args.addr.as_deref() else {
                eprintln!("mixctl: serve-source needs --addr HOST:PORT");
                return ExitCode::from(2);
            };
            let dtd = load_dtd(&args);
            let doc = load_doc(&args);
            let source = XmlSource::new(dtd, doc).unwrap_or_else(|e| {
                eprintln!("mixctl: document does not validate: {e}");
                std::process::exit(1)
            });
            // every layer of the daemon records into one registry; `stats`
            // requests and the --metrics-file dump both read it merged
            // with the process-wide automata memo counters
            let registry = Registry::new();
            let store = open_store(&args, &registry);
            // a clean shutdown compacts through this handle; SIGKILLed
            // daemons still warm-start from the write-behind wal
            let mut compact_cache: Option<std::sync::Arc<InferenceCache>> = None;
            // --query exports the *view* (a stacked mediator) instead of
            // the raw source
            let wrapper: std::sync::Arc<dyn Wrapper> = match &args.query {
                None => {
                    // no inference cache to warm, but loading still seeds
                    // the process-wide pool arena and inclusion memo
                    if let Some(store) = &store {
                        let _ = store.load();
                    }
                    std::sync::Arc::new(source)
                }
                Some(_) => {
                    let q = load_query(&args);
                    let mut m = match &store {
                        Some(store) => Mediator::with_store(
                            ProcessorConfig::default(),
                            registry.clone(),
                            std::sync::Arc::clone(store) as std::sync::Arc<dyn WarmStore>,
                        ),
                        None => {
                            Mediator::with_registry(ProcessorConfig::default(), registry.clone())
                        }
                    };
                    m.add_source("local", std::sync::Arc::new(source));
                    if let Err(e) = m.register_view("local", &q) {
                        if let MediatorError::Normalize(e) = e {
                            eprintln!("mixctl: query rejected: {e}");
                            return ExitCode::from(EXIT_QUERY);
                        }
                        eprintln!("mixctl: {e}");
                        return ExitCode::FAILURE;
                    }
                    compact_cache = Some(std::sync::Arc::clone(m.inference_cache()));
                    let view = q.view_name;
                    let vw = ViewWrapper::new(std::sync::Arc::new(m), view)
                        .expect("the view was registered just above");
                    std::sync::Arc::new(vw)
                }
            };
            let config = ServerConfig {
                max_connections: args.max_conns,
                io_timeout: std::time::Duration::from_millis(args.timeout_ms),
                // answer slots; 0 sizes them from the CPU count
                workers: args.workers,
                // either flag opts the daemon into per-client admission
                // control; --admit-rps 0 means the burst is all a
                // connection ever gets
                admission: (args.admit_rps.is_some() || args.admit_burst.is_some()).then(|| {
                    AdmissionConfig {
                        burst: args.admit_burst.or(args.admit_rps).unwrap_or(1).max(1),
                        refill_per_sec: args.admit_rps.unwrap_or(0),
                    }
                }),
            };
            let service = WrapperService::new(wrapper).with_registry(registry.clone());
            let server = match Server::bind(addr, std::sync::Arc::new(service), config) {
                Ok(s) => s.with_registry(&registry),
                Err(e) => {
                    eprintln!("mixctl: cannot bind '{addr}': {e}");
                    return ExitCode::FAILURE;
                }
            };
            match server.local_addr() {
                Ok(bound) => {
                    // scripts and tests parse this line (port 0 binds an
                    // OS-assigned port)
                    outln!("listening on {bound}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    eprintln!("mixctl: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Some(path) = args.metrics_file.clone() {
                let registry = registry.clone();
                let format = args.format.clone();
                let interval = std::time::Duration::from_millis(args.metrics_interval_ms.max(1));
                // detached dump loop; dies with the process
                std::thread::spawn(move || loop {
                    std::thread::sleep(interval);
                    dump_metrics(&path, &registry, &format);
                });
            }
            match server.run() {
                Ok(()) => {
                    // a clean stop snapshots the cache (plus pool and
                    // memo) into one compacted generation
                    if let Some(cache) = &compact_cache {
                        cache.compact_store();
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mixctl: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "tightness" => {
            let dtd = load_dtd(&args);
            let q = load_query(&args);
            let rows = tightness_counts(&q, &dtd, args.max_size);
            outln!(
                "{:>5} {:>16} {:>16} {:>16}",
                "size",
                "naive",
                "tight",
                "s-DTD"
            );
            for r in rows {
                if r.naive + r.merged + r.specialized > 0 {
                    outln!(
                        "{:>5} {:>16} {:>16} {:>16}",
                        r.size,
                        r.naive,
                        r.merged,
                        r.specialized
                    );
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
