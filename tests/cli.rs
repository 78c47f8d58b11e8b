//! End-to-end tests of the `mixctl` binary (deliverable b's tool face).

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mixctl-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write fixture");
    path
}

fn mixctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mixctl"))
        .args(args)
        .output()
        .expect("binary runs")
}

const D1: &str = "{<department : name, professor+, gradStudent+, course*>\
  <professor : firstName, lastName, publication+, teaches>\
  <gradStudent : firstName, lastName, publication+>\
  <publication : title, author+, (journal | conference)>\
  <teaches : EMPTY> <journal : EMPTY> <conference : EMPTY> <course : EMPTY>}";

const Q2: &str = "withJournals = SELECT P WHERE <department> <name>CS</name> \
  P:<professor | gradStudent> \
    <publication id=Pub1><journal/></publication> \
    <publication id=Pub2><journal/></publication> \
  </> </> AND Pub1 != Pub2";

const DOC: &str = "<department><name>CS</name>\
  <professor><firstName>Y</firstName><lastName>P</lastName>\
    <publication><title>a</title><author>x</author><journal/></publication>\
    <publication><title>b</title><author>x</author><journal/></publication>\
    <teaches/></professor>\
  <gradStudent><firstName>G</firstName><lastName>S</lastName>\
    <publication><title>c</title><author>x</author><conference/></publication>\
  </gradStudent></department>";

#[test]
fn infer_prints_view_dtds() {
    let dtd = fixture("d1.dtd", D1);
    let q = fixture("q2.xmas", Q2);
    let out = mixctl(&[
        "infer",
        "--dtd",
        dtd.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict: Satisfiable"), "{text}");
    assert!(
        text.contains("publication^1 : title, author+, journal"),
        "{text}"
    );
    assert!(text.contains("non-tightness introduced by merging on: publication"));
}

#[test]
fn classify_and_eval() {
    let dtd = fixture("d1b.dtd", D1);
    let q = fixture("q2b.xmas", Q2);
    let doc = fixture("dept.xml", DOC);
    let out = mixctl(&[
        "classify",
        "--dtd",
        dtd.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "Satisfiable");

    let out = mixctl(&[
        "eval",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<withJournals>"));
    assert!(text.contains("<professor>"));
    assert!(!text.contains("<gradStudent>")); // only one journal pub
}

#[test]
fn validate_both_ways() {
    let dtd = fixture("d1c.dtd", D1);
    let good = fixture("good.xml", DOC);
    let bad = fixture("bad.xml", "<department><name>CS</name></department>");
    let out = mixctl(&[
        "validate",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        good.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = mixctl(&[
        "validate",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        bad.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("invalid"));
}

#[test]
fn structure_and_tightness() {
    let dtd = fixture("d1d.dtd", D1);
    let q = fixture("q2d.xmas", Q2);
    let out = mixctl(&["structure", "--dtd", dtd.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("professor"));

    let out = mixctl(&[
        "tightness",
        "--dtd",
        dtd.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
        "--max-size",
        "12",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("naive"), "{text}");
}

#[test]
fn xml_dtd_syntax_is_autodetected() {
    let dtd = fixture(
        "d1.xmldtd",
        "<!DOCTYPE department [\
           <!ELEMENT department (name, professor+, gradStudent+, course*)>\
           <!ELEMENT professor (firstName, lastName, publication+, teaches)>\
           <!ELEMENT gradStudent (firstName, lastName, publication+)>\
           <!ELEMENT publication (title, author+, (journal | conference))>\
           <!ELEMENT teaches EMPTY> <!ELEMENT journal EMPTY>\
           <!ELEMENT conference EMPTY> <!ELEMENT course EMPTY>\
         ]>",
    );
    let out = mixctl(&["structure", "--dtd", dtd.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("department"));
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!mixctl(&[]).status.success());
    assert!(!mixctl(&["nonsense"]).status.success());
    assert!(!mixctl(&["infer"]).status.success());
    assert!(mixctl(&["help"]).status.success());
}

/// Unparseable inputs (DTD, query, document) all map to exit code 4.
#[test]
fn parse_errors_exit_4() {
    let good_dtd = fixture("pe.dtd", D1);
    let good_q = fixture("pe.xmas", Q2);
    let bad_dtd = fixture("pe-bad.dtd", "{<department : ");
    let bad_q = fixture("pe-bad.xmas", "SELECT WHERE <<");
    let bad_doc = fixture("pe-bad.xml", "<department><name>CS</department>");

    let out = mixctl(&[
        "infer",
        "--dtd",
        bad_dtd.to_str().unwrap(),
        "--query",
        good_q.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "bad DTD");

    // no XML name holds `#`, so a DTD naming an element `a#b` is bad too
    let hash_dtd = fixture("pe-hash.dtd", "{<r : a#b*> <a#b : PCDATA>}");
    let out = mixctl(&[
        "infer",
        "--dtd",
        hash_dtd.to_str().unwrap(),
        "--query",
        good_q.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "'#' inside a DTD name");

    let out = mixctl(&[
        "classify",
        "--dtd",
        good_dtd.to_str().unwrap(),
        "--query",
        bad_q.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "bad query");

    let out = mixctl(&[
        "validate",
        "--dtd",
        good_dtd.to_str().unwrap(),
        "--doc",
        bad_doc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "bad document");
}

/// A well-formed query that fails normalization (its pick variable is
/// never bound) is *rejected*, exit code 5 — distinct from a parse error
/// and from source trouble.
#[test]
fn rejected_queries_exit_5() {
    let dtd = fixture("rq.dtd", D1);
    let doc = fixture("rq.xml", DOC);
    let q = fixture(
        "rq.xmas",
        "v = SELECT Z WHERE <department> X:<professor/> </department>",
    );
    let out = mixctl(&[
        "eval",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(5), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("query rejected"));
}

/// `explain --sat` prints one deterministic verdict line per source
/// (the Unsat ones carrying the proof path) plus a pruning summary; the
/// `--sat` flag is mandatory.
#[test]
fn explain_sat_prints_per_source_verdicts() {
    let dtd = fixture("ex.dtd", D1);
    let sat_q = fixture(
        "ex-sat.xmas",
        "pubs = SELECT P WHERE <department> <professor> P:<publication/> </> </>",
    );
    let unsat_q = fixture(
        "ex-unsat.xmas",
        "none = SELECT C WHERE <department> <professor> C:<course/> </> </>",
    );

    // single-source form: --dtd/--query
    let out = mixctl(&[
        "explain",
        "--sat",
        "--dtd",
        dtd.to_str().unwrap(),
        "--query",
        unsat_q.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("unsat: department/professor: child step <course> never occurs"),
        "{text}"
    );
    assert!(text.contains("[fetch skipped]"), "{text}");
    assert!(text.contains("1/1 source fetches pruned"), "{text}");

    // federated form: one --part DTD:QUERY line per source
    let sat_part = format!("{}:{}", dtd.to_str().unwrap(), sat_q.to_str().unwrap());
    let unsat_part = format!("{}:{}", dtd.to_str().unwrap(), unsat_q.to_str().unwrap());
    let out = mixctl(&[
        "explain",
        "--sat",
        "--part",
        &sat_part,
        "--part",
        &unsat_part,
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].ends_with("sat [fetch proceeds]"), "{text}");
    assert!(lines[1].contains("unsat:"), "{text}");
    assert_eq!(lines[2], "1/2 source fetches pruned", "{text}");

    // explain without --sat is a usage error
    assert_eq!(mixctl(&["explain"]).status.code(), Some(2));
}

/// A query that does not normalize has no plan to explain: `explain
/// --sat` reports the part as rejected and exits 5, as `federate` does
/// for the same query before any fetch.
#[test]
fn explain_sat_rejects_a_query_that_does_not_normalize() {
    let dtd = fixture("rej.dtd", "{<r : a*> <a : PCDATA>}");
    let doc = fixture("rej.xml", "<r><a>x</a></r>");
    let bad = fixture("rej-bad.xmas", "u = SELECT Z WHERE <r> X:<a/> </r>");
    let good = fixture("rej-good.xmas", "u = SELECT X WHERE <r> X:<a/> </r>");
    let (dtd, doc) = (dtd.to_str().unwrap(), doc.to_str().unwrap());

    let out = mixctl(&[
        "explain",
        "--sat",
        "--dtd",
        dtd,
        "--query",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with(&format!("{dtd}: query rejected: ")),
        "{text}"
    );
    assert!(!text.contains("fetch proceeds"), "{text}");

    // the other parts of a federated plan are still explained
    let good_part = format!("{dtd}:{}", good.to_str().unwrap());
    let bad_part = format!("{dtd}:{}", bad.to_str().unwrap());
    let out = mixctl(&[
        "explain", "--sat", "--part", &good_part, "--part", &bad_part,
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].ends_with("sat [fetch proceeds]"), "{text}");
    assert!(lines[1].contains("query rejected"), "{text}");

    let out = mixctl(&[
        "federate",
        "--dtd",
        dtd,
        "--query",
        bad.to_str().unwrap(),
        "--doc",
        doc,
    ]);
    assert_eq!(out.status.code(), Some(5), "{out:?}");
}

/// A query whose tags are absent from the source DTD is *not* a
/// client-facing error: the satisfiability analyzer proves it `Unsat`,
/// the mediator skips the fetch, and the run exits 0 with a clean empty
/// answer. (Contrast `rejected_queries_exit_5`: structurally malformed
/// queries still reject with exit 5.)
#[test]
fn absent_tag_queries_federate_to_a_clean_empty_answer() {
    let dtd = fixture("at.dtd", D1);
    let doc = fixture("at.xml", DOC);
    let q = fixture(
        "at.xmas",
        "none = SELECT C WHERE <department> <professor> C:<course/> </> </>",
    );
    let metrics =
        std::env::temp_dir().join(format!("mixctl-sat-metrics-{}.json", std::process::id()));
    let out = mixctl(&[
        "federate",
        "--name",
        "none",
        "--query",
        q.to_str().unwrap(),
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--metrics-file",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<none/>"), "{text}");
    assert!(text.contains("1/1 sources served"), "{text}");
    let snap_text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_file(&metrics);
    let snap = mix::obs::Snapshot::from_json(snap_text.trim()).expect("snapshot parses");
    assert_eq!(
        snap.counters["sat_pruned_total"], 1,
        "the fetch was skipped"
    );
    assert_eq!(
        snap.counters["source_served_fresh_total{source=\"site0\"}"], 0,
        "the source must never be contacted"
    );
}

/// `federate --remote` against a dead address is an unavailable-source
/// failure: exit code 6.
#[test]
fn federate_dead_remote_exits_6() {
    // bind-then-drop reserves a port nothing is listening on
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let q = fixture("fd.xmas", Q2);
    let out = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--remote",
        &dead,
    ]);
    assert_eq!(out.status.code(), Some(6), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("connection refused"));
}

/// A serve-source daemon spawned from the binary answers a `federate
/// --remote` run from a second binary invocation — the full network mode
/// end to end, including the parseable "listening on" line.
#[test]
fn serve_source_then_federate_over_loopback() {
    use std::io::BufRead as _;

    let dtd = fixture("net.dtd", D1);
    let doc = fixture("net.xml", DOC);
    let q = fixture("net.xmas", Q2);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mixctl"))
        .args([
            "serve-source",
            "--addr",
            "127.0.0.1:0",
            "--dtd",
            dtd.to_str().unwrap(),
            "--doc",
            doc.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    std::io::BufReader::new(daemon.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_owned();

    let out = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--remote",
        &addr,
    ]);
    let _ = daemon.kill();
    let _ = daemon.wait();

    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("<view>"), "{text}");
    assert!(text.contains("<professor>"), "{text}");
    assert!(text.contains("1/1 sources served"), "{text}");
}

/// serve-source without a bind address is a usage error (exit 2), like
/// every other malformed invocation.
#[test]
fn serve_source_without_addr_is_usage_error() {
    let dtd = fixture("sa.dtd", D1);
    let doc = fixture("sa.xml", DOC);
    let out = mixctl(&[
        "serve-source",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn union_subcommand() {
    let dtd = fixture("du.dtd", D1);
    let q = fixture(
        "qu.xmas",
        "publist = SELECT P WHERE <department> <name>CS</name> \
           <professor | gradStudent> P:<publication><journal/></publication> </> </>",
    );
    let part = format!("{}:{}", dtd.to_str().unwrap(), q.to_str().unwrap());
    let out = mixctl(&[
        "union", "--name", "allPubs", "--part", &part, "--part", &part,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("allPubs"), "{text}");
    assert!(text.contains("publication"), "{text}");
    // no parts → usage error
    assert!(!mixctl(&["union"]).status.success());
}

/// `mixctl stats` against a live serve-source daemon: the JSON snapshot
/// parses, carries the daemon's serving counters (the federate run just
/// before fetched the view once), and re-renders as the Prometheus text
/// exposition with `--format prom`. The wire round-trip is exact: the
/// client-side `Snapshot::from_json` re-serializes to the identical
/// bytes the daemon sent.
#[test]
fn stats_subcommand_against_loopback_daemon() {
    use std::io::BufRead as _;

    let dtd = fixture("st.dtd", D1);
    let doc = fixture("st.xml", DOC);
    let q = fixture("st.xmas", Q2);
    // the daemon exports the *view* (root <withJournals>), so the
    // federated query must be rooted there — a <department>-rooted query
    // is provably empty against the exported view DTD and the
    // satisfiability analyzer would skip the fetch this test counts
    let view_q = fixture(
        "st-view.xmas",
        "profs = SELECT P WHERE <withJournals> P:<professor/> </withJournals>",
    );

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mixctl"))
        .args([
            "serve-source",
            "--addr",
            "127.0.0.1:0",
            "--dtd",
            dtd.to_str().unwrap(),
            "--doc",
            doc.to_str().unwrap(),
            "--query",
            q.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    std::io::BufReader::new(daemon.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_owned();

    // drive one federated answer through the daemon so the serving
    // counters are non-zero when we scrape
    let fed = mixctl(&[
        "federate",
        "--query",
        view_q.to_str().unwrap(),
        "--remote",
        &addr,
    ]);
    assert_eq!(fed.status.code(), Some(0), "{fed:?}");
    assert!(
        String::from_utf8_lossy(&fed.stdout).contains("<professor>"),
        "the stacked view should serve its professor"
    );

    let json_out = mixctl(&["stats", "--remote", &addr]);
    let prom_out = mixctl(&["stats", "--remote", &addr, "--format", "prom"]);
    let _ = daemon.kill();
    let _ = daemon.wait();

    assert_eq!(json_out.status.code(), Some(0), "{json_out:?}");
    let payload = String::from_utf8(json_out.stdout).expect("utf-8 stats");
    let snap = mix::obs::Snapshot::from_json(payload.trim()).expect("snapshot parses");
    // exact round-trip: parse(json).to_json() == json
    assert_eq!(snap.to_json(), payload.trim());
    assert_eq!(
        snap.counters["source_served_fresh_total{source=\"local\"}"], 1,
        "the daemon's stacked mediator served the federate fetch"
    );
    assert!(snap.counters["net_frames_in_total"] >= 1);
    assert!(snap
        .histograms
        .contains_key("source_fetch_latency_ns{source=\"local\"}"));
    assert!(
        snap.gauges["source_stale_answer_bytes{source=\"local\"}"] > 0,
        "the stacked mediator keeps the fetched answer for stale serving"
    );

    assert_eq!(prom_out.status.code(), Some(0), "{prom_out:?}");
    let text = String::from_utf8_lossy(&prom_out.stdout);
    assert!(text.starts_with("# mix-obs exposition"), "{text}");
    assert!(
        text.contains("# TYPE net_connections_opened_total counter"),
        "{text}"
    );
}

/// `mixctl stats` exit codes: no listener → 6 (unavailable), missing
/// --remote → 2 (usage).
#[test]
fn stats_subcommand_failure_modes() {
    // bind-then-drop reserves a port nothing is listening on
    let free = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = free.local_addr().expect("probe addr").to_string();
    drop(free);
    let out = mixctl(&["stats", "--remote", &addr, "--timeout-ms", "2000"]);
    assert_eq!(out.status.code(), Some(6), "{out:?}");

    assert_eq!(mixctl(&["stats"]).status.code(), Some(2));
}

/// `federate --metrics-file` leaves one final mix-obs snapshot on disk,
/// carrying the per-source resilience counters of the run.
#[test]
fn federate_writes_a_final_metrics_snapshot() {
    let dtd = fixture("mf.dtd", D1);
    let doc = fixture("mf.xml", DOC);
    let q = fixture("mf.xmas", Q2);
    let metrics = std::env::temp_dir().join(format!("mixctl-metrics-{}.json", std::process::id()));
    let out = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--metrics-file",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_file(&metrics);
    let snap = mix::obs::Snapshot::from_json(text.trim()).expect("snapshot parses");
    assert_eq!(
        snap.counters["source_served_fresh_total{source=\"site0\"}"],
        1
    );
    assert_eq!(
        snap.counters["mediator_queries_total"], 0,
        "materialize, not query"
    );
    assert!(
        snap.counters["relang_inclusion_memo_misses_total"] >= 1,
        "global memo merged in"
    );
    // the inference-cache counters and the regex-pool gauges land in the
    // same snapshot
    assert!(snap.counters.contains_key("inference_cache_hits_total"));
    assert!(
        snap.gauges["relang_pool_nodes"] > 0,
        "pool node gauge missing or zero"
    );
    assert!(
        snap.gauges["relang_pool_bytes"] > 0,
        "pool byte gauge missing or zero"
    );
}

/// Spawns a `serve-source` daemon from the binary and parses its
/// "listening on" announcement.
fn spawn_source_daemon(
    dtd: &std::path::Path,
    doc: &std::path::Path,
) -> (std::process::Child, String) {
    use std::io::BufRead as _;
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_mixctl"))
        .args([
            "serve-source",
            "--addr",
            "127.0.0.1:0",
            "--dtd",
            dtd.to_str().unwrap(),
            "--doc",
            doc.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    std::io::BufReader::new(daemon.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_owned();
    (daemon, addr)
}

/// The document part of a federate run's stdout (everything before the
/// degradation report, which starts with `view '`).
fn document_part(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout).into_owned();
    match text.find("view '") {
        Some(i) => text[..i].to_owned(),
        None => text,
    }
}

/// The e2e for `federate --topology`: 2 sources × 2 replica daemons;
/// the answer matches a `federate --remote` over one replica of each
/// source, exit 0, and `--store-dir` leaves a compacted snapshot
/// generation as on every other federate path; after one replica is
/// killed, the rerun still exits 0 with the identical document.
#[test]
fn federate_topology_survives_a_replica_kill_byte_identically() {
    let dtd = fixture("topo.dtd", D1);
    let doc_a = fixture("topo-a.xml", DOC);
    let doc_b = fixture(
        "topo-b.xml",
        "<department><name>CS</name>\
          <professor><firstName>B</firstName><lastName>Q</lastName>\
            <publication><title>z</title><author>y</author><journal/></publication>\
            <publication><title>w</title><author>y</author><journal/></publication>\
            <teaches/></professor>\
          <gradStudent><firstName>H</firstName><lastName>T</lastName>\
            <publication><title>v</title><author>y</author><conference/></publication>\
          </gradStudent></department>",
    );
    let q = fixture("topo.xmas", Q2);

    // 2 sources × 2 replicas
    let (mut a0, a0_addr) = spawn_source_daemon(&dtd, &doc_a);
    let (mut a1, a1_addr) = spawn_source_daemon(&dtd, &doc_a);
    let (mut b0, b0_addr) = spawn_source_daemon(&dtd, &doc_b);
    let (mut b1, b1_addr) = spawn_source_daemon(&dtd, &doc_b);
    let topo = fixture(
        "cluster.topo",
        &format!(
            "# 2 shards x 2 replicas\n\
             nodes 2\n\
             source siteA = {a0_addr}, {a1_addr}\n\
             source siteB = {b0_addr}, {b1_addr}\n"
        ),
    );

    // the single-node reference: one replica of each source, same order
    let single = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--remote",
        &a0_addr,
        "--remote",
        &b0_addr,
    ]);
    assert_eq!(single.status.code(), Some(0), "{single:?}");
    let expected = document_part(&single.stdout);
    assert!(expected.contains("<view>"), "{expected}");

    let store = std::env::temp_dir().join(format!("mixctl-test-{}-topo-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let healthy = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--topology",
        topo.to_str().unwrap(),
        "--store-dir",
        store.to_str().unwrap(),
    ]);
    assert_eq!(healthy.status.code(), Some(0), "{healthy:?}");
    assert_eq!(
        document_part(&healthy.stdout),
        expected,
        "cluster answer diverged from the single-node run"
    );
    let report = String::from_utf8_lossy(&healthy.stdout);
    assert!(report.contains("2/2 sources served"), "{report}");
    let generations: Vec<String> = std::fs::read_dir(&store)
        .expect("store directory created")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.starts_with("gen-") && f.ends_with(".snap"))
        .collect();
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(
        generations.len(),
        1,
        "one compacted generation: {generations:?}"
    );

    // the chaos event: replica 0 of siteA dies; the rerun must still
    // serve the identical document, exit 0, report clean
    let _ = a0.kill();
    let _ = a0.wait();
    let degraded_free = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--topology",
        topo.to_str().unwrap(),
    ]);
    assert_eq!(degraded_free.status.code(), Some(0), "{degraded_free:?}");
    assert_eq!(
        document_part(&degraded_free.stdout),
        expected,
        "replica failover changed the answer bytes"
    );
    assert!(
        String::from_utf8_lossy(&degraded_free.stderr).contains(&a0_addr),
        "the dead replica should be warned about on stderr"
    );

    for d in [&mut a1, &mut b0, &mut b1] {
        let _ = d.kill();
        let _ = d.wait();
    }

    // topology parse errors exit 4, like every other parse failure
    let garbage = fixture("garbage.topo", "nodes 2\nwat\n");
    let out = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--topology",
        garbage.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");

    // --topology and --remote are mutually exclusive: usage error
    let out = mixctl(&[
        "federate",
        "--query",
        q.to_str().unwrap(),
        "--topology",
        topo.to_str().unwrap(),
        "--remote",
        "127.0.0.1:1",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn eval_stream_matches_in_memory_output() {
    let dtd = fixture("st.dtd", D1);
    let doc = fixture("st.xml", DOC);
    // A streamable query …
    let q = fixture(
        "st.xmas",
        "profs = SELECT P WHERE <department> <name>CS</name> P:<professor/> </department>",
    );
    let args = [
        "eval",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--query",
        q.to_str().unwrap(),
    ];
    let plain = mixctl(&args);
    assert!(plain.status.success());
    let mut streamed_args = args.to_vec();
    streamed_args.push("--stream");
    let streamed = mixctl(&streamed_args);
    assert!(streamed.status.success());
    assert_eq!(
        plain.stdout, streamed.stdout,
        "stream output must be byte-identical"
    );
    let report = String::from_utf8_lossy(&streamed.stderr);
    assert!(report.contains("peak state"), "{report}");

    // … a query with != pairs (Q2) streams too, with identical output …
    let q2 = fixture("st2.xmas", Q2);
    let args2 = [
        "eval",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--query",
        q2.to_str().unwrap(),
    ];
    let plain2 = mixctl(&args2);
    let mut streamed_args2 = args2.to_vec();
    streamed_args2.push("--stream");
    let streamed2 = mixctl(&streamed_args2);
    assert!(streamed2.status.success());
    assert_eq!(plain2.stdout, streamed2.stdout);
    let report2 = String::from_utf8_lossy(&streamed2.stderr);
    assert!(report2.contains("peak state"), "{report2}");

    // … and a query outside the fragment (seven sibling conditions, one
    // past the cap) falls back with identical output and a note.
    let q3 = fixture(
        "st3.xmas",
        "wide = SELECT P WHERE <department> P:<professor> <firstName/> <lastName/> \
           <publication/> <publication/> <publication/> <publication/> <teaches/> </> \
         </department>",
    );
    let args3 = [
        "eval",
        "--dtd",
        dtd.to_str().unwrap(),
        "--doc",
        doc.to_str().unwrap(),
        "--query",
        q3.to_str().unwrap(),
    ];
    let plain3 = mixctl(&args3);
    let mut streamed_args3 = args3.to_vec();
    streamed_args3.push("--stream");
    let streamed3 = mixctl(&streamed_args3);
    assert!(streamed3.status.success());
    assert_eq!(plain3.stdout, streamed3.stdout);
    assert!(String::from_utf8_lossy(&streamed3.stderr).contains("not streamable"));
}

/// A reader that stops early (`mixctl eval … | head`) ends the run
/// quietly: no panic message, no backtrace, no exit 101 — on both the
/// in-memory and the streaming eval path.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    use std::io::Read as _;
    use std::process::Stdio;
    let dtd = fixture("d1-pipe.dtd", D1);
    let q = fixture(
        "profs-pipe.xmas",
        "profs = SELECT P WHERE <department> P:<professor/> </department>",
    );
    // an answer far larger than a pipe's buffer
    let professor = "<professor><firstName>Y</firstName><lastName>P</lastName>\
        <publication><title>a</title><author>x</author><journal/></publication>\
        <teaches/></professor>";
    let doc = fixture(
        "big-pipe.xml",
        &format!(
            "<department><name>CS</name>{}<gradStudent><firstName>G</firstName>\
             <lastName>S</lastName><publication><title>c</title><author>x</author>\
             <conference/></publication></gradStudent></department>",
            professor.repeat(4000)
        ),
    );
    for stream in [false, true] {
        let mut args = vec![
            "eval",
            "--dtd",
            dtd.to_str().unwrap(),
            "--doc",
            doc.to_str().unwrap(),
            "--query",
            q.to_str().unwrap(),
        ];
        if stream {
            args.push("--stream");
        }
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mixctl"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut head = [0u8; 64];
        child
            .stdout
            .take()
            .expect("piped")
            .read_exact(&mut head)
            .expect("the answer starts");
        // the read end is dropped here, with most of the answer unread
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "stream: {stream}: {stderr}");
        assert!(!stderr.contains("panicked"), "stream: {stream}: {stderr}");
        assert!(
            !stderr.contains("Broken pipe"),
            "stream: {stream}: {stderr}"
        );
    }
}
