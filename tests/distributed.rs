//! End-to-end distributed mediation over the mix-net wire protocol.
//!
//! The acceptance scenario: a mediator federates two loopback
//! `serve-source` daemons with one in-process source under a union view.
//! When a daemon is killed mid-session, the degraded answer *and* the
//! [`DegradationReport`] must be byte-identical to an all-in-process run
//! whose failing member is scripted to fail the same way. This works
//! because every transport-derived [`SourceError`] message is
//! deterministic (`"{addr}: connection refused"`, never OS error text)
//! and the resilience layer's retry/backoff accounting is virtual.
//!
//! The property test at the bottom drives a RemoteWrapper through a
//! byte-budgeted chaos proxy: whatever prefix of the session survives,
//! the wrapper either agrees with the in-process wrapper byte for byte
//! or fails with a transport-classified source fault — never a query
//! rejection, never silently wrong data.

use mix::prelude::*;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

fn site_doc(tag: &str, entries: usize) -> Document {
    let body: String = (0..entries)
        .map(|i| format!("<entry>{tag}{i}</entry>"))
        .collect();
    parse_document(&format!("<site>{body}</site>")).unwrap()
}

fn site_source(tag: &str, entries: usize) -> XmlSource {
    XmlSource::new(parse_compact(SITE_DTD).unwrap(), site_doc(tag, entries)).unwrap()
}

fn spawn_daemon(tag: &str, entries: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(site_source(tag, entries))),
        ServerConfig::default(),
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn daemon")
}

fn part_query() -> Query {
    parse_query("all = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
}

/// A mediator federating `alpha`/`beta`/`gamma` under the union view
/// `all` — the same shape whether the wrappers are remote or local.
fn federation(
    alpha: Arc<dyn Wrapper>,
    beta: Arc<dyn Wrapper>,
    gamma: Arc<dyn Wrapper>,
) -> Mediator {
    let mut m = Mediator::new();
    m.add_source("alpha", alpha);
    m.add_source("beta", beta);
    m.add_source("gamma", gamma);
    m.register_union_view(
        "all",
        &[
            ("alpha", part_query()),
            ("beta", part_query()),
            ("gamma", part_query()),
        ],
    )
    .expect("union view registers");
    m
}

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

/// An in-process wrapper whose fetches follow an explicit error script —
/// the twin of a remote source dying in a known way. Entries are consumed
/// per call (`None` = pass through); past the end every call succeeds.
struct ScriptedSource {
    inner: XmlSource,
    script: Mutex<VecDeque<Option<SourceError>>>,
}

impl ScriptedSource {
    fn new(inner: XmlSource, script: Vec<Option<SourceError>>) -> ScriptedSource {
        ScriptedSource {
            inner,
            script: Mutex::new(script.into()),
        }
    }
}

impl Wrapper for ScriptedSource {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        match self.script.lock().unwrap().pop_front() {
            Some(Some(e)) => Err(e),
            _ => self.inner.fetch(),
        }
    }
}

/// The error sequence a RemoteWrapper observes after its daemon is
/// killed: the daemon's close reaches the pooled connection *before* any
/// call touches it, and the probe a checkout makes sees it (the tests
/// below wait on [`RemoteWrapper::live_connections`] for exactly this),
/// so the first post-kill call drops the corpse, redials, and is
/// refused — unavailable, not transient, hence no retry accounting in
/// the report.
fn killed_daemon_script(addr: &str) -> Vec<Option<SourceError>> {
    vec![Some(SourceError::Unavailable(format!(
        "{addr}: connection refused"
    )))]
}

/// Blocks until the daemon's closes have reached `remote`'s pooled
/// connections — the moment post-kill behavior becomes deterministic.
/// Panics if they have not after 10 s.
fn await_death(remote: &RemoteWrapper) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = remote.live_connections();
        if live == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{live} pooled connections still live 10 s after the daemon died"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The ISSUE acceptance scenario: two serve-source daemons plus one
/// local source federated; one daemon killed before the union view
/// materializes; answer and DegradationReport byte-identical to the
/// all-in-process twin.
#[test]
fn killed_daemon_degrades_byte_identically_to_an_in_process_twin() {
    // serve_stale off so the kill is visible in the answer itself
    let policy = ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    };

    let daemon_a = spawn_daemon("a", 2);
    let daemon_b = spawn_daemon("b", 3);
    let beta_addr = daemon_b.addr().to_string();
    let alpha = RemoteWrapper::connect(&daemon_a.addr().to_string()).expect("alpha reachable");
    let beta = Arc::new(RemoteWrapper::connect(&beta_addr).expect("beta reachable"));
    let mut distributed = federation(
        Arc::new(alpha),
        Arc::clone(&beta) as Arc<dyn Wrapper>,
        Arc::new(site_source("c", 2)),
    );
    distributed.set_resilience_policy(policy);

    // the injected daemon kill: beta's listener closes and its live
    // connections (including the one pooled in the RemoteWrapper) drop
    daemon_b.shutdown();
    await_death(&beta);

    let (doc, report) = distributed
        .materialize_with_report(name("all"))
        .expect("union survives a dead member");

    // the all-in-process twin: same members, beta scripted to fail the
    // way the dead daemon does
    let mut twin = federation(
        Arc::new(site_source("a", 2)),
        Arc::new(ScriptedSource::new(
            site_source("b", 3),
            killed_daemon_script(&beta_addr),
        )),
        Arc::new(site_source("c", 2)),
    );
    twin.set_resilience_policy(policy);
    let (twin_doc, twin_report) = twin
        .materialize_with_report(name("all"))
        .expect("twin union survives");

    assert_eq!(
        render(&doc),
        render(&twin_doc),
        "degraded distributed answer diverged from the in-process twin"
    );
    assert_eq!(
        report.to_string(),
        twin_report.to_string(),
        "degradation report diverged from the in-process twin"
    );
    assert_eq!(report.failed_sources(), vec!["beta"]);
    assert!(
        !render(&doc).contains("b0"),
        "the dead member must not contribute entries"
    );

    daemon_a.shutdown();
}

/// With the default policy a healthy materialization captures snapshots,
/// so the same kill degrades to *stale* service: the degraded answer is
/// byte-identical to the healthy one, and the report still matches the
/// scripted twin.
#[test]
fn killed_daemon_serves_stale_snapshots_byte_identically() {
    let daemon_a = spawn_daemon("a", 2);
    let daemon_b = spawn_daemon("b", 3);
    let beta_addr = daemon_b.addr().to_string();
    let beta = Arc::new(RemoteWrapper::connect(&beta_addr).expect("beta reachable"));
    let distributed = federation(
        Arc::new(RemoteWrapper::connect(&daemon_a.addr().to_string()).expect("alpha reachable")),
        Arc::clone(&beta) as Arc<dyn Wrapper>,
        Arc::new(site_source("c", 2)),
    );
    let mut twin_script = killed_daemon_script(&beta_addr);
    twin_script.insert(0, None); // the healthy run's fetch passes through
    let twin = federation(
        Arc::new(site_source("a", 2)),
        Arc::new(ScriptedSource::new(site_source("b", 3), twin_script)),
        Arc::new(site_source("c", 2)),
    );

    let (healthy, healthy_report) = distributed
        .materialize_with_report(name("all"))
        .expect("healthy run");
    assert!(healthy_report.is_clean());
    let (twin_healthy, twin_healthy_report) = twin
        .materialize_with_report(name("all"))
        .expect("twin healthy");
    assert_eq!(render(&healthy), render(&twin_healthy));
    assert_eq!(healthy_report.to_string(), twin_healthy_report.to_string());

    daemon_b.shutdown();
    await_death(&beta);

    let (degraded, report) = distributed
        .materialize_with_report(name("all"))
        .expect("stale run");
    let (twin_degraded, twin_report) = twin
        .materialize_with_report(name("all"))
        .expect("twin stale run");

    assert_eq!(report.outcomes[1].status, FetchStatus::Stale);
    assert_eq!(
        render(&degraded),
        render(&healthy),
        "stale service must reproduce the last good answer"
    );
    assert_eq!(render(&degraded), render(&twin_degraded));
    assert_eq!(report.to_string(), twin_report.to_string());

    daemon_a.shutdown();
}

// ---------------------------------------------------------------------------
// Retryable vs. fatal transport faults: a peer speaking the wrong
// protocol version is a deployment problem, not source sickness.
// ---------------------------------------------------------------------------

/// A fake daemon that accepts one connection, swallows the client's
/// `Hello`, and answers with a frame stamped protocol version 9.
fn version9_daemon() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("fake daemon addr");
    std::thread::spawn(move || {
        if let Ok((mut client, _)) = listener.accept() {
            // swallow the client's v2 Hello header so the reply is not
            // lost to a reset racing the unread input
            let mut hello = [0u8; 10];
            let _ = client.read_exact(&mut hello);
            // header: version, type (Hello), then length — the client
            // must bail on byte 0 before trusting the rest
            let _ = client.write_all(&[9, 0, 0, 0, 0, 0]);
            let _ = client.flush();
            let _ = client.shutdown(Shutdown::Both);
        }
    });
    addr
}

/// The satellite-2 pin: a protocol version mismatch maps to
/// [`SourceError::Incompatible`] — fatal, deterministic message — and is
/// *not* a source fault, unlike a refused connection (retryable,
/// breaker-counted).
#[test]
fn version_mismatch_is_fatal_and_never_counts_against_the_breaker() {
    let addr = version9_daemon().to_string();
    let err = match RemoteWrapper::connect(&addr) {
        Ok(_) => panic!("a version-9 peer must not handshake"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), "incompatible");
    assert!(
        !err.is_source_fault(),
        "a deployment mismatch must not look like source sickness"
    );
    assert_eq!(
        err.to_string(),
        format!("incompatible peer: {addr}: peer speaks protocol version 9, this build speaks 2")
    );

    // the breaker contrast, through the resilience layer itself: a source
    // erroring Incompatible never opens the breaker, one erroring
    // Unavailable opens it at the threshold
    use mix::mediator::{resilient_answer, Health, ReplyCheck, SourceInstruments};
    let policy = ResiliencePolicy {
        max_retries: 0,
        failure_threshold: 2,
        serve_stale: false,
        ..ResiliencePolicy::default()
    };
    let query = part_query();
    let view = infer_view_dtd(&query, &parse_compact(SITE_DTD).unwrap()).unwrap();
    let validator = mix::dtd::Validator::new(&view.dtd);
    let check = ReplyCheck::View(&validator);

    let incompatible = ScriptedSource::new(
        site_source("i", 1),
        vec![Some(SourceError::Incompatible("version skew".into())); 4],
    );
    let health = Mutex::new(Health::new());
    for _ in 0..4 {
        let (doc, outcome) = resilient_answer(
            "inc",
            &incompatible,
            &query,
            check,
            &policy,
            &health,
            &SourceInstruments::noop("inc"),
        );
        assert!(doc.is_none());
        assert_eq!(outcome.status, FetchStatus::Failed);
        assert_eq!(
            health.lock().unwrap().state(),
            BreakerState::Closed,
            "Incompatible must never trip the breaker"
        );
    }

    let refused = ScriptedSource::new(
        site_source("u", 1),
        vec![Some(SourceError::Unavailable("h:1: connection refused".into())); 2],
    );
    let health = Mutex::new(Health::new());
    for _ in 0..2 {
        resilient_answer(
            "ref",
            &refused,
            &query,
            check,
            &policy,
            &health,
            &SourceInstruments::noop("ref"),
        );
    }
    assert_eq!(
        health.lock().unwrap().state(),
        BreakerState::Open,
        "refused connections are retryable source faults and must count"
    );
}

// ---------------------------------------------------------------------------
// Version negotiation, both directions: an old v1 build and a new v2
// build must tell each other `incompatible` in framing the *other* side
// can read — never garbage, never a hang.
// ---------------------------------------------------------------------------

/// An old v1 peer's Hello against the new server: the reply must be a
/// *v1-framed* `Err` the old build can decode, byte-deterministic across
/// connections, followed by a clean close.
#[test]
fn v1_hello_against_new_server_gets_a_v1_framed_incompatible() {
    let daemon = spawn_daemon("v", 1);
    let addr = daemon.addr();
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // a v1 Hello: [version=1][type=Hello][len=0 x4]
        s.write_all(&[1, 0, 0, 0, 0, 0]).expect("send v1 hello");
        let mut header = [0u8; 6];
        s.read_exact(&mut header).expect("v1-framed reply header");
        assert_eq!(header[0], 1, "reply must be framed for the v1 peer");
        assert_eq!(
            header[1],
            mix::net::MsgType::Err as u8,
            "reply must be an Err frame"
        );
        let len = u32::from_be_bytes(header[2..6].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        s.read_exact(&mut payload).expect("v1-framed reply payload");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing may follow the incompatible fault");
        replies.push(String::from_utf8(payload).expect("fault is UTF-8"));
    }
    assert_eq!(
        replies[0],
        "incompatible\npeer speaks frame version 1; this build speaks 2"
    );
    assert_eq!(replies[0], replies[1], "negotiation must be deterministic");
    daemon.shutdown();
}

/// A v1-replying daemon — the shape of an old build on the other end of
/// a new client's dial. Swallows the 10-byte v2 Hello, answers in v1
/// framing.
fn v1_daemon() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind v1 daemon");
    let addr = listener.local_addr().expect("v1 daemon addr");
    std::thread::spawn(move || {
        if let Ok((mut client, _)) = listener.accept() {
            let mut hello = [0u8; 10];
            let _ = client.read_exact(&mut hello);
            let _ = client.write_all(&[1, 0, 0, 0, 0, 0]);
            let _ = client.flush();
            let _ = client.shutdown(Shutdown::Both);
        }
    });
    addr
}

/// The other direction: the new client dialing an old v1 server fails
/// the handshake with a deterministic `Incompatible` — breaker-neutral,
/// like every deployment mismatch.
#[test]
fn new_client_against_v1_server_is_incompatible_and_breaker_neutral() {
    let addr = v1_daemon().to_string();
    let err = match RemoteWrapper::connect(&addr) {
        Ok(_) => panic!("a v1 peer must not handshake"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), "incompatible");
    assert!(
        !err.is_source_fault(),
        "an old peer must not look like source sickness"
    );
    assert_eq!(
        err.to_string(),
        format!("incompatible peer: {addr}: peer speaks protocol version 1, this build speaks 2")
    );
}

// ---------------------------------------------------------------------------
// Slow loris: partial frames dribbled one byte at a time must neither
// stall other connections nor get the dribbler evicted; going *silent*
// with nothing in flight is what gets a connection evicted.
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_dribble_stalls_nobody_and_silence_gets_evicted() {
    const IO_TIMEOUT: Duration = Duration::from_millis(400);
    let registry = Registry::new();
    let daemon = Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(site_source("s", 3))),
        ServerConfig {
            io_timeout: IO_TIMEOUT,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
    .with_registry(&registry)
    .spawn()
    .expect("spawn daemon");
    let addr = daemon.addr();

    // the loris: a valid v2 Hello — [version][type][frame_id:4][len:4] —
    // dribbled one byte per 30ms tick, holding the handshake open for
    // ~300ms of wall time
    let loris = TcpStream::connect(addr).expect("loris connects");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let dribbler = std::thread::spawn(move || {
        let mut loris = loris;
        for b in [2u8, 0, 0, 0, 0, 1, 0, 0, 0, 0] {
            loris.write_all(&[b]).expect("dribble a byte");
            std::thread::sleep(Duration::from_millis(30));
        }
        let mut reply = [0u8; 10];
        loris
            .read_exact(&mut reply)
            .expect("a dribbled Hello still completes the handshake");
        assert_eq!(reply[0], 2, "reply is v2-framed");
        assert_eq!(reply[1], mix::net::MsgType::Hello as u8);
        loris
    });

    // meanwhile the server serves other connections at full speed: ten
    // full round-trips complete while the loris is still mid-header
    let remote = RemoteWrapper::connect(&addr.to_string()).expect("healthy client");
    let expected = render(&site_source("s", 3).answer(&part_query()).unwrap());
    for _ in 0..10 {
        let doc = remote
            .answer(&part_query())
            .expect("served during the dribble");
        assert_eq!(render(&doc), expected, "answers unperturbed by the loris");
    }
    // hang up the healthy client now: its pooled connection closes with
    // a FIN, so the only eviction candidate left is the loris
    drop(remote);

    let mut loris = dribbler.join().expect("dribbler thread");
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters.get("net_deadline_expiries_total").copied(),
        Some(0),
        "every dribbled byte is progress — the loris must not be evicted mid-dribble"
    );

    // the loris now goes silent with nothing in flight: the io_timeout
    // eviction closes it — not sooner — and counts it
    let t = Instant::now();
    let mut rest = Vec::new();
    loris
        .read_to_end(&mut rest)
        .expect("eviction is a clean close");
    let waited = t.elapsed();
    assert!(
        waited >= IO_TIMEOUT - Duration::from_millis(100),
        "evicted after {waited:?}, before the io_timeout elapsed"
    );
    assert!(
        waited < Duration::from_secs(8),
        "eviction took {waited:?}, the server looks stalled"
    );
    assert_eq!(
        registry
            .snapshot()
            .counters
            .get("net_deadline_expiries_total")
            .copied(),
        Some(1),
        "the eviction must land in net_deadline_expiries_total"
    );
    daemon.shutdown();
}

// ---------------------------------------------------------------------------
// Property: RemoteWrapper through a lossy transport agrees with the
// in-process wrapper or fails with a transport-classified fault.
// ---------------------------------------------------------------------------

/// The shared upstream daemon the chaos proxies front. One per process:
/// the property only needs its address, and its state is immutable.
fn upstream() -> SocketAddr {
    static DAEMON: OnceLock<ServerHandle> = OnceLock::new();
    DAEMON.get_or_init(|| spawn_daemon("p", 4)).addr()
}

/// Relay one direction until the shared byte budget runs out, then cut
/// *both* sockets — a mid-frame disconnect whenever the budget lands
/// inside a frame.
fn relay(mut from: TcpStream, mut to: TcpStream, remaining: Arc<AtomicI64>) {
    let mut buf = [0u8; 64];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let before = remaining.fetch_sub(n as i64, Ordering::SeqCst);
        if before < n as i64 {
            // budget exhausted inside this read: deliver the surviving
            // prefix, then drop the session
            let _ = to.write_all(&buf[..before.max(0) as usize]);
            break;
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// A single-session proxy that forwards at most `budget` bytes (both
/// directions combined) between one client and `upstream`, then
/// disconnects both sides.
fn chaos_proxy(upstream: SocketAddr, budget: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let client = match listener.accept() {
            Ok((c, _)) => c,
            Err(_) => return,
        };
        let server = match TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => return,
        };
        let remaining = Arc::new(AtomicI64::new(budget as i64));
        let up = std::thread::spawn({
            let (from, to, r) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
                Arc::clone(&remaining),
            );
            move || relay(from, to, r)
        });
        relay(server, client, remaining);
        let _ = up.join();
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever prefix of the wire session a disconnect leaves standing,
    /// the RemoteWrapper either produces the in-process wrapper's exact
    /// answer bytes or a fault the resilience layer classifies as
    /// transport trouble ("transient"/"unavailable"/"timeout") — never a
    /// query rejection, never corrupted data passed off as an answer.
    #[test]
    fn remote_wrapper_agrees_with_in_process_under_mid_frame_disconnects(
        budget in 0usize..4096,
    ) {
        let reference = site_source("p", 4);
        let query = part_query();
        let expected = render(&reference.answer(&query).unwrap());

        let proxy = chaos_proxy(upstream(), budget);
        let config = ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            pool_size: 2,
        };
        let transport_fault = |e: &SourceError| {
            matches!(e.kind(), "transient" | "unavailable" | "timeout")
        };
        match RemoteWrapper::connect_with(&proxy.to_string(), config) {
            Err(e) => prop_assert!(
                transport_fault(&e),
                "handshake failure misclassified as {}: {e}",
                e.kind()
            ),
            Ok(remote) => match remote.answer(&query) {
                Ok(doc) => prop_assert_eq!(
                    render(&doc),
                    expected.clone(),
                    "surviving session must agree byte for byte"
                ),
                Err(e) => prop_assert!(
                    transport_fault(&e),
                    "answer failure misclassified as {}: {e}",
                    e.kind()
                ),
            },
        }
    }
}
