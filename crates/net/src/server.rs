//! The server side: a readiness-driven reactor exporting one
//! [`WireService`].
//!
//! One event-loop thread owns every socket (see [`crate::reactor`]); a
//! small worker pool answers queries. Connections are cheap — a parked
//! connection is an fd and two ring buffers, not a thread — and every
//! frame carries its own id, so one connection can have many queries in
//! flight and receive the answers in whatever order the workers finish.
//! The conversation on every connection is:
//!
//! ```text
//! client: Hello #1           server: Hello #1
//! client: ExportDtd "" #2    server: ExportDtd <dtd text> #2
//! client: Query <q|""> #3    ┐
//! client: Query <q|""> #4    ├ server: Answer <xml> #4   (any order,
//! client: Query <q|""> #5    ┘         Answer <xml> #3    matched by id)
//! …                                    Err <kind, detail> #5
//! ```
//!
//! A graceful [`ServerHandle::shutdown`] stops accepting and reading at
//! once, closes idle connections immediately, and *flushes* the answers
//! of queries that were already admitted (for up to 5 s) — an admitted
//! query is a promise.

use crate::error::NetError;
use crate::msg::Msg;
use crate::reactor::Reactor;
use crate::sys::Waker;
use mix_obs::{Counter, Gauge, Histogram, Registry};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A fault the service wants forwarded to the client as an `Err` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Stable machine-readable label (the mediator uses
    /// `SourceError::kind()` strings here).
    pub kind: String,
    /// Human-readable detail.
    pub msg: String,
}

impl WireFault {
    /// Builds a fault.
    pub fn new(kind: impl Into<String>, msg: impl Into<String>) -> WireFault {
        WireFault {
            kind: kind.into(),
            msg: msg.into(),
        }
    }
}

/// What a server exports: a DTD and answers, both as text. `mix-mediator`
/// implements this for any of its `Wrapper`s (including stacked-view
/// wrappers), keeping this crate free of mediator types.
pub trait WireService: Send + Sync + 'static {
    /// The exported DTD in the paper's compact notation (what
    /// `mix_dtd::Dtd::to_string` emits and `parse_compact` reads back).
    fn export_dtd(&self) -> String;

    /// Answers a query given as XMAS text; `None` requests the full
    /// exported document (`fetch`). Returns the answer as XML text.
    ///
    /// Called from worker threads, possibly many at once — implementations
    /// must tolerate concurrent calls (they already had to: the old
    /// thread-per-connection server called it from every handler).
    fn answer(&self, query: Option<&str>) -> Result<String, WireFault>;

    /// The service's observability snapshot as `mix-obs/1` JSON — what a
    /// [`crate::msg::Msg::Stats`] request returns. The default (`None`)
    /// makes the server answer `Err { kind: "unsupported" }`, so plain
    /// services need not know about observability at all.
    fn stats(&self) -> Option<String> {
        None
    }
}

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections served; excess connections are turned away
    /// with an `Err { kind: "unavailable" }` and closed.
    pub max_connections: usize,
    /// Eviction deadline: a connection with no byte progress in either
    /// direction for this long *and* nothing in flight is closed (and
    /// counted in `net_deadline_expiries_total`). A slow trickle of bytes
    /// is progress — dribblers park cheaply, they do not hold threads.
    pub io_timeout: Duration,
    /// Per-client admission control: every connection gets its own
    /// [`crate::admission::TokenBucket`] with these knobs, and a `Query`
    /// that finds it empty is answered with [`Msg::Throttled`] instead of
    /// being dispatched. `None` (the default) admits everything.
    pub admission: Option<crate::admission::AdmissionConfig>,
    /// Query worker threads; `0` (the default) sizes to the machine
    /// (available cores, clamped to 2..=16).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            io_timeout: Duration::from_secs(30),
            admission: None,
            workers: 0,
        }
    }
}

/// Server-side traffic and lifecycle instruments, resolved once against
/// one [`Registry`] ([`Registry::noop`] unless [`Server::with_registry`]
/// is called) and shared with the reactor.
#[derive(Clone)]
pub(crate) struct NetInstruments {
    pub(crate) registry: Registry,
    pub(crate) conns_opened: Counter,
    pub(crate) conns_closed: Counter,
    pub(crate) conns_refused: Counter,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) bytes_in: Counter,
    pub(crate) bytes_out: Counter,
    pub(crate) deadline_expiries: Counter,
    pub(crate) requests_shed: Counter,
    pub(crate) rpc_latency: Histogram,
    pub(crate) reactor_polls: Counter,
    pub(crate) reactor_wakeups: Counter,
    pub(crate) version_mismatches: Counter,
    pub(crate) inflight_depth: Gauge,
}

impl NetInstruments {
    fn new(registry: &Registry) -> NetInstruments {
        NetInstruments {
            registry: registry.clone(),
            conns_opened: registry.counter("net_connections_opened_total"),
            conns_closed: registry.counter("net_connections_closed_total"),
            conns_refused: registry.counter("net_connections_refused_total"),
            frames_in: registry.counter("net_frames_in_total"),
            frames_out: registry.counter("net_frames_out_total"),
            bytes_in: registry.counter("net_bytes_in_total"),
            bytes_out: registry.counter("net_bytes_out_total"),
            deadline_expiries: registry.counter("net_deadline_expiries_total"),
            requests_shed: registry.counter("net_requests_shed_total"),
            rpc_latency: registry.histogram("net_rpc_latency_ns"),
            reactor_polls: registry.counter("net_reactor_polls_total"),
            reactor_wakeups: registry.counter("net_reactor_wakeups_total"),
            version_mismatches: registry.counter("net_version_mismatches_total"),
            inflight_depth: registry.gauge("net_inflight_depth"),
        }
    }

    pub(crate) fn read(&self, msg: &Msg) {
        self.frames_in.inc();
        self.bytes_in.add(msg.wire_size());
    }

    pub(crate) fn wrote(&self, msg: &Msg) {
        self.frames_out.inc();
        self.bytes_out.add(msg.wire_size());
    }
}

/// A bound, not-yet-running server.
pub struct Server<S: WireService> {
    listener: TcpListener,
    service: Arc<S>,
    config: ServerConfig,
    obs: NetInstruments,
}

/// A running server spawned on a background thread.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    join: Option<JoinHandle<()>>,
}

impl<S: WireService> Server<S> {
    /// Binds `addr` (use port 0 for an OS-assigned port, then read
    /// [`Server::local_addr`]).
    pub fn bind(addr: &str, service: Arc<S>, config: ServerConfig) -> Result<Server<S>, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            service,
            config,
            obs: NetInstruments::new(&Registry::noop()),
        })
    }

    /// Records connection lifecycle, frame/byte traffic, deadline
    /// expiries, reactor wakeups/polls, in-flight depth, and per-RPC
    /// serve latency into `registry` (all under `net_*` metric names).
    /// Without this call every instrument is a no-op.
    pub fn with_registry(mut self, registry: &Registry) -> Server<S> {
        self.obs = NetInstruments::new(registry);
        self
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the reactor on the calling thread, forever (until the process
    /// exits). This is what `mixctl serve-source` calls.
    pub fn run(self) -> Result<(), NetError> {
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let reactor = Reactor::new(
            self.listener,
            self.service,
            self.config,
            self.obs,
            stop,
            waker,
        )?;
        reactor.run();
        Ok(())
    }

    /// Runs the reactor on a background thread and returns a handle that
    /// can shut it down — the daemon form used by benches and tests.
    pub fn spawn(self) -> Result<ServerHandle, NetError> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let reactor = Reactor::new(
            self.listener,
            self.service,
            self.config,
            self.obs,
            Arc::clone(&stop),
            Arc::clone(&waker),
        )?;
        let join = std::thread::spawn(move || reactor.run());
        Ok(ServerHandle {
            addr,
            stop,
            waker,
            join: Some(join),
        })
    }
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the daemon gracefully: no new connections are accepted, no
    /// new frames are read, idle connections close immediately (that is
    /// the "daemon killed" signal pooled clients see), and answers for
    /// queries that were already admitted are flushed before their
    /// connections close, for up to 5 s.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(join) = self.join.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::client::{ClientConfig, Connection};

    /// A service echoing canned text — protocol-level tests only; the
    /// real DTD/query round-trips live in `mix-mediator`.
    struct Echo;

    impl WireService for Echo {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
            match query {
                None => Ok("<r><a>1</a><a>2</a></r>".into()),
                Some("boom") => Err(WireFault::new("unavailable", "scripted outage")),
                Some(q) => Ok(format!("<echo>{q}</echo>")),
            }
        }
    }

    fn spawn_echo(config: ServerConfig) -> ServerHandle {
        Server::bind("127.0.0.1:0", Arc::new(Echo), config)
            .expect("bind")
            .spawn()
            .expect("spawn")
    }

    #[test]
    fn handshake_dtd_query_and_fault() {
        let h = spawn_echo(ServerConfig::default());
        let mut c =
            Connection::connect(&h.addr().to_string(), &ClientConfig::default()).expect("connect");
        assert_eq!(
            c.request(Msg::ExportDtd(String::new())).unwrap(),
            Msg::ExportDtd("{<r : a*> <a : PCDATA>}".into())
        );
        assert_eq!(
            c.request(Msg::Query(String::new())).unwrap(),
            Msg::Answer("<r><a>1</a><a>2</a></r>".into())
        );
        match c.request(Msg::Query("boom".into())) {
            Err(NetError::Remote { kind, msg }) => {
                assert_eq!(kind, "unavailable");
                assert_eq!(msg, "scripted outage");
            }
            other => panic!("expected remote fault, got {other:?}"),
        }
        // the connection survives a remote fault: it was an answer, not a
        // transport failure
        assert_eq!(
            c.request(Msg::Query("q".into())).unwrap(),
            Msg::Answer("<echo>q</echo>".into())
        );
        h.shutdown();
    }

    /// Echo plus a canned stats snapshot.
    struct WithStats;

    impl WireService for WithStats {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, _query: Option<&str>) -> Result<String, WireFault> {
            Ok("<r/>".into())
        }

        fn stats(&self) -> Option<String> {
            Some(r#"{"schema":"mix-obs/1"}"#.into())
        }
    }

    #[test]
    fn stats_request_returns_snapshot_or_unsupported() {
        // a service without stats answers with an `unsupported` fault…
        let h = spawn_echo(ServerConfig::default());
        let mut c =
            Connection::connect(&h.addr().to_string(), &ClientConfig::default()).expect("connect");
        match c.request(Msg::Stats(String::new())) {
            Err(NetError::Remote { kind, .. }) => assert_eq!(kind, "unsupported"),
            other => panic!("expected unsupported fault, got {other:?}"),
        }
        h.shutdown();
        // …a service with stats returns the snapshot verbatim
        let h = Server::bind("127.0.0.1:0", Arc::new(WithStats), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let mut c =
            Connection::connect(&h.addr().to_string(), &ClientConfig::default()).expect("connect");
        assert_eq!(
            c.request(Msg::Stats(String::new())).unwrap(),
            Msg::Stats(r#"{"schema":"mix-obs/1"}"#.into())
        );
        h.shutdown();
    }

    #[test]
    fn instrumented_server_counts_connections_frames_and_bytes() {
        let registry = Registry::new();
        let h = Server::bind("127.0.0.1:0", Arc::new(Echo), ServerConfig::default())
            .unwrap()
            .with_registry(&registry)
            .spawn()
            .unwrap();
        let mut c =
            Connection::connect(&h.addr().to_string(), &ClientConfig::default()).expect("connect");
        let q = Msg::Query("q".into());
        let sent =
            Msg::Hello.wire_size() + Msg::ExportDtd(String::new()).wire_size() + q.wire_size();
        c.request(Msg::ExportDtd(String::new())).unwrap();
        c.request(q).unwrap();
        // a worker answered the query, and the reactor applies a
        // completion only in an iteration that counted a wake, so the
        // count is in before shutdown wakes the reactor itself
        assert!(registry.snapshot().counters["net_reactor_wakeups_total"] > 0);
        drop(c);
        h.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net_connections_opened_total"], 1);
        assert_eq!(snap.counters["net_connections_closed_total"], 1);
        // Hello + ExportDtd + Query read; Hello + ExportDtd + Answer written
        assert_eq!(snap.counters["net_frames_in_total"], 3);
        assert_eq!(snap.counters["net_frames_out_total"], 3);
        assert_eq!(snap.counters["net_bytes_in_total"], sent);
        // the two non-handshake exchanges each landed one latency sample
        assert_eq!(snap.histograms["net_rpc_latency_ns"].count, 2);
        // the reactor accounted for its own activity and is now idle
        assert!(snap.counters["net_reactor_polls_total"] > 0);
        assert!(snap.counters["net_reactor_wakeups_total"] > 0);
        assert_eq!(snap.gauges["net_inflight_depth"], 0);
    }

    #[test]
    fn connection_cap_turns_excess_away() {
        let h = spawn_echo(ServerConfig {
            max_connections: 1,
            io_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        });
        let addr = h.addr().to_string();
        let cfg = ClientConfig::default();
        let first = Connection::connect(&addr, &cfg).expect("first connects");
        // give the reactor a moment to admit the first connection
        std::thread::sleep(Duration::from_millis(50));
        match Connection::connect(&addr, &cfg) {
            Err(NetError::Remote { kind, .. }) => assert_eq!(kind, "unavailable"),
            other => panic!("expected over-cap refusal, got {other:?}"),
        }
        drop(first);
        h.shutdown();
    }

    #[test]
    fn admission_sheds_over_budget_queries_per_client() {
        let registry = Registry::new();
        let h = Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo),
            ServerConfig {
                admission: Some(AdmissionConfig {
                    burst: 2,
                    refill_per_sec: 0,
                }),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .with_registry(&registry)
        .spawn()
        .unwrap();
        let addr = h.addr().to_string();
        let cfg = ClientConfig::default();
        let mut c = Connection::connect(&addr, &cfg).expect("connect");
        // the handshake and the DTD export are not admission-gated …
        c.request(Msg::ExportDtd(String::new())).unwrap();
        // … the burst of two queries goes through …
        c.request(Msg::Query(String::new())).unwrap();
        c.request(Msg::Query(String::new())).unwrap();
        // … and the third is shed with a backoff hint, on a live socket
        match c.request(Msg::Query(String::new())) {
            Err(NetError::Throttled { retry_after_ms }) => assert_eq!(retry_after_ms, 60_000),
            other => panic!("expected throttle, got {other:?}"),
        }
        // the budget is per client: a fresh connection has its own burst
        let mut c2 = Connection::connect(&addr, &cfg).expect("connect");
        c2.request(Msg::Query(String::new())).unwrap();
        drop((c, c2));
        h.shutdown();
        assert_eq!(registry.snapshot().counters["net_requests_shed_total"], 1);
    }

    #[test]
    fn shutdown_refuses_new_connections() {
        let h = spawn_echo(ServerConfig::default());
        let addr = h.addr().to_string();
        h.shutdown();
        assert!(Connection::connect(&addr, &ClientConfig::default()).is_err());
    }

    /// A service that answers slowly — shutdown must still deliver.
    struct Slow;

    impl WireService for Slow {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, _query: Option<&str>) -> Result<String, WireFault> {
            std::thread::sleep(Duration::from_millis(150));
            Ok("<r><a>slow</a></r>".into())
        }
    }

    #[test]
    fn shutdown_flushes_in_flight_answers_before_closing() {
        // regression: the old live-socket registry severed connections at
        // shutdown even mid-answer, so an admitted query's reply could be
        // torn away; the drain phase must deliver it
        let h = Server::bind("127.0.0.1:0", Arc::new(Slow), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let addr = h.addr().to_string();
        let client = std::thread::spawn(move || {
            let mut c = Connection::connect(&addr, &ClientConfig::default()).expect("connect");
            c.request(Msg::Query(String::new()))
        });
        // let the query be admitted, then shut down while it is in flight
        std::thread::sleep(Duration::from_millis(60));
        h.shutdown();
        match client.join().expect("client thread") {
            Ok(Msg::Answer(xml)) => assert_eq!(xml, "<r><a>slow</a></r>"),
            other => panic!("in-flight answer was dropped by shutdown: {other:?}"),
        }
    }

    #[test]
    fn panicking_service_faults_the_query_not_the_server() {
        struct Panicky;
        impl WireService for Panicky {
            fn export_dtd(&self) -> String {
                "{<r : a*> <a : PCDATA>}".into()
            }
            fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
                if query == Some("die") {
                    panic!("scripted panic");
                }
                Ok("<r/>".into())
            }
        }
        let h = Server::bind("127.0.0.1:0", Arc::new(Panicky), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
        let mut c =
            Connection::connect(&h.addr().to_string(), &ClientConfig::default()).expect("connect");
        match c.request(Msg::Query("die".into())) {
            Err(NetError::Remote { kind, .. }) => assert_eq!(kind, "internal"),
            other => panic!("expected internal fault, got {other:?}"),
        }
        // the server (and even the connection) survived
        assert_eq!(
            c.request(Msg::Query("ok".into())).unwrap(),
            Msg::Answer("<r/>".into())
        );
        h.shutdown();
    }
}
