//! The server side: one thread per connection, exporting one
//! [`WireService`].
//!
//! An accept thread admits connections up to `max_connections` and gives
//! each a thread of its own. That thread reads a frame, answers it and
//! writes the reply before it reads the next, so a connection's replies
//! come back in the order of its requests; every frame still carries its
//! own id, so a client may pipeline a batch and match the replies by id.
//! At most `workers` calls to [`WireService::answer`] run at once across
//! all connections. The conversation on every connection is:
//!
//! ```text
//! client: Hello #1           server: Hello #1
//! client: ExportDtd "" #2    server: ExportDtd <dtd text> #2
//! client: Query <q|""> #3    ┐
//! client: Query <q|""> #4    ├ server: Answer <xml> #3   (one reply per
//! client: Query <q|""> #5    ┘         Answer <xml> #4    frame, in order)
//! …                                    Err <kind, detail> #5
//! ```
//!
//! A graceful [`ServerHandle::shutdown`] stops accepting and reading at
//! once, closes idle connections immediately, and *flushes* the answers
//! of queries that were already read (for up to 5 s) — a query read is a
//! promise.

use crate::admission::TokenBucket;
use crate::error::NetError;
use crate::frame::{
    read_first_frame, read_frame, write_frame_v1, MsgType, CONNECTION_FRAME_ID, FRAME_VERSION,
    LEGACY_HEADER_LEN,
};
use crate::msg::Msg;
use mix_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long shutdown waits for the answers of queries already read
/// before it cuts the connections that remain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the accept thread may spend writing a refusal.
const REFUSAL_TIMEOUT: Duration = Duration::from_millis(100);

/// How long shutdown's dial to its own listener may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// The accept thread's pause after a failed `accept`, so a persistent
/// failure (no file descriptors left) does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    /// Called from connection threads, up to `workers` at once —
    /// implementations must tolerate concurrent calls.
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
    /// Eviction deadline: a connection that makes no byte progress for
    /// this long, while the server waits for its next frame or while a
    /// reply write stalls, is closed (and counted in
    /// `net_deadline_expiries_total`). A slow trickle of bytes is
    /// progress, so a dribbling connection keeps its thread, and its
    /// place under `max_connections`, until it goes silent this long.
    pub io_timeout: Duration,
    /// Per-client admission control: every connection gets its own
    /// [`crate::admission::TokenBucket`] with these knobs, and a `Query`
    /// that finds it empty is answered with [`Msg::Throttled`] instead of
    /// being answered. `None` (the default) admits everything.
    pub admission: Option<crate::admission::AdmissionConfig>,
    /// Answer slots: at most this many calls to [`WireService::answer`]
    /// run at once across all connections, and a query beyond them waits
    /// on its connection's thread. `0` (the default) sizes to the machine
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

/// Resolves the answer-slot count: explicit, or one per available core
/// (clamped to [2, 16]) for `0`.
fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
}

/// Server-side traffic and lifecycle instruments, resolved once against
/// one [`Registry`] ([`Registry::noop`] unless [`Server::with_registry`]
/// is called).
struct NetInstruments {
    registry: Registry,
    conns_opened: Counter,
    conns_closed: Counter,
    conns_refused: Counter,
    frames_in: Counter,
    frames_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    deadline_expiries: Counter,
    requests_shed: Counter,
    rpc_latency: Histogram,
    version_mismatches: Counter,
    inflight_depth: Gauge,
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
            version_mismatches: registry.counter("net_version_mismatches_total"),
            inflight_depth: registry.gauge("net_inflight_depth"),
        }
    }

    fn read(&self, msg: &Msg) {
        self.frames_in.inc();
        self.bytes_in.add(msg.wire_size());
    }

    fn wrote(&self, msg: &Msg) {
        self.frames_out.inc();
        self.bytes_out.add(msg.wire_size());
    }

    /// Counts an eviction when the error that ends a connection is a
    /// socket timeout: no byte moved for `io_timeout`.
    fn ended_by(&self, e: &NetError) {
        if e.is_timeout() {
            self.deadline_expiries.inc();
        }
    }
}

/// The admitted connections. Each entry shares its connection's socket,
/// so shutdown can end the connection's reads, and past the drain its
/// writes, from outside the connection's thread.
#[derive(Default)]
struct ConnTable {
    open: Mutex<Open>,
    /// Set once, by shutdown, under the `open` lock; each connection
    /// checks it after every frame it reads.
    stopping: AtomicBool,
    /// Signalled when a connection leaves.
    left: Condvar,
}

#[derive(Default)]
struct Open {
    conns: HashMap<u64, Arc<TcpStream>>,
    next_id: u64,
}

impl ConnTable {
    fn leave(&self, id: u64) {
        // the socket closes here, when its last owner drops it
        lock(&self.open).conns.remove(&id);
        self.left.notify_all();
    }

    /// Admits no connection from now on, and ends every open
    /// connection's reads: a read blocked on an idle connection returns
    /// at once, and a connection answering a query still writes its
    /// reply.
    fn stop(&self) {
        let open = lock(&self.open);
        self.stopping.store(true, Ordering::SeqCst);
        for stream in open.conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Waits until every connection has left or [`DRAIN_TIMEOUT`] has
    /// passed, then cuts the connections that remain. A thread still
    /// inside a slow `WireService::answer` is left to finish on its own.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut open = lock(&self.open);
        while !open.conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            open = self
                .left
                .wait_timeout(open, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        for stream in open.conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// At most `workers` calls to [`WireService::answer`] at once, across
/// every connection.
struct AnswerSlots {
    state: Mutex<Slots>,
    freed: Condvar,
}

struct Slots {
    free: usize,
    waiting: usize,
}

impl AnswerSlots {
    fn new(slots: usize) -> AnswerSlots {
        AnswerSlots {
            state: Mutex::new(Slots {
                free: slots,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Runs `f` in a slot, waiting for one to come free. `f` must not
    /// unwind.
    fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut state = lock(&self.state);
        while state.free == 0 {
            state.waiting += 1;
            state = self
                .freed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        state.free -= 1;
        drop(state);
        let out = f();
        let mut state = lock(&self.state);
        state.free += 1;
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.freed.notify_one();
        }
        out
    }
}

/// What the accept thread and every connection thread share.
struct Shared<S> {
    service: Arc<S>,
    config: ServerConfig,
    obs: NetInstruments,
    slots: AnswerSlots,
    table: Arc<ConnTable>,
}

/// Takes a connection out of the table when its thread ends, by return
/// or by a panic in the service.
struct Leave<'a> {
    table: &'a ConnTable,
    closed: &'a Counter,
    id: u64,
}

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        self.closed.inc();
        self.table.leave(self.id);
    }
}

/// Accepts until shutdown, admitting each connection or turning it away.
fn accept_loop<S: WireService>(listener: TcpListener, shared: &Arc<Shared<S>>) {
    loop {
        let accepted = listener.accept();
        if shared.table.stopping.load(Ordering::SeqCst) {
            return; // the listener drops here, so the port refuses
        }
        match accepted {
            Ok((stream, _)) => shared.admit(stream),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

impl<S: WireService> Shared<S> {
    /// Gives `stream` a thread of its own, or turns it away when the
    /// server is full (or the thread cannot be had).
    fn admit(self: &Arc<Self>, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        let id = {
            let mut open = lock(&self.table.open);
            if self.table.stopping.load(Ordering::SeqCst) {
                return;
            }
            if open.conns.len() >= self.config.max_connections {
                drop(open);
                self.refuse(&stream);
                return;
            }
            open.next_id += 1;
            let id = open.next_id;
            open.conns.insert(id, Arc::clone(&stream));
            id
        };
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("mix-net-conn".into())
            .spawn(move || {
                shared.obs.conns_opened.inc();
                let _leave = Leave {
                    table: &shared.table,
                    closed: &shared.obs.conns_closed,
                    id,
                };
                shared.serve(stream);
            });
        if spawned.is_err() {
            self.obs.conns_refused.inc();
            self.table.leave(id);
        }
    }

    /// Turns a connection away over the cap, in v2 framing at connection
    /// scope, without a thread: the refusal is one short write.
    fn refuse(&self, stream: &TcpStream) {
        self.obs.conns_refused.inc();
        let refusal = Msg::Err {
            kind: "unavailable".into(),
            msg: "connection limit reached".into(),
        };
        let mut frame = Vec::new();
        refusal
            .write_to(&mut frame, CONNECTION_FRAME_ID)
            .expect("a short frame writes into a Vec");
        self.obs.wrote(&refusal);
        let _ = stream.set_write_timeout(Some(REFUSAL_TIMEOUT));
        let _ = (&*stream).write_all(&frame);
        let _ = stream.shutdown(Shutdown::Write);
    }

    /// One connection's conversation: read a frame, answer it, write the
    /// reply, until the peer leaves, a fault or a deadline ends it, or
    /// the server stops.
    fn serve(&self, stream: Arc<TcpStream>) {
        let conn = &*stream;
        let timeout = Some(self.config.io_timeout);
        if conn.set_read_timeout(timeout).is_err() || conn.set_write_timeout(timeout).is_err() {
            return;
        }
        let mut reader = BufReader::new(conn);
        let mut writer = BufWriter::new(conn);
        let bucket = self.config.admission.map(TokenBucket::new);
        let mut handshaken = false;
        loop {
            // the first frame is version-sniffed, so a v1 peer's 6-byte
            // header is diagnosed the moment its first byte arrives
            let frame = if handshaken {
                read_frame(&mut reader)
            } else {
                read_first_frame(&mut reader)
            };
            if self.table.stopping.load(Ordering::SeqCst) {
                return;
            }
            let (ty, frame_id, payload) = match frame {
                Ok(frame) => frame,
                Err(NetError::VersionMismatch { theirs, .. }) if !handshaken => {
                    return self.reject_foreign_version(&mut writer, theirs);
                }
                Err(e @ NetError::Io(_)) => return self.obs.ended_by(&e),
                // a header this build cannot read: the stream is out of
                // step, so the fault is at connection scope
                Err(e) => return self.fault(&mut writer, CONNECTION_FRAME_ID, e.to_string()),
            };
            let msg = match Msg::decode(ty, payload) {
                Ok(msg) => msg,
                Err(e) => return self.fault(&mut writer, frame_id, e.to_string()),
            };
            self.obs.read(&msg);
            let started = self.obs.registry.now_ns();
            if !handshaken && !matches!(msg, Msg::Hello) {
                let detail = format!("expected Hello, got {:?}", msg.msg_type());
                return self.fault(&mut writer, frame_id, detail);
            }
            // the handshake Hello is connection setup, not an RPC; only a
            // *re*-handshake lands a latency sample
            let timed = handshaken || !matches!(msg, Msg::Hello);
            let reply = match msg {
                Msg::Hello => {
                    handshaken = true;
                    Msg::Hello
                }
                Msg::ExportDtd(_) => Msg::ExportDtd(self.service.export_dtd()),
                Msg::Stats(_) => match self.service.stats() {
                    Some(json) => Msg::Stats(json),
                    None => Msg::Err {
                        kind: "unsupported".into(),
                        msg: "this service exports no statistics".into(),
                    },
                },
                Msg::Query(q) => self.query(bucket.as_ref(), q),
                Msg::Answer(_) | Msg::Err { .. } | Msg::Throttled { .. } => {
                    let detail = "clients send ExportDtd/Query, not Answer/Err/Throttled";
                    return self.fault(&mut writer, frame_id, detail.into());
                }
            };
            if timed {
                self.obs
                    .rpc_latency
                    .observe(self.obs.registry.now_ns().saturating_sub(started));
            }
            // each reply is flushed on its own: a pipelined batch gets
            // its first answer as soon as it is ready
            if let Err(e) = self.send(&mut writer, frame_id, &reply) {
                return self.obs.ended_by(&e);
            }
        }
    }

    /// Answers a query unless the connection's bucket sheds it. Only the
    /// data plane is admission-gated; handshakes, DTD exports and stats
    /// probes always go through.
    fn query(&self, bucket: Option<&TokenBucket>, q: String) -> Msg {
        if let Some(Err(retry_after_ms)) = bucket.map(TokenBucket::try_acquire) {
            self.obs.requests_shed.inc();
            return Msg::Throttled { retry_after_ms };
        }
        self.obs.inflight_depth.add(1);
        let query = (!q.is_empty()).then_some(q.as_str());
        let reply = self.slots.run(|| answer(self.service.as_ref(), query));
        self.obs.inflight_depth.add(-1);
        reply
    }

    /// Writes `reply` as one frame and flushes it.
    fn send(&self, writer: &mut impl Write, frame_id: u32, reply: &Msg) -> Result<(), NetError> {
        self.obs.wrote(reply);
        reply.write_to(writer, frame_id)
    }

    /// A protocol violation: tell the peer at `frame_id`'s scope; the
    /// caller then closes the connection.
    fn fault(&self, writer: &mut impl Write, frame_id: u32, detail: String) {
        let fault = Msg::Err {
            kind: "protocol".into(),
            msg: detail,
        };
        let _ = self.send(writer, frame_id, &fault);
    }

    /// A peer whose very first byte is a foreign frame version: reply in
    /// *its* framing (v1 — all older builds) so it reads a clean
    /// `incompatible` fault instead of garbage; the caller then closes.
    fn reject_foreign_version(&self, writer: &mut impl Write, theirs: u8) {
        self.obs.version_mismatches.inc();
        let payload = format!(
            "incompatible\npeer speaks frame version {theirs}; this build speaks {FRAME_VERSION}"
        );
        self.obs.frames_out.inc();
        self.obs
            .bytes_out
            .add((LEGACY_HEADER_LEN + payload.len()) as u64);
        let _ = write_frame_v1(writer, MsgType::Err, payload.as_bytes());
    }
}

/// Runs the service on one query; a panic is an `internal` fault, not a
/// dead connection.
fn answer(service: &dyn WireService, query: Option<&str>) -> Msg {
    match std::panic::catch_unwind(AssertUnwindSafe(|| service.answer(query))) {
        Ok(Ok(xml)) => Msg::Answer(xml),
        Ok(Err(fault)) => Msg::Err {
            kind: fault.kind,
            msg: fault.msg,
        },
        Err(_) => Msg::Err {
            kind: "internal".into(),
            msg: "service panicked answering the query".into(),
        },
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
    addr: SocketAddr,
    table: Arc<ConnTable>,
    accept: Option<JoinHandle<()>>,
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
    /// expiries, in-flight depth, and per-RPC serve latency into
    /// `registry` (all under `net_*` metric names). Without this call
    /// every instrument is a no-op.
    pub fn with_registry(mut self, registry: &Registry) -> Server<S> {
        self.obs = NetInstruments::new(registry);
        self
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    fn start(self) -> (TcpListener, Arc<Shared<S>>) {
        let shared = Shared {
            slots: AnswerSlots::new(effective_workers(self.config.workers)),
            service: self.service,
            config: self.config,
            obs: self.obs,
            table: Arc::default(),
        };
        (self.listener, Arc::new(shared))
    }

    /// Runs the accept loop on the calling thread, forever (until the
    /// process exits). This is what `mixctl serve-source` calls.
    pub fn run(self) -> Result<(), NetError> {
        let (listener, shared) = self.start();
        accept_loop(listener, &shared);
        Ok(())
    }

    /// Runs the accept loop on a background thread and returns a handle
    /// that can shut the server down — the daemon form used by benches
    /// and tests.
    pub fn spawn(self) -> Result<ServerHandle, NetError> {
        let addr = self.local_addr()?;
        let (listener, shared) = self.start();
        let table = Arc::clone(&shared.table);
        let accept = std::thread::Builder::new()
            .name("mix-net-accept".into())
            .spawn(move || accept_loop(listener, &shared))?;
        Ok(ServerHandle {
            addr,
            table,
            accept: Some(accept),
        })
    }
}

impl ServerHandle {
    /// The served address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon gracefully: no new connections are accepted, no
    /// new frames are read, idle connections close immediately (that is
    /// the "daemon killed" signal pooled clients see), and answers for
    /// queries that were already read are flushed before their
    /// connections close, for up to 5 s.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.table.stop();
        // the accept thread may be blocked in accept(2): a dial of our
        // own wakes it, and it returns, dropping the listener. Without
        // the dial it would never return, so it is not waited for
        if TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT).is_ok() {
            let _ = accept.join();
        }
        self.table.drain();
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
        // give the accept thread a moment to admit the first connection
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

    /// Waits, up to 5 s, for `done` to hold.
    fn await_true(what: &str, done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "{what} never happened"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn shutdown_with_connections_open_returns_at_once_and_closes_them() {
        use crate::client::Pool;
        use std::io::{Read as _, Write as _};
        let registry = Registry::new();
        let h = Server::bind("127.0.0.1:0", Arc::new(Echo), ServerConfig::default())
            .unwrap()
            .with_registry(&registry)
            .spawn()
            .unwrap();
        let addr = h.addr();
        // an idle pooled connection, a socket that sent half a header and
        // one that sent nothing, each parked on its own thread's read
        let pool = Pool::new(addr.to_string(), ClientConfig::default());
        pool.request(Msg::Query("q".into())).unwrap();
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(&[FRAME_VERSION, MsgType::Hello as u8, 0, 0, 0])
            .unwrap();
        let mut silent = TcpStream::connect(addr).unwrap();
        await_true("three admissions", || {
            registry.snapshot().counters["net_connections_opened_total"] == 3
        });
        let t0 = Instant::now();
        h.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        await_true("the pooled connection's close", || {
            pool.idle_connections() == 0
        });
        for raw in [&mut half, &mut silent] {
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut rest = Vec::new();
            assert!(raw.read_to_end(&mut rest).is_ok(), "a clean close");
            assert!(rest.is_empty(), "nothing is written to a closing peer");
        }
        assert!(
            TcpStream::connect(addr).is_err(),
            "the port refuses after shutdown"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net_connections_closed_total"], 3);
        assert_eq!(snap.counters["net_deadline_expiries_total"], 0);
    }

    /// Threads in this process, where the OS lists them.
    fn thread_count() -> Option<usize> {
        cfg!(target_os = "linux")
            .then(|| std::fs::read_dir("/proc/self/task").ok())
            .flatten()
            .map(Iterator::count)
    }

    #[test]
    fn a_refusal_flood_costs_no_thread() {
        const DIALS: usize = 200;
        let registry = Registry::new();
        let h = Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo),
            ServerConfig {
                max_connections: 1,
                io_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .with_registry(&registry)
        .spawn()
        .unwrap();
        let held = Connection::connect(&h.addr().to_string(), &ClientConfig::default())
            .expect("the first connects");
        let before = thread_count();
        // each dialer reads its refusal and then keeps its socket open,
        // as a flood would
        let dialers: Vec<TcpStream> = (0..DIALS)
            .map(|dial| {
                let mut s = TcpStream::connect(h.addr()).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                match Msg::read_from(&mut s) {
                    Ok((CONNECTION_FRAME_ID, Msg::Err { kind, .. })) => {
                        assert_eq!(kind, "unavailable")
                    }
                    other => panic!("dial {dial}: expected the over-cap refusal, got {other:?}"),
                }
                s
            })
            .collect();
        // a refusal that held a thread until its peer left, or until
        // io_timeout, would add one per dial; the slack covers the
        // threads of tests running alongside
        if let (Some(before), Some(after)) = (before, thread_count()) {
            assert!(
                after < before + DIALS / 4,
                "{before} threads grew to {after} over {DIALS} refusals"
            );
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net_connections_refused_total"], DIALS as u64);
        assert_eq!(snap.counters["net_connections_opened_total"], 1);
        drop((held, dialers));
        h.shutdown();
    }

    /// Records the most `answer` calls it saw running at once; each
    /// takes 30 ms.
    #[derive(Default)]
    struct Gauged {
        running: std::sync::atomic::AtomicUsize,
        most: std::sync::atomic::AtomicUsize,
    }

    impl WireService for Gauged {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, _query: Option<&str>) -> Result<String, WireFault> {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.most.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            self.running.fetch_sub(1, Ordering::SeqCst);
            Ok("<r/>".into())
        }
    }

    #[test]
    fn workers_bound_the_answers_running_at_once() {
        for workers in [1, 3] {
            let service = Arc::new(Gauged::default());
            let h = Server::bind(
                "127.0.0.1:0",
                Arc::clone(&service),
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            )
            .unwrap()
            .spawn()
            .unwrap();
            let addr = h.addr().to_string();
            let clients: Vec<_> = (0..6)
                .map(|_| {
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut c = Connection::connect(&addr, &ClientConfig::default())?;
                        c.request(Msg::Query("q".into()))
                    })
                })
                .collect();
            for c in clients {
                assert_eq!(c.join().unwrap().unwrap(), Msg::Answer("<r/>".into()));
            }
            let most = service.most.load(Ordering::SeqCst);
            assert!(
                (1..=workers).contains(&most),
                "{most} answers ran at once with {workers} slots"
            );
            h.shutdown();
        }
    }
}
