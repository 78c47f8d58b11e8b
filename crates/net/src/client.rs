//! The client side: a blocking connection, and a pool of them.
//!
//! [`Connection`] is one TCP stream that has completed the `Hello`
//! exchange. It runs one exchange at a time on the caller's thread: it
//! writes a request, flushes it and reads the reply, which must carry the
//! request's frame id ([`Connection::request`]). [`Pool`] is a bounded
//! set of connections to one address. An exchange checks out an idle
//! one, dials when none is idle and fewer than `pool_size` are open, or
//! waits; then it runs on the caller's thread and checks the connection
//! back in. A connection the exchange ended (a transport or protocol
//! fault, a missed deadline, an `Err` at connection scope) is dropped
//! instead, and so is an idle connection the peer has closed, when a
//! checkout probes it, so one bad socket cannot poison the next exchange.
//! Retrying is deliberately **not** done here: the mediator's resilience
//! layer owns the retry budget, and a transport that silently retried
//! underneath it would double-count attempts against circuit breakers.

use crate::error::NetError;
use crate::frame::{read_first_frame, read_frame, CONNECTION_FRAME_ID};
use crate::msg::Msg;
use mix_obs::{Counter, Histogram, Registry};
use std::io::{self, BufReader, BufWriter, Read};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Frame id of a connection's first request, the `Hello`. Later requests
/// count up from it and wrap back to it, so no request carries the
/// connection-scope id 0.
const HANDSHAKE_ID: u32 = 1;

/// Client knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each socket write, and for each reply once its
    /// request is sent. A reply that misses it ends its connection.
    pub io_timeout: Duration,
    /// Connections the pool may hold open at once, idle or in use. An
    /// exchange holds one connection, so this also bounds the exchanges
    /// in flight to one source: callers beyond it wait for a connection
    /// to come back. The server's `workers` bound useful concurrency
    /// anyway.
    pub pool_size: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            pool_size: 4,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One handshaken connection to a remote wrapper. Its exchanges run on
/// the caller's thread.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<DeadlineStream>,
    writer: BufWriter<TcpStream>,
    io_timeout: Duration,
    next_id: u32,
    sniffed: bool,
    /// Set once a fault has ended the connection.
    ended: bool,
}

impl Connection {
    /// Connects, applies timeouts, and performs the `Hello` handshake.
    pub fn connect(addr: &str, config: &ClientConfig) -> Result<Connection, NetError> {
        let stream = dial_stream(addr, config)?;
        let mut conn = Connection {
            reader: BufReader::new(DeadlineStream {
                stream: stream.try_clone()?,
                deadline: Instant::now(),
                armed: config.io_timeout,
            }),
            writer: BufWriter::new(stream),
            io_timeout: config.io_timeout,
            next_id: HANDSHAKE_ID,
            sniffed: false,
            ended: false,
        };
        match conn.request(Msg::Hello)? {
            Msg::Hello => Ok(conn),
            other => Err(NetError::protocol(format!(
                "handshake expected Hello back, got {:?}",
                other.msg_type()
            ))),
        }
    }

    /// One request/response exchange. A server-side fault ([`Msg::Err`])
    /// comes back as [`NetError::Remote`], an admission-control rejection
    /// ([`Msg::Throttled`]) as [`NetError::Throttled`]; when either
    /// answers this request, the connection is still usable. Any other
    /// error ends the connection, and so does an `Err` at connection
    /// scope (frame id 0), after which the server closes it. Requests on
    /// an ended connection fail at once.
    pub fn request(&mut self, msg: Msg) -> Result<Msg, NetError> {
        if self.ended {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "the connection was ended by an earlier fault",
            )));
        }
        let id = self.next_id;
        self.next_id = id.checked_add(1).unwrap_or(HANDSHAKE_ID);
        match self.exchange(&msg, id) {
            Ok(Msg::Err { kind, msg }) => Err(NetError::Remote { kind, msg }),
            Ok(Msg::Throttled { retry_after_ms }) => Err(NetError::Throttled { retry_after_ms }),
            Ok(reply) => Ok(reply),
            Err(fault) => {
                self.ended = true;
                Err(fault)
            }
        }
    }

    /// Writes `msg` as frame `id`, flushes it, and reads the reply, which
    /// must carry the same id.
    fn exchange(&mut self, msg: &Msg, id: u32) -> Result<Msg, NetError> {
        msg.write_to(&mut self.writer, id)?;
        let (replied, reply) = self.read_reply()?;
        if replied != id {
            return Err(NetError::protocol(format!(
                "reply {:?} carried frame id {replied}, not the request's {id}",
                reply.msg_type()
            )));
        }
        Ok(reply)
    }

    /// Reads the next frame, within `io_timeout`, as a frame id and a
    /// message.
    fn read_reply(&mut self) -> Result<(u32, Msg), NetError> {
        self.reader.get_mut().arm(self.io_timeout)?;
        // the first reply of a connection is version-sniffed so a v1 peer
        // surfaces as VersionMismatch, not as a truncated read
        let (ty, id, payload) = if self.sniffed {
            read_frame(&mut self.reader)?
        } else {
            self.sniffed = true;
            read_first_frame(&mut self.reader)?
        };
        match Msg::decode(ty, payload)? {
            // the server closes the connection after an Err at
            // connection scope
            Msg::Err { kind, msg } if id == CONNECTION_FRAME_ID => {
                Err(NetError::Remote { kind, msg })
            }
            reply => Ok((id, reply)),
        }
    }

    /// Whether the connection can carry another exchange: no fault ended
    /// it, and the peer has sent nothing since the last reply. An idle
    /// connection has nothing to read, so EOF or stray bytes mean the
    /// peer closed it or broke the protocol. Costs one poll(2).
    fn is_reusable(&self) -> bool {
        !self.ended
            && self.reader.buffer().is_empty()
            && !crate::sys::readable_now(self.writer.get_ref().as_raw_fd())
    }
}

/// The read half of a [`Connection`]. A read waits only until the
/// current deadline, so a peer that trickles a reply cannot stretch an
/// exchange much past `io_timeout`.
#[derive(Debug)]
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
    /// The read timeout set on the socket.
    armed: Duration,
}

impl DeadlineStream {
    /// Starts a wait of `timeout`.
    fn arm(&mut self, timeout: Duration) -> io::Result<()> {
        self.deadline = Instant::now() + timeout;
        if self.armed != timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.armed = timeout;
        }
        Ok(())
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no reply within the deadline",
            ));
        }
        // shorten the socket's timeout only once the deadline is an eighth
        // nearer than it: a prompt reply costs no extra syscall, and a read
        // overshoots the deadline by at most a seventh of what was left
        if left < self.armed - self.armed / 8 {
            self.stream.set_read_timeout(Some(left))?;
            self.armed = left;
        }
        self.stream.read(buf)
    }
}

/// Resolves, connects with a deadline, and applies socket options;
/// resolution errors surface as Io like connect ones.
fn dial_stream(addr: &str, config: &ClientConfig) -> Result<TcpStream, NetError> {
    let sock_addr = std::net::ToSocketAddrs::to_socket_addrs(addr)?
        .next()
        .ok_or_else(|| {
            NetError::Io(io::Error::new(
                io::ErrorKind::NotFound,
                format!("'{addr}' resolves to no address"),
            ))
        })?;
    let stream = TcpStream::connect_timeout(&sock_addr, config.connect_timeout)?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A bounded set of connections to one remote wrapper address.
///
/// `Send + Sync`: the mediator's parallel union materialization and
/// batched serving hit one source from many threads at once. Each
/// exchange checks out a connection of its own and runs on the caller's
/// thread; callers beyond `pool_size` wait for one to be checked in.
pub struct Pool {
    addr: String,
    config: ClientConfig,
    conns: Mutex<Conns>,
    /// Signalled when a connection is checked in or gives up its place.
    returned: Condvar,
    registry: Registry,
    exchanges: Counter,
    dials: Counter,
    discards: Counter,
    rpc_latency: Histogram,
}

/// The idle connections, and how many are open in all (idle, checked
/// out or being dialed).
#[derive(Default)]
struct Conns {
    idle: Vec<Connection>,
    open: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("addr", &self.addr)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool for `addr`. No connection is dialed until the first
    /// exchange, and nothing is recorded (see [`Pool::with_registry`]).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Pool {
        Pool::with_registry(addr, config, &Registry::noop())
    }

    /// A pool recording client-side traffic into `registry`: exchanges
    /// and fresh dials, discarded (failed) connections, and round-trip
    /// RPC latency (`net_client_*` metric names).
    pub fn with_registry(
        addr: impl Into<String>,
        config: ClientConfig,
        registry: &Registry,
    ) -> Pool {
        Pool {
            addr: addr.into(),
            config,
            conns: Mutex::new(Conns::default()),
            returned: Condvar::new(),
            registry: registry.clone(),
            exchanges: registry.counter("net_client_exchanges_total"),
            dials: registry.counter("net_client_dials_total"),
            discards: registry.counter("net_client_discards_total"),
            rpc_latency: registry.histogram("net_client_rpc_latency_ns"),
        }
    }

    /// The remote address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The client configuration in force.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Idle connections that pass the probe a checkout makes: a
    /// connection the peer has closed stops counting once the close has
    /// reached this host, before any exchange drops it.
    pub fn idle_connections(&self) -> usize {
        lock(&self.conns)
            .idle
            .iter()
            .filter(|c| c.is_reusable())
            .count()
    }

    /// One request/response exchange on a pooled (or fresh) connection,
    /// counted and timed from the checkout to the reply.
    pub fn request(&self, msg: Msg) -> Result<Msg, NetError> {
        self.exchanges.inc();
        let started = self.registry.now_ns();
        let reply = self.checkout().and_then(|mut conn| {
            let reply = conn.request(msg);
            self.checkin(conn);
            reply
        });
        self.rpc_latency
            .observe(self.registry.now_ns().saturating_sub(started));
        reply
    }

    /// Takes the most recently used idle connection that is still
    /// reusable, dropping those that are not; dials when none is idle and
    /// fewer than `pool_size` are open; waits otherwise.
    fn checkout(&self) -> Result<Connection, NetError> {
        let mut conns = lock(&self.conns);
        loop {
            while let Some(conn) = conns.idle.pop() {
                if conn.is_reusable() {
                    return Ok(conn);
                }
                self.discards.inc();
                self.give_up_place(&mut conns);
            }
            if conns.open < self.config.pool_size.max(1) {
                conns.open += 1;
                drop(conns);
                return self.dial();
            }
            conns = self
                .returned
                .wait(conns)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns `conn` to the idle set, or drops it if an exchange ended
    /// it.
    fn checkin(&self, conn: Connection) {
        if conn.ended {
            self.discards.inc();
            self.give_up_place(&mut lock(&self.conns));
            return;
        }
        lock(&self.conns).idle.push(conn);
        self.returned.notify_one();
    }

    /// Frees one open connection's place and wakes a waiter to take it.
    fn give_up_place(&self, conns: &mut Conns) {
        conns.open -= 1;
        self.returned.notify_one();
    }

    /// Dials one fresh connection. The caller has taken its place.
    fn dial(&self) -> Result<Connection, NetError> {
        self.dials.inc();
        Connection::connect(&self.addr, &self.config)
            .inspect_err(|_| self.give_up_place(&mut lock(&self.conns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig, WireFault, WireService};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Counting {
        answers: AtomicUsize,
    }

    impl WireService for Counting {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
            let n = self.answers.fetch_add(1, Ordering::SeqCst);
            match query {
                Some("fault") => Err(WireFault::new("transient", "scripted")),
                _ => Ok(format!("<n>{n}</n>")),
            }
        }
    }

    /// Echoes the query back (slowly on demand) so tests can tie each
    /// answer to the request that produced it.
    struct Echo {
        delay: Duration,
    }

    impl WireService for Echo {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            Ok(format!("<echo>{}</echo>", query.unwrap_or("")))
        }
    }

    fn spawn_counting() -> crate::server::ServerHandle {
        Server::bind(
            "127.0.0.1:0",
            Arc::new(Counting {
                answers: AtomicUsize::new(0),
            }),
            ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap()
    }

    #[test]
    fn pool_reuses_connections_and_keeps_them_after_remote_faults() {
        let server = spawn_counting();
        let pool = Pool::new(server.addr().to_string(), ClientConfig::default());
        assert_eq!(pool.idle_connections(), 0);
        pool.request(Msg::Query(String::new())).unwrap();
        assert_eq!(pool.idle_connections(), 1);
        // a remote fault keeps the (healthy) connection pooled
        assert!(matches!(
            pool.request(Msg::Query("fault".into())),
            Err(NetError::Remote { .. })
        ));
        assert_eq!(pool.idle_connections(), 1);
        pool.request(Msg::Query(String::new())).unwrap();
        assert_eq!(pool.idle_connections(), 1, "the connection was reused");
        server.shutdown();
    }

    #[test]
    fn dead_connections_are_discarded_not_pooled() {
        let server = spawn_counting();
        let addr = server.addr().to_string();
        let pool = Pool::new(addr, ClientConfig::default());
        pool.request(Msg::Query(String::new())).unwrap();
        assert_eq!(pool.idle_connections(), 1);
        server.shutdown();
        // the pooled connection is now dead: the exchange fails and the
        // connection is dropped, not returned
        assert!(pool.request(Msg::Query(String::new())).is_err());
        assert_eq!(pool.idle_connections(), 0);
    }

    #[test]
    fn callers_beyond_pool_size_wait_for_a_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo {
                delay: Duration::from_millis(40),
            }),
            ServerConfig {
                workers: 8,
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let registry = Registry::new();
        let pool = Arc::new(Pool::with_registry(
            server.addr().to_string(),
            ClientConfig {
                pool_size: 1,
                ..ClientConfig::default()
            },
            &registry,
        ));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.request(Msg::Query(format!("q{i}"))))
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let reply = h.join().unwrap().unwrap();
            assert_eq!(reply, Msg::Answer(format!("<echo>q{i}</echo>")));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["net_client_dials_total"], 1,
            "eight callers on one connection should wait their turns, not dial"
        );
        assert_eq!(pool.idle_connections(), 1);
        server.shutdown();
    }

    /// Echoes the query back, but answers `late` only after `delay`.
    struct Tardy {
        delay: Duration,
    }

    impl WireService for Tardy {
        fn export_dtd(&self) -> String {
            "{<r : a*> <a : PCDATA>}".into()
        }

        fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
            if query == Some("late") {
                std::thread::sleep(self.delay);
            }
            Ok(format!("<echo>{}</echo>", query.unwrap_or("")))
        }
    }

    #[test]
    fn a_reply_past_the_deadline_drops_its_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(Tardy {
                delay: Duration::from_millis(300),
            }),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let registry = Registry::new();
        let pool = Pool::with_registry(
            server.addr().to_string(),
            ClientConfig {
                pool_size: 1,
                io_timeout: Duration::from_millis(100),
                ..ClientConfig::default()
            },
            &registry,
        );
        let late = pool.request(Msg::Query("late".into()));
        assert!(matches!(&late, Err(e) if e.is_timeout()), "{late:?}");
        // the straggler is bound for the dropped connection, not for the
        // next caller
        assert_eq!(
            pool.request(Msg::Query("next".into())).unwrap(),
            Msg::Answer("<echo>next</echo>".into())
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net_client_dials_total"], 2);
        assert_eq!(snap.counters["net_client_discards_total"], 1);
        server.shutdown();
    }

    #[test]
    fn an_idle_connection_the_server_evicted_is_redialed_not_reused() {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(Echo {
                delay: Duration::ZERO,
            }),
            ServerConfig {
                io_timeout: Duration::from_millis(50),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let registry = Registry::new();
        let pool = Pool::with_registry(
            server.addr().to_string(),
            ClientConfig::default(),
            &registry,
        );
        assert_eq!(
            pool.request(Msg::Query("a".into())).unwrap(),
            Msg::Answer("<echo>a</echo>".into())
        );
        // the server evicts the silent connection; wait for its close
        let t0 = Instant::now();
        while pool.idle_connections() > 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "never evicted");
            std::thread::sleep(Duration::from_millis(5));
        }
        // the checkout's probe drops the corpse, so the first attempt
        // dials afresh and succeeds
        assert_eq!(
            pool.request(Msg::Query("b".into())).unwrap(),
            Msg::Answer("<echo>b</echo>".into())
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net_client_dials_total"], 2);
        assert_eq!(snap.counters["net_client_discards_total"], 1);
        server.shutdown();
    }

    #[test]
    fn an_err_at_connection_scope_ends_the_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (_, hello, _) = read_frame(&mut s).unwrap();
            Msg::Hello.write_to(&mut s, hello).unwrap();
            read_frame(&mut s).unwrap();
            Msg::Err {
                kind: "unavailable".into(),
                msg: "going away".into(),
            }
            .write_to(&mut s, CONNECTION_FRAME_ID)
            .unwrap();
        });
        let registry = Registry::new();
        let pool = Pool::with_registry(addr, ClientConfig::default(), &registry);
        match pool.request(Msg::Query("q".into())) {
            Err(NetError::Remote { kind, msg }) => {
                assert_eq!((kind.as_str(), msg.as_str()), ("unavailable", "going away"))
            }
            other => panic!("expected the connection-scope fault, got {other:?}"),
        }
        // dropped at check-in, not left for the next checkout's probe
        assert_eq!(registry.snapshot().counters["net_client_discards_total"], 1);
        assert_eq!(pool.idle_connections(), 0);
        fake.join().unwrap();
    }

    #[test]
    fn refused_connection_is_an_io_error() {
        // bind-then-drop: the port existed a moment ago and is now closed
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let pool = Pool::new(addr, ClientConfig::default());
        match pool.request(Msg::Query(String::new())) {
            Err(e) => assert!(e.is_refused(), "unexpected classification: {e:?}"),
            Ok(_) => panic!("exchange on a closed port succeeded"),
        }
    }
}
