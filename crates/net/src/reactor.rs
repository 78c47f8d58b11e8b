//! The readiness-driven event loop behind [`crate::server::Server`].
//!
//! One reactor thread owns the listener, every connection's nonblocking
//! socket, and a pair of ring buffers per connection; a small worker pool
//! answers queries. The division of labor:
//!
//! - **Reactor**: accepts, reads bytes into per-connection in-rings,
//!   parses complete frames, answers the cheap control frames (`Hello`,
//!   `ExportDtd`, `Stats`) inline, admission-gates `Query` frames, and
//!   flushes out-rings as sockets become writable. Never blocks on a
//!   socket and never runs service code that could be slow.
//! - **Workers**: run [`crate::server::WireService::answer`] for admitted
//!   queries and push completions back; the self-pipe waker pulls the
//!   reactor out of `poll` to encode and flush the replies.
//!
//! Because every frame carries its own id, many queries can be in flight
//! per connection: workers finish in any order and each `Answer` finds
//! its way home by id. Backpressure, fairness, and failure isolation all
//! live here:
//!
//! - a connection that dribbles bytes (slow loris) parks cheaply in the
//!   poller — it holds no thread — and cannot stall other connections;
//! - a connection with *no* byte progress for `io_timeout` and nothing in
//!   flight is evicted (`net_deadline_expiries_total`);
//! - a peer speaking a foreign frame version gets a clean `incompatible`
//!   fault in its *own* framing (v1) and a drained close, never garbage;
//! - shutdown stops accepting and reading immediately, but flushes the
//!   answers of already-admitted queries before closing (bounded by
//!   `DRAIN_TIMEOUT`) — an admitted query is a promise.

use crate::admission::TokenBucket;
use crate::frame::{
    decode_header, encode_header, write_frame_v1, MsgType, CONNECTION_FRAME_ID, FRAME_VERSION,
    HEADER_LEN, LEGACY_HEADER_LEN,
};
use crate::msg::Msg;
use crate::ring::RingBuf;
use crate::server::{NetInstruments, ServerConfig, WireService};
use crate::sys::{Event, Poller, Waker};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const LISTENER: usize = 0;
const WAKER: usize = 1;
const CONN_BASE: usize = 2;

/// Per-tick cap on `read` calls per connection — keeps one firehose
/// connection from starving the rest; the level-triggered poller re-arms
/// whatever is left.
const READS_PER_TICK: usize = 8;

/// How long shutdown keeps flushing the answers of already-admitted
/// queries before force-closing what remains.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An admitted query on its way to a worker.
struct Job {
    token: usize,
    gen: u64,
    frame_id: u32,
    query: Option<String>,
    started_ns: u64,
}

/// A worker's finished answer on its way back to the reactor.
struct Completion {
    token: usize,
    gen: u64,
    frame_id: u32,
    reply: Msg,
    started_ns: u64,
}

struct WorkQueue {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

struct DoneQueue {
    list: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

fn worker_loop<S: WireService>(service: Arc<S>, queue: Arc<WorkQueue>, done: Arc<DoneQueue>) {
    loop {
        let job = {
            let mut jobs = lock(&queue.jobs);
            loop {
                if let Some(j) = jobs.pop_front() {
                    break j;
                }
                // drain-then-exit: jobs enqueued before the stop flag are
                // still answered, which is what lets shutdown flush them
                if queue.stop.load(Ordering::SeqCst) {
                    return;
                }
                jobs = queue.cv.wait(jobs).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let reply = answer_job(service.as_ref(), job.query.as_deref());
        lock(&done.list).push(Completion {
            token: job.token,
            gen: job.gen,
            frame_id: job.frame_id,
            reply,
            started_ns: job.started_ns,
        });
        done.waker.wake();
    }
}

fn answer_job(service: &dyn WireService, query: Option<&str>) -> Msg {
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

enum ConnState {
    /// Nothing decoded yet: the first byte picks the version path and the
    /// first frame must be `Hello`.
    Handshake,
    /// Handshake done; regular traffic.
    Ready,
}

struct Conn {
    stream: TcpStream,
    inbuf: RingBuf,
    outbuf: RingBuf,
    state: ConnState,
    bucket: Option<TokenBucket>,
    /// Distinguishes this occupancy of the slot from earlier ones, so a
    /// worker completion for a closed connection is dropped, not
    /// delivered to whoever reused the slot.
    gen: u64,
    in_flight: usize,
    /// Still consuming input (false once EOF or a fatal fault was seen).
    reading: bool,
    /// Input is drained and discarded without parsing (refused or
    /// foreign-version connections): keeps the receive queue empty so the
    /// eventual close is a clean FIN and the peer can read our reply.
    discard_input: bool,
    /// Close as soon as the out-ring is flushed and nothing is in flight.
    close_after_flush: bool,
    /// Counted in `net_connections_opened/closed_total` and against
    /// `max_connections`; refusals are not.
    admitted: bool,
    last_progress: Instant,
    // interest currently registered with the poller
    want_read: bool,
    want_write: bool,
}

enum Phase {
    Running,
    Draining { deadline: Instant },
}

pub(crate) struct Reactor<S: WireService> {
    listener: Option<TcpListener>,
    service: Arc<S>,
    config: ServerConfig,
    obs: NetInstruments,
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    admitted_count: usize,
    next_gen: u64,
    total_in_flight: i64,
    queue: Arc<WorkQueue>,
    done: Arc<DoneQueue>,
    phase: Phase,
}

impl<S: WireService> Reactor<S> {
    pub(crate) fn new(
        listener: TcpListener,
        service: Arc<S>,
        config: ServerConfig,
        obs: NetInstruments,
        stop: Arc<AtomicBool>,
        waker: Arc<Waker>,
    ) -> std::io::Result<Reactor<S>> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, true, false)?;
        poller.register(waker.read_fd(), WAKER, true, false)?;
        let queue = Arc::new(WorkQueue {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let done = Arc::new(DoneQueue {
            list: Mutex::new(Vec::new()),
            waker: Arc::clone(&waker),
        });
        let workers = effective_workers(config.workers);
        for _ in 0..workers {
            let service = Arc::clone(&service);
            let queue = Arc::clone(&queue);
            let done = Arc::clone(&done);
            // detached on purpose: a worker stuck inside a slow
            // `service.answer` must not be able to wedge shutdown
            std::thread::spawn(move || worker_loop(service, queue, done));
        }
        Ok(Reactor {
            listener: Some(listener),
            service,
            config,
            obs,
            poller,
            waker,
            stop,
            conns: Vec::new(),
            free: Vec::new(),
            admitted_count: 0,
            next_gen: 1,
            total_in_flight: 0,
            queue,
            done,
            phase: Phase::Running,
        })
    }

    /// The event loop. Returns when shutdown has drained (or force-closed
    /// at the drain deadline) every connection.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) && matches!(self.phase, Phase::Running) {
                self.begin_drain();
            }
            if let Phase::Draining { deadline } = self.phase {
                if self.live_conns() == 0 {
                    break;
                }
                if Instant::now() >= deadline {
                    self.force_close_all();
                    break;
                }
            }
            events.clear();
            if self.poller.wait(&mut events, self.next_timeout()).is_err() {
                break;
            }
            self.obs.reactor_polls.inc();
            let mut woken = false;
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => {
                        self.waker.drain();
                        self.obs.reactor_wakeups.inc();
                        woken = true;
                    }
                    t => {
                        let idx = t - CONN_BASE;
                        if ev.writable {
                            self.flush_conn(idx);
                        }
                        if ev.readable {
                            self.read_conn(idx);
                        }
                        self.settle(idx);
                    }
                }
            }
            // completions are applied only after a wake: a worker wakes
            // after pushing its completion, so none is left behind, and
            // every answer delivered follows a counted wakeup
            if woken {
                self.apply_completions();
            }
            self.evict_stalled();
        }
        // drain-then-exit for workers: anything still queued is answered,
        // then the (detached) threads leave
        self.queue.stop.store(true, Ordering::SeqCst);
        self.queue.cv.notify_all();
    }

    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// How long `poll` may sleep: until the nearest eviction or drain
    /// deadline, or forever when neither applies.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut consider = |t: Instant| {
            next = Some(match next {
                Some(n) if n <= t => n,
                _ => t,
            });
        };
        for conn in self.conns.iter().flatten() {
            if conn.in_flight == 0 {
                consider(conn.last_progress + self.config.io_timeout);
            }
        }
        if let Phase::Draining { deadline } = self.phase {
            consider(deadline);
        }
        next.map(|t| t.saturating_duration_since(now))
    }

    fn begin_drain(&mut self) {
        // stop accepting: drop the listener so the port refuses outright
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
        }
        self.phase = Phase::Draining {
            deadline: Instant::now() + DRAIN_TIMEOUT,
        };
        // stop reading everywhere; idle connections close immediately —
        // that is the "daemon killed" signal pooled clients observe —
        // while connections with admitted queries in flight (or replies
        // still buffered) stay to be flushed
        for idx in 0..self.conns.len() {
            if let Some(conn) = &mut self.conns[idx] {
                conn.reading = false;
                conn.discard_input = false;
                conn.close_after_flush = true;
                if conn.in_flight == 0 && conn.outbuf.is_empty() {
                    self.close(idx);
                } else {
                    self.update_interest(idx);
                }
            }
        }
    }

    fn force_close_all(&mut self) {
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close(idx);
            }
        }
    }

    fn evict_stalled(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = &self.conns[idx] else {
                continue;
            };
            // progress on either direction resets the clock; a query
            // being answered is progress we owe, not theirs to make
            if conn.in_flight == 0
                && now.saturating_duration_since(conn.last_progress) >= self.config.io_timeout
            {
                self.obs.deadline_expiries.inc();
                self.close(idx);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let over_cap = self.admitted_count >= self.config.max_connections;
            let gen = self.next_gen;
            self.next_gen += 1;
            let mut conn = Conn {
                stream,
                inbuf: RingBuf::with_capacity(4 * 1024),
                outbuf: RingBuf::with_capacity(4 * 1024),
                state: ConnState::Handshake,
                bucket: self.config.admission.map(TokenBucket::new),
                gen,
                in_flight: 0,
                reading: true,
                discard_input: false,
                close_after_flush: false,
                admitted: !over_cap,
                last_progress: Instant::now(),
                want_read: false,
                want_write: false,
            };
            if over_cap {
                // turn it away politely, in v2 framing at connection
                // scope; keep draining its bytes so the close is clean
                self.obs.conns_refused.inc();
                conn.discard_input = true;
                conn.close_after_flush = true;
                let refusal = Msg::Err {
                    kind: "unavailable".into(),
                    msg: "connection limit reached".into(),
                };
                push_msg(&mut conn.outbuf, CONNECTION_FRAME_ID, &refusal);
                self.obs.wrote(&refusal);
            } else {
                self.obs.conns_opened.inc();
                self.admitted_count += 1;
            }
            let idx = match self.free.pop() {
                Some(i) => {
                    self.conns[i] = Some(conn);
                    i
                }
                None => {
                    self.conns.push(Some(conn));
                    self.conns.len() - 1
                }
            };
            let fd = self.conns[idx]
                .as_ref()
                .expect("just inserted")
                .stream
                .as_raw_fd();
            if self
                .poller
                .register(fd, CONN_BASE + idx, false, false)
                .is_err()
            {
                self.close(idx);
                continue;
            }
            self.flush_conn(idx);
            self.settle(idx);
        }
    }

    fn read_conn(&mut self, idx: usize) {
        let mut eof = false;
        let mut failed = false;
        {
            let Some(conn) = &mut self.conns[idx] else {
                return;
            };
            if !conn.reading {
                // still drain the socket if we are in discard mode
                if !conn.discard_input {
                    return;
                }
            }
            for _ in 0..READS_PER_TICK {
                match conn.inbuf.fill_from(&mut conn.stream) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(_) => {
                        conn.last_progress = Instant::now();
                        if conn.discard_input {
                            let n = conn.inbuf.len();
                            conn.inbuf.consume(n);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close(idx);
            return;
        }
        self.parse_frames(idx);
        if eof {
            if let Some(conn) = &mut self.conns[idx] {
                conn.reading = false;
                conn.discard_input = false;
                if conn.in_flight == 0 && conn.outbuf.is_empty() {
                    self.close(idx);
                } else {
                    // half-close: finish answering what was admitted
                    conn.close_after_flush = true;
                }
            }
        }
    }

    fn parse_frames(&mut self, idx: usize) {
        loop {
            let Some(conn) = &mut self.conns[idx] else {
                return;
            };
            if conn.discard_input || conn.close_after_flush {
                return;
            }
            if conn.inbuf.is_empty() {
                return;
            }
            if matches!(conn.state, ConnState::Handshake) {
                let mut first = [0u8; 1];
                conn.inbuf.peek_into(&mut first);
                if first[0] != FRAME_VERSION {
                    self.reject_foreign_version(idx, first[0]);
                    return;
                }
            }
            if conn.inbuf.len() < HEADER_LEN {
                return;
            }
            let mut raw = [0u8; HEADER_LEN];
            conn.inbuf.peek_into(&mut raw);
            let header = match decode_header(&raw) {
                Ok(h) => h,
                Err(e) => {
                    // mid-stream desync (wrong version byte can only
                    // happen here after a corrupted length): fatal
                    self.protocol_fault(idx, CONNECTION_FRAME_ID, e.to_string());
                    return;
                }
            };
            if conn.inbuf.len() < HEADER_LEN + header.len as usize {
                return; // partial frame: wait for more bytes
            }
            conn.inbuf.consume(HEADER_LEN);
            let payload = conn.inbuf.take_vec(header.len as usize);
            match Msg::decode(header.ty, payload) {
                Ok(msg) => self.dispatch(idx, header.frame_id, msg),
                Err(e) => {
                    self.protocol_fault(idx, header.frame_id, e.to_string());
                    return;
                }
            }
        }
    }

    fn dispatch(&mut self, idx: usize, frame_id: u32, msg: Msg) {
        self.obs.read(&msg);
        let started = self.obs.registry.now_ns();
        let (handshaking, gen) = {
            let Some(conn) = &self.conns[idx] else { return };
            (matches!(conn.state, ConnState::Handshake), conn.gen)
        };
        if handshaking && !matches!(msg, Msg::Hello) {
            self.protocol_fault(
                idx,
                frame_id,
                format!("expected Hello, got {:?}", msg.msg_type()),
            );
            return;
        }
        match msg {
            Msg::Hello => {
                if let Some(conn) = &mut self.conns[idx] {
                    conn.state = ConnState::Ready;
                }
                // the handshake Hello is connection setup, not an RPC;
                // only a *re*-handshake lands a latency sample
                self.reply(idx, frame_id, Msg::Hello, (!handshaking).then_some(started));
            }
            Msg::ExportDtd(_) => {
                let dtd = self.service.export_dtd();
                self.reply(idx, frame_id, Msg::ExportDtd(dtd), Some(started));
            }
            Msg::Stats(_) => {
                let reply = match self.service.stats() {
                    Some(json) => Msg::Stats(json),
                    None => Msg::Err {
                        kind: "unsupported".into(),
                        msg: "this service exports no statistics".into(),
                    },
                };
                self.reply(idx, frame_id, reply, Some(started));
            }
            Msg::Query(q) => {
                // only the data plane is admission-gated; handshakes, DTD
                // exports, and stats probes always go through
                let shed = {
                    let Some(conn) = &mut self.conns[idx] else {
                        return;
                    };
                    match conn.bucket.as_ref().map(TokenBucket::try_acquire) {
                        Some(Err(retry_after_ms)) => Some(retry_after_ms),
                        _ => {
                            conn.in_flight += 1;
                            None
                        }
                    }
                };
                match shed {
                    Some(retry_after_ms) => {
                        self.obs.requests_shed.inc();
                        self.reply(
                            idx,
                            frame_id,
                            Msg::Throttled { retry_after_ms },
                            Some(started),
                        );
                    }
                    None => {
                        self.total_in_flight += 1;
                        self.obs.inflight_depth.set(self.total_in_flight);
                        lock(&self.queue.jobs).push_back(Job {
                            token: idx,
                            gen,
                            frame_id,
                            query: (!q.is_empty()).then_some(q),
                            started_ns: started,
                        });
                        self.queue.cv.notify_one();
                    }
                }
            }
            Msg::Answer(_) | Msg::Err { .. } | Msg::Throttled { .. } => {
                self.protocol_fault(
                    idx,
                    frame_id,
                    "clients send ExportDtd/Query, not Answer/Err/Throttled".into(),
                );
            }
        }
    }

    /// Encodes `reply` into the connection's out-ring, records traffic
    /// (and latency when `started` is a dispatch timestamp), and tries an
    /// opportunistic flush.
    fn reply(&mut self, idx: usize, frame_id: u32, reply: Msg, started: Option<u64>) {
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        push_msg(&mut conn.outbuf, frame_id, &reply);
        self.obs.wrote(&reply);
        if let Some(t0) = started {
            self.obs
                .rpc_latency
                .observe(self.obs.registry.now_ns().saturating_sub(t0));
        }
        self.flush_conn(idx);
    }

    /// A fatal protocol violation: tell the peer, flush, close.
    fn protocol_fault(&mut self, idx: usize, frame_id: u32, detail: String) {
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        let fault = Msg::Err {
            kind: "protocol".into(),
            msg: detail,
        };
        push_msg(&mut conn.outbuf, frame_id, &fault);
        self.obs.wrote(&fault);
        conn.reading = false;
        conn.discard_input = true; // drain so the close is a clean FIN
        conn.close_after_flush = true;
        self.flush_conn(idx);
    }

    /// A peer whose very first byte is a foreign frame version: reply in
    /// *its* framing (v1 — all older builds) so it reads a clean
    /// `incompatible` fault instead of garbage, then drain and close.
    fn reject_foreign_version(&mut self, idx: usize, theirs: u8) {
        self.obs.version_mismatches.inc();
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        let payload = format!(
            "incompatible\npeer speaks frame version {theirs}; this build speaks {FRAME_VERSION}"
        );
        let mut legacy = Vec::with_capacity(LEGACY_HEADER_LEN + payload.len());
        write_frame_v1(&mut legacy, MsgType::Err, payload.as_bytes())
            .expect("a short frame writes into a Vec");
        self.obs.frames_out.inc();
        self.obs.bytes_out.add(legacy.len() as u64);
        conn.outbuf.push_slice(&legacy);
        let n = conn.inbuf.len();
        conn.inbuf.consume(n);
        conn.reading = false;
        conn.discard_input = true;
        conn.close_after_flush = true;
        self.flush_conn(idx);
    }

    fn flush_conn(&mut self, idx: usize) {
        let mut failed = false;
        {
            let Some(conn) = &mut self.conns[idx] else {
                return;
            };
            while !conn.outbuf.is_empty() {
                match conn.outbuf.drain_to(&mut conn.stream) {
                    Ok(0) => break,
                    Ok(_) => conn.last_progress = Instant::now(),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close(idx);
        }
    }

    /// Re-registers poller interest to match the connection's state and
    /// closes it if it is fully done.
    fn settle(&mut self, idx: usize) {
        let done = {
            let Some(conn) = &self.conns[idx] else { return };
            conn.close_after_flush && conn.outbuf.is_empty() && conn.in_flight == 0
        };
        if done {
            self.close(idx);
            return;
        }
        self.update_interest(idx);
    }

    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = &mut self.conns[idx] else {
            return;
        };
        let want_read = conn.reading || conn.discard_input;
        let want_write = !conn.outbuf.is_empty();
        if want_read == conn.want_read && want_write == conn.want_write {
            return;
        }
        conn.want_read = want_read;
        conn.want_write = want_write;
        let fd = conn.stream.as_raw_fd();
        let _ = self
            .poller
            .modify(fd, CONN_BASE + idx, want_read, want_write);
    }

    fn close(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.admitted {
            self.obs.conns_closed.inc();
            self.admitted_count -= 1;
        }
        self.total_in_flight -= conn.in_flight as i64;
        self.obs.inflight_depth.set(self.total_in_flight);
        self.free.push(idx);
        // the TcpStream drops (closes) here
    }

    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *lock(&self.done.list));
        for c in completions {
            let delivered = {
                match self.conns.get_mut(c.token).and_then(Option::as_mut) {
                    // gen mismatch: the slot was reused; the requester is
                    // long gone and the answer has no home
                    Some(conn) if conn.gen == c.gen => {
                        conn.in_flight -= 1;
                        true
                    }
                    _ => false,
                }
            };
            if delivered {
                self.total_in_flight -= 1;
                self.obs.inflight_depth.set(self.total_in_flight);
                self.reply(c.token, c.frame_id, c.reply, Some(c.started_ns));
                self.settle(c.token);
            }
        }
    }
}

/// Encodes one v2 frame for `msg` into `out`.
fn push_msg(out: &mut RingBuf, frame_id: u32, msg: &Msg) {
    let payload = msg.payload();
    out.push_slice(&encode_header(
        msg.msg_type(),
        frame_id,
        payload.len() as u32,
    ));
    out.push_slice(&payload);
}

/// Resolves the worker-pool size: explicit, or one per available core
/// (clamped to [2, 16]) for `0`.
pub(crate) fn effective_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 16)
}
