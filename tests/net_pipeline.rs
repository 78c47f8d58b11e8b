//! Satellite tier for the pipelined wire protocol (DESIGN.md §13):
//! many `Query` frames in flight per connection, matched by frame id.
//!
//! Each connection's thread answers its frames in order, but calls on
//! different connections finish in whatever order their randomized
//! service delays dictate. The properties here pin the two matching
//! contracts a client relies on:
//!
//! 1. every `Answer` lands on the caller whose `frame_id` it carries —
//!    an id mix-up would hand one caller another's (differently-tagged)
//!    echo, which the asserts would catch immediately;
//! 2. batch issue (`Pool::request_many`, and above it
//!    `Mediator::answer_many`) returns results **in input order**
//!    regardless of completion order.
//!
//! The hostile-peer properties at the bottom send random frames both
//! ways: from a fake daemon to the client, and from a raw client to a
//! `Server`. Every call ends within the deadline in the reply the bytes
//! spell out or a typed `NetError`, and the server keeps serving.

use mix::net::{Msg, Pool, WireFault, WireService, MAX_PAYLOAD};
use mix::prelude::*;
use proptest::prelude::*;
use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

/// Echoes the tag of a `"<delay_ms>|<tag>"` query after sleeping
/// `delay_ms` — the delay is the chaos: it randomizes completion order
/// across the server's connections.
struct DelayEcho;

impl WireService for DelayEcho {
    fn export_dtd(&self) -> String {
        SITE_DTD.into()
    }

    fn answer(&self, query: Option<&str>) -> Result<String, WireFault> {
        let (delay, tag) = query
            .and_then(|q| q.split_once('|'))
            .unwrap_or(("0", "fetch"));
        let ms: u64 = delay.parse().unwrap_or(0);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
        Ok(format!("<echo>{tag}</echo>"))
    }
}

fn spawn_echo() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(DelayEcho),
        ServerConfig {
            workers: 4,
            io_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn echo daemon")
}

fn client_config(pool_size: usize) -> ClientConfig {
    ClientConfig {
        pool_size,
        io_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K concurrent callers share a small fixed connection set; each
    /// caller's answer must echo *its own* tag, whatever order the
    /// randomized delays complete in.
    #[test]
    fn every_answer_lands_on_its_own_frame_id(
        delays in prop::collection::vec(0u64..20, 4..16),
        pool_size in 1usize..3,
    ) {
        let daemon = spawn_echo();
        let pool = Pool::new(
            daemon.addr().to_string(),
            client_config(pool_size),
        );
        std::thread::scope(|scope| {
            for (i, d) in delays.iter().enumerate() {
                let pool = &pool;
                scope.spawn(move || {
                    let reply = pool
                        .request(Msg::Query(format!("{d}|t{i}")))
                        .expect("pipelined echo");
                    assert_eq!(
                        reply,
                        Msg::Answer(format!("<echo>t{i}</echo>")),
                        "caller {i} received an answer for a different frame id"
                    );
                });
            }
        });
        daemon.shutdown();
    }

    /// `Pool::request_many` issues the whole batch down one pooled
    /// connection and returns replies in input order, not completion
    /// order.
    #[test]
    fn request_many_is_order_preserving_under_random_delays(
        delays in prop::collection::vec(0u64..20, 1..24),
    ) {
        let daemon = spawn_echo();
        let pool = Pool::new(daemon.addr().to_string(), client_config(2));
        let batch: Vec<Msg> = delays
            .iter()
            .enumerate()
            .map(|(i, d)| Msg::Query(format!("{d}|t{i}")))
            .collect();
        let replies = pool.request_many(batch);
        prop_assert_eq!(replies.len(), delays.len());
        for (i, reply) in replies.into_iter().enumerate() {
            let reply = reply.expect("echo reply");
            prop_assert_eq!(
                reply,
                Msg::Answer(format!("<echo>t{i}</echo>")),
                "slot {} holds an out-of-order reply",
                i
            );
        }
        daemon.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The answer_many boundary: batched mediation over remote sources must
// return per-query results in input order, byte-identical to the
// sequential path.
// ---------------------------------------------------------------------------

fn site_source(tag: &str, entries: usize) -> XmlSource {
    let body: String = (0..entries)
        .map(|i| format!("<entry>{tag}{i}</entry>"))
        .collect();
    XmlSource::new(
        parse_compact(SITE_DTD).unwrap(),
        parse_document(&format!("<site>{body}</site>")).unwrap(),
    )
    .unwrap()
}

fn spawn_site(tag: &str, entries: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(site_source(tag, entries))),
        ServerConfig::default(),
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn daemon")
}

/// The per-member query a union view sends each source (rooted at the
/// source's `<site>` document type).
fn member_query() -> Query {
    parse_query("m = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
}

/// A top-level query addressing `view` (the mediator routes by the root
/// element test).
fn view_query(view: &str) -> Query {
    parse_query(&format!(
        "q_{view} = SELECT X WHERE <{view}> X:<entry/> </{view}>"
    ))
    .unwrap()
}

/// Three remote sources under three union views with *different* member
/// sets, so every view has distinguishable answer bytes — a batch whose
/// results came back permuted could not pass.
#[test]
fn answer_many_over_remote_sources_is_order_preserving_and_byte_identical() {
    let daemons: Vec<ServerHandle> = [("alpha", 2), ("beta", 3), ("gamma", 4)]
        .iter()
        .map(|&(tag, n)| spawn_site(tag, n))
        .collect();
    let mut m = Mediator::new();
    for (daemon, name) in daemons.iter().zip(["alpha", "beta", "gamma"]) {
        m.add_source(
            name,
            Arc::new(RemoteWrapper::connect(&daemon.addr().to_string()).expect("daemon reachable")),
        );
    }
    m.register_union_view("ab", &[("alpha", member_query()), ("beta", member_query())])
        .expect("ab registers");
    m.register_union_view("bc", &[("beta", member_query()), ("gamma", member_query())])
        .expect("bc registers");
    m.register_union_view(
        "all",
        &[
            ("alpha", member_query()),
            ("beta", member_query()),
            ("gamma", member_query()),
        ],
    )
    .expect("all registers");

    // an interleaved batch hitting every view several times
    let views = ["ab", "bc", "all", "bc", "ab", "all", "ab", "bc"];
    let batch: Vec<Query> = views.iter().map(|v| view_query(v)).collect();

    let sequential: Vec<String> = batch
        .iter()
        .map(|q| render(&m.query(q).expect("sequential answer").document))
        .collect();
    // the three views genuinely differ, so permutations are detectable
    assert_ne!(sequential[0], sequential[1]);
    assert_ne!(sequential[1], sequential[2]);
    assert_ne!(sequential[0], sequential[2]);

    let batched = m.answer_many(&batch);
    assert_eq!(batched.len(), batch.len());
    for (i, result) in batched.into_iter().enumerate() {
        let answer = result.expect("batched answer");
        assert_eq!(
            render(&answer.document),
            sequential[i],
            "batch slot {i} (view '{}') diverged from the sequential path",
            views[i]
        );
    }

    for d in daemons {
        d.shutdown();
    }
}

/// One remote source contributing *twice* to a union: both members are
/// shipped the same composed query and produce byte-identical reply text
/// over the same `RemoteWrapper`, so the second answer is served from its
/// parse memo as a clone of the first (the warm-up below makes that
/// deterministic even though members are answered in parallel). Element ids thread through
/// binding and diseq semantics, so memoized clones must be
/// indistinguishable from independent parses end to end: the union keeps
/// both copies' members and the final answer stays id-unique. (The
/// disjoint-ids contract itself is pinned by a `RemoteWrapper` unit
/// test.)
#[test]
fn union_of_byte_identical_members_keeps_both_copies() {
    let daemon = spawn_site("twin", 3);
    let remote =
        Arc::new(RemoteWrapper::connect(&daemon.addr().to_string()).expect("daemon reachable"));
    // warm the parse memo with the composed query's reply so both
    // (parallel) member calls below are served as clones of the same
    // memoized parse
    let member = normalize(&member_query(), remote.dtd()).unwrap();
    let Some(Composed::Query(composed)) = compose(name("both"), &member, &view_query("both"))
    else {
        panic!("the view query composes with the member definition");
    };
    remote.answer(&composed).expect("warm-up answer");
    let mut m = Mediator::new();
    m.add_source("alpha", Arc::clone(&remote) as Arc<dyn Wrapper>);
    m.register_union_view(
        "both",
        &[("alpha", member_query()), ("alpha", member_query())],
    )
    .expect("view registers");
    let answer = m.query(&view_query("both")).expect("union answer").document;
    let entries = answer
        .root
        .walk()
        .filter(|e| e.name.as_str() == "entry")
        .count();
    assert_eq!(
        entries, 6,
        "expected the member's 3 entries twice; id-sharing clones were deduplicated"
    );
    assert!(
        answer.duplicate_id().is_none(),
        "the glued union answer must not contain duplicate element ids"
    );
    daemon.shutdown();
}

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

// ---------------------------------------------------------------------------
// Hostile peers. One generator makes frames as a broken or hostile peer
// might send them: version byte 1, 2 or other; any type byte; a frame id
// that is a request's, another, or the connection-scope 0; an announced
// length of 0, the payload's, `MAX_PAYLOAD` or one past it; a payload
// that may not be UTF-8; all cut at a random byte.
// ---------------------------------------------------------------------------

/// The clients' deadline; a hostile exchange must end well within it.
const HOSTILE_TIMEOUT: Duration = Duration::from_secs(2);

/// One frame: `version`, `ty` and `id` as given, the length `announce`
/// picks (0, the payload's, `MAX_PAYLOAD` or one past it), then the
/// payload, or none for a length of 0.
fn frame_bytes(version: u8, ty: u8, id: u32, announce: u8, payload: &[u8]) -> Vec<u8> {
    let (len, body) = match announce {
        0 => (0, &[][..]),
        1 => (payload.len() as u32, payload),
        2 => (MAX_PAYLOAD, payload),
        _ => (MAX_PAYLOAD + 1, payload),
    };
    let mut bytes = vec![version, ty];
    bytes.extend_from_slice(&id.to_be_bytes());
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// A payload: the echo of query `text`, a decimal (a well-formed
/// `Throttled`), random text, or random bytes.
fn payload_bytes(kind: u8, text: &str, random_text: &str, raw: &[u8], n: usize) -> Vec<u8> {
    match kind {
        0 => format!("<echo>{text}</echo>").into_bytes(),
        1 => (n * 37).to_string().into_bytes(),
        2 => random_text.as_bytes().to_vec(),
        _ => raw.to_vec(),
    }
}

/// How one exchange ended, at the grain the property checks.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Reply(Msg),
    Remote,
    Throttled,
    Protocol,
    Version,
    Io,
}

fn outcome(result: Result<Msg, &NetError>) -> Outcome {
    match result {
        Ok(Msg::Err { .. }) | Err(NetError::Remote { .. }) => Outcome::Remote,
        Ok(Msg::Throttled { .. }) | Err(NetError::Throttled { .. }) => Outcome::Throttled,
        Ok(reply) => Outcome::Reply(reply),
        Err(NetError::Protocol(_)) => Outcome::Protocol,
        Err(NetError::VersionMismatch { .. }) => Outcome::Version,
        Err(NetError::Io(_)) => Outcome::Io,
    }
}

/// What the requests with `ids` should come to when a daemon answers
/// them with `sent` and closes: a frame reader's verdict on the bytes,
/// routed by frame id. A reply addressed to one request answers it, and
/// the close then fails the others; a fault, a connection-scope frame or
/// a stray id fails them all.
fn expected(sent: &[u8], ids: &[u32]) -> Vec<Outcome> {
    let all = |o: Outcome| ids.iter().map(|_| o.clone()).collect();
    match Msg::read_from(&mut &sent[..]) {
        Err(e) => all(outcome(Err(&e))),
        Ok((0, Msg::Err { .. })) => all(Outcome::Remote),
        Ok((id, reply)) => match ids.iter().position(|&sent_id| sent_id == id) {
            None => all(Outcome::Protocol),
            Some(j) => {
                let answered = outcome(Ok(reply));
                (0..ids.len())
                    .map(|k| {
                        if k == j {
                            answered.clone()
                        } else {
                            Outcome::Io
                        }
                    })
                    .collect()
            }
        },
    }
}

/// A fake daemon's thread: it returns the request ids it read and the
/// bytes it sent.
type FakeDaemon = JoinHandle<(Vec<u32>, Vec<u8>)>;

/// A fake daemon: completes the `Hello`, reads `queries` requests, sends
/// what `reply` makes of their ids and texts cut at `cut` bytes, and
/// closes.
fn hostile_daemon(
    queries: usize,
    cut: usize,
    reply: impl FnOnce(&[u32], &[String]) -> Vec<u8> + Send + 'static,
) -> (String, FakeDaemon) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("the client dials");
        let (hello, _) = Msg::read_from(&mut s).expect("Hello");
        Msg::Hello.write_to(&mut s, hello).expect("Hello back");
        let (ids, texts): (Vec<u32>, Vec<String>) = (0..queries)
            .map(|_| match Msg::read_from(&mut s).expect("a query") {
                (id, Msg::Query(text)) => (id, text),
                (_, other) => panic!("expected a Query, got {other:?}"),
            })
            .unzip();
        let mut sent = reply(&ids, &texts);
        sent.truncate(cut);
        s.write_all(&sent).expect("the client is still reading");
        s.shutdown(Shutdown::Write).expect("close");
        (ids, sent)
    });
    (addr, fake)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a daemon replies, `Pool::request` and `request_many`
    /// return the reply its bytes spell (the echo, when they spell a
    /// well-formed answer to the request) or a typed error, within the
    /// deadline. A length past `MAX_PAYLOAD` is refused from the header:
    /// no payload follows it, so a reader that allocated first would
    /// report the close instead.
    #[test]
    fn hostile_daemon_replies_end_in_the_reply_they_spell_or_a_typed_error(
        version in prop_oneof![1 => Just(1u8), 6 => Just(2u8), 1 => 0u8..=255],
        ty in prop_oneof![2 => Just(3u8), 2 => 0u8..7, 1 => 0u8..=255],
        aim in prop_oneof![3 => Just(0u8), 1 => Just(1u8), 1 => Just(2u8)],
        pick in 0usize..8,
        announce in prop_oneof![1 => Just(0u8), 4 => Just(1u8), 1 => Just(2u8), 1 => Just(3u8)],
        kind in 0u8..4,
        random_text in "\\PC{0,12}",
        raw in prop::collection::vec(0u8..=255, 0..16),
        cut in prop_oneof![2 => Just(usize::MAX), 1 => 0usize..48],
        batch in 1usize..6,
    ) {
        for many in [false, true] {
            let queries = if many { batch } else { 1 };
            let (random_text, raw) = (random_text.clone(), raw.clone());
            let (addr, fake) = hostile_daemon(queries, cut, move |ids, texts| {
                let j = pick % ids.len();
                let id = match aim {
                    0 => ids[j],
                    1 => 1_000 + pick as u32,
                    _ => 0,
                };
                let payload = payload_bytes(kind, &texts[j], &random_text, &raw, pick);
                frame_bytes(version, ty, id, announce, &payload)
            });
            let pool = Pool::new(
                addr,
                ClientConfig {
                    pool_size: 1,
                    io_timeout: HOSTILE_TIMEOUT,
                    ..ClientConfig::default()
                },
            );
            let msgs: Vec<Msg> = (0..queries).map(|i| Msg::Query(format!("q{i}"))).collect();
            let started = Instant::now();
            let results = if many {
                pool.request_many(msgs)
            } else {
                vec![pool.request(msgs[0].clone())]
            };
            let waited = started.elapsed();
            let (ids, sent) = fake.join().expect("the fake daemon ran");
            let got: Vec<Outcome> = results.iter().map(|r| outcome(r.as_ref().cloned())).collect();
            prop_assert!(waited < HOSTILE_TIMEOUT, "waited {:?} for {:?}", waited, got);
            prop_assert_eq!(&got, &expected(&sent, &ids), "sent {:?} to {:?}", sent, ids);
            if version == 2 && ty < 7 && announce == 3 && sent.len() >= 10 {
                prop_assert!(got.iter().all(|o| *o == Outcome::Protocol), "{:?}", got);
            }
        }
    }

    /// Whatever a client sends, with or without a handshake first and
    /// whether it then closes or lingers, the server goes on answering a
    /// well-behaved pool correctly.
    #[test]
    fn hostile_client_frames_leave_the_server_serving(
        handshake in 0u8..2,
        version in prop_oneof![1 => Just(1u8), 4 => Just(2u8), 1 => 0u8..=255],
        ty in prop_oneof![3 => 0u8..7, 1 => 0u8..=255],
        id in prop_oneof![1 => Just(0u32), 3 => 1u32..4],
        announce in prop_oneof![1 => Just(0u8), 4 => Just(1u8), 1 => Just(2u8), 1 => Just(3u8)],
        kind in 0u8..4,
        random_text in "\\PC{0,12}",
        raw in prop::collection::vec(0u8..=255, 0..16),
        cut in prop_oneof![1 => Just(usize::MAX), 2 => 0usize..48],
        linger in 0u8..2,
    ) {
        let daemon = Server::bind(
            "127.0.0.1:0",
            Arc::new(DelayEcho),
            ServerConfig {
                workers: 2,
                io_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
        .spawn()
        .expect("spawn echo daemon");
        let mut bytes = Vec::new();
        if handshake == 1 {
            Msg::Hello.write_to(&mut bytes, 1).unwrap();
        }
        let payload = payload_bytes(kind, "0|h", &random_text, &raw, id as usize);
        let mut frame = frame_bytes(version, ty, id, announce, &payload);
        frame.truncate(cut);
        bytes.extend_from_slice(&frame);
        let mut hostile = TcpStream::connect(daemon.addr()).expect("dial the daemon");
        // the server may close first, on a fault it reported
        let _ = hostile.write_all(&bytes);
        if linger == 0 {
            drop(hostile);
        }
        let pool = Pool::new(
            daemon.addr().to_string(),
            ClientConfig {
                io_timeout: HOSTILE_TIMEOUT,
                ..client_config(2)
            },
        );
        let replies = pool.request_many((0..3).map(|i| Msg::Query(format!("0|t{i}"))).collect());
        for (i, reply) in replies.into_iter().enumerate() {
            prop_assert_eq!(reply.expect("a correct answer"), Msg::Answer(format!("<echo>t{i}</echo>")));
        }
        prop_assert_eq!(
            pool.request(Msg::Query("0|last".into())).expect("a correct answer"),
            Msg::Answer("<echo>last</echo>".into())
        );
        daemon.shutdown();
    }
}
