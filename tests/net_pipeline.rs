//! Satellite tier for the pipelined wire protocol (DESIGN.md §13):
//! many `Query` frames in flight per connection, answered out of order.
//!
//! The server's worker pool finishes queries in whatever order their
//! service times dictate, so with randomized per-query delays the wire
//! carries answers genuinely reordered relative to their requests. The
//! properties here pin the two matching contracts that make that safe:
//!
//! 1. every `Answer` lands on the caller whose `frame_id` it carries —
//!    an id mix-up would hand one caller another's (differently-tagged)
//!    echo, which the asserts would catch immediately;
//! 2. batch issue (`Pool::request_many`, and above it
//!    `Mediator::answer_many`) returns results **in input order**
//!    regardless of completion order.

use mix::net::{Msg, Pool, WireFault, WireService};
use mix::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

/// Echoes the tag of a `"<delay_ms>|<tag>"` query after sleeping
/// `delay_ms` — the delay is the chaos: it randomizes completion order
/// across the server's worker pool.
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

fn client_config(pool_size: usize, in_flight: usize) -> ClientConfig {
    ClientConfig {
        pool_size,
        in_flight_per_conn: in_flight,
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
            client_config(pool_size, 8),
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

    /// `Pool::request_many` issues the whole batch down the multiplexed
    /// connections and returns replies in input order, not completion
    /// order.
    #[test]
    fn request_many_is_order_preserving_under_random_delays(
        delays in prop::collection::vec(0u64..20, 1..24),
    ) {
        let daemon = spawn_echo();
        let pool = Pool::new(daemon.addr().to_string(), client_config(2, 4));
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
