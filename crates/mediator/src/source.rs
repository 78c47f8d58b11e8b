//! Wrappers and sources.
//!
//! In the MIX architecture (Section 1) *wrappers* conceptually export the
//! source data as XML together with a DTD, and answer queries against it.
//! [`Wrapper`] is that interface; [`XmlSource`] is the standard
//! implementation backed by an in-memory document (our stand-in for the
//! paper's web sources and repositories); mediators themselves implement
//! `Wrapper` for stacking ("mediators can be stacked on top of
//! mediators").
//!
//! Both operations are fallible — real sources time out, emit malformed
//! XML, or ship documents that stopped validating against their
//! advertised DTD — and return [`SourceError`]. The mediator's resilience
//! layer ([`crate::resilience`]) decides what a failure means for the
//! overall answer.

use crate::error::SourceError;
use crate::wire::net_to_source_error;
use mix_dtd::{validate_document, Dtd, ValidationError};
use mix_net::{ClientConfig, Msg, Pool};
use mix_xmas::{evaluate, normalize, Query};
use mix_xml::Document;

/// Anything that exports XML data typed by a DTD and answers pick-element
/// queries about it.
pub trait Wrapper: Send + Sync {
    /// The DTD of the exported data.
    fn dtd(&self) -> &Dtd;

    /// The full exported document.
    fn fetch(&self) -> Result<Document, SourceError>;

    /// Answers a query whose condition is rooted at this source's document
    /// type. The default implementation evaluates over [`Wrapper::fetch`];
    /// real wrappers would push the query to the underlying system.
    ///
    /// A query that fails normalization is *rejected* (as
    /// [`SourceError::Query`]) rather than evaluated unnormalized: the
    /// unnormalized form has unexpanded wildcards and unassigned tags, so
    /// "guessing" with it could silently return wrong members.
    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        let nq = normalize(q, self.dtd())?;
        let doc = self.fetch()?;
        Ok(evaluate(&nq, &doc))
    }

    /// Answers a batch of queries, one result per query **in input
    /// order**, each failing independently. The default implementation
    /// just loops [`Wrapper::answer`]; wrappers with a pipelined
    /// transport (notably [`RemoteWrapper`]) override it to issue the
    /// whole batch concurrently without spawning a thread per query.
    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        queries.iter().map(|q| self.answer(q)).collect()
    }
}

impl Wrapper for std::sync::Arc<dyn Wrapper> {
    fn dtd(&self) -> &Dtd {
        (**self).dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        (**self).fetch()
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        (**self).answer(q)
    }

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        (**self).answer_batch(queries)
    }
}

/// A source holding one valid XML document — the repository behind a
/// wrapper.
pub struct XmlSource {
    dtd: Dtd,
    document: Document,
}

impl XmlSource {
    /// Creates a source, validating the document against the DTD.
    pub fn new(dtd: Dtd, document: Document) -> Result<XmlSource, ValidationError> {
        validate_document(&dtd, &document)?;
        Ok(XmlSource { dtd, document })
    }

    /// Replaces the document (sources are dynamic), re-validating. On
    /// failure the previous document — the last known good one — stays in
    /// place and keeps serving fetches.
    pub fn update(&mut self, document: Document) -> Result<(), ValidationError> {
        validate_document(&self.dtd, &document)?;
        self.document = document;
        Ok(())
    }

    /// The currently served document.
    pub fn document(&self) -> &Document {
        &self.document
    }
}

impl Wrapper for XmlSource {
    fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        Ok(self.document.clone())
    }
}

/// A wrapper decorator that sleeps for a fixed duration on every fetch,
/// simulating the round-trip latency of a remote source.
///
/// The in-memory [`XmlSource`] answers in microseconds, which makes
/// single-machine throughput experiments meaningless for a *mediator*:
/// real MIX sources are web sites, so a serving layer earns its keep by
/// overlapping source waits, not by burning more CPU. Benchmarks (X15)
/// and the `mixctl serve --bench` driver wrap sources in this to measure
/// that overlap honestly.
pub struct LatencyWrapper<W> {
    inner: W,
    latency: std::time::Duration,
}

impl<W: Wrapper> LatencyWrapper<W> {
    /// Wraps `inner`, adding `latency` to every fetch.
    pub fn new(inner: W, latency: std::time::Duration) -> LatencyWrapper<W> {
        LatencyWrapper { inner, latency }
    }

    /// The simulated per-fetch round-trip latency.
    pub fn latency(&self) -> std::time::Duration {
        self.latency
    }

    /// The wrapped source.
    pub fn inner(&self) -> &W {
        &self.inner
    }
}

impl<W: Wrapper> Wrapper for LatencyWrapper<W> {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        std::thread::sleep(self.latency);
        self.inner.fetch()
    }
}

/// A wrapper served by a remote `mixctl serve-source` daemon, reached over
/// the mix-net wire protocol (DESIGN.md §9).
///
/// The DTD is fetched **once**, at connection time — exactly like the
/// paper's source registration, where a wrapper exports its DTD to the
/// mediator up front. Queries are normalized *locally* against that DTD
/// before being sent, so an ill-formed query is rejected with the same
/// structured [`SourceError::Query`] an in-process wrapper raises, and the
/// wire only ever carries normalizable queries.
///
/// Transport failures (refused connections, deadline expiries, mid-frame
/// disconnects) and forwarded remote faults all map onto [`SourceError`]
/// (see [`crate::wire`]), so the resilience layer — retries, circuit
/// breakers, union-view degradation — drives a remote source exactly like
/// a local one. Exchanges run over a small connection [`Pool`], making the
/// wrapper safe to share across the mediator's serving threads.
///
/// Repeated answers are hash-consed: the parse of each distinct reply
/// body is memoized, and a repeat serves a clone with
/// [`Document::refresh_auto_ids`] applied so ID-based deduplication in
/// downstream evaluation still sees distinct nodes. The memo is keyed by
/// the *full reply text*, so a source that starts answering differently
/// simply misses — cached entries can never go stale, only cold.
pub struct RemoteWrapper {
    pool: Pool,
    dtd: Dtd,
    parse_memo: std::sync::Mutex<ParseMemo>,
    memo_hits: mix_obs::Counter,
    memo_misses: mix_obs::Counter,
    memo_evictions: mix_obs::Counter,
}

impl std::fmt::Debug for RemoteWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWrapper")
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

/// Distinct reply bodies the parse memo holds before it is wiped and
/// rebuilt. Entries are whole answer documents, so the bound is about
/// memory, not hit rate: a mediator's working set of view answers is far
/// smaller than this.
const PARSE_MEMO_CAP: usize = 128;

/// A reply body larger than this bypasses the memo entirely: one
/// streaming-scale answer must not pin megabytes in the cache for a
/// speculative repeat.
const PARSE_MEMO_MAX_ENTRY_BYTES: usize = 1 << 20;

/// Total reply-text bytes the memo may hold (the parsed documents cost a
/// small multiple of this; the reply text is the accounted proxy since
/// it is the key we must keep anyway).
const PARSE_MEMO_MAX_BYTES: usize = 16 << 20;

/// The parse memo with its size accounting: bounded by entry count
/// ([`PARSE_MEMO_CAP`]) and by total reply-text bytes
/// ([`PARSE_MEMO_MAX_BYTES`]); oversized replies
/// ([`PARSE_MEMO_MAX_ENTRY_BYTES`]) are never admitted. Overflow wipes
/// the whole memo (wipe-and-rebuild keeps the hit path a single hash
/// lookup; entries can never go stale, only cold, so the wipe costs
/// re-parses, not correctness).
struct ParseMemo {
    map: std::collections::HashMap<String, Document>,
    bytes: usize,
}

impl ParseMemo {
    fn new() -> ParseMemo {
        ParseMemo {
            map: std::collections::HashMap::new(),
            bytes: 0,
        }
    }

    fn get(&self, xml: &str) -> Option<&Document> {
        self.map.get(xml)
    }

    /// Admits a parsed reply; returns the number of entries evicted to
    /// make room (0 when nothing was wiped or the reply was too large to
    /// admit at all).
    fn insert(&mut self, xml: String, doc: Document) -> u64 {
        if xml.len() > PARSE_MEMO_MAX_ENTRY_BYTES {
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= PARSE_MEMO_CAP || self.bytes + xml.len() > PARSE_MEMO_MAX_BYTES {
            evicted = self.map.len() as u64;
            self.map.clear();
            self.bytes = 0;
        }
        let len = xml.len();
        self.bytes += len;
        // Two threads can miss on the same reply and both insert; the
        // replaced entry's key is the same text, so undo its accounting.
        if self.map.insert(xml, doc).is_some() {
            self.bytes -= len;
        }
        evicted
    }
}

impl RemoteWrapper {
    /// Connects to `addr` (`host:port`) with default client settings and
    /// registers the remote source by fetching its exported DTD.
    pub fn connect(addr: &str) -> Result<RemoteWrapper, SourceError> {
        RemoteWrapper::connect_with(addr, ClientConfig::default())
    }

    /// [`RemoteWrapper::connect`] with explicit timeouts and pool size.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<RemoteWrapper, SourceError> {
        let pool = Pool::new(addr, config);
        let reply = pool
            .request(Msg::ExportDtd(String::new()))
            .map_err(|e| net_to_source_error(addr, config.io_timeout.as_millis() as u64, e))?;
        let text = match reply {
            Msg::ExportDtd(text) => text,
            other => {
                return Err(SourceError::MalformedXml(format!(
                    "{addr}: expected an ExportDtd reply, got {:?}",
                    other.msg_type()
                )))
            }
        };
        let dtd = mix_dtd::parse_compact(&text)
            .map_err(|e| SourceError::DtdInvalid(format!("{addr}: exported DTD: {e}")))?;
        Ok(RemoteWrapper {
            pool,
            dtd,
            parse_memo: std::sync::Mutex::new(ParseMemo::new()),
            memo_hits: mix_obs::global().counter("wire_parse_memo_hits_total"),
            memo_misses: mix_obs::global().counter("wire_parse_memo_misses_total"),
            memo_evictions: mix_obs::global().counter("wire_parse_memo_evictions_total"),
        })
    }

    /// The remote address this wrapper dials.
    pub fn addr(&self) -> &str {
        self.pool.addr()
    }

    /// Connections the underlying pool currently considers live. Mostly
    /// for tests and diagnostics: after a daemon dies, this drops to
    /// zero as soon as the client has *observed* the death, which is the
    /// moment failure behavior becomes deterministic.
    pub fn live_connections(&self) -> usize {
        self.pool.idle_connections()
    }

    /// Parses an answer body through the hash-consing memo: a repeat of a
    /// reply already parsed serves a clone (a few µs) instead of re-running
    /// the parser, with fresh auto IDs so the copy is indistinguishable
    /// from an independent parse.
    fn parse_answer(&self, xml: String) -> Result<Document, SourceError> {
        fn lock(m: &std::sync::Mutex<ParseMemo>) -> std::sync::MutexGuard<'_, ParseMemo> {
            m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
        if let Some(cached) = lock(&self.parse_memo).get(&xml) {
            let mut doc = cached.clone();
            doc.refresh_auto_ids();
            self.memo_hits.inc();
            return Ok(doc);
        }
        // parse outside the lock — misses are the expensive path
        let doc = mix_xml::parse_document(&xml)
            .map_err(|e| SourceError::MalformedXml(format!("{}: answer: {e}", self.pool.addr())))?;
        self.memo_misses.inc();
        let evicted = lock(&self.parse_memo).insert(xml, doc.clone());
        if evicted > 0 {
            self.memo_evictions.add(evicted);
        }
        Ok(doc)
    }

    /// One query/answer (or fetch) exchange; an empty query text requests
    /// the full document.
    fn exchange(&self, query_text: String) -> Result<Document, SourceError> {
        let millis = self.pool.config().io_timeout.as_millis() as u64;
        let reply = self
            .pool
            .request(Msg::Query(query_text))
            .map_err(|e| net_to_source_error(self.pool.addr(), millis, e))?;
        match reply {
            Msg::Answer(xml) => self.parse_answer(xml),
            other => Err(SourceError::MalformedXml(format!(
                "{}: expected an Answer reply, got {:?}",
                self.pool.addr(),
                other.msg_type()
            ))),
        }
    }
}

impl Wrapper for RemoteWrapper {
    fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.exchange(String::new())
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        // normalize locally: Query faults stay structured and local, and
        // the remote side only ever sees well-formed normalized queries
        let nq = normalize(q, &self.dtd)?;
        self.exchange(nq.to_string())
    }

    /// The whole batch rides the multiplexed pool as pipelined `Query`
    /// frames — replies are matched back by frame id, so the server may
    /// finish them in any order while this returns them in input order,
    /// with no thread spawned per query. Queries that fail normalization
    /// are rejected locally and never reach the wire.
    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        let millis = self.pool.config().io_timeout.as_millis() as u64;
        let mut results: Vec<Option<Result<Document, SourceError>>> =
            queries.iter().map(|_| None).collect();
        let mut wire: Vec<(usize, Msg)> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            match normalize(q, &self.dtd) {
                Ok(nq) => wire.push((i, Msg::Query(nq.to_string()))),
                Err(e) => results[i] = Some(Err(e.into())),
            }
        }
        let replies = self
            .pool
            .request_many(wire.iter().map(|(_, m)| m.clone()).collect());
        for ((i, _), reply) in wire.into_iter().zip(replies) {
            results[i] = Some(match reply {
                Ok(Msg::Answer(xml)) => self.parse_answer(xml),
                Ok(other) => Err(SourceError::MalformedXml(format!(
                    "{}: expected an Answer reply, got {:?}",
                    self.pool.addr(),
                    other.msg_type()
                ))),
                Err(e) => Err(net_to_source_error(self.pool.addr(), millis, e)),
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every query answered or rejected"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::d1_department;
    use mix_xmas::parse_query;
    use mix_xml::parse_document;

    fn doc() -> Document {
        parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>u</title><author>a</author><conference/></publication>\
               </gradStudent></department>",
        )
        .unwrap()
    }

    #[test]
    fn source_validates_on_construction() {
        assert!(XmlSource::new(d1_department(), doc()).is_ok());
        let bad = parse_document("<department><name>CS</name></department>").unwrap();
        assert!(XmlSource::new(d1_department(), bad).is_err());
    }

    #[test]
    fn source_answers_queries() {
        let s = XmlSource::new(d1_department(), doc()).unwrap();
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        let out = s.answer(&q).unwrap();
        assert_eq!(out.root.children().len(), 1);
        assert_eq!(out.doc_type().as_str(), "profs");
    }

    #[test]
    fn update_revalidates_and_keeps_last_good() {
        let mut s = XmlSource::new(d1_department(), doc()).unwrap();
        let bad = parse_document("<department/>").unwrap();
        assert!(s.update(bad).is_err());
        // the rejected update did not poison the source: the last known
        // good document still serves
        let served = s.fetch().unwrap();
        assert_eq!(served.root.children().len(), 3);
        assert!(s.update(doc()).is_ok());
    }

    #[test]
    fn latency_wrapper_delays_but_preserves_answers() {
        let plain = XmlSource::new(d1_department(), doc()).unwrap();
        let slow = LatencyWrapper::new(
            XmlSource::new(d1_department(), doc()).unwrap(),
            std::time::Duration::from_millis(5),
        );
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        let t0 = std::time::Instant::now();
        let a = slow.answer(&q).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        let b = plain.answer(&q).unwrap();
        assert!(mix_xml::same_structural_class(&a.root, &b.root));
        assert!(mix_dtd::same_documents(slow.dtd(), plain.dtd()));
    }

    fn serve_local() -> (mix_net::ServerHandle, String) {
        let service =
            crate::wire::WrapperService::new(XmlSource::new(d1_department(), doc()).unwrap());
        let h = mix_net::Server::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(service),
            mix_net::ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = h.addr().to_string();
        (h, addr)
    }

    /// A daemon double that exports a fixed DTD text and serves no data.
    struct ExportsDtd(String);

    impl mix_net::WireService for ExportsDtd {
        fn export_dtd(&self) -> String {
            self.0.clone()
        }

        fn answer(&self, _: Option<&str>) -> Result<String, mix_net::WireFault> {
            Err(mix_net::WireFault::new("unavailable", "no data"))
        }
    }

    #[test]
    fn deeply_nested_exported_dtd_is_dtd_invalid() {
        let deep = format!("{{<r : {}a{}>}}", "(".repeat(50_000), ")".repeat(50_000));
        let server = mix_net::Server::bind(
            "127.0.0.1:0",
            std::sync::Arc::new(ExportsDtd(deep)),
            mix_net::ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = server.addr().to_string();
        // registration parses the DTD on the caller's thread
        let connected = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || RemoteWrapper::connect(&addr).map(|_| ()))
            .unwrap()
            .join()
            .unwrap();
        match connected {
            Err(SourceError::DtdInvalid(msg)) => assert!(msg.contains("nested deeper"), "{msg}"),
            other => panic!("expected DtdInvalid, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn remote_wrapper_agrees_with_in_process_wrapper() {
        let (server, addr) = serve_local();
        let remote = RemoteWrapper::connect(&addr).unwrap();
        let local = XmlSource::new(d1_department(), doc()).unwrap();
        assert!(mix_dtd::same_documents(remote.dtd(), local.dtd()));
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        // node ids are allocation-order artifacts; the serialized answers
        // must be byte-identical
        let xml = |d: &Document| mix_xml::write_document(d, mix_xml::WriteConfig::default());
        assert_eq!(
            xml(&remote.answer(&q).unwrap()),
            xml(&local.answer(&q).unwrap())
        );
        assert_eq!(xml(&remote.fetch().unwrap()), xml(&local.fetch().unwrap()));
        server.shutdown();
    }

    #[test]
    fn memoized_answer_parses_are_byte_identical_with_disjoint_ids() {
        let (server, addr) = serve_local();
        let remote = RemoteWrapper::connect(&addr).unwrap();
        let q = parse_query("profs = SELECT P WHERE <department> P:<professor/> </department>")
            .unwrap();
        // first answer parses, the repeats come from the memo
        let answers: Vec<Document> = (0..3).map(|_| remote.answer(&q).unwrap()).collect();
        let xml = |d: &Document| mix_xml::write_document(d, mix_xml::WriteConfig::default());
        assert_eq!(xml(&answers[0]), xml(&answers[1]));
        assert_eq!(xml(&answers[0]), xml(&answers[2]));
        // the memo hands out clones, but evaluation dedups picked elements
        // by id — so each copy must carry its own fresh ids, or gluing two
        // of them into one constructed document would silently drop nodes
        let mut seen = std::collections::HashSet::new();
        for a in &answers {
            for e in a.root.walk() {
                assert!(seen.insert(e.id), "id {:?} appears in two answers", e.id);
            }
        }
        server.shutdown();
    }

    #[test]
    fn remote_wrapper_rejects_bad_queries_locally() {
        let (server, addr) = serve_local();
        let remote = RemoteWrapper::connect(&addr).unwrap();
        let q = parse_query("profs = SELECT Z WHERE <department> P:<professor/> </department>")
            .unwrap();
        match remote.answer(&q) {
            Err(SourceError::Query(_)) => {}
            other => panic!("expected a structured Query error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn dead_remote_is_unavailable_with_a_deterministic_message() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        match RemoteWrapper::connect(&addr) {
            Err(SourceError::Unavailable(msg)) => {
                assert_eq!(msg, format!("{addr}: connection refused"));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn killed_daemon_mid_session_is_a_transient_then_unavailable_fault() {
        let (server, addr) = serve_local();
        let remote = RemoteWrapper::connect(&addr).unwrap();
        remote.fetch().unwrap();
        server.shutdown();
        // the pooled connection dies first (transient-class transport
        // fault), then fresh dials are refused outright
        let first = remote.fetch().unwrap_err();
        assert!(first.is_source_fault(), "got {first:?}");
        match remote.fetch() {
            Err(SourceError::Unavailable(_)) => {}
            other => panic!("expected Unavailable after daemon kill, got {other:?}"),
        }
    }

    #[test]
    fn parse_memo_is_bounded_by_entries_and_bytes() {
        let small = parse_document("<a/>").unwrap();
        let mut memo = ParseMemo::new();

        // entry-count bound: the cap'th distinct insert wipes the memo
        for i in 0..PARSE_MEMO_CAP {
            assert_eq!(memo.insert(format!("<a id='k{i}'/>"), small.clone()), 0);
        }
        let evicted = memo.insert("<a id='straw'/>".into(), small.clone());
        assert_eq!(evicted, PARSE_MEMO_CAP as u64);
        assert!(memo.get("<a id='straw'/>").is_some());
        assert!(memo.get("<a id='k0'/>").is_none());

        // byte bound: a few large (but admissible) entries trip it long
        // before the entry cap
        let mut memo = ParseMemo::new();
        let big = "x".repeat(PARSE_MEMO_MAX_ENTRY_BYTES - 8);
        let fits = PARSE_MEMO_MAX_BYTES / PARSE_MEMO_MAX_ENTRY_BYTES;
        for i in 0..fits {
            assert_eq!(memo.insert(format!("{big}{i}"), small.clone()), 0, "i={i}");
        }
        assert!(memo.insert(format!("{big}{fits}"), small.clone()) > 0);
    }

    #[test]
    fn reinserting_the_same_reply_does_not_double_count_bytes() {
        // Two threads can both miss on the same reply and insert it;
        // the replacement must not inflate the byte accounting
        // (regression: the counter only drifted upward, forcing
        // premature full wipes).
        let small = parse_document("<a/>").unwrap();
        let mut memo = ParseMemo::new();
        let xml = "<a id='dup'/>".to_string();
        memo.insert(xml.clone(), small.clone());
        let once = memo.bytes;
        memo.insert(xml.clone(), small.clone());
        memo.insert(xml, small);
        assert_eq!(memo.bytes, once);
        assert_eq!(memo.map.len(), 1);
    }

    #[test]
    fn oversized_replies_bypass_the_memo() {
        let small = parse_document("<a/>").unwrap();
        let mut memo = ParseMemo::new();
        let huge = "y".repeat(PARSE_MEMO_MAX_ENTRY_BYTES + 1);
        assert_eq!(memo.insert(huge.clone(), small), 0);
        assert!(
            memo.get(&huge).is_none(),
            "oversized reply must not be cached"
        );
        assert_eq!(memo.bytes, 0);
    }

    #[test]
    fn unnormalizable_query_is_rejected_not_guessed() {
        let s = XmlSource::new(d1_department(), doc()).unwrap();
        // SELECT over a variable no condition binds: normalization fails,
        // and `answer` must surface that instead of evaluating the raw
        // query
        let q = parse_query("profs = SELECT Z WHERE <department> P:<professor/> </department>")
            .unwrap();
        match s.answer(&q) {
            Err(SourceError::Query(_)) => {}
            other => panic!("expected Query error, got {other:?}"),
        }
    }
}
