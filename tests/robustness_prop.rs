//! Robustness properties: no parser in the workspace may panic on
//! arbitrary input or abort on deeply nested input, the exact counters
//! must agree with brute force (enumerate + accept) on random s-DTDs, and
//! the fault-tolerant source layer must be deterministic, panic-free, and
//! lossless for surviving union members.

use mix::dtd::enumerate::enumerate_documents;
use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
use mix::dtd::sdtd::SAcceptor;
use mix::net::{WireFault, WireService};
use mix::prelude::*;
use mix::relang::MAX_NESTING_DEPTH;
use mix::stream::StreamError;
use proptest::prelude::*;
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Nesting depths every parser property also runs: the shared cap, one
/// level past it, and far past it. Each property runs on a test thread
/// (2 MiB of stack), where a recursive parser aborts long before 50 000.
fn depths() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![MAX_NESTING_DEPTH, MAX_NESTING_DEPTH + 1, 50_000])
}

/// Checks a parse of input nested `depth` deep: it succeeds exactly up to
/// the cap and fails with the nesting error beyond it.
fn capped<T, E: std::fmt::Display>(depth: usize, parsed: Result<T, E>) -> Option<T> {
    match parsed {
        Ok(v) => {
            assert!(depth <= MAX_NESTING_DEPTH, "accepted nesting {depth} deep");
            Some(v)
        }
        Err(e) => {
            assert!(
                depth > MAX_NESTING_DEPTH,
                "rejected nesting {depth} deep: {e}"
            );
            assert!(e.to_string().contains("nested deeper"), "{e}");
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The regex parser returns Ok or Err — never panics, and successful
    /// parses display+reparse to the same AST.
    #[test]
    fn regex_parser_total(input in "\\PC{0,60}", depth in depths()) {
        // `depth` parentheses, alternating `|` and `,` so the AST nests too
        let deep = (0..depth)
            .map(|i| if i % 2 == 0 { "(a | " } else { "(b, " })
            .collect::<String>()
            + "c"
            + &")".repeat(depth);
        for input in [input.as_str(), deep.as_str()] {
            if let Ok(r) = parse_regex(input) {
                let shown = r.to_string();
                let again = parse_regex(&shown)
                    .unwrap_or_else(|e| panic!("display of {input:?} unparseable: {e}"));
                prop_assert_eq!(r, again);
            }
        }
        capped(depth, parse_regex(&deep));
    }

    /// Same for the XML parser. At the cap a document also validates,
    /// evaluates (in memory and streamed), serializes, clones and drops;
    /// past it every XML entry point returns a typed error.
    #[test]
    fn xml_parser_total(input in "\\PC{0,120}", depth in depths()) {
        let _ = parse_document(&input);
        // `depth` elements: a chain of `a` around a `b` holding the input
        let text = format!("t{input}");
        let deep = format!(
            "{}<b>{}</b>{}",
            "<a>".repeat(depth - 1),
            mix::xml::escape(&text),
            "</a>".repeat(depth - 1)
        );
        let dtd = parse_compact("{<a : a | b> <b : PCDATA>}").unwrap();
        let q = parse_query("v = SELECT X WHERE <a> X:<a | b/> </a>").unwrap();
        let cq = CompiledQuery::compile(&q, None).unwrap();
        let bytes = deep.clone().into_bytes();
        let streaming = StreamingWrapper::new(
            dtd.clone(),
            Box::new(move || {
                Ok(Box::new(std::io::Cursor::new(bytes.clone())) as Box<dyn Read + Send>)
            }),
        );
        let cfg = WriteConfig::default();
        match capped(depth, parse_document(&deep)) {
            Some(doc) => {
                prop_assert_eq!(doc.root.depth(), depth);
                let leaf = doc.root.walk().last().unwrap();
                prop_assert_eq!(leaf.pcdata(), Some(text.as_str()));
                validate_document(&dtd, &doc).unwrap();
                let answer = evaluate(&q, &doc);
                let (streamed, _) = stream_answer(deep.as_bytes(), &cq).unwrap();
                prop_assert_eq!(write_document(&answer, cfg), write_document(&streamed, cfg));
                let copy = doc.clone();
                let fetched = streaming.fetch().unwrap();
                prop_assert_eq!(write_document(&copy, cfg), write_document(&fetched, cfg));
                drop((doc, copy, fetched, answer, streamed));
            }
            None => {
                prop_assert!(matches!(
                    stream_answer(deep.as_bytes(), &cq),
                    Err(StreamError::Parse(_))
                ));
                prop_assert!(matches!(streaming.fetch(), Err(SourceError::MalformedXml(_))));
            }
        }
    }

    /// And for structured-ish XML-like inputs built from tag fragments.
    #[test]
    fn xml_parser_total_on_taglike(parts in prop::collection::vec(
        prop::sample::select(vec![
            "<a>", "</a>", "<b/>", "<a id=\"x\">", "text", "&amp;", "<", ">", "</",
            "<!--", "-->", "<?xml?>", "\"", "id=", " ",
        ]),
        0..24,
    )) {
        let input: String = parts.concat();
        if let Ok(doc) = parse_document(&input) {
            // anything accepted must re-serialize and re-parse
            let text = write_document(&doc, WriteConfig::default());
            prop_assert!(parse_document(&text).is_ok(), "reserialization broke: {text}");
        }
    }

    /// The query parser is total too.
    #[test]
    fn query_parser_total(input in "\\PC{0,120}", depth in depths()) {
        // `depth` conditions: a chain of `a` around the picked `b`
        let deep = format!(
            "v = SELECT X WHERE {}X:<b/>{}",
            "<a>".repeat(depth - 1),
            "</>".repeat(depth - 1)
        );
        for input in [input.as_str(), deep.as_str()] {
            if let Ok(q) = parse_query(input) {
                let shown = q.to_string();
                prop_assert!(parse_query(&shown).is_ok(), "display unparseable:\n{shown}");
            }
        }
        if let Some(q) = capped(depth, parse_query(&deep)) {
            prop_assert_eq!(q.pick_path().unwrap().len(), depth);
        }
    }

    /// DTD parsers (both syntaxes) are total.
    #[test]
    fn dtd_parsers_total(input in "\\PC{0,120}", depth in depths()) {
        let _ = parse_compact(&input);
        let _ = parse_compact_sdtd(&input);
        let _ = parse_xml_dtd(&input);
        let model = format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        capped(depth, parse_compact(&format!("{{<r : {model}>}}")));
        capped(depth, parse_compact_sdtd(&format!("{{<r : {model}>}}")));
        capped(depth, parse_xml_dtd(&format!("<!ELEMENT r {model}>")));
    }

    /// A seeded fault schedule replays identically: two injectors built
    /// from the same (seed, rate) over the same source produce the same
    /// outcome sequence, call for call.
    #[test]
    fn fault_schedule_replays_identically(seed in 0u64..100_000, pct in 0u64..=100) {
        let rate = pct as f64 / 100.0;
        let make = || {
            let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
            let doc = parse_document("<r><a>1</a></r>").unwrap();
            FaultInjector::seeded(
                Arc::new(XmlSource::new(dtd, doc).unwrap()),
                seed,
                rate,
            )
        };
        let (a, b) = (make(), make());
        for call in 0..64u64 {
            let (ra, rb) = (a.fetch(), b.fetch());
            let sig = |r: &Result<Document, SourceError>| match r {
                Ok(d) => format!("ok:{}", d.root.children().len()),
                Err(e) => format!("err:{}", e.kind()),
            };
            prop_assert_eq!(sig(&ra), sig(&rb), "diverged at call {}", call);
        }
    }

    /// The mediator never panics while materializing a union view over
    /// generated DTD/document pairs under an arbitrary seeded fault
    /// schedule — every outcome is an `Ok` partial answer or a clean
    /// error.
    #[test]
    fn mediator_never_panics_under_faults(
        dtd_seed in 0u64..500,
        fault_seed in 0u64..100_000,
        pct in 0u64..=100,
    ) {
        use mix::xmas::gen::{random_query, QueryGenConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dtd = seeded_dtd(
            dtd_seed,
            &DtdGenConfig { names: 5, regex_depth: 2, ..DtdGenConfig::default() },
        );
        let docs = mix::dtd::sample::sample_documents(&dtd, 3, dtd_seed, Default::default());
        let mut rng = StdRng::seed_from_u64(dtd_seed);
        let q = random_query(&dtd, &mut rng, &QueryGenConfig::default());
        let mut m = Mediator::new();
        let names = ["s0", "s1", "s2"];
        for (i, doc) in docs.into_iter().enumerate() {
            let src = Arc::new(XmlSource::new(dtd.clone(), doc).unwrap());
            let inj = FaultInjector::seeded(
                src,
                fault_seed.wrapping_add(i as u64),
                pct as f64 / 100.0,
            );
            m.add_source(names[i], Arc::new(inj));
        }
        let parts: Vec<(&str, Query)> =
            names.iter().map(|s| (*s, q.clone())).collect();
        if m.register_union_view("u", &parts).is_ok() {
            // two rounds: the second exercises breakers tripped and
            // snapshots captured by the first
            for _ in 0..2 {
                match m.materialize_with_report(name("u")) {
                    Ok((_, report)) => prop_assert_eq!(report.outcomes.len(), 3),
                    Err(MediatorError::AllSourcesFailed(_)) => {}
                    Err(e) => prop_assert!(false, "unexpected error class: {}", e),
                }
            }
        }
    }

    /// With k < N sources hard-down, the union answer still contains
    /// *every* member the surviving sources contribute, in registration
    /// order — degradation loses exactly the failed members, nothing
    /// else.
    #[test]
    fn union_survivors_are_lossless(mask in 0u32..32) {
        const N: usize = 5;
        let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
        let q = parse_query("u = SELECT X WHERE <r> X:<a/> </r>").unwrap();
        let mut m = Mediator::new();
        let names: Vec<String> = (0..N).map(|i| format!("site{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            let doc = parse_document(&format!(
                "<r><a>m{i}.0</a><a>m{i}.1</a></r>"
            ))
            .unwrap();
            let src: Arc<dyn Wrapper> =
                Arc::new(XmlSource::new(dtd.clone(), doc).unwrap());
            // masked sites are hard-down: every call is an outage
            let plan = if mask & (1 << i) != 0 {
                FaultPlan::Script(vec![Some(Fault::Unavailable); 64])
            } else {
                FaultPlan::None
            };
            m.add_source(n, Arc::new(FaultInjector::new(src, plan)));
        }
        let parts: Vec<(&str, Query)> =
            names.iter().map(|n| (n.as_str(), q.clone())).collect();
        m.register_union_view("u", &parts).unwrap();
        let expected: Vec<String> = (0..N)
            .filter(|i| mask & (1 << i) == 0)
            .flat_map(|i| vec![format!("m{i}.0"), format!("m{i}.1")])
            .collect();
        match m.materialize_with_report(name("u")) {
            Ok((doc, report)) => {
                let got: Vec<String> = doc
                    .root
                    .children()
                    .iter()
                    .map(|c| c.pcdata().unwrap_or("").to_owned())
                    .collect();
                prop_assert_eq!(got, expected);
                let failed: Vec<String> = (0..N)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| format!("site{i}"))
                    .collect();
                let reported: Vec<String> = report
                    .failed_sources()
                    .iter()
                    .map(|s| (*s).to_owned())
                    .collect();
                prop_assert_eq!(reported, failed);
            }
            Err(MediatorError::AllSourcesFailed(_)) => {
                prop_assert_eq!(mask, 31, "only the all-down mask may hard-fail");
            }
            Err(e) => prop_assert!(false, "unexpected error: {}", e),
        }
    }
}

/// A daemon double whose every reply nests 50 000 elements deep.
struct DeepReplies;

impl WireService for DeepReplies {
    fn export_dtd(&self) -> String {
        "{<r : a*> <a : PCDATA>}".to_owned()
    }

    fn answer(&self, _: Option<&str>) -> Result<String, WireFault> {
        Ok(format!(
            "<r>{}{}</r>",
            "<a>".repeat(50_000),
            "</a>".repeat(50_000)
        ))
    }
}

/// A remote union member replying with a 50 000-deep document fails as
/// malformed XML on its fetch thread, and the union is served degraded
/// from the other member.
#[test]
fn deeply_nested_remote_reply_degrades_the_union() {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(DeepReplies),
        ServerConfig::default(),
    )
    .unwrap()
    .spawn()
    .unwrap();
    let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
    let q = parse_query("u = SELECT X WHERE <r> X:<a/> </r>").unwrap();
    let good = parse_document("<r><a>kept</a></r>").unwrap();
    let mut m = Mediator::new();
    m.add_source("good", Arc::new(XmlSource::new(dtd, good).unwrap()));
    let remote = RemoteWrapper::connect(&server.addr().to_string()).unwrap();
    m.add_source("deep", Arc::new(remote));
    m.register_union_view("u", &[("good", q.clone()), ("deep", q)])
        .unwrap();
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    let kept: Vec<_> = doc.root.children().iter().map(|c| c.pcdata()).collect();
    assert_eq!(kept, [Some("kept")]);
    assert_eq!(report.failed_sources(), ["deep"]);
    assert!(
        matches!(report.outcomes[1].error, Some(SourceError::MalformedXml(_))),
        "{report}"
    );
    server.shutdown();
}

/// A department whose professors have at most 2 publications each, so
/// evaluating a pattern with many `<publication/>` siblings stays cheap
/// and the test measures the prune, not the evaluator.
fn small_department() -> Document {
    let professor = |i: usize, pubs: usize| {
        let publications: String = (0..pubs)
            .map(|p| format!("<publication><title>t{i}.{p}</title><author>a</author><journal/></publication>"))
            .collect();
        format!("<professor><firstName>f{i}</firstName><lastName>l{i}</lastName>{publications}<teaches/></professor>")
    };
    parse_document(&format!(
        "<department><name>CS</name>{}{}\
         <gradStudent><firstName>g</firstName><lastName>s</lastName>\
           <publication><title>g</title><author>a</author><conference/></publication>\
         </gradStudent></department>",
        professor(0, 1),
        professor(1, 2),
    ))
    .unwrap()
}

/// An [`XmlSource`] that counts its fetches, so a test can prove a
/// pruned query never touched the source.
struct CountingSource {
    inner: XmlSource,
    fetches: Arc<AtomicUsize>,
}

impl Wrapper for CountingSource {
    fn dtd(&self) -> &Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        self.inner.fetch()
    }
}

/// A mediator over two counting copies of one source, `cs` and `ee`,
/// with the single view `view` over `cs` and the union view `union`
/// over both, each defined by `view` (whose name is replaced); and the
/// fetch counter both sources share.
fn counted_views(dtd: &Dtd, doc: &Document, view: &str) -> (Arc<Mediator>, Arc<AtomicUsize>) {
    let fetches = Arc::new(AtomicUsize::new(0));
    let mut m = Mediator::new();
    for site in ["cs", "ee"] {
        let source = CountingSource {
            inner: XmlSource::new(dtd.clone(), doc.clone()).unwrap(),
            fetches: Arc::clone(&fetches),
        };
        m.add_source(site, Arc::new(source));
    }
    m.register_view("cs", &parse_query(&format!("view = {view}")).unwrap())
        .unwrap();
    let member = parse_query(&format!("union = {view}")).unwrap();
    m.register_union_view("union", &[("cs", member.clone()), ("ee", member)])
        .unwrap();
    (Arc::new(m), fetches)
}

/// Asks `q` on a helper thread and fails if no answer arrives within
/// 10 s.
fn answer_within_10s(m: &Arc<Mediator>, q: &str) -> Answer {
    let q = parse_query(q).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let mediator = Arc::clone(m);
    let worker = std::thread::spawn(move || {
        let _ = tx.send(mediator.query(&q));
    });
    // on a timeout the worker is left running: a thread cannot be
    // stopped, and the test fails either way
    let sent = rx.recv_timeout(std::time::Duration::from_secs(10));
    assert!(
        !matches!(sent, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "no answer within 10 s"
    );
    worker.join().expect("the query thread panicked");
    sent.expect("the worker sent its answer").unwrap()
}

/// 64 identical sibling conditions under `X:<professor>` are decided
/// promptly by the view-level emptiness prune, for a single view and for
/// a union view: 64 `<publication/>` siblings fit `publication+` and the
/// query is answered (empty: no professor has that many), and 64
/// `<teaches/>` siblings cannot fit the one `teaches`, so the query is
/// pruned without a fetch.
#[test]
fn many_identical_sibling_conditions_are_decided_promptly() {
    let d1 = mix::dtd::paper::d1_department();
    let (m, fetches) = counted_views(
        &d1,
        &small_department(),
        "SELECT X WHERE <department> X:<professor/> </>",
    );
    for view in ["view", "union"] {
        let pubs = "<publication/> ".repeat(64);
        let q = format!("ans = SELECT X WHERE <{view}> X:<professor> {pubs}</professor> </{view}>");
        let answer = answer_within_10s(&m, &q);
        assert_ne!(answer.path, AnswerPath::PrunedUnsatisfiable, "<{view}>");
        assert!(
            answer.document.root.children().is_empty(),
            "<{view}>: {:?}",
            answer.document
        );

        let before = fetches.load(Ordering::SeqCst);
        let teaches = "<teaches/> ".repeat(64);
        let q =
            format!("ans = SELECT X WHERE <{view}> X:<professor> {teaches}</professor> </{view}>");
        let answer = answer_within_10s(&m, &q);
        assert_eq!(answer.path, AnswerPath::PrunedUnsatisfiable, "<{view}>");
        assert_eq!(fetches.load(Ordering::SeqCst), before, "<{view}> fetched");
    }
}

/// A content model of 20 alternatives, `(a1 | b1), …, (a20 | b20)`, has
/// 2^20 incomparable name-count vectors; queries over it are decided
/// promptly at the view level. Asking for all 40 names is pruned without
/// a fetch (a document holds one name of each pair); two wildcard
/// siblings fit and are answered.
#[test]
fn wide_alternation_conditions_are_decided_promptly() {
    let pairs: Vec<String> = (1..=20).map(|i| format!("(a{i} | b{i})")).collect();
    let empties: String = (1..=20)
        .map(|i| format!("<a{i} : EMPTY> <b{i} : EMPTY> "))
        .collect();
    let dtd = parse_compact(&format!("{{<r : {}> {empties}}}", pairs.join(", "))).unwrap();
    let children: String = (1..=20).map(|i| format!("<a{i}/>")).collect();
    let doc = parse_document(&format!("<r>{children}</r>")).unwrap();
    let (m, fetches) = counted_views(&dtd, &doc, "SELECT X WHERE X:<r/>");
    let every: String = (1..=20).map(|i| format!("<a{i}/> <b{i}/> ")).collect();
    for view in ["view", "union"] {
        let before = fetches.load(Ordering::SeqCst);
        let q = format!("ans = SELECT X WHERE <{view}> X:<r> {every}</r> </{view}>");
        let answer = answer_within_10s(&m, &q);
        assert_eq!(answer.path, AnswerPath::PrunedUnsatisfiable, "<{view}>");
        assert_eq!(fetches.load(Ordering::SeqCst), before, "<{view}> fetched");

        let q = format!("ans = SELECT X WHERE <{view}> X:<r> <*/> <*/> </r> </{view}>");
        let answer = answer_within_10s(&m, &q);
        assert_ne!(answer.path, AnswerPath::PrunedUnsatisfiable, "<{view}>");
        assert!(
            !answer.document.root.children().is_empty(),
            "<{view}>: {:?}",
            answer.document
        );
    }
}

/// A client's query is never inferred: its composed form here has six
/// sibling conditions under `n0`, on which Figure 2's `tighten` runs for
/// minutes, yet it is answered on the composed path within 10 s and the
/// inference cache sees no lookup miss (DESIGN.md §7).
#[test]
fn composed_client_queries_are_answered_without_inference() {
    let dtd =
        parse_compact("{<n0 : (n7* | n6? | n1?)*> <n1 : PCDATA> <n6 : PCDATA> <n7 : PCDATA>}")
            .unwrap();
    let doc = parse_document(
        "<n0><n6>a</n6><n1>b</n1><n7>c</n7><n6>d</n6><n1>e</n1><n7>f</n7><n7>g</n7></n0>",
    )
    .unwrap();
    let mut m = Mediator::new();
    m.add_source("s", Arc::new(XmlSource::new(dtd, doc).unwrap()));
    m.register_view(
        "s",
        &parse_query("vw = SELECT P WHERE P:<n0> <n6/> <n6/> </>").unwrap(),
    )
    .unwrap();
    let m = Arc::new(m);
    let misses = || m.registry().snapshot().counters["inference_cache_misses_total"];
    let before = misses();
    let answer = answer_within_10s(
        &m,
        "ans = SELECT U WHERE <vw> <n0> <n1/> <n1/> <n7/> U:<n7/> </n0> </vw>",
    );
    assert_eq!(answer.path, AnswerPath::Composed);
    assert_eq!(
        answer.document.root.children().len(),
        3,
        "every n7 is picked"
    );
    assert_eq!(misses(), before, "a client query was inferred");
}

/// Evaluates `q` over `doc` and fails if it takes a second or more.
fn evaluate_within_1s(q: &str, doc: &Document) -> Document {
    let q = parse_query(q).unwrap();
    let start = std::time::Instant::now();
    let answer = evaluate(&q, doc);
    let took = start.elapsed();
    assert!(took < std::time::Duration::from_secs(1), "{took:?}: {q}");
    answer
}

/// Identical sibling conditions are matched to distinct children, not
/// enumerated: 8 `<a/>` conditions over 14 `<a>` children (26.5 s when
/// every assignment was listed) and 64 over 64 are evaluated within 1 s.
/// Over loopback daemons, through a single view and a union view, the
/// composed query with 8 or 64 `<publication/>` siblings is evaluated at
/// each daemon for a professor with 14 publications within 10 s.
#[test]
fn identical_sibling_conditions_are_evaluated_promptly() {
    for (conds, children) in [(8, 14), (64, 64)] {
        let doc = parse_document(&format!("<r>{}</r>", "<a/>".repeat(children))).unwrap();
        let siblings = "<a/> ".repeat(conds);
        let answer = evaluate_within_1s(&format!("v = SELECT X WHERE X:<r> {siblings}</r>"), &doc);
        assert_eq!(answer.root.children().len(), 1, "{conds} over {children}");
        let siblings = "<a/> ".repeat(conds - 1);
        let q = format!("v = SELECT X WHERE <r> X:<a/> {siblings}</r>");
        let answer = evaluate_within_1s(&q, &doc);
        assert_eq!(
            answer.root.children().len(),
            children,
            "{conds} over {children}"
        );
    }

    let d1 = mix::dtd::paper::d1_department();
    let publications: String = (0..14)
        .map(|p| {
            format!("<publication><title>t{p}</title><author>a</author><journal/></publication>")
        })
        .collect();
    let doc = parse_document(&format!(
        "<department><name>CS</name>\
           <professor><firstName>f</firstName><lastName>l</lastName>{publications}<teaches/></professor>\
           <professor><firstName>g</firstName><lastName>m</lastName>\
             <publication><title>u</title><author>a</author><journal/></publication><teaches/>\
           </professor>\
           <gradStudent><firstName>s</firstName><lastName>n</lastName>\
             <publication><title>v</title><author>a</author><conference/></publication>\
           </gradStudent>\
         </department>"
    ))
    .unwrap();
    let daemons: Vec<_> = ["cs", "ee"]
        .iter()
        .map(|_| {
            let source = XmlSource::new(d1.clone(), doc.clone()).unwrap();
            Server::bind(
                "127.0.0.1:0",
                Arc::new(WrapperService::new(source)),
                ServerConfig::default(),
            )
            .unwrap()
            .spawn()
            .unwrap()
        })
        .collect();
    let mut m = Mediator::new();
    for (site, daemon) in ["cs", "ee"].iter().zip(&daemons) {
        let remote = RemoteWrapper::connect(&daemon.addr().to_string()).unwrap();
        m.add_source(site, Arc::new(remote));
    }
    let view = "SELECT X WHERE <department> X:<professor/> </>";
    m.register_view("cs", &parse_query(&format!("view = {view}")).unwrap())
        .unwrap();
    let member = parse_query(&format!("union = {view}")).unwrap();
    m.register_union_view("union", &[("cs", member.clone()), ("ee", member)])
        .unwrap();
    let m = Arc::new(m);
    for (view, copies) in [("view", 1), ("union", 2)] {
        for (siblings, picked) in [(8, copies), (64, 0)] {
            let pubs = "<publication/> ".repeat(siblings);
            let q =
                format!("ans = SELECT X WHERE <{view}> X:<professor> {pubs}</professor> </{view}>");
            let answer = answer_within_10s(&m, &q);
            assert_eq!(answer.path, AnswerPath::Composed, "<{view}> {siblings}");
            assert_eq!(
                answer.document.root.children().len(),
                picked,
                "<{view}> {siblings}"
            );
        }
    }
    for daemon in daemons {
        daemon.shutdown();
    }
}

/// The subset-construction s-DTD counter agrees with brute force:
/// enumerate every document of the *merged* DTD and count how many the
/// s-DTD accepts.
#[test]
fn sdtd_counting_agrees_with_enumeration() {
    use mix::xmas::gen::{random_query, QueryGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut checked = 0;
    for seed in 0..40u64 {
        let source = seeded_dtd(
            seed,
            &DtdGenConfig {
                names: 6,
                regex_depth: 2,
                ..DtdGenConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(&source, &mut rng, &QueryGenConfig::default());
        let iv = infer_view_dtd(&q, &source).expect("normalizes");
        let max = 7;
        // brute force: all merged-DTD documents, filtered by s-DTD acceptance
        let docs = enumerate_documents(&iv.dtd, max, 400_000);
        if docs.len() >= 400_000 {
            continue; // enumeration capped: comparison not exact
        }
        let acceptor = SAcceptor::new(&iv.sdtd);
        let brute = docs
            .iter()
            .filter(|d| acceptor.document_satisfies(d))
            .count() as u128;
        let counted: u128 = count_sdocuments_by_size(&iv.sdtd, max).iter().sum();
        assert_eq!(
            counted, brute,
            "s-DTD counting mismatch (seed {seed})\nquery:\n{q}\ns-DTD:\n{}",
            iv.sdtd
        );
        checked += 1;
    }
    assert!(checked >= 30, "too few exact comparisons ran: {checked}");
}

/// The dataguide counter agrees with brute force on guide-conforming
/// documents drawn from a DTD enumeration.
#[test]
fn dataguide_counting_agrees_with_enumeration() {
    use mix::dataguide::DataGuide;
    for seed in 0..20u64 {
        let dtd = seeded_dtd(
            seed,
            &DtdGenConfig {
                names: 5,
                regex_depth: 2,
                ..DtdGenConfig::default()
            },
        );
        let docs = mix::dtd::sample::sample_documents(&dtd, 5, seed, Default::default());
        let Some(guide) = DataGuide::of_documents(&docs) else {
            continue;
        };
        // truly independent brute force: enumerate *all* element trees of
        // size ≤ max over the guide's label alphabet (with and without
        // text leaves) and count those `describes` accepts
        let max = 4;
        let counted: u128 = guide.count_conforming_by_size(max).iter().sum();
        let alphabet: Vec<mix::relang::Name> = {
            let mut v: Vec<_> = guide.paths().into_iter().flatten().collect();
            v.sort();
            v.dedup();
            v
        };
        if alphabet.len() > 6 {
            continue; // keep the exponential brute force tiny
        }
        let mut brute = 0u128;
        for s in 1..=max {
            for t in all_trees(guide.root_name, &alphabet, s) {
                if guide.describes(&mix::xml::Document::new(t)) {
                    brute += 1;
                }
            }
        }
        assert_eq!(counted, brute, "seed {seed}\nguide:\n{guide}");
    }
}

/// All element trees with the given root name and exactly `size` nodes,
/// with inner labels drawn from `alphabet`. Leaves come in two shapes:
/// empty-element and text.
fn all_trees(
    root: mix::relang::Name,
    alphabet: &[mix::relang::Name],
    size: usize,
) -> Vec<mix::xml::Element> {
    use mix::xml::{Content, ElemId, Element};
    if size == 0 {
        return vec![];
    }
    if size == 1 {
        return vec![
            Element {
                name: root,
                id: ElemId::fresh(),
                content: Content::Elements(vec![]),
            },
            Element {
                name: root,
                id: ElemId::fresh(),
                content: Content::Text("s".to_owned()),
            },
        ];
    }
    // sequences of subtrees totalling size-1 nodes
    fn seqs(alphabet: &[mix::relang::Name], budget: usize) -> Vec<Vec<mix::xml::Element>> {
        if budget == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for &first_name in alphabet {
            for k in 1..=budget {
                for first in all_trees(first_name, alphabet, k) {
                    for rest in seqs(alphabet, budget - k) {
                        let mut v = vec![first.deep_clone_fresh()];
                        v.extend(rest);
                        out.push(v);
                    }
                }
            }
        }
        out
    }
    seqs(alphabet, size - 1)
        .into_iter()
        .map(|children| mix::xml::Element {
            name: root,
            id: mix::xml::ElemId::fresh(),
            content: mix::xml::Content::Elements(children),
        })
        .collect()
}
