//! The shipped call path, differentially. A mediator ships each client
//! query to its source through `Wrapper::answer` and checks the reply
//! against the view DTD it already holds. Over random (source DTD,
//! document, view, user query) cases, the answer through an in-process
//! `XmlSource`, through a `RemoteWrapper` to a loopback daemon and — for
//! streamable view definitions — through a `StreamingWrapper` must be
//! byte-identical to `evaluate` of the user query over the materialized
//! view, with no degradation. A wrapper that appends an undeclared
//! element to its reply is reported `DtdInvalid`.

use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
use mix::dtd::sample::DocConfig;
use mix::mediator::StreamFactory;
use mix::net::WireService;
use mix::prelude::*;
use mix::stream::CompiledQuery;
use mix::xmas::gen::{random_query, QueryGenConfig};
use mix::xmas::{Body, Condition, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

/// `v` renamed apart from the view definition's variables (`P`, `Id…`).
fn apart(v: Var) -> Var {
    Var::new(&format!("U{}", v.as_str()))
}

fn rename_apart(c: &mut Condition) {
    c.var = c.var.map(apart);
    c.id_var = c.id_var.map(apart);
    if let Body::Children(kids) = &mut c.body {
        kids.iter_mut().for_each(rename_apart);
    }
}

/// A user query over the view `view_dtd` describes: one random condition
/// rooted at a name the view's root admits, under the view's root. Only
/// this shape can compose (`compose` needs one member condition and
/// variables apart from the view's).
fn user_query(view_dtd: &Dtd, rng: &mut StdRng) -> Option<Query> {
    let members: Vec<Name> = match view_dtd.get(view_dtd.doc_type)? {
        ContentModel::Elements(r) => r.names().into_iter().collect(),
        ContentModel::Pcdata => return None,
    };
    if members.is_empty() {
        return None;
    }
    let mut rooted = view_dtd.clone();
    rooted.doc_type = members[rng.gen_range(0..members.len())];
    let cfg = QueryGenConfig {
        chaos_prob: 0.0,
        ..QueryGenConfig::default()
    };
    let member = random_query(&rooted, rng, &cfg);
    let mut root = member.root;
    rename_apart(&mut root);
    Some(Query {
        view_name: name("ans"),
        pick: apart(member.pick),
        root: Condition::elem(view_dtd.doc_type, vec![root]),
        diseqs: member
            .diseqs
            .into_iter()
            .map(|(a, b)| (apart(a), apart(b)))
            .collect(),
    })
}

/// One mediator per wrapper, sharing `cache`, with the view `vw`.
fn mediator(cache: &Arc<InferenceCache>, wrapper: Arc<dyn Wrapper>, view: &Query) -> Mediator {
    let mut m = Mediator::with_cache(ProcessorConfig::default(), Arc::clone(cache));
    m.add_source("s", wrapper);
    m.register_view("s", view).expect("the view registers");
    m
}

fn daemon(service: impl WireService + 'static) -> ServerHandle {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", Arc::new(service), config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn daemon")
}

fn streaming(dtd: &Dtd, doc: &Document) -> StreamingWrapper {
    let bytes: Arc<[u8]> = render(doc).into_bytes().into();
    let open: StreamFactory = Box::new(move || {
        Ok(Box::new(std::io::Cursor::new(Arc::clone(&bytes))) as Box<dyn std::io::Read + Send>)
    });
    StreamingWrapper::new(dtd.clone(), open)
}

#[test]
fn shipped_answers_equal_evaluate_over_the_materialized_view() {
    let (mut answered, mut composed, mut nonempty, mut streamed) = (0usize, 0, 0, 0);
    for seed in 0..160u64 {
        let source = seeded_dtd(
            seed,
            &DtdGenConfig {
                names: 6,
                ..DtdGenConfig::default()
            },
        );
        let doc_cfg = DocConfig {
            max_nodes: 40,
            ..DocConfig::default()
        };
        let doc = mix::dtd::sample_documents(&source, 1, seed, doc_cfg)
            .pop()
            .expect("one document");
        let server = daemon(WrapperService::new(
            XmlSource::new(source.clone(), doc.clone()).unwrap(),
        ));
        let remote: Arc<dyn Wrapper> =
            Arc::new(RemoteWrapper::connect(&server.addr().to_string()).expect("daemon reachable"));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let mut view = random_query(&source, &mut rng, &QueryGenConfig::default());
            view.view_name = name("vw");
            let Ok(nview) = normalize(&view, &source) else {
                continue;
            };
            let materialized = evaluate(&nview, &doc);
            let cache = Arc::new(InferenceCache::new());
            let mut mediators = vec![
                (
                    "in-process",
                    mediator(
                        &cache,
                        Arc::new(XmlSource::new(source.clone(), doc.clone()).unwrap()),
                        &view,
                    ),
                ),
                ("remote", mediator(&cache, Arc::clone(&remote), &view)),
            ];
            if CompiledQuery::compile(&nview, Some(&source)).is_ok() {
                let stream = Arc::new(streaming(&source, &doc));
                mediators.push(("streaming", mediator(&cache, stream, &view)));
            }
            let view_dtd = mediators[0].1.view_dtd(name("vw")).unwrap().clone();
            for _ in 0..4 {
                let Some(user) = user_query(&view_dtd, &mut rng) else {
                    continue;
                };
                let Ok(nuser) = normalize(&user, &view_dtd) else {
                    continue;
                };
                let expected = evaluate(&nuser, &materialized);
                nonempty += usize::from(!expected.root.children().is_empty());
                let expected = render(&expected);
                answered += 1;
                streamed += usize::from(mediators.len() == 3);
                for (kind, m) in &mediators {
                    let answer = m.query(&user).unwrap_or_else(|e| {
                        panic!("seed {seed}, {kind}: {e}\nview:\n{view}\nuser:\n{user}")
                    });
                    assert_eq!(
                        render(&answer.document),
                        expected,
                        "seed {seed}, {kind} ({:?})\nview:\n{view}\nuser:\n{user}",
                        answer.path
                    );
                    assert!(
                        answer.degradation.as_ref().is_none_or(|r| r.is_clean()),
                        "seed {seed}, {kind}: degraded"
                    );
                    if *kind == "in-process" && answer.path == AnswerPath::Composed {
                        composed += 1;
                    }
                }
            }
        }
        server.shutdown();
    }
    eprintln!(
        "{answered} answered: {composed} composed, {nonempty} non-empty, {streamed} streamed"
    );
    assert!(answered >= 1000, "only {answered} cases answered");
    assert!(
        composed * 3 >= answered * 2,
        "only {composed} of {answered} answers composed"
    );
    assert!(
        nonempty * 4 >= answered,
        "only {nonempty} answers non-empty"
    );
    assert!(streamed * 2 >= answered, "only {streamed} answers streamed");
}

/// Appends an undeclared `corrupted` element to every reply.
fn corrupting(source: XmlSource) -> FaultInjector {
    FaultInjector::new(
        Arc::new(source),
        FaultPlan::Script(vec![Some(Fault::DtdViolate); 64]),
    )
}

#[test]
fn a_reply_with_an_undeclared_element_is_dtd_invalid() {
    let source = || {
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>G</firstName><lastName>S</lastName>\
                 <publication><title>u</title><author>a</author><journal/></publication>\
               </gradStudent></department>",
        )
        .unwrap();
        XmlSource::new(mix::dtd::paper::d1_department(), doc).unwrap()
    };
    let view =
        parse_query("vw = SELECT P WHERE <department> P:<professor/> </department>").unwrap();
    let user = parse_query("ans = SELECT X WHERE <vw> X:<professor> <teaches/> </professor> </vw>")
        .unwrap();
    let dtd_invalid = |m: &Mediator, path: AnswerPath| match m.query(&user) {
        Err(MediatorError::Source {
            error: SourceError::DtdInvalid(msg),
            ..
        }) => assert!(msg.contains("corrupted"), "{path:?}: {msg}"),
        Err(e) => panic!("{path:?}: expected DtdInvalid, got {e}"),
        Ok(a) => panic!(
            "{path:?}: a corrupted reply was served: {}",
            render(&a.document)
        ),
    };
    let cache = Arc::new(InferenceCache::new());
    // the composed path, in process and over the wire
    dtd_invalid(
        &mediator(&cache, Arc::new(corrupting(source())), &view),
        AnswerPath::Composed,
    );
    let server = daemon(WrapperService::new(corrupting(source())));
    let remote = RemoteWrapper::connect(&server.addr().to_string()).expect("daemon reachable");
    dtd_invalid(
        &mediator(&cache, Arc::new(remote), &view),
        AnswerPath::Composed,
    );
    server.shutdown();
    // the materialized path checks the whole view document
    let mut m = Mediator::with_cache(
        ProcessorConfig {
            use_composition: false,
            ..ProcessorConfig::default()
        },
        cache,
    );
    m.add_source("s", Arc::new(corrupting(source())));
    m.register_view("s", &view).unwrap();
    dtd_invalid(&m, AnswerPath::Materialized);
}
