//! The shipped call path, differentially. A mediator ships each client
//! query to its source through `Wrapper::answer` and checks the reply
//! against the view DTD it already holds. Over random (source DTD,
//! document, view, user query) cases, the answer through an in-process
//! `XmlSource`, through a `RemoteWrapper` to a loopback daemon and — for
//! streamable view definitions — through a `StreamingWrapper` must be
//! byte-identical to `evaluate` of the user query over the materialized
//! view, with no degradation. User queries that reuse the view's
//! variable names compose too. The same holds for random union views,
//! answered member by member (members proven empty are not called), for
//! a view stacked over a union view through a `ViewWrapper`, and for a
//! mediator restarted warm on its store. Each fallback of the composed
//! union path is answered by materialization with the same bytes. A
//! wrapper that appends an undeclared element to its reply is reported
//! `DtdInvalid`.

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
/// this shape can compose (`compose` needs one member condition). With
/// `collide` the condition keeps the generator's variable names (`P`,
/// `Id…`), which the view definitions use too, so composition has to
/// rename them apart; otherwise they are renamed apart here.
fn user_query(view_dtd: &Dtd, rng: &mut StdRng, collide: bool) -> Option<Query> {
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
    let rename = |v: Var| if collide { v } else { apart(v) };
    let mut root = member.root;
    if !collide {
        rename_apart(&mut root);
    }
    Some(Query {
        view_name: name("ans"),
        pick: rename(member.pick),
        root: Condition::elem(view_dtd.doc_type, vec![root]),
        diseqs: member
            .diseqs
            .into_iter()
            .map(|(a, b)| (rename(a), rename(b)))
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
    let (mut collided, mut collided_composed) = (0usize, 0usize);
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
            for k in 0..4 {
                let collide = k % 2 == 1;
                let Some(user) = user_query(&view_dtd, &mut rng, collide) else {
                    continue;
                };
                let Ok(nuser) = normalize(&user, &view_dtd) else {
                    continue;
                };
                let expected = evaluate(&nuser, &materialized);
                nonempty += usize::from(!expected.root.children().is_empty());
                let expected = render(&expected);
                answered += 1;
                collided += usize::from(collide);
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
                        collided_composed += usize::from(collide);
                    }
                }
            }
        }
        server.shutdown();
    }
    eprintln!(
        "{answered} answered: {composed} composed ({collided_composed} of {collided} \
         with colliding variables), {nonempty} non-empty, {streamed} streamed"
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
    assert!(
        collided_composed * 3 >= collided * 2,
        "only {collided_composed} of {collided} colliding answers composed"
    );
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
    let dtd_invalid = |got: Result<Document, MediatorError>, path: AnswerPath| match got {
        Err(MediatorError::Source {
            error: SourceError::DtdInvalid(msg),
            ..
        }) => assert!(msg.contains("corrupted"), "{path:?}: {msg}"),
        Err(e) => panic!("{path:?}: expected DtdInvalid, got {e}"),
        Ok(doc) => panic!("{path:?}: a corrupted reply was served: {}", render(&doc)),
    };
    let query = |m: Mediator| m.query(&user).map(|a| a.document);
    let cache = Arc::new(InferenceCache::new());
    // the composed path, in process and over the wire
    dtd_invalid(
        query(mediator(&cache, Arc::new(corrupting(source())), &view)),
        AnswerPath::Composed,
    );
    let server = daemon(WrapperService::new(corrupting(source())));
    let remote = RemoteWrapper::connect(&server.addr().to_string()).expect("daemon reachable");
    dtd_invalid(
        query(mediator(&cache, Arc::new(remote), &view)),
        AnswerPath::Composed,
    );
    server.shutdown();
    // the materialized path checks the whole view document
    let m = mediator(&cache, Arc::new(corrupting(source())), &view);
    dtd_invalid(m.materialize(name("vw")), AnswerPath::Materialized);
}

// ---------------------------------------------------------------------------
// Union views: each member is shipped the query composed with its own
// definition, and the replies are concatenated in union order.
// ---------------------------------------------------------------------------

/// One union member: its source DTD, its document and its definition.
type Member = (Dtd, Document, Query);

/// `n` random members over seeded DTDs, or `None` when a definition does
/// not normalize.
fn random_members(seed: u64, n: usize, rng: &mut StdRng) -> Option<Vec<Member>> {
    (0..n as u64)
        .map(|i| {
            let dtd = seeded_dtd(
                seed * 8 + i,
                &DtdGenConfig {
                    names: 6,
                    ..DtdGenConfig::default()
                },
            );
            let doc_cfg = DocConfig {
                max_nodes: 40,
                ..DocConfig::default()
            };
            let doc = mix::dtd::sample_documents(&dtd, 1, seed * 8 + i, doc_cfg)
                .pop()
                .expect("one document");
            let mut def = random_query(&dtd, rng, &QueryGenConfig::default());
            def.view_name = name(&format!("m{i}"));
            normalize(&def, &dtd).ok()?;
            Some((dtd, doc, def))
        })
        .collect()
}

/// The union `un` of `members` materialized without a mediator: each
/// definition evaluated over its document, the members concatenated.
fn materialized_union(members: &[Member]) -> Document {
    let mut kids = Vec::new();
    for (dtd, doc, def) in members {
        let answer = evaluate(&normalize(def, dtd).expect("checked"), doc);
        kids.extend(answer.root.children().iter().cloned());
    }
    Document::new(Element::new("un", kids))
}

/// A mediator with the union view `un` over one wrapper per member.
fn union_mediator(wrappers: Vec<Arc<dyn Wrapper>>, members: &[Member]) -> Mediator {
    let mut m = Mediator::new();
    let labels: Vec<String> = (0..members.len()).map(|i| format!("s{i}")).collect();
    for (label, wrapper) in labels.iter().zip(wrappers) {
        m.add_source(label, wrapper);
    }
    let parts: Vec<(&str, Query)> = labels
        .iter()
        .zip(members)
        .map(|(label, (_, _, def))| (label.as_str(), def.clone()))
        .collect();
    m.register_union_view("un", &parts)
        .expect("the union registers");
    m
}

/// The union over in-process sources, and over one loopback daemon per
/// member (whose handles are returned for shutdown).
fn union_mediators(members: &[Member]) -> (Mediator, Mediator, Vec<ServerHandle>) {
    let source = |(dtd, doc, _): &Member| XmlSource::new(dtd.clone(), doc.clone()).unwrap();
    let in_process = union_mediator(
        members
            .iter()
            .map(|m| Arc::new(source(m)) as Arc<dyn Wrapper>)
            .collect(),
        members,
    );
    let servers: Vec<ServerHandle> = members
        .iter()
        .map(|m| daemon(WrapperService::new(source(m))))
        .collect();
    let remote = union_mediator(
        servers
            .iter()
            .map(|s| {
                Arc::new(RemoteWrapper::connect(&s.addr().to_string()).expect("daemon reachable"))
                    as Arc<dyn Wrapper>
            })
            .collect(),
        members,
    );
    (in_process, remote, servers)
}

/// Answers `user` on every mediator and checks the bytes against
/// `expected` and the report for degradation; returns the path taken.
fn answer_all(
    mediators: &[(&str, &Mediator)],
    user: &Query,
    expected: &str,
    case: &str,
) -> AnswerPath {
    let paths: Vec<AnswerPath> = mediators
        .iter()
        .map(|(kind, m)| {
            let answer = m
                .query(user)
                .unwrap_or_else(|e| panic!("{case}, {kind}: {e}\nuser:\n{user}"));
            assert_eq!(
                render(&answer.document),
                expected,
                "{case}, {kind} ({:?})\nuser:\n{user}",
                answer.path
            );
            assert!(
                answer.degradation.as_ref().is_none_or(|r| r.is_clean()),
                "{case}, {kind}: degraded"
            );
            answer.path
        })
        .collect();
    assert!(
        paths.windows(2).all(|w| w[0] == w[1]),
        "{case}: the paths differ: {paths:?}"
    );
    paths[0]
}

#[test]
fn union_answers_equal_evaluate_over_the_materialized_union() {
    let (mut answered, mut composed, mut disjoint, mut unsat, mut conflicted) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(members) = random_members(seed, 2 + (seed % 2) as usize, &mut rng) else {
            continue;
        };
        let expected_union = materialized_union(&members);
        let (in_process, remote, servers) = union_mediators(&members);
        let inferred = &in_process.union_view(name("un")).unwrap().inferred;
        let view_dtd = inferred.dtd.clone();
        let conflicts = !inferred.kind_conflicts.is_empty();
        let definitions: Vec<Query> = inferred.members.iter().map(|m| m.query.clone()).collect();
        for k in 0..6 {
            let Some(user) = user_query(&view_dtd, &mut rng, k % 2 == 1) else {
                continue;
            };
            let Ok(nuser) = normalize(&user, &view_dtd) else {
                continue;
            };
            let expected = render(&evaluate(&nuser, &expected_union));
            let path = answer_all(
                &[("in-process", &in_process), ("remote", &remote)],
                &user,
                &expected,
                &format!("seed {seed}"),
            );
            answered += 1;
            // the plan `compose` gives each member: the mediator composes
            // exactly when every member composes and the union has no
            // kind conflicts
            let plans: Option<Vec<Composed>> = definitions
                .iter()
                .map(|def| compose(name("un"), def, &user))
                .collect();
            match plans.filter(|_| !conflicts) {
                Some(plans) => {
                    assert_ne!(path, AnswerPath::Materialized, "seed {seed}\n{user}");
                    if path == AnswerPath::Composed {
                        composed += 1;
                        disjoint += usize::from(plans.contains(&Composed::Empty));
                        unsat += usize::from(plans.iter().zip(&members).any(|(p, (dtd, ..))| {
                            matches!(p, Composed::Query(q) if check_sat(q, dtd).is_unsat())
                        }));
                    }
                }
                None => {
                    assert_ne!(path, AnswerPath::Composed, "seed {seed}\n{user}");
                    conflicted += usize::from(conflicts);
                }
            }
        }
        for server in servers {
            server.shutdown();
        }
    }
    eprintln!(
        "{answered} union answers: {composed} composed ({disjoint} with a disjoint member, \
         {unsat} with an Unsat member), {conflicted} over kind-conflicted unions"
    );
    assert!(answered >= 200, "only {answered} cases answered");
    let eligible = answered - conflicted;
    assert!(
        composed * 3 >= eligible * 2,
        "only {composed} of {eligible} answers without kind conflicts composed"
    );
    assert!(
        conflicted >= 10,
        "only {conflicted} kind-conflicted answers"
    );
    assert!(
        disjoint >= 10,
        "only {disjoint} answers had a disjoint member"
    );
    assert!(unsat >= 10, "only {unsat} answers had an Unsat member");
}

/// Each fallback of the composed union path — two member conditions,
/// sibling tests that overlap the member definition's, a kind-conflicted
/// union — is answered by materialization, in process and over loopback
/// daemons, with the bytes of `evaluate` over the materialized union.
#[test]
fn union_queries_that_do_not_compose_are_materialized() {
    let d1 = mix::dtd::paper::d1_department();
    let dept = |who: &str| {
        parse_document(&format!(
            "<department><name>CS</name>\
               <professor><firstName>{who}</firstName><lastName>P</lastName>\
                 <publication><title>{who}1</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <professor><firstName>{who}2</firstName><lastName>Q</lastName>\
                 <publication><title>{who}2</title><author>a</author><journal/></publication>\
                 <publication><title>{who}3</title><author>a</author><conference/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>G</firstName><lastName>S</lastName>\
                 <publication><title>{who}4</title><author>a</author><journal/></publication>\
               </gradStudent></department>"
        ))
        .unwrap()
    };
    let with_journals = parse_query(
        "m = SELECT P WHERE <department> \
           P:<professor> <publication><journal/></publication> </professor> </department>",
    )
    .unwrap();
    let departments: Vec<Member> = ["x", "y"]
        .iter()
        .map(|who| (d1.clone(), dept(who), with_journals.clone()))
        .collect();
    let pcdata_a = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
    let element_a = parse_compact("{<r : a*> <a : b*> <b : PCDATA>}").unwrap();
    let all_as = parse_query("m = SELECT X WHERE <r> X:<a/> </r>").unwrap();
    let conflicted: Vec<Member> = vec![
        (
            pcdata_a,
            parse_document("<r><a>x</a><a>y</a></r>").unwrap(),
            all_as.clone(),
        ),
        (
            element_a,
            parse_document("<r><a><b>z</b></a></r>").unwrap(),
            all_as,
        ),
    ];
    let cases = [
        (
            "two member conditions",
            &departments,
            "ans = SELECT X WHERE <un> X:<professor/> <professor/> </un>",
        ),
        (
            "overlapping sibling tests",
            &departments,
            "ans = SELECT T WHERE <un> <professor> <publication> T:<title/> </publication> \
             </professor> </un>",
        ),
        (
            "kind-conflicted union",
            &conflicted,
            "ans = SELECT X WHERE <un> X:<a/> </un>",
        ),
    ];
    for (case, members, user) in cases {
        let user = parse_query(user).unwrap();
        let (in_process, remote, servers) = union_mediators(members);
        let inferred = &in_process.union_view(name("un")).unwrap().inferred;
        assert_eq!(
            inferred.kind_conflicts.is_empty(),
            case != "kind-conflicted union",
            "{case}"
        );
        let nuser = normalize(&user, &inferred.dtd).unwrap();
        let expected = evaluate(&nuser, &materialized_union(members));
        assert!(!expected.root.children().is_empty(), "{case}: empty answer");
        let path = answer_all(
            &[("in-process", &in_process), ("remote", &remote)],
            &user,
            &render(&expected),
            case,
        );
        assert_eq!(path, AnswerPath::Materialized, "{case}");
        for server in servers {
            server.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// `!=` pairs on the variables composition merges away: the definition's
// pick variable, the member condition's ID variable, and the client's
// root variable.
// ---------------------------------------------------------------------------

/// The condition in `c`'s subtree that binds `v` as its element variable.
fn node_mut(c: &mut Condition, v: Var) -> Option<&mut Condition> {
    if c.var == Some(v) {
        return Some(c);
    }
    match &mut c.body {
        Body::Children(kids) => kids.iter_mut().find_map(|k| node_mut(k, v)),
        Body::Text(_) => None,
    }
}

/// Every element and ID variable bound in `c`'s subtree.
fn bound(c: &Condition) -> Vec<Var> {
    c.walk()
        .iter()
        .flat_map(|n| [n.var, n.id_var])
        .flatten()
        .collect()
}

/// Puts the definition's pick variable in a `!=` pair with a variable off
/// the pick node (the root's `R` when there is none), and sometimes gives
/// the pick node the ID variable `IdP`. Composition drops the pick
/// variable when the client's member condition binds its own.
fn pair_the_pick(def: &mut Query, rng: &mut StdRng) {
    let pick = def.pick;
    let on_pick = bound(def.pick_node().expect("the pick is bound"));
    let others: Vec<Var> = bound(&def.root)
        .into_iter()
        .filter(|v| !on_pick.contains(v))
        .collect();
    let other = match others.as_slice() {
        [] if def.root.var == Some(pick) => return,
        [] => *def.root.var.insert(Var::new("R")),
        vs => vs[rng.gen_range(0..vs.len())],
    };
    def.diseqs.push(if rng.gen_bool(0.5) {
        (pick, other)
    } else {
        (other, pick)
    });
    if rng.gen_bool(0.5) {
        let node = node_mut(&mut def.root, pick).expect("the pick is bound");
        node.id_var.get_or_insert(Var::new("IdP"));
    }
}

/// Sometimes gives the client's member condition the ID variable `IdP`
/// and the root the variable `R` — the names `pair_the_pick` gives the
/// definitions, so they collide too — each in a `!=` pair with another
/// variable of the query. A pair of the member's ID and element
/// variables never holds. Composition drops the member's ID variable
/// when the definition's pick node has one, and the root always.
fn pair_the_root_and_member(user: &mut Query, rng: &mut StdRng) {
    let Body::Children(kids) = &mut user.root.body else {
        return;
    };
    let member = &mut kids[0];
    if rng.gen_bool(0.5) {
        let id = *member.id_var.get_or_insert(Var::new("IdP"));
        let others: Vec<Var> = bound(member).into_iter().filter(|&v| v != id).collect();
        if !others.is_empty() {
            user.diseqs
                .push((id, others[rng.gen_range(0..others.len())]));
        }
    }
    if rng.gen_bool(0.5) {
        let others = bound(&user.root);
        let root = *user.root.var.insert(Var::new("R"));
        let other = others[rng.gen_range(0..others.len())];
        user.diseqs.push(if rng.gen_bool(0.5) {
            (root, other)
        } else {
            (other, root)
        });
    }
}

/// Does a `!=` pair of `user` or of `def` name a variable that composing
/// the two drops?
fn pairs_a_dropped_variable(def: &Query, user: &Query) -> bool {
    let named = |q: &Query, v: Option<Var>| {
        v.is_some_and(|v| q.diseqs.iter().any(|&(a, b)| a == v || b == v))
    };
    let member = &user.root.children()[0];
    let pick = def.pick_node().expect("the pick is bound");
    named(user, user.root.var)
        || (member.var.is_some() && named(def, Some(def.pick)))
        || (pick.id_var.is_some() && named(user, member.id_var))
}

/// A `!=` pair on the definition's pick variable, which the client's
/// member condition replaces, and one on the client's root variable, over
/// a union with a member proven empty and over a single view: each query
/// is composed, and answers what `evaluate` over the materialized view
/// does.
#[test]
fn pairs_on_merged_variables_compose() {
    let dtd_a = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
    let dtd_b = parse_compact("{<r : b*> <b : PCDATA>}").unwrap();
    let doc = |xml: &str| parse_document(xml).unwrap();
    let all_bs = parse_query("m = SELECT X WHERE <r> X:<b/> </r>").unwrap();
    let cases = [
        (
            "u = SELECT X WHERE <r> X:<a/> Y:<a/> </r> AND X != Y",
            "ans = SELECT Z WHERE <un> Z:<a/> </un>",
        ),
        (
            "u = SELECT X WHERE <r> X:<a/> </r>",
            "ans = SELECT X WHERE W:<un> X:<a/> </un> AND W != X",
        ),
    ];
    for (definition, user) in cases {
        let definition = parse_query(definition).unwrap();
        let user = parse_query(user).unwrap();
        let members: Vec<Member> = vec![
            (
                dtd_a.clone(),
                doc("<r><a>x</a><a>y</a></r>"),
                definition.clone(),
            ),
            (dtd_b.clone(), doc("<r><b>z</b></r>"), all_bs.clone()),
            (dtd_a.clone(), doc("<r><a>w</a></r>"), definition.clone()),
        ];
        let (in_process, remote, servers) = union_mediators(&members);
        let view_dtd = in_process.view_dtd(name("un")).unwrap().clone();
        let expected = evaluate(
            &normalize(&user, &view_dtd).unwrap(),
            &materialized_union(&members),
        );
        let expected = render(&expected);
        assert!(expected.contains('x'), "{user}: {expected}");
        let path = answer_all(
            &[("in-process", &in_process), ("remote", &remote)],
            &user,
            &expected,
            &format!("union, {user}"),
        );
        assert_eq!(path, AnswerPath::Composed, "{user}");
        for server in servers {
            server.shutdown();
        }
        // the same query over a single view `un` of the first member
        let mut single = definition.clone();
        single.view_name = name("un");
        let mut m = Mediator::new();
        m.add_source(
            "s",
            Arc::new(XmlSource::new(dtd_a.clone(), doc("<r><a>x</a><a>y</a></r>")).unwrap()),
        );
        let view_dtd = m.register_view("s", &single).unwrap().inferred.dtd.clone();
        let materialized = evaluate(
            &normalize(&single, &dtd_a).unwrap(),
            &doc("<r><a>x</a><a>y</a></r>"),
        );
        let expected = render(&evaluate(
            &normalize(&user, &view_dtd).unwrap(),
            &materialized,
        ));
        let path = answer_all(
            &[("single", &m)],
            &user,
            &expected,
            &format!("single, {user}"),
        );
        assert_eq!(path, AnswerPath::Composed, "{user}");
    }
}

/// Random unions of 1–3 members whose definitions put their pick
/// variable in a `!=` pair, queried by clients whose root and member
/// condition are in pairs too: every answer is byte-identical to
/// `evaluate` over the materialized union, and composed exactly when
/// every member composes.
#[test]
fn pairs_on_merged_variables_answer_as_materialization() {
    let (mut answered, mut composed, mut dropped, mut nonempty) = (0usize, 0usize, 0usize, 0usize);
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(mut members) = random_members(seed, 1 + (seed % 3) as usize, &mut rng) else {
            continue;
        };
        for (dtd, _, def) in &mut members {
            pair_the_pick(def, &mut rng);
            normalize(def, dtd).expect("the paired definition normalizes");
        }
        let expected_union = materialized_union(&members);
        let (in_process, remote, servers) = union_mediators(&members);
        let inferred = &in_process.union_view(name("un")).unwrap().inferred;
        let view_dtd = inferred.dtd.clone();
        let conflicts = !inferred.kind_conflicts.is_empty();
        let definitions: Vec<Query> = inferred.members.iter().map(|m| m.query.clone()).collect();
        for k in 0..6 {
            let Some(mut user) = user_query(&view_dtd, &mut rng, k % 2 == 1) else {
                continue;
            };
            pair_the_root_and_member(&mut user, &mut rng);
            let Ok(nuser) = normalize(&user, &view_dtd) else {
                continue;
            };
            let expected = evaluate(&nuser, &expected_union);
            nonempty += usize::from(!expected.root.children().is_empty());
            let path = answer_all(
                &[("in-process", &in_process), ("remote", &remote)],
                &user,
                &render(&expected),
                &format!("seed {seed}"),
            );
            answered += 1;
            let plans: Option<Vec<Composed>> = definitions
                .iter()
                .map(|def| compose(name("un"), def, &user))
                .collect();
            if plans.is_some() && !conflicts {
                assert_ne!(path, AnswerPath::Materialized, "seed {seed}\n{user}");
                if path == AnswerPath::Composed {
                    composed += 1;
                    dropped += usize::from(
                        definitions
                            .iter()
                            .any(|def| pairs_a_dropped_variable(def, &user)),
                    );
                }
            } else {
                assert_ne!(path, AnswerPath::Composed, "seed {seed}\n{user}");
            }
        }
        for server in servers {
            server.shutdown();
        }
    }
    eprintln!(
        "{answered} answers: {composed} composed ({dropped} with a pair on a dropped \
         variable), {nonempty} non-empty"
    );
    assert!(answered >= 200, "only {answered} cases answered");
    assert!(
        composed * 3 >= answered,
        "only {composed} of {answered} composed"
    );
    assert!(
        dropped >= 50,
        "only {dropped} composed answers paired a dropped variable"
    );
    assert!(
        nonempty * 5 >= answered,
        "only {nonempty} answers non-empty"
    );
}

/// A view stacked over a union view composes at both layers: the upper
/// mediator ships its composed query to a `ViewWrapper` of the lower
/// union view, whose mediator composes it with each member definition.
#[test]
fn stacked_views_over_unions_compose_at_both_layers() {
    let (mut answered, mut both) = (0usize, 0usize);
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(members) = random_members(seed, 2, &mut rng) else {
            continue;
        };
        let source = |(dtd, doc, _): &Member| {
            Arc::new(XmlSource::new(dtd.clone(), doc.clone()).unwrap()) as Arc<dyn Wrapper>
        };
        let lower = Arc::new(union_mediator(
            members.iter().map(source).collect(),
            &members,
        ));
        let inferred = &lower.union_view(name("un")).unwrap().inferred;
        if !inferred.kind_conflicts.is_empty() {
            continue;
        }
        let union_dtd = inferred.dtd.clone();
        // the upper view has the one member condition a lower
        // composition needs
        let Some(mut view) = user_query(&union_dtd, &mut rng, false) else {
            continue;
        };
        view.view_name = name("vw");
        let Ok(nview) = normalize(&view, &union_dtd) else {
            continue;
        };
        let union = materialized_union(&members);
        assert!(satisfies(&union_dtd, &union), "seed {seed}: the union DTD");
        let materialized = evaluate(&nview, &union);
        let mut upper = Mediator::new();
        upper.add_source(
            "low",
            Arc::new(ViewWrapper::new(Arc::clone(&lower), name("un")).unwrap()),
        );
        let view_dtd = upper
            .register_view("low", &view)
            .expect("the upper view registers")
            .inferred
            .dtd
            .clone();
        let lower_composed = lower.registry().counter("mediator_answers_composed_total");
        for k in 0..4 {
            let Some(user) = user_query(&view_dtd, &mut rng, k % 2 == 1) else {
                continue;
            };
            let Ok(nuser) = normalize(&user, &view_dtd) else {
                continue;
            };
            let expected = render(&evaluate(&nuser, &materialized));
            let before = lower_composed.get();
            let path = answer_all(
                &[("stacked", &upper)],
                &user,
                &expected,
                &format!("seed {seed}"),
            );
            answered += 1;
            both += usize::from(path == AnswerPath::Composed && lower_composed.get() > before);
        }
    }
    eprintln!("{answered} stacked answers, {both} composed at both layers");
    assert!(answered >= 100, "only {answered} cases answered");
    assert!(
        both * 3 >= answered,
        "only {both} of {answered} composed at both layers"
    );
}

/// A mediator reopened on the store directory of an earlier one registers
/// its view warm (no inference runs) and answers every case with the
/// same bytes as the first, equal to `evaluate` over the materialized
/// view.
#[test]
fn warm_restarts_answer_byte_identically() {
    let dir = std::env::temp_dir().join(format!("mix-shipped-warm-{}", std::process::id()));
    let mut answered = 0usize;
    for seed in 0..40u64 {
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
        let mut rng = StdRng::seed_from_u64(seed);
        let mut view = random_query(&source, &mut rng, &QueryGenConfig::default());
        view.view_name = name("vw");
        let Ok(nview) = normalize(&view, &source) else {
            continue;
        };
        let materialized = evaluate(&nview, &doc);
        let view_dtd = mix::infer::infer_view_dtd(&view, &source).unwrap().dtd;
        let users: Vec<(Query, String)> = (0..4)
            .filter_map(|k| {
                let user = user_query(&view_dtd, &mut rng, k % 2 == 1)?;
                let nuser = normalize(&user, &view_dtd).ok()?;
                let expected = render(&evaluate(&nuser, &materialized));
                Some((user, expected))
            })
            .collect();
        let store_dir = dir.join(seed.to_string());
        for restart in [false, true] {
            let registry = Registry::new();
            let store = Arc::new(Store::open(&store_dir, &registry).expect("store opens"));
            let mut m = Mediator::with_store(ProcessorConfig::default(), registry, store);
            m.add_source(
                "s",
                Arc::new(XmlSource::new(source.clone(), doc.clone()).unwrap()),
            );
            m.register_view("s", &view).expect("the view registers");
            if restart {
                assert_eq!(
                    m.inference_cache().stats().misses,
                    0,
                    "seed {seed}: the restart inferred again"
                );
            }
            for (user, expected) in &users {
                let case = format!("seed {seed}, restart {restart}");
                answer_all(&[("warm", &m)], user, expected, &case);
                answered += usize::from(restart);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(answered >= 80, "only {answered} warm answers");
}
