//! End-to-end union views: the introduction's "union the structures
//! exported by N sites" scenario, now *with* the structure information
//! the paper argues DTDs provide.

use mix::dtd::paper::d1_department;
use mix::dtd::sdtd::SAcceptor;
use mix::dtd::validate::Validator;
use mix::prelude::*;
use mix::relang::symbol::name;
use mix::xmas::paper::q3_publist;
use std::sync::Arc;

fn dept(prefix: &str, kinds: &[&str]) -> Document {
    let pubs: String = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| {
            format!("<publication><title>{prefix}{i}</title><author>a</author><{k}/></publication>")
        })
        .collect();
    parse_document(&format!(
        "<department><name>CS</name>\
           <professor><firstName>{prefix}</firstName><lastName>x</lastName>{pubs}<teaches/></professor>\
           <gradStudent><firstName>g</firstName><lastName>y</lastName>\
             <publication><title>{prefix}-thesis</title><author>g</author><journal/></publication>\
           </gradStudent>\
         </department>"
    ))
    .unwrap()
}

#[test]
fn union_view_end_to_end() {
    let mut m = Mediator::new();
    m.add_source(
        "ucsd",
        Arc::new(XmlSource::new(d1_department(), dept("u", &["journal", "conference"])).unwrap()),
    );
    m.add_source(
        "stanford",
        Arc::new(XmlSource::new(d1_department(), dept("s", &["journal"])).unwrap()),
    );
    let reg = m
        .register_union_view(
            "allPubs",
            &[("ucsd", q3_publist()), ("stanford", q3_publist())],
        )
        .unwrap();
    // inferred DTD: journal-only publications, any number
    let root = reg
        .inferred
        .dtd
        .get(name("allPubs"))
        .unwrap()
        .regex()
        .unwrap();
    assert!(equivalent(root, &parse_regex("publication*").unwrap()));
    let publ = reg
        .inferred
        .dtd
        .get(name("publication"))
        .unwrap()
        .regex()
        .unwrap();
    assert!(equivalent(
        publ,
        &parse_regex("title, author+, journal").unwrap()
    ));

    // materialization concatenates in source order and satisfies the DTDs
    let sdtd = reg.inferred.sdtd.clone();
    let dtd = reg.inferred.dtd.clone();
    let doc = m.materialize(name("allPubs")).unwrap();
    let titles: Vec<&str> = doc
        .root
        .children()
        .iter()
        .map(|p| p.children()[0].pcdata().unwrap())
        .collect();
    assert_eq!(titles, ["u0", "u-thesis", "s0", "s-thesis"]);
    assert!(Validator::new(&dtd).validate_document(&doc).is_ok());
    assert!(SAcceptor::new(&sdtd).document_satisfies(&doc));

    // querying through the union view works, including simplifier pruning
    let q = parse_query("ans = SELECT T WHERE <allPubs> <publication> T:<title/> </> </>").unwrap();
    let a = m.query(&q).unwrap();
    assert_eq!(a.document.root.children().len(), 4);
    let impossible =
        parse_query("ans = SELECT C WHERE <allPubs> <publication> C:<conference/> </> </>")
            .unwrap();
    let a = m.query(&impossible).unwrap();
    assert_eq!(a.path, AnswerPath::PrunedUnsatisfiable);
}

#[test]
fn heterogeneous_union_keeps_shapes_apart() {
    let site_a = parse_compact(
        "{<site : publication*> <publication : title, year> \
          <title : PCDATA> <year : PCDATA>}",
    )
    .unwrap();
    let site_b = parse_compact(
        "{<site : publication*> <publication : title, venue> \
          <title : PCDATA> <venue : PCDATA>}",
    )
    .unwrap();
    let doc_a =
        parse_document("<site><publication><title>a</title><year>1999</year></publication></site>")
            .unwrap();
    let doc_b = parse_document(
        "<site><publication><title>b</title><venue>ICDE</venue></publication></site>",
    )
    .unwrap();
    let mut m = Mediator::new();
    m.add_source("a", Arc::new(XmlSource::new(site_a, doc_a).unwrap()));
    m.add_source("b", Arc::new(XmlSource::new(site_b, doc_b).unwrap()));
    let q = parse_query("pubs = SELECT P WHERE <site> P:<publication/> </site>").unwrap();
    let reg = m
        .register_union_view("catalog", &[("a", q.clone()), ("b", q)])
        .unwrap();
    assert!(reg.inferred.merged_names.contains(&name("publication")));
    let sdtd = reg.inferred.sdtd.clone();
    let dtd = reg.inferred.dtd.clone();

    let doc = m.materialize(name("catalog")).unwrap();
    assert!(Validator::new(&dtd).validate_document(&doc).is_ok());
    assert!(SAcceptor::new(&sdtd).document_satisfies(&doc));

    // the s-DTD still knows site-A publications come first: a document
    // with the venue-shaped publication in the year slot is rejected
    let swapped = parse_document(
        "<catalog>\
           <publication><title>b</title><venue>ICDE</venue></publication>\
           <publication><title>a</title><year>1999</year></publication>\
         </catalog>",
    )
    .unwrap();
    assert!(Validator::new(&dtd).validate_document(&swapped).is_ok()); // merged DTD fooled
    assert!(!SAcceptor::new(&sdtd).document_satisfies(&swapped)); // s-DTD not fooled
}

#[test]
fn union_views_stack() {
    let mut lower = Mediator::new();
    lower.add_source(
        "x",
        Arc::new(XmlSource::new(d1_department(), dept("x", &["journal"])).unwrap()),
    );
    lower.add_source(
        "y",
        Arc::new(XmlSource::new(d1_department(), dept("y", &["journal"])).unwrap()),
    );
    lower
        .register_union_view("allPubs", &[("x", q3_publist()), ("y", q3_publist())])
        .unwrap();
    let lower = Arc::new(lower);
    let mut upper = Mediator::new();
    upper.add_source(
        "pubs",
        Arc::new(ViewWrapper::new(lower, name("allPubs")).unwrap()),
    );
    let v =
        parse_query("titles = SELECT T WHERE <allPubs> <publication> T:<title/> </> </>").unwrap();
    let reg = upper.register_view("pubs", &v).unwrap();
    assert_eq!(
        reg.inferred.dtd.get(name("titles")).unwrap().to_string(),
        "title*"
    );
    let q = parse_query("ans = SELECT T WHERE <titles> T:<title/> </titles>").unwrap();
    let a = upper.query(&q).unwrap();
    assert_eq!(a.document.root.children().len(), 4);
}

#[test]
fn union_errors() {
    let mut m = Mediator::new();
    let q = parse_query("v = SELECT X WHERE X:<a/>").unwrap();
    assert!(matches!(
        m.register_union_view("u", &[("ghost", q.clone())]),
        Err(MediatorError::UnknownSource(_))
    ));
    m.add_source(
        "s",
        Arc::new(
            XmlSource::new(
                parse_compact("{<a : b?> <b : PCDATA>}").unwrap(),
                parse_document("<a/>").unwrap(),
            )
            .unwrap(),
        ),
    );
    m.register_union_view("u", &[("s", q.clone())]).unwrap();
    assert!(matches!(
        m.register_union_view("u", &[("s", q)]),
        Err(MediatorError::DuplicateView(_))
    ));
}

/// Union views are sound on random workloads: every materialization
/// satisfies both inferred union DTDs, across random per-site schemas,
/// queries, and documents. The coverage bit of a report, clean or
/// degraded by seeded member failures (with stale serving on and off),
/// equals the full check of the answer against the union DTD — the
/// s-DTD when the union has kind conflicts.
#[test]
fn union_views_are_sound_on_random_workloads() {
    use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
    use mix::dtd::sample::{sample_documents, DocConfig};
    use mix::xmas::gen::{random_query, QueryGenConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (mut degraded, mut uncovered) = (0usize, 0usize);
    for seed in 0..20u64 {
        let mut m = Mediator::new();
        let mut parts = Vec::new();
        let n_sites = 2 + (seed % 3) as usize;
        let source = |site: usize| {
            let dtd = seeded_dtd(seed * 10 + site as u64, &DtdGenConfig::default());
            let doc = sample_documents(&dtd, 1, seed + site as u64, DocConfig::default())
                .pop()
                .expect("one document");
            Arc::new(XmlSource::new(dtd, doc).unwrap())
        };
        for site in 0..n_sites {
            let source = source(site);
            let mut rng = StdRng::seed_from_u64(seed * 31 + site as u64);
            let q = random_query(source.dtd(), &mut rng, &QueryGenConfig::default());
            let label = format!("site{site}");
            m.add_source(&label, source);
            parts.push((label, q));
        }
        let part_refs: Vec<(&str, Query)> =
            parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
        let reg = match m.register_union_view("u", &part_refs) {
            Ok(r) => r,
            Err(e) => panic!("seed {seed}: registration failed: {e}"),
        };
        let dtd = reg.inferred.dtd.clone();
        let sdtd = reg.inferred.sdtd.clone();
        let kind_conflicts = reg.inferred.kind_conflicts.clone();
        let (doc, report) = m.materialize_with_report(name("u")).unwrap();
        assert!(report.is_clean(), "seed {seed}: {report}");
        // the s-DTD is sound unconditionally
        let sdtd_covers = SAcceptor::new(&sdtd).document_satisfies(&doc);
        assert!(
            sdtd_covers,
            "seed {seed}: union materialization violates the s-DTD\n{sdtd}"
        );
        // the plain merged DTD is sound exactly when no name mixes PCDATA
        // and element content across the sites (see
        // InferredUnionView::kind_conflicts)
        let covers = if kind_conflicts.is_empty() {
            assert!(
                Validator::new(&dtd).validate_document(&doc).is_ok(),
                "seed {seed}: union materialization violates the merged DTD\n{dtd}"
            );
            true
        } else {
            if let Err(e) = Validator::new(&dtd).validate_document(&doc) {
                // a violation, if any, must be at a conflicted name
                let offender = e.path.last().copied().expect("nonempty path");
                assert!(
                    kind_conflicts.contains(&offender),
                    "seed {seed}: merged-DTD violation at unconflicted name {offender}: {e}"
                );
            }
            sdtd_covers
        };
        // a clean report sets the coverage bit without walking the
        // answer; it must equal the full check
        assert_eq!(report.union_dtd_covers_survivors, covers, "seed {seed}");
        // the same under seeded member failures: every member keeps its
        // own fault schedule, and a few rounds let stale answers build up
        for serve_stale in [true, false] {
            let mut faulty = Mediator::new();
            faulty.set_resilience_policy(ResiliencePolicy {
                max_retries: 0,
                serve_stale,
                ..ResiliencePolicy::default()
            });
            for (site, (label, _)) in parts.iter().enumerate() {
                let fault_seed = seed * 100 + site as u64 + u64::from(serve_stale) * 7;
                faulty.add_source(
                    label,
                    Arc::new(FaultInjector::seeded(source(site), fault_seed, 0.4)),
                );
            }
            faulty.register_union_view("u", &part_refs).unwrap();
            for round in 0..4 {
                let Ok((doc, report)) = faulty.materialize_with_report(name("u")) else {
                    continue; // every member failed
                };
                degraded += usize::from(!report.is_clean());
                uncovered += usize::from(!report.union_dtd_covers_survivors);
                let full = if kind_conflicts.is_empty() {
                    Validator::new(&dtd).validate_document(&doc).is_ok()
                } else {
                    SAcceptor::new(&sdtd).document_satisfies(&doc)
                };
                assert_eq!(
                    report.union_dtd_covers_survivors, full,
                    "seed {seed}, stale serving {serve_stale}, round {round}\n{report}"
                );
            }
        }
        // the same for a single-source view over each site
        for (site, (label, q)) in parts.iter().enumerate() {
            let mut q = q.clone();
            q.view_name = name(&format!("single{site}"));
            let view_dtd = m.register_view(label, &q).unwrap().inferred.dtd.clone();
            let (doc, report) = m.materialize_with_report(q.view_name).unwrap();
            assert!(report.is_clean(), "seed {seed} site {site}: {report}");
            assert_eq!(
                report.union_dtd_covers_survivors,
                Validator::new(&view_dtd).validate_document(&doc).is_ok(),
                "seed {seed} site {site}\n{view_dtd}"
            );
        }
    }
    eprintln!("{degraded} degraded reports ({uncovered} not covered)");
    assert!(degraded >= 20, "only {degraded} degraded reports");
    assert!(uncovered > 0, "no degraded report lost coverage");
}
