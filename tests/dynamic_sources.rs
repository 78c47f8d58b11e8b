//! Dynamic sources: the paper's motivating "environments with dynamic and
//! unknown information". When a site's schema changes, the mediator
//! re-infers the affected view DTDs and reports which changed, so stacked
//! mediators can cascade the update.

use mix::dtd::paper::d1_department;
use mix::prelude::*;
use mix::relang::symbol::name;
use std::sync::Arc;

fn dept_doc() -> Document {
    parse_document(
        "<department><name>CS</name>\
           <professor><firstName>Y</firstName><lastName>P</lastName>\
             <publication><title>a</title><author>x</author><journal/></publication>\
             <teaches/></professor>\
           <gradStudent><firstName>G</firstName><lastName>S</lastName>\
             <publication><title>b</title><author>x</author><journal/></publication>\
           </gradStudent></department>",
    )
    .unwrap()
}

/// D1 after a schema evolution: gradStudents may now have no publications.
fn d1_evolved() -> Dtd {
    parse_compact(
        "{<department : name, professor+, gradStudent+, course*>\
          <professor : firstName, lastName, publication+, teaches>\
          <gradStudent : firstName, lastName, publication*>\
          <publication : title, author+, (journal | conference)>\
          <teaches : EMPTY> <journal : EMPTY> <conference : EMPTY> <course : EMPTY>}",
    )
    .unwrap()
}

#[test]
fn schema_evolution_reinfers_affected_views() {
    let mut m = Mediator::new();
    m.add_source(
        "cs",
        Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
    );
    // view 1: gradStudent publications — its DTD depends on the evolved part
    let v1 =
        parse_query("gsPubs = SELECT X WHERE <department> <gradStudent> X:<publication/> </> </>")
            .unwrap();
    // view 2: professor first names — unaffected by the evolution
    let v2 =
        parse_query("profNames = SELECT F WHERE <department> <professor> F:<firstName/> </> </>")
            .unwrap();
    m.register_view("cs", &v1).unwrap();
    m.register_view("cs", &v2).unwrap();

    // before: every gradStudent has ≥1 publication, so gsPubs is publication+
    let before = m.view(name("gsPubs")).unwrap().inferred.dtd.clone();
    assert!(equivalent(
        before.get(name("gsPubs")).unwrap().regex().unwrap(),
        &parse_regex("publication+").unwrap()
    ));

    // the site evolves: gradStudent : publication*
    let changed = m
        .replace_source(
            "cs",
            Arc::new(XmlSource::new(d1_evolved(), dept_doc()).unwrap()),
        )
        .unwrap();
    assert_eq!(
        changed,
        vec![name("gsPubs")],
        "only the affected view changes"
    );

    let after = m.view(name("gsPubs")).unwrap().inferred.dtd.clone();
    assert!(equivalent(
        after.get(name("gsPubs")).unwrap().regex().unwrap(),
        &parse_regex("publication*").unwrap()
    ));
    // the unaffected view kept its DTD
    let prof = m.view(name("profNames")).unwrap().inferred.dtd.clone();
    assert!(equivalent(
        prof.get(name("profNames")).unwrap().regex().unwrap(),
        &parse_regex("firstName+").unwrap()
    ));
}

#[test]
fn union_views_reinfer_on_part_evolution() {
    let mut m = Mediator::new();
    m.add_source(
        "a",
        Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
    );
    m.add_source(
        "b",
        Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
    );
    let q =
        parse_query("pubs = SELECT X WHERE <department> <gradStudent> X:<publication/> </> </>")
            .unwrap();
    m.register_union_view("allGsPubs", &[("a", q.clone()), ("b", q)])
        .unwrap();
    let before = m
        .union_view(name("allGsPubs"))
        .unwrap()
        .inferred
        .dtd
        .clone();
    assert!(equivalent(
        before.get(name("allGsPubs")).unwrap().regex().unwrap(),
        &parse_regex("publication+, publication+").unwrap()
    ));
    let changed = m
        .replace_source(
            "b",
            Arc::new(XmlSource::new(d1_evolved(), dept_doc()).unwrap()),
        )
        .unwrap();
    assert_eq!(changed, vec![name("allGsPubs")]);
    let after = m
        .union_view(name("allGsPubs"))
        .unwrap()
        .inferred
        .dtd
        .clone();
    assert!(equivalent(
        after.get(name("allGsPubs")).unwrap().regex().unwrap(),
        &parse_regex("publication+, publication*").unwrap()
    ));
}

#[test]
fn replacing_unknown_source_errors() {
    let mut m = Mediator::new();
    let err = m.replace_source(
        "ghost",
        Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
    );
    assert!(matches!(err, Err(MediatorError::UnknownSource(_))));
}

#[test]
fn unchanged_swap_reports_nothing() {
    let mut m = Mediator::new();
    m.add_source(
        "cs",
        Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
    );
    let v =
        parse_query("profNames = SELECT F WHERE <department> <professor> F:<firstName/> </> </>")
            .unwrap();
    m.register_view("cs", &v).unwrap();
    // same schema, different document: the DTD is unchanged
    let changed = m
        .replace_source(
            "cs",
            Arc::new(XmlSource::new(d1_department(), dept_doc()).unwrap()),
        )
        .unwrap();
    assert!(changed.is_empty());
}

/// A wildcard view re-inferred after a schema change is expanded against
/// the *new* DTD: its view DTD and its answers match a view registered
/// over the new schema from the start, for single and union views alike.
#[test]
fn wildcard_views_reinfer_against_the_new_schema() {
    let source = |dtd: &str, doc: &str| -> Arc<dyn Wrapper> {
        Arc::new(XmlSource::new(parse_compact(dtd).unwrap(), parse_document(doc).unwrap()).unwrap())
    };
    let old = || source("{<r : a*> <a : PCDATA>}", "<r><a>1</a></r>");
    let evolved = || {
        source(
            "{<r : (a | b)*> <a : PCDATA> <b : PCDATA>}",
            "<r><a>1</a><b>2</b></r>",
        )
    };
    let register = |m: &mut Mediator| {
        let single = parse_query("v = SELECT X WHERE <r> X:<*/> </r>").unwrap();
        let part = parse_query("m = SELECT X WHERE <r> X:<*/> </r>").unwrap();
        m.register_view("s", &single).unwrap();
        m.register_union_view("u", &[("s", part.clone()), ("t", part)])
            .unwrap();
    };

    // registered over the old schema, then the source evolves
    let mut replaced = Mediator::new();
    replaced.add_source("s", old());
    replaced.add_source("t", old());
    register(&mut replaced);
    let changed = replaced.replace_source("s", evolved()).unwrap();
    assert_eq!(changed, vec![name("v"), name("u")]);

    // registered over the new schema from the start
    let mut fresh = Mediator::new();
    fresh.add_source("s", evolved());
    fresh.add_source("t", old());
    register(&mut fresh);

    let xml = |m: &Mediator, view: &str| {
        write_document(&m.materialize(name(view)).unwrap(), WriteConfig::default())
    };
    for view in ["v", "u"] {
        assert_eq!(
            replaced.view_dtd(name(view)),
            fresh.view_dtd(name(view)),
            "view DTD of {view}"
        );
        assert_eq!(xml(&replaced, view), xml(&fresh, view), "answer of {view}");
    }
    let v = replaced.view_dtd(name("v")).unwrap();
    assert!(equivalent(
        v.get(name("v")).unwrap().regex().unwrap(),
        &parse_regex("(a | b)*").unwrap()
    ));
    assert_eq!(xml(&replaced, "v"), "<v>\n  <a>1</a>\n  <b>2</b>\n</v>");
}
