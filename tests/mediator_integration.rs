//! Mediator-level integration properties: the three execution paths agree
//! with each other, pruning never changes answers (only skips work), and
//! stacked mediators stay sound.

use mix::dtd::generate::{seeded_dtd, DtdGenConfig};
use mix::dtd::sample::{sample_documents, DocConfig};
use mix::prelude::*;
use mix::relang::symbol::Name;
use mix::xmas::gen::{random_query, random_view_query, QueryGenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The reference mediator: no sat pruning. Its answers are user queries
/// evaluated over its materialized view, with no simplifier and no
/// composition.
fn all_off() -> ProcessorConfig {
    ProcessorConfig {
        use_sat_pruning: false,
    }
}

/// Builds two mediators (all optimizations on / all off) over the same
/// random source and view; both must answer every user query with the same
/// structure.
#[test]
fn optimizations_do_not_change_answers() {
    let mut failures = Vec::new();
    for dtd_seed in 0..25u64 {
        let source_dtd = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let docs = sample_documents(&source_dtd, 1, dtd_seed, DocConfig::default());
        let mut rng = StdRng::seed_from_u64(dtd_seed + 1000);
        let view_q = {
            let mut q = random_query(&source_dtd, &mut rng, &QueryGenConfig::default());
            q.view_name = Name::intern(&format!("v{dtd_seed}"));
            q
        };
        let build = |cfg: ProcessorConfig| -> Option<Mediator> {
            let mut m = Mediator::with_config(cfg);
            m.add_source(
                "src",
                Arc::new(XmlSource::new(source_dtd.clone(), docs[0].clone()).unwrap()),
            );
            m.register_view("src", &view_q).ok()?;
            Some(m)
        };
        let Some(opt) = build(ProcessorConfig::default()) else {
            continue;
        };
        let plain = build(all_off()).expect("same registration");
        let view_dtd = &opt.view(view_q.view_name).unwrap().inferred.dtd;
        for qi in 0..8 {
            let mut qrng = StdRng::seed_from_u64(dtd_seed * 31 + qi);
            let user = random_view_query(view_dtd, &mut qrng, &QueryGenConfig::default());
            let (Ok(a), Ok(view)) = (opt.query(&user), plain.materialize(view_q.view_name)) else {
                continue;
            };
            let b = evaluate(&user, &view);
            if !mix::xml::same_structural_class(&a.document.root, &b.root) {
                failures.push(format!(
                    "seed {dtd_seed}/{qi} ({:?} vs materialized):\nview:\n{view_q}\n\
                     query:\n{user}\noptimized:\n{}\nplain:\n{}",
                    a.path,
                    write_document(&a.document, WriteConfig::default()),
                    write_document(&b, WriteConfig::default()),
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n---\n"));
}

/// Whatever path answered, the answer satisfies the DTD the upper layer
/// would infer for the user query — the property that makes stacking safe.
#[test]
fn answers_satisfy_inferred_answer_dtds() {
    for dtd_seed in 0..15u64 {
        let source_dtd = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let docs = sample_documents(&source_dtd, 1, dtd_seed * 3, DocConfig::default());
        let mut rng = StdRng::seed_from_u64(dtd_seed);
        let mut view_q = random_query(&source_dtd, &mut rng, &QueryGenConfig::default());
        view_q.view_name = Name::intern("w");
        let mut m = Mediator::new();
        m.add_source(
            "src",
            Arc::new(XmlSource::new(source_dtd.clone(), docs[0].clone()).unwrap()),
        );
        if m.register_view("src", &view_q).is_err() {
            continue;
        }
        let view_dtd = m.view(view_q.view_name).unwrap().inferred.dtd.clone();
        for qi in 0..5 {
            let mut qrng = StdRng::seed_from_u64(dtd_seed * 77 + qi);
            let user = random_view_query(&view_dtd, &mut qrng, &QueryGenConfig::default());
            let Ok(answer) = m.query(&user) else { continue };
            // infer the DTD of the *answer* from the view DTD
            let Ok(ans_iv) = infer_view_dtd(&user, &view_dtd) else {
                continue;
            };
            assert!(
                validate_document(&ans_iv.dtd, &answer.document).is_ok(),
                "answer violates its inferred DTD (seed {dtd_seed}/{qi}, path {:?})\n\
                 view:\n{view_q}\nquery:\n{user}\nanswer:\n{}\nanswer DTD:\n{}",
                answer.path,
                write_document(&answer.document, WriteConfig::default()),
                ans_iv.dtd,
            );
        }
    }
}

/// A three-level mediator stack on the paper's schema stays consistent
/// with direct evaluation.
#[test]
fn three_level_stack() {
    let d1 = mix::dtd::paper::d1_department();
    let doc = parse_document(
        "<department><name>CS</name>\
           <professor><firstName>Y</firstName><lastName>P</lastName>\
             <publication><title>a</title><author>x</author><journal/></publication>\
             <publication><title>b</title><author>y</author><journal/></publication>\
             <teaches/></professor>\
           <gradStudent><firstName>G</firstName><lastName>S</lastName>\
             <publication><title>c</title><author>z</author><journal/></publication>\
           </gradStudent></department>",
    )
    .unwrap();

    // level 0 → 1: all people with a journal publication
    let mut m1 = Mediator::new();
    m1.add_source("cs", Arc::new(XmlSource::new(d1, doc).unwrap()));
    let v1 = parse_query(
        "people = SELECT X WHERE <department> \
           X:<professor | gradStudent> <publication><journal/></publication> </> </>",
    )
    .unwrap();
    m1.register_view("cs", &v1).unwrap();
    let m1 = Arc::new(m1);

    // level 1 → 2: their publications
    let mut m2 = Mediator::new();
    m2.add_source(
        "people",
        Arc::new(ViewWrapper::new(m1, mix::relang::name("people")).unwrap()),
    );
    let v2 = parse_query(
        "pubs = SELECT Y WHERE <people> <professor | gradStudent> Y:<publication/> </> </>",
    )
    .unwrap();
    m2.register_view("people", &v2).unwrap();
    let m2 = Arc::new(m2);

    // level 2 → 3: their titles
    let mut m3 = Mediator::new();
    m3.add_source(
        "pubs",
        Arc::new(ViewWrapper::new(m2, mix::relang::name("pubs")).unwrap()),
    );
    let v3 =
        parse_query("titles = SELECT T WHERE <pubs> <publication> T:<title/> </> </pubs>").unwrap();
    let reg = m3.register_view("pubs", &v3).unwrap();
    // the DTD inferred across three levels still knows titles are PCDATA
    // under a list root
    let root = reg.inferred.dtd.get(mix::relang::name("titles")).unwrap();
    assert_eq!(root.to_string(), "title*");

    let q = parse_query("ans = SELECT T WHERE <titles> T:<title/> </titles>").unwrap();
    let a = m3.query(&q).unwrap();
    let titles: Vec<&str> = a
        .document
        .root
        .children()
        .iter()
        .filter_map(|e| e.pcdata())
        .collect();
    assert_eq!(titles, ["a", "b", "c"]);
}

/// The simplifier prunes exactly the queries whose answers are empty on
/// every instance: pruned ⟹ the unoptimized answer is empty.
#[test]
fn pruning_is_safe() {
    for dtd_seed in 0..20u64 {
        let source_dtd = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let docs = sample_documents(&source_dtd, 1, dtd_seed + 500, DocConfig::default());
        let mut rng = StdRng::seed_from_u64(dtd_seed);
        let mut view_q = random_query(&source_dtd, &mut rng, &QueryGenConfig::default());
        view_q.view_name = Name::intern("w");
        let mut with = Mediator::new();
        with.add_source(
            "s",
            Arc::new(XmlSource::new(source_dtd.clone(), docs[0].clone()).unwrap()),
        );
        if with.register_view("s", &view_q).is_err() {
            continue;
        }
        let mut without = Mediator::with_config(all_off());
        without.add_source(
            "s",
            Arc::new(XmlSource::new(source_dtd.clone(), docs[0].clone()).unwrap()),
        );
        without.register_view("s", &view_q).unwrap();
        let view_dtd = with.view(view_q.view_name).unwrap().inferred.dtd.clone();
        for qi in 0..6 {
            let mut qrng = StdRng::seed_from_u64(dtd_seed * 131 + qi);
            // use a chaotic generator so unsatisfiable queries are common
            let cfg = QueryGenConfig {
                chaos_prob: 0.4,
                ..QueryGenConfig::default()
            };
            let user = random_view_query(&view_dtd, &mut qrng, &cfg);
            let (Ok(a), Ok(view)) = (with.query(&user), without.materialize(view_q.view_name))
            else {
                continue;
            };
            let b = evaluate(&user, &view);
            if a.path == AnswerPath::PrunedUnsatisfiable {
                assert!(
                    b.root.children().is_empty(),
                    "pruned a non-empty answer (seed {dtd_seed}/{qi})\nquery:\n{user}"
                );
            }
        }
    }
}
