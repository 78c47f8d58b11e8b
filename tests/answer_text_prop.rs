//! A daemon writes its answers straight from its document. Over random
//! (DTD, document, query) triples, `XmlSource::answer_text` prints
//! exactly the bytes of `write_document` applied to `Wrapper::answer`'s
//! document, called directly and through the daemon's service
//! (`WrapperService<Arc<dyn Wrapper>>`). The triples include empty
//! answers and documents with explicit IDs, some spelled with markup
//! characters.

use mix::dtd::generate::{random_dtd, DtdGenConfig};
use mix::dtd::sample::{DocConfig, DocSampler};
use mix::mediator::WrapperService;
use mix::net::WireService;
use mix::prelude::*;
use mix::xmas::gen::{random_query, QueryGenConfig};
use mix::xml::{Content, ElemId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Gives about a third of `e`'s subtree explicit IDs, numbered from
/// `next`; every fifth one has `&`, `<` and `"` in it.
fn name_some(e: &mut Element, rng: &mut StdRng, next: &mut usize) {
    if rng.gen_bool(0.3) {
        *next += 1;
        let text = if next.is_multiple_of(5) {
            format!("e{next}&<\"")
        } else {
            format!("e{next}")
        };
        e.id = ElemId::named(&text);
    }
    if let Content::Elements(children) = &mut e.content {
        for c in children {
            name_some(c, rng, next);
        }
    }
}

/// Checks the triples of one seed; returns how many were checked, had
/// an empty answer, had a non-empty one, and ran over explicit IDs.
fn case(paper: bool, seed: u64) -> [usize; 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let dtd = if paper {
        mix::dtd::paper::d1_department()
    } else {
        random_dtd(&mut rng, &DtdGenConfig::default())
    };
    let sampler = DocSampler::new(&dtd, DocConfig::default()).expect("productive");
    let mut doc = sampler.sample(&mut rng);
    let named = rng.gen_bool(0.5);
    if named {
        name_some(&mut doc.root, &mut rng, &mut 0);
    }
    let source = XmlSource::new(dtd.clone(), doc).expect("sampled documents are valid");
    let served: Arc<dyn Wrapper> =
        Arc::new(XmlSource::new(dtd.clone(), source.document().clone()).unwrap());
    let service = WrapperService::new(served);
    let cfg = QueryGenConfig {
        dup_prob: 0.4,
        ..QueryGenConfig::default()
    };
    let mut tally = [0; 4];
    for _ in 0..4 {
        let q = random_query(&dtd, &mut rng, &cfg);
        let want = source
            .answer(&q)
            .map(|a| write_document(&a, WriteConfig::default()));
        assert_eq!(source.answer_text(&q), want, "query:\n{q}");
        let wire = service.answer(Some(&q.to_string()));
        match &want {
            Ok(text) => assert_eq!(wire.as_ref(), Ok(text), "query:\n{q}"),
            Err(e) => assert_eq!(wire.map_err(|f| f.kind), Err(e.kind().to_owned())),
        }
        tally[0] += 1;
        if let Ok(text) = &want {
            let members = parse_document(text).unwrap().root.children().len();
            tally[1] += usize::from(members == 0);
            tally[2] += usize::from(members > 0);
        }
        tally[3] += usize::from(named);
    }
    tally
}

const CASES: u32 = 600;

/// Cases run, then the [`case`] tallies summed over the run.
static TALLY: Mutex<[usize; 5]> = Mutex::new([0; 5]);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// `answer_text` is byte-identical to writing `answer`'s document,
    /// directly and through the daemon's service; a fixed share of the
    /// triples have empty answers, non-empty answers and explicit IDs.
    #[test]
    fn answer_text_prints_the_answer_documents_bytes(paper in 0u8..2, seed in 0u64..u64::MAX) {
        let t = case(paper == 0, seed);
        let mut tally = TALLY.lock().unwrap();
        tally[0] += 1;
        for (sum, n) in tally[1..].iter_mut().zip(t) {
            *sum += n;
        }
        if tally[0] == CASES as usize {
            let share = |n: usize| n as f64 / tally[1] as f64;
            assert!(share(tally[2]) >= 0.1, "empty share {}", share(tally[2]));
            assert!(share(tally[3]) >= 0.1, "non-empty share {}", share(tally[3]));
            assert!(share(tally[4]) >= 0.25, "explicit-ID share {}", share(tally[4]));
        }
    }
}
