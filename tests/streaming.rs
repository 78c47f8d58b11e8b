//! PR 8 property suite: the streaming evaluator is *byte-identical* to
//! the in-memory evaluator on the supported fragment, over random DTDs,
//! random queries (`!=` pairs included), and random valid documents —
//! with and without DTD pruning — and the fallback path for over-wide
//! sibling groups is exercised explicitly.

use mix::dtd::generate::{seeded_dtd, write_sized_document, ChunkedDocConfig, DtdGenConfig};
use mix::dtd::sample::{DocConfig, DocSampler};
use mix::prelude::*;
use mix::xmas::gen::{random_query, QueryGenConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Read;

/// Random queries duplicate a sibling condition under a `!=` pair with
/// `dup_prob`; with at most two child conditions per node and one
/// duplicate each, every query fits the streaming sibling cap.
fn query_cfg() -> QueryGenConfig {
    QueryGenConfig::default()
}

fn doc_cfg() -> DocConfig {
    DocConfig {
        max_nodes: 80,
        ..DocConfig::default()
    }
}

/// Serialized answer of the in-memory evaluator over the *reparsed*
/// document, so both paths see exactly the bytes on the wire.
fn oracle(nq: &Query, xml: &str, cfg: WriteConfig) -> String {
    let doc = parse_document(xml).expect("serialized documents reparse");
    write_document(&evaluate(nq, &doc), cfg)
}

fn streamed(cq: &CompiledQuery, xml: &str, cfg: WriteConfig) -> String {
    let mut out = Vec::new();
    stream_answer_to(xml.as_bytes(), cq, cfg, &mut out).expect("stream over valid bytes");
    String::from_utf8(out).expect("serializer emits UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming ≡ in-memory over random schema-aware workloads, both
    /// with DTD pruning and without, in both serialization modes.
    #[test]
    fn streaming_is_byte_identical_to_in_memory(dtd_seed in 0u64..400, q_seed in 0u64..1000) {
        let dtd = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let mut rng = StdRng::seed_from_u64(q_seed);
        let q = random_query(&dtd, &mut rng, &query_cfg());
        let Ok(nq) = normalize(&q, &dtd) else { return };
        let Ok(pruned) = CompiledQuery::compile(&nq, Some(&dtd)) else { return };
        let blind = CompiledQuery::compile(&nq, None).expect("fragment check ignores the DTD");
        let sampler = DocSampler::new(&dtd, doc_cfg()).expect("generator guarantees docs");
        for _ in 0..8 {
            let doc = sampler.sample(&mut rng);
            for cfg in [WriteConfig::default(), WriteConfig { indent: None, ..WriteConfig::default() }] {
                let xml = write_document(&doc, cfg);
                let want = oracle(&nq, &xml, cfg);
                for cq in [&pruned, &blind] {
                    let got = streamed(cq, &xml, cfg);
                    prop_assert_eq!(
                        &got, &want,
                        "divergence (dtd_seed={}, q_seed={}, pruned={})\nquery:\n{}\ndoc:\n{}",
                        dtd_seed, q_seed, std::ptr::eq(cq, &pruned), q, xml
                    );
                }
            }
        }
    }

    /// The chunked size-targeted writer only emits DTD-valid documents,
    /// and the streaming evaluator digests them whole.
    #[test]
    fn chunked_documents_are_valid_and_streamable(dtd_seed in 0u64..200) {
        let dtd = seeded_dtd(dtd_seed, &DtdGenConfig::default());
        let cfg = ChunkedDocConfig {
            target_bytes: 24 << 10,
            max_subtree_bytes: 2 << 10,
            ..ChunkedDocConfig::default()
        };
        let mut xml = Vec::new();
        let written = write_sized_document(&dtd, dtd_seed ^ 0x5eed, cfg, &mut xml).unwrap();
        prop_assert_eq!(written as usize, xml.len());
        let text = String::from_utf8(xml).unwrap();
        let doc = parse_document(&text).expect("chunked output parses");
        prop_assert!(satisfies(&dtd, &doc), "chunked output violates its DTD");

        let mut rng = StdRng::seed_from_u64(dtd_seed);
        let q = random_query(&dtd, &mut rng, &query_cfg());
        let Ok(nq) = normalize(&q, &dtd) else { return };
        let Ok(cq) = CompiledQuery::compile(&nq, Some(&dtd)) else { return };
        let cfg = WriteConfig::default();
        prop_assert_eq!(streamed(&cq, &text, cfg), oracle(&nq, &text, cfg));
    }
}

fn d1_sample_xml() -> String {
    let dtd = mix::dtd::paper::d1_department();
    let doc = DocSampler::new(&dtd, doc_cfg())
        .unwrap()
        .sample(&mut StdRng::seed_from_u64(7));
    write_document(
        &doc,
        WriteConfig {
            indent: None,
            ..WriteConfig::default()
        },
    )
}

fn wrapper_over(dtd: &Dtd, xml: &str) -> StreamingWrapper {
    let bytes = xml.to_owned();
    StreamingWrapper::new(
        dtd.clone(),
        Box::new(move || {
            Ok(Box::new(std::io::Cursor::new(bytes.clone().into_bytes())) as Box<dyn Read + Send>)
        }),
    )
}

/// `!=` queries are in the fragment: a pair on two conditions always
/// holds, so the wrapper streams and produces the in-memory answer
/// bit-for-bit.
#[test]
fn diseq_queries_take_the_streaming_path() {
    let dtd = mix::dtd::paper::d1_department();
    let xml = d1_sample_xml();
    let q = parse_query(
        "multi = SELECT P WHERE <department> P:<professor> \
           <publication id=A/> <publication id=B/> </> </department> AND A != B",
    )
    .unwrap();
    let nq = normalize(&q, &dtd).unwrap();
    let cq = CompiledQuery::compile(&nq, Some(&dtd)).expect("pairs compile");
    assert!(!cq.admits_nothing());

    let streamed = mix::obs::global().counter("stream_queries_streamed_total");
    let before = streamed.get();
    let (answer, served) = wrapper_over(&dtd, &xml).answer_traced(&q).unwrap();
    assert!(matches!(served, ServedBy::Streamed(_)), "got {served:?}");
    assert!(
        streamed.get() > before,
        "the streamed query must be counted"
    );
    let reference = evaluate(&nq, &parse_document(&xml).unwrap());
    assert_eq!(
        write_document(&answer, WriteConfig::default()),
        write_document(&reference, WriteConfig::default()),
    );
}

/// A condition with seven child conditions is one past the streaming
/// cap: the wrapper must *fall back* (observably) and still produce the
/// in-memory answer bit-for-bit.
#[test]
fn wide_queries_take_the_fallback_path() {
    let dtd = mix::dtd::paper::d1_department();
    let xml = d1_sample_xml();
    let q = parse_query(
        "wide = SELECT P WHERE <department> P:<professor> <firstName/> <lastName/> \
           <publication/> <publication/> <publication/> <publication/> <teaches/> </> \
         </department>",
    )
    .unwrap();
    let nq = normalize(&q, &dtd).unwrap();
    match CompiledQuery::compile(&nq, Some(&dtd)) {
        Err(mix::stream::Unsupported::WideSiblings(7)) => {}
        other => panic!("expected a WideSiblings rejection, got {other:?}"),
    }

    let fallbacks = mix::obs::global().counter("stream_queries_fallback_total");
    let before = fallbacks.get();
    let (answer, served) = wrapper_over(&dtd, &xml).answer_traced(&q).unwrap();
    assert!(matches!(served, ServedBy::Fallback(_)), "got {served:?}");
    assert!(fallbacks.get() > before, "fallback must be counted");
    let reference = evaluate(&nq, &parse_document(&xml).unwrap());
    assert_eq!(
        write_document(&answer, WriteConfig::default()),
        write_document(&reference, WriteConfig::default()),
    );
}
