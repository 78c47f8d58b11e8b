//! X23 — DTD-driven satisfiability pruning: an 8-source federated
//! workload where 6 sources are *statically irrelevant* (their DTDs
//! provably cannot match the federated query), measured pruned versus
//! unpruned.
//!
//! Custom harness (not Criterion): the acceptance criteria are hard
//! assertions — the pruned run fetches exactly 2 of 8 sources
//! (`sat_pruned_total == 6`), the answers are byte-identical, tail
//! latency improves, and a duplicated content model's impossible
//! sibling pattern is pruned with unpruned answer bytes. Machine-readable
//! results land in `BENCH_PR10.json` at the workspace root.

use mix_dtd::parse_compact;
use mix_mediator::{Mediator, ProcessorConfig, SourceError, Wrapper, XmlSource};
use mix_obs::Registry;
use mix_relang::symbol::name;
use mix_xmas::{parse_query, Query};
use mix_xml::{parse_document, write_document, Document, WriteConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An [`XmlSource`] that counts fetches, so the harness can prove the
/// pruned run never touched the irrelevant sources.
struct CountingSource {
    inner: XmlSource,
    fetches: Arc<AtomicUsize>,
}

impl CountingSource {
    fn new(inner: XmlSource) -> (CountingSource, Arc<AtomicUsize>) {
        let fetches = Arc::new(AtomicUsize::new(0));
        (
            CountingSource {
                inner,
                fetches: Arc::clone(&fetches),
            },
            fetches,
        )
    }
}

impl Wrapper for CountingSource {
    fn dtd(&self) -> &mix_dtd::Dtd {
        self.inner.dtd()
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.fetches.fetch_add(1, Ordering::SeqCst);
        self.inner.fetch()
    }
}

/// A heavy, statically irrelevant source: a flat archive of PCDATA
/// entries whose document type can never match a `<department>`-rooted
/// query. The size is the point — this is the clone-and-evaluate work
/// the analyzer saves.
fn irrelevant_source(tag: &str, entries: usize) -> XmlSource {
    let dtd = parse_compact("{<archive : entry*> <entry : PCDATA>}").unwrap();
    let body: String = (0..entries)
        .map(|i| format!("<entry>{tag}-{i}</entry>"))
        .collect();
    let doc = parse_document(&format!("<archive>{body}</archive>")).unwrap();
    XmlSource::new(dtd, doc).expect("archive validates")
}

/// Builds the 8-member federation (2 relevant department sources, 6
/// heavy irrelevant archives) over counted wrappers.
fn build(config: ProcessorConfig, registry: Registry) -> (Mediator, Vec<Arc<AtomicUsize>>) {
    let q = mix_bench::q3();
    let mut m = Mediator::with_registry(config, registry);
    let mut counters = Vec::new();
    let mut parts: Vec<(String, Query)> = Vec::new();
    for i in 0..8usize {
        let site = format!("site{i}");
        let inner = if i < 2 {
            XmlSource::new(mix_bench::d1(), mix_bench::department_of_size(4 + 3 * i))
                .expect("department validates")
        } else {
            irrelevant_source(&site, 20_000)
        };
        let (source, fetches) = CountingSource::new(inner);
        m.add_source(&site, Arc::new(source));
        counters.push(fetches);
        parts.push((site, q.clone()));
    }
    let refs: Vec<(&str, Query)> = parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    m.register_union_view("x23", &refs)
        .expect("union registers");
    (m, counters)
}

/// Materializes the view `iters` times, returning per-iteration seconds
/// and the rendered answer (asserted identical across iterations).
fn run(m: &Mediator, iters: usize) -> (Vec<f64>, String) {
    let mut latencies = Vec::with_capacity(iters);
    let mut reference: Option<String> = None;
    for _ in 0..iters {
        let t = Instant::now();
        let (doc, report) = m
            .materialize_with_report(name("x23"))
            .expect("federation serves");
        latencies.push(t.elapsed().as_secs_f64());
        assert!(report.is_clean(), "X23 runs fault-free: {report}");
        let rendered = write_document(&doc, WriteConfig::default());
        match &reference {
            None => reference = Some(rendered),
            Some(expect) => assert_eq!(expect, &rendered, "answer drifted across iterations"),
        }
    }
    (latencies, reference.expect("at least one iteration"))
}

/// The p-th percentile (nearest-rank) of unsorted latencies, in ms.
fn percentile_ms(latencies: &[f64], p: f64) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)] * 1e3
}

fn main() {
    const ITERS: usize = 40;

    // -- pruned vs unpruned federation ------------------------------------
    let registry = Registry::new();
    let (pruned, pruned_fetches) = build(ProcessorConfig::default(), registry.clone());
    let (unpruned, unpruned_fetches) = build(
        ProcessorConfig {
            use_sat_pruning: false,
        },
        Registry::new(),
    );

    // one probe answer each pins the per-iteration fetch counts and the
    // prune counter before the timing loop piles on
    let (_, pruned_answer) = run(&pruned, 1);
    let (_, unpruned_answer) = run(&unpruned, 1);
    let fetched: usize = pruned_fetches
        .iter()
        .map(|f| f.load(Ordering::SeqCst))
        .sum();
    let fetched_unpruned: usize = unpruned_fetches
        .iter()
        .map(|f| f.load(Ordering::SeqCst))
        .sum();
    assert_eq!(
        fetched, 2,
        "the pruned federation must fetch only the 2 relevant sources"
    );
    assert_eq!(
        fetched_unpruned, 8,
        "the unpruned federation fetches everything"
    );
    let sat_pruned = registry.snapshot().counters["sat_pruned_total"];
    assert_eq!(sat_pruned, 6, "exactly the 6 irrelevant members are pruned");
    assert_eq!(
        pruned_answer, unpruned_answer,
        "pruning changed the answer bytes"
    );
    println!(
        "X23: 8-source federation, fetches/answer 8 -> 2 (sat_pruned_total={sat_pruned}), \
         answers byte-identical ({} bytes)",
        pruned_answer.len()
    );

    let (pruned_lat, _) = run(&pruned, ITERS);
    let (unpruned_lat, _) = run(&unpruned, ITERS);
    let (p50, p99) = (
        percentile_ms(&pruned_lat, 50.0),
        percentile_ms(&pruned_lat, 99.0),
    );
    let (u50, u99) = (
        percentile_ms(&unpruned_lat, 50.0),
        percentile_ms(&unpruned_lat, 99.0),
    );
    println!(
        "X23: pruned p50 {p50:.3} ms, p99 {p99:.3} ms; unpruned p50 {u50:.3} ms, p99 {u99:.3} ms \
         ({:.1}x at the tail)",
        u99 / p99.max(1e-9)
    );
    // the pruned tail is bounded by the *relevant* members only — the
    // heavy irrelevant clones and evaluations are off the critical path
    assert!(
        p99 < u99,
        "pruning must improve tail latency (pruned p99 {p99:.3} ms vs unpruned {u99:.3} ms)"
    );

    // -- duplicated content models are decided exactly --------------------
    // `a, b, a` admits one <b> child, so two <b> siblings are Unsat: the
    // source is never fetched, and the answer is the one an unpruned
    // mediator computes from the document
    let dup_dtd = parse_compact("{<r : a, b, a> <a : EMPTY> <b : EMPTY>}").unwrap();
    let dup_doc = parse_document("<r><a/><b/><a/></r>").unwrap();
    let uq = parse_query("v = SELECT X WHERE <r> X:<b/> <b/> </>").unwrap();
    let dup_view = |config: ProcessorConfig, registry: Registry| {
        let mut m = Mediator::with_registry(config, registry);
        let (source, fetches) = CountingSource::new(
            XmlSource::new(dup_dtd.clone(), dup_doc.clone()).expect("dup doc validates"),
        );
        m.add_source("dup", Arc::new(source));
        m.register_view("dup", &uq).expect("view registers");
        let doc = m
            .materialize(name("v"))
            .expect("duplicated-model view serves");
        (
            write_document(&doc, WriteConfig::default()),
            fetches.load(Ordering::SeqCst),
        )
    };
    let dup_registry = Registry::new();
    let (dup_answer, dup_fetched) = dup_view(ProcessorConfig::default(), dup_registry.clone());
    let (dup_reference, _) = dup_view(
        ProcessorConfig {
            use_sat_pruning: false,
        },
        Registry::new(),
    );
    assert_eq!(
        dup_fetched, 0,
        "a provably empty member must not be fetched"
    );
    let snap = dup_registry.snapshot();
    assert_eq!(
        snap.counters["sat_pruned_total"], 1,
        "the duplicated-model member is pruned exactly once"
    );
    assert_eq!(
        snap.counters["sat_unknown_total"], 0,
        "the duplicated model is decided, not given up on"
    );
    assert_eq!(
        dup_answer, dup_reference,
        "pruning changed the duplicated-model answer bytes"
    );
    println!("X23: duplicated-model source: verdict Unsat, not fetched, answer byte-identical");

    let json = format!(
        "{{\n  \"experiment\": \"X23\",\n  \
         \"generated_by\": \"cargo bench -p mix-bench --bench sat\",\n  \
         \"sources\": 8,\n  \"irrelevant_sources\": 6,\n  \
         \"fetches_per_answer\": {{ \"pruned\": 2, \"unpruned\": 8 }},\n  \
         \"sat_pruned_total\": {sat_pruned},\n  \
         \"latency_ms\": {{\n    \"pruned\": {{ \"p50\": {p50:.3}, \"p99\": {p99:.3} }},\n    \
         \"unpruned\": {{ \"p50\": {u50:.3}, \"p99\": {u99:.3} }}\n  }},\n  \
         \"tail_speedup\": {:.2},\n  \
         \"duplicated_model_source\": {{ \"verdict\": \"unsat\", \"fetched\": false }},\n  \
         \"byte_identical_answers\": true\n}}",
        u99 / p99.max(1e-9),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json");
    std::fs::write(out, json + "\n").expect("write BENCH_PR10.json");
    println!("wrote {out}");
}
