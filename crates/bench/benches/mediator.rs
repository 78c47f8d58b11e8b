//! X8 + X9 — the mediator-level ablations that motivate the paper:
//!
//! * X8: answering a provably-empty query with the DTD-based simplifier
//!   on vs. off (the "heavy loss of performance" of living without
//!   structure, Section 1);
//! * X9: answering a member query by view–query composition vs. by
//!   materializing the view;
//!
//!   "off" and "materialized" evaluate the query over
//!   `Mediator::materialize`, which is what the mediator would do with
//!   neither the simplifier nor composition;
//! * X14: the degraded path — a union query over 10 sources with 0%,
//!   10%, and 50% of calls failing (seeded injection), measuring what
//!   retries, breaker accounting, and partial-answer assembly cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mix_bench::{d1, department_of_size};
use mix_mediator::{AnswerPath, FaultInjector, Mediator, ProcessorConfig, XmlSource};
use mix_relang::symbol::name;
use mix_xmas::{evaluate, parse_query};
use std::sync::Arc;
use std::time::Duration;

fn build(professors: usize, cfg: ProcessorConfig) -> Mediator {
    let mut m = Mediator::with_config(cfg);
    m.add_source(
        "cs",
        Arc::new(XmlSource::new(d1(), department_of_size(professors)).expect("valid")),
    );
    let view = parse_query(
        "withJournals = SELECT P WHERE <department> <name>CS</name> \
           P:<professor | gradStudent> <publication><journal/></publication> </> </>",
    )
    .expect("view parses");
    m.register_view("cs", &view).expect("registers");
    m
}

fn bench_mediator(c: &mut Criterion) {
    let mut g = c.benchmark_group("mediator");
    g.sample_size(20).measurement_time(Duration::from_secs(2));

    let unsat = parse_query(
        "ans = SELECT C WHERE <withJournals> <professor> C:<course/> </> </withJournals>",
    )
    .expect("parses");
    let member = parse_query(
        "ans = SELECT X WHERE <withJournals> X:<professor> <teaches/> </professor> </>",
    )
    .expect("parses");

    let view = name("withJournals");
    for professors in [16usize, 64, 256] {
        let on = build(professors, ProcessorConfig::default());
        let unpruned = build(
            professors,
            ProcessorConfig {
                use_sat_pruning: false,
            },
        );
        let off = |q| evaluate(q, &unpruned.materialize(view).expect("materializes"));

        // X8: unsatisfiable query, simplifier on vs off
        assert_eq!(
            on.query(&unsat).expect("answers").path,
            AnswerPath::PrunedUnsatisfiable
        );
        g.bench_with_input(
            BenchmarkId::new("unsat_simplifier_on", professors),
            &professors,
            |b, _| b.iter(|| on.query(&unsat).expect("answers")),
        );
        g.bench_with_input(
            BenchmarkId::new("unsat_simplifier_off", professors),
            &professors,
            |b, _| b.iter(|| off(&unsat)),
        );

        // X9: member query, composed vs materialized
        assert_eq!(
            unpruned.query(&member).expect("answers").path,
            AnswerPath::Composed
        );
        g.bench_with_input(
            BenchmarkId::new("member_composed", professors),
            &professors,
            |b, _| b.iter(|| unpruned.query(&member).expect("answers")),
        );
        g.bench_with_input(
            BenchmarkId::new("member_materialized", professors),
            &professors,
            |b, _| b.iter(|| off(&member)),
        );
    }
    g.finish();
}

/// A 10-source union federation with the given per-call fault rate
/// injected in front of every site.
fn build_federation(professors: usize, rate: f64) -> Mediator {
    let mut m = Mediator::new();
    let q = parse_query("fed = SELECT P WHERE <department> P:<professor/> </department>")
        .expect("parses");
    let names: Vec<String> = (0..10).map(|i| format!("site{i}")).collect();
    let mut parts = Vec::new();
    for (i, n) in names.iter().enumerate() {
        let src = Arc::new(XmlSource::new(d1(), department_of_size(professors)).expect("valid"));
        let inj = FaultInjector::seeded(src, 0xFED0 + i as u64, rate);
        m.add_source(n, Arc::new(inj));
        parts.push((n.clone(), q.clone()));
    }
    let refs: Vec<(&str, mix_xmas::Query)> =
        parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    m.register_union_view("fed", &refs).expect("registers");
    m
}

/// X14: materializing a degraded union — the price of resilience at
/// increasing failure rates.
fn bench_degraded_union(c: &mut Criterion) {
    let mut g = c.benchmark_group("degraded_union");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for pct in [0u32, 10, 50] {
        let m = build_federation(32, pct as f64 / 100.0);
        // warm the snapshots so failures degrade to stale serving instead
        // of shrinking the answer (steady-state shape of a federation)
        let _ = m.materialize_with_report(name("fed"));
        g.bench_with_input(BenchmarkId::new("fail_rate_pct", pct), &pct, |b, _| {
            b.iter(|| {
                m.materialize_with_report(name("fed"))
                    .expect("some member always survives")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mediator, bench_degraded_union);
criterion_main!(benches);
