//! Integration tests for the fault-tolerant source layer: graceful union
//! degradation, per-source circuit breakers observable through the
//! mediator, stale-snapshot serving, byte-for-byte report reproducibility
//! under a fixed seed, and fault tolerance across mediator stacking.

use mix::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const N: usize = 10;

fn site_dtd() -> Dtd {
    parse_compact("{<r : a*> <a : PCDATA>}").unwrap()
}

fn site_doc(i: usize) -> Document {
    parse_document(&format!("<r><a>m{i}.0</a><a>m{i}.1</a></r>")).unwrap()
}

fn part_query() -> Query {
    parse_query("u = SELECT X WHERE <r> X:<a/> </r>").unwrap()
}

/// A 10-source federation where each site runs a seeded fault schedule.
fn federation(fault_seed: u64, rate: f64) -> Mediator {
    let mut m = Mediator::new();
    let mut parts = Vec::new();
    for i in 0..N {
        let src = Arc::new(XmlSource::new(site_dtd(), site_doc(i)).unwrap());
        let inj = FaultInjector::seeded(src, fault_seed.wrapping_add(i as u64), rate);
        m.add_source(&format!("site{i}"), Arc::new(inj));
        parts.push((format!("site{i}"), part_query()));
    }
    let refs: Vec<(&str, Query)> = parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    m.register_union_view("u", &refs).unwrap();
    m
}

/// The acceptance scenario: a union over N sources with k failing returns
/// the partial answer plus a report naming each failed source and its
/// breaker state — and the same seed reproduces the report byte for byte.
#[test]
fn degraded_union_report_is_reproducible_byte_for_byte() {
    let run = || {
        let m = federation(42, 0.6);
        let (doc, report) = m.materialize_with_report(name("u")).unwrap();
        (
            write_document(&doc, WriteConfig::default()),
            report.to_string(),
        )
    };
    let (doc_a, report_a) = run();
    let (doc_b, report_b) = run();
    assert_eq!(
        doc_a, doc_b,
        "same seed must reproduce the same partial answer"
    );
    assert_eq!(
        report_a.as_bytes(),
        report_b.as_bytes(),
        "same seed must reproduce the report byte for byte"
    );
    // at rate 0.6 with a 2-retry budget some sites fail and some survive —
    // the report names every site exactly once, with a breaker state each
    let m = federation(42, 0.6);
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert_eq!(report.outcomes.len(), N);
    assert!(
        !report.failed_sources().is_empty(),
        "seed 42 @ 0.6 fails some site"
    );
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.status == FetchStatus::Fresh),
        "seed 42 @ 0.6 serves some site"
    );
    for o in &report.outcomes {
        assert!(report.to_string().contains(&o.source));
        assert!(report
            .to_string()
            .contains(&format!("breaker={}", o.breaker)));
    }
    // a different seed yields a different schedule (and so a different
    // report with overwhelming probability)
    let m2 = federation(43, 0.6);
    let (_, other) = m2.materialize_with_report(name("u")).unwrap();
    assert_ne!(report.to_string(), other.to_string());
}

/// Clean federations stay clean: rate 0 serves every member fresh and the
/// answer equals the concatenation of all members.
#[test]
fn clean_federation_reports_all_fresh() {
    let m = federation(7, 0.0);
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
    assert!(report.union_dtd_covers_survivors);
    assert_eq!(doc.root.children().len(), 2 * N);
}

/// Repeated failures trip a source's breaker open (observable through the
/// mediator), and a later success through the half-open probe re-closes
/// it.
#[test]
fn breaker_lifecycle_is_observable_through_the_mediator() {
    let dtd = site_dtd();
    let src: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(0)).unwrap());
    // calls 0..9 are outages, everything after succeeds
    let mut schedule = BTreeMap::new();
    for call in 0..9u64 {
        schedule.insert(call, Fault::Unavailable);
    }
    let inj = FaultInjector::new(src, FaultPlan::NthCalls(schedule));
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        failure_threshold: 3,
        cooldown_calls: 1,
        serve_stale: false,
    });
    m.add_source("s", Arc::new(inj));
    m.register_union_view("u", &[("s", part_query()), ("s", part_query())])
        .unwrap();
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    // each materialization hits the source twice (both union parts);
    // after two rounds (4 outages) the breaker is open
    for _ in 0..2 {
        let _ = m.materialize_with_report(name("u"));
    }
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Open));
    // keep calling: probes burn through the remaining outages, and once
    // the schedule runs dry a probe succeeds and re-closes the breaker
    for _ in 0..8 {
        let _ = m.materialize_with_report(name("u"));
    }
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
}

/// After one clean materialization, a source that goes hard-down keeps
/// serving its last-known-good snapshot, marked stale in the report.
#[test]
fn snapshot_serves_stale_members_after_outage() {
    let dtd = site_dtd();
    let src: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(3)).unwrap());
    // first call clean, everything after a hard outage
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 32]);
    let inj = FaultInjector::new(src, FaultPlan::Script(script));
    let mut m = Mediator::new();
    m.add_source("s", Arc::new(inj));
    m.register_union_view("u", &[("s", part_query())]).unwrap();
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
    assert_eq!(doc.root.children().len(), 2);
    // the outage begins; the snapshot keeps the member alive
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert_eq!(report.outcomes[0].status, FetchStatus::Stale);
    assert!(report.outcomes[0].error.is_some());
    assert_eq!(doc.root.children().len(), 2, "stale member still complete");
    // with stale serving disabled the same situation loses the member
    m.set_resilience_policy(ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    match m.materialize_with_report(name("u")) {
        Err(MediatorError::AllSourcesFailed(_)) => {}
        other => panic!(
            "expected total failure without stale serving, got {:?}",
            other.map(|(_, r)| r)
        ),
    }
}

/// Replacing a source resets its health: breaker re-closed, snapshot
/// dropped.
#[test]
fn replace_source_resets_health() {
    let dtd = site_dtd();
    let down: Arc<dyn Wrapper> = Arc::new(FaultInjector::new(
        Arc::new(XmlSource::new(dtd.clone(), site_doc(0)).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Unavailable); 32]),
    ));
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        failure_threshold: 1,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("s", down);
    m.register_union_view("u", &[("s", part_query())]).unwrap();
    let _ = m.materialize_with_report(name("u"));
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Open));
    let fresh: Arc<dyn Wrapper> = Arc::new(XmlSource::new(dtd, site_doc(1)).unwrap());
    m.replace_source("s", fresh).unwrap();
    assert_eq!(m.breaker_state("s"), Some(BreakerState::Closed));
    let (_, report) = m.materialize_with_report(name("u")).unwrap();
    assert!(report.is_clean());
}

/// A query through `Mediator::query` over a union view carries the
/// degradation report on the materialized path. Picking the view root
/// does not compose, so the union is materialized.
#[test]
fn query_answers_carry_the_degradation_report() {
    let m = federation(42, 0.6);
    let q = parse_query("ans = SELECT W WHERE W:<u/>").unwrap();
    let a = m.query(&q).unwrap();
    assert_eq!(a.path, AnswerPath::Materialized);
    let report = a
        .degradation
        .expect("materialized answers carry the report");
    assert_eq!(report.outcomes.len(), N);
    assert!(!report.failed_sources().is_empty());
}

/// Stacked mediators propagate lower-level failures as source faults, so
/// the upper mediator's own resilience (snapshots included) applies.
#[test]
fn stacked_mediator_survives_lower_level_outage() {
    let dtd = site_dtd();
    // lower mediator: one source that dies after its first clean call
    let mut script = vec![None];
    script.extend(vec![Some(Fault::Unavailable); 32]);
    let inj = FaultInjector::new(
        Arc::new(XmlSource::new(dtd, site_doc(5)).unwrap()),
        FaultPlan::Script(script),
    );
    let mut lower = Mediator::new();
    lower.set_resilience_policy(ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    lower.add_source("s", Arc::new(inj));
    let v = parse_query("lowview = SELECT X WHERE <r> X:<a/> </r>").unwrap();
    lower.register_view("s", &v).unwrap();
    let lower = Arc::new(lower);
    let exported = ViewWrapper::new(Arc::clone(&lower), name("lowview")).unwrap();

    let mut upper = Mediator::new();
    upper.add_source("low", Arc::new(exported));
    let uq = parse_query("top = SELECT X WHERE <lowview> X:<a/> </lowview>").unwrap();
    upper.register_union_view("top", &[("low", uq)]).unwrap();
    // first materialization is clean and captures the upper snapshot
    let (_, report) = upper.materialize_with_report(name("top")).unwrap();
    assert!(report.is_clean());
    // the lower source is now down and the lower mediator does not serve
    // stale — but the *upper* mediator's snapshot keeps the view alive
    let (doc, report) = upper.materialize_with_report(name("top")).unwrap();
    assert_eq!(report.outcomes[0].status, FetchStatus::Stale);
    assert_eq!(doc.root.children().len(), 2);
}

/// A retry budget past 64 doublings saturates the virtual backoff at
/// `u64::MAX` instead of overflowing inside the union worker.
#[test]
fn long_retry_budgets_saturate_the_virtual_backoff() {
    let dtd = site_dtd();
    let flaky = FaultInjector::new(
        Arc::new(XmlSource::new(dtd.clone(), site_doc(0)).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Transient); 71]),
    );
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 70,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("flaky", Arc::new(flaky));
    m.add_source("ok", Arc::new(XmlSource::new(dtd, site_doc(1)).unwrap()));
    m.register_union_view("u", &[("flaky", part_query()), ("ok", part_query())])
        .unwrap();
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    let o = &report.outcomes[0];
    assert_eq!(o.status, FetchStatus::Failed);
    assert_eq!(o.retries, 70);
    assert_eq!(o.backoff_ms, u64::MAX);
    assert_eq!(
        doc.root.children().len(),
        2,
        "the healthy member still serves"
    );
}

/// A report with a failed member keeps the coverage walk: here the root
/// model needs an `a` from each member, and the survivor has one.
#[test]
fn failed_member_the_root_model_requires_breaks_coverage() {
    let dtd = parse_compact("{<r : a+> <a : PCDATA>}").unwrap();
    let doc = || parse_document("<r><a>only</a></r>").unwrap();
    let down = FaultInjector::new(
        Arc::new(XmlSource::new(dtd.clone(), doc()).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Unavailable); 8]),
    );
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("down", Arc::new(down));
    m.add_source("up", Arc::new(XmlSource::new(dtd, doc()).unwrap()));
    m.register_union_view("u", &[("down", part_query()), ("up", part_query())])
        .unwrap();
    let (doc, report) = m.materialize_with_report(name("u")).unwrap();
    assert_eq!(report.failed_sources(), ["down"]);
    assert_eq!(doc.root.children().len(), 1);
    assert!(!report.union_dtd_covers_survivors, "{report}");
}

/// A union `u` of a member that is down for good, a healthy member, both
/// picking the `a`s of `dtd`, and a member picking `b`s that is down too.
/// Stale serving is off, so the down members can only fail.
fn down_up_and_disjoint(dtd: &str) -> (Mediator, Arc<FaultInjector>) {
    let dtd = parse_compact(dtd).unwrap();
    let doc = || parse_document("<r><a>one</a><a>two</a></r>").unwrap();
    let down = FaultInjector::new(
        Arc::new(XmlSource::new(dtd.clone(), doc()).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Unavailable); 8]),
    );
    let bs = parse_compact("{<r : b*> <b : PCDATA>}").unwrap();
    let disjoint = Arc::new(FaultInjector::new(
        Arc::new(XmlSource::new(bs, parse_document("<r><b>x</b></r>").unwrap()).unwrap()),
        FaultPlan::Script(vec![Some(Fault::Unavailable); 8]),
    ));
    let mut m = Mediator::new();
    m.set_resilience_policy(ResiliencePolicy {
        max_retries: 0,
        serve_stale: false,
        ..ResiliencePolicy::default()
    });
    m.add_source("down", Arc::new(down));
    m.add_source("up", Arc::new(XmlSource::new(dtd, doc()).unwrap()));
    m.add_source("bs", Arc::clone(&disjoint) as Arc<dyn Wrapper>);
    let picks_b = parse_query("u = SELECT X WHERE <r> X:<b/> </r>").unwrap();
    m.register_union_view(
        "u",
        &[
            ("down", part_query()),
            ("up", part_query()),
            ("bs", picks_b),
        ],
    )
    .unwrap();
    (m, disjoint)
}

fn member_query() -> Query {
    parse_query("ans = SELECT Y WHERE <u> Y:<a/> </u>").unwrap()
}

/// A composed union answer with a failed member that the root model
/// requires: one outcome per member in union order, the member whose
/// pick test is disjoint from the query `Fresh` and never called, and
/// coverage lost — decided from the failed member's list type `a+`, not
/// by a walk.
#[test]
fn composed_union_with_a_required_failed_member_loses_coverage() {
    let (m, disjoint) = down_up_and_disjoint("{<r : a+> <a : PCDATA>}");
    let a = m.query(&member_query()).unwrap();
    assert_eq!(a.path, AnswerPath::Composed);
    assert_eq!(a.document.root.children().len(), 2);
    let report = a.degradation.expect("a failed member degrades the answer");
    let statuses: Vec<(&str, FetchStatus)> = report
        .outcomes
        .iter()
        .map(|o| (o.source.as_str(), o.status))
        .collect();
    assert_eq!(
        statuses,
        [
            ("down", FetchStatus::Failed),
            ("up", FetchStatus::Fresh),
            ("bs", FetchStatus::Fresh)
        ]
    );
    assert_eq!(disjoint.calls(), 0, "the disjoint member was called");
    assert!(!report.union_dtd_covers_survivors, "{report}");
}

/// The same with `a*`: the root model does without the failed member's
/// contribution, so the view DTD still covers the survivors.
#[test]
fn composed_union_with_a_nullable_failed_member_keeps_coverage() {
    let (m, _) = down_up_and_disjoint("{<r : a*> <a : PCDATA>}");
    let a = m.query(&member_query()).unwrap();
    assert_eq!(a.path, AnswerPath::Composed);
    let report = a.degradation.expect("a failed member degrades the answer");
    assert_eq!(report.failed_sources(), ["down"]);
    assert!(report.union_dtd_covers_survivors, "{report}");
}

/// A degraded composed union answers what materialize-then-evaluate over
/// the surviving members answers, byte for byte.
#[test]
fn degraded_composed_union_equals_materialize_then_evaluate() {
    let (composing, _) = down_up_and_disjoint("{<r : a*> <a : PCDATA>}");
    let (materializing, _) = down_up_and_disjoint("{<r : a*> <a : PCDATA>}");
    let render = |d: &Document| write_document(d, WriteConfig::default());
    let composed = composing.query(&member_query()).unwrap();
    let (view, report) = materializing.materialize_with_report(name("u")).unwrap();
    let materialized = evaluate(&member_query(), &view);
    assert_eq!(composed.path, AnswerPath::Composed);
    assert_eq!(render(&composed.document), render(&materialized));
    assert_eq!(report.failed_sources(), ["down", "bs"]);
}
