//! End-to-end tests for the replica-aware federation tier: one mediator
//! whose union members are replica sets over loopback `serve-source`
//! daemons — the shape `mixctl federate --topology` builds.
//!
//! The chaos scenario: 4 sources × 2 replicas serve a federated union
//! view in a batch loop; one replica is killed mid-batch. Every answer —
//! before, at, and after the kill — must be byte-identical to a
//! fault-free run over the bare sources, because the replica set fails
//! over inside the member call and the member still serves fresh.

use mix::prelude::*;
use std::sync::Arc;

const SITE_DTD: &str = "{<site : entry*> <entry : PCDATA>}";

fn site_doc(tag: &str, entries: usize) -> Document {
    let body: String = (0..entries)
        .map(|i| format!("<entry>{tag}{i}</entry>"))
        .collect();
    parse_document(&format!("<site>{body}</site>")).unwrap()
}

fn site_source(tag: &str, entries: usize) -> XmlSource {
    XmlSource::new(parse_compact(SITE_DTD).unwrap(), site_doc(tag, entries)).unwrap()
}

fn spawn_daemon(tag: &str, entries: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        Arc::new(WrapperService::new(site_source(tag, entries))),
        ServerConfig::default(),
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn daemon")
}

fn part_query() -> Query {
    parse_query("all = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
}

fn render(doc: &Document) -> String {
    write_document(doc, WriteConfig::default())
}

/// The chaos scenario, in process: 4 sources × 2 replicas, one replica
/// killed mid-batch, every answer byte-identical to the fault-free run
/// over the bare sources.
#[test]
fn replica_kill_mid_batch_is_invisible_in_the_answer_bytes() {
    // the fault-free reference over the bare sources
    let mut single = Mediator::new();
    let mut parts_single = Vec::new();
    for i in 0..4 {
        let s = format!("site{i}");
        single.add_source(&s, Arc::new(site_source(&s, i + 2)));
        parts_single.push((s, part_query()));
    }
    let refs: Vec<(&str, Query)> = parts_single
        .iter()
        .map(|(s, q)| (s.as_str(), q.clone()))
        .collect();
    single.register_union_view("all", &refs).unwrap();
    let (single_doc, single_report) = single.materialize_with_report(name("all")).unwrap();
    assert!(single_report.is_clean());
    let expected = render(&single_doc);

    // the cluster: every source served by two replica daemons (Option so
    // the chaos kill can move the handle out mid-batch)
    let mut daemons: Vec<Vec<Option<ServerHandle>>> = Vec::new();
    for i in 0..4 {
        let s = format!("site{i}");
        daemons.push(vec![
            Some(spawn_daemon(&s, i + 2)),
            Some(spawn_daemon(&s, i + 2)),
        ]);
    }
    let registry = Registry::new();
    let mut fed = Mediator::with_registry(ProcessorConfig::default(), registry.clone());
    for (i, replica_daemons) in daemons.iter().enumerate() {
        let s = format!("site{i}");
        let replicas: Vec<Arc<dyn Wrapper>> = replica_daemons
            .iter()
            .map(|d| {
                let addr = d.as_ref().expect("daemon alive").addr().to_string();
                Arc::new(RemoteWrapper::connect(&addr).expect("replica reachable"))
                    as Arc<dyn Wrapper>
            })
            .collect();
        let set = ReplicaSet::new(
            &s,
            replicas,
            ReplicaPolicy::default(),
            ReplicaInstruments::new(&registry, &s, 2),
        )
        .expect("replica DTDs agree");
        fed.add_source(&s, Arc::new(set));
    }
    fed.register_union_view("all", &refs).unwrap();

    const BATCH: usize = 6;
    for k in 0..BATCH {
        if k == BATCH / 2 {
            // the chaos event: replica 0 of site2 dies mid-batch, taking
            // its pooled connection down with it
            daemons[2][0].take().expect("not yet killed").shutdown();
        }
        let (doc, report) = fed
            .materialize_with_report(name("all"))
            .expect("cluster serves");
        assert_eq!(
            render(&doc),
            expected,
            "batch answer {k} diverged from the fault-free reference"
        );
        assert!(
            report.is_clean(),
            "failover must keep the report clean (batch {k}): {report}"
        );
    }

    let snap = registry.snapshot();
    assert!(
        snap.counters[r#"replica_failovers_total{source="site2"}"#] >= 1,
        "the kill must be visible as failover traffic in mix-obs"
    );
    assert_eq!(
        snap.counters
            .get(r#"replica_exhausted_total{source="site2"}"#)
            .copied()
            .unwrap_or(0),
        0,
        "the surviving replica must keep the set un-exhausted"
    );

    for replicas in &mut daemons {
        for d in replicas.iter_mut().filter_map(Option::take) {
            d.shutdown();
        }
    }
}

/// All replicas of one source down → that member degrades exactly like a
/// single dead source in a plain federation (partial answer, failed
/// member in the report), while the other members keep serving fresh.
#[test]
fn all_replicas_down_degrades_like_a_single_dead_source() {
    let policy = ResiliencePolicy {
        serve_stale: false,
        ..ResiliencePolicy::default()
    };
    let registry = Registry::new();
    let mut fed = Mediator::with_registry(ProcessorConfig::default(), registry.clone());
    let mut parts = Vec::new();
    let mut doomed = Vec::new();
    for i in 0..3 {
        let s = format!("site{i}");
        let wrapper: Arc<dyn Wrapper> = if i == 1 {
            // both replicas of site1 are daemons we kill before the run
            let d0 = spawn_daemon(&s, 3);
            let d1 = spawn_daemon(&s, 3);
            let replicas: Vec<Arc<dyn Wrapper>> = vec![
                Arc::new(RemoteWrapper::connect(&d0.addr().to_string()).unwrap()),
                Arc::new(RemoteWrapper::connect(&d1.addr().to_string()).unwrap()),
            ];
            doomed.push(d0);
            doomed.push(d1);
            Arc::new(
                ReplicaSet::new(
                    &s,
                    replicas,
                    ReplicaPolicy::default(),
                    ReplicaInstruments::new(&registry, &s, 2),
                )
                .unwrap(),
            )
        } else {
            Arc::new(site_source(&s, 3))
        };
        fed.add_source(&s, wrapper);
        parts.push((s, part_query()));
    }
    let refs: Vec<(&str, Query)> = parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
    fed.register_union_view("all", &refs).unwrap();
    fed.set_resilience_policy(policy);
    for d in doomed {
        d.shutdown();
    }
    let (doc, report) = fed
        .materialize_with_report(name("all"))
        .expect("partial answer served");
    assert!(!report.is_clean());
    assert_eq!(report.failed_sources(), vec!["site1"]);
    assert!(report.union_dtd_covers_survivors);
    let text = render(&doc);
    assert!(text.contains("site00"), "live members must still serve");
    assert!(
        !text.contains("site10"),
        "the dead member must contribute nothing"
    );
    let snap = registry.snapshot();
    assert!(snap.counters[r#"replica_exhausted_total{source="site1"}"#] >= 1);
    assert_eq!(snap.gauges[r#"replica_healthy{source="site1"}"#], 0);
}
