//! The replica-aware federation tier (DESIGN.md §12).
//!
//! The paper's headline scenario unions "the structures exported by 100
//! sites" as one view. `mixctl federate --topology` serves that view
//! from one [`crate::Mediator`] whose union members are replicated
//! sources:
//!
//! * [`Topology`] — the cluster description (one
//!   `source name = addr, addr` line per source, in union order),
//! * [`ReplicaSet`] — a [`Wrapper`] routing each call to the first
//!   healthy replica, with one circuit breaker ([`Health`]) per replica:
//!   open breakers are skipped, live failures fail over to the next
//!   replica, and only when *every* replica is down does the error
//!   surface — at which point the outer resilience layer's last good
//!   answer is the last line of defense,
//! * [`DeadReplica`] — the stand-in for a replica that was unreachable
//!   at start-up, so failover order matches the configuration.
//!
//! Everything stays deterministic: replica order is configuration
//! order, breaker cooldowns count rejected calls (not wall time), and
//! transport errors carry no OS text — a chaos run that kills a replica
//! mid-batch produces the same bytes as a fault-free run.

use crate::error::SourceError;
use crate::obs::ReplicaInstruments;
use crate::resilience::{BreakerGate, BreakerState, Health};
use crate::source::Wrapper;
use mix_xmas::Query;
use mix_xml::Document;
use std::fmt;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Topology configuration
// ---------------------------------------------------------------------

/// A parsed cluster topology: the replica addresses of every source, in
/// union (file) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The sources, in file order — which is the union order of the
    /// federated view.
    pub sources: Vec<SourceSpec>,
}

/// One source line of a topology file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// The source's registered name.
    pub name: String,
    /// Replica addresses (`host:port`), in failover preference order.
    pub replicas: Vec<String>,
}

/// Why a topology file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A line that is neither a comment, `nodes N`, nor `source … = …`,
    /// or a `source` line whose name or addresses are malformed.
    Garbage {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// Two `source` lines share a name.
    DuplicateSource(String),
    /// A `source` line with no replica addresses.
    NoReplicas(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Garbage { line, text } => {
                write!(f, "topology line {line}: cannot parse '{text}'")
            }
            TopologyError::DuplicateSource(name) => {
                write!(f, "topology declares source '{name}' twice")
            }
            TopologyError::NoReplicas(name) => {
                write!(f, "topology source '{name}' lists no replica addresses")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Parses the topology format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// nodes 2
    /// source site0 = 127.0.0.1:7001, 127.0.0.1:7002
    /// source site1 = 127.0.0.1:7003
    /// ```
    ///
    /// Source lines keep file order (the union order); replica addresses
    /// keep list order (the failover preference order). A `nodes N` line
    /// with a positive N is accepted and ignored: one mediator serves
    /// every source.
    pub fn parse(text: &str) -> Result<Topology, TopologyError> {
        let mut sources: Vec<SourceSpec> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let garbage = || TopologyError::Garbage {
                line: i + 1,
                text: line.to_owned(),
            };
            // keywords are whole words: `sourcery = …` is not a source
            let (keyword, rest) = line.split_once(char::is_whitespace).ok_or_else(garbage)?;
            match keyword {
                "nodes" => {
                    rest.trim()
                        .parse::<std::num::NonZeroUsize>()
                        .map_err(|_| garbage())?;
                }
                "source" => {
                    let (name, addrs) = rest.split_once('=').ok_or_else(garbage)?;
                    let name = name.trim();
                    if name.is_empty() || name.contains(char::is_whitespace) {
                        return Err(garbage());
                    }
                    if sources.iter().any(|s| s.name == name) {
                        return Err(TopologyError::DuplicateSource(name.to_owned()));
                    }
                    let replicas: Vec<String> = addrs
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_owned)
                        .collect();
                    // a missing comma would otherwise join two addresses
                    // into one unreachable replica
                    if replicas
                        .iter()
                        .any(|a| a.contains(|c: char| c.is_whitespace() || c == '='))
                    {
                        return Err(garbage());
                    }
                    if replicas.is_empty() {
                        return Err(TopologyError::NoReplicas(name.to_owned()));
                    }
                    sources.push(SourceSpec {
                        name: name.to_owned(),
                        replicas,
                    });
                }
                _ => return Err(garbage()),
            }
        }
        Ok(Topology { sources })
    }
}

// ---------------------------------------------------------------------
// Replica sets
// ---------------------------------------------------------------------

/// Breaker knobs for one replica set. Separate from
/// [`crate::ResiliencePolicy`] because the replica router wants a hair
/// trigger: the point of a second replica is to take over on the *first*
/// failure, while the outer per-source breaker can afford to absorb a
/// few.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaPolicy {
    /// Consecutive source faults that open a replica's breaker.
    pub failure_threshold: u32,
    /// Calls skipped past an open replica before its breaker half-opens
    /// and the replica is probed again.
    pub cooldown_calls: u32,
}

impl Default for ReplicaPolicy {
    fn default() -> Self {
        ReplicaPolicy {
            failure_threshold: 1,
            cooldown_calls: 4,
        }
    }
}

/// A stand-in for a replica that was unreachable when the topology was
/// wired up: it holds the position (and advertised DTD) of the real
/// replica and fails every call with the same deterministic message a
/// refused connection produces, so the replica set's failover order —
/// and therefore every report — matches a run where the replica died
/// one call later.
pub struct DeadReplica {
    addr: String,
    dtd: mix_dtd::Dtd,
}

impl DeadReplica {
    /// A dead replica at `addr`, advertising `dtd` (cloned from a live
    /// sibling).
    pub fn new(addr: &str, dtd: mix_dtd::Dtd) -> DeadReplica {
        DeadReplica {
            addr: addr.to_owned(),
            dtd,
        }
    }
}

impl Wrapper for DeadReplica {
    fn dtd(&self) -> &mix_dtd::Dtd {
        &self.dtd
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        Err(SourceError::Unavailable(format!(
            "{}: connection refused",
            self.addr
        )))
    }
}

/// A [`Wrapper`] fronting several replicas of one source with
/// health-driven routing.
///
/// Calls try the replicas in configuration order. A replica whose
/// breaker is open is skipped without being contacted; a live call that
/// fails with a *source fault* opens the replica's breaker accounting
/// and fails over to the next replica; a [`SourceError::Throttled`] or
/// [`SourceError::Incompatible`] reply also fails over but leaves the
/// breaker untouched (the replica is alive — it is shedding load, or
/// misdeployed; neither is sickness). A [`SourceError::Query`] error
/// returns immediately: the query is the caller's fault and every
/// replica would reject it identically.
///
/// The set holds **no stale answers** of its own: when every replica is
/// down the last error surfaces, and the outer
/// [`crate::resilience::resilient_answer`] layer — which sees the
/// replica set as one source — serves its last good answer to the query. That division
/// implements the tier's contract: stale data only when *all* replicas
/// of a source are down.
pub struct ReplicaSet {
    source: String,
    replicas: Vec<Arc<dyn Wrapper>>,
    health: Vec<Mutex<Health>>,
    policy: ReplicaPolicy,
    obs: ReplicaInstruments,
    dtd: mix_dtd::Dtd,
}

impl ReplicaSet {
    /// Wires up a replica set. Fails when no replicas are given, or when
    /// the replicas advertise inequivalent DTDs — serving a query
    /// normalized against one schema from a replica exporting another
    /// would silently produce wrong members.
    pub fn new(
        source: &str,
        replicas: Vec<Arc<dyn Wrapper>>,
        policy: ReplicaPolicy,
        obs: ReplicaInstruments,
    ) -> Result<ReplicaSet, SourceError> {
        let first = replicas.first().ok_or_else(|| {
            SourceError::Unavailable(format!("no replicas configured for '{source}'"))
        })?;
        let dtd = first.dtd().clone();
        for (i, r) in replicas.iter().enumerate().skip(1) {
            if !mix_dtd::same_documents(&dtd, r.dtd()) {
                return Err(SourceError::Incompatible(format!(
                    "replica {i} of '{source}' exports a DTD inequivalent to replica 0's"
                )));
            }
        }
        let health = replicas.iter().map(|_| Mutex::new(Health::new())).collect();
        Ok(ReplicaSet {
            source: source.to_owned(),
            replicas,
            health,
            policy,
            obs,
            dtd,
        })
    }

    /// The number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set has no replicas (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Per-replica breaker states, in configuration order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.health
            .iter()
            .map(|h| {
                h.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .state()
            })
            .collect()
    }

    /// Publishes the count of replicas whose breaker is not open.
    fn publish_healthy(&self) {
        let live = self
            .health
            .iter()
            .filter(|h| {
                h.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .state()
                    != BreakerState::Open
            })
            .count();
        self.obs.healthy.set(live as i64);
    }

    /// Routes one call to the first replica that serves it.
    fn route(
        &self,
        call: &dyn Fn(&dyn Wrapper) -> Result<Document, SourceError>,
    ) -> Result<Document, SourceError> {
        let mut last_err: Option<SourceError> = None;
        let mut passed_over = false;
        for (i, (w, h)) in self.replicas.iter().zip(&self.health).enumerate() {
            let gate = h
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .gate(self.policy.cooldown_calls);
            if gate == BreakerGate::Reject {
                passed_over = true;
                last_err.get_or_insert_with(|| {
                    SourceError::Unavailable(format!(
                        "circuit open for replica {i} of '{}'",
                        self.source
                    ))
                });
                continue;
            }
            match call(&**w) {
                Ok(doc) => {
                    let reclosed = h
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .record_success();
                    if reclosed {
                        self.obs
                            .event("replica-recover", &format!("replica {i} probe succeeded"));
                    }
                    if let Some(served) = self.obs.served.get(i) {
                        served.inc();
                    }
                    if passed_over {
                        self.obs.failovers.inc();
                        self.obs.event(
                            "replica-failover",
                            &format!("served by replica {i} after earlier replicas failed"),
                        );
                    }
                    self.publish_healthy();
                    return Ok(doc);
                }
                // the caller's fault, identically rejected everywhere —
                // do not burn the other replicas on it
                Err(e @ SourceError::Query(_)) => return Err(e),
                Err(e) => {
                    if e.is_source_fault() {
                        h.lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .record_failure(self.policy.failure_threshold);
                    }
                    passed_over = true;
                    last_err = Some(e);
                }
            }
        }
        self.obs.exhausted.inc();
        self.obs.event(
            "replica-exhausted",
            "every replica failed or was circuit-open",
        );
        self.publish_healthy();
        Err(last_err.unwrap_or_else(|| {
            SourceError::Unavailable(format!("no replicas configured for '{}'", self.source))
        }))
    }
}

impl Wrapper for ReplicaSet {
    fn dtd(&self) -> &mix_dtd::Dtd {
        &self.dtd
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        self.route(&|w| w.fetch())
    }

    fn answer(&self, q: &Query) -> Result<Document, SourceError> {
        self.route(&|w| w.answer(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector, FaultPlan};
    use crate::mediator::{Mediator, ProcessorConfig};
    use crate::resilience::FetchStatus;
    use crate::source::XmlSource;
    use mix_dtd::parse_compact;
    use mix_obs::Registry;
    use mix_relang::symbol::name;
    use mix_xmas::parse_query;
    use mix_xml::{parse_document, write_document, WriteConfig};

    fn site_source(tag: &str, entries: usize) -> XmlSource {
        let dtd = parse_compact("{<site : entry*> <entry : PCDATA>}").unwrap();
        let body: String = (0..entries)
            .map(|i| format!("<entry>{tag}{i}</entry>"))
            .collect();
        let doc = parse_document(&format!("<site>{body}</site>")).unwrap();
        XmlSource::new(dtd, doc).unwrap()
    }

    fn part_query() -> Query {
        parse_query("all = SELECT X WHERE <site> X:<entry/> </site>").unwrap()
    }

    fn render(doc: &Document) -> String {
        write_document(doc, WriteConfig::default())
    }

    /// `m` with a union view `all` over `members`, in order — the shape
    /// `mixctl federate --topology` builds from a topology file.
    fn with_union(mut m: Mediator, members: Vec<(String, Arc<dyn Wrapper>, Query)>) -> Mediator {
        for (source, wrapper, _) in &members {
            m.add_source(source, Arc::clone(wrapper));
        }
        let parts: Vec<(&str, Query)> = members
            .iter()
            .map(|(source, _, q)| (source.as_str(), q.clone()))
            .collect();
        m.register_union_view("all", &parts).unwrap();
        m
    }

    /// Bare sources `site0`..`site3` (site `i` holds `i + 1` entries),
    /// member `i` asking `query(i)`.
    fn plain_sites(query: impl Fn(usize) -> Query) -> Vec<(String, Arc<dyn Wrapper>, Query)> {
        (0..4)
            .map(|i| {
                let s = format!("site{i}");
                let w: Arc<dyn Wrapper> = Arc::new(site_source(&s, i + 1));
                (s, w, query(i))
            })
            .collect()
    }

    #[test]
    fn topology_parses_nodes_sources_and_comments() {
        let topo = Topology::parse(
            "# cluster\n\
             nodes 2\n\
             \n\
             source site0 = 127.0.0.1:7001, 127.0.0.1:7002\n\
             source site1 = 127.0.0.1:7003\n",
        )
        .unwrap();
        assert_eq!(topo.sources.len(), 2);
        assert_eq!(topo.sources[0].name, "site0");
        assert_eq!(
            topo.sources[0].replicas,
            vec!["127.0.0.1:7001", "127.0.0.1:7002"]
        );
        assert_eq!(topo.sources[1].replicas, vec!["127.0.0.1:7003"]);
        // `nodes N` is optional and changes nothing
        let without_nodes = Topology::parse(
            "source site0 = 127.0.0.1:7001, 127.0.0.1:7002
             source site1 = 127.0.0.1:7003
",
        );
        assert_eq!(without_nodes, Ok(topo));
    }

    #[test]
    fn topology_rejects_malformed_input() {
        let garbage_at = |text: &str| match Topology::parse(text) {
            Err(TopologyError::Garbage { line, .. }) => line,
            other => panic!("{text:?} parsed as {other:?}"),
        };
        assert_eq!(garbage_at("nodes 0\n"), 1);
        assert_eq!(garbage_at("nodes 1\nwat\n"), 2);
        // keywords are whole words
        assert_eq!(garbage_at("nodes2\n"), 1);
        assert_eq!(garbage_at("nodes 1\nsourcery = 127.0.0.1:1\n"), 2);
        // a missing comma or a stray '=' is not one replica address
        assert_eq!(
            garbage_at("nodes 1\nsource s = 127.0.0.1:1 127.0.0.1:2\n"),
            2
        );
        assert_eq!(garbage_at("source s = 127.0.0.1:1, t = 127.0.0.1:2\n"), 1);
        assert_eq!(
            Topology::parse("nodes 1\nsource s = a:1\nsource s = b:2\n"),
            Err(TopologyError::DuplicateSource("s".into()))
        );
        assert_eq!(
            Topology::parse("nodes 1\nsource s = \n"),
            Err(TopologyError::NoReplicas("s".into()))
        );
    }

    #[test]
    fn replica_set_fails_over_and_heals() {
        // replica 0 dies after its first success; replica 1 is steady
        let mut script = vec![None];
        script.extend(vec![Some(Fault::Unavailable); 2]);
        script.push(None); // the eventual probe succeeds
        let flaky = FaultInjector::new(Arc::new(site_source("a", 2)), FaultPlan::Script(script));
        let steady = Arc::new(site_source("a", 2));
        let registry = Registry::new();
        let set = ReplicaSet::new(
            "s",
            vec![Arc::new(flaky), steady],
            ReplicaPolicy {
                failure_threshold: 1,
                cooldown_calls: 2,
            },
            ReplicaInstruments::new(&registry, "s", 2),
        )
        .unwrap();
        let expected = render(&site_source("a", 2).fetch().unwrap());
        // call 1: replica 0 serves
        assert_eq!(render(&set.fetch().unwrap()), expected);
        // call 2: replica 0 faults (breaker opens), replica 1 takes over
        assert_eq!(render(&set.fetch().unwrap()), expected);
        assert_eq!(
            set.breaker_states(),
            vec![BreakerState::Open, BreakerState::Closed]
        );
        // call 3: replica 0 skipped without contact (cooldown 2)
        assert_eq!(render(&set.fetch().unwrap()), expected);
        // call 4 half-opens replica 0; its probe still faults -> re-open
        assert_eq!(render(&set.fetch().unwrap()), expected);
        assert_eq!(set.breaker_states()[0], BreakerState::Open);
        // call 5 cools it down again; call 6's probe succeeds
        assert_eq!(render(&set.fetch().unwrap()), expected);
        assert_eq!(render(&set.fetch().unwrap()), expected);
        assert_eq!(set.breaker_states()[0], BreakerState::Closed);
        let snap = registry.snapshot();
        assert!(snap.counters[r#"replica_failovers_total{source="s"}"#] >= 3);
        assert_eq!(snap.gauges[r#"replica_healthy{source="s"}"#], 2);
        assert!(snap.counters[r#"replica_served_total{source="s",replica="1"}"#] >= 3);
        assert!(snap.events.iter().any(|e| e.kind == "replica-failover"));
        assert!(snap.events.iter().any(|e| e.kind == "replica-recover"));
    }

    #[test]
    fn exhausted_replica_set_surfaces_the_last_error() {
        let dead0 = DeadReplica::new("h:1", site_source("a", 1).dtd().clone());
        let dead1 = DeadReplica::new("h:2", site_source("a", 1).dtd().clone());
        let registry = Registry::new();
        let set = ReplicaSet::new(
            "s",
            vec![Arc::new(dead0), Arc::new(dead1)],
            ReplicaPolicy::default(),
            ReplicaInstruments::new(&registry, "s", 2),
        )
        .unwrap();
        match set.fetch() {
            Err(SourceError::Unavailable(msg)) => assert_eq!(msg, "h:2: connection refused"),
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters[r#"replica_exhausted_total{source="s"}"#], 1);
        assert_eq!(snap.gauges[r#"replica_healthy{source="s"}"#], 0);
    }

    #[test]
    fn throttled_replies_fail_over_without_breaker_accounting() {
        struct Shedding {
            inner: XmlSource,
        }
        impl Wrapper for Shedding {
            fn dtd(&self) -> &mix_dtd::Dtd {
                self.inner.dtd()
            }
            fn fetch(&self) -> Result<Document, SourceError> {
                Err(SourceError::Throttled { retry_after_ms: 50 })
            }
        }
        let shedding = Shedding {
            inner: site_source("a", 2),
        };
        let set = ReplicaSet::new(
            "s",
            vec![Arc::new(shedding), Arc::new(site_source("a", 2))],
            ReplicaPolicy {
                failure_threshold: 1,
                cooldown_calls: 2,
            },
            ReplicaInstruments::noop("s", 2),
        )
        .unwrap();
        for _ in 0..3 {
            assert!(set.fetch().is_ok());
            // shedding is not sickness: the breaker stays closed, so the
            // replica is retried (not cooled down) on every call
            assert_eq!(
                set.breaker_states(),
                vec![BreakerState::Closed, BreakerState::Closed]
            );
        }
    }

    #[test]
    fn query_rejections_return_immediately() {
        let set = ReplicaSet::new(
            "s",
            vec![Arc::new(site_source("a", 1)), Arc::new(site_source("a", 1))],
            ReplicaPolicy::default(),
            ReplicaInstruments::noop("s", 2),
        )
        .unwrap();
        let bad = parse_query("all = SELECT Z WHERE <site> X:<entry/> </site>").unwrap();
        assert!(matches!(set.answer(&bad), Err(SourceError::Query(_))));
    }

    #[test]
    fn mismatched_replica_dtds_are_rejected() {
        let other = XmlSource::new(
            parse_compact("{<site : entry+> <entry : PCDATA>}").unwrap(),
            parse_document("<site><entry>x</entry></site>").unwrap(),
        )
        .unwrap();
        let err = match ReplicaSet::new(
            "s",
            vec![Arc::new(site_source("a", 1)), Arc::new(other)],
            ReplicaPolicy::default(),
            ReplicaInstruments::noop("s", 2),
        ) {
            Ok(_) => panic!("inequivalent replica DTDs must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, SourceError::Incompatible(_)));
    }

    /// Satisfiability pruning over replica sets: members with
    /// provably-Unsat queries are skipped before any replica is called,
    /// and the answer stays byte-identical to an unpruned run.
    #[test]
    fn unsat_members_are_skipped_before_any_fetch() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CountingSource {
            inner: XmlSource,
            fetches: Arc<AtomicUsize>,
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

        // <entry> is PCDATA, so a child step under it is provably Unsat;
        // the first `sat_members` members ask the satisfiable query
        let query = |i: usize, sat_members: usize| {
            if i < sat_members {
                part_query()
            } else {
                parse_query("all = SELECT X WHERE <site> <entry> X:<deep/> </entry> </site>")
                    .unwrap()
            }
        };
        let pruning = |fetches: &Arc<AtomicUsize>, registry: &Registry, sat_members: usize| {
            let members = (0..4)
                .map(|i| {
                    let s = format!("site{i}");
                    let counting: Arc<dyn Wrapper> = Arc::new(CountingSource {
                        inner: site_source(&s, i + 1),
                        fetches: Arc::clone(fetches),
                    });
                    let set = ReplicaSet::new(
                        &s,
                        vec![counting],
                        ReplicaPolicy::default(),
                        ReplicaInstruments::new(registry, &s, 1),
                    )
                    .unwrap();
                    let w: Arc<dyn Wrapper> = Arc::new(set);
                    (s, w, query(i, sat_members))
                })
                .collect();
            let m = Mediator::with_registry(ProcessorConfig::default(), registry.clone());
            with_union(m, members)
        };
        // reference: an unpruned mediator over the bare sources
        let reference = |sat_members: usize| -> Document {
            let m = Mediator::with_config(ProcessorConfig {
                use_sat_pruning: false,
            });
            with_union(m, plain_sites(|i| query(i, sat_members)))
                .materialize(name("all"))
                .unwrap()
        };

        // every member Unsat: zero fetches anywhere
        let fetches = Arc::new(AtomicUsize::new(0));
        let registry = Registry::new();
        let m = pruning(&fetches, &registry, 0);
        let (doc, report) = m.materialize_with_report(name("all")).unwrap();
        assert_eq!(render(&doc), render(&reference(0)));
        assert_eq!(fetches.load(Ordering::SeqCst), 0, "no member may fetch");
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.is_clean(), "pruned members report fresh: {report}");
        assert_eq!(registry.snapshot().counters["sat_pruned_total"], 4);

        // mixed: only the satisfiable member fetches, bytes still match
        let fetches = Arc::new(AtomicUsize::new(0));
        let registry = Registry::new();
        let m = pruning(&fetches, &registry, 1);
        let (doc, _) = m.materialize_with_report(name("all")).unwrap();
        assert_eq!(render(&doc), render(&reference(1)));
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one Sat member fetches");
        assert_eq!(registry.snapshot().counters["sat_pruned_total"], 3);
    }

    /// A killed replica is invisible in the answer: the replica set fails
    /// over, the member serves fresh, and the bytes match the fault-free
    /// run over bare sources.
    #[test]
    fn replica_failure_keeps_the_federated_answer_byte_identical() {
        let single = with_union(Mediator::new(), plain_sites(|_| part_query()));
        let (single_doc, _) = single.materialize_with_report(name("all")).unwrap();

        let registry = Registry::new();
        let members = (0..4)
            .map(|i| {
                let s = format!("site{i}");
                // replica 0 of site1 is dead from the start; every set
                // still has a live replica
                let replicas: Vec<Arc<dyn Wrapper>> = if i == 1 {
                    vec![
                        Arc::new(FaultInjector::new(
                            Arc::new(site_source(&s, i + 1)),
                            FaultPlan::Script(vec![Some(Fault::Unavailable); 100]),
                        )),
                        Arc::new(site_source(&s, i + 1)),
                    ]
                } else {
                    vec![
                        Arc::new(site_source(&s, i + 1)),
                        Arc::new(site_source(&s, i + 1)),
                    ]
                };
                let set = ReplicaSet::new(
                    &s,
                    replicas,
                    ReplicaPolicy::default(),
                    ReplicaInstruments::new(&registry, &s, 2),
                )
                .unwrap();
                let w: Arc<dyn Wrapper> = Arc::new(set);
                (s, w, part_query())
            })
            .collect();
        let m = with_union(
            Mediator::with_registry(ProcessorConfig::default(), registry.clone()),
            members,
        );
        for _ in 0..3 {
            let (doc, report) = m.materialize_with_report(name("all")).unwrap();
            assert_eq!(render(&doc), render(&single_doc));
            assert!(report.is_clean(), "failover must be invisible: {report}");
        }
        let snap = registry.snapshot();
        assert!(snap.counters[r#"replica_failovers_total{source="site1"}"#] >= 1);
    }

    /// Stale snapshots only when ALL replicas of a source are down: with
    /// one replica alive the answer is fresh; once both die, the outer
    /// resilience layer serves its snapshot and marks the member stale.
    #[test]
    fn stale_fallback_engages_only_when_every_replica_is_down() {
        // both replicas: 2 healthy calls, then dead forever
        let dying = |tag: &str| -> Arc<dyn Wrapper> {
            let mut script = vec![None, None];
            script.extend(vec![Some(Fault::Unavailable); 100]);
            Arc::new(FaultInjector::new(
                Arc::new(site_source(tag, 2)),
                FaultPlan::Script(script),
            ))
        };
        // replica 1 stays alive one call longer
        let mut script = vec![None, None, None];
        script.extend(vec![Some(Fault::Unavailable); 100]);
        let longer: Arc<dyn Wrapper> = Arc::new(FaultInjector::new(
            Arc::new(site_source("a", 2)),
            FaultPlan::Script(script),
        ));
        let set = ReplicaSet::new(
            "s",
            vec![dying("a"), longer],
            ReplicaPolicy {
                failure_threshold: 1,
                cooldown_calls: 100, // dead replicas stay parked
            },
            ReplicaInstruments::noop("s", 2),
        )
        .unwrap();
        let mut m = Mediator::new();
        m.add_source("s", Arc::new(set));
        m.register_union_view("all", &[("s", part_query())])
            .unwrap();
        // call 1: replica 0 serves fresh (and the outer layer snapshots)
        let (_, r) = m.materialize_with_report(name("all")).unwrap();
        assert_eq!(r.outcomes[0].status, FetchStatus::Fresh);
        // call 2: replica 0's script still serves (position 1)
        let (_, r) = m.materialize_with_report(name("all")).unwrap();
        assert_eq!(r.outcomes[0].status, FetchStatus::Fresh, "{r}");
        // later calls: both replicas dead -> outer layer serves stale
        let mut saw_stale = false;
        for _ in 0..4 {
            let (_, r) = m.materialize_with_report(name("all")).unwrap();
            if r.outcomes[0].status == FetchStatus::Stale {
                saw_stale = true;
            }
        }
        assert!(saw_stale, "all-replicas-down must degrade to stale");
    }
}
