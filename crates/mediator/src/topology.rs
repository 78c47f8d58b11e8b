//! The sharded, replica-aware federation tier (DESIGN.md §12).
//!
//! The paper's headline scenario unions "the structures exported by 100
//! sites" — at that scale one mediator process is both a bottleneck and
//! a single point of failure. This module spreads the member sources of
//! one federated union view across N mediator *nodes* and makes each
//! source a *replica set*:
//!
//! * [`Topology`] — the cluster description (`nodes N` plus one
//!   `source name = addr, addr` line per source, in union order),
//! * [`HashRing`] — consistent hashing of source names onto nodes, so
//!   growing the cluster only moves the sources landing on the new node,
//! * [`ReplicaSet`] — a [`Wrapper`] routing each call to the first
//!   healthy replica, with one circuit breaker ([`Health`]) per replica:
//!   open breakers are skipped, live failures fail over to the next
//!   replica, and only when *every* replica is down does the error
//!   surface — at which point the outer resilience layer's stale
//!   snapshot is the last line of defense,
//! * [`Federation`] — per-shard [`Mediator`]s whose members reassemble
//!   in global union order, so the federated answer is byte-identical
//!   to a single-node run over the same sources, and whose per-shard
//!   inferred view DTDs compose ([`compose_union_views`]) into the same
//!   global view DTD a single node would infer.
//!
//! Everything stays deterministic: replica order is configuration
//! order, breaker cooldowns count rejected calls (not wall time), and
//! transport errors carry no OS text — a chaos run that kills a replica
//! mid-batch produces the same bytes as a fault-free single-node run.

use crate::error::SourceError;
use crate::mediator::{Mediator, MediatorError, ProcessorConfig, UnionView};
use crate::obs::ReplicaInstruments;
use crate::resilience::{
    BreakerGate, BreakerState, DegradationReport, FetchStatus, Health, ResiliencePolicy,
    SourceOutcome,
};
use crate::source::Wrapper;
use mix_infer::{compose_union_views, InferredUnionView};
use mix_obs::Registry;
use mix_relang::symbol::Name;
use mix_xmas::Query;
use mix_xml::{Content, Document, ElemId, Element};
use std::fmt;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Topology configuration
// ---------------------------------------------------------------------

/// A parsed cluster topology: how many mediator nodes, and the replica
/// addresses of every source, in union (file) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The number of mediator nodes sources are sharded across.
    pub nodes: usize,
    /// The sources, in file order — which is the global union order of
    /// the federated view.
    pub sources: Vec<SourceSpec>,
}

/// One source line of a topology file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// The source's registered name (also its shard-routing key).
    pub name: String,
    /// Replica addresses (`host:port`), in failover preference order.
    pub replicas: Vec<String>,
}

/// Why a topology file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No `nodes N` line (or N = 0).
    MissingNodes,
    /// A line that is neither a comment, `nodes N`, nor `source … = …`.
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
            TopologyError::MissingNodes => {
                write!(f, "topology needs a 'nodes N' line with N >= 1")
            }
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
    /// Source lines keep file order (the global union order); replica
    /// addresses keep list order (the failover preference order).
    pub fn parse(text: &str) -> Result<Topology, TopologyError> {
        let mut nodes = 0usize;
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
            if let Some(n) = line.strip_prefix("nodes") {
                nodes = n.trim().parse().map_err(|_| garbage())?;
            } else if let Some(rest) = line.strip_prefix("source") {
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
                if replicas.is_empty() {
                    return Err(TopologyError::NoReplicas(name.to_owned()));
                }
                sources.push(SourceSpec {
                    name: name.to_owned(),
                    replicas,
                });
            } else {
                return Err(garbage());
            }
        }
        if nodes == 0 {
            return Err(TopologyError::MissingNodes);
        }
        Ok(Topology { nodes, sources })
    }
}

// ---------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------

/// Virtual points per node on the ring: enough to keep the per-node load
/// skew small at the shard counts the federation tier targets.
const VNODES_PER_NODE: usize = 64;

/// FNV-1a with a 64-bit avalanche finalizer: deterministic and
/// dependency-free (the std hasher is randomly seeded per process, which
/// would make shard assignment differ between runs). The finalizer
/// matters — raw FNV puts short sequential keys like `site0`…`site99`
/// within a few multiples of the prime of each other, clustering them on
/// one arc of the ring.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring mapping source names onto node indices.
///
/// Each node contributes [`VNODES_PER_NODE`] virtual points; a key lands
/// on the node owning the first point at or after the key's hash
/// (wrapping). Growing the ring from N to N+1 nodes only reassigns the
/// keys that land on the new node's points — every other source keeps
/// its shard, so a cluster resize does not reshuffle the world.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over `nodes` nodes (at least 1).
    pub fn new(nodes: usize) -> HashRing {
        assert!(nodes >= 1, "a hash ring needs at least one node");
        let mut points: Vec<(u64, usize)> = (0..nodes)
            .flat_map(|node| {
                (0..VNODES_PER_NODE)
                    .map(move |v| (ring_hash(format!("node{node}/vnode{v}").as_bytes()), node))
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    /// The node a key lands on.
    pub fn node_for(&self, key: &str) -> usize {
        let h = ring_hash(key.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }
}

// ---------------------------------------------------------------------
// Replica sets
// ---------------------------------------------------------------------

/// Breaker knobs for one replica set. Separate from
/// [`ResiliencePolicy`] because the replica router wants a hair
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
/// The set holds **no snapshots** of its own: when every replica is
/// down the last error surfaces, and the outer
/// [`crate::resilience::resilient_answer`] layer — which sees the
/// replica set as one source — serves its stale snapshot. That division
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
                        .record_success(None);
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

impl ReplicaSet {
    /// Routes a whole batch with per-item failover. The healthy case is
    /// one pipelined [`Wrapper::answer_batch`] call to the first live
    /// replica; items that come back with source faults carry over to
    /// the next replica while their siblings' answers stand. Breaker
    /// accounting is per item — a replica that fails a ten-query batch
    /// has failed ten calls — but each replica's gate is consulted once
    /// per batch, so a batch counts as one call against open-breaker
    /// cooldowns.
    fn route_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        let mut results: Vec<Option<Result<Document, SourceError>>> =
            queries.iter().map(|_| None).collect();
        let mut last_err: Vec<Option<SourceError>> = queries.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut passed_over = false;
        for (i, (w, h)) in self.replicas.iter().zip(&self.health).enumerate() {
            if pending.is_empty() {
                break;
            }
            let gate = h
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .gate(self.policy.cooldown_calls);
            if gate == BreakerGate::Reject {
                passed_over = true;
                for &idx in &pending {
                    last_err[idx].get_or_insert_with(|| {
                        SourceError::Unavailable(format!(
                            "circuit open for replica {i} of '{}'",
                            self.source
                        ))
                    });
                }
                continue;
            }
            let sub: Vec<Query> = pending.iter().map(|&idx| queries[idx].clone()).collect();
            let replies = w.answer_batch(&sub);
            let mut carried = Vec::new();
            let mut served_here = false;
            for (&idx, reply) in pending.iter().zip(replies) {
                match reply {
                    Ok(doc) => {
                        let reclosed = h
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .record_success(None);
                        if reclosed {
                            self.obs
                                .event("replica-recover", &format!("replica {i} probe succeeded"));
                        }
                        if let Some(served) = self.obs.served.get(i) {
                            served.inc();
                        }
                        served_here = true;
                        results[idx] = Some(Ok(doc));
                    }
                    // the caller's fault, identically rejected everywhere
                    Err(e @ SourceError::Query(_)) => results[idx] = Some(Err(e)),
                    Err(e) => {
                        if e.is_source_fault() {
                            h.lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .record_failure(self.policy.failure_threshold);
                        }
                        last_err[idx] = Some(e);
                        carried.push(idx);
                    }
                }
            }
            if served_here && passed_over {
                self.obs.failovers.inc();
                self.obs.event(
                    "replica-failover",
                    &format!("served by replica {i} after earlier replicas failed"),
                );
            }
            if !carried.is_empty() {
                passed_over = true;
            }
            pending = carried;
        }
        if !pending.is_empty() {
            self.obs.exhausted.inc();
            self.obs.event(
                "replica-exhausted",
                "every replica failed or was circuit-open",
            );
            for idx in pending {
                let e = last_err[idx].take().unwrap_or_else(|| {
                    SourceError::Unavailable(format!(
                        "no replicas configured for '{}'",
                        self.source
                    ))
                });
                results[idx] = Some(Err(e));
            }
        }
        self.publish_healthy();
        results
            .into_iter()
            .map(|r| r.expect("every query served, rejected, or exhausted"))
            .collect()
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

    fn answer_batch(&self, queries: &[Query]) -> Vec<Result<Document, SourceError>> {
        self.route_batch(queries)
    }
}

// ---------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------

/// One member of a federated union view: a source name (the shard
/// routing key), the wrapper serving it (typically a [`ReplicaSet`]),
/// and its member query.
pub struct FederationPart {
    /// The source's registered name.
    pub source: String,
    /// The wrapper serving the source.
    pub wrapper: Arc<dyn Wrapper>,
    /// The member's view-definition query.
    pub query: Query,
}

/// A federated union view sharded across several mediator nodes.
///
/// [`Federation::build`] hashes every part's source name onto a
/// [`HashRing`] of `nodes` nodes and builds one [`Mediator`] per
/// non-empty node, each registering a union view over just its shard's
/// members (kept in global union order within the shard). The per-shard
/// inferred view DTDs are composed back into the global inference with
/// [`compose_union_views`], which agrees with what a single node would
/// infer over all parts — the sharding is invisible in the view DTD.
///
/// [`Federation::materialize_with_report`] materializes every shard's
/// members and reassembles them in global union order, so the answer
/// document is byte-identical to the single-node run; the
/// [`DegradationReport`] likewise lists outcomes in global order.
pub struct Federation {
    view: Name,
    shards: Vec<Mediator>,
    /// Per shard: the members' global union positions, in shard-local
    /// order.
    positions: Vec<Vec<usize>>,
    /// Per shard: the node index it runs as.
    nodes: Vec<usize>,
    total: usize,
    inferred: InferredUnionView,
    registry: Registry,
}

impl Federation {
    /// Builds the sharded federation. `nodes` is the cluster width (at
    /// least 1); `registry` is shared by every shard mediator, so one
    /// snapshot carries the whole cluster's instruments.
    pub fn build(
        view_name: &str,
        parts: Vec<FederationPart>,
        nodes: usize,
        registry: Registry,
    ) -> Result<Federation, MediatorError> {
        assert!(nodes >= 1, "a federation needs at least one node");
        let view = Name::intern(view_name);
        let ring = HashRing::new(nodes);
        let mut by_node: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (gp, part) in parts.iter().enumerate() {
            by_node[ring.node_for(&part.source)].push(gp);
        }
        let mut shards = Vec::new();
        let mut positions = Vec::new();
        let mut shard_nodes = Vec::new();
        for (node, gps) in by_node.iter().enumerate() {
            if gps.is_empty() {
                continue;
            }
            let mut m = Mediator::with_registry(ProcessorConfig::default(), registry.clone());
            for &gp in gps {
                m.add_source(&parts[gp].source, Arc::clone(&parts[gp].wrapper));
            }
            let local: Vec<(&str, Query)> = gps
                .iter()
                .map(|&gp| (parts[gp].source.as_str(), parts[gp].query.clone()))
                .collect();
            m.register_union_view(view_name, &local)?;
            shard_nodes.push(node);
            positions.push(gps.clone());
            shards.push(m);
        }
        let shard_views: Vec<(&InferredUnionView, &[usize])> = shards
            .iter()
            .zip(&positions)
            .map(|(m, gps)| {
                let uv: &UnionView = m.union_view(view).expect("union view registered above");
                (&uv.inferred, gps.as_slice())
            })
            .collect();
        let inferred = compose_union_views(view, &shard_views);
        Ok(Federation {
            view,
            shards,
            positions,
            nodes: shard_nodes,
            total: parts.len(),
            inferred,
            registry,
        })
    }

    /// The composed global union inference — equal (as a view DTD) to
    /// what a single node would infer over all parts.
    pub fn inferred(&self) -> &InferredUnionView {
        &self.inferred
    }

    /// The per-shard mediators, in node order.
    pub fn shards(&self) -> &[Mediator] {
        &self.shards
    }

    /// The node index of each shard, parallel to [`Federation::shards`].
    pub fn shard_nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The registry every shard records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Applies one resilience policy to every shard mediator.
    pub fn set_resilience_policy(&mut self, policy: ResiliencePolicy) {
        for m in &mut self.shards {
            m.set_resilience_policy(policy);
        }
    }

    /// Materializes the federated view: every shard's members through
    /// its mediator's resilience layer (shards in parallel, members in
    /// parallel within each shard), reassembled in global union order.
    ///
    /// Degradation semantics match [`Mediator::materialize_with_report`]
    /// on a union view: the partial answer is served as long as one
    /// member (anywhere in the cluster) is, and
    /// [`MediatorError::AllSourcesFailed`] is raised only when none is.
    pub fn materialize_with_report(&self) -> Result<(Document, DegradationReport), MediatorError> {
        let _trace_scope = (mix_obs::current_trace() == 0).then(|| self.registry.begin_trace());
        let _span = self.registry.span("federate");
        let trace = mix_obs::current_trace();
        type ShardMembers = Vec<(Option<Document>, SourceOutcome)>;
        let per_shard: Vec<Result<ShardMembers, MediatorError>> = if self.shards.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|m| {
                        scope.spawn(move || {
                            let _t = mix_obs::set_current_trace(trace);
                            m.materialize_union_members(self.view)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard materialization panicked"))
                    .collect()
            })
        } else {
            self.shards
                .iter()
                .map(|m| m.materialize_union_members(self.view))
                .collect()
        };
        let mut slots: Vec<Option<(Option<Document>, SourceOutcome)>> =
            (0..self.total).map(|_| None).collect();
        for (gps, members) in self.positions.iter().zip(per_shard) {
            let members = members?;
            debug_assert_eq!(gps.len(), members.len());
            for (local, member) in members.into_iter().enumerate() {
                slots[gps[local]] = Some(member);
            }
        }
        let _merge_span = self.registry.span("union_merge");
        let mut members = Vec::new();
        let mut outcomes = Vec::new();
        let mut served = 0usize;
        for slot in slots {
            let (doc, outcome) =
                slot.expect("every global position is assigned to exactly one shard");
            if let Some(part) = doc {
                served += 1;
                if let Content::Elements(kids) = part.root.content {
                    members.extend(kids);
                }
            }
            outcomes.push(outcome);
        }
        if served == 0 {
            return Err(MediatorError::AllSourcesFailed(self.view));
        }
        let document = Document::new(Element {
            name: self.view,
            id: ElemId::fresh(),
            content: Content::Elements(members),
        });
        let covers = if self.inferred.kind_conflicts.is_empty() {
            mix_dtd::satisfies(&self.inferred.dtd, &document)
        } else {
            mix_dtd::sdtd_satisfies(&self.inferred.sdtd, &document)
        };
        let report = DegradationReport {
            view: self.view.to_string(),
            outcomes,
            union_dtd_covers_survivors: covers,
        };
        if !report.is_clean() {
            let served = report
                .outcomes
                .iter()
                .filter(|o| o.status != FetchStatus::Failed)
                .count();
            self.registry.event(
                "degraded-answer",
                format!(
                    "view '{}': {}/{} sources served, union DTD covers survivors: {}",
                    report.view,
                    served,
                    report.outcomes.len(),
                    if report.union_dtd_covers_survivors {
                        "yes"
                    } else {
                        "no"
                    }
                ),
            );
        }
        Ok((document, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector, FaultPlan};
    use crate::source::XmlSource;
    use mix_dtd::parse_compact;
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
        assert_eq!(topo.nodes, 2);
        assert_eq!(topo.sources.len(), 2);
        assert_eq!(topo.sources[0].name, "site0");
        assert_eq!(
            topo.sources[0].replicas,
            vec!["127.0.0.1:7001", "127.0.0.1:7002"]
        );
        assert_eq!(topo.sources[1].replicas, vec!["127.0.0.1:7003"]);
    }

    #[test]
    fn topology_rejects_malformed_input() {
        assert_eq!(
            Topology::parse("source s = 1.2.3.4:5\n"),
            Err(TopologyError::MissingNodes)
        );
        assert_eq!(
            Topology::parse("nodes 0\n"),
            Err(TopologyError::MissingNodes)
        );
        assert!(matches!(
            Topology::parse("nodes 1\nwat\n"),
            Err(TopologyError::Garbage { line: 2, .. })
        ));
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
    fn hash_ring_is_deterministic_and_consistent_under_growth() {
        let small = HashRing::new(3);
        let big = HashRing::new(4);
        let keys: Vec<String> = (0..200).map(|i| format!("site{i}")).collect();
        let mut moved = 0;
        let mut per_node = [0usize; 3];
        for k in &keys {
            let a = small.node_for(k);
            assert_eq!(a, small.node_for(k), "assignment must be stable");
            assert!(a < 3);
            per_node[a] += 1;
            let b = big.node_for(k);
            if a != b {
                // consistency: a key only ever moves TO the new node
                assert_eq!(b, 3, "'{k}' moved {a} -> {b}, not to the new node");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new node must take over some keys");
        assert!(moved < keys.len() / 2, "growth reshuffled too much");
        for (node, n) in per_node.iter().enumerate() {
            assert!(*n > 0, "node {node} got no keys out of {}", keys.len());
        }
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

    /// The tentpole equivalence: a sharded federation's answer, report
    /// shape, and composed view DTD all match the single-node mediator
    /// over the same sources.
    #[test]
    fn federation_matches_the_single_node_run() {
        let sources: Vec<(String, usize)> = (0..5).map(|i| (format!("site{i}"), i + 1)).collect();

        let mut single = Mediator::new();
        for (s, n) in &sources {
            single.add_source(s, Arc::new(site_source(s, *n)));
        }
        let parts_single: Vec<(&str, Query)> = sources
            .iter()
            .map(|(s, _)| (s.as_str(), part_query()))
            .collect();
        single.register_union_view("all", &parts_single).unwrap();
        let (single_doc, single_report) = single.materialize_with_report(name("all")).unwrap();

        for nodes in [1usize, 2, 3] {
            let parts: Vec<FederationPart> = sources
                .iter()
                .map(|(s, n)| FederationPart {
                    source: s.clone(),
                    wrapper: Arc::new(site_source(s, *n)) as Arc<dyn Wrapper>,
                    query: part_query(),
                })
                .collect();
            let fed = Federation::build("all", parts, nodes, Registry::new()).unwrap();
            if nodes > 1 {
                assert!(fed.shards().len() > 1, "5 sources should span 2+ shards");
            }
            let (doc, report) = fed.materialize_with_report().unwrap();
            assert_eq!(
                render(&doc),
                render(&single_doc),
                "{nodes}-node federation diverged from the single node"
            );
            assert!(report.is_clean());
            assert_eq!(report.outcomes.len(), single_report.outcomes.len());
            let order: Vec<&str> = report.outcomes.iter().map(|o| o.source.as_str()).collect();
            let single_order: Vec<&str> = single_report
                .outcomes
                .iter()
                .map(|o| o.source.as_str())
                .collect();
            assert_eq!(order, single_order, "outcome order must be global order");
            // the composed view DTD agrees with the single-node inference
            let su = single.union_view(name("all")).unwrap();
            assert!(mix_dtd::same_documents(
                &fed.inferred().dtd,
                &su.inferred.dtd
            ));
            assert_eq!(fed.inferred().verdict, su.inferred.verdict);
        }
    }

    /// Shard-level satisfiability pruning: members with provably-Unsat
    /// queries are skipped before any fetch, and the federated answer
    /// stays byte-identical to an unpruned single-node run.
    #[test]
    fn unsat_members_and_shards_are_skipped_before_any_fetch() {
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

        // <entry> is PCDATA, so a child step under it is provably Unsat
        let unsat_query = || {
            parse_query("all = SELECT X WHERE <site> <entry> X:<deep/> </entry> </site>").unwrap()
        };
        let build_parts = |fetches: &Arc<AtomicUsize>, sat_members: usize| -> Vec<FederationPart> {
            (0..4)
                .map(|i| {
                    let s = format!("site{i}");
                    FederationPart {
                        source: s.clone(),
                        wrapper: Arc::new(CountingSource {
                            inner: site_source(&s, i + 1),
                            fetches: Arc::clone(fetches),
                        }) as Arc<dyn Wrapper>,
                        query: if i < sat_members {
                            part_query()
                        } else {
                            unsat_query()
                        },
                    }
                })
                .collect()
        };

        // reference: a single unpruned node over the same sources
        let reference = |sat_members: usize| -> Document {
            let mut m = Mediator::with_config(ProcessorConfig {
                use_sat_pruning: false,
                ..ProcessorConfig::default()
            });
            for i in 0..4 {
                let s = format!("site{i}");
                m.add_source(&s, Arc::new(site_source(&s, i + 1)));
            }
            let parts: Vec<(String, Query)> = (0..4)
                .map(|i| {
                    let q = if i < sat_members {
                        part_query()
                    } else {
                        unsat_query()
                    };
                    (format!("site{i}"), q)
                })
                .collect();
            let refs: Vec<(&str, Query)> =
                parts.iter().map(|(s, q)| (s.as_str(), q.clone())).collect();
            m.register_union_view("all", &refs).unwrap();
            m.materialize(name("all")).unwrap()
        };

        // every member Unsat: all shards skip, zero fetches anywhere
        let fetches = Arc::new(AtomicUsize::new(0));
        let registry = Registry::new();
        let fed = Federation::build("all", build_parts(&fetches, 0), 2, registry.clone()).unwrap();
        let (doc, report) = fed.materialize_with_report().unwrap();
        assert_eq!(render(&doc), render(&reference(0)));
        assert_eq!(fetches.load(Ordering::SeqCst), 0, "no member may fetch");
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.is_clean(), "pruned members report fresh: {report}");
        assert_eq!(registry.snapshot().counters["sat_pruned_total"], 4);

        // mixed: only the satisfiable member fetches, bytes still match
        let fetches = Arc::new(AtomicUsize::new(0));
        let registry = Registry::new();
        let fed = Federation::build("all", build_parts(&fetches, 1), 2, registry.clone()).unwrap();
        let (doc, _) = fed.materialize_with_report().unwrap();
        assert_eq!(render(&doc), render(&reference(1)));
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one Sat member fetches");
        assert_eq!(registry.snapshot().counters["sat_pruned_total"], 3);
    }

    /// A replica killed under a shard is invisible in the answer: the
    /// replica set fails over, the member serves fresh, and the bytes
    /// match the fault-free single-node run.
    #[test]
    fn replica_failure_keeps_the_federated_answer_byte_identical() {
        let mut single = Mediator::new();
        for i in 0..4 {
            let s = format!("site{i}");
            single.add_source(&s, Arc::new(site_source(&s, i + 1)));
        }
        let parts_single: Vec<(String, Query)> =
            (0..4).map(|i| (format!("site{i}"), part_query())).collect();
        let refs: Vec<(&str, Query)> = parts_single
            .iter()
            .map(|(s, q)| (s.as_str(), q.clone()))
            .collect();
        single.register_union_view("all", &refs).unwrap();
        let (single_doc, _) = single.materialize_with_report(name("all")).unwrap();

        let registry = Registry::new();
        let parts: Vec<FederationPart> = (0..4)
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
                FederationPart {
                    source: s,
                    wrapper: Arc::new(set),
                    query: part_query(),
                }
            })
            .collect();
        let fed = Federation::build("all", parts, 2, registry.clone()).unwrap();
        for _ in 0..3 {
            let (doc, report) = fed.materialize_with_report().unwrap();
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
