//! The MIX mediator: view registration with DTD inference, and query
//! answering with DTD-based emptiness pruning and view–query composition.

use crate::compose::{compose, Composed};
use crate::error::SourceError;
use crate::obs::{MediatorInstruments, SourceInstruments};
use crate::resilience::{
    resilient_answer, BreakerState, DegradationReport, FetchStatus, Health, ReplyCheck,
    ResiliencePolicy, SourceOutcome,
};
use crate::source::Wrapper;
use mix_dtd::Validator;
use mix_infer::metrics::ServingMetrics;
use mix_infer::{
    check_sat_normalized, infer_union_view_dtd_cached, InferenceCache, InferredUnionView,
    InferredView,
};
use mix_obs::Registry;
use mix_relang::symbol::Name;
use mix_xmas::{evaluate, normalize, well_formed, NormalizeError, Query};
use mix_xml::{Content, Document, ElemId, Element};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A registered view: its definition, its source, and its inferred DTDs.
pub struct View {
    /// The source the view is defined over.
    pub source: String,
    /// The definition as registered. A schema change re-infers from it,
    /// because the normalized query in `inferred` has its wildcards
    /// expanded against the DTD it was inferred under.
    pub definition: Query,
    /// Everything the inference pipeline produced (normalized query,
    /// s-DTD, merged DTD, verdict) — shared with the mediator's
    /// [`InferenceCache`], so re-registration and batch serving reuse it.
    pub inferred: Arc<InferredView>,
    /// The reply validator of the view DTD, compiled when the view is
    /// first queried (see [`Member::validator`]).
    validator: OnceLock<Validator>,
}

/// A registered *union* view over several sources (the intro's "union the
/// structures exported by 100 sites" scenario): one pick-element query per
/// source, members concatenated in registration order.
pub struct UnionView {
    /// The sources, in union order.
    pub sources: Vec<String>,
    /// The per-source definitions as registered, in union order (see
    /// [`View::definition`]).
    pub definitions: Vec<Query>,
    /// The union inference result (s-DTD, merged DTD, verdict).
    pub inferred: InferredUnionView,
    /// Each member's reply validator, in union order, compiled when the
    /// member is first queried (see [`Member::validator`]).
    validators: Vec<OnceLock<Validator>>,
}

/// One member of a view: its source, its inference and its reply
/// validator's cell.
struct Member<'a> {
    source: &'a str,
    inferred: &'a InferredView,
    validator: &'a OnceLock<Validator>,
}

impl<'a> Member<'a> {
    /// The validator of the member's inferred DTD, compiled the first
    /// time a query plans a call to the member, not at registration or
    /// in `replace_source`: a view that is only re-inferred never pays
    /// for it.
    fn validator(&self) -> &'a Validator {
        self.validator
            .get_or_init(|| Validator::new(&self.inferred.dtd))
    }
}

// Views are few and stored once in the registry map, so the size skew
// between the Arc-shared single view and the by-value union inference is
// irrelevant here.
#[allow(clippy::large_enum_variant)]
enum AnyView {
    Single(View),
    Union(UnionView),
}

impl AnyView {
    fn dtd(&self) -> &mix_dtd::Dtd {
        match self {
            AnyView::Single(v) => &v.inferred.dtd,
            AnyView::Union(v) => &v.inferred.dtd,
        }
    }

    /// Is the plain `dtd()` a *sound* description of the view? False only
    /// for union views mixing PCDATA and element content for one name —
    /// reasoning on the plain DTD is then disabled.
    fn plain_dtd_is_sound(&self) -> bool {
        match self {
            AnyView::Single(_) => true,
            AnyView::Union(v) => v.inferred.kind_conflicts.is_empty(),
        }
    }

    /// The members, in union order; a single view is its own one member.
    fn members(&self) -> Vec<Member<'_>> {
        match self {
            AnyView::Single(v) => vec![Member {
                source: &v.source,
                inferred: &v.inferred,
                validator: &v.validator,
            }],
            AnyView::Union(v) => v
                .sources
                .iter()
                .zip(&v.inferred.members)
                .zip(&v.validators)
                .map(|((source, inferred), validator)| Member {
                    source,
                    inferred,
                    validator,
                })
                .collect(),
        }
    }

    /// The calls that materialize the view: each member is shipped its
    /// own definition, and its reply is checked as a whole document
    /// against the member's inferred DTD (its s-DTD when the union's plain
    /// DTD is unsound).
    fn materialization(&self) -> Vec<MemberCall<'_>> {
        let specialized = !self.plain_dtd_is_sound();
        self.members()
            .into_iter()
            .map(|member| MemberCall::Ship {
                source: member.source,
                query: Cow::Borrowed(&member.inferred.query),
                check: if specialized {
                    ReplyCheck::SpecializedView(&member.inferred.sdtd)
                } else {
                    ReplyCheck::View(member.validator())
                },
            })
            .collect()
    }

    /// The calls that answer `q`, addressed to this view as `name`,
    /// without materializing it: each member is shipped `q` composed with
    /// its own definition, and its reply is checked member by member
    /// against the member's inferred DTD; a member whose pick test is
    /// disjoint from `q`'s member test is not called. `None` when some
    /// member does not compose, the plain DTD is unsound (kind conflicts),
    /// or a composed query is not well formed — a defect of composition,
    /// which a source would otherwise report as its own failure: `q` is
    /// then evaluated over the materialized view.
    fn composition(&self, name: Name, q: &Query) -> Option<Vec<MemberCall<'_>>> {
        if !self.plain_dtd_is_sound() {
            return None;
        }
        self.members()
            .into_iter()
            .map(|member| {
                Some(match compose(name, &member.inferred.query, q)? {
                    Composed::Query(composed) => {
                        well_formed(&composed).ok()?;
                        MemberCall::Ship {
                            source: member.source,
                            query: Cow::Owned(composed),
                            check: ReplyCheck::Members(member.validator()),
                        }
                    }
                    Composed::Empty => MemberCall::Empty(member.source),
                })
            })
            .collect()
    }
}

/// One member of a view in a fan-out ([`Mediator::fan_out`]).
enum MemberCall<'a> {
    /// Ship `query` to `source` and serve the reply only if it passes
    /// `check`.
    Ship {
        source: &'a str,
        query: Cow<'a, Query>,
        check: ReplyCheck<'a>,
    },
    /// Proven empty without a call to the source.
    Empty(&'a str),
}

/// Errors surfaced by the mediator API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MediatorError {
    /// `add_source`/`register_view` referenced an unknown source.
    UnknownSource(String),
    /// A query's root does not name a registered view.
    UnknownView(Name),
    /// A view with that name already exists.
    DuplicateView(Name),
    /// The view/query failed normalization.
    Normalize(NormalizeError),
    /// A single-source view's only source failed (after retries, breaker
    /// gating, and — when enabled — the stale-snapshot fallback).
    Source {
        /// The failed source's registered name.
        source: String,
        /// Why its last call failed.
        error: SourceError,
    },
    /// Every member source of a union view failed; not even a degraded
    /// partial answer could be assembled.
    AllSourcesFailed(Name),
}

impl fmt::Display for MediatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediatorError::UnknownSource(s) => write!(f, "unknown source '{s}'"),
            MediatorError::UnknownView(n) => write!(f, "no view named '{n}'"),
            MediatorError::DuplicateView(n) => write!(f, "view '{n}' already registered"),
            MediatorError::Normalize(e) => write!(f, "{e}"),
            MediatorError::Source { source, error } => {
                write!(f, "source '{source}' failed: {error}")
            }
            MediatorError::AllSourcesFailed(n) => {
                write!(f, "every source of view '{n}' failed")
            }
        }
    }
}

impl std::error::Error for MediatorError {}

impl From<NormalizeError> for MediatorError {
    fn from(e: NormalizeError) -> Self {
        MediatorError::Normalize(e)
    }
}

/// How a query was answered — surfaced so tests, benches and the
/// examples can show which plan the mediator chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerPath {
    /// The emptiness decider proved the query unsatisfiable against the
    /// view DTD; no source was contacted.
    PrunedUnsatisfiable,
    /// The query was composed with the definition of each member of the
    /// view (a single view is its one member) and each member's source
    /// answered its own composed query; the replies were concatenated in
    /// union order (no view materialization). Members proven empty were
    /// not called.
    Composed,
    /// The view was materialized and the query evaluated over it: the
    /// query does not compose with some member's definition, or the
    /// union has kind conflicts.
    Materialized,
}

/// An answered query.
pub struct Answer {
    /// The result document.
    pub document: Document,
    /// Which execution path produced it.
    pub path: AnswerPath,
    /// How the sources behind the answer fared. `Some` whenever sources
    /// were contacted through the resilience layer with something to
    /// report: always for materialized answers, and for composed answers
    /// some member of which was not served fresh (one outcome per member,
    /// in union order; members proven empty are `Fresh`). `None` for
    /// pruned queries and clean composed answers.
    pub degradation: Option<DegradationReport>,
}

/// Knobs for the query processor. The view DTD always prunes
/// unsatisfiable queries (Section 1: "the query simplifier may employ the
/// source DTDs to create a more efficient plan"), and a query is always
/// composed with the view definitions when it can be; to answer a query
/// without either, evaluate it over [`Mediator::materialize`].
#[derive(Debug, Clone, Copy)]
pub struct ProcessorConfig {
    /// Check per-source queries against the source DTD with the
    /// satisfiability analyzer ([`mix_infer::check_sat`]) and skip the
    /// fetch entirely when the query is provably `Unsat`, synthesizing
    /// the empty contribution the source would have returned.
    pub use_sat_pruning: bool,
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig {
            use_sat_pruning: true,
        }
    }
}

/// The MIX mediator.
pub struct Mediator {
    sources: HashMap<String, Arc<dyn Wrapper>>,
    views: HashMap<Name, AnyView>,
    /// Registration order, for deterministic listings.
    view_order: Vec<Name>,
    config: ProcessorConfig,
    policy: ResiliencePolicy,
    /// Per-source health (breaker + last good answers), shared across the
    /// parallel member fan-out threads.
    health: HashMap<String, Arc<Mutex<Health>>>,
    /// The serving layer's inference cache: registration, re-inference on
    /// source replacement, and every `answer_many` worker share it.
    cache: Arc<InferenceCache>,
    /// Memoized satisfiability verdicts — consulted before every
    /// fetch-shaped call when [`ProcessorConfig::use_sat_pruning`] is on.
    sat: mix_infer::SatCache,
    /// The observability registry every layer under this mediator records
    /// into (shared with the cache; see [`Mediator::with_registry`]).
    registry: Registry,
    /// Mediator-level instruments (query counts, answer latency).
    instruments: MediatorInstruments,
    /// Per-source instrument bundles, resolved once at registration and
    /// shared with the parallel member fan-out threads.
    source_obs: HashMap<String, Arc<SourceInstruments>>,
}

impl Default for Mediator {
    fn default() -> Self {
        Mediator::new()
    }
}

impl Mediator {
    /// An empty mediator with the default processor configuration.
    pub fn new() -> Mediator {
        Mediator::with_config(ProcessorConfig::default())
    }

    /// An empty mediator with an explicit processor configuration.
    pub fn with_config(config: ProcessorConfig) -> Mediator {
        Mediator::with_registry(config, Registry::new())
    }

    /// An empty mediator recording into an explicit [`Registry`] — pass
    /// [`Registry::noop`] to make every instrument in the serving stack a
    /// no-op branch (the configuration bench X17 measures against). The
    /// registry is shared with the mediator's [`InferenceCache`], so
    /// cache hit/miss counters and `infer` spans land next to the
    /// source/query instruments in one snapshot.
    pub fn with_registry(config: ProcessorConfig, registry: Registry) -> Mediator {
        Mediator::with_cache(config, Arc::new(InferenceCache::with_registry(registry)))
    }

    /// An empty mediator whose [`InferenceCache`] warm-starts from a
    /// persistent [`WarmStore`](mix_infer::WarmStore) and writes behind
    /// to it on every miss — `mixctl --store-dir` builds its mediators
    /// through here so restarts answer warm (experiment X22).
    pub fn with_store(
        config: ProcessorConfig,
        registry: Registry,
        store: Arc<dyn mix_infer::WarmStore>,
    ) -> Mediator {
        let mut mediator = Mediator::with_cache(
            config,
            Arc::new(InferenceCache::with_store(
                registry.clone(),
                Arc::clone(&store),
            )),
        );
        // the satisfiability memo warm-starts and writes behind through
        // the same store, so restarts also skip re-proving Unsat queries
        mediator.sat = mix_infer::SatCache::with_store(registry, store);
        mediator
    }

    /// An empty mediator sharing an existing [`InferenceCache`] — stacked
    /// or fleet-deployed mediators over the same sources can pool their
    /// inference work. The mediator adopts the cache's registry.
    pub fn with_cache(config: ProcessorConfig, cache: Arc<InferenceCache>) -> Mediator {
        let registry = cache.registry().clone();
        Mediator {
            sources: HashMap::new(),
            views: HashMap::new(),
            view_order: Vec::new(),
            config,
            policy: ResiliencePolicy::default(),
            health: HashMap::new(),
            cache,
            sat: mix_infer::SatCache::with_registry(registry.clone()),
            instruments: MediatorInstruments::new(&registry),
            source_obs: HashMap::new(),
            registry,
        }
    }

    /// The inference cache this mediator registers and serves through.
    pub fn inference_cache(&self) -> &Arc<InferenceCache> {
        &self.cache
    }

    /// The observability registry the whole serving stack records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Serving-layer observability: this mediator's inference-cache
    /// counters next to the process-wide automata memo counters.
    pub fn serving_metrics(&self) -> ServingMetrics {
        mix_infer::metrics::serving_metrics(&self.cache)
    }

    /// Registers a wrapper under a name, with fresh health (breaker
    /// closed, no stale answers).
    pub fn add_source(&mut self, name: &str, wrapper: Arc<dyn Wrapper>) {
        self.sources.insert(name.to_owned(), wrapper);
        self.health
            .insert(name.to_owned(), Arc::new(Mutex::new(Health::new())));
        let obs = SourceInstruments::new(&self.registry, name);
        // a name registered again starts with no stale answers
        obs.stale_answer_bytes.set(0);
        self.source_obs.insert(name.to_owned(), Arc::new(obs));
    }

    /// Replaces the resilience policy (retry budget, breaker thresholds,
    /// stale serving). Existing breaker states and stale answers are kept.
    pub fn set_resilience_policy(&mut self, policy: ResiliencePolicy) {
        self.policy = policy;
    }

    /// The circuit-breaker state of a registered source.
    pub fn breaker_state(&self, source: &str) -> Option<BreakerState> {
        self.health.get(source).map(|h| {
            h.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .state()
        })
    }

    /// Defines a view over a source: runs the View DTD Inference module
    /// and stores the result. Returns the inferred view for inspection.
    pub fn register_view(&mut self, source: &str, q: &Query) -> Result<&View, MediatorError> {
        let wrapper = self
            .sources
            .get(source)
            .ok_or_else(|| MediatorError::UnknownSource(source.to_owned()))?;
        if self.views.contains_key(&q.view_name) {
            return Err(MediatorError::DuplicateView(q.view_name));
        }
        let inferred = self.cache.infer(q, wrapper.dtd())?;
        self.view_order.push(q.view_name);
        self.views.insert(
            q.view_name,
            AnyView::Single(View {
                source: source.to_owned(),
                definition: q.clone(),
                inferred,
                validator: OnceLock::new(),
            }),
        );
        match &self.views[&q.view_name] {
            AnyView::Single(v) => Ok(v),
            AnyView::Union(_) => unreachable!("just inserted a single view"),
        }
    }

    /// Defines a union view: one query per source, members concatenated in
    /// the given order. The View DTD Inference module runs per part and
    /// the results are combined (identical-schema sites fold together,
    /// heterogeneous definitions stay apart as specializations).
    pub fn register_union_view(
        &mut self,
        view_name: &str,
        parts: &[(&str, Query)],
    ) -> Result<&UnionView, MediatorError> {
        let view_name = Name::intern(view_name);
        if self.views.contains_key(&view_name) {
            return Err(MediatorError::DuplicateView(view_name));
        }
        let mut pairs = Vec::new();
        for (source, q) in parts {
            let wrapper = self
                .sources
                .get(*source)
                .ok_or_else(|| MediatorError::UnknownSource((*source).to_owned()))?;
            pairs.push((q, wrapper.dtd()));
        }
        let refs: Vec<(&Query, &mix_dtd::Dtd)> = pairs.iter().map(|(q, d)| (*q, *d)).collect();
        let inferred = infer_union_view_dtd_cached(view_name, &refs, &self.cache)?;
        self.view_order.push(view_name);
        self.views.insert(
            view_name,
            AnyView::Union(UnionView {
                sources: parts.iter().map(|(s, _)| (*s).to_owned()).collect(),
                definitions: parts.iter().map(|(_, q)| q.clone()).collect(),
                validators: parts.iter().map(|_| OnceLock::new()).collect(),
                inferred,
            }),
        );
        match &self.views[&view_name] {
            AnyView::Union(v) => Ok(v),
            AnyView::Single(_) => unreachable!("just inserted a union view"),
        }
    }

    /// The registered single-source view, if any.
    pub fn view(&self, name: Name) -> Option<&View> {
        match self.views.get(&name) {
            Some(AnyView::Single(v)) => Some(v),
            _ => None,
        }
    }

    /// The registered union view, if any.
    pub fn union_view(&self, name: Name) -> Option<&UnionView> {
        match self.views.get(&name) {
            Some(AnyView::Union(v)) => Some(v),
            _ => None,
        }
    }

    /// The inferred plain DTD of any registered view.
    pub fn view_dtd(&self, name: Name) -> Option<&mix_dtd::Dtd> {
        self.views.get(&name).map(AnyView::dtd)
    }

    /// Registered view names in registration order.
    pub fn view_names(&self) -> &[Name] {
        &self.view_order
    }

    /// Replaces a source's wrapper — the paper's "dynamic and unknown
    /// information" scenario: a site changed its schema. Every view over
    /// the source is re-inferred; the names of views whose *view DTD*
    /// changed (as a document set) are returned, so higher layers (or
    /// stacked mediators) know to re-infer in turn.
    pub fn replace_source(
        &mut self,
        source: &str,
        wrapper: Arc<dyn Wrapper>,
    ) -> Result<Vec<Name>, MediatorError> {
        if !self.sources.contains_key(source) {
            return Err(MediatorError::UnknownSource(source.to_owned()));
        }
        // the cache's invalidation rule: a changed source DTD orphans every
        // entry fingerprinted against the old DTD (entries for other
        // sources — other fingerprints — are untouched). Skipped when the
        // new wrapper exports the identical DTD, in which case the cached
        // inferences are still exactly right.
        let old_dtd = self.sources[source].dtd().clone();
        if mix_infer::fingerprint_dtd(&old_dtd) != mix_infer::fingerprint_dtd(wrapper.dtd()) {
            self.cache.invalidate_dtd(&old_dtd);
        }
        self.sources.insert(source.to_owned(), wrapper);
        // a replaced source is a new deployment: breaker closed, failure
        // history and stale answers dropped
        self.health
            .insert(source.to_owned(), Arc::new(Mutex::new(Health::new())));
        self.source_obs[source].stale_answer_bytes.set(0);
        let mut changed = Vec::new();
        let names: Vec<Name> = self.view_order.clone();
        for vname in names {
            let uses_source = match &self.views[&vname] {
                AnyView::Single(v) => v.source == source,
                AnyView::Union(v) => v.sources.iter().any(|s| s == source),
            };
            if !uses_source {
                continue;
            }
            let new_view = match &self.views[&vname] {
                AnyView::Single(v) => {
                    let w = &self.sources[&v.source];
                    let inferred = self.cache.infer(&v.definition, w.dtd())?;
                    AnyView::Single(View {
                        source: v.source.clone(),
                        definition: v.definition.clone(),
                        inferred,
                        validator: OnceLock::new(),
                    })
                }
                AnyView::Union(v) => {
                    let pairs: Vec<(&Query, &mix_dtd::Dtd)> = v
                        .sources
                        .iter()
                        .zip(&v.definitions)
                        .map(|(s, q)| (q, self.sources[s].dtd()))
                        .collect();
                    let inferred = infer_union_view_dtd_cached(vname, &pairs, &self.cache)?;
                    AnyView::Union(UnionView {
                        sources: v.sources.clone(),
                        definitions: v.definitions.clone(),
                        validators: v.sources.iter().map(|_| OnceLock::new()).collect(),
                        inferred,
                    })
                }
            };
            let old = &self.views[&vname];
            let dtd_changed = !(old.plain_dtd_is_sound()
                && new_view.plain_dtd_is_sound()
                && mix_dtd::same_documents(old.dtd(), new_view.dtd()));
            if dtd_changed {
                changed.push(vname);
            }
            self.views.insert(vname, new_view);
        }
        Ok(changed)
    }

    /// Materializes a view by running its definition at the source(s).
    /// Equivalent to [`Mediator::materialize_with_report`] without the
    /// degradation report.
    pub fn materialize(&self, name: Name) -> Result<Document, MediatorError> {
        self.materialize_with_report(name).map(|(doc, _)| doc)
    }

    /// Materializes a view through the resilience layer and reports how
    /// every member source fared.
    ///
    /// A single-source view fails ([`MediatorError::Source`]) only when
    /// its one source fails with no stale answer to degrade to. A union view
    /// degrades gracefully: as long as at least one member is served
    /// (fresh or stale) the partial answer is returned, with the
    /// [`DegradationReport`] naming each failed source, its last error,
    /// and its breaker state; only when *every* member fails does it
    /// error ([`MediatorError::AllSourcesFailed`]).
    ///
    /// `union_dtd_covers_survivors` never walks the member subtrees. Every
    /// member reply passed the whole-view check against its own member's
    /// inferred DTD (its s-DTD when the union has kind conflicts), a
    /// stale reply passed it when it was fresh, the union DTD is
    /// assembled from those member DTDs, a member pruned as `Unsat`
    /// contributes exactly the empty answer [`mix_infer::check_sat`]
    /// proves, and members of distinct replies never share an auto ID. So
    /// a clean report covers its answer, and a degraded one does iff the
    /// root's word of child names fits the view DTD's root model. Under
    /// kind conflicts a degraded report is checked against the s-DTD.
    pub fn materialize_with_report(
        &self,
        name: Name,
    ) -> Result<(Document, DegradationReport), MediatorError> {
        // direct callers (federate, ViewWrapper) get their own trace;
        // inside `query()` the request's trace is already installed
        let _trace_scope = (mix_obs::current_trace() == 0).then(|| self.registry.begin_trace());
        let _span = self.registry.span("materialize");
        let view = self
            .views
            .get(&name)
            .ok_or(MediatorError::UnknownView(name))?;
        let answers = self.fan_out(&view.materialization())?;
        let (document, outcomes) = self.gather(view, name, name, answers)?;
        let mut report = DegradationReport {
            view: name.to_string(),
            outcomes,
            union_dtd_covers_survivors: true,
        };
        if !report.is_clean() {
            report.union_dtd_covers_survivors = match view {
                AnyView::Union(v) if !view.plain_dtd_is_sound() => {
                    mix_dtd::sdtd_satisfies(&v.inferred.sdtd, &document)
                }
                _ => root_word_fits(view.dtd(), &document),
            };
        }
        self.note_degraded(&report);
        Ok((document, report))
    }

    /// One resilient call per member, in parallel, in member order. A
    /// member proven empty — by its call, or by the satisfiability
    /// analyzer against its source DTD — contributes no document and a
    /// clean outcome without contacting its source.
    fn fan_out(
        &self,
        calls: &[MemberCall<'_>],
    ) -> Result<Vec<(Option<Document>, SourceOutcome)>, MediatorError> {
        type Part<'a> = (
            usize,
            &'a str,
            &'a dyn Wrapper,
            &'a Mutex<Health>,
            &'a Query,
            ReplyCheck<'a>,
            &'a SourceInstruments,
        );
        // resolve every wrapper up front so configuration errors surface
        // before any work is spawned; answered members pre-fill their slot
        let mut slots: Vec<Option<(Option<Document>, SourceOutcome)>> =
            Vec::with_capacity(calls.len());
        let mut live: Vec<Part<'_>> = Vec::new();
        for call in calls {
            let (MemberCall::Ship { source, .. } | MemberCall::Empty(source)) = *call;
            let wrapper = self
                .sources
                .get(source)
                .ok_or_else(|| MediatorError::UnknownSource(source.to_owned()))?;
            let health = &*self.health[source];
            let MemberCall::Ship { query, check, .. } = call else {
                slots.push(Some((None, uncalled(source, health))));
                continue;
            };
            if let Some(outcome) = self.sat_skip(source, wrapper.as_ref(), health, query) {
                slots.push(Some((None, outcome)));
                continue;
            }
            live.push((
                slots.len(),
                source,
                wrapper.as_ref(),
                health,
                query,
                *check,
                &self.source_obs[source],
            ));
            slots.push(None);
        }
        // query the surviving sources in parallel (wrappers are Send +
        // Sync): the first on this thread, each other one on a thread of
        // its own. The caller's trace id is propagated into each worker
        // so every `fetch/<source>` span joins the request's trace.
        let policy = &self.policy;
        let answer = |&(i, source, wrapper, health, q, check, obs): &Part<'_>| {
            (
                i,
                resilient_answer(source, wrapper, q, check, policy, health, obs),
            )
        };
        let answered: Vec<(usize, (Option<Document>, SourceOutcome))> = match live.split_first() {
            Some((first, rest)) if !rest.is_empty() => {
                let trace = mix_obs::current_trace();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = rest
                        .iter()
                        .map(|part| {
                            scope.spawn(move || {
                                let _t = mix_obs::set_current_trace(trace);
                                answer(part)
                            })
                        })
                        .collect();
                    // a panic here surfaces as a worker's would
                    let here = std::panic::catch_unwind(AssertUnwindSafe(|| answer(first)))
                        .unwrap_or_else(|_| panic!("source query panicked"));
                    std::iter::once(here)
                        .chain(
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("source query panicked")),
                        )
                        .collect()
                })
            }
            _ => live.iter().map(answer).collect(),
        };
        for (i, answer) in answered {
            slots[i] = Some(answer);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every member slot was filled"))
            .collect())
    }

    /// Concatenates the children of the members' answers, in member
    /// order, under a root named `root` (a `union_merge` span for a
    /// union). With no member served it fails: a single view with its
    /// source's error, a union `view` with
    /// [`MediatorError::AllSourcesFailed`].
    fn gather(
        &self,
        any: &AnyView,
        view: Name,
        root: Name,
        answers: Vec<(Option<Document>, SourceOutcome)>,
    ) -> Result<(Document, Vec<SourceOutcome>), MediatorError> {
        let _span = matches!(any, AnyView::Union(_)).then(|| self.registry.span("union_merge"));
        let mut members = Vec::new();
        let mut outcomes = Vec::with_capacity(answers.len());
        for (doc, outcome) in answers {
            if let Some(Content::Elements(kids)) = doc.map(|d| d.root.content) {
                if members.is_empty() {
                    members = kids;
                } else {
                    members.extend(kids);
                }
            }
            outcomes.push(outcome);
        }
        if outcomes.iter().all(|o| o.status == FetchStatus::Failed) {
            return Err(match (any, outcomes.pop()) {
                (AnyView::Single(_), Some(o)) => MediatorError::Source {
                    source: o.source,
                    error: o
                        .error
                        .unwrap_or_else(|| SourceError::Unavailable("unknown".into())),
                },
                _ => MediatorError::AllSourcesFailed(view),
            });
        }
        let document = Document::new(Element {
            name: root,
            id: ElemId::fresh(),
            content: Content::Elements(members),
        });
        Ok((document, outcomes))
    }

    /// Records a degraded (non-clean) report as an obs event, at the
    /// moment the partial answer is assembled. The per-source stale/fail
    /// events have already fired inside the resilience layer; this one
    /// summarizes the view-level outcome.
    fn note_degraded(&self, report: &DegradationReport) {
        if report.is_clean() {
            return;
        }
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

    /// Consults the satisfiability analyzer before a call: when pruning
    /// is enabled and the per-source query is provably `Unsat` against the
    /// source DTD, returns the clean outcome of the empty contribution the
    /// source would have produced — without contacting it. `Sat` and
    /// `Unknown` return `None`: the call proceeds exactly as before, which
    /// is what keeps pruning sound.
    fn sat_skip(
        &self,
        source: &str,
        wrapper: &dyn Wrapper,
        health: &Mutex<Health>,
        q: &Query,
    ) -> Option<SourceOutcome> {
        if !self.config.use_sat_pruning || !self.sat.verdict(q, wrapper.dtd()).is_unsat() {
            return None;
        }
        self.instruments.sat_pruned.inc();
        Some(uncalled(source, health))
    }

    /// Answers a user query whose condition is rooted at a view name,
    /// using (per configuration) DTD-based emptiness pruning and
    /// view–query composition.
    ///
    /// Each call is one trace: a `query` span covering the whole
    /// pipeline, with `normalize`, cache, `fetch/<source>`, and
    /// `union_merge` spans nested under the same trace id — plus the
    /// `mediator_answer_latency_ns` histogram and per-path counters.
    pub fn query(&self, q: &Query) -> Result<Answer, MediatorError> {
        let (_trace, _scope) = self.registry.begin_trace();
        let _timer = self.instruments.latency.start();
        let _span = self.registry.span("query");
        self.instruments.queries.inc();
        let result = self.query_inner(q);
        match &result {
            Ok(a) => match a.path {
                AnswerPath::PrunedUnsatisfiable => self.instruments.pruned.inc(),
                AnswerPath::Composed => self.instruments.composed.inc(),
                AnswerPath::Materialized => self.instruments.materialized.inc(),
            },
            Err(_) => self.instruments.errors.inc(),
        }
        result
    }

    fn query_inner(&self, q: &Query) -> Result<Answer, MediatorError> {
        // find the view the query addresses
        let view_name = q
            .root
            .test
            .names()
            .iter()
            .copied()
            .find(|n| self.views.contains_key(n))
            .ok_or_else(|| {
                MediatorError::UnknownView(
                    q.root.test.names().first().copied().unwrap_or(q.view_name),
                )
            })?;
        let any = &self.views[&view_name];
        let view_dtd = any.dtd();
        // a malformed query is the client's error, before any source call
        let nq = {
            let _s = self.registry.span("normalize");
            normalize(q, view_dtd)?
        };
        // 1. DTD-based simplification: prune certainly-empty queries with
        //    the emptiness decider. It runs uncached here: the sat cache
        //    and its counters belong to the per-source fetch prune.
        if any.plain_dtd_is_sound() && check_sat_normalized(&nq, view_dtd).is_unsat() {
            return Ok(Answer {
                document: empty_answer(q.view_name),
                path: AnswerPath::PrunedUnsatisfiable,
                degradation: None,
            });
        }
        // 2. composition with the definition of each member (a single
        //    view is its one member). Each composed query is shipped to
        //    its source through the resilience layer, so retries, the
        //    breaker, and stale answers apply exactly as on the
        //    materialization path, and stale answers are kept per composed
        //    query. Each reply is checked member by member against its
        //    member's view DTD: no DTD is ever inferred for a client's
        //    query. The replies are concatenated in union order.
        if let Some(calls) = any.composition(view_name, q) {
            let answers = self.fan_out(&calls)?;
            let (document, outcomes) = self.gather(any, view_name, q.view_name, answers)?;
            let degradation = if outcomes.iter().all(|o| o.status == FetchStatus::Fresh) {
                None
            } else {
                // served members passed their checks, so the view DTD
                // covers the survivors when the root model can do
                // without each failed member's contribution
                let covers = any.members().iter().zip(&outcomes).all(|(m, o)| {
                    o.status != FetchStatus::Failed || m.inferred.list_type.nullable()
                });
                let report = DegradationReport {
                    view: view_name.to_string(),
                    outcomes,
                    union_dtd_covers_survivors: covers,
                };
                self.note_degraded(&report);
                Some(report)
            };
            return Ok(Answer {
                document,
                path: AnswerPath::Composed,
                degradation,
            });
        }
        // 3. fall back to materialize-then-evaluate.
        let (materialized, report) = self.materialize_with_report(view_name)?;
        Ok(Answer {
            document: evaluate(&nq, &materialized),
            path: AnswerPath::Materialized,
            degradation: Some(report),
        })
    }

    /// Answers a batch of queries, one result per query **in input
    /// order**, using one worker per available unit of parallelism (see
    /// [`Mediator::answer_many_with_threads`]). Every worker runs the
    /// same pipeline as [`Mediator::query`] against the shared inference
    /// cache, and per-query `DegradationReport`s carry exactly what the
    /// sequential path would report.
    pub fn answer_many(&self, queries: &[Query]) -> Vec<Result<Answer, MediatorError>> {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.answer_many_with_threads(queries, threads)
    }

    /// [`Mediator::answer_many`] with an explicit worker count. `threads`
    /// of 0 or 1 answers sequentially on the calling thread; results are
    /// returned in input order regardless of completion order. Workers
    /// are scoped (`std::thread::scope`), so no runtime or thread-pool
    /// dependency is involved and borrows of `self` suffice.
    pub fn answer_many_with_threads(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Vec<Result<Answer, MediatorError>> {
        let workers = threads.clamp(1, queries.len().max(1));
        if workers <= 1 || queries.len() <= 1 {
            return queries.iter().map(|q| self.query(q)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<Answer, MediatorError>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= queries.len() {
                        break;
                    }
                    let answer = self.query(&queries[i]);
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(answer);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("every index below queries.len() was claimed by a worker")
            })
            .collect()
    }
}

/// The answer document with no members, under the root `name`.
pub(crate) fn empty_answer(name: Name) -> Document {
    Document::new(Element {
        name,
        id: ElemId::fresh(),
        content: Content::Elements(vec![]),
    })
}

/// The outcome of a member answered without a call: fresh, with the
/// breaker as it stands.
fn uncalled(source: &str, health: &Mutex<Health>) -> SourceOutcome {
    let breaker = health
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .state();
    SourceOutcome {
        source: source.to_owned(),
        status: FetchStatus::Fresh,
        retries: 0,
        backoff_ms: 0,
        error: None,
        breaker,
        short_circuited: false,
    }
}

/// Does the word of the root's child names fit the root model of `dtd`?
fn root_word_fits(dtd: &mix_dtd::Dtd, doc: &Document) -> bool {
    let word: Vec<mix_relang::Sym> = doc
        .root
        .children()
        .iter()
        .map(|c| c.name.untagged())
        .collect();
    match dtd.get(dtd.doc_type) {
        Some(mix_dtd::ContentModel::Elements(r)) => mix_relang::matches(r, &word),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::XmlSource;
    use mix_dtd::paper::d1_department;
    use mix_infer::Verdict;
    use mix_relang::symbol::name;
    use mix_xmas::parse_query;
    use mix_xml::parse_document;

    fn dept_doc() -> Document {
        parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>a</title><author>x</author><journal/></publication>\
                 <publication><title>b</title><author>x</author><journal/></publication>\
                 <teaches/></professor>\
               <professor><firstName>V</firstName><lastName>W</lastName>\
                 <publication><title>c</title><author>x</author><conference/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>d</title><author>x</author><journal/></publication>\
               </gradStudent></department>",
        )
        .unwrap()
    }

    fn mediator() -> Mediator {
        mediator_with(ProcessorConfig::default())
    }

    fn mediator_with(config: ProcessorConfig) -> Mediator {
        let mut m = Mediator::with_config(config);
        let src = XmlSource::new(d1_department(), dept_doc()).unwrap();
        m.add_source("cs-dept", Arc::new(src));
        let v = parse_query(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication><journal/></publication> \
               </> </>",
        )
        .unwrap();
        m.register_view("cs-dept", &v).unwrap();
        m
    }

    #[test]
    fn register_infers_view_dtd() {
        let m = mediator();
        let v = m.view(name("withJournals")).unwrap();
        assert_eq!(v.inferred.verdict, Verdict::Satisfiable);
        assert!(v.inferred.dtd.types.contains(name("withJournals")));
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut m = mediator();
        let v =
            parse_query("withJournals = SELECT X WHERE <department> X:<professor/> </>").unwrap();
        assert!(matches!(
            m.register_view("cs-dept", &v),
            Err(MediatorError::DuplicateView(_))
        ));
    }

    #[test]
    fn materialize_runs_the_view() {
        let m = mediator();
        let doc = m.materialize(name("withJournals")).unwrap();
        // prof Y (journal), gradStudent P (journal); prof V has only a
        // conference publication
        assert_eq!(doc.root.children().len(), 2);
    }

    #[test]
    fn query_composed_path() {
        let m = mediator();
        // professors in the view (drops the gradStudent)
        let q = parse_query("ans = SELECT X WHERE <withJournals> X:<professor/> </withJournals>")
            .unwrap();
        let a = m.query(&q).unwrap();
        assert_eq!(a.path, AnswerPath::Composed);
        assert_eq!(a.document.root.children().len(), 1);
        assert_eq!(
            a.document.root.children()[0].children()[0].pcdata(),
            Some("Y")
        );
    }

    /// A malformed client query is the client's error on every path; it
    /// never reaches a source, which would report it as its own failure.
    #[test]
    fn malformed_queries_are_normalize_errors() {
        let q = parse_query(
            "ans = SELECT X WHERE <withJournals> X:<professor/> </withJournals> AND X != Q",
        )
        .unwrap();
        let unknown = NormalizeError::UnknownDiseqVar(mix_xmas::Var::new("Q"));
        assert!(matches!(
            mediator().query(&q),
            Err(MediatorError::Normalize(e)) if e == unknown
        ));
    }

    #[test]
    fn query_pruned_by_simplifier() {
        let m = mediator();
        // view DTD knows a withJournals member has no 'course' children
        let q = parse_query(
            "ans = SELECT C WHERE <withJournals> <professor> C:<course/> </> </withJournals>",
        )
        .unwrap();
        let a = m.query(&q).unwrap();
        assert_eq!(a.path, AnswerPath::PrunedUnsatisfiable);
        assert_eq!(a.document.root.children().len(), 0);
    }

    #[test]
    fn a_pair_on_one_conditions_two_variables_is_pruned_at_the_view() {
        let m = mediator();
        // X and I bind one element, so X != I never holds
        let q = parse_query(
            "ans = SELECT X WHERE <withJournals> X:<professor id=I/> </withJournals> AND X != I",
        )
        .unwrap();
        let a = m.query(&q).unwrap();
        assert_eq!(a.path, AnswerPath::PrunedUnsatisfiable);
        assert_eq!(a.document.root.children().len(), 0);
    }

    #[test]
    fn composed_equals_materialized() {
        let with = mediator();
        let without = mediator_with(ProcessorConfig {
            use_sat_pruning: false,
        });
        for src in [
            "ans = SELECT P WHERE <withJournals> P:<professor/> </withJournals>",
            "ans = SELECT T WHERE <withJournals> <professor | gradStudent> \
               <publication> T:<title/> </publication> </> </withJournals>",
            "ans = SELECT P WHERE <withJournals> P:<gradStudent> <publication/> </> </>",
        ] {
            let q = parse_query(src).unwrap();
            let a = with.query(&q).unwrap();
            let b = evaluate(&q, &without.materialize(name("withJournals")).unwrap());
            // compare structures (IDs are fresh on both paths)
            assert!(
                mix_xml::same_structural_class(&a.document.root, &b.root),
                "composed vs materialized mismatch for {src}:\n{:?}\nvs\n{:?}",
                a.document,
                b
            );
        }
    }

    /// `replace_source` drops the source's stale answers, and its
    /// `source_stale_answer_bytes` gauge falls to 0 with them.
    #[test]
    fn replacing_a_source_empties_its_stale_answer_gauge() {
        let mut m = mediator();
        let gauge = r#"source_stale_answer_bytes{source="cs-dept"}"#;
        m.materialize(name("withJournals")).unwrap();
        assert!(m.registry().snapshot().gauges[gauge] > 0);
        let src = XmlSource::new(d1_department(), dept_doc()).unwrap();
        m.replace_source("cs-dept", Arc::new(src)).unwrap();
        assert_eq!(m.registry().snapshot().gauges[gauge], 0);
    }

    /// A wrapper that records the thread it answers on.
    struct OnThread(XmlSource, Mutex<Option<std::thread::ThreadId>>);

    impl Wrapper for OnThread {
        fn dtd(&self) -> &mix_dtd::Dtd {
            self.0.dtd()
        }

        fn fetch(&self) -> Result<Document, SourceError> {
            self.0.fetch()
        }

        fn answer(&self, q: &Query) -> Result<Document, SourceError> {
            *self.1.lock().unwrap() = Some(std::thread::current().id());
            self.0.answer(q)
        }
    }

    /// A fan-out answers its first live member on the calling thread and
    /// each other one on a thread of its own, in member order.
    #[test]
    fn fan_out_answers_the_first_member_on_the_calling_thread() {
        let mut m = Mediator::new();
        let mut sources = Vec::new();
        for s in ["s0", "s1", "s2"] {
            let src = XmlSource::new(d1_department(), dept_doc()).unwrap();
            let w = Arc::new(OnThread(src, Mutex::new(None)));
            m.add_source(s, Arc::clone(&w) as Arc<dyn Wrapper>);
            sources.push(w);
        }
        let q = parse_query("u = SELECT P WHERE <department> P:<professor/> </>").unwrap();
        let parts: Vec<(&str, Query)> = ["s0", "s1", "s2"].map(|s| (s, q.clone())).into();
        m.register_union_view("u", &parts).unwrap();
        let doc = m.materialize(name("u")).unwrap();
        assert_eq!(doc.root.children().len(), 6);
        let threads: Vec<_> = sources
            .iter()
            .map(|w| w.1.lock().unwrap().unwrap())
            .collect();
        let here = std::thread::current().id();
        assert_eq!(threads[0], here);
        assert!(threads[1] != here && threads[2] != here && threads[1] != threads[2]);
    }

    #[test]
    fn unknown_view_error() {
        let m = mediator();
        let q = parse_query("ans = SELECT X WHERE <nope> X:<a/> </nope>").unwrap();
        assert!(matches!(m.query(&q), Err(MediatorError::UnknownView(_))));
    }

    #[test]
    fn unknown_source_error() {
        let mut m = Mediator::new();
        let v = parse_query("v = SELECT X WHERE X:<a/>").unwrap();
        assert!(matches!(
            m.register_view("ghost", &v),
            Err(MediatorError::UnknownSource(_))
        ));
    }
}
