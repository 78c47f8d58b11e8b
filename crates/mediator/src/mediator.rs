//! The MIX mediator: view registration with DTD inference, and query
//! answering with DTD-based emptiness pruning and view–query composition.

use crate::compose::compose;
use crate::error::SourceError;
use crate::obs::{MediatorInstruments, SourceInstruments};
use crate::resilience::{
    resilient_answer, BreakerState, DegradationReport, FetchStatus, Health, ReplyCheck,
    ResiliencePolicy, SourceOutcome,
};
use crate::source::Wrapper;
use mix_infer::metrics::ServingMetrics;
use mix_infer::{
    check_sat_normalized, infer_union_view_dtd_cached, InferenceCache, InferredUnionView,
    InferredView,
};
use mix_obs::Registry;
use mix_relang::symbol::Name;
use mix_xmas::{evaluate, normalize, NormalizeError, Query};
use mix_xml::{Content, Document, ElemId, Element};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// How a query was answered — surfaced so the ablation benches (X8/X9)
/// and the examples can show the effect of each optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerPath {
    /// The emptiness decider proved the query unsatisfiable against the
    /// view DTD; no source was contacted.
    PrunedUnsatisfiable,
    /// The query was composed with the view definition and answered as
    /// one query against the source's document (no view
    /// materialization).
    Composed,
    /// The view was materialized and the query evaluated over it.
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
    /// that had to degrade. `None` for pruned queries and clean composed
    /// answers.
    pub degradation: Option<DegradationReport>,
}

/// Knobs for the query processor (used by the ablation experiments).
#[derive(Debug, Clone, Copy)]
pub struct ProcessorConfig {
    /// Use the view DTD to prune unsatisfiable queries (Section 1: "the
    /// query simplifier may employ the source DTDs to create a more
    /// efficient plan").
    pub use_simplifier: bool,
    /// Compose queries with view definitions instead of materializing.
    pub use_composition: bool,
    /// Check per-source queries against the source DTD with the
    /// satisfiability analyzer ([`mix_infer::check_sat`]) and skip the
    /// fetch entirely when the query is provably `Unsat`, synthesizing
    /// the empty contribution the source would have returned.
    pub use_sat_pruning: bool,
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        ProcessorConfig {
            use_simplifier: true,
            use_composition: true,
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
    /// parallel union materialization threads.
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
    /// shared with the parallel union-materialization threads.
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

    /// The satisfiability memo consulted before every fetch-shaped call
    /// (exposed so `mixctl explain --sat` can report per-source verdicts
    /// through the same cache the serving paths use).
    pub fn sat_cache(&self) -> &mix_infer::SatCache {
        &self.sat
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
        self.source_obs.insert(
            name.to_owned(),
            Arc::new(SourceInstruments::new(&self.registry, name)),
        );
    }

    /// The resilience policy in force.
    pub fn resilience_policy(&self) -> &ResiliencePolicy {
        &self.policy
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
    /// `union_dtd_covers_survivors` takes a walk over the answer only when
    /// some member was not served fresh. A clean report covers its answer
    /// without one: every member reply passed the whole-view check
    /// against its own member's inferred DTD (its s-DTD when the union
    /// has kind conflicts), the union DTD is assembled from those member
    /// DTDs, a member pruned as `Unsat` contributes exactly the empty
    /// answer [`mix_infer::check_sat`] proves, and members of distinct
    /// replies never share an auto ID.
    pub fn materialize_with_report(
        &self,
        name: Name,
    ) -> Result<(Document, DegradationReport), MediatorError> {
        // direct callers (federate, ViewWrapper) get their own trace;
        // inside `query()` the request's trace is already installed
        let _trace_scope = (mix_obs::current_trace() == 0).then(|| self.registry.begin_trace());
        let _span = self.registry.span("materialize");
        match self
            .views
            .get(&name)
            .ok_or(MediatorError::UnknownView(name))?
        {
            AnyView::Single(view) => {
                let (doc, outcome) = self.call_source(
                    &view.source,
                    &view.inferred.query,
                    ReplyCheck::View(&view.inferred.dtd),
                )?;
                match doc {
                    Some(document) => {
                        let mut report = DegradationReport {
                            view: name.to_string(),
                            outcomes: vec![outcome],
                            union_dtd_covers_survivors: true,
                        };
                        // a clean report needs no walk (see above)
                        if !report.is_clean() {
                            report.union_dtd_covers_survivors =
                                mix_dtd::satisfies(&view.inferred.dtd, &document);
                        }
                        self.note_degraded(&report);
                        Ok((document, report))
                    }
                    None => Err(MediatorError::Source {
                        source: view.source.clone(),
                        error: outcome
                            .error
                            .unwrap_or_else(|| SourceError::Unavailable("unknown".into())),
                    }),
                }
            }
            AnyView::Union(view) => {
                let answers = self.union_members(view)?;
                let _merge_span = self.registry.span("union_merge");
                let mut members = Vec::new();
                let mut outcomes = Vec::new();
                let mut served = 0usize;
                for (doc, outcome) in answers {
                    if let Some(part) = doc {
                        served += 1;
                        if let Content::Elements(kids) = part.root.content {
                            members.extend(kids);
                        }
                    }
                    outcomes.push(outcome);
                }
                if served == 0 {
                    return Err(MediatorError::AllSourcesFailed(name));
                }
                let document = Document::new(Element {
                    name,
                    id: ElemId::fresh(),
                    content: Content::Elements(members),
                });
                let mut report = DegradationReport {
                    view: name.to_string(),
                    outcomes,
                    union_dtd_covers_survivors: true,
                };
                // Does the inferred union DTD still soundly describe the
                // partial answer? A clean report needs no walk (see above).
                // A failed member whose contribution the root model
                // *requires* breaks coverage. Kind-conflicted unions have no
                // sound plain DTD, so the check runs on the specialized DTD.
                if !report.is_clean() {
                    report.union_dtd_covers_survivors = if view.inferred.kind_conflicts.is_empty() {
                        mix_dtd::satisfies(&view.inferred.dtd, &document)
                    } else {
                        mix_dtd::sdtd_satisfies(&view.inferred.sdtd, &document)
                    };
                }
                self.note_degraded(&report);
                Ok((document, report))
            }
        }
    }

    /// One resilient call per member of a union view, in parallel, in
    /// union order.
    fn union_members(
        &self,
        view: &UnionView,
    ) -> Result<Vec<(Option<Document>, SourceOutcome)>, MediatorError> {
        // resolve every wrapper (and its health record) up front so
        // configuration errors surface before any work is spawned
        type Part<'a> = (
            &'a str,
            Arc<dyn Wrapper>,
            Arc<Mutex<Health>>,
            &'a Query,
            ReplyCheck<'a>,
            Arc<SourceInstruments>,
        );
        // Members the analyzer proves `Unsat` are answered here with the
        // synthesized empty contribution (`slots[i]` pre-filled); only
        // the rest are spawned. Slot order stays the registration order.
        // Each reply is checked against its member's own view DTD, or its
        // s-DTD when the union's plain DTD is unsound (kind conflicts).
        let specialized = !view.inferred.kind_conflicts.is_empty();
        let mut slots: Vec<Option<(Option<Document>, SourceOutcome)>> = Vec::new();
        let mut live: Vec<(usize, Part<'_>)> = Vec::new();
        for (source, member) in view.sources.iter().zip(&view.inferred.members) {
            let wrapper = self
                .sources
                .get(source)
                .ok_or_else(|| MediatorError::UnknownSource(source.clone()))?;
            let health = Arc::clone(&self.health[source]);
            let obs = Arc::clone(&self.source_obs[source]);
            let q = &member.query;
            let check = if specialized {
                ReplyCheck::SpecializedView(&member.sdtd)
            } else {
                ReplyCheck::View(&member.dtd)
            };
            if let Some(skipped) = self.sat_skip(source, wrapper.as_ref(), &health, q) {
                slots.push(Some(skipped));
            } else {
                live.push((
                    slots.len(),
                    (source.as_str(), Arc::clone(wrapper), health, q, check, obs),
                ));
                slots.push(None);
            }
        }
        // query the surviving sources in parallel (wrappers are Send +
        // Sync). The caller's trace id is propagated into each worker so
        // every `fetch/<source>` span joins the request's trace.
        let policy = &self.policy;
        let trace = mix_obs::current_trace();
        let answered: Vec<(usize, (Option<Document>, SourceOutcome))> = if live.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .iter()
                    .map(|(i, (s, w, h, q, check, obs))| {
                        let i = *i;
                        scope.spawn(move || {
                            let _t = mix_obs::set_current_trace(trace);
                            (
                                i,
                                resilient_answer(s, w.as_ref(), q, *check, policy, h, obs),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("source query panicked"))
                    .collect()
            })
        } else {
            live.iter()
                .map(|(i, (s, w, h, q, check, obs))| {
                    (
                        *i,
                        resilient_answer(s, w.as_ref(), q, *check, policy, h, obs),
                    )
                })
                .collect()
        };
        for (i, answer) in answered {
            slots[i] = Some(answer);
        }
        Ok(slots
            .into_iter()
            .map(|slot| slot.expect("every member slot was filled"))
            .collect())
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

    /// Consults the satisfiability analyzer before a fetch-shaped call:
    /// when pruning is enabled and the per-source query is provably
    /// `Unsat` against the source DTD, returns the empty contribution
    /// (and a clean outcome) the source would have produced — without
    /// contacting it. `Sat` and `Unknown` return `None`: the fetch
    /// proceeds exactly as before, which is what keeps pruning sound.
    fn sat_skip(
        &self,
        source: &str,
        wrapper: &dyn Wrapper,
        health: &Arc<Mutex<Health>>,
        q: &Query,
    ) -> Option<(Option<Document>, SourceOutcome)> {
        if !self.config.use_sat_pruning || !self.sat.verdict(q, wrapper.dtd()).is_unsat() {
            return None;
        }
        self.instruments.sat_pruned.inc();
        let breaker = health
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .state();
        Some((
            Some(empty_answer(q.view_name)),
            SourceOutcome {
                source: source.to_owned(),
                status: FetchStatus::Fresh,
                retries: 0,
                backoff_ms: 0,
                error: None,
                breaker,
                short_circuited: false,
            },
        ))
    }

    /// One resilient call to a registered source: ships `q` and serves
    /// the reply only if it passes `check`.
    fn call_source(
        &self,
        source: &str,
        q: &Query,
        check: ReplyCheck<'_>,
    ) -> Result<(Option<Document>, SourceOutcome), MediatorError> {
        let wrapper = self
            .sources
            .get(source)
            .ok_or_else(|| MediatorError::UnknownSource(source.to_owned()))?;
        let health = &self.health[source];
        if let Some(skipped) = self.sat_skip(source, wrapper.as_ref(), health, q) {
            return Ok(skipped);
        }
        Ok(resilient_answer(
            source,
            wrapper.as_ref(),
            q,
            check,
            &self.policy,
            health,
            &self.source_obs[source],
        ))
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
        let dtd_sound = any.plain_dtd_is_sound();
        // 1. DTD-based simplification: prune certainly-empty queries with
        //    the emptiness decider. It runs uncached here: the sat cache
        //    and its counters belong to the per-source fetch prune.
        if self.config.use_simplifier && dtd_sound {
            let nq = {
                let _s = self.registry.span("normalize");
                normalize(q, view_dtd)?
            };
            if check_sat_normalized(&nq, view_dtd).is_unsat() {
                return Ok(Answer {
                    document: empty_answer(q.view_name),
                    path: AnswerPath::PrunedUnsatisfiable,
                    degradation: None,
                });
            }
        }
        // 2. composition with the view definition (single-source views).
        //    The composed query is shipped to the source through the
        //    resilience layer, so retries, the breaker, and stale answers
        //    apply exactly as on the materialization path. Its reply is
        //    checked member by member against the view DTD: no DTD is
        //    ever inferred for a client's query.
        if self.config.use_composition {
            if let AnyView::Single(view) = any {
                if let Some(composed) = compose(&view.inferred.query, q) {
                    let (doc, outcome) = self.call_source(
                        &view.source,
                        &composed,
                        ReplyCheck::Members(&view.inferred.dtd),
                    )?;
                    return match doc {
                        Some(document) => {
                            let degradation = if outcome.status == FetchStatus::Fresh {
                                None
                            } else {
                                let report = DegradationReport {
                                    view: view_name.to_string(),
                                    outcomes: vec![outcome],
                                    union_dtd_covers_survivors: true,
                                };
                                self.note_degraded(&report);
                                Some(report)
                            };
                            Ok(Answer {
                                document,
                                path: AnswerPath::Composed,
                                degradation,
                            })
                        }
                        None => Err(MediatorError::Source {
                            source: view.source.clone(),
                            error: outcome
                                .error
                                .unwrap_or_else(|| SourceError::Unavailable("unknown".into())),
                        }),
                    };
                }
            }
        }
        // 3. fall back to materialize-then-evaluate.
        let (materialized, report) = self.materialize_with_report(view_name)?;
        let nq = {
            let _s = self.registry.span("normalize");
            normalize(q, view_dtd)?
        };
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

fn empty_answer(name: Name) -> Document {
    Document::new(Element {
        name,
        id: ElemId::fresh(),
        content: Content::Elements(vec![]),
    })
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
        let mut m = Mediator::new();
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
    fn composed_equals_materialized() {
        let with = mediator();
        let without = {
            let mut m = Mediator::with_config(ProcessorConfig {
                use_simplifier: false,
                use_composition: false,
                use_sat_pruning: false,
            });
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
        };
        for src in [
            "ans = SELECT P WHERE <withJournals> P:<professor/> </withJournals>",
            "ans = SELECT T WHERE <withJournals> <professor | gradStudent> \
               <publication> T:<title/> </publication> </> </withJournals>",
            "ans = SELECT P WHERE <withJournals> P:<gradStudent> <publication/> </> </>",
        ] {
            let q = parse_query(src).unwrap();
            let a = with.query(&q).unwrap();
            let b = without.query(&q).unwrap();
            assert_eq!(b.path, AnswerPath::Materialized);
            // compare structures (IDs are fresh on both paths)
            assert!(
                mix_xml::same_structural_class(&a.document.root, &b.document.root),
                "composed vs materialized mismatch for {src}:\n{:?}\nvs\n{:?}",
                a.document,
                b.document
            );
        }
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
