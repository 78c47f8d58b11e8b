//! Per-source resilience: retries, circuit breakers, last-good answers,
//! and the degradation report for partial union answers.
//!
//! Everything here is deterministic. Retry backoff is *virtual* — the
//! would-have-slept milliseconds are recorded in the outcome, never
//! slept. Breaker cooldown is measured in rejected calls *to that
//! source*, not wall time, so the state machine advances identically no
//! matter how fast (or parallel) the callers are. Combined with the
//! seeded [`crate::fault::FaultInjector`], a federation run with a fixed
//! seed produces the same [`DegradationReport`] byte for byte, every
//! time.
//!
//! The call path ([`resilient_answer`]) ships the normalized query to the
//! wrapper's own [`Wrapper::answer`] and checks the reply against the
//! view DTD the mediator already holds ([`ReplyCheck`]); a reply that
//! fails the check is [`SourceError::DtdInvalid`]. The check rejects
//! every answer the inferred view DTD rules out, so validation stays a
//! property of the mediator's edge, not of each wrapper's good behavior.
//! It does not see the parts of a source the query does not return
//! (DESIGN.md §7).

use crate::error::SourceError;
use crate::obs::SourceInstruments;
use crate::source::Wrapper;
use mix_dtd::{SDtd, Validator};
use mix_infer::fingerprint_query;
use mix_xmas::{normalize, Query};
use mix_xml::{parse_document, write_document, Content, Document, Fingerprint, WriteConfig};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Knobs for the per-source resilience machinery.
#[derive(Debug, Clone, Copy)]
pub struct ResiliencePolicy {
    /// Extra attempts after the first, for *transient* errors only.
    pub max_retries: u32,
    /// Consecutive source faults that trip the breaker open.
    pub failure_threshold: u32,
    /// Calls rejected while open before the breaker half-opens and lets
    /// one probe through.
    pub cooldown_calls: u32,
    /// On failure, serve the last good answer to the same query (marked
    /// [`FetchStatus::Stale`]) instead of failing the member outright.
    pub serve_stale: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: true,
        }
    }
}

/// The circuit breaker's state for one source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow through.
    Closed,
    /// Tripped: calls are rejected without contacting the source.
    Open,
    /// Cooled down: the next call is a probe; success re-closes, failure
    /// re-opens.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Mutable per-source health, shared by every call that targets the
/// source.
#[derive(Debug)]
pub struct Health {
    state: BreakerState,
    consecutive_failures: u32,
    rejected_while_open: u32,
    answers: StaleAnswers,
}

/// Last good answers a source's [`Health`] keeps for stale serving; past
/// it the oldest is dropped. A source serves a bounded working set of
/// normalized queries, and an evicted query only loses its stale
/// fallback until it is next answered fresh.
pub const STALE_ANSWERS_CAP: usize = 256;

/// Element nodes the kept answers of one source may hold in total. An
/// answer larger than this on its own is never kept.
pub const STALE_ANSWERS_MAX_ELEMENTS: usize = 1 << 20;

/// The seed of every kept answer's content fingerprint in this
/// process, drawn from a [`RandomState`] so that no source can aim a
/// reply at a fingerprint.
fn answer_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0_u64))
}

/// One kept answer: the fingerprint of its content, its element count,
/// and its compact text with explicit IDs. Reading the text back gives
/// fresh auto IDs, so two served copies never share one.
#[derive(Debug)]
struct KeptAnswer {
    hash: u64,
    elements: usize,
    /// Shared, so that serving takes it out from under the health lock
    /// without a copy and parses it after.
    text: Arc<str>,
}

impl KeptAnswer {
    /// `answer`, whose fingerprint is `print`, written as text.
    fn write(answer: &Document, print: &Fingerprint) -> KeptAnswer {
        let compact = WriteConfig {
            indent: None,
            write_ids: true,
        };
        KeptAnswer {
            hash: print.hash,
            elements: print.elements,
            text: write_document(answer, compact).into(),
        }
    }
}

/// The last good answer to each normalized query one source answered
/// fresh, keyed by the query's fingerprint and bounded by
/// [`STALE_ANSWERS_CAP`] and [`STALE_ANSWERS_MAX_ELEMENTS`] (oldest out
/// first). Answers are kept as text: a kept answer is cold data, served
/// only when its source fails.
#[derive(Debug)]
struct StaleAnswers {
    map: HashMap<u64, KeptAnswer>,
    /// Keys, oldest first.
    order: VecDeque<u64>,
    elements: usize,
    /// Bytes of the kept answers' text.
    bytes: usize,
    cap: usize,
    max_elements: usize,
}

impl Default for StaleAnswers {
    fn default() -> Self {
        StaleAnswers::with_bounds(STALE_ANSWERS_CAP, STALE_ANSWERS_MAX_ELEMENTS)
    }
}

impl StaleAnswers {
    fn with_bounds(cap: usize, max_elements: usize) -> StaleAnswers {
        StaleAnswers {
            map: HashMap::new(),
            order: VecDeque::new(),
            elements: 0,
            bytes: 0,
            cap,
            max_elements,
        }
    }

    /// Whether a fresh answer to query `fp` whose fingerprint is `print`
    /// is to be written and kept. A repeat of the kept content (up to
    /// auto IDs) is the common case and is not. An answer the table
    /// cannot keep, larger than the element budget on its own or not
    /// reproduced by its text ([`Fingerprint::reads_back`]), is not
    /// either, and the answer kept before it is dropped, so that the
    /// query has no stale fallback older than its last good answer.
    fn wants(&mut self, fp: u64, print: &Fingerprint) -> bool {
        if self.holds(fp, print.hash) {
            return false;
        }
        if print.reads_back && print.elements <= self.max_elements {
            return true;
        }
        self.forget(fp);
        false
    }

    /// Keeps `answer`, which [`StaleAnswers::wants`] asked for, as the
    /// newest answer to query `fp`, dropping the oldest past the bounds.
    fn keep(&mut self, fp: u64, answer: KeptAnswer) {
        // another call may have kept the same content meanwhile
        if self.holds(fp, answer.hash) {
            return;
        }
        self.forget(fp);
        while self.map.len() >= self.cap || self.elements + answer.elements > self.max_elements {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(old) = self.map.remove(&oldest) {
                self.elements -= old.elements;
                self.bytes -= old.text.len();
            }
        }
        self.elements += answer.elements;
        self.bytes += answer.text.len();
        self.order.push_back(fp);
        self.map.insert(fp, answer);
    }

    /// Whether the answer kept for query `fp` has content fingerprint
    /// `hash`.
    fn holds(&self, fp: u64, hash: u64) -> bool {
        self.map.get(&fp).is_some_and(|kept| kept.hash == hash)
    }

    fn forget(&mut self, fp: u64) {
        if let Some(old) = self.map.remove(&fp) {
            self.elements -= old.elements;
            self.bytes -= old.text.len();
            self.order.retain(|&k| k != fp);
        }
    }

    /// The text of the answer kept for query `fp`.
    fn text(&self, fp: u64) -> Option<Arc<str>> {
        self.map.get(&fp).map(|kept| Arc::clone(&kept.text))
    }

    /// [`StaleAnswers::wants`] and [`StaleAnswers::keep`] in one step,
    /// which [`resilient_answer`] splits across two holds of the health
    /// lock so that the walk and the write run outside it.
    #[cfg(test)]
    fn remember(&mut self, fp: u64, answer: &Document) {
        let print = answer.root.fingerprint(answer_seed());
        if self.wants(fp, &print) {
            self.keep(fp, KeptAnswer::write(answer, &print));
        }
    }

    /// The answer kept for query `fp`, read back.
    #[cfg(test)]
    fn serve(&self, fp: u64) -> Option<Document> {
        self.text(fp).and_then(|text| parse_document(&text).ok())
    }
}

/// What the breaker decided for one incoming call — the result of
/// [`Health::gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerGate {
    /// Closed: the call flows through normally.
    Pass,
    /// This call completed the cooldown and transitioned Open →
    /// HalfOpen *now*: it goes through as the single probe, and the
    /// caller should emit its half-open event.
    HalfOpened,
    /// Already half-open (some earlier call transitioned): this call
    /// also probes, but no transition happened here.
    Probe,
    /// Open and still cooling down: reject without contacting the
    /// source.
    Reject,
}

impl Health {
    /// A fresh, closed health record with no stale answers.
    pub fn new() -> Health {
        Health {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            rejected_while_open: 0,
            answers: StaleAnswers::default(),
        }
    }

    /// Current breaker state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many queries have a last good answer held for stale serving.
    pub fn stale_answers(&self) -> usize {
        self.answers.map.len()
    }

    /// The text of the last good answer to query `fp`, when `policy`
    /// serves stale answers. [`serve_stale_or_fail`] reads it after the
    /// lock is released.
    fn stale_text(&self, fp: u64, policy: &ResiliencePolicy) -> Option<Arc<str>> {
        if policy.serve_stale {
            self.answers.text(fp)
        } else {
            None
        }
    }

    /// Gates one call through the breaker: an open breaker counts the
    /// rejection and half-opens once `cooldown_calls` of them have
    /// accumulated. This is the shared state machine of
    /// [`resilient_answer`] and the replica router
    /// ([`crate::topology::ReplicaSet`]); observability stays with the
    /// caller so event ordering is theirs to pin.
    pub fn gate(&mut self, cooldown_calls: u32) -> BreakerGate {
        match self.state {
            BreakerState::Closed => BreakerGate::Pass,
            BreakerState::HalfOpen => BreakerGate::Probe,
            BreakerState::Open => {
                self.rejected_while_open += 1;
                if self.rejected_while_open >= cooldown_calls {
                    self.state = BreakerState::HalfOpen;
                    BreakerGate::HalfOpened
                } else {
                    BreakerGate::Reject
                }
            }
        }
    }

    /// Records a successful call: failure accounting resets and the
    /// breaker closes. Returns `true` when this closed a previously
    /// non-closed breaker — the caller's cue to emit its close event.
    pub fn record_success(&mut self) -> bool {
        let reclosed = self.state != BreakerState::Closed;
        self.consecutive_failures = 0;
        self.rejected_while_open = 0;
        self.state = BreakerState::Closed;
        reclosed
    }

    /// Records a source fault: a failed half-open probe re-opens
    /// immediately, and `failure_threshold` consecutive faults trip a
    /// closed breaker. Returns `true` when this opened a previously
    /// non-open breaker — the caller's cue to emit its open event.
    /// Callers must filter with [`SourceError::is_source_fault`] first;
    /// query errors, version mismatches, and throttles never land here.
    pub fn record_failure(&mut self, failure_threshold: u32) -> bool {
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen || self.consecutive_failures >= failure_threshold {
            let newly_opened = self.state != BreakerState::Open;
            self.state = BreakerState::Open;
            self.rejected_while_open = 0;
            newly_opened
        } else {
            false
        }
    }
}

impl Default for Health {
    fn default() -> Self {
        Health::new()
    }
}

/// How a member's data was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStatus {
    /// Served from a live answer that passed the reply check.
    Fresh,
    /// The live call failed; served the last good answer to the query.
    Stale,
    /// The live call failed and no stale answer was available: this
    /// member contributed nothing.
    Failed,
}

impl fmt::Display for FetchStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FetchStatus::Fresh => "fresh",
            FetchStatus::Stale => "stale",
            FetchStatus::Failed => "failed",
        })
    }
}

/// What happened on one resilient call to one source.
#[derive(Debug, Clone)]
pub struct SourceOutcome {
    /// The source's registered name.
    pub source: String,
    /// How (whether) the member was served.
    pub status: FetchStatus,
    /// Retries actually used (0 = first attempt decided it).
    pub retries: u32,
    /// Total virtual backoff recorded across those retries, in ms.
    pub backoff_ms: u64,
    /// The last error, if the live call ultimately failed.
    pub error: Option<SourceError>,
    /// Breaker state *after* the call.
    pub breaker: BreakerState,
    /// True when the breaker rejected the call without contacting the
    /// source at all.
    pub short_circuited: bool,
}

/// The structured account of a degraded (or clean) view materialization:
/// one [`SourceOutcome`] per member source, in registration order.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// The view that was materialized.
    pub view: String,
    /// Per-source outcomes, in registration (union) order.
    pub outcomes: Vec<SourceOutcome>,
    /// Whether the inferred union view DTD still soundly covers the
    /// partial answer assembled from the surviving members. `false` means
    /// a consumer reasoning with the advertised view DTD could draw
    /// unsound conclusions about this particular answer. A clean report
    /// is `true` by the inference's soundness, a degraded materialization
    /// checks only the root's word of child names (the whole answer
    /// against the s-DTD under kind conflicts; see
    /// `Mediator::materialize_with_report`), and a degraded composed
    /// answer is `true` iff every failed member's inferred list type
    /// accepts the empty word.
    pub union_dtd_covers_survivors: bool,
}

impl DegradationReport {
    /// True when every member was served fresh.
    pub fn is_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == FetchStatus::Fresh)
    }

    /// The sources that contributed nothing.
    pub fn failed_sources(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.status == FetchStatus::Failed)
            .map(|o| o.source.as_str())
            .collect()
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let served = self
            .outcomes
            .iter()
            .filter(|o| o.status != FetchStatus::Failed)
            .count();
        writeln!(
            f,
            "view '{}': {}/{} sources served, union DTD covers survivors: {}",
            self.view,
            served,
            self.outcomes.len(),
            if self.union_dtd_covers_survivors {
                "yes"
            } else {
                "no"
            }
        )?;
        for o in &self.outcomes {
            write!(
                f,
                "  {:<12} {:<6} breaker={}",
                o.source,
                o.status.to_string(),
                o.breaker
            )?;
            if o.retries > 0 {
                write!(f, " retries={} backoff={}ms", o.retries, o.backoff_ms)?;
            }
            if o.short_circuited {
                write!(f, " short-circuited")?;
            }
            if let Some(e) = &o.error {
                write!(f, " error[{}]: {}", e.kind(), e)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// How [`resilient_answer`] checks a reply against the view DTD the
/// mediator already holds, before serving it. A reply that fails is
/// [`SourceError::DtdInvalid`]. No variant infers anything: each checks
/// against a DTD inferred when the view was registered, and the plain
/// ones through that DTD's [`Validator`], which the mediator compiles
/// once per member (DESIGN.md §7).
#[derive(Debug, Clone, Copy)]
pub enum ReplyCheck<'a> {
    /// The reply is a whole materialized view: it must be valid under
    /// the view's inferred DTD (Definition 2.4, IDs unique).
    View(&'a Validator),
    /// As [`ReplyCheck::View`], against the view's specialized DTD — for
    /// the members of a union whose plain DTD has kind conflicts.
    SpecializedView(&'a SDtd),
    /// The reply answers a query composed with a view whose inferred DTD
    /// this validates. Every child of the reply root must satisfy that
    /// DTD as an element (Definition 2.3) and have a name the query's
    /// pick test admits, and no two elements may share an ID.
    Members(&'a Validator),
}

impl ReplyCheck<'_> {
    /// Checks `reply`, the wrapper's answer to the normalized query `nq`.
    pub fn check(&self, nq: &Query, reply: &Document) -> Result<(), SourceError> {
        match *self {
            ReplyCheck::View(validator) => validator
                .validate_document(reply)
                .map_err(|e| SourceError::invalid(&e)),
            ReplyCheck::SpecializedView(sdtd) => {
                if mix_dtd::sdtd_satisfies(sdtd, reply) {
                    Ok(())
                } else {
                    Err(SourceError::DtdInvalid(format!(
                        "at /{}: answer does not satisfy the specialized view DTD",
                        reply.root.name
                    )))
                }
            }
            ReplyCheck::Members(validator) => check_members(validator, nq, reply),
        }
    }
}

/// [`ReplyCheck::Members`]. Sound because composition equals
/// materialize-then-evaluate: every member of a correct answer is a
/// subtree of a view document valid under the view DTD `validator`
/// checks, bound to the pick variable.
fn check_members(validator: &Validator, nq: &Query, reply: &Document) -> Result<(), SourceError> {
    let root = reply.root.name;
    let invalid = |detail: String| Err(SourceError::DtdInvalid(format!("at /{root}{detail}")));
    if root != nq.view_name {
        return invalid(format!(": answer root is not '{}'", nq.view_name));
    }
    let members = match &reply.root.content {
        Content::Elements(members) => members,
        Content::Text(_) => return invalid(": answer root has string content".into()),
    };
    let pick = nq.pick_node().map(|c| &c.test);
    for member in members {
        if !pick.is_some_and(|t| t.matches(member.name)) {
            return invalid(format!("/{}: not a name the query picks", member.name));
        }
        validator.validate_element(member).map_err(|mut e| {
            e.path.insert(0, root);
            SourceError::invalid(&e)
        })?;
    }
    match reply.duplicate_id() {
        Some(id) => invalid(format!(": duplicate id '{id}'")),
        None => Ok(()),
    }
}

/// One resilient answer call: breaker check, bounded retry with virtual
/// backoff, the reply check, last-good-answer capture, and stale
/// fallback.
///
/// The query is normalized against the wrapper's DTD and shipped through
/// [`Wrapper::answer`]; each reply must pass `check` to be served fresh.
/// Returns the answer document (when status is not
/// [`FetchStatus::Failed`]) plus the outcome record. `source` is only
/// used to label the outcome.
///
/// Stale serving is per query: on failure the last good answer to the
/// same normalized query (by fingerprint) is served, so a query never
/// answered fresh has no stale answer.
///
/// `obs` records what happened *as it happens*: per-attempt fetch
/// latency (histogram + `fetch/<source>` span), retry and
/// short-circuit counters, served-fresh/stale/failed counters, and an
/// ordered event for every breaker transition and degraded serve —
/// emitted at the transition point, not reconstructed from the
/// [`DegradationReport`] afterwards. Callers outside a mediator pass
/// [`SourceInstruments::noop`].
pub fn resilient_answer(
    source: &str,
    wrapper: &dyn Wrapper,
    query: &Query,
    check: ReplyCheck<'_>,
    policy: &ResiliencePolicy,
    health: &Mutex<Health>,
    obs: &SourceInstruments,
) -> (Option<Document>, SourceOutcome) {
    let mut outcome = SourceOutcome {
        source: source.to_owned(),
        status: FetchStatus::Failed,
        retries: 0,
        backoff_ms: 0,
        error: None,
        breaker: BreakerState::Closed,
        short_circuited: false,
    };

    // The query must normalize against this source's DTD before anything
    // else; a rejection is the caller's fault and never touches the
    // breaker or the source.
    let nq = match normalize(query, wrapper.dtd()) {
        Ok(nq) => nq,
        Err(e) => {
            outcome.error = Some(SourceError::Query(e));
            outcome.breaker = lock(health).state;
            // no normalized form exists, so no stale answer either
            return serve_stale_or_fail(None, outcome, obs);
        }
    };
    let fp = fingerprint_query(&nq);

    // Breaker gate.
    {
        let mut h = lock(health);
        match h.gate(policy.cooldown_calls) {
            BreakerGate::HalfOpened => {
                obs.breaker_half_opened.inc();
                obs.event("breaker-half-open", "cooldown complete; this call probes");
            }
            BreakerGate::Reject => {
                outcome.error = Some(SourceError::Unavailable(format!(
                    "circuit open for '{source}'"
                )));
                outcome.breaker = h.state;
                outcome.short_circuited = true;
                obs.short_circuits.inc();
                let kept = h.stale_text(fp, policy);
                drop(h);
                return serve_stale_or_fail(kept, outcome, obs);
            }
            BreakerGate::Pass | BreakerGate::Probe => {}
        }
    }

    // Attempt loop: the first attempt plus up to `max_retries` retries,
    // retrying only transient errors. Half-open probes get exactly one
    // attempt — a flapping source must prove itself without the benefit
    // of retries.
    let probing = lock(health).state == BreakerState::HalfOpen;
    let budget = if probing { 0 } else { policy.max_retries };
    let mut last_err: SourceError;
    loop {
        let attempt = {
            let _span = obs.registry().span(obs.fetch_stage());
            let timer = obs.fetch_latency.start();
            let r = wrapper
                .answer(&nq)
                .and_then(|reply| check.check(&nq, &reply).map(|()| reply));
            timer.stop();
            r
        };
        match attempt {
            Ok(answer) => {
                // the reply is walked before the health lock is taken and
                // written after it is released: under it run only the
                // stale table's lookup and, for a changed answer, insert
                let print = answer.root.fingerprint(answer_seed());
                let mut h = lock(health);
                if h.record_success() {
                    obs.breaker_closed.inc();
                    obs.event("breaker-close", "probe succeeded; breaker closed");
                }
                let changed = h.answers.wants(fp, &print);
                obs.stale_answer_bytes.set(h.answers.bytes as i64);
                obs.fresh.inc();
                outcome.status = FetchStatus::Fresh;
                outcome.breaker = h.state;
                drop(h);
                if changed {
                    let kept = KeptAnswer::write(&answer, &print);
                    let mut h = lock(health);
                    h.answers.keep(fp, kept);
                    obs.stale_answer_bytes.set(h.answers.bytes as i64);
                }
                return (Some(answer), outcome);
            }
            Err(e) => {
                let retryable = e.is_transient();
                last_err = e;
                if retryable && outcome.retries < budget {
                    outcome.retries += 1;
                    outcome.backoff_ms = outcome
                        .backoff_ms
                        .saturating_add(backoff_step(outcome.retries));
                    obs.retries.inc();
                    continue;
                }
                break;
            }
        }
    }

    // The call failed for good: account it against the breaker, then
    // degrade to the last good answer if allowed.
    let mut h = lock(health);
    if last_err.is_source_fault() && h.record_failure(policy.failure_threshold) {
        obs.breaker_opened.inc();
        obs.event(
            "breaker-open",
            &format!(
                "opened after {} consecutive failures ({})",
                h.consecutive_failures,
                last_err.kind()
            ),
        );
    }
    outcome.error = Some(last_err);
    outcome.breaker = h.state;
    let kept = h.stale_text(fp, policy);
    drop(h);
    serve_stale_or_fail(kept, outcome, obs)
}

/// `health`, locked, also when a panicking caller poisoned it.
fn lock(health: &Mutex<Health>) -> MutexGuard<'_, Health> {
    health
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The virtual backoff before the first retry, in milliseconds; each
/// further retry doubles it. Recorded, never slept.
const BACKOFF_BASE_MS: u64 = 10;

/// The virtual backoff before retry `n` (1-based):
/// `BACKOFF_BASE_MS << (n-1)`, saturating at `u64::MAX` once a bit would
/// shift out.
fn backoff_step(n: u32) -> u64 {
    if n - 1 > BACKOFF_BASE_MS.leading_zeros() {
        u64::MAX
    } else {
        BACKOFF_BASE_MS << (n - 1)
    }
}

/// Degrade to the last good answer, whose text [`Health::stale_text`]
/// gave as `kept`, when there is one; otherwise report the member
/// failed. Either way the degradation is recorded as an obs event *now*
/// — at occurrence time — so a live `mixctl stats` sees it even if the
/// eventual [`DegradationReport`] is dropped by the caller.
fn serve_stale_or_fail(
    kept: Option<Arc<str>>,
    mut outcome: SourceOutcome,
    obs: &SourceInstruments,
) -> (Option<Document>, SourceOutcome) {
    // the parse gives fresh auto IDs; it fails only on a repeated
    // explicit ID, which no reply check passes
    if let Some(answer) = kept.and_then(|text| parse_document(&text).ok()) {
        outcome.status = FetchStatus::Stale;
        obs.stale.inc();
        obs.event("stale-serve", "serving the last good answer to this query");
        return (Some(answer), outcome);
    }
    outcome.status = FetchStatus::Failed;
    obs.failed.inc();
    let cause = outcome.error.as_ref().map_or("unknown", |e| e.kind());
    obs.event(
        "source-failed",
        &format!("no live answer and no stale answer; member failed ({cause})"),
    );
    (None, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultInjector, FaultPlan};
    use crate::source::XmlSource;
    use mix_dtd::parse_compact;
    use mix_xmas::parse_query;
    use mix_xml::Element;

    fn base() -> Arc<XmlSource> {
        let dtd = parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
        Arc::new(XmlSource::new(dtd, doc).unwrap())
    }

    fn query() -> Query {
        parse_query("ans = SELECT X WHERE <r> X:<a/> </r>").unwrap()
    }

    fn call(
        w: &dyn Wrapper,
        policy: &ResiliencePolicy,
        health: &Mutex<Health>,
    ) -> (Option<Document>, SourceOutcome) {
        call_obs(w, policy, health, &SourceInstruments::noop("s"))
    }

    /// Ships `query()` with the whole-view check against its DTD
    /// inferred over `w`'s DTD, as a mediator materializing that view
    /// does.
    fn call_obs(
        w: &dyn Wrapper,
        policy: &ResiliencePolicy,
        health: &Mutex<Health>,
        obs: &SourceInstruments,
    ) -> (Option<Document>, SourceOutcome) {
        ship(w, &query(), policy, health, obs)
    }

    /// Ships `q` with the whole-view check against its DTD inferred over
    /// `w`'s DTD.
    fn ship(
        w: &dyn Wrapper,
        q: &Query,
        policy: &ResiliencePolicy,
        health: &Mutex<Health>,
        obs: &SourceInstruments,
    ) -> (Option<Document>, SourceOutcome) {
        let view = mix_infer::infer_view_dtd(q, w.dtd()).unwrap();
        resilient_answer(
            "s",
            w,
            q,
            ReplyCheck::View(&Validator::new(&view.dtd)),
            policy,
            health,
            obs,
        )
    }

    /// A wrapper over `base()`'s DTD that answers every query with the
    /// next of its replies, and is unavailable once they run out.
    struct Replies {
        dtd: mix_dtd::Dtd,
        replies: Mutex<VecDeque<Document>>,
    }

    impl Replies {
        fn new(replies: Vec<Document>) -> Replies {
            Replies {
                dtd: base().dtd().clone(),
                replies: Mutex::new(replies.into()),
            }
        }
    }

    impl Wrapper for Replies {
        fn dtd(&self) -> &mix_dtd::Dtd {
            &self.dtd
        }

        fn fetch(&self) -> Result<Document, SourceError> {
            Err(SourceError::Unavailable("replies only".into()))
        }

        fn answer(&self, _: &Query) -> Result<Document, SourceError> {
            self.replies
                .lock()
                .unwrap()
                .pop_front()
                .ok_or_else(|| SourceError::Unavailable("out of replies".into()))
        }
    }

    /// The value of the `source_stale_answer_bytes` gauge of source `s`.
    fn stale_bytes(registry: &mix_obs::Registry) -> i64 {
        registry.snapshot().gauges[r#"source_stale_answer_bytes{source="s"}"#]
    }

    /// The compact text of `xml` with IDs, as the stale table keeps it.
    fn compact_len(xml: &str) -> i64 {
        let doc = parse_document(xml).unwrap();
        let compact = WriteConfig {
            indent: None,
            write_ids: true,
        };
        write_document(&doc, compact).len() as i64
    }

    #[test]
    fn clean_source_serves_fresh() {
        let w = base();
        let health = Mutex::new(Health::new());
        let (doc, o) = call(w.as_ref(), &ResiliencePolicy::default(), &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.breaker, BreakerState::Closed);
        assert_eq!(o.retries, 0);
        assert_eq!(doc.unwrap().root.children().len(), 2);
        assert_eq!(health.lock().unwrap().stale_answers(), 1);
    }

    #[test]
    fn transient_errors_are_retried_with_virtual_backoff() {
        // faults on calls 0 and 1; call 2 succeeds — inside the default
        // 2-retry budget
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::Transient), Some(Fault::Timeout), None]),
        );
        let health = Mutex::new(Health::new());
        let (doc, o) = call(&w, &ResiliencePolicy::default(), &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.retries, 2);
        assert_eq!(o.backoff_ms, 10 + 20);
        assert!(doc.is_some());
        // success resets the failure count
        assert_eq!(health.lock().unwrap().consecutive_failures, 0);
    }

    #[test]
    fn non_transient_errors_are_not_retried() {
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::MalformedXml), None]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Failed);
        assert_eq!(o.retries, 0);
        assert!(doc.is_none());
        assert_eq!(w.calls(), 1, "must not have retried a permanent error");
    }

    /// A `DtdViolate` fault appends an undeclared element to the reply,
    /// which the whole-view check rejects.
    #[test]
    fn corrupted_fetch_is_caught_by_validation() {
        let w = FaultInjector::new(base(), FaultPlan::Script(vec![Some(Fault::DtdViolate)]));
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            serve_stale: false,
            ..ResiliencePolicy::default()
        };
        let (_, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(matches!(o.error, Some(SourceError::DtdInvalid(_))));
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        // an unbroken run of hard outages (a seeded rate-1.0 plan could
        // deal a Truncate, which `a*` happens to still cover)
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![Some(Fault::Unavailable); 10]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: false,
        };
        // three failing calls trip the breaker
        for i in 0..3 {
            let (_, o) = call(&w, &policy, &health);
            assert_eq!(o.status, FetchStatus::Failed, "call {i}");
            assert!(!o.short_circuited);
        }
        assert_eq!(health.lock().unwrap().state(), BreakerState::Open);
        let contacted = w.calls();
        // next (cooldown_calls - 1) calls are rejected without contact
        let (_, o) = call(&w, &policy, &health);
        assert!(o.short_circuited);
        assert_eq!(o.breaker, BreakerState::Open);
        assert_eq!(
            w.calls(),
            contacted,
            "open breaker must not contact the source"
        );
        // the cooldown-completing call goes through as a half-open probe;
        // the source still faults, so the breaker re-opens
        let (_, o) = call(&w, &policy, &health);
        assert!(!o.short_circuited);
        assert_eq!(w.calls(), contacted + 1);
        assert_eq!(o.breaker, BreakerState::Open);
    }

    #[test]
    fn half_open_probe_success_recloses() {
        // fail 3 times (trip), then the probe succeeds
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![
                Some(Fault::Unavailable),
                Some(Fault::Unavailable),
                Some(Fault::Unavailable),
                None,
            ]),
        );
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 1,
            serve_stale: false,
        };
        for _ in 0..3 {
            call(&w, &policy, &health);
        }
        assert_eq!(health.lock().unwrap().state(), BreakerState::Open);
        // cooldown_calls = 1 → this very call becomes the probe
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(o.breaker, BreakerState::Closed);
        assert!(doc.is_some());
    }

    #[test]
    fn snapshot_serves_stale_answers_after_failure() {
        // call 0 succeeds (keeps its answer), everything after fails
        let mut script = vec![None];
        script.extend(vec![Some(Fault::Unavailable); 10]);
        let w = FaultInjector::new(base(), FaultPlan::Script(script));
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let (_, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        let (doc, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Stale);
        assert!(o.error.is_some());
        assert_eq!(
            doc.unwrap().root.children().len(),
            2,
            "stale answer still full"
        );
    }

    #[test]
    fn breaker_transitions_emit_events_and_counters_at_occurrence_time() {
        let w = FaultInjector::new(
            base(),
            FaultPlan::Script(vec![
                Some(Fault::Unavailable), // trip 1/3
                Some(Fault::Unavailable), // trip 2/3
                Some(Fault::Unavailable), // trip 3/3 → breaker-open
                // call 3 short-circuits (cooldown 2), call 4 probes…
                Some(Fault::Unavailable), // …and fails → breaker-open again
                None,                     // second probe succeeds → breaker-close
            ]),
        );
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 0,
            failure_threshold: 3,
            cooldown_calls: 2,
            serve_stale: false,
        };
        for _ in 0..6 {
            // 3 failures, 1 rejection, 1 failed probe, then: the re-opened
            // breaker rejects once more before its probe — so run one extra
            // pair of calls to reach the successful probe
            call_obs(&w, &policy, &health, &obs);
        }
        call_obs(&w, &policy, &health, &obs);
        assert_eq!(health.lock().unwrap().state(), BreakerState::Closed);
        let snap = registry.snapshot();
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.as_str()).collect();
        // events landed in transition order, interleaved with the
        // occurrence-time failure events — not reconstructed post-hoc
        let transitions: Vec<&&str> = kinds.iter().filter(|k| k.starts_with("breaker-")).collect();
        assert_eq!(
            transitions,
            [
                &"breaker-open",
                &"breaker-half-open",
                &"breaker-open",
                &"breaker-half-open",
                &"breaker-close"
            ]
        );
        assert_eq!(
            snap.counters[r#"source_breaker_opened_total{source="s"}"#],
            2
        );
        assert_eq!(
            snap.counters[r#"source_breaker_half_opened_total{source="s"}"#],
            2
        );
        assert_eq!(
            snap.counters[r#"source_breaker_closed_total{source="s"}"#],
            1
        );
        assert_eq!(
            snap.counters[r#"source_short_circuits_total{source="s"}"#],
            2
        );
        assert_eq!(snap.counters[r#"source_served_fresh_total{source="s"}"#], 1);
        // every contacted attempt left a fetch-latency observation and a span
        let hist = &snap.histograms[r#"source_fetch_latency_ns{source="s"}"#];
        assert_eq!(hist.count, 5);
        assert!(snap.spans.iter().any(|s| s.stage == "fetch/s"));
    }

    #[test]
    fn degradation_events_fire_when_the_fault_occurs_seeded() {
        // Seeded plan: deterministic schedule — every call faults. The
        // strict `a, a` model makes even the corruption faults (Truncate,
        // DtdViolate) fail validation, so no fault can serve fresh.
        let dtd = parse_compact("{<r : a, a> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>1</a><a>2</a></r>").unwrap();
        let strict = Arc::new(XmlSource::new(dtd, doc).unwrap());
        let w = FaultInjector::new(strict, FaultPlan::Seeded { seed: 7, rate: 1.0 });
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy {
            max_retries: 1,
            ..ResiliencePolicy::default()
        };
        let (_, o) = call_obs(&w, &policy, &health, &obs);
        // the event is already in the registry the moment the call
        // returns, regardless of what the caller does with the outcome
        let snap = registry.snapshot();
        match o.status {
            FetchStatus::Failed => {
                assert_eq!(snap.counters[r#"source_failed_total{source="s"}"#], 1);
                assert!(snap.events.iter().any(|e| e.kind == "source-failed"));
            }
            FetchStatus::Stale => {
                assert_eq!(snap.counters[r#"source_served_stale_total{source="s"}"#], 1);
                assert!(snap.events.iter().any(|e| e.kind == "stale-serve"));
            }
            FetchStatus::Fresh => panic!("rate-1.0 seeded plan cannot serve fresh"),
        }
        assert_eq!(
            snap.counters[r#"source_retries_total{source="s"}"#],
            o.retries as u64
        );
    }

    #[test]
    fn query_errors_never_touch_the_breaker() {
        let w = base();
        let health = Mutex::new(Health::new());
        let bad = parse_query("ans = SELECT Z WHERE <r> X:<a/> </r>").unwrap();
        let (_, o) = resilient_answer(
            "s",
            w.as_ref(),
            &bad,
            ReplyCheck::View(&Validator::new(w.dtd())),
            &ResiliencePolicy::default(),
            &health,
            &SourceInstruments::noop("s"),
        );
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(matches!(o.error, Some(SourceError::Query(_))));
        let h = health.lock().unwrap();
        assert_eq!(h.state(), BreakerState::Closed);
        assert_eq!(h.consecutive_failures, 0);
    }

    /// Stale serving is per query: after an outage begins, the query
    /// answered fresh before it is served stale, and a query never
    /// answered fresh fails.
    #[test]
    fn stale_answers_are_kept_per_query() {
        let mut script = vec![None];
        script.extend(vec![Some(Fault::Unavailable); 10]);
        let w = FaultInjector::new(base(), FaultPlan::Script(script));
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let (fresh, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Fresh);
        let (stale, o) = call(&w, &policy, &health);
        assert_eq!(o.status, FetchStatus::Stale);
        let (fresh, stale) = (fresh.unwrap(), stale.unwrap());
        assert!(fresh.root.same_up_to_auto_ids(&stale.root));
        assert_ne!(fresh.root.id, stale.root.id, "stale copies get fresh ids");

        let other = parse_query("other = SELECT X WHERE X:<r/>").unwrap();
        let view = mix_infer::infer_view_dtd(&other, w.dtd()).unwrap();
        let (doc, o) = resilient_answer(
            "s",
            &w,
            &other,
            ReplyCheck::View(&Validator::new(&view.dtd)),
            &policy,
            &health,
            &SourceInstruments::noop("s"),
        );
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(doc.is_none());
    }

    #[test]
    fn the_stale_table_is_bounded_oldest_out() {
        // `n` children under the root: n + 1 elements
        let doc = |n: usize| {
            let kids = "<a>x</a>".repeat(n);
            parse_document(&format!("<r>{kids}</r>")).unwrap()
        };
        let mut table = StaleAnswers::with_bounds(4, 20);
        for fp in 0..6 {
            table.remember(fp, &doc(1));
        }
        assert_eq!(table.order, [2, 3, 4, 5]);
        assert!(table.serve(1).is_none() && table.serve(2).is_some());
        assert_eq!(table.elements, 8);

        // a repeat keeps the entry in place; a changed answer replaces it
        // as the newest
        let before = table.serve(3).unwrap();
        table.remember(3, &doc(1));
        assert_eq!(table.order, [2, 3, 4, 5]);
        table.remember(3, &doc(2));
        assert_eq!(table.order, [2, 4, 5, 3]);
        assert!(!before
            .root
            .same_up_to_auto_ids(&table.serve(3).unwrap().root));
        assert_eq!(table.elements, 9);

        // the element budget evicts too, and an answer over it is not kept
        table.remember(6, &doc(12));
        assert_eq!(table.order, [4, 5, 3, 6]);
        assert_eq!(table.elements, 20);
        table.remember(7, &doc(20));
        assert!(table.serve(7).is_none());
        assert_eq!(table.elements, 20);

        let defaults = StaleAnswers::default();
        assert_eq!(
            (defaults.cap, defaults.max_elements),
            (STALE_ANSWERS_CAP, STALE_ANSWERS_MAX_ELEMENTS)
        );
    }

    /// Empty text is written `<a></a>`, which reads back as empty
    /// element content and no longer fits a PCDATA type. So an answer
    /// holding it is not kept, the answer kept before it is dropped, and
    /// its query has no stale fallback.
    #[test]
    fn answers_their_text_cannot_reproduce_are_not_kept() {
        let empty = Document::new(Element::new("ans", vec![Element::text("a", "")]));
        let compact = WriteConfig {
            indent: None,
            write_ids: true,
        };
        let read_back = parse_document(&write_document(&empty, compact)).unwrap();
        assert_eq!(
            read_back.root.children()[0].content,
            Content::Elements(vec![])
        );

        let good = parse_document("<ans><a>1</a></ans>").unwrap();
        let w = Replies::new(vec![good, empty]);
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let (_, o) = call_obs(&w, &policy, &health, &obs);
        assert_eq!(o.status, FetchStatus::Fresh);
        assert_eq!(health.lock().unwrap().stale_answers(), 1);
        assert_eq!(stale_bytes(&registry), compact_len("<ans><a>1</a></ans>"));

        let (doc, o) = call_obs(&w, &policy, &health, &obs);
        assert_eq!(
            o.status,
            FetchStatus::Fresh,
            "the empty text is valid PCDATA"
        );
        assert_eq!(doc.unwrap().root.children()[0].pcdata(), Some(""));
        assert_eq!(health.lock().unwrap().stale_answers(), 0);
        assert_eq!(stale_bytes(&registry), 0);

        let (doc, o) = call_obs(&w, &policy, &health, &obs);
        assert_eq!(o.status, FetchStatus::Failed);
        assert!(doc.is_none());
    }

    /// `source_stale_answer_bytes` holds the bytes of the kept answers:
    /// a first answer adds its text, a repeat changes nothing, a changed
    /// answer replaces its text, and an eviction takes the oldest out.
    #[test]
    fn the_stale_answer_gauge_follows_the_table() {
        let registry = mix_obs::Registry::new();
        let obs = SourceInstruments::new(&registry, "s");
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let two = "<ans><a>1</a><a>2</a></ans>";
        let w = Replies::new(
            [two, two, "<ans><a>1</a></ans>"]
                .map(|xml| parse_document(xml).unwrap())
                .into(),
        );
        // remember
        call_obs(&w, &policy, &health, &obs);
        assert_eq!(stale_bytes(&registry), compact_len(two));
        // a repeat, up to auto IDs
        call_obs(&w, &policy, &health, &obs);
        assert_eq!(stale_bytes(&registry), compact_len(two));
        // replace
        call_obs(&w, &policy, &health, &obs);
        assert_eq!(stale_bytes(&registry), compact_len("<ans><a>1</a></ans>"));
        assert_eq!(health.lock().unwrap().stale_answers(), 1);

        // eviction: one more query than the table holds, each answered
        // with text of one length
        let w = base();
        let health = Mutex::new(Health::new());
        let each = compact_len("<q000><a>1</a><a>2</a></q000>");
        for i in 0..=STALE_ANSWERS_CAP {
            let q = parse_query(&format!("q{i:03} = SELECT X WHERE <r> X:<a/> </r>")).unwrap();
            let (_, o) = ship(w.as_ref(), &q, &policy, &health, &obs);
            assert_eq!(o.status, FetchStatus::Fresh);
            let kept = (i + 1).min(STALE_ANSWERS_CAP);
            assert_eq!(stale_bytes(&registry), kept as i64 * each, "query {i}");
        }
        assert_eq!(health.lock().unwrap().stale_answers(), STALE_ANSWERS_CAP);
    }

    /// The member check of a composed answer: right root, picked names
    /// only, each member valid as an element, unique IDs.
    #[test]
    fn composed_replies_are_checked_member_by_member() {
        let view = parse_compact("{<v : a*> <a : b*> <b : PCDATA>}").unwrap();
        let nq = normalize(
            &parse_query("ans = SELECT X WHERE <v> X:<a/> </v>").unwrap(),
            &view,
        )
        .unwrap();
        let validator = Validator::new(&view);
        let check =
            |xml: &str| ReplyCheck::Members(&validator).check(&nq, &parse_document(xml).unwrap());
        assert_eq!(check("<ans/>"), Ok(()));
        assert_eq!(check("<ans><a><b>1</b></a><a/></ans>"), Ok(()));
        for bad in [
            "<other><a/></other>",
            "<ans>text</ans>",
            "<ans><b>1</b></ans>",
            "<ans><a><c/></a></ans>",
            "<ans><a><b><b/></b></a></ans>",
        ] {
            assert!(
                matches!(check(bad), Err(SourceError::DtdInvalid(_))),
                "{bad} passed"
            );
        }
        let mut twice = parse_document("<ans><a/></ans>").unwrap();
        if let Content::Elements(v) = &mut twice.root.content {
            v.push(v[0].clone());
        }
        assert!(matches!(
            ReplyCheck::Members(&validator).check(&nq, &twice),
            Err(SourceError::DtdInvalid(msg)) if msg.contains("duplicate id")
        ));
    }
}
