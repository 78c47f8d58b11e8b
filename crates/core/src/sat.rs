//! Per-source satisfiability of an XMAS tree pattern under a DTD — the
//! one emptiness decider behind the mediator's "never answer what is
//! provably empty" optimizations: the view-level prune in
//! `Mediator::query` and the fetch-level prune in `Mediator::sat_skip`.
//!
//! [`check_sat`] walks a normalized pattern top-down against the DTD
//! graph and returns a [`SatVerdict`]: `Sat` (some valid document of the
//! DTD matches), `Unsat(reason)` (**provably** no
//! valid document matches — the reason is the witness path), or
//! `Unknown` (the query does not normalize, or a sibling check gave up
//! at its bound; fall back to fetching).
//!
//! **Exactness.** The walk decides emptiness exactly, for every content
//! model, unless a sibling check exceeds [`MAX_SIBLING_FRONTIER`]. Every
//! `Unsat` branch below is justified
//! against the evaluator's semantics (`mix_xmas::evaluate`) plus
//! document validity (Definition 2.3), and every `Sat` is realized by
//! some valid document:
//!
//! * the root condition is root-anchored, so a root test that excludes
//!   the document type never matches;
//! * a valid element's children word lies in `L(model) ∩ productive*`
//!   (subtrees of a finite valid document are finite and valid), so a
//!   child step whose test misses the restricted model's language-exact
//!   alphabet ([`mix_relang::pool::live_alphabet`]) can bind nothing;
//! * elements of one name share one type, so the child steps are
//!   independent below the parent: step `i` can bind any child whose
//!   name is *viable* for it (in its test and recursively `Sat`);
//! * sibling conditions bind **distinct** children, so the steps fit
//!   together iff some word of the restricted model has an occurrence
//!   for every step, no occurrence used twice. `SiblingCheck` decides
//!   that with the model's Pareto-maximal occurrence-count vectors and a
//!   bipartite matching. That question is NP-hard in general, so the
//!   check keeps at most [`MAX_SIBLING_FRONTIER`] vectors per model node
//!   and otherwise gives up: the steps are taken to fit, an `Unsat`
//!   proved elsewhere in the pattern still stands, and `Sat` weakens to
//!   `Unknown`;
//! * text conditions never match an element with element content (and
//!   vice versa), because validity forbids the mismatch.
//!
//! Recursive DTDs need no visited set here: the walk descends the finite
//! *query* tree, and DTD-side recursion is already folded into the
//! [`mix_dtd::productive`] reachability fixpoint.
//!
//! Id-inequalities (`P1 != P2`) are decided from the query alone, as the
//! evaluator decides them ([`mix_xmas::unsatisfiable_diseq`]): distinct
//! conditions always bind distinct elements, so a pair on one condition's
//! element and ID variable is `Unsat` and every other pair holds in every
//! match and is dropped, exactly. `X != X` is folded into `Unsat` before
//! normalization can reject it.
//!
//! Figure 2's `tighten` stays the paper's inference algorithm (view
//! registration, InferList); it is not an emptiness oracle on the query
//! path, because its sequential refinement enumerates tag orderings and
//! grows with every repeated sibling.
//!
//! [`SatCache`] memoizes verdicts under the same process-independent
//! `(query fingerprint, DTD fingerprint)` key as the [`InferenceCache`](crate::InferenceCache),
//! with optional persistence through the [`WarmStore`] seam. The
//! mediator owns one and consults it before every fetch; it is the only
//! verdict cache.

use crate::cache::{fingerprint_dtd, fingerprint_query, Fingerprint, WarmStore};
use mix_dtd::{productive, restrict, ContentModel, Dtd};
use mix_obs::{Counter, Histogram, Registry};
use mix_relang::pool::{self, ReId, ReNode};
use mix_relang::symbol::Name;
use mix_xmas::{normalize, unsatisfiable_diseq, Body, Condition, NameTest, NormalizeError, Query};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Default resident-entry bound of a [`SatCache`] (same philosophy as
/// [`crate::INFERENCE_CACHE_CAPACITY`]: verdicts are cheap to recompute,
/// so at the bound the table flushes wholesale).
pub const SAT_CACHE_CAPACITY: usize = 4096;

/// The verdict of the emptiness decider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatVerdict {
    /// Some valid document of the DTD matches the pattern, `!=` pairs
    /// included.
    Sat,
    /// **Provably** no valid document of the DTD matches; the string is
    /// the witness path explaining why. Callers may skip the fetch and
    /// synthesize the empty answer.
    Unsat(String),
    /// Not decided: the query does not normalize against the DTD (other
    /// than by `X != X`), so there is no pattern to decide, or a sibling
    /// check gave up at [`MAX_SIBLING_FRONTIER`]. Fetch; a rejected query
    /// surfaces the error the client already knows on that path.
    Unknown,
}

impl SatVerdict {
    /// Is this a provable `Unsat` — the only verdict that licenses
    /// skipping work?
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatVerdict::Unsat(_))
    }

    /// The `Unsat` witness, if any.
    pub fn reason(&self) -> Option<&str> {
        match self {
            SatVerdict::Unsat(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for SatVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatVerdict::Sat => write!(f, "sat"),
            SatVerdict::Unsat(r) => write!(f, "unsat: {r}"),
            SatVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

fn fmt_test(t: &NameTest) -> String {
    match t {
        NameTest::Wildcard => "*".to_owned(),
        NameTest::Names(v) => {
            let mut out = String::new();
            for (i, n) in v.iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                out.push_str(n.as_str());
            }
            out
        }
    }
}

fn fmt_names(names: &[Name]) -> String {
    if names.is_empty() {
        return "none".to_owned();
    }
    let mut v: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
    v.sort_unstable();
    v.join(", ")
}

/// Satisfiability of a (surface) query against a source DTD. Normalizes
/// internally: a `X != X` constraint folds into `Unsat`, any other
/// normalization failure into `Unknown` (the fetch path will surface it
/// as the error the client already knows).
pub fn check_sat(q: &Query, dtd: &Dtd) -> SatVerdict {
    match normalize(q, dtd) {
        Ok(nq) => check_sat_normalized(&nq, dtd),
        Err(NormalizeError::SelfDiseq(v)) => {
            SatVerdict::Unsat(format!("constraint '{v} != {v}' can never hold"))
        }
        Err(_) => SatVerdict::Unknown,
    }
}

/// Satisfiability of an already-normalized query against a source DTD:
/// `Sat` or `Unsat`, or `Unknown` if a sibling check gave up at
/// [`MAX_SIBLING_FRONTIER`].
pub fn check_sat_normalized(nq: &Query, dtd: &Dtd) -> SatVerdict {
    if let Some((a, b)) = unsatisfiable_diseq(nq) {
        return SatVerdict::Unsat(format!(
            "constraint '{a} != {b}' can never hold: one condition binds both"
        ));
    }
    if !nq.root.test.matches(dtd.doc_type) {
        return SatVerdict::Unsat(format!(
            "root step <{}> never matches document type <{}>",
            fmt_test(&nq.root.test),
            dtd.doc_type
        ));
    }
    let prod = productive(dtd);
    if !prod.contains(&dtd.doc_type) {
        return SatVerdict::Unsat(format!(
            "document type <{}> derives no finite document",
            dtd.doc_type
        ));
    }
    let mut walker = Walker {
        dtd,
        prod,
        restricted: HashMap::new(),
        gave_up: false,
    };
    match walker.walk(&nq.root, dtd.doc_type, dtd.doc_type.as_str()) {
        Err(witness) => SatVerdict::Unsat(witness),
        Ok(()) if walker.gave_up => SatVerdict::Unknown,
        Ok(()) => SatVerdict::Sat,
    }
}

/// Per-check state: the productive-name set and a per-name memo of the
/// restricted (pool-interned) content models.
struct Walker<'a> {
    dtd: &'a Dtd,
    prod: HashSet<Name>,
    /// name → interned `L(model) ∩ productive*`
    restricted: HashMap<Name, ReId>,
    /// Did some sibling check give up? Its steps were taken to fit, so an
    /// `Unsat` found elsewhere still holds, but `Sat` is not proved.
    gave_up: bool,
}

impl Walker<'_> {
    /// The realizable-children language of `n`'s content model: the
    /// model restricted to productive names, interned into the pool so
    /// its language-exact attributes (`live_alphabet`, `empty_lang`) are
    /// cached per node.
    fn restricted_model(&mut self, n: Name, r: &mix_relang::Regex) -> ReId {
        let prod = &self.prod;
        *self
            .restricted
            .entry(n)
            .or_insert_with(|| mix_relang::intern(&restrict(r, prod)))
    }

    /// Can `cond` match an element named `n` inside a valid document?
    /// `Err` carries the witness; `path` locates the step in it.
    fn walk(&mut self, cond: &Condition, n: Name, path: &str) -> Result<(), String> {
        let Some(model) = self.dtd.get(n) else {
            return Err(format!("{path}: <{n}> is not declared in the DTD"));
        };
        match (&cond.body, model) {
            (Body::Text(_), ContentModel::Pcdata) => Ok(()),
            (Body::Text(_), ContentModel::Elements(_)) => Err(format!(
                "{path}: the pattern requires text content but <{n}> has element content"
            )),
            (Body::Children(cs), _) if cs.is_empty() => Ok(()),
            (Body::Children(_), ContentModel::Pcdata) => Err(format!(
                "{path}: the pattern requires child elements but <{n}> is PCDATA"
            )),
            (Body::Children(cs), ContentModel::Elements(r)) => self.walk_children(cs, n, r, path),
        }
    }

    fn walk_children(
        &mut self,
        cs: &[Condition],
        n: Name,
        r: &mix_relang::Regex,
        path: &str,
    ) -> Result<(), String> {
        let rid = self.restricted_model(n, r);
        let live: Vec<Name> = pool::live_alphabet(rid).iter().map(|s| s.name).collect();
        // per child step: the names it could bind to (test names that are
        // realizable children and recursively satisfiable)
        let mut viable: Vec<Vec<Name>> = Vec::with_capacity(cs.len());
        for cc in cs {
            let mut feasible: Vec<Name> = cc
                .test
                .names()
                .iter()
                .copied()
                .filter(|m| live.contains(m))
                .collect();
            feasible.dedup();
            if feasible.is_empty() {
                return Err(format!(
                    "{path}: child step <{}> never occurs under <{n}> (realizable children: {})",
                    fmt_test(&cc.test),
                    fmt_names(&live),
                ));
            }
            let mut names = Vec::new();
            let mut witness = String::new();
            for &m in &feasible {
                match self.walk(cc, m, &format!("{path}/{m}")) {
                    Ok(()) => names.push(m),
                    Err(w) => witness = w,
                }
            }
            if names.is_empty() {
                // every candidate name is unsatisfiable: report the last
                return Err(witness);
            }
            viable.push(names);
        }
        if cs.len() < 2 {
            return Ok(());
        }
        match SiblingCheck::new(&viable).fits(rid) {
            Some(true) => Ok(()),
            Some(false) => {
                let steps: Vec<String> = cs.iter().map(|c| fmt_test(&c.test)).collect();
                Err(format!(
                    "{path}: required siblings [{}] cannot jointly occur under <{n}>",
                    steps.join(", ")
                ))
            }
            // carry on as if they fit: only `Sat` weakens, to `Unknown`
            None => {
                self.gave_up = true;
                Ok(())
            }
        }
    }
}

/// Count vectors a sibling check keeps at one node of the content model
/// before it gives up and the verdict becomes `Unknown`. Deciding the
/// joint sibling check is NP-hard in general (a concatenation of
/// alternatives can have exponentially many Pareto-maximal vectors), so
/// this bound is what keeps one client query from costing exponential
/// time and memory; giving up lets the fetch proceed, which is sound.
pub const MAX_SIBLING_FRONTIER: usize = 64;

/// Occurrence counts, one slot per class of [`SiblingCheck`] names.
type Counts = Vec<usize>;

/// The joint check for one parent's sibling steps: does some word of
/// the parent's restricted model have a distinct occurrence for every
/// step, each of a name viable for that step?
///
/// Occurrences of other names never help, and more occurrences never
/// hurt, so a word matters only through its count vector, each count
/// capped at the number of steps that can use it. Names that exactly
/// the same steps can bind are interchangeable, so they share one count
/// slot. [`SiblingCheck::frontier`] computes the Pareto-maximal capped
/// vectors of a model bottom-up, dropping every vector that cannot fit
/// the steps even with the most the rest of the word can add; the steps
/// fit iff a vector of the whole model is left.
struct SiblingCheck {
    /// Per step: the slots it can bind.
    steps: Vec<Vec<usize>>,
    /// Per viable name: its slot.
    slots: HashMap<Name, usize>,
    /// Per slot: how many steps can bind it (the useful maximum count).
    caps: Counts,
}

impl SiblingCheck {
    fn new(viable: &[Vec<Name>]) -> SiblingCheck {
        // per name, the steps that can bind it
        let mut binders: HashMap<Name, Vec<usize>> = HashMap::new();
        for (i, names) in viable.iter().enumerate() {
            for &n in names {
                let steps = binders.entry(n).or_default();
                if steps.last() != Some(&i) {
                    steps.push(i);
                }
            }
        }
        let mut slot_of: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut slots = HashMap::new();
        let mut caps = Vec::new();
        for (n, steps) in binders {
            let cap = steps.len();
            let slot = *slot_of.entry(steps).or_insert_with(|| {
                caps.push(cap);
                caps.len() - 1
            });
            slots.insert(n, slot);
        }
        let steps = viable
            .iter()
            .map(|names| {
                let mut s: Vec<usize> = names.iter().map(|n| slots[n]).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        SiblingCheck { steps, slots, caps }
    }

    /// Does some word of `L(rid)` fit every step? `None` if the check
    /// gave up at [`MAX_SIBLING_FRONTIER`].
    fn fits(&self, rid: ReId) -> Option<bool> {
        let nothing = vec![0; self.caps.len()];
        Some(!self.frontier(rid, &nothing)?.is_empty())
    }

    /// The Pareto-maximal capped count vectors of the words of `L(id)`
    /// that still fit every step when the rest of the word adds at most
    /// `around`; `None` once more than [`MAX_SIBLING_FRONTIER`] remain.
    fn frontier(&self, id: ReId, around: &[usize]) -> Option<Vec<Counts>> {
        let zero = vec![0; self.caps.len()];
        let candidates = match pool::node(id) {
            ReNode::Empty => Vec::new(),
            ReNode::Epsilon => vec![zero],
            ReNode::Plus(x) if pool::empty_lang(x) => Vec::new(),
            // one word reaches the bound: a symbol, or enough iterations
            ReNode::Sym(_) | ReNode::Star(_) | ReNode::Plus(_) => vec![self.bound(id)],
            ReNode::Opt(x) => {
                let mut vs = self.frontier(x, around)?;
                vs.push(zero);
                vs
            }
            ReNode::Alt(parts) => {
                let mut vs = Vec::new();
                for &p in parts.iter() {
                    vs.extend(self.frontier(p, around)?);
                }
                vs
            }
            ReNode::Concat(parts) => {
                // counts commute, so the parts fold in any order: those
                // with one vector (a symbol, `*`, `+`) go first, and a star
                // that fills every slot then absorbs the alternatives
                let (mut parts, rest): (Vec<ReId>, Vec<ReId>) = parts.iter().partition(|&&p| {
                    matches!(
                        pool::node(p),
                        ReNode::Sym(_) | ReNode::Star(_) | ReNode::Plus(_)
                    )
                });
                parts.extend(rest);
                // after[k]: the most parts k.. and the context can add
                let mut after = vec![around.to_vec()];
                for &p in parts.iter().rev() {
                    after.push(self.add(&self.bound(p), after.last().expect("seeded")));
                }
                after.reverse();
                let mut acc = vec![zero];
                for (k, &p) in parts.iter().enumerate() {
                    let before = acc.iter().fold(vec![0; self.caps.len()], |m, a| {
                        m.iter().zip(a).map(|(&x, &y)| x.max(y)).collect()
                    });
                    let part = self.frontier(p, &self.add(&before, &after[k + 1]))?;
                    let sums = acc
                        .iter()
                        .flat_map(|a| part.iter().map(move |b| self.add(a, b)))
                        .collect();
                    acc = self.keep(sums, &after[k + 1])?;
                    if acc.is_empty() {
                        break;
                    }
                }
                return Some(acc);
            }
        };
        self.keep(candidates, around)
    }

    /// The componentwise most of every slot a word of `L(id)` can hold
    /// (exact for a symbol and for a star, which iterates its body until
    /// every slot the body's live alphabet touches is full).
    fn bound(&self, id: ReId) -> Counts {
        let mut v = vec![0; self.caps.len()];
        match pool::node(id) {
            ReNode::Empty | ReNode::Epsilon => {}
            ReNode::Sym(s) => {
                if let Some(&j) = self.slots.get(&s.name) {
                    v[j] = 1;
                }
            }
            ReNode::Star(x) | ReNode::Plus(x) => {
                for s in pool::live_alphabet(x).iter() {
                    if let Some(&j) = self.slots.get(&s.name) {
                        v[j] = self.caps[j];
                    }
                }
            }
            ReNode::Opt(x) => v = self.bound(x),
            ReNode::Alt(parts) => {
                for &p in parts.iter() {
                    for (x, y) in v.iter_mut().zip(self.bound(p)) {
                        *x = (*x).max(y);
                    }
                }
            }
            ReNode::Concat(parts) => {
                for &p in parts.iter() {
                    v = self.add(&v, &self.bound(p));
                }
            }
        }
        v
    }

    fn add(&self, a: &[usize], b: &[usize]) -> Counts {
        (0..a.len())
            .map(|j| (a[j] + b[j]).min(self.caps[j]))
            .collect()
    }

    /// The Pareto-maximal `candidates` that fit every step when the rest
    /// of the word adds `around`; `None` if more than
    /// [`MAX_SIBLING_FRONTIER`] of them remain.
    fn keep(&self, mut candidates: Vec<Counts>, around: &[usize]) -> Option<Vec<Counts>> {
        candidates.retain(|c| self.matches(&self.add(c, around)));
        // only a vector with a larger total can dominate another, so in
        // order of decreasing total each one is compared with the kept ones
        candidates.sort_unstable_by_key(|c| std::cmp::Reverse(c.iter().sum::<usize>()));
        let mut kept: Vec<Counts> = Vec::new();
        for c in candidates {
            if !kept.iter().any(|k| k.iter().zip(&c).all(|(x, y)| x >= y)) {
                if kept.len() == MAX_SIBLING_FRONTIER {
                    return None;
                }
                kept.push(c);
            }
        }
        Some(kept)
    }

    /// Can every step bind its own occurrence among `counts`? Kuhn's
    /// augmenting paths over the slots, with `counts` as capacities: a
    /// path visits each slot once, so it is never deeper than the content
    /// model has names, however many steps share one.
    fn matches(&self, counts: &[usize]) -> bool {
        let mut taken: Vec<Vec<usize>> = vec![Vec::new(); counts.len()];
        (0..self.steps.len())
            .all(|i| self.augment(i, counts, &mut taken, &mut vec![false; counts.len()]))
    }

    fn augment(
        &self,
        i: usize,
        counts: &[usize],
        taken: &mut [Vec<usize>],
        seen: &mut [bool],
    ) -> bool {
        for &j in &self.steps[i] {
            if seen[j] {
                continue;
            }
            seen[j] = true;
            if taken[j].len() < counts[j] {
                taken[j].push(i);
                return true;
            }
            for k in 0..taken[j].len() {
                let other = taken[j][k];
                if self.augment(other, counts, taken, seen) {
                    taken[j][k] = i;
                    return true;
                }
            }
        }
        false
    }
}

/// A concurrency-safe verdict memo keyed on the same process-independent
/// [`Fingerprint`] as the [`InferenceCache`](crate::InferenceCache),
/// with the `sat_checks_total` / `sat_unknown_total` counters and the
/// `sat_check_ns` histogram recorded into its registry. (The companion
/// `sat_pruned_total` counter belongs to the *call sites* that act on an
/// `Unsat` — one increment per skipped fetch.)
pub struct SatCache {
    map: RwLock<HashMap<Fingerprint, SatVerdict>>,
    capacity: usize,
    store: Option<Arc<dyn WarmStore>>,
    checks: Counter,
    unknown: Counter,
    check_ns: Histogram,
}

impl Default for SatCache {
    fn default() -> SatCache {
        SatCache::new()
    }
}

impl SatCache {
    /// An empty cache observing into its own private registry.
    pub fn new() -> SatCache {
        SatCache::with_registry(Registry::new())
    }

    /// An empty cache recording its instruments into `registry`.
    pub fn with_registry(registry: Registry) -> SatCache {
        SatCache {
            map: RwLock::new(HashMap::new()),
            capacity: SAT_CACHE_CAPACITY,
            store: None,
            checks: registry.counter("sat_checks_total"),
            unknown: registry.counter("sat_unknown_total"),
            check_ns: registry.histogram("sat_check_ns"),
        }
    }

    /// A cache that warm-starts from `store` and writes each freshly
    /// decided `Sat`/`Unsat` verdict behind to it (`Unknown` is never
    /// persisted — it only says the analysis gave up).
    pub fn with_store(registry: Registry, store: Arc<dyn WarmStore>) -> SatCache {
        let mut cache = SatCache::with_registry(registry);
        let mut map = HashMap::new();
        for (fp, v) in store.load_sat_verdicts() {
            if map.len() >= cache.capacity {
                break;
            }
            map.entry(fp).or_insert(v);
        }
        cache.map = RwLock::new(map);
        cache.store = Some(store);
        cache
    }

    /// Memoized [`check_sat`]: every call counts one `sat_check` and
    /// times into `sat_check_ns`, hits and misses alike.
    pub fn verdict(&self, q: &Query, source: &Dtd) -> SatVerdict {
        self.checks.inc();
        let _timer = self.check_ns.start();
        let nq = match normalize(q, source) {
            Ok(nq) => nq,
            Err(NormalizeError::SelfDiseq(v)) => {
                return SatVerdict::Unsat(format!("constraint '{v} != {v}' can never hold"));
            }
            Err(_) => {
                self.unknown.inc();
                return SatVerdict::Unknown;
            }
        };
        let fp = Fingerprint {
            query: fingerprint_query(&nq),
            dtd: fingerprint_dtd(source),
        };
        let hit = self.map.read().get(&fp).cloned();
        if let Some(v) = hit {
            if v == SatVerdict::Unknown {
                self.unknown.inc();
            }
            return v;
        }
        let v = check_sat_normalized(&nq, source);
        if v == SatVerdict::Unknown {
            self.unknown.inc();
        }
        let inserted = {
            let mut map = self.map.write();
            if map.contains_key(&fp) {
                false
            } else {
                // verdicts are cheap to recompute: at the bound, flush
                // wholesale rather than tracking reference bits
                if map.len() >= self.capacity {
                    map.clear();
                }
                map.insert(fp, v.clone());
                true
            }
        };
        if inserted && v != SatVerdict::Unknown {
            if let Some(store) = &self.store {
                store.record_sat_verdict(&fp, &v);
            }
        }
        v
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident verdict (counters are kept).
    pub fn clear(&self) {
        self.map.write().clear();
    }

    /// Every resident `(fingerprint, verdict)` pair.
    pub fn entries_snapshot(&self) -> Vec<(Fingerprint, SatVerdict)> {
        self.map
            .read()
            .iter()
            .map(|(&fp, v)| (fp, v.clone()))
            .collect()
    }
}

impl fmt::Debug for SatCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SatCache")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tighten::{classify_query, Verdict};
    use mix_dtd::paper::{d1_department, section_recursive};
    use mix_dtd::parse_compact;
    use mix_xmas::{normalize, parse_query};

    fn verdict(query: &str, dtd: &Dtd) -> SatVerdict {
        check_sat(&parse_query(query).unwrap(), dtd)
    }

    #[test]
    fn plain_pattern_is_sat() {
        let d = d1_department();
        let v = verdict(
            "pubs = SELECT P WHERE <department> <professor> P:<publication/> </> </>",
            &d,
        );
        assert_eq!(v, SatVerdict::Sat);
    }

    #[test]
    fn wrong_child_tag_is_unsat_with_witness() {
        let d = d1_department();
        // a professor's content model has no <course> children
        let v = verdict(
            "x = SELECT C WHERE <department> <professor> C:<course/> </> </>",
            &d,
        );
        let reason = v.reason().expect("must be unsat");
        assert!(reason.contains("department/professor"), "{reason}");
        assert!(reason.contains("course"), "{reason}");
    }

    #[test]
    fn root_mismatch_is_unsat() {
        let d = d1_department();
        let v = verdict("x = SELECT P WHERE P:<professor/>", &d);
        assert!(v.reason().unwrap().contains("document type"), "{v}");
    }

    #[test]
    fn impossible_sibling_pair_is_unsat() {
        let d = parse_compact("{<r : a, b?>}").unwrap();
        // two sibling conditions must bind two *distinct* <b> children,
        // but the model admits at most one
        let v = verdict("x = SELECT X WHERE X:<r> <b>u</b> <b>w</b> </r>", &d);
        assert!(
            v.reason().unwrap().contains("jointly"),
            "expected joint-sibling unsat, got {v}"
        );
        // the satisfiable sibling combination stays Sat
        let v = verdict("x = SELECT X WHERE X:<r> <a>u</a> <b>w</b> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
    }

    #[test]
    fn star_supplies_any_multiplicity() {
        let d = parse_compact("{<r : p*>}").unwrap();
        let v = verdict(
            "x = SELECT X WHERE X:<r> <p>a</p> <p>b</p> <p>c</p> </r>",
            &d,
        );
        assert_eq!(v, SatVerdict::Sat);
    }

    #[test]
    fn duplicated_model_is_decided_exactly() {
        // three <b> children are impossible under `b, b`; two fit
        let d = parse_compact("{<r : b, b>}").unwrap();
        let v = verdict(
            "x = SELECT X WHERE X:<r> <b>u</b> <b>w</b> <b>y</b> </r>",
            &d,
        );
        assert!(v.reason().unwrap().contains("cannot jointly occur"), "{v}");
        let v = verdict("x = SELECT X WHERE X:<r> <b>u</b> <b>w</b> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
    }

    #[test]
    fn disjunctive_occurrences_are_matched_to_distinct_steps() {
        // each (a | b) slot supplies one child of either name
        let d = parse_compact("{<r : (a | b), (a | b), c?>}").unwrap();
        let v = verdict("x = SELECT X WHERE X:<r> <a/> <a/> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
        let v = verdict("x = SELECT X WHERE X:<r> <a/> <b/> <c/> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
        let v = verdict("x = SELECT X WHERE X:<r> <a/> <a/> <b/> </r>", &d);
        assert!(v.reason().unwrap().contains("cannot jointly occur"), "{v}");
        // a disjunctive step takes whichever occurrence is left over
        let d = parse_compact("{<r : a, (b | c)>}").unwrap();
        let v = verdict("x = SELECT X WHERE X:<r> <b | a/> <a/> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
        let v = verdict("x = SELECT X WHERE X:<r> <b | a/> <a/> <c/> </r>", &d);
        assert!(v.is_unsat(), "{v}");
    }

    #[test]
    fn many_identical_siblings_stay_cheap() {
        // the shape that made sequential refinement blow up, wide enough
        // that a matching recursing once per step would overflow the stack
        let d = d1_department();
        let pubs = "<publication/> ".repeat(20_000);
        let q = format!("x = SELECT X WHERE <department> X:<professor> {pubs}</> </>");
        let t = std::time::Instant::now();
        assert_eq!(verdict(&q, &d), SatVerdict::Sat);
        let d = parse_compact("{<r : a, b, a> <a : EMPTY> <b : EMPTY>}").unwrap();
        let q = format!("x = SELECT X WHERE X:<r> {} </r>", "<a/> ".repeat(20_000));
        assert!(verdict(&q, &d).is_unsat());
        assert!(t.elapsed().as_secs() < 5, "took {:?}", t.elapsed());
    }

    /// `(a1 | b1), …, (a20 | b20)` has 2^20 incomparable count vectors
    /// over its 40 names; the check stays prompt on it either way.
    #[test]
    fn wide_alternation_models_are_decided_promptly() {
        let pairs: Vec<String> = (1..=20).map(|i| format!("(a{i} | b{i})")).collect();
        let empties: String = (1..=20)
            .map(|i| format!("<a{i} : EMPTY> <b{i} : EMPTY> "))
            .collect();
        let d = parse_compact(&format!("{{<r : {}> {empties}}}", pairs.join(", "))).unwrap();
        let t = std::time::Instant::now();
        // every name at once: a word holds only one of each pair
        let every: String = (1..=20).map(|i| format!("<a{i}/> <b{i}/> ")).collect();
        let v = verdict(&format!("x = SELECT X WHERE X:<r> {every}</r>"), &d);
        assert!(v.reason().unwrap().contains("cannot jointly occur"), "{v}");
        // names that the same steps bind share a count
        assert_eq!(
            verdict("x = SELECT X WHERE X:<r> <*/> <*/> </r>", &d),
            SatVerdict::Sat
        );
        let either: String = (1..=20).map(|i| format!("<a{i} | b{i}/> ")).collect();
        let v = verdict(&format!("x = SELECT X WHERE X:<r> {either}</r>"), &d);
        assert_eq!(v, SatVerdict::Sat);
        // twice the pairs, every name wanted: each pair must give `a` in
        // one copy and `b` in the other, and after the first 20 pairs all
        // 2^20 choices are still open, so the check gives up
        let d = parse_compact(&format!("{{<r : {0}, {0}> {empties}}}", pairs.join(", "))).unwrap();
        let v = verdict(&format!("x = SELECT X WHERE X:<r> {every}</r>"), &d);
        assert_eq!(v, SatVerdict::Unknown);
        // an obstruction elsewhere in the pattern still proves `Unsat`
        let v = verdict(&format!("x = SELECT X WHERE X:<r> {every}<c/> </r>"), &d);
        assert!(v.is_unsat(), "{v}");
        // a star over every name supplies them all, wherever it stands
        let names: Vec<String> = (1..=20)
            .flat_map(|i| [format!("a{i}"), format!("b{i}")])
            .collect();
        let star = format!("({})*", names.join(" | "));
        for model in [
            format!("{}, {star}", pairs.join(", ")),
            format!("{star}, {}", pairs.join(", ")),
        ] {
            let d = parse_compact(&format!("{{<r : {model}> {empties}}}")).unwrap();
            let v = verdict(&format!("x = SELECT X WHERE X:<r> {every}</r>"), &d);
            assert_eq!(v, SatVerdict::Sat, "{model}");
        }
        assert!(t.elapsed().as_secs() < 5, "took {:?}", t.elapsed());
    }

    #[test]
    fn content_kind_mismatches_are_unsat() {
        let d = d1_department();
        // text required of an element-content type
        let v = verdict("x = SELECT X WHERE X:<department>CS</department>", &d);
        assert!(v.reason().unwrap().contains("text content"), "{v}");
        // children required of a PCDATA type
        let v = verdict(
            "x = SELECT C WHERE <department> <name> C:<x/> </name> </>",
            &d,
        );
        assert!(v.reason().unwrap().contains("PCDATA"), "{v}");
    }

    #[test]
    fn recursive_dtd_is_handled() {
        let d = section_recursive();
        let v = verdict(
            "x = SELECT P WHERE <section> <section> <section> P:<prolog/> </> </> </>",
            &d,
        );
        assert_eq!(v, SatVerdict::Sat);
        let v = verdict(
            "x = SELECT P WHERE <section> <section> P:<teaches/> </> </>",
            &d,
        );
        assert!(v.is_unsat(), "{v}");
    }

    #[test]
    fn unproductive_document_type_is_unsat() {
        let d = parse_compact("{<r : r>}").unwrap();
        let v = verdict("x = SELECT X WHERE X:<r/>", &d);
        assert!(v.reason().unwrap().contains("finite"), "{v}");
    }

    #[test]
    fn unproductive_names_restrict_the_model() {
        // b only ever appears next to a mandatory unproductive u, so a
        // pattern stepping to b is unsatisfiable even though b is in the
        // raw content model
        let d = parse_compact("{<r : (u, b) | c> <u : u>}").unwrap();
        let v = verdict("x = SELECT X WHERE <r> X:<b/> </r>", &d);
        assert!(v.is_unsat(), "{v}");
        let v = verdict("x = SELECT X WHERE <r> X:<c/> </r>", &d);
        assert_eq!(v, SatVerdict::Sat);
    }

    /// [`SiblingCheck`] against brute force: every word of length at
    /// most 7 over `{a, b, c}`, each step bound to a distinct occurrence
    /// of one of its names.
    #[test]
    fn sibling_check_agrees_with_word_enumeration() {
        use mix_relang::symbol::name;
        let letters = ["a", "b", "c"];
        let step_names: [&[usize]; 5] = [&[0], &[1], &[0, 1], &[2], &[0, 2]];
        for model in [
            "a, b, a",
            "(a | b), (a | b)",
            "(a, a) | b",
            "a*, b",
            "(a, b)+",
            "a?, (b | c)*",
            "(a | (b, c)), a?",
            "((a, b) | c)*, a",
        ] {
            let r = mix_relang::parse_regex(model).unwrap();
            let rid = mix_relang::intern(&r);
            // the letter counts of every accepted word
            let mut counts: Vec<[usize; 3]> = mix_relang::enumerate_words(&r, 7, usize::MAX)
                .iter()
                .map(|w| {
                    let mut c = [0; 3];
                    for s in w {
                        c[letters.iter().position(|&l| l == s.name.as_str()).unwrap()] += 1;
                    }
                    c
                })
                .collect();
            counts.sort_unstable();
            counts.dedup();
            for n in 2..=3 {
                for pick in 0..step_names.len().pow(n) {
                    let steps: Vec<&[usize]> = (0..n)
                        .map(|i| step_names[pick / step_names.len().pow(i) % step_names.len()])
                        .collect();
                    // brute force: some word, some choice of one letter per
                    // step, with enough occurrences of every chosen letter
                    let expect = counts.iter().any(|c| {
                        (0..3usize.pow(n)).any(|choice| {
                            let mut need = [0; 3];
                            steps.iter().enumerate().all(|(i, ls)| {
                                let l = choice / 3usize.pow(i as u32) % 3;
                                need[l] += 1;
                                ls.contains(&l)
                            }) && (0..3).all(|l| need[l] <= c[l])
                        })
                    });
                    let viable: Vec<Vec<Name>> = steps
                        .iter()
                        .map(|ls| ls.iter().map(|&l| name(letters[l])).collect())
                        .collect();
                    assert_eq!(
                        SiblingCheck::new(&viable).fits(rid),
                        Some(expect),
                        "model {model}, steps {steps:?}"
                    );
                }
            }
        }
    }

    /// The decider proves both inputs that once split the two emptiness
    /// analyzers; Figure 2's `tighten` still misses the first, because it
    /// has no productive-name restriction.
    #[test]
    fn check_sat_proves_what_either_analyzer_proved() {
        let tighten_verdict = |q: &Query, d: &Dtd| classify_query(&normalize(q, d).unwrap(), d);
        // `b` only occurs next to the unproductive `u`
        let d = parse_compact("{<r : (u, b) | c> <u : u>}").unwrap();
        let q = parse_query("x = SELECT X WHERE <r> X:<b/> </r>").unwrap();
        assert!(check_sat(&q, &d).is_unsat());
        assert_eq!(tighten_verdict(&q, &d), Verdict::Satisfiable);
        // two `b` siblings under `a, b, a`: the duplicated model admits
        // one `b` only
        let d = parse_compact("{<r : a, b, a> <a : EMPTY> <b : EMPTY>}").unwrap();
        let q = parse_query("v = SELECT X WHERE <r> X:<b/> <b/> </>").unwrap();
        let v = check_sat(&q, &d);
        assert!(v.reason().unwrap().contains("cannot jointly occur"), "{v}");
        assert_eq!(tighten_verdict(&q, &d), Verdict::Unsatisfiable);
    }

    #[test]
    fn self_diseq_folds_to_unsat_other_errors_to_unknown() {
        let d = d1_department();
        let q = parse_query("x = SELECT P WHERE <department> P:<professor id=A/> </> AND A != A")
            .unwrap();
        assert!(check_sat(&q, &d).is_unsat());
        // pick variable never bound: not a satisfiability question
        let q = parse_query("x = SELECT Z WHERE <department> <professor/> </>").unwrap();
        assert_eq!(check_sat(&q, &d), SatVerdict::Unknown);
    }

    #[test]
    fn pairs_on_distinct_conditions_always_hold() {
        let d = d1_department();
        // two sibling conditions bind two distinct professors, so the
        // pair holds whenever both conditions match
        let q = parse_query(
            "x = SELECT P WHERE <department> P:<professor id=A/> <professor id=B/> </> AND A != B",
        )
        .unwrap();
        assert_eq!(check_sat(&q, &d), SatVerdict::Sat);
        // and so does a pair on conditions at different depths
        let q = parse_query(
            "x = SELECT P WHERE <department> P:<professor> <publication id=B/> </> </> AND P != B",
        )
        .unwrap();
        assert_eq!(check_sat(&q, &d), SatVerdict::Sat);
    }

    #[test]
    fn a_pair_on_one_conditions_two_variables_is_unsat() {
        let d = d1_department();
        let q = parse_query("x = SELECT P WHERE <department> P:<professor id=A/> </> AND P != A")
            .unwrap();
        let v = check_sat(&q, &d);
        assert!(
            v.reason().unwrap().contains("'P != A' can never hold"),
            "{v}"
        );
    }

    #[test]
    fn cache_memoizes_and_counts() {
        let registry = Registry::new();
        let cache = SatCache::with_registry(registry.clone());
        let d = d1_department();
        let q = parse_query("x = SELECT C WHERE <department> <publication> C:<course/> </> </>")
            .unwrap();
        let a = cache.verdict(&q, &d);
        let b = cache.verdict(&q, &d);
        assert_eq!(a, b);
        assert!(a.is_unsat());
        assert_eq!(cache.len(), 1);
        assert_eq!(registry.counter("sat_checks_total").get(), 2);
        assert_eq!(registry.counter("sat_unknown_total").get(), 0);
    }

    #[test]
    fn warm_store_roundtrips_verdicts() {
        #[derive(Default)]
        struct SatStore {
            recorded: parking_lot::Mutex<Vec<(Fingerprint, SatVerdict)>>,
        }
        impl WarmStore for SatStore {
            fn load_views(&self) -> Vec<(Fingerprint, crate::InferredView)> {
                Vec::new()
            }
            fn record_view(&self, _fp: &Fingerprint, _iv: &crate::InferredView) {}
            fn compact(&self, _entries: &[(Fingerprint, Arc<crate::InferredView>)]) {}
            fn load_sat_verdicts(&self) -> Vec<(Fingerprint, SatVerdict)> {
                self.recorded.lock().clone()
            }
            fn record_sat_verdict(&self, fp: &Fingerprint, v: &SatVerdict) {
                self.recorded.lock().push((*fp, v.clone()));
            }
        }
        let store = Arc::new(SatStore::default());
        let d = d1_department();
        let q = parse_query("x = SELECT C WHERE <department> <publication> C:<course/> </> </>")
            .unwrap();
        let cache = SatCache::with_store(Registry::new(), Arc::clone(&store) as Arc<dyn WarmStore>);
        assert!(cache.verdict(&q, &d).is_unsat());
        assert_eq!(store.recorded.lock().len(), 1, "unsat is persisted");
        // a second cache warm-starts resident and re-records nothing
        let warm = SatCache::with_store(Registry::new(), Arc::clone(&store) as Arc<dyn WarmStore>);
        assert_eq!(warm.len(), 1);
        assert!(warm.verdict(&q, &d).is_unsat());
        assert_eq!(store.recorded.lock().len(), 1);
    }
}
