//! Per-source satisfiability of an XMAS tree pattern under a DTD — the
//! analyzer behind the mediator's "never fetch what is provably empty"
//! optimization.
//!
//! [`check_sat`] walks a normalized pattern top-down against the DTD
//! graph and returns a [`SatVerdict`]: `Sat` (no obstruction found),
//! `Unsat(reason)` (**provably** no valid document of the DTD matches —
//! the reason is the witness path), or `Unknown` (the analysis hit a
//! content model outside its tractable fragment; fall back to fetching).
//!
//! **Soundness rule.** Callers may skip work only on `Unsat`. Every
//! `Unsat` branch below is justified against the evaluator's semantics
//! (`mix_xmas::evaluate`) plus document validity (Definition 2.3):
//!
//! * the root condition is root-anchored, so a root test that excludes
//!   the document type never matches;
//! * a valid element's children word lies in `L(model) ∩ productive*`
//!   (subtrees of a finite valid document are finite and valid), so a
//!   child step whose test misses the restricted model's language-exact
//!   alphabet ([`mix_relang::pool::live_alphabet`]) can bind nothing;
//! * sibling conditions bind **distinct** children, so a set of required
//!   siblings induces a *need multiset* (name → multiplicity) that some
//!   word of the restricted model must dominate. Under a duplicate-free
//!   model ([`mix_dtd::ContentClass::DuplicateFree`], the tractable
//!   fragment of arXiv 1308.0769) that cover check is exact; other
//!   models degrade the joint check to `Unknown`, never to `Unsat`;
//! * text conditions never match an element with element content (and
//!   vice versa), because validity forbids the mismatch.
//!
//! Recursive DTDs need no visited set here: the walk descends the finite
//! *query* tree, and DTD-side recursion is already folded into the
//! [`mix_dtd::productive`] reachability fixpoint.
//!
//! Id-inequalities (`P1 != P2`) are deliberately ignored — dropping a
//! constraint can only make the analyzer *more* willing to say `Sat`,
//! which is the sound direction. The one exception, `X != X`, is folded
//! into `Unsat` before normalization can reject it.
//!
//! [`SatCache`] memoizes verdicts under the same process-independent
//! `(query fingerprint, DTD fingerprint)` key as the [`InferenceCache`](crate::InferenceCache),
//! with optional persistence through the [`WarmStore`] seam. The
//! mediator owns one and consults it before every fetch; it is the only
//! verdict cache.

use crate::cache::{fingerprint_dtd, fingerprint_query, Fingerprint, WarmStore};
use mix_dtd::{content_class, productive, restrict, ContentClass, ContentModel, Dtd};
use mix_obs::{Counter, Histogram, Registry};
use mix_relang::pool::{self, ReId, ReNode};
use mix_relang::symbol::Name;
use mix_xmas::{normalize, Body, Condition, NameTest, NormalizeError, Query};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Joint-sibling assignments enumerated before the check degrades to
/// `Unknown` (each child step with a k-name disjunctive test multiplies
/// the assignment count by k; single-name steps — the common case —
/// contribute a factor of 1).
pub const MAX_SIBLING_ASSIGNMENTS: usize = 64;

/// Default resident-entry bound of a [`SatCache`] (same philosophy as
/// [`crate::INFERENCE_CACHE_CAPACITY`]: verdicts are cheap to recompute,
/// so at the bound the table flushes wholesale).
pub const SAT_CACHE_CAPACITY: usize = 4096;

/// The satisfiability lattice: `Unsat < Unknown < Sat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatVerdict {
    /// No obstruction found — the pattern may match some valid document.
    /// (Not a proof of satisfiability: id-inequalities are ignored.)
    Sat,
    /// **Provably** no valid document of the DTD matches; the string is
    /// the witness path explaining why. Callers may skip the fetch and
    /// synthesize the empty answer.
    Unsat(String),
    /// The analysis could not decide (non-tractable content model, or a
    /// normalization failure unrelated to satisfiability). Fetch.
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

    fn rank(&self) -> u8 {
        match self {
            SatVerdict::Unsat(_) => 0,
            SatVerdict::Unknown => 1,
            SatVerdict::Sat => 2,
        }
    }

    /// Lattice meet (conjunction): keeps the *first* `Unsat` witness.
    fn and(self, other: SatVerdict) -> SatVerdict {
        if other.rank() < self.rank() {
            other
        } else {
            self
        }
    }

    /// Lattice join (disjunction): on equal ranks keeps the *latest*
    /// value, so folding from an `Unsat("")` seed picks up a real witness.
    fn or(self, other: SatVerdict) -> SatVerdict {
        if other.rank() >= self.rank() {
            other
        } else {
            self
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

/// Satisfiability of an already-normalized query against a source DTD.
pub fn check_sat_normalized(nq: &Query, dtd: &Dtd) -> SatVerdict {
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
    };
    walker.walk(&nq.root, dtd.doc_type, dtd.doc_type.as_str())
}

/// Per-check state: the productive-name set and a per-name memo of the
/// restricted (pool-interned) content models.
struct Walker<'a> {
    dtd: &'a Dtd,
    prod: HashSet<Name>,
    /// name → (interned `L(model) ∩ productive*`, duplicate-free?)
    restricted: HashMap<Name, (ReId, bool)>,
}

impl Walker<'_> {
    /// The realizable-children language of `n`'s content model: the
    /// model restricted to productive names, interned into the pool so
    /// its language-exact attributes (`live_alphabet`, `empty_lang`) are
    /// cached per node.
    fn restricted_model(&mut self, n: Name, r: &mix_relang::Regex) -> (ReId, bool) {
        if let Some(&hit) = self.restricted.get(&n) {
            return hit;
        }
        let restricted = restrict(r, &self.prod);
        let df = content_class(&ContentModel::Elements(restricted.clone()))
            == ContentClass::DuplicateFree;
        let entry = (mix_relang::intern(&restricted), df);
        self.restricted.insert(n, entry);
        entry
    }

    /// Satisfiability of `cond` matched against an element named `n`
    /// inside a valid document; `path` locates the step for witnesses.
    fn walk(&mut self, cond: &Condition, n: Name, path: &str) -> SatVerdict {
        let Some(model) = self.dtd.get(n) else {
            return SatVerdict::Unsat(format!("{path}: <{n}> is not declared in the DTD"));
        };
        match (&cond.body, model) {
            (Body::Text(_), ContentModel::Pcdata) => SatVerdict::Sat,
            (Body::Text(_), ContentModel::Elements(_)) => SatVerdict::Unsat(format!(
                "{path}: the pattern requires text content but <{n}> has element content"
            )),
            (Body::Children(cs), _) if cs.is_empty() => SatVerdict::Sat,
            (Body::Children(_), ContentModel::Pcdata) => SatVerdict::Unsat(format!(
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
    ) -> SatVerdict {
        let (rid, duplicate_free) = self.restricted_model(n, r);
        let live: Vec<Name> = pool::live_alphabet(rid).iter().map(|s| s.name).collect();
        let mut verdict = SatVerdict::Sat;
        // per child step: the names it could still bind to (test names
        // that are realizable children and not recursively Unsat)
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
                return SatVerdict::Unsat(format!(
                    "{path}: child step <{}> never occurs under <{n}> (realizable children: {})",
                    fmt_test(&cc.test),
                    fmt_names(&live),
                ));
            }
            let mut child_verdict = SatVerdict::Unsat(String::new());
            let mut names = Vec::new();
            for &m in &feasible {
                let v = self.walk(cc, m, &format!("{path}/{m}"));
                if !v.is_unsat() {
                    names.push(m);
                }
                child_verdict = child_verdict.or(v);
            }
            if names.is_empty() {
                // every candidate name is recursively Unsat; the join of
                // all-Unsat carries the last inner witness
                return child_verdict;
            }
            verdict = verdict.and(child_verdict);
            viable.push(names);
        }
        if cs.len() >= 2 {
            if !duplicate_free {
                // outside the tractable fragment: the joint check would
                // need multiset splitting across duplicated occurrences
                verdict = verdict.and(SatVerdict::Unknown);
            } else {
                let combos = viable.iter().map(Vec::len).try_fold(1usize, |a, b| {
                    let p = a.checked_mul(b)?;
                    (p <= MAX_SIBLING_ASSIGNMENTS).then_some(p)
                });
                match combos {
                    None => verdict = verdict.and(SatVerdict::Unknown),
                    Some(_) if some_assignment_covers(rid, &viable) => {}
                    Some(_) => {
                        let steps: Vec<String> = cs.iter().map(|c| fmt_test(&c.test)).collect();
                        return SatVerdict::Unsat(format!(
                            "{path}: required siblings [{}] cannot jointly occur under <{n}>",
                            steps.join(", ")
                        ));
                    }
                }
            }
        }
        verdict
    }
}

/// Does any assignment of child steps to their viable names induce a
/// need multiset some word of `L(rid)` dominates? Enumerated with an
/// odometer over the (capped) cartesian product.
fn some_assignment_covers(rid: ReId, viable: &[Vec<Name>]) -> bool {
    let mut idx = vec![0usize; viable.len()];
    loop {
        let mut need: HashMap<Name, usize> = HashMap::new();
        for (slot, names) in idx.iter().zip(viable) {
            *need.entry(names[*slot]).or_insert(0) += 1;
        }
        if covers(rid, &need) {
            return true;
        }
        let mut i = 0;
        loop {
            if i == idx.len() {
                return false;
            }
            idx[i] += 1;
            if idx[i] < viable[i].len() {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

fn in_live(id: ReId, n: Name) -> bool {
    pool::live_alphabet(id).iter().any(|s| s.name == n)
}

/// Is there a word `w ∈ L(id)` with `count_n(w) ≥ need[n]` for every
/// needed name? Exact on duplicate-free regexes: each needed name then
/// occurs in at most one concatenation factor, so the partition of the
/// need multiset is forced and no splitting search is required.
fn covers(id: ReId, need: &HashMap<Name, usize>) -> bool {
    if need.is_empty() {
        return !pool::empty_lang(id);
    }
    match pool::node(id) {
        ReNode::Empty | ReNode::Epsilon => false,
        ReNode::Sym(s) => need.len() == 1 && need.get(&s.name) == Some(&1),
        ReNode::Alt(parts) => parts.iter().any(|&p| covers(p, need)),
        ReNode::Concat(parts) => {
            let mut sub: Vec<HashMap<Name, usize>> = vec![HashMap::new(); parts.len()];
            'names: for (&n, &c) in need {
                for (i, &p) in parts.iter().enumerate() {
                    if in_live(p, n) {
                        sub[i].insert(n, c);
                        continue 'names;
                    }
                }
                return false;
            }
            parts.iter().zip(&sub).all(|(&p, s)| covers(p, s))
        }
        // a starred body supplies any multiplicity: one iteration per
        // needed occurrence, each from a word that realizes that name
        ReNode::Star(x) | ReNode::Plus(x) => need.keys().all(|&n| in_live(x, n)),
        ReNode::Opt(x) => covers(x, need),
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
    fn duplicated_model_degrades_to_unknown() {
        // truth: three <b> children are impossible under `b, b` — but the
        // model is out of the tractable fragment, so the analyzer must
        // answer Unknown, never a guessed Unsat
        let d = parse_compact("{<r : b, b>}").unwrap();
        let v = verdict(
            "x = SELECT X WHERE X:<r> <b>u</b> <b>w</b> <b>y</b> </r>",
            &d,
        );
        assert_eq!(v, SatVerdict::Unknown);
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

    /// Neither emptiness analyzer implies the other, so folding one into
    /// the other must keep both the productive-name restriction (only
    /// here) and `tighten`'s sequential refinement of the content model.
    #[test]
    fn neither_emptiness_analyzer_implies_the_other() {
        let tighten_verdict = |q: &Query, d: &Dtd| classify_query(&normalize(q, d).unwrap(), d);
        // `b` only occurs next to the unproductive `u`: Unsat here,
        // Satisfiable for tighten
        let d = parse_compact("{<r : (u, b) | c> <u : u>}").unwrap();
        let q = parse_query("x = SELECT X WHERE <r> X:<b/> </r>").unwrap();
        assert!(check_sat(&q, &d).is_unsat());
        assert_eq!(tighten_verdict(&q, &d), Verdict::Satisfiable);
        // two `b` siblings under `a, b, a`: the duplicated model is outside
        // the sibling analysis (Unknown), tighten proves it Unsatisfiable
        let d = parse_compact("{<r : a, b, a> <a : EMPTY> <b : EMPTY>}").unwrap();
        let q = parse_query("v = SELECT X WHERE <r> X:<b/> <b/> </>").unwrap();
        assert_eq!(check_sat(&q, &d), SatVerdict::Unknown);
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
    fn diseqs_are_ignored_soundly() {
        let d = d1_department();
        // two distinct professors may exist — and even if they could
        // not, ignoring the constraint only errs toward Sat
        let q = parse_query(
            "x = SELECT P WHERE <department> P:<professor id=A/> <professor id=B/> </> AND A != B",
        )
        .unwrap();
        assert_eq!(check_sat(&q, &d), SatVerdict::Sat);
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
