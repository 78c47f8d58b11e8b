//! The Tightening algorithm (Figure 2, Section 4.2).
//!
//! Walks a (normalized, tagged) tree condition against the source DTD,
//! refining one type per condition occurrence and collecting the refined
//! types into a specialized-DTD fragment. As a side effect it classifies
//! each condition — and the whole query — as *valid*, *satisfiable*, or
//! *unsatisfiable* with respect to the DTD (the side effect the paper
//! highlights at the end of Section 4.2). Registration, re-inference,
//! InferList and `mixctl infer`/`classify` use these verdicts.
//!
//! The query path does not: sequential refinement enumerates the tag
//! orderings of repeated sibling conditions, so its cost grows steeply
//! with every repeated sibling. The mediator's emptiness prunes go
//! through [`crate::sat::check_sat`], which proves empty every query
//! classified `Unsatisfiable` here, and more, unless its sibling check
//! gives up at [`crate::sat::MAX_SIBLING_FRONTIER`].

use crate::refine::refine_id;
use mix_dtd::{ContentModel, Dtd, TypeMap};
use mix_relang::ast::Regex;
use mix_relang::pool::{self, ReId};
use mix_relang::symbol::{Name, Sym, Tag};
use mix_relang::{equivalent, is_subset_id};
use mix_xmas::{Body, Condition, Query};
use std::collections::HashMap;

/// The classification of a condition (or query) against a DTD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No document satisfying the DTD satisfies the condition; the view is
    /// certainly empty.
    Unsatisfiable,
    /// Some documents satisfy the condition, some may not.
    Satisfiable,
    /// Every document satisfying the DTD satisfies the condition.
    Valid,
}

impl Verdict {
    /// Conjunction of verdicts (the weaker one wins).
    pub fn and(self, other: Verdict) -> Verdict {
        self.min(other)
    }
}

/// Output of the tightening algorithm.
#[derive(Debug, Clone)]
pub struct Tightened {
    /// Refined type definitions, keyed by tagged name (`n^tag` holds the
    /// type refined for the condition carrying `tag`). Untagged
    /// dependencies are *not* pulled yet — the pipeline does that once the
    /// root type is known.
    pub types: TypeMap<Sym>,
    /// Overall verdict for the query's tree condition.
    pub verdict: Verdict,
    /// Verdict of each `(condition tag, element name)` pair: given an
    /// element of that name (typed by the *source* DTD), does its content
    /// always/sometimes/never satisfy the condition's subtree?
    pub per_name: HashMap<(Tag, Name), Verdict>,
}

impl Tightened {
    /// The names of `cond.test` that can possibly satisfy `cond`'s subtree
    /// (verdict better than unsatisfiable), in test order.
    pub fn viable_names(&self, cond: &Condition) -> Vec<Name> {
        cond.test
            .names()
            .iter()
            .copied()
            .filter(|&n| {
                self.per_name
                    .get(&(cond.tag, n))
                    .is_some_and(|v| *v != Verdict::Unsatisfiable)
            })
            .collect()
    }
}

/// Runs the tightening algorithm for a normalized query against the source
/// DTD (Algorithm Tighten of Figure 2).
pub fn tighten(q: &Query, dtd: &Dtd) -> Tightened {
    let mut out = Tightened {
        types: TypeMap::new(),
        verdict: Verdict::Valid,
        per_name: HashMap::new(),
    };
    // The root condition applies to the root element, whose name is always
    // the document type.
    if !q.root.test.matches(dtd.doc_type) {
        out.verdict = Verdict::Unsatisfiable;
        return out;
    }
    let v = apply_to_name(dtd.doc_type, &q.root, dtd, &mut out);
    out.verdict = v;
    out
}

/// Applies `cond`'s *body* to an element named `n`: refines `n`'s source
/// type, stores it under `n^cond.tag`, records the per-name verdict, and
/// returns it.
fn apply_to_name(n: Name, cond: &Condition, dtd: &Dtd, out: &mut Tightened) -> Verdict {
    let v = match dtd.get(n) {
        None => Verdict::Unsatisfiable,
        Some(model) => {
            let (own, v) = tighten_body(model, &cond.body, dtd, out);
            if v != Verdict::Unsatisfiable {
                store(out, n.tagged(cond.tag), own);
            }
            v
        }
    };
    out.per_name.insert((cond.tag, n), v);
    v
}

/// Refines `model` by every child condition of `body` in turn.
fn tighten_body(
    model: &ContentModel,
    body: &Body,
    dtd: &Dtd,
    out: &mut Tightened,
) -> (ContentModel, Verdict) {
    match (model, body) {
        (ContentModel::Pcdata, Body::Text(_)) => {
            // The DTD cannot promise a specific string: satisfiable, never
            // valid.
            (ContentModel::Pcdata, Verdict::Satisfiable)
        }
        (ContentModel::Pcdata, Body::Children(conds)) if conds.is_empty() => {
            (ContentModel::Pcdata, Verdict::Valid)
        }
        (ContentModel::Pcdata, Body::Children(_)) => (ContentModel::Pcdata, Verdict::Unsatisfiable),
        (ContentModel::Elements(_), Body::Text(_)) => {
            // an element-content element never has string content
            (model.clone(), Verdict::Unsatisfiable)
        }
        (ContentModel::Elements(r), Body::Children(conds)) => {
            let mut t = r.clone();
            let mut v = Verdict::Valid;
            for c in conds {
                let (t2, vc) = apply_condition(&t, c, dtd, out);
                if vc == Verdict::Unsatisfiable {
                    return (model.clone(), Verdict::Unsatisfiable);
                }
                t = t2;
                v = v.and(vc);
            }
            (ContentModel::Elements(t), v)
        }
    }
}

/// One step of the tightening loop: requires `t` (the parent's current
/// refined type) to contain a child matching `c`, returning the refined
/// parent type and the step's verdict.
fn apply_condition(t: &Regex, c: &Condition, dtd: &Dtd, out: &mut Tightened) -> (Regex, Verdict) {
    // 1. which names of the test can satisfy the subtree at all?
    let mut viable: Vec<Name> = Vec::new();
    let mut child_v = Verdict::Valid;
    let mut test_names: Vec<Name> = c.test.names().to_vec();
    test_names.dedup();
    for n in test_names {
        let vn = apply_to_name(n, c, dtd, out);
        if vn != Verdict::Unsatisfiable {
            viable.push(n);
            child_v = child_v.and(vn);
        }
    }
    if viable.is_empty() {
        return (Regex::Empty, Verdict::Unsatisfiable);
    }
    // 2. refine the parent type: an (untagged) occurrence of a viable name
    //    must exist; tag the witness.
    // 3. verdict: the refinement is valid when it did not shrink the
    //    (image) language — "if the refinement included an elimination of a
    //    disjunct or a refinement of a star expression, indicate that the
    //    condition is not satisfied by all instances" (Figure 2).
    // The conditions loop in `tighten_body` refines the same parent type
    // repeatedly, so its image and the subset result are pool/memo
    // lookups after the first pass.
    let ti = pool::intern(t);
    let t2i = refine_id(ti, &viable, c.tag);
    if t2i == ReId::EMPTY {
        return (Regex::Empty, Verdict::Unsatisfiable);
    }
    let refine_v = if is_subset_id(pool::image_id(ti), pool::image_id(t2i)) {
        Verdict::Valid
    } else {
        Verdict::Satisfiable
    };
    (pool::to_regex(t2i), refine_v.and(child_v))
}

/// Stores a refined type, unioning content when the same tagged name is
/// refined by two different tree constraints ("we store the union of the
/// content of the refinements", Section 4.2). With normalization's
/// query-unique tags this only triggers for diamond-shaped reuse.
fn store(out: &mut Tightened, sym: Sym, model: ContentModel) {
    match (out.types.get(sym), model) {
        (None, m) => {
            out.types.insert(sym, m);
        }
        (Some(ContentModel::Elements(a)), ContentModel::Elements(b)) => {
            if !equivalent(a, &b) {
                let union = Regex::alt([a.clone(), b]);
                out.types.insert(sym, ContentModel::Elements(union));
            }
        }
        (Some(_), _) => { /* PCDATA: nothing to union */ }
    }
}

/// The side-effect API the paper advertises: classify a query against a
/// DTD without keeping the refined types.
pub fn classify_query(q: &Query, dtd: &Dtd) -> Verdict {
    tighten(q, dtd).verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_dtd::paper::{d1_department, d9_professor};
    use mix_relang::parse_regex;
    use mix_relang::symbol::name;
    use mix_xmas::{normalize, parse_query};

    fn prep(src: &str, dtd: &Dtd) -> Query {
        normalize(&parse_query(src).unwrap(), dtd).unwrap()
    }

    #[test]
    fn q6_on_d9_refines_professor() {
        // Example 4.1: professors with a journal publication.
        let d = d9_professor();
        let q = prep(
            "answer = SELECT X WHERE X:<professor><journal/></professor>",
            &d,
        );
        let t = tighten(&q, &d);
        assert_eq!(t.verdict, Verdict::Satisfiable);
        let prof_tag = q.root.tag;
        let refined = t
            .types
            .get(name("professor").tagged(prof_tag))
            .unwrap()
            .regex()
            .unwrap();
        // image = name, (j|c)*, j, (j|c)*
        assert!(equivalent(
            &refined.image(),
            &parse_regex("name, (journal | conference)*, journal, (journal | conference)*")
                .unwrap()
        ));
    }

    #[test]
    fn verdict_valid_when_dtd_guarantees_condition() {
        let d = d1_department();
        // every department has a professor, every professor a publication
        let q = prep(
            "v = SELECT P WHERE <department> P:<professor><publication/></professor> </>",
            &d,
        );
        assert_eq!(classify_query(&q, &d), Verdict::Valid);
    }

    #[test]
    fn verdict_satisfiable_for_disjunct_removal() {
        let d = d1_department();
        let q = prep(
            "v = SELECT P WHERE <department> <professor> \
               P:<publication><journal/></publication> </> </>",
            &d,
        );
        assert_eq!(classify_query(&q, &d), Verdict::Satisfiable);
    }

    #[test]
    fn verdict_unsatisfiable_for_impossible_structure() {
        let d = d1_department();
        // departments have no direct journal children
        let q = prep(
            "v = SELECT J WHERE <department> J:<journal/> </department>",
            &d,
        );
        assert_eq!(classify_query(&q, &d), Verdict::Unsatisfiable);
        // a publication can have journal or conference but not... two
        // journals (only one (journal|conference) group):
        let q = prep(
            "v = SELECT P WHERE <department> <professor> P:<publication> \
               <journal id=A/> <journal id=B/> </publication> </> </> AND A != B",
            &d,
        );
        assert_eq!(classify_query(&q, &d), Verdict::Unsatisfiable);
    }

    #[test]
    fn root_name_mismatch_is_unsatisfiable() {
        let d = d1_department();
        let q = prep("v = SELECT P WHERE P:<professor/>", &d);
        assert_eq!(classify_query(&q, &d), Verdict::Unsatisfiable);
    }

    #[test]
    fn string_conditions_are_satisfiable_at_best() {
        let d = d1_department();
        let q = prep("v = SELECT D WHERE D:<department> <name>CS</name> </>", &d);
        assert_eq!(classify_query(&q, &d), Verdict::Satisfiable);
        // but a string condition on an element-content name is unsat
        let q = prep(
            "v = SELECT D WHERE D:<department> <professor>CS</professor> </>",
            &d,
        );
        assert_eq!(classify_query(&q, &d), Verdict::Unsatisfiable);
    }

    #[test]
    fn q2_stores_specialized_publication_types() {
        let d = d1_department();
        let q = prep(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </> AND Pub1 != Pub2",
            &d,
        );
        let t = tighten(&q, &d);
        assert_eq!(t.verdict, Verdict::Satisfiable);
        // two publication specializations with journal-only content
        let pubs: Vec<Sym> = t
            .types
            .keys()
            .filter(|s| s.name == name("publication") && !s.is_untagged())
            .collect();
        assert_eq!(pubs.len(), 2);
        for p in pubs {
            let r = t.types.get(p).unwrap().regex().unwrap();
            assert!(
                equivalent(&r.image(), &parse_regex("title, author+, journal").unwrap()),
                "unexpected refined publication type {r}"
            );
        }
        // professor refined type requires two distinct tagged publications
        let prof = t
            .types
            .keys()
            .find(|s| s.name == name("professor") && !s.is_untagged())
            .unwrap();
        let r = t.types.get(prof).unwrap().regex().unwrap();
        assert!(equivalent(
            &r.image(),
            &parse_regex(
                "firstName, lastName, publication*, publication, publication*, \
                 publication, publication*, teaches"
            )
            .unwrap()
        ));
    }

    #[test]
    fn viable_names_filters_unsatisfiable_disjuncts() {
        let d = d1_department();
        // teaches only exists under professor, so gradStudent is unviable
        let q = prep(
            "v = SELECT P WHERE <department> P:<professor | gradStudent> <teaches/> </> </>",
            &d,
        );
        let t = tighten(&q, &d);
        assert_eq!(t.verdict, Verdict::Valid);
        let pick = q.pick_node().unwrap();
        assert_eq!(t.viable_names(pick), vec![name("professor")]);
    }

    #[test]
    fn per_name_verdicts_recorded() {
        let d = d1_department();
        let q = prep(
            "v = SELECT P WHERE <department> P:<professor | gradStudent> \
               <publication><journal/></publication> </> </>",
            &d,
        );
        let t = tighten(&q, &d);
        let pick = q.pick_node().unwrap();
        assert_eq!(
            t.per_name[&(pick.tag, name("professor"))],
            Verdict::Satisfiable
        );
        assert_eq!(
            t.per_name[&(pick.tag, name("gradStudent"))],
            Verdict::Satisfiable
        );
    }

    #[test]
    fn empty_body_conditions_are_valid() {
        let d = d1_department();
        let q = prep("v = SELECT D WHERE D:<department/>", &d);
        assert_eq!(classify_query(&q, &d), Verdict::Valid);
    }
}
