//! Evaluation of pick-element queries (the semantics walked through for
//! (Q1) in Section 2.1).
//!
//! * The tree condition is **root-anchored**: its outermost node must match
//!   the document root (this is the reading the InferList algorithm of
//!   Section 4.4 requires).
//! * Sibling conditions have containment semantics: each must be satisfied
//!   by a *distinct* child, in any order and position ("we assume that no
//!   two sibling conditions can bind to the same element", Section 4.2).
//! * `A != B` requires the elements bound to the two variables to differ.
//!   Two distinct conditions always bind distinct elements: siblings by
//!   the rule above, and any other two because their paths from the root
//!   part at a pair of siblings or end at different depths. So a pair
//!   fails exactly when it names the element variable and the ID variable
//!   of one condition, and then the answer is empty; every other pair
//!   holds ([`unsatisfiable_diseq`]).
//! * The view document contains, under a root named by the query, a copy
//!   of every element the pick variable can bind to, **in depth-first
//!   left-to-right document order** and with duplicates removed.
//!
//! The subtrees below distinct children are disjoint, so whether an
//! element satisfies a condition depends only on the element, and it is
//! decided bottom-up: a condition with one child condition needs one
//! satisfying child (a scan), and a wider group needs a maximum bipartite
//! matching of its conditions to distinct satisfying children, found with
//! augmenting paths. The picks are collected in one document-order
//! descent along the pick path. At each element on it, the path's next
//! condition may take a child that the group's other conditions can do
//! without: a child that some maximum matching of them leaves free. One
//! search over alternating paths, backwards from the children a matching
//! leaves free, marks every such child at once. No assignment is
//! enumerated, so the time is polynomial in the width of a group.

use crate::ast::{Body, Condition, Query, Var};
use mix_xml::{Document, ElemId, Element};
use std::collections::HashMap;

/// Evaluates `q` on `doc`, producing the view document.
///
/// ```
/// use mix_xmas::{parse_query, evaluate};
/// let q = parse_query("profs = SELECT P WHERE <dept> P:<prof/> </dept>").unwrap();
/// let doc = mix_xml::parse_document("<dept><prof/><student/><prof/></dept>").unwrap();
/// let view = evaluate(&q, &doc);
/// assert_eq!(view.doc_type().as_str(), "profs");
/// assert_eq!(view.root.children().len(), 2);
/// ```
pub fn evaluate(q: &Query, doc: &Document) -> Document {
    // the root's ID first, so the answer's IDs increase in document order
    let id = ElemId::fresh();
    let children = pick_bindings(q, doc)
        .into_iter()
        .map(|e| e.deep_clone_fresh())
        .collect::<Vec<_>>();
    Document::new(Element {
        name: q.view_name,
        id,
        content: mix_xml::Content::Elements(children),
    })
}

/// The elements the pick variable binds to, in document order, deduplicated.
pub fn pick_bindings<'d>(q: &Query, doc: &'d Document) -> Vec<&'d Element> {
    let mut out = Vec::new();
    if unsatisfiable_diseq(q).is_some() {
        return out;
    }
    if let Some(path) = q.pick_path() {
        if path[0].test.matches(doc.root.name) {
            collect(&path, &doc.root, &mut out);
        }
    }
    out
}

/// The first `!=` pair of `q` that no match of its condition satisfies,
/// if any: a pair whose two variables one condition binds (its element
/// variable and its ID variable). Every other pair holds in every match,
/// since distinct conditions bind distinct elements (see the module
/// documentation), so it can be dropped. The evaluator, the emptiness
/// decider and the streaming compiler all decide `!=` here.
pub fn unsatisfiable_diseq(q: &Query) -> Option<(Var, Var)> {
    if q.diseqs.is_empty() {
        return None;
    }
    let mut binder: HashMap<Var, usize> = HashMap::new();
    for (i, c) in q.root.walk().into_iter().enumerate() {
        for v in [c.var, c.id_var].into_iter().flatten() {
            binder.entry(v).or_insert(i);
        }
    }
    q.diseqs
        .iter()
        .copied()
        .find(|(a, b)| binder.get(a).is_some_and(|i| binder.get(b) == Some(i)))
}

/// Pushes the elements `path`'s last condition binds below `e` onto `out`,
/// in document order, where `e` matches the name test of `path[0]` and
/// `path` runs from there down to the pick.
fn collect<'d>(path: &[&Condition], e: &'d Element, out: &mut Vec<&'d Element>) {
    let [cond, rest @ ..] = path else {
        unreachable!("a pick path is never empty");
    };
    let Some(&next) = rest.first() else {
        if satisfies(cond, e) {
            out.push(e);
        }
        return;
    };
    let children = e.children();
    let others: Vec<&Condition> = cond
        .children()
        .iter()
        .filter(|c| !std::ptr::eq(*c, next))
        .collect();
    // with no other condition in the group every child is free
    let free = if others.is_empty() {
        None
    } else {
        match Group::matched(others.iter().copied(), children) {
            Some(group) => Some(group.freeable()),
            None => return,
        }
    };
    for (j, child) in children.iter().enumerate() {
        if free.as_ref().is_none_or(|free| free[j]) && next.test.matches(child.name) {
            collect(rest, child, out);
        }
    }
}

/// Does `e` satisfy `c`: its name test, its text, and each child
/// condition by a distinct child?
fn satisfies(c: &Condition, e: &Element) -> bool {
    if !c.test.matches(e.name) {
        return false;
    }
    match &c.body {
        Body::Text(s) => e.pcdata() == Some(s.as_str()),
        Body::Children(conds) => match conds.as_slice() {
            [] => true,
            [only] => e.children().iter().any(|child| satisfies(only, child)),
            _ => Group::matched(conds.iter(), e.children()).is_some(),
        },
    }
}

const UNMATCHED: usize = usize::MAX;

/// Sibling conditions, the children that satisfy each, and a matching of
/// every condition to a distinct one of them.
struct Group {
    /// `edges[starts[i]..starts[i + 1]]` are the children that satisfy
    /// condition `i`, in document order.
    starts: Vec<usize>,
    edges: Vec<usize>,
    /// The child each condition is matched to.
    child_of: Vec<usize>,
    /// The condition each child is matched to, or `UNMATCHED`.
    cond_of: Vec<usize>,
}

impl Group {
    /// Matches every condition of `conds` to a distinct child satisfying
    /// it, or `None` when no such matching exists.
    fn matched<'c>(
        conds: impl ExactSizeIterator<Item = &'c Condition>,
        children: &[Element],
    ) -> Option<Group> {
        let m = conds.len();
        if m > children.len() {
            return None;
        }
        let mut starts = Vec::with_capacity(m + 1);
        let mut edges = Vec::new();
        starts.push(0);
        for c in conds {
            edges.extend((0..children.len()).filter(|&j| satisfies(c, &children[j])));
            if edges.len() == starts[starts.len() - 1] {
                return None;
            }
            starts.push(edges.len());
        }
        let mut group = Group {
            starts,
            edges,
            child_of: vec![UNMATCHED; m],
            cond_of: vec![UNMATCHED; children.len()],
        };
        // take a free child where there is one, then augment the rest
        for c in 0..m {
            let free = group.satisfying(c).find(|&j| group.cond_of[j] == UNMATCHED);
            if let Some(j) = free {
                group.child_of[c] = j;
                group.cond_of[j] = c;
            }
        }
        let mut seen = vec![UNMATCHED; children.len()];
        for c in 0..m {
            if group.child_of[c] == UNMATCHED && !group.augment(c, &mut seen) {
                return None;
            }
        }
        Some(group)
    }

    /// The children that satisfy condition `c`.
    fn satisfying(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges[self.starts[c]..self.starts[c + 1]]
            .iter()
            .copied()
    }

    /// Matches the unmatched condition `root` along an augmenting path: a
    /// depth-first search over alternating paths that ends at an unmatched
    /// child, after which every condition on the path takes the child its
    /// last edge leads to. `seen[j] == root` marks the children this
    /// search has visited. The stack is explicit, so no recursion depth
    /// grows with the width of the group.
    fn augment(&mut self, root: usize, seen: &mut [usize]) -> bool {
        // each entry: a condition and the position of its next edge
        let mut stack = vec![(root, self.starts[root])];
        while let Some(top) = stack.last_mut() {
            let (c, next) = *top;
            if next == self.starts[c + 1] {
                stack.pop();
                continue;
            }
            top.1 += 1;
            let j = self.edges[next];
            if seen[j] == root {
                continue;
            }
            seen[j] = root;
            match self.cond_of[j] {
                UNMATCHED => {
                    for &(c, next) in &stack {
                        let j = self.edges[next - 1];
                        self.child_of[c] = j;
                        self.cond_of[j] = c;
                    }
                    return true;
                }
                holder => stack.push((holder, self.starts[holder])),
            }
        }
        false
    }

    /// Per child: does some matching of every condition leave it free?
    /// Exactly the children an alternating path reaches from a child this
    /// matching leaves free: the child of any condition that one of those
    /// children also satisfies can be given up, since that condition can
    /// move there.
    fn freeable(&self) -> Vec<bool> {
        let n = self.cond_of.len();
        // the conditions each child satisfies (the edges reversed)
        let mut rstarts = vec![0; n + 1];
        for &j in &self.edges {
            rstarts[j + 1] += 1;
        }
        for j in 0..n {
            rstarts[j + 1] += rstarts[j];
        }
        let mut fill = rstarts.clone();
        let mut rconds = vec![0; self.edges.len()];
        for c in 0..self.child_of.len() {
            for j in self.satisfying(c) {
                rconds[fill[j]] = c;
                fill[j] += 1;
            }
        }
        let mut free: Vec<bool> = self.cond_of.iter().map(|&c| c == UNMATCHED).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&j| free[j]).collect();
        while let Some(j) = stack.pop() {
            for &c in &rconds[rstarts[j]..rstarts[j + 1]] {
                let k = self.child_of[c];
                if !free[k] {
                    free[k] = true;
                    stack.push(k);
                }
            }
        }
        free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use mix_xml::parse_document;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dept() -> Document {
        parse_document(
            "<department><name>CS</name>\
               <professor id='prof1'><firstName>Yannis</firstName><lastName>P</lastName>\
                 <publication id='p1'><title>a</title><author>x</author><journal/></publication>\
                 <publication id='p2'><title>b</title><author>x</author><journal/></publication>\
                 <teaches/></professor>\
               <professor id='prof2'><firstName>Victor</firstName><lastName>V</lastName>\
                 <publication id='p3'><title>c</title><author>x</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent id='gs1'><firstName>Pavel</firstName><lastName>V</lastName>\
                 <publication id='p4'><title>d</title><author>x</author><journal/></publication>\
                 <publication id='p5'><title>e</title><author>x</author><conference/></publication>\
               </gradStudent>\
             </department>",
        )
        .unwrap()
    }

    fn names_of(doc: &Document) -> Vec<&'static str> {
        doc.root
            .children()
            .iter()
            .map(|e| e.name.as_str())
            .collect()
    }

    fn ids_of(doc: &Document, level: usize) -> Vec<String> {
        let _ = level;
        doc.root
            .children()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    }

    #[test]
    fn q2_two_distinct_journal_publications() {
        // prof1 has two journal publications; prof2 only one; gs1 has one
        // journal and one conference.
        let q = parse_query(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </> AND Pub1 != Pub2",
        )
        .unwrap();
        let out = evaluate(&q, &dept());
        assert_eq!(out.doc_type().as_str(), "withJournals");
        assert_eq!(names_of(&out), ["professor"]);
        // the picked professor is prof1 — check content survived the copy
        assert_eq!(
            out.root.children()[0].children()[0].pcdata(),
            Some("Yannis")
        );
    }

    #[test]
    fn without_diseq_one_publication_suffices_conditionally() {
        // Same query but *without* the inequality: both conditions may bind
        // to… distinct children still (sibling distinctness), so still only
        // prof1 qualifies.
        let q = parse_query(
            "v = SELECT P WHERE <department> \
               P:<professor | gradStudent> \
                 <publication id=Pub1><journal/></publication> \
                 <publication id=Pub2><journal/></publication> \
               </> </>",
        )
        .unwrap();
        let out = evaluate(&q, &dept());
        assert_eq!(names_of(&out), ["professor"]);
    }

    #[test]
    fn single_publication_condition_matches_everyone() {
        let q = parse_query(
            "v = SELECT P WHERE <department> \
               P:<professor | gradStudent> <publication><journal/></publication> </> </>",
        )
        .unwrap();
        let out = evaluate(&q, &dept());
        // document order: professors before gradStudents
        assert_eq!(names_of(&out), ["professor", "professor", "gradStudent"]);
    }

    #[test]
    fn string_condition_filters() {
        let q = parse_query("v = SELECT P WHERE <department> <name>EE</name> P:<professor/> </>")
            .unwrap();
        assert_eq!(evaluate(&q, &dept()).root.children().len(), 0);
        let q = parse_query("v = SELECT P WHERE <department> <name>CS</name> P:<professor/> </>")
            .unwrap();
        assert_eq!(evaluate(&q, &dept()).root.children().len(), 2);
    }

    #[test]
    fn picks_are_in_document_order_and_deduplicated() {
        let q = parse_query(
            "pubs = SELECT P WHERE <department> <professor | gradStudent> \
               P:<publication/> </> </department>",
        )
        .unwrap();
        let out = evaluate(&q, &dept());
        // all five publications, in document order p1..p5
        let titles: Vec<&str> = out
            .root
            .children()
            .iter()
            .map(|p| p.children()[0].pcdata().unwrap())
            .collect();
        assert_eq!(titles, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn root_anchoring() {
        // condition rooted at professor does not match a department doc
        let q = parse_query("v = SELECT P WHERE P:<professor/>").unwrap();
        assert_eq!(evaluate(&q, &dept()).root.children().len(), 0);
    }

    #[test]
    fn pick_may_be_the_root() {
        let q = parse_query("v = SELECT D WHERE D:<department> <name>CS</name> </>").unwrap();
        let out = evaluate(&q, &dept());
        assert_eq!(names_of(&out), ["department"]);
    }

    #[test]
    fn wildcard_after_normalization() {
        use crate::normalize::normalize;
        let q = parse_query("v = SELECT X WHERE <department> <professor> X:<*/> </> </>").unwrap();
        let q = normalize(&q, &mix_dtd::paper::d1_department()).unwrap();
        let out = evaluate(&q, &dept());
        // every direct child of each professor: 5 for prof1, 4 for prof2
        assert_eq!(out.root.children().len(), 9);
    }

    #[test]
    fn view_ids_are_fresh_and_unique() {
        let q = parse_query(
            "pubs = SELECT P WHERE <department> <professor | gradStudent> \
               P:<publication/> </> </department>",
        )
        .unwrap();
        let out = evaluate(&q, &dept());
        assert!(out.duplicate_id().is_none());
        assert!(ids_of(&out, 1).iter().all(|id| id.starts_with('#')));
    }

    #[test]
    fn three_way_distinctness() {
        let q = parse_query(
            "v = SELECT P WHERE <department> P:<professor | gradStudent> \
               <publication id=A/> <publication id=B/> <publication id=C/> </> </> \
             AND A != B AND B != C AND A != C",
        )
        .unwrap();
        // nobody has three publications
        assert_eq!(evaluate(&q, &dept()).root.children().len(), 0);
    }

    /// The IDs of the elements `q` picks from `doc`.
    fn picked(q: &str, doc: &str) -> Vec<String> {
        let q = parse_query(q).unwrap();
        let doc = parse_document(doc).unwrap();
        pick_bindings(&q, &doc)
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    }

    #[test]
    fn a_group_needs_a_matching_where_first_fit_fails() {
        // first fit gives the first child to <a/>, which leaves
        // <a><b/></a> without one; the matching gives <a/> the second
        let q = "v = SELECT R WHERE R:<r> <a/> <a><b/></a> </r>";
        assert_eq!(picked(q, "<r id='r'><a><b/></a><a/></r>"), ["r"]);
        assert!(picked(q, "<r id='r'><a><b/></a></r>").is_empty());
    }

    #[test]
    fn a_pick_leaves_its_siblings_the_children_they_need() {
        // both children satisfy P:<a/>, but the sibling condition needs
        // the only child holding a <b>, so only the other one is picked
        let q = "v = SELECT P WHERE <r> P:<a/> <a><b/></a> </r>";
        assert_eq!(picked(q, "<r><a id='ab'><b/></a><a id='a'/></r>"), ["a"]);
        assert!(picked(q, "<r><a id='ab'><b/></a></r>").is_empty());
        assert_eq!(
            picked(q, "<r><a id='ab1'><b/></a><a id='ab2'><b/></a></r>"),
            ["ab1", "ab2"]
        );
        // the same on an ancestor of the pick
        let q = "v = SELECT P WHERE <r> <a> P:<c/> </a> <a><b/></a> </r>";
        assert_eq!(
            picked(q, "<r><a><b/><c id='c1'/></a><a><c id='c2'/></a></r>"),
            ["c2"]
        );
    }

    #[test]
    fn a_pair_on_one_conditions_two_variables_never_holds() {
        let q = parse_query(
            "v = SELECT P WHERE <department> P:<professor id=I/> </department> AND P != I",
        )
        .unwrap();
        assert_eq!(
            unsatisfiable_diseq(&q),
            Some((Var::new("P"), Var::new("I")))
        );
        assert!(evaluate(&q, &dept()).root.children().is_empty());
        // a pair across two conditions always holds
        let q = parse_query(
            "v = SELECT P WHERE <department> P:<professor id=I/> <professor id=J/> </> \
             AND P != J AND J != I",
        )
        .unwrap();
        assert_eq!(unsatisfiable_diseq(&q), None);
        assert_eq!(names_of(&evaluate(&q, &dept())), ["professor", "professor"]);
    }

    #[test]
    fn wide_groups_of_identical_conditions_are_matched() {
        for (width, children) in [(8, 14), (64, 64), (64, 63)] {
            let conds = "<a/> ".repeat(width - 1);
            let q = format!("v = SELECT P WHERE <r> P:<a/> {conds}</r>");
            let doc = format!("<r>{}</r>", "<a/>".repeat(children));
            let want = if width <= children { children } else { 0 };
            assert_eq!(picked(&q, &doc).len(), want, "{width} over {children}");
        }
    }

    /// The condition at pre-order position `n` of the tree below `c`.
    fn nth_condition<'c>(c: &'c mut Condition, n: &mut usize) -> Option<&'c mut Condition> {
        if *n == 0 {
            return Some(c);
        }
        *n -= 1;
        if let Body::Children(kids) = &mut c.body {
            for kid in kids {
                if let Some(found) = nth_condition(kid, n) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Adds a `!=` pair to `q`: on one condition's element and ID
    /// variable (it never holds), or on two conditions (it always holds).
    fn add_pair(q: &mut Query, rng: &mut StdRng) {
        let size = q.root.walk().len();
        let root = &mut q.root;
        let mut id_var_at = |n: usize, fresh: &str| {
            let c = nth_condition(root, &mut { n }).expect("in range");
            *c.id_var.get_or_insert(Var::new(fresh))
        };
        let pair = if size < 2 || rng.gen_bool(0.5) {
            let n = rng.gen_range(0..size);
            let id = id_var_at(n, "Ident");
            let c = nth_condition(root, &mut { n }).expect("in range");
            (*c.var.get_or_insert(Var::new("Elem")), id)
        } else {
            let i = rng.gen_range(0..size);
            let j = (i + rng.gen_range(1..size)) % size;
            (id_var_at(i, "Left"), id_var_at(j, "Right"))
        };
        q.diseqs.push(pair);
    }

    /// Checks the matching evaluator against the enumerating oracle on
    /// one (DTD, query) pair and four documents: D1 or a random DTD,
    /// documents from its sampler (auto IDs, so every ID is unique), and a
    /// random query with duplicated conditions under `!=` pairs, some with
    /// a pair added on one condition or across two. Returns the triples
    /// checked, how many had a non-empty answer and how many had pairs.
    fn differential_case(paper: bool, seed: u64) -> [usize; 3] {
        use mix_dtd::generate::{random_dtd, DtdGenConfig};
        use mix_dtd::sample::{DocConfig, DocSampler};
        let mut rng = StdRng::seed_from_u64(seed);
        let dtd = if paper {
            mix_dtd::paper::d1_department()
        } else {
            random_dtd(&mut rng, &DtdGenConfig::default())
        };
        let query_cfg = crate::gen::QueryGenConfig {
            dup_prob: 0.4,
            ..Default::default()
        };
        let mut q = crate::gen::random_query(&dtd, &mut rng, &query_cfg);
        if rng.gen_bool(0.4) {
            add_pair(&mut q, &mut rng);
        }
        let Ok(q) = crate::normalize::normalize(&q, &dtd) else {
            return [0; 3];
        };
        let sampler = DocSampler::new(&dtd, DocConfig::default()).expect("productive");
        let mut tally = [0; 3];
        for _ in 0..4 {
            let doc = sampler.sample(&mut rng);
            let got: Vec<ElemId> = pick_bindings(&q, &doc).iter().map(|e| e.id).collect();
            let want: Vec<ElemId> = crate::oracle::pick_bindings(&q, &doc)
                .iter()
                .map(|e| e.id)
                .collect();
            assert_eq!(got, want, "query:\n{q}\ndocument:\n{doc:?}");
            tally[0] += 1;
            tally[1] += usize::from(!got.is_empty());
            tally[2] += usize::from(!q.diseqs.is_empty());
        }
        tally
    }

    const DIFFERENTIAL_CASES: u32 = 4000;

    /// Cases run, triples checked, non-empty answers and queries with
    /// pairs, over the differential property's run.
    static DIFFERENTIAL_TALLY: std::sync::Mutex<[usize; 4]> = std::sync::Mutex::new([0; 4]);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(DIFFERENTIAL_CASES))]

        /// The matching evaluator picks what the enumerating oracle picks
        /// (so `evaluate` answers alike up to auto IDs), and a fixed share
        /// of the triples have a non-empty answer and `!=` pairs.
        #[test]
        fn matching_picks_what_enumeration_picks(paper in 0u8..2, seed in 0u64..u64::MAX) {
            let [triples, non_empty, with_pairs] = differential_case(paper == 0, seed);
            let mut tally = DIFFERENTIAL_TALLY.lock().unwrap();
            tally[0] += 1;
            tally[1] += triples;
            tally[2] += non_empty;
            tally[3] += with_pairs;
            if tally[0] == DIFFERENTIAL_CASES as usize {
                let share = |n: usize| n as f64 / tally[1] as f64;
                assert!(share(tally[2]) >= 0.25, "non-empty share {}", share(tally[2]));
                assert!(share(tally[3]) >= 0.25, "share with pairs {}", share(tally[3]));
            }
        }
    }
}
