//! View–query composition.
//!
//! "It first combines the incoming query and the view into a query which
//! refers directly to the source data" (Section 1, describing TSIMMIS —
//! MIX inherits the architecture). For pick-element queries over
//! pick-element views, composition grafts the user query's condition on
//! the view's members onto the view definition's pick node, producing one
//! query the wrapper can answer without materializing the view.
//!
//! Composition applies when the user query constrains a *single* view
//! member (its root has exactly one child condition); multi-member
//! correlations fall back to materialization — they can relate picked
//! elements from unrelated positions of the source and are not expressible
//! as one tree condition over the source. A member condition whose name
//! test shares no name with the view's pick test matches no member, so
//! the answer is empty without asking the source ([`Composed::Empty`]).
//!
//! A second guard protects the distinct-sibling semantics (Section 4.2's
//! "no two sibling conditions can bind to the same element"): merging the
//! two queries' conditions under the pick node would force *distinct*
//! witnesses even where evaluating over the materialized view lets the
//! same child satisfy a view condition and a user condition. Composition
//! therefore bails whenever a user condition's name test overlaps a view
//! condition's name test at the pick level.
//!
//! The user query's variables that the view definition also uses are
//! renamed apart first, since the merged tree must bind each variable
//! once. The answer does not depend on variable names.
//!
//! `!=` pairs compare the elements two variables bind. The merged pick
//! node keeps one element variable and one ID variable; a variable it
//! drops binds the same element as the one it keeps, so the pairs of both
//! queries name the kept one instead. The user's root binds the view's
//! root element, which no member condition binds: a pair with one side on
//! it always holds and is left out.

use mix_relang::symbol::Name;
use mix_xmas::{Body, Condition, NameTest, Query, Var};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// What composing a user query with a view definition gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Composed {
    /// One query over the view's source, equivalent to evaluating the user
    /// query over the materialized view.
    Query(Query),
    /// The user query's member test is disjoint from the view's pick
    /// test: no view member can match, so the answer is provably empty
    /// and the source need not be called.
    Empty,
}

/// Composes `user` (a query over the document the view `view_name`
/// exports) with `view` (the view definition over the source). The name
/// comes from the caller, so a union member's definition composes under
/// the union's name. `None` when composition does not apply.
pub fn compose(view_name: Name, view: &Query, user: &Query) -> Option<Composed> {
    // the user query must address the view by name at its root
    if !user.root.test.matches(view_name) {
        return None;
    }
    // picking the view root defeats composition
    if user.root.var == Some(user.pick) {
        return None;
    }
    let Body::Children(members) = &user.root.body else {
        return None;
    };
    // exactly one member condition: with none the query picks the root,
    // with several it may correlate members
    let [member_cond] = members.as_slice() else {
        return None;
    };
    // the pick must live inside the member condition
    member_cond.path_to_var(user.pick)?;
    let view_pick = view.pick_node()?;
    // intersect the name tests
    let Some(test) = intersect(&view_pick.test, &member_cond.test) else {
        return Some(Composed::Empty);
    };
    // the merged tree binds each variable once: rename the user's apart
    let user = rename_apart(view, user);
    let Body::Children(members) = &user.root.body else {
        unreachable!("renaming keeps the body");
    };
    let member_cond = &members[0];
    let body = match (&view_pick.body, &member_cond.body) {
        (Body::Children(view_kids), Body::Children(member_kids)) => {
            // distinct-sibling guard: overlapping name tests at the merge
            // level would make the composed query stricter than the
            // materialized plan
            for vk in view_kids {
                for mk in member_kids {
                    if overlaps(&vk.test, &mk.test) {
                        return None;
                    }
                }
            }
            let mut merged_kids = view_kids.clone();
            merged_kids.extend(member_kids.iter().cloned());
            Body::Children(merged_kids)
        }
        // a text member condition merges only with a pick node without
        // children conditions; otherwise materialization decides
        (Body::Children(view_kids), Body::Text(_)) if view_kids.is_empty() => {
            member_cond.body.clone()
        }
        _ => return None,
    };
    // the merged node keeps one element variable and one ID variable; a
    // dropped one is the same element as the kept one, so it is renamed to
    // it in every `!=` pair
    let mut kept: HashMap<Var, Var> = HashMap::new();
    if let (Some(dropped), Some(var)) = (view_pick.var, member_cond.var) {
        kept.insert(dropped, var);
    }
    if let (Some(id_var), Some(dropped)) = (view_pick.id_var, member_cond.id_var) {
        kept.insert(dropped, id_var);
    }
    let merged_pick = Condition {
        test,
        var: member_cond.var.or(view_pick.var),
        id_var: view_pick.id_var.or(member_cond.id_var),
        tag: 0,
        body,
    };
    let diseqs = composed_diseqs(view, &user, &kept)?;
    Some(Composed::Query(Query {
        view_name: user.view_name,
        pick: user.pick,
        root: replace_pick(&view.root, view.pick, &merged_pick)?,
        diseqs,
    }))
}

/// The `!=` pairs of the composed query: the view's, then the user's,
/// each variable the merged pick node dropped renamed to the one it kept.
/// The user's root binds the view's root element, which is none of the
/// elements a member condition binds, so a pair with one side on it always
/// holds and is left out. `None` for a pair with both sides on it (it
/// never holds), which materialization answers.
fn composed_diseqs(
    view: &Query,
    user: &Query,
    kept: &HashMap<Var, Var>,
) -> Option<Vec<(Var, Var)>> {
    let on_root = |v: Var| user.root.var == Some(v) || user.root.id_var == Some(v);
    let to = |v: Var| kept.get(&v).copied().unwrap_or(v);
    let mut out = Vec::with_capacity(view.diseqs.len() + user.diseqs.len());
    for &(a, b) in view.diseqs.iter().chain(&user.diseqs) {
        match (on_root(a), on_root(b)) {
            (false, false) => out.push((to(a), to(b))),
            (true, true) => return None,
            _ => {}
        }
    }
    Some(out)
}

/// `user` with every variable that `view` also uses renamed to a fresh
/// name neither query uses, in conditions, ID variables, `!=` pairs and
/// the pick.
fn rename_apart<'q>(view: &Query, user: &'q Query) -> Cow<'q, Query> {
    let view_vars: HashSet<Var> = view.declared_vars().into_iter().collect();
    let user_vars: Vec<Var> = user
        .declared_vars()
        .into_iter()
        .chain(user.diseqs.iter().flat_map(|&(a, b)| [a, b]))
        .collect();
    if !user_vars.iter().any(|v| view_vars.contains(v)) {
        return Cow::Borrowed(user);
    }
    let mut taken: HashSet<Var> = view_vars.iter().chain(&user_vars).copied().collect();
    let mut renamed: HashMap<Var, Var> = HashMap::new();
    for &v in &user_vars {
        if view_vars.contains(&v) && !renamed.contains_key(&v) {
            let fresh = (1..)
                .map(|k| Var::new(&format!("{v}_{k}")))
                .find(|f| !taken.contains(f))
                .expect("unbounded candidates");
            taken.insert(fresh);
            renamed.insert(v, fresh);
        }
    }
    let to = |v: Var| renamed.get(&v).copied().unwrap_or(v);
    fn rename(c: &mut Condition, to: &dyn Fn(Var) -> Var) {
        c.var = c.var.map(to);
        c.id_var = c.id_var.map(to);
        if let Body::Children(kids) = &mut c.body {
            kids.iter_mut().for_each(|k| rename(k, to));
        }
    }
    let mut out = user.clone();
    rename(&mut out.root, &to);
    out.pick = to(out.pick);
    for (a, b) in &mut out.diseqs {
        (*a, *b) = (to(*a), to(*b));
    }
    Cow::Owned(out)
}

fn overlaps(a: &NameTest, b: &NameTest) -> bool {
    match (a, b) {
        (NameTest::Wildcard, _) | (_, NameTest::Wildcard) => true,
        (NameTest::Names(x), NameTest::Names(y)) => x.iter().any(|n| y.contains(n)),
    }
}

fn intersect(a: &NameTest, b: &NameTest) -> Option<NameTest> {
    match (a, b) {
        (NameTest::Wildcard, other) | (other, NameTest::Wildcard) => Some(other.clone()),
        (NameTest::Names(x), NameTest::Names(y)) => {
            let out: Vec<Name> = x.iter().copied().filter(|n| y.contains(n)).collect();
            if out.is_empty() {
                None
            } else {
                Some(NameTest::Names(out))
            }
        }
    }
}

/// Rebuilds the view condition tree with the node binding `pick` replaced.
fn replace_pick(c: &Condition, pick: Var, replacement: &Condition) -> Option<Condition> {
    if c.var == Some(pick) {
        return Some(replacement.clone());
    }
    match &c.body {
        Body::Text(_) => None,
        Body::Children(kids) => {
            let mut out = c.clone();
            let Body::Children(out_kids) = &mut out.body else {
                unreachable!("cloned children body");
            };
            for (i, k) in kids.iter().enumerate() {
                if let Some(r) = replace_pick(k, pick, replacement) {
                    out_kids[i] = r;
                    return Some(out);
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_relang::symbol::name;
    use mix_xmas::parse_query;

    fn view() -> Query {
        parse_query(
            "withJournals = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> <publication><journal/></publication> </> </>",
        )
        .unwrap()
    }

    /// Composes `user` with [`view`] under its own name.
    fn composed(user: &str) -> Option<Composed> {
        let user = parse_query(user).unwrap();
        compose(name("withJournals"), &view(), &user)
    }

    fn query(c: Option<Composed>) -> Query {
        match c {
            Some(Composed::Query(q)) => q,
            other => panic!("expected a composed query, got {other:?}"),
        }
    }

    #[test]
    fn grafts_member_condition_onto_pick() {
        let composed = query(composed(
            "ans = SELECT X WHERE <withJournals> X:<professor> <teaches/> </professor> </>",
        ));
        assert_eq!(composed.view_name.as_str(), "ans");
        assert_eq!(composed.pick, Var::new("X"));
        // composed root is over the source (department), pick narrowed to
        // professor, with both the view's publication condition and the
        // user's teaches condition
        let pick = composed.pick_node().unwrap();
        assert_eq!(pick.test.names(), &[name("professor")]);
        assert_eq!(pick.children().len(), 2);
        assert_eq!(composed.root.test.names(), &[name("department")]);
    }

    #[test]
    fn pick_deeper_than_member() {
        let composed = query(composed(
            "ans = SELECT T WHERE <withJournals> <professor | gradStudent> \
               T:<teaches/> </> </withJournals>",
        ));
        let path = composed.pick_path().unwrap();
        assert_eq!(path.len(), 3); // department / pick / teaches
    }

    #[test]
    fn overlapping_sibling_tests_do_not_compose() {
        // the view already constrains a publication child; a user
        // condition on publications would be forced onto a *different*
        // publication if merged — bail to materialization instead
        assert!(composed(
            "ans = SELECT T WHERE <withJournals> <professor | gradStudent> \
               <publication> T:<title/> </publication> </> </withJournals>",
        )
        .is_none());
    }

    /// No view member is a `course`, so the answer is empty without a
    /// source call.
    #[test]
    fn disjoint_name_tests_compose_to_empty() {
        assert_eq!(
            composed("ans = SELECT X WHERE <withJournals> X:<course/> </withJournals>"),
            Some(Composed::Empty)
        );
    }

    #[test]
    fn multi_member_queries_do_not_compose() {
        assert!(composed(
            "ans = SELECT X WHERE <withJournals> X:<professor/> <gradStudent/> </withJournals>",
        )
        .is_none());
    }

    #[test]
    fn picking_the_view_root_does_not_compose() {
        assert!(composed("ans = SELECT W WHERE W:<withJournals/>").is_none());
    }

    #[test]
    fn wrong_view_name_does_not_compose() {
        assert!(composed("ans = SELECT X WHERE <other> X:<professor/> </other>").is_none());
    }

    /// The view name comes from the caller: a union member's definition
    /// (here named `withJournals`) composes under the union's name.
    #[test]
    fn members_compose_under_the_callers_name() {
        let user =
            parse_query("ans = SELECT X WHERE <everyone> X:<professor/> </everyone>").unwrap();
        assert!(compose(name("withJournals"), &view(), &user).is_none());
        let composed = query(compose(name("everyone"), &view(), &user));
        assert_eq!(composed.root.test.names(), &[name("department")]);
    }

    /// A user query that reuses the view's `P` (and an ID variable of the
    /// view's shape) is renamed apart everywhere — conditions, ID
    /// variables, `!=` pairs and the pick.
    #[test]
    fn colliding_variables_are_renamed_apart() {
        let v = parse_query(
            "people = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> <firstName/> </> </>",
        )
        .unwrap();
        let user = parse_query(
            "ans = SELECT P WHERE <people> P:<professor> \
               <publication id=P_1/> <publication id=B/> </professor> </> AND P_1 != B",
        )
        .unwrap();
        let composed = query(compose(name("people"), &v, &user));
        assert_eq!(composed.pick, Var::new("P_2"), "P_1 is the user's own");
        let mut declared = composed.declared_vars();
        declared.sort_by_key(|v| v.as_str());
        assert_eq!(
            declared,
            ["B", "P_1", "P_2"].map(Var::new),
            "the view's P merges into the pick node"
        );
        assert_eq!(composed.diseqs, [(Var::new("P_1"), Var::new("B"))]);
        // nothing collides: the query is used as it is
        let apart = parse_query("ans = SELECT X WHERE <people> X:<professor/> </>").unwrap();
        assert!(matches!(rename_apart(&v, &apart), Cow::Borrowed(_)));
    }

    /// The view also uses `P`: the collision composes, and the composed
    /// query answers exactly what evaluating the user query over the
    /// materialized view does.
    #[test]
    fn variable_collisions_compose_and_answer_as_materialization() {
        use mix_xmas::{evaluate, normalize};
        use mix_xml::{parse_document, write_document, WriteConfig};
        let source = mix_dtd::paper::d1_department();
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>a</title><author>x</author><journal/></publication>\
                 <teaches/></professor>\
               <professor><firstName>V</firstName><lastName>W</lastName>\
                 <publication><title>c</title><author>x</author><journal/></publication>\
               </professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>d</title><author>x</author><journal/></publication>\
               </gradStudent></department>",
        )
        .unwrap();
        let view = normalize(&view(), &source).unwrap();
        let user = parse_query(
            "ans = SELECT P WHERE <withJournals> P:<professor> <teaches/> </professor> </>",
        )
        .unwrap();
        let composed = query(compose(name("withJournals"), &view, &user));
        let materialized = evaluate(&view, &doc);
        let view_dtd = mix_infer::infer_view_dtd(&view, &source).unwrap().dtd;
        let render = |d| write_document(d, WriteConfig::default());
        let expected = evaluate(&normalize(&user, &view_dtd).unwrap(), &materialized);
        assert_eq!(expected.root.children().len(), 1);
        assert_eq!(
            render(&evaluate(&normalize(&composed, &source).unwrap(), &doc)),
            render(&expected)
        );
    }

    #[test]
    fn diseqs_are_carried_over() {
        // a view without publication conditions, so the user's publication
        // pair merges cleanly
        let v = parse_query(
            "people = SELECT P WHERE <department> <name>CS</name> \
               P:<professor | gradStudent> <firstName/> </> </>",
        )
        .unwrap();
        let user = parse_query(
            "ans = SELECT X WHERE <people> X:<professor> \
               <publication id=A/> <publication id=B/> </professor> </> AND A != B",
        )
        .unwrap();
        let composed = query(compose(name("people"), &v, &user));
        assert_eq!(composed.diseqs.len(), 1);
    }

    /// `user` evaluated over the view `view` materialized from `doc`, and
    /// the composition of the two evaluated over `doc` itself, rendered.
    fn both_ways(view: &str, user: &str) -> (String, String) {
        use mix_xmas::{evaluate, normalize};
        use mix_xml::{parse_document, write_document, WriteConfig};
        let source = mix_dtd::parse_compact("{<r : a*> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><a>x</a><a>y</a><a>z</a></r>").unwrap();
        let (view, user) = (parse_query(view).unwrap(), parse_query(user).unwrap());
        let view = normalize(&view, &source).unwrap();
        let view_dtd = mix_infer::infer_view_dtd(&view, &source).unwrap().dtd;
        let materialized = evaluate(&view, &doc);
        let composed = query(compose(view.view_name, &view, &user));
        mix_xmas::well_formed(&composed).unwrap_or_else(|e| panic!("{e} in\n{composed}"));
        let render = |d| write_document(d, WriteConfig::default());
        (
            render(&evaluate(
                &normalize(&user, &view_dtd).unwrap(),
                &materialized,
            )),
            render(&evaluate(&normalize(&composed, &source).unwrap(), &doc)),
        )
    }

    /// The merged pick node drops the view's pick variable (the user's
    /// binds the same element) and the user's ID variable (the view's
    /// binds the same element): their `!=` pairs name the kept ones.
    #[test]
    fn pairs_on_a_dropped_variable_name_the_kept_one() {
        let v = parse_query("u = SELECT X WHERE <r> X:<a/> Y:<a/> </r> AND X != Y").unwrap();
        let user = parse_query("ans = SELECT Z WHERE <u> Z:<a/> </u>").unwrap();
        let composed = query(compose(name("u"), &v, &user));
        assert_eq!(composed.diseqs, [(Var::new("Z"), Var::new("Y"))]);
        let (materialized, composed) = both_ways(
            "u = SELECT X WHERE <r> X:<a/> Y:<a/> </r> AND X != Y",
            "ans = SELECT Z WHERE <u> Z:<a/> </u>",
        );
        assert_eq!(composed, materialized);
        assert!(materialized.contains('z'), "{materialized}");
        // `Z != A` relates one element with itself on both sides, so both
        // answers are empty
        let (materialized, composed) = both_ways(
            "u = SELECT X WHERE <r> X:<a id=I/> Y:<a id=J/> </r> AND I != J",
            "ans = SELECT Z WHERE <u> Z:<a id=A/> </u> AND Z != A",
        );
        assert_eq!(composed, materialized);
        assert!(!materialized.contains('x'), "{materialized}");
    }

    /// A pair with one side on the user's root always holds and is left
    /// out; a pair with both sides on it never holds, and is left to
    /// materialization.
    #[test]
    fn pairs_on_the_user_root() {
        let (materialized, composed) = both_ways(
            "u = SELECT X WHERE <r> X:<a/> </r>",
            "ans = SELECT X WHERE W:<u> X:<a/> </u> AND W != X",
        );
        assert_eq!(composed, materialized);
        assert!(materialized.contains('x'), "{materialized}");
        let v = parse_query("u = SELECT X WHERE <r> X:<a/> </r>").unwrap();
        let user = parse_query("ans = SELECT X WHERE W:<u id=V> X:<a/> </u> AND W != V").unwrap();
        assert!(compose(name("u"), &v, &user).is_none());
    }
}
