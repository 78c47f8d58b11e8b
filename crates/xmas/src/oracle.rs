//! The enumerating evaluator this crate used before [`crate::eval`]
//! decided sibling groups by matching. It is compiled only for tests, as
//! the reference the matching evaluator is checked against: it lists
//! every injective assignment of sibling conditions to children, so its
//! time grows factorially with the width of a group, and callers keep
//! their groups narrow.

use crate::ast::{Body, Condition, Query, Var};
use mix_xml::{Document, ElemId, Element};
use std::collections::{HashMap, HashSet};

/// A (projected) binding of relevant variables to element IDs.
type Binding = Vec<(Var, ElemId)>;

/// The elements the pick variable binds to, in document order,
/// deduplicated, under an embedding whose `!=` pairs all hold.
pub(crate) fn pick_bindings<'d>(q: &Query, doc: &'d Document) -> Vec<&'d Element> {
    // Only the pick variable and variables mentioned in diseqs influence
    // the answer; project bindings onto them to keep the enumeration small.
    let mut relevant: HashSet<Var> = HashSet::new();
    relevant.insert(q.pick);
    for &(a, b) in &q.diseqs {
        relevant.insert(a);
        relevant.insert(b);
    }
    let matcher = Matcher {
        relevant,
        diseqs: &q.diseqs,
    };
    let embeddings = matcher.embeddings(&q.root, &doc.root);
    let mut picked: HashSet<ElemId> = HashSet::new();
    for b in embeddings {
        if matcher.diseqs_hold(&b) {
            if let Some(&(_, id)) = b.iter().find(|(v, _)| *v == q.pick) {
                picked.insert(id);
            }
        }
    }
    // document order
    let mut out = Vec::new();
    for e in doc.root.walk() {
        if picked.contains(&e.id) {
            out.push(e);
        }
    }
    out
}

struct Matcher<'q> {
    relevant: HashSet<Var>,
    diseqs: &'q [(Var, Var)],
}

impl Matcher<'_> {
    fn diseqs_hold(&self, b: &Binding) -> bool {
        let lookup: HashMap<Var, ElemId> = b.iter().copied().collect();
        self.diseqs
            .iter()
            .all(|&(x, y)| match (lookup.get(&x), lookup.get(&y)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            })
    }

    /// All (projected, deduplicated) bindings under which `e` satisfies the
    /// condition subtree `c`.
    fn embeddings(&self, c: &Condition, e: &Element) -> Vec<Binding> {
        if !c.test.matches(e.name) {
            return Vec::new();
        }
        let mut base: Binding = Vec::new();
        for v in [c.var, c.id_var].into_iter().flatten() {
            if self.relevant.contains(&v) {
                base.push((v, e.id));
            }
        }
        match &c.body {
            Body::Text(s) => {
                if e.pcdata() == Some(s.as_str()) {
                    vec![base]
                } else {
                    Vec::new()
                }
            }
            Body::Children(conds) => {
                if conds.is_empty() {
                    return vec![base];
                }
                // For each child condition, the per-child embedding lists.
                let children = e.children();
                let mut per_cond: Vec<Vec<(usize, Vec<Binding>)>> = Vec::new();
                for cond in conds {
                    let mut options = Vec::new();
                    for (i, child) in children.iter().enumerate() {
                        let embs = self.embeddings(cond, child);
                        if !embs.is_empty() {
                            options.push((i, embs));
                        }
                    }
                    if options.is_empty() {
                        return Vec::new(); // some condition is unsatisfiable here
                    }
                    per_cond.push(options);
                }
                // injective product over distinct children
                let mut out: HashSet<Binding> = HashSet::new();
                let mut used: HashSet<usize> = HashSet::new();
                let mut acc = base.clone();
                self.product(&per_cond, 0, &mut used, &mut acc, &mut out);
                out.into_iter().collect()
            }
        }
    }

    fn product(
        &self,
        per_cond: &[Vec<(usize, Vec<Binding>)>],
        k: usize,
        used: &mut HashSet<usize>,
        acc: &mut Binding,
        out: &mut HashSet<Binding>,
    ) {
        if k == per_cond.len() {
            let mut b = acc.clone();
            b.sort();
            b.dedup();
            out.insert(b);
            return;
        }
        for (child_idx, embs) in &per_cond[k] {
            if used.contains(child_idx) {
                continue;
            }
            used.insert(*child_idx);
            for emb in embs {
                let len = acc.len();
                acc.extend(emb.iter().copied());
                self.product(per_cond, k + 1, used, acc, out);
                acc.truncate(len);
            }
            used.remove(child_idx);
        }
    }
}
