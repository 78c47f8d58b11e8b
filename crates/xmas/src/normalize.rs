//! Query normalization: the preprocessing stage of Sections 2.1 and 4.1.
//!
//! * **Wildcard expansion** — an element-name variable/wildcard that occurs
//!   nowhere else is replaced by the disjunction of all names of the source
//!   DTD ("for simplicity we replace each element name variable with a
//!   disjunction of all names in the source DTDs at a preprocessing
//!   stage").
//! * **Tag assignment** — every condition node receives a tag that is
//!   unique across the query (a strictly positive integer), so that the
//!   tightening algorithm can store each condition's refined type under
//!   `name^tag` without collisions, and so that two sibling conditions on
//!   the same name refine *different* tagged occurrences (Section 4.1,
//!   "Type Refinement When Conditions on Elements with the Same Name").
//! * **Well-formedness checks** — the pick variable is bound exactly once,
//!   `!=` constraints refer to declared id variables, and no variable is
//!   bound twice.

use crate::ast::{Body, Condition, NameTest, Query, Var};
use mix_dtd::Dtd;
use std::collections::HashSet;
use std::fmt;

/// A normalization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormalizeError {
    /// The SELECT variable is not bound by any condition.
    PickNotBound(Var),
    /// A variable is bound more than once.
    DuplicateVar(Var),
    /// A `!=` constraint mentions an unbound variable.
    UnknownDiseqVar(Var),
    /// A `!=` constraint relates a variable with itself.
    SelfDiseq(Var),
}

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeError::PickNotBound(v) => {
                write!(f, "pick variable {v} is not bound in the WHERE clause")
            }
            NormalizeError::DuplicateVar(v) => write!(f, "variable {v} is bound twice"),
            NormalizeError::UnknownDiseqVar(v) => {
                write!(f, "'!=' constraint mentions unbound variable {v}")
            }
            NormalizeError::SelfDiseq(v) => write!(f, "'{v} != {v}' is unsatisfiable"),
        }
    }
}

impl std::error::Error for NormalizeError {}

/// Normalizes `q` against the source DTD. Idempotent.
pub fn normalize(q: &Query, source: &Dtd) -> Result<Query, NormalizeError> {
    well_formed(q)?;
    // rewrite
    let all_names: Vec<_> = source.names();
    let mut next_tag = 1u32;
    let root = rewrite(&q.root, &all_names, &mut next_tag);
    Ok(Query {
        view_name: q.view_name,
        pick: q.pick,
        root,
        diseqs: q.diseqs.clone(),
    })
}

/// The well-formedness checks of [`normalize`], which do not depend on a
/// DTD: no variable is bound twice, the pick variable is bound, and every
/// `!=` pair relates two distinct bound variables.
pub fn well_formed(q: &Query) -> Result<(), NormalizeError> {
    let mut seen: HashSet<Var> = HashSet::new();
    for v in q.declared_vars() {
        if !seen.insert(v) {
            return Err(NormalizeError::DuplicateVar(v));
        }
    }
    if q.pick_path().is_none() {
        return Err(NormalizeError::PickNotBound(q.pick));
    }
    for &(a, b) in &q.diseqs {
        if a == b {
            return Err(NormalizeError::SelfDiseq(a));
        }
        for v in [a, b] {
            if !seen.contains(&v) {
                return Err(NormalizeError::UnknownDiseqVar(v));
            }
        }
    }
    Ok(())
}

fn rewrite(c: &Condition, all_names: &[mix_relang::Name], next_tag: &mut u32) -> Condition {
    let test = match &c.test {
        NameTest::Wildcard => NameTest::Names(all_names.to_vec()),
        t => t.clone(),
    };
    let tag = if c.tag != 0 {
        c.tag // already normalized: keep stable
    } else {
        let t = *next_tag;
        *next_tag += 1;
        t
    };
    let body = match &c.body {
        Body::Text(s) => Body::Text(s.clone()),
        Body::Children(v) => {
            Body::Children(v.iter().map(|x| rewrite(x, all_names, next_tag)).collect())
        }
    };
    Condition {
        test,
        var: c.var,
        id_var: c.id_var,
        tag,
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use mix_dtd::paper::d1_department;

    #[test]
    fn tags_are_unique_and_positive() {
        let q = parse_query(
            "v = SELECT P WHERE <department> P:<professor> \
               <publication id=A/> <publication id=B/> </professor> </department> \
             AND A != B",
        )
        .unwrap();
        let n = normalize(&q, &d1_department()).unwrap();
        let tags: Vec<u32> = n.root.walk().iter().map(|c| c.tag).collect();
        assert!(tags.iter().all(|&t| t > 0));
        let unique: HashSet<u32> = tags.iter().copied().collect();
        assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn wildcard_expands_to_all_dtd_names() {
        let q = parse_query("v = SELECT X WHERE <department> X:<*/> </department>").unwrap();
        let d = d1_department();
        let n = normalize(&q, &d).unwrap();
        let pick = n.pick_node().unwrap();
        assert_eq!(pick.test.names().len(), d.types.len());
    }

    #[test]
    fn idempotent() {
        let q =
            parse_query("v = SELECT X WHERE <department> X:<professor/> </department>").unwrap();
        let d = d1_department();
        let once = normalize(&q, &d).unwrap();
        let twice = normalize(&once, &d).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn pick_must_be_bound() {
        let q = parse_query("v = SELECT X WHERE <department/>").unwrap();
        assert!(matches!(
            normalize(&q, &d1_department()),
            Err(NormalizeError::PickNotBound(_))
        ));
    }

    #[test]
    fn duplicate_vars_rejected() {
        let q = parse_query("v = SELECT X WHERE <a> X:<b/> X:<c/> </a>").unwrap();
        assert!(matches!(
            normalize(&q, &d1_department()),
            Err(NormalizeError::DuplicateVar(_))
        ));
    }

    #[test]
    fn diseq_checks() {
        let q = parse_query("v = SELECT X WHERE X:<a> <b id=B/> </a> AND B != C").unwrap();
        assert!(matches!(
            normalize(&q, &d1_department()),
            Err(NormalizeError::UnknownDiseqVar(_))
        ));
        let q = parse_query("v = SELECT X WHERE X:<a> <b id=B/> </a> AND B != B").unwrap();
        assert!(matches!(
            normalize(&q, &d1_department()),
            Err(NormalizeError::SelfDiseq(_))
        ));
    }
}
