//! Static analyses of DTDs: productivity, reachability, and usability.
//!
//! * A name is **productive** when it derives at least one *finite*
//!   document (a recursive name with no base case derives none).
//! * A name is **usable** when it actually occurs in some valid document
//!   of the DTD: it must be productive and reachable from the document
//!   type through contexts whose mandatory siblings are productive too.
//!
//! These analyses restrict the per-type language-inclusion checks so that
//! [`crate::compare::tighter_than`] is exact (DESIGN.md system #9).

use crate::model::{ContentModel, Dtd};
use mix_relang::ast::Regex;
use mix_relang::symbol::Name;
use std::collections::HashSet;

/// Does `L(r)` contain a word using only names in `allowed`?
pub(crate) fn has_word_over(r: &Regex, allowed: &HashSet<Name>) -> bool {
    match r {
        Regex::Empty => false,
        Regex::Epsilon => true,
        Regex::Sym(s) => allowed.contains(&s.name),
        Regex::Concat(v) => v.iter().all(|x| has_word_over(x, allowed)),
        Regex::Alt(v) => v.iter().any(|x| has_word_over(x, allowed)),
        Regex::Star(_) | Regex::Opt(_) => true,
        Regex::Plus(x) => has_word_over(x, allowed),
    }
}

/// Does `L(r)` contain a word over `allowed ∪ {n}` that *mentions* `n`?
pub(crate) fn can_occur(r: &Regex, n: Name, allowed: &HashSet<Name>) -> bool {
    match r {
        Regex::Empty | Regex::Epsilon => false,
        Regex::Sym(s) => s.name == n,
        Regex::Concat(v) => v.iter().enumerate().any(|(i, x)| {
            can_occur(x, n, allowed)
                && v.iter()
                    .enumerate()
                    .all(|(j, y)| j == i || has_word_over(y, allowed))
        }),
        Regex::Alt(v) => v.iter().any(|x| can_occur(x, n, allowed)),
        Regex::Star(x) | Regex::Opt(x) | Regex::Plus(x) => can_occur(x, n, allowed),
    }
}

/// The set of productive names: those deriving at least one finite document.
pub fn productive(d: &Dtd) -> HashSet<Name> {
    let mut prod: HashSet<Name> = HashSet::new();
    loop {
        let mut changed = false;
        for (n, m) in d.types.iter() {
            if prod.contains(&n) {
                continue;
            }
            let ok = match m {
                ContentModel::Pcdata => true,
                ContentModel::Elements(r) => has_word_over(r, &prod),
            };
            if ok {
                prod.insert(n);
                changed = true;
            }
        }
        if !changed {
            return prod;
        }
    }
}

/// The set of usable names: those occurring in at least one valid finite
/// document of `d`.
pub fn usable(d: &Dtd) -> HashSet<Name> {
    let prod = productive(d);
    let mut out: HashSet<Name> = HashSet::new();
    if !prod.contains(&d.doc_type) {
        return out; // the DTD describes no documents at all
    }
    out.insert(d.doc_type);
    let mut frontier = vec![d.doc_type];
    while let Some(n) = frontier.pop() {
        if let Some(ContentModel::Elements(r)) = d.get(n) {
            for child in r.names() {
                if !out.contains(&child) && prod.contains(&child) && can_occur(r, child, &prod) {
                    out.insert(child);
                    frontier.push(child);
                }
            }
        }
    }
    out
}

/// Does the DTD describe at least one document?
pub fn describes_some_document(d: &Dtd) -> bool {
    productive(d).contains(&d.doc_type)
}

/// Names whose content models are *not* 1-unambiguous — i.e. would be
/// rejected by an XML 1.0 validator's determinism rule. Inferred view
/// DTDs can trip this right after merging; the simplifier usually
/// restores determinism (see `mix_relang::determinism`).
pub fn nondeterministic_names(d: &Dtd) -> Vec<Name> {
    d.types
        .iter()
        .filter_map(|(n, m)| match m {
            ContentModel::Elements(r) if !mix_relang::is_deterministic(r) => Some(n),
            _ => None,
        })
        .collect()
}

/// Restricts a content model to the given alphabet: occurrences of other
/// names become `∅` and are normalized away. `L(restrict(r, S)) =
/// L(r) ∩ S*`, which is exactly the set of child sequences realizable when
/// only `S` names can appear in a document.
pub fn restrict(r: &Regex, allowed: &HashSet<Name>) -> Regex {
    r.map_syms(&mut |s| {
        if allowed.contains(&s.name) {
            Regex::Sym(s)
        } else {
            Regex::Empty
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_compact;
    use mix_relang::symbol::name;

    fn names(set: &HashSet<Name>) -> Vec<&'static str> {
        let mut v: Vec<&str> = set.iter().map(|n| n.as_str()).collect();
        v.sort();
        v
    }

    #[test]
    fn productive_with_base_case() {
        // section is recursive but has the empty repetition as base case.
        let d = crate::paper::section_recursive();
        let p = productive(&d);
        assert!(p.contains(&name("section")));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn unproductive_infinite_recursion() {
        // loop requires another loop forever: no finite document.
        let d = parse_compact("{<r : loop?> <loop : loop>}").unwrap();
        let p = productive(&d);
        assert!(!p.contains(&name("loop")));
        assert!(p.contains(&name("r")));
        assert!(describes_some_document(&d));
    }

    #[test]
    fn unproductive_root_means_no_documents() {
        let d = parse_compact("{<r : r>}").unwrap();
        assert!(!describes_some_document(&d));
        assert!(usable(&d).is_empty());
    }

    #[test]
    fn usable_excludes_unreachable() {
        let d = parse_compact("{<r : a> <a : PCDATA> <island : PCDATA>}").unwrap();
        assert_eq!(names(&usable(&d)), ["a", "r"]);
    }

    #[test]
    fn usable_excludes_names_blocked_by_unproductive_sibling() {
        // b can only appear next to a mandatory unproductive u, so b is
        // never part of a finite document.
        let d = parse_compact("{<r : (u, b)?> <u : u> <b : PCDATA>}").unwrap();
        assert_eq!(names(&usable(&d)), ["r"]);
    }

    #[test]
    fn usable_via_alternative_branch() {
        let d = parse_compact("{<r : (u, b) | c> <u : u> <b : PCDATA> <c : PCDATA>}").unwrap();
        assert_eq!(names(&usable(&d)), ["c", "r"]);
    }

    #[test]
    fn paper_d1_everything_usable() {
        let d = crate::paper::d1_department();
        let u = usable(&d);
        assert_eq!(u.len(), d.types.len());
    }

    #[test]
    fn restrict_drops_letters() {
        let r = mix_relang::parse_regex("a, (b | c)*, d?").unwrap();
        let allowed: HashSet<Name> = [name("a"), name("b")].into_iter().collect();
        let out = restrict(&r, &allowed);
        assert_eq!(out.to_string(), "a, b*");
        // restricting away a mandatory letter empties the language
        let allowed: HashSet<Name> = [name("b")].into_iter().collect();
        assert!(restrict(&r, &allowed).is_empty_lang());
    }
}
