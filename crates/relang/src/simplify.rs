//! Language-preserving regex simplification.
//!
//! The Merge algorithm (Section 4.3) produces verbose unions such as
//!
//! ```text
//! (publication*, publication, publication*, publication, publication*)
//!   | (publication*, publication, publication*, publication, publication*)
//! ```
//!
//! which the paper notes "can be simplified to the DTD (D2)". This module
//! implements that simplification step as a terminating rewrite system:
//!
//! 1. smart-constructor normalization (flattening, unit/zero laws,
//!    `r|ε → r?`, `(r+)? → r*`, …),
//! 2. *counted-factor collapse*: maximal runs of concatenation factors that
//!    share a base `b` (`b`, `b*`, `b+`, `b?`) are replaced by the minimal
//!    `{min,max}` rendering (`b, b, b*` for "at least two", …),
//! 3. common prefix/suffix factoring of unions (`(a,b) | (a,c) → a, (b|c)`),
//! 4. union-branch subsumption via exact language inclusion (bounded by
//!    regex size so pathological inputs stay cheap).
//!
//! Every rule preserves the language; `simplify` additionally
//! `debug_assert!`s equivalence with the input. The rules run over pool
//! ids ([`crate::pool`]): structural equality is id equality and size
//! and nullability are cached attributes. The same rules over boxed
//! [`Regex`] values survive in the unit tests as the reference the id
//! rewrite is checked against node for node.

use crate::ast::Regex;
use crate::ops::{equivalent, is_subset_id};
use crate::pool::{self, ReId, ReNode};

/// Size bound above which the (automata-based) subsumption rule is skipped.
const SUBSUMPTION_SIZE_LIMIT: usize = 512;
/// Fixpoint iteration cap; rewriting is strictly size-reducing in practice
/// but we bound it defensively.
const MAX_PASSES: usize = 16;

/// The `(min, max)` occurrence count of a factor run; `None` = unbounded.
#[derive(Clone, Copy)]
struct Count {
    min: u32,
    max: Option<u32>,
}

/// The base and count of a single concat factor.
fn factor_base_id(r: ReId) -> (ReId, Count) {
    match pool::node(r) {
        ReNode::Star(b) => (b, Count { min: 0, max: None }),
        ReNode::Plus(b) => (b, Count { min: 1, max: None }),
        ReNode::Opt(b) => (
            b,
            Count {
                min: 0,
                max: Some(1),
            },
        ),
        _ => (
            r,
            Count {
                min: 1,
                max: Some(1),
            },
        ),
    }
}

fn render_counted_id(base: ReId, c: Count) -> ReId {
    let mut parts: Vec<ReId> = Vec::new();
    for _ in 0..c.min {
        parts.push(base);
    }
    match c.max {
        None => {
            if c.min == 0 {
                parts.push(pool::star_id(base));
            } else {
                parts.pop();
                parts.push(pool::plus_id(base));
            }
        }
        Some(max) => {
            for _ in c.min..max {
                parts.push(pool::opt_id(base));
            }
        }
    }
    pool::concat_ids(parts)
}

fn collapse_concat_id(parts: &[ReId]) -> ReId {
    let mut out: Vec<ReId> = Vec::new();
    let mut run: Option<(ReId, Count)> = None;
    let flush = |run: &mut Option<(ReId, Count)>, out: &mut Vec<ReId>| {
        if let Some((base, c)) = run.take() {
            out.push(render_counted_id(base, c));
        }
    };
    for &p in parts {
        let (base, c) = factor_base_id(p);
        match &mut run {
            Some((rb, rc)) if *rb == base => {
                rc.min += c.min;
                rc.max = match (rc.max, c.max) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
            }
            _ => {
                flush(&mut run, &mut out);
                run = Some((base, c));
            }
        }
    }
    flush(&mut run, &mut out);
    pool::concat_ids(out)
}

fn as_factors_id(r: ReId) -> Vec<ReId> {
    match pool::node(r) {
        ReNode::Concat(v) => v.to_vec(),
        ReNode::Epsilon => vec![],
        _ => vec![r],
    }
}

fn factor_union_id(branches: &[ReId]) -> Option<ReId> {
    if branches.len() < 2 {
        return None;
    }
    let factored: Vec<Vec<ReId>> = branches.iter().map(|&b| as_factors_id(b)).collect();
    let min_len = factored.iter().map(Vec::len).min().unwrap_or(0);
    let mut prefix = 0;
    while prefix < min_len && factored.iter().all(|f| f[prefix] == factored[0][prefix]) {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < min_len - prefix
        && factored
            .iter()
            .all(|f| f[f.len() - 1 - suffix] == factored[0][factored[0].len() - 1 - suffix])
    {
        suffix += 1;
    }
    if prefix == 0 && suffix == 0 {
        return None;
    }
    let head = pool::concat_ids(factored[0][..prefix].to_vec());
    let tail = pool::concat_ids(factored[0][factored[0].len() - suffix..].to_vec());
    let middle = pool::alt_ids(
        factored
            .iter()
            .map(|f| pool::concat_ids(f[prefix..f.len() - suffix].to_vec()))
            .collect::<Vec<_>>(),
    );
    Some(pool::concat_ids([head, middle, tail]))
}

fn subsume_union_id(branches: Vec<ReId>) -> Vec<ReId> {
    let total: usize = branches.iter().map(|&b| pool::size(b)).sum();
    if total > SUBSUMPTION_SIZE_LIMIT {
        return branches;
    }
    let mut keep: Vec<ReId> = Vec::new();
    'outer: for (i, &b) in branches.iter().enumerate() {
        for (j, &other) in branches.iter().enumerate() {
            if i == j {
                continue;
            }
            if is_subset_id(b, other) && (!is_subset_id(other, b) || j < i) {
                continue 'outer;
            }
        }
        keep.push(b);
    }
    if keep.is_empty() {
        branches
    } else {
        keep
    }
}

fn pass_id(r: ReId) -> ReId {
    match pool::node(r) {
        ReNode::Empty | ReNode::Epsilon | ReNode::Sym(_) => r,
        ReNode::Concat(v) => {
            let parts: Vec<ReId> = v.iter().map(|&x| pass_id(x)).collect();
            let c = pool::concat_ids(parts);
            match pool::node(c) {
                ReNode::Concat(parts) => collapse_concat_id(&parts),
                _ => c,
            }
        }
        ReNode::Alt(v) => {
            let parts: Vec<ReId> = v.iter().map(|&x| pass_id(x)).collect();
            let a = pool::alt_ids(parts);
            match pool::node(a) {
                ReNode::Alt(parts) => {
                    let parts = subsume_union_id(parts.to_vec());
                    if let Some(f) = factor_union_id(&parts) {
                        return f;
                    }
                    pool::alt_ids(parts)
                }
                _ => a,
            }
        }
        ReNode::Star(x) => pool::star_id(pass_id(x)),
        ReNode::Plus(x) => pool::plus_id(pass_id(x)),
        ReNode::Opt(x) => {
            let inner = pass_id(x);
            if pool::nullable(inner) {
                inner
            } else {
                pool::opt_id(inner)
            }
        }
    }
}

/// Simplifies a pool id; the fixpoint test is a single integer compare.
pub fn simplify_id(r: ReId) -> ReId {
    let mut cur = r;
    for _ in 0..MAX_PASSES {
        let next = pass_id(cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

/// Simplifies `r` to a language-equivalent, usually smaller regex.
pub fn simplify(r: &Regex) -> Regex {
    let cur = pool::to_regex(simplify_id(pool::intern(r)));
    debug_assert!(
        equivalent(r, &cur),
        "simplify changed the language of {r} into {cur}"
    );
    cur
}

/// The reference rewrite system over boxed regexes, rule for rule the
/// twin of the id functions above: `to_regex(pass_id(intern(r)))` must
/// equal `pass(r)` byte for byte.
#[cfg(test)]
mod boxed {
    use super::{Count, Regex, SUBSUMPTION_SIZE_LIMIT};
    use crate::ops::is_subset;

    /// The base and count of a single concat factor.
    fn factor_base(r: &Regex) -> (&Regex, Count) {
        match r {
            Regex::Star(b) => (b, Count { min: 0, max: None }),
            Regex::Plus(b) => (b, Count { min: 1, max: None }),
            Regex::Opt(b) => (
                b,
                Count {
                    min: 0,
                    max: Some(1),
                },
            ),
            other => (
                other,
                Count {
                    min: 1,
                    max: Some(1),
                },
            ),
        }
    }

    fn render_counted(base: &Regex, c: Count) -> Regex {
        let mut parts: Vec<Regex> = Vec::new();
        for _ in 0..c.min {
            parts.push(base.clone());
        }
        match c.max {
            None => {
                if c.min == 0 {
                    parts.push(Regex::star(base.clone()));
                } else {
                    // render the last mandatory copy as b+ for compactness
                    parts.pop();
                    parts.push(Regex::plus(base.clone()));
                }
            }
            Some(max) => {
                for _ in c.min..max {
                    parts.push(Regex::opt(base.clone()));
                }
            }
        }
        Regex::concat(parts)
    }

    /// Collapses runs of same-base factors inside a (already simplified) concat.
    fn collapse_concat(parts: Vec<Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        let mut run: Option<(Regex, Count)> = None;
        let flush = |run: &mut Option<(Regex, Count)>, out: &mut Vec<Regex>| {
            if let Some((base, c)) = run.take() {
                out.push(render_counted(&base, c));
            }
        };
        for p in parts {
            let (base, c) = factor_base(&p);
            match &mut run {
                Some((rb, rc)) if rb == base => {
                    rc.min += c.min;
                    rc.max = match (rc.max, c.max) {
                        (Some(a), Some(b)) => Some(a + b),
                        _ => None,
                    };
                }
                _ => {
                    flush(&mut run, &mut out);
                    run = Some((base.clone(), c));
                }
            }
        }
        flush(&mut run, &mut out);
        Regex::concat(out)
    }

    fn as_factors(r: &Regex) -> Vec<Regex> {
        match r {
            Regex::Concat(v) => v.clone(),
            Regex::Epsilon => vec![],
            other => vec![other.clone()],
        }
    }

    /// Factors the longest common prefix and suffix out of a union's branches
    /// when *all* branches share them. `(a,b)|(a,c) → a,(b|c)`.
    fn factor_union(branches: &[Regex]) -> Option<Regex> {
        if branches.len() < 2 {
            return None;
        }
        let factored: Vec<Vec<Regex>> = branches.iter().map(as_factors).collect();
        let min_len = factored.iter().map(Vec::len).min().unwrap_or(0);
        let mut prefix = 0;
        while prefix < min_len && factored.iter().all(|f| f[prefix] == factored[0][prefix]) {
            prefix += 1;
        }
        let mut suffix = 0;
        while suffix < min_len - prefix
            && factored
                .iter()
                .all(|f| f[f.len() - 1 - suffix] == factored[0][factored[0].len() - 1 - suffix])
        {
            suffix += 1;
        }
        if prefix == 0 && suffix == 0 {
            return None;
        }
        let head = Regex::concat(factored[0][..prefix].iter().cloned());
        let tail = Regex::concat(factored[0][factored[0].len() - suffix..].iter().cloned());
        let middle = Regex::alt(
            factored
                .iter()
                .map(|f| Regex::concat(f[prefix..f.len() - suffix].iter().cloned())),
        );
        Some(Regex::concat([head, middle, tail]))
    }

    /// Drops union branches whose language is included in another branch.
    fn subsume_union(branches: Vec<Regex>) -> Vec<Regex> {
        let total: usize = branches.iter().map(Regex::size).sum();
        if total > SUBSUMPTION_SIZE_LIMIT {
            return branches;
        }
        let mut keep: Vec<Regex> = Vec::new();
        'outer: for (i, b) in branches.iter().enumerate() {
            for (j, other) in branches.iter().enumerate() {
                if i == j {
                    continue;
                }
                // Drop b if it is included in a *different* branch; ties (equal
                // languages) are broken by index so exactly one survives.
                if is_subset(b, other) && (!is_subset(other, b) || j < i) {
                    continue 'outer;
                }
            }
            keep.push(b.clone());
        }
        if keep.is_empty() {
            branches
        } else {
            keep
        }
    }

    pub(super) fn pass(r: &Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => r.clone(),
            Regex::Concat(v) => {
                let parts: Vec<Regex> = v.iter().map(pass).collect();
                match Regex::concat(parts) {
                    Regex::Concat(parts) => collapse_concat(parts),
                    other => other,
                }
            }
            Regex::Alt(v) => {
                let parts: Vec<Regex> = v.iter().map(pass).collect();
                match Regex::alt(parts) {
                    Regex::Alt(parts) => {
                        let parts = subsume_union(parts);
                        if let Some(f) = factor_union(&parts) {
                            return f;
                        }
                        Regex::alt(parts)
                    }
                    other => other,
                }
            }
            Regex::Star(x) => Regex::star(pass(x)),
            Regex::Plus(x) => Regex::plus(pass(x)),
            Regex::Opt(x) => {
                let inner = pass(x);
                // (r)? where r is nullable is just r.
                if inner.nullable() {
                    inner
                } else {
                    Regex::opt(inner)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;

    fn s(src: &str) -> String {
        simplify(&parse_regex(src).unwrap()).to_string()
    }

    #[test]
    fn counted_collapse() {
        assert_eq!(s("p*, p, p*"), "p+");
        assert_eq!(s("p*, p, p*, p, p*"), "p, p+");
        assert_eq!(s("p?, p?"), "p?, p?"); // {0,2} has no shorter rendering
        assert_eq!(s("p, p*"), "p+");
        assert_eq!(s("p*, p*"), "p*");
        assert_eq!(s("p+, p+"), "p, p+");
        assert_eq!(s("p+, p*"), "p+");
    }

    #[test]
    fn paper_merge_output_simplifies_to_d2_type() {
        // Example 4.3: the merged professor type collapses to "≥2 publications".
        let merged = "(publication*, publication, publication*, publication, publication*) \
                      | (publication*, publication, publication*, publication, publication*)";
        assert_eq!(s(merged), "publication, publication+");
    }

    #[test]
    fn union_subsumption() {
        assert_eq!(s("a | a*"), "a*");
        assert_eq!(s("a, b | a, b"), "a, b");
        assert_eq!(s("(a | b) | a"), "a | b");
        assert_eq!(s("a+ | a*"), "a*");
    }

    #[test]
    fn union_factoring() {
        assert_eq!(s("(a, b) | (a, c)"), "a, (b | c)");
        assert_eq!(s("(x, a, y) | (x, b, y)"), "x, (a | b), y");
        assert_eq!(s("(a, b) | a"), "a, b?");
    }

    #[test]
    fn opt_of_nullable() {
        assert_eq!(s("(a*)?"), "a*");
        assert_eq!(s("(a?, b?)?"), "a?, b?");
    }

    #[test]
    fn preserves_language_on_paper_types() {
        for src in [
            "name, (journal | conference)*",
            "title, author+, (journal | conference)",
            "firstName, lastName, publication*, publication^1, publication*, teaches",
            "(name, professor+, gradStudent+, course*)?",
            "(a | b)*, (a, b)+ | c?",
        ] {
            let r = parse_regex(src).unwrap();
            let simp = simplify(&r);
            assert!(equivalent(&r, &simp), "language changed: {src} vs {simp}");
            assert!(simp.size() <= r.size(), "simplify grew {src} to {simp}");
        }
    }

    #[test]
    fn interned_pass_is_byte_identical_to_boxed() {
        for src in [
            "p*, p, p*",
            "p*, p, p*, p, p*",
            "(a, b) | (a, c)",
            "(x, a, y) | (x, b, y)",
            "(a, b) | a",
            "a | a*",
            "a+ | a*",
            "(a*)?",
            "(a?, b?)?",
            "name, (journal | conference)*",
            "firstName, lastName, publication*, publication^1, publication*, teaches",
            "(publication*, publication, publication*, publication, publication*) \
             | (publication*, publication, publication*, publication, publication*)",
        ] {
            let r = parse_regex(src).unwrap();
            let boxed = boxed::pass(&r);
            let interned = crate::pool::to_regex(pass_id(crate::pool::intern(&r)));
            assert_eq!(interned, boxed, "pass mismatch on {src}");
            assert_eq!(
                crate::pool::to_regex(simplify_id(crate::pool::intern(&r))),
                simplify(&r),
                "simplify mismatch on {src}"
            );
        }
    }

    #[test]
    fn idempotent() {
        for src in ["p*, p, p*", "(a, b) | (a, c)", "a | a*", "(a?)+"] {
            let once = simplify(&parse_regex(src).unwrap());
            let twice = simplify(&once);
            assert_eq!(once, twice);
        }
    }
}
