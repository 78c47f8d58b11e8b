//! Brzozowski derivatives — a second, independent decision procedure for
//! content-model languages.
//!
//! The Glushkov automata of [`crate::nfa`] are the workhorse; derivatives
//! provide (a) an online matcher that needs no automaton construction
//! (useful for one-shot validation of small content), and (b) an
//! implementation-independent cross-check: the property suites verify
//! both matchers agree on random regexes, which guards the soundness of
//! every tightness decision made downstream.

use crate::ast::Regex;
use crate::pool::{self, ReId, ReNode};
use crate::symbol::Sym;

/// The Brzozowski derivative `∂_s r`: a regex for `{ w | s·w ∈ L(r) }`.
pub fn derivative(r: &Regex, s: Sym) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Sym(x) => {
            if *x == s {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(v) => {
            // ∂(r1 r2…) = ∂(r1) r2… | [nullable r1] ∂(r2…)
            let first = &v[0];
            let rest = Regex::concat(v[1..].iter().cloned());
            let left = Regex::concat([derivative(first, s), rest.clone()]);
            if first.nullable() {
                Regex::alt([left, derivative(&rest, s)])
            } else {
                left
            }
        }
        Regex::Alt(v) => Regex::alt(v.iter().map(|x| derivative(x, s))),
        Regex::Star(g) => Regex::concat([derivative(g, s), Regex::star((**g).clone())]),
        Regex::Plus(g) => {
            // r+ = r r*
            Regex::concat([derivative(g, s), Regex::star((**g).clone())])
        }
        Regex::Opt(g) => derivative(g, s),
    }
}

/// The Brzozowski derivative over pool ids, guarded by the cached
/// first-set: when `s` cannot start any word of `L(r)` the whole
/// recursion is skipped and `Empty` returned directly — sound because the
/// structural first-set always over-approximates the language first-set.
/// Subterms shared through the pool are derived by the same mirror smart
/// constructors as the boxed twin.
pub fn derivative_id(r: ReId, s: Sym) -> ReId {
    if !pool::first_set(r).contains(&s) {
        return ReId::EMPTY;
    }
    match pool::node(r) {
        ReNode::Empty | ReNode::Epsilon => ReId::EMPTY,
        ReNode::Sym(x) => {
            if x == s {
                ReId::EPSILON
            } else {
                ReId::EMPTY
            }
        }
        ReNode::Concat(v) => {
            // ∂(r1 r2…) = ∂(r1) r2… | [nullable r1] ∂(r2…)
            let first = v[0];
            let rest = pool::concat_ids(v[1..].to_vec());
            let left = pool::concat_ids([derivative_id(first, s), rest]);
            if pool::nullable(first) {
                pool::alt_ids([left, derivative_id(rest, s)])
            } else {
                left
            }
        }
        ReNode::Alt(v) => pool::alt_ids(v.iter().map(|&x| derivative_id(x, s)).collect::<Vec<_>>()),
        ReNode::Star(g) | ReNode::Plus(g) => {
            // ∂(r*) = ∂(r) r* ; r+ = r r*
            pool::concat_ids([derivative_id(g, s), pool::star_id(g)])
        }
        ReNode::Opt(g) => derivative_id(g, s),
    }
}

/// Word membership via iterated derivatives over pool ids: emptiness
/// and nullability checks are cached id lookups.
pub fn matches_by_derivative(r: &Regex, word: &[Sym]) -> bool {
    let mut cur = pool::intern(r);
    for &s in word {
        if cur == ReId::EMPTY {
            return false;
        }
        cur = derivative_id(cur, s);
    }
    pool::nullable(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matches;
    use crate::parser::parse_regex;
    use crate::symbol::sym;

    fn w(names: &[&str]) -> Vec<Sym> {
        names.iter().map(|s| sym(s)).collect()
    }

    #[test]
    fn basic_derivatives() {
        let r = parse_regex("a, b").unwrap();
        let d = derivative(&r, sym("a"));
        assert!(matches_by_derivative(&d, &w(&["b"])));
        assert!(derivative(&r, sym("b")).is_empty_lang());
    }

    #[test]
    fn matches_agree_with_nfa_on_fixed_cases() {
        for (re, word, expect) in [
            ("a*", vec![], true),
            ("a*", vec!["a", "a"], true),
            ("a+", vec![], false),
            ("a?, b", vec!["b"], true),
            ("a?, b", vec!["a", "b"], true),
            ("(a | b)*, c", vec!["b", "a", "c"], true),
            ("(a | b)*, c", vec!["c", "a"], false),
            (
                "title, author+, (journal | conference)",
                vec!["title", "author", "journal"],
                true,
            ),
        ] {
            let r = parse_regex(re).unwrap();
            let word = w(&word);
            assert_eq!(matches_by_derivative(&r, &word), expect, "{re} on {word:?}");
            assert_eq!(matches(&r, &word), expect, "NFA disagrees on {re}");
        }
    }

    #[test]
    fn nullable_after_full_word() {
        let r = parse_regex("(a, b)+").unwrap();
        assert!(matches_by_derivative(&r, &w(&["a", "b", "a", "b"])));
        assert!(!matches_by_derivative(&r, &w(&["a", "b", "a"])));
    }

    #[test]
    fn tagged_syms_differ() {
        let r = parse_regex("j^1, j").unwrap();
        let j0 = sym("j");
        let j1 = crate::symbol::name("j").tagged(1);
        assert!(matches_by_derivative(&r, &[j1, j0]));
        assert!(!matches_by_derivative(&r, &[j0, j1]));
    }

    #[test]
    fn interned_derivative_mirrors_boxed() {
        for (re, by) in [
            ("a, b", "a"),
            ("a?, b", "b"),
            ("(a | b)*, c", "b"),
            ("(a, b)+", "a"),
            ("title, author+, (journal | conference)", "title"),
            ("a, b", "z"), // first-set guard path
        ] {
            let r = parse_regex(re).unwrap();
            let s = sym(by);
            let boxed = derivative(&r, s);
            let interned = crate::pool::to_regex(derivative_id(crate::pool::intern(&r), s));
            assert_eq!(interned, boxed, "∂_{by} {re}");
        }
    }

    #[test]
    fn derivative_of_empty_stays_empty() {
        assert!(derivative(&Regex::Empty, sym("a")).is_empty_lang());
        assert!(derivative(&Regex::Epsilon, sym("a")).is_empty_lang());
    }
}
