//! Language-level operations on regexes: membership, emptiness, inclusion,
//! equivalence, and counting. These are the decision procedures behind the
//! paper's tightness notions (Definitions 3.2–3.4).

use crate::ast::Regex;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::pool::{self, ReId};
use crate::symbol::Sym;

/// Does `word ∈ L(r)`?
pub fn matches(r: &Regex, word: &[Sym]) -> bool {
    Nfa::from_regex(r).accepts(word)
}

/// Is `L(r)` empty?
///
/// Thanks to smart-constructor normalization this is structural, but we keep
/// a defensive automaton fallback for regexes built by other means.
pub fn language_is_empty(r: &Regex) -> bool {
    if r.is_empty_lang() {
        return true;
    }
    Dfa::from_regex(r).language_is_empty()
}

/// The sorted union of the symbols of `a` and `b` — the alphabet both
/// automata must share for product constructions to be meaningful.
pub fn shared_alphabet(a: &Regex, b: &Regex) -> Vec<Sym> {
    let mut alpha: Vec<Sym> = a.syms().into_iter().collect();
    for s in b.syms() {
        if !alpha.contains(&s) {
            alpha.push(s);
        }
    }
    alpha.sort();
    alpha
}

/// Is `L(a) ⊆ L(b)` — i.e. is the type `a` *tighter than* the type `b`
/// (Definition 3.3)?
///
/// ```
/// use mix_relang::{parse_regex, is_subset};
/// let refined = parse_regex("p, p, p*").unwrap();
/// let original = parse_regex("p+").unwrap();
/// assert!(is_subset(&refined, &original));
/// assert!(!is_subset(&original, &refined));
/// ```
pub fn is_subset(a: &Regex, b: &Regex) -> bool {
    crate::memo::memoized_subset(a, b)
}

/// Is `L(a) ⊆ L(b)`, computed directly without touching the process-wide
/// memo tables. The property tests use this as the ground truth the
/// memoized path is checked against.
pub fn is_subset_uncached(a: &Regex, b: &Regex) -> bool {
    if a.is_empty_lang() {
        return true;
    }
    let alpha = shared_alphabet(a, b);
    let da = Dfa::from_nfa(&Nfa::from_regex(a), &alpha);
    let db = Dfa::from_nfa(&Nfa::from_regex(b), &alpha);
    da.product(&db.complement()).language_is_empty()
}

/// Is `L(a) = L(b)`?
pub fn equivalent(a: &Regex, b: &Regex) -> bool {
    is_subset(a, b) && is_subset(b, a)
}

/// Is `L(a) = L(b)`, bypassing the memo tables (see [`is_subset_uncached`])?
pub fn equivalent_uncached(a: &Regex, b: &Regex) -> bool {
    is_subset_uncached(a, b) && is_subset_uncached(b, a)
}

/// Is `L(a) ⊆ L(b)`, for pool-interned ids ([`crate::pool`]). The memo
/// probe hashes two `u32`s; `a == b` is a free structural fast path.
pub fn is_subset_id(a: ReId, b: ReId) -> bool {
    crate::memo::memoized_subset_id(a, b)
}

/// Is `L(a) = L(b)`, for pool-interned ids?
pub fn equivalent_id(a: ReId, b: ReId) -> bool {
    a == b || (is_subset_id(a, b) && is_subset_id(b, a))
}

/// The image (tag-erasure, Definition 3.8) of `r`, memoized in the regex
/// pool so repeated tightness checks against the same specialized type
/// don't re-walk it.
pub fn image_cached(r: &Regex) -> Regex {
    pool::to_regex(pool::image_id(pool::intern(r)))
}

/// Applies a symbol substitution through the pool (shared subterms are
/// rewritten once). The substitution must map symbols to symbols — the
/// retag/rename loops in the mediator core are exactly that shape.
pub fn map_syms_cached(r: &Regex, f: &mut impl FnMut(Sym) -> Sym) -> Regex {
    let id = pool::map_syms_id(pool::intern(r), &mut |s| pool::sym_id(f(s)));
    pool::to_regex(id)
}

/// Is `L(a) ⊊ L(b)`?
pub fn is_proper_subset(a: &Regex, b: &Regex) -> bool {
    is_subset(a, b) && !is_subset(b, a)
}

/// Counts the words of `L(r)` of each length `0..=max_len` (saturating).
pub fn count_words_by_len(r: &Regex, max_len: usize) -> Vec<u128> {
    Dfa::from_regex(r).count_words_by_len(max_len)
}

/// Total number of words of length ≤ `max_len` (saturating).
pub fn count_words_upto(r: &Regex, max_len: usize) -> u128 {
    count_words_by_len(r, max_len)
        .into_iter()
        .fold(0u128, |a, b| a.saturating_add(b))
}

/// Enumerates up to `cap` words of length ≤ `max_len`.
pub fn enumerate_words(r: &Regex, max_len: usize, cap: usize) -> Vec<Vec<Sym>> {
    Dfa::from_regex(r).enumerate_words(max_len, cap)
}

/// Length of the shortest word in `L(r)`, or `None` if the language is
/// empty. Used by the document sampler to steer generation toward finite
/// documents.
pub fn min_word_len(r: &Regex) -> Option<usize> {
    match r {
        Regex::Empty => None,
        Regex::Epsilon => Some(0),
        Regex::Sym(_) => Some(1),
        Regex::Concat(v) => {
            let mut total = 0usize;
            for x in v {
                total += min_word_len(x)?;
            }
            Some(total)
        }
        Regex::Alt(v) => v.iter().filter_map(min_word_len).min(),
        Regex::Star(_) | Regex::Opt(_) => Some(0),
        Regex::Plus(x) => min_word_len(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use crate::symbol::sym;

    fn r(s: &str) -> Regex {
        parse_regex(s).unwrap()
    }

    #[test]
    fn subset_basics() {
        assert!(is_subset(&r("a"), &r("a | b")));
        assert!(!is_subset(&r("a | b"), &r("a")));
        assert!(is_subset(&r("a, a"), &r("a*")));
        assert!(is_subset(&r("a+"), &r("a*")));
        assert!(!is_subset(&r("a*"), &r("a+")));
    }

    #[test]
    fn subset_with_disjoint_alphabets() {
        assert!(!is_subset(&r("a"), &r("b")));
        assert!(is_subset(&Regex::Empty, &r("b")));
    }

    #[test]
    fn equivalence_laws() {
        assert!(equivalent(&r("(a, b) | (a, c)"), &r("a, (b | c)")));
        assert!(equivalent(&r("a*, a"), &r("a+")));
        assert!(equivalent(&r("a*, a*"), &r("a*")));
        assert!(equivalent(&r("(a | b)*"), &r("(a*, b*)*")));
        assert!(!equivalent(&r("a?"), &r("a+")));
    }

    #[test]
    fn paper_example_3_1_refinement_is_tighter() {
        // publication+ refined to "at least two" is a proper subset.
        let refined = r("publication, publication, publication*");
        let original = r("publication+");
        assert!(is_proper_subset(&refined, &original));
    }

    #[test]
    fn paper_t6_t7_t8_chain_is_strictly_decreasing() {
        // Example 3.5: (prolog | conclusion)* is less tight than
        // prolog, (prolog | conclusion)*, conclusion, etc. We model T6 ⊋ T7 ⊋ T8
        // as progressively constrained sequences of the recursive view.
        let t6 = r("(prolog | conclusion)*");
        let t7 = r("(prolog, (prolog | conclusion)*, conclusion)?");
        let t8 = r("(prolog, (prolog, (prolog | conclusion)*, conclusion)?, conclusion)?");
        assert!(is_proper_subset(&t7, &t6));
        assert!(is_proper_subset(&t8, &t7));
    }

    #[test]
    fn counting() {
        assert_eq!(count_words_upto(&r("a?"), 4), 2);
        assert_eq!(count_words_upto(&r("(a | b)*"), 3), 1 + 2 + 4 + 8);
        assert_eq!(count_words_upto(&Regex::Empty, 5), 0);
    }

    #[test]
    fn min_word_lengths() {
        assert_eq!(min_word_len(&r("a, b, c")), Some(3));
        assert_eq!(min_word_len(&r("a*")), Some(0));
        assert_eq!(min_word_len(&r("a+ | b")), Some(1));
        assert_eq!(min_word_len(&Regex::Empty), None);
        assert_eq!(min_word_len(&r("(a, b)+ | c?")), Some(0));
    }

    #[test]
    fn matches_and_enumerate_agree() {
        let re = r("title, author+, (journal | conference)");
        for w in enumerate_words(&re, 4, 1000) {
            assert!(matches(&re, &w));
        }
        assert_eq!(
            enumerate_words(&re, 3, 1000).len(),
            2 // title author journal | title author conference
        );
    }

    #[test]
    fn tagged_inclusion_respects_tags() {
        let a = r("j^1");
        let b = r("j");
        assert!(!is_subset(&a, &b));
        assert!(is_subset(&a.image(), &b));
    }

    #[test]
    fn empty_language_via_automaton() {
        // A regex that is empty but not structurally `Empty` cannot be built
        // through smart constructors; emulate via product check instead.
        assert!(language_is_empty(&Regex::Empty));
        assert!(!language_is_empty(&r("a?")));
        let _ = sym("unused");
    }
}
