//! Property suites for the hash-consed regex pool: interning must be
//! lossless, id equality must be a sound proxy for language equality,
//! and the attribute-based inclusion fast paths must agree with the
//! uncached automata procedure. (Hopcroft minimization is checked
//! against the seed Moore pass in mix-relang's own unit tests, where the
//! Moore oracle lives.)

use mix::prelude::*;
use mix::relang::nfa::Nfa;
use mix::relang::pool;
use mix::relang::{equivalent_uncached, is_subset_uncached, Sym};
use proptest::prelude::*;

/// Random content-model regexes built through the smart constructors
/// (the shape everything downstream of the parser sees).
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        4 => prop::sample::select(vec!["a", "b", "c"]).prop_map(|s| Regex::Sym(sym(s))),
        1 => Just(Regex::Epsilon),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::plus),
            inner.prop_map(Regex::opt),
        ]
    })
}

/// Random *raw* regexes assembled from the enum constructors directly —
/// nested `Empty`, empty concatenations/alternations, unnormalized
/// closures. The pool must intern these verbatim and still compute
/// language-exact attributes for them.
fn arb_raw_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        3 => prop::sample::select(vec!["a", "b", "c"]).prop_map(|s| Regex::Sym(sym(s))),
        1 => Just(Regex::Epsilon),
        1 => Just(Regex::Empty),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Regex::Concat),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Regex::Alt),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.clone().prop_map(|r| Regex::Plus(Box::new(r))),
            inner.prop_map(|r| Regex::Opt(Box::new(r))),
        ]
    })
}

fn alphabet() -> Vec<Sym> {
    vec![sym("a"), sym("b"), sym("c")]
}

/// All words over {a,b,c} of length ≤ 4.
fn all_words() -> Vec<Vec<Sym>> {
    let alpha = alphabet();
    let mut out: Vec<Vec<Sym>> = vec![vec![]];
    let mut layer: Vec<Vec<Sym>> = vec![vec![]];
    for _ in 0..4 {
        let mut next = Vec::new();
        for w in &layer {
            for &s in &alpha {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        out.extend(next.iter().cloned());
        layer = next;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `to_regex(intern(r))` reproduces `r` byte-for-byte — interning is
    /// a verbatim bijection on structure, which subsumes language
    /// equality. Checked on smart-constructed and raw shapes alike.
    #[test]
    fn intern_roundtrip_is_lossless(r in arb_regex(), raw in arb_raw_regex()) {
        for r in [r, raw] {
            let back = pool::to_regex(pool::intern(&r));
            prop_assert_eq!(&back, &r, "roundtrip changed {}", r);
            prop_assert!(equivalent(&back, &r));
        }
    }

    /// Interned ids are a *sound* equality proxy: equal ids after
    /// simplification mean the originals are language-equal (the
    /// simplify corpus is where the id fast path replaces language
    /// checks in `collapse_equivalent`).
    #[test]
    fn id_equality_is_sound_on_simplified_forms(a in arb_regex(), b in arb_regex()) {
        // include permuted alternations so id collisions actually occur
        let x = Regex::alt(vec![a.clone(), b.clone()]);
        let y = Regex::alt(vec![b.clone(), a.clone()]);
        for (p, q) in [(&a, &b), (&x, &y)] {
            if pool::intern(&simplify(p)) == pool::intern(&simplify(q)) {
                prop_assert!(
                    equivalent_uncached(p, q),
                    "ids collide but languages differ: {} vs {}", p, q
                );
            }
        }
    }

    /// The pool's language-exact attributes agree with the automata:
    /// emptiness, nullability, and the live alphabet/first sets (checked
    /// one-sidedly by brute force — every accepted word draws only on
    /// live symbols and starts with a live first).
    #[test]
    fn cached_attributes_are_language_exact(r in arb_raw_regex()) {
        let id = pool::intern(&r);
        let nfa = Nfa::from_regex(&r);
        prop_assert_eq!(pool::nullable(id), nfa.accepts(&[]), "nullability of {}", r);
        let mut any_word = nfa.accepts(&[]);
        let live_alpha = pool::live_alphabet(id);
        let live_first = pool::live_first(id);
        for w in all_words() {
            if !nfa.accepts(&w) {
                continue;
            }
            any_word = true;
            prop_assert!(
                w.iter().all(|s| live_alpha.contains(s)),
                "{:?} ∈ L({}) uses a symbol outside live_alphabet", w, r
            );
            if let Some(first) = w.first() {
                prop_assert!(
                    live_first.contains(first),
                    "{:?} ∈ L({}) starts outside live_first", w, r
                );
            }
        }
        if any_word {
            prop_assert!(!pool::empty_lang(id), "L({}) inhabited but marked empty", r);
        }
        // `Regex::is_empty_lang` is structural (exact only after the
        // smart constructors float Empty to the top); the pool attribute
        // must match the exact automata-based emptiness check instead.
        prop_assert_eq!(
            pool::empty_lang(id),
            mix::relang::language_is_empty(&r),
            "emptiness of {}", r
        );
        if pool::empty_lang(id) {
            prop_assert!(live_alpha.is_empty() && live_first.is_empty());
        }
    }

    /// The memoized id-keyed decision procedures (attribute refutations,
    /// raw-DFA reachability walk) answer exactly like the uncached
    /// product/complement construction.
    #[test]
    fn memoized_inclusion_agrees_with_uncached(a in arb_raw_regex(), b in arb_raw_regex()) {
        prop_assert_eq!(
            is_subset(&a, &b),
            is_subset_uncached(&a, &b),
            "inclusion fast path diverged on {} ⊆ {}", a, b
        );
        prop_assert_eq!(
            equivalent(&a, &b),
            equivalent_uncached(&a, &b),
            "equivalence fast path diverged on {} = {}", a, b
        );
    }
}
