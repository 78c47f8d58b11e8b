//! The type-refinement algorithm of Section 4.1.
//!
//! `refine(r, n)` rewrites a content-model regex into one describing
//! exactly the sequences of `L(r)` that contain at least one occurrence of
//! `n` — with that witness occurrence *retagged* as `n^T` so later
//! refinements (for a different condition on the same name, Example 4.2)
//! must pick a *different* occurrence.
//!
//! The paper's special operators `⊗` and `∥` extend concatenation and
//! union with a `fail` value; in this codebase `fail` is [`Regex::Empty`]
//! (`ReId::EMPTY` in the pool) and the smart constructors
//! [`Regex::concat`] / [`Regex::alt`], mirrored by the pool's
//! `concat_ids` / `alt_ids`, implement exactly the `⊗` / `∥` propagation
//! rules, so the algorithm reads off the paper nearly verbatim.

use mix_relang::ast::Regex;
use mix_relang::pool::{self, ReId, ReNode};
use mix_relang::symbol::{Name, Tag};

/// `refine(r, {n₁|…|n_k}^T)`: all sequences of `L(r)` containing at least
/// one *untagged* occurrence of some `nᵢ`, with the witness occurrence
/// retagged to `nᵢ^T`.
///
/// Generalizes the paper's single-name refinement to the disjunctive name
/// tests of pick-element queries (`professor | gradStudent`). With
/// `tag = 0` the witness keeps its name untagged (plain DTD refinement, as
/// in Example 4.1).
///
/// Returns [`Regex::Empty`] — the paper's `fail` — when no sequence
/// qualifies.
///
/// ```
/// use mix_infer::refine::refine1;
/// use mix_relang::{parse_regex, equivalent, name};
/// // Example 4.1: refine((n,(j|c)*), j) = n, (j|c)*, j, (j|c)*
/// let r = parse_regex("n, (j | c)*").unwrap();
/// let refined = refine1(&r, name("j"), 0);
/// assert!(equivalent(&refined, &parse_regex("n, (j | c)*, j, (j | c)*").unwrap()));
/// ```
pub fn refine(r: &Regex, names: &[Name], tag: Tag) -> Regex {
    pool::to_regex(refine_id(pool::intern(r), names, tag))
}

/// [`refine`] over pool ids. The `Concat` case builds one branch per
/// sibling; siblings are `Copy` ids, so no subterm is cloned, and shared
/// subterms are rewritten once per distinct node.
pub fn refine_id(r: ReId, names: &[Name], tag: Tag) -> ReId {
    match pool::node(r) {
        ReNode::Empty | ReNode::Epsilon => ReId::EMPTY,
        ReNode::Sym(s) => {
            // Base cases: an untagged occurrence of a requested name is the
            // witness; everything else fails (Definition 4.2's tagged base
            // case — occurrences claimed by an earlier condition, i.e.
            // already tagged, cannot be re-used).
            if s.tag == 0 && names.contains(&s.name) {
                pool::sym_id(s.name.tagged(tag))
            } else {
                ReId::EMPTY
            }
        }
        // (refine(r1), r2, …) ∥ (r1, refine(r2), …) ∥ …
        ReNode::Concat(v) => pool::alt_ids(
            (0..v.len())
                .map(|i| {
                    pool::concat_ids(
                        v.iter()
                            .enumerate()
                            .map(|(j, &x)| if i == j { refine_id(x, names, tag) } else { x })
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        ),
        ReNode::Alt(v) => pool::alt_ids(
            v.iter()
                .map(|&x| refine_id(x, names, tag))
                .collect::<Vec<_>>(),
        ),
        // g* ⊗ refine(g) ⊗ g*; for g+ = g, g* the witness iteration
        // makes the "+" implicit
        ReNode::Star(g) | ReNode::Plus(g) => {
            pool::concat_ids([pool::star_id(g), refine_id(g, names, tag), pool::star_id(g)])
        }
        // refine(g) ∥ fail = refine(g): the option must be taken
        ReNode::Opt(g) => refine_id(g, names, tag),
    }
}

/// Single-name convenience wrapper.
pub fn refine1(r: &Regex, n: Name, tag: Tag) -> Regex {
    refine(r, &[n], tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_relang::symbol::name;
    use mix_relang::{equivalent, is_subset, matches, parse_regex};

    fn r(s: &str) -> Regex {
        parse_regex(s).unwrap()
    }

    #[test]
    fn example_4_1_professor_journal() {
        // refine(n,(j|c)*, j) = n, (j|c)*, j, (j|c)*
        let out = refine1(&r("n, (j | c)*"), name("j"), 0);
        assert!(
            equivalent(&out, &r("n, (j | c)*, j, (j | c)*")),
            "got {out}"
        );
    }

    #[test]
    fn example_4_2_two_tagged_journals() {
        // First refinement with j^1, then j^2: the two witnesses must be
        // distinct occurrences; the result is the union of interleavings.
        let step1 = refine1(&r("n, (j | c)*"), name("j"), 1);
        assert!(equivalent(&step1.image(), &r("n, (j | c)*, j, (j | c)*")));
        let step2 = refine1(&step1, name("j"), 2);
        assert!(!step2.is_empty_lang());
        // Image: sequences with at least two j's.
        assert!(equivalent(
            &step2.image(),
            &r("n, (j | c)*, j, (j | c)*, j, (j | c)*")
        ));
        // And the tagged witnesses appear in both orders.
        let j1 = name("j").tagged(1);
        let j2 = name("j").tagged(2);
        let n = name("n").untagged();
        assert!(matches(&step2, &[n, j1, j2]));
        assert!(matches(&step2, &[n, j2, j1]));
        assert!(matches(&step2, &[n, j2, name("c").untagged(), j1]));
        assert!(!matches(&step2, &[n, j1]));
    }

    #[test]
    fn refinement_is_the_containing_sublanguage() {
        // For untagged refinement: L(refine(r, n)) = {w ∈ L(r) : n ∈ w}.
        for (src, n) in [
            ("a*", "a"),
            ("(a | b)*", "b"),
            ("a?, b, c*", "c"),
            ("title, author+, (journal | conference)", "journal"),
            ("(a, b)+", "a"),
        ] {
            let re = r(src);
            let out = refine1(&re, name(n), 0);
            assert!(is_subset(&out, &re), "refine({src},{n}) ⊆ {src}");
            // every word of `out` contains n; checked via: out ∩ "no n" = ∅
            for w in mix_relang::enumerate_words(&out, 5, 200) {
                assert!(
                    w.iter().any(|s| s.name == name(n)),
                    "word {w:?} of refine({src},{n}) lacks {n}"
                );
            }
            // every word of `re` containing n is kept
            for w in mix_relang::enumerate_words(&re, 5, 200) {
                if w.iter().any(|s| s.name == name(n)) {
                    assert!(matches(&out, &w), "lost word {w:?} of {src}");
                }
            }
        }
    }

    #[test]
    fn fail_cases() {
        assert!(refine1(&r("a, b"), name("z"), 0).is_empty_lang());
        assert!(refine1(&Regex::Epsilon, name("a"), 0).is_empty_lang());
        assert!(refine1(&Regex::Empty, name("a"), 0).is_empty_lang());
        // opt must be taken: refine(a?, a) = a (not a?)
        let out = refine1(&r("a?"), name("a"), 0);
        assert!(equivalent(&out, &r("a")));
    }

    #[test]
    fn disjunctive_name_test() {
        // refine with {professor, gradStudent} on a department-like model
        let out = refine(
            &r("name, professor*, gradStudent*"),
            &[name("professor"), name("gradStudent")],
            7,
        );
        assert!(!out.is_empty_lang());
        // image = words with at least one professor or gradStudent
        let img = out.image();
        assert!(matches(
            &img,
            &[name("name").untagged(), name("professor").untagged()]
        ));
        assert!(matches(
            &img,
            &[name("name").untagged(), name("gradStudent").untagged()]
        ));
        assert!(!matches(&img, &[name("name").untagged()]));
        // the witness is tagged with 7
        assert!(matches(
            &out,
            &[name("name").untagged(), name("professor").tagged(7)]
        ));
    }

    #[test]
    fn tagged_occurrences_are_not_reusable() {
        // r = j^1 alone: no untagged j left to refine.
        let out = refine1(&r("j^1"), name("j"), 2);
        assert!(out.is_empty_lang());
        // r = j^1, j: only the second occurrence can be the witness.
        let out = refine1(&r("j^1, j"), name("j"), 2);
        let j1 = name("j").tagged(1);
        let j2 = name("j").tagged(2);
        assert!(matches(&out, &[j1, j2]));
        assert!(!matches(&out, &[j2, j1]));
    }

    #[test]
    fn plus_keeps_at_least_one_iteration() {
        let out = refine1(&r("(a, b)+"), name("a"), 0);
        assert!(equivalent(&out, &r("(a, b)+")));
        // b-only? impossible: every iteration has an a — refine is valid here.
    }

    #[test]
    fn star_refinement_forces_an_iteration() {
        let out = refine1(&r("(a | b)*"), name("a"), 0);
        assert!(!matches(&out, &[]));
        assert!(!matches(&out, &[mix_relang::sym("b")]));
        assert!(matches(&out, &[mix_relang::sym("b"), mix_relang::sym("a")]));
    }
}
