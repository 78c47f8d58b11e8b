//! The regular-expression AST used for DTD content models.
//!
//! A DTD type (Definition 2.2) is a regular expression over element names;
//! an s-DTD type (Definition 3.8) is a *tagged* regular expression over
//! tagged names. Both are represented by [`Regex`], whose leaves are
//! [`Sym`]s (an untagged name is `n^0`).
//!
//! All construction goes through the smart constructors ([`Regex::concat`],
//! [`Regex::alt`], …) which enforce the invariant that [`Regex::Empty`]
//! (the paper's `fail`, the empty language) only ever appears as the
//! top-level node, and that `Concat`/`Alt` are flattened and never unary.

use crate::symbol::{Name, Sym};
use std::collections::BTreeSet;
use std::fmt;

/// A regular expression over tagged element names.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language — the paper's `fail`.
    Empty,
    /// The empty sequence `ε`.
    Epsilon,
    /// A single (tagged) name.
    Sym(Sym),
    /// Concatenation `r1, r2, …` (always ≥ 2 entries, none `Epsilon`/`Empty`,
    /// none itself a `Concat`).
    Concat(Vec<Regex>),
    /// Union `r1 | r2 | …` (always ≥ 2 entries, none `Empty`, none itself an
    /// `Alt`).
    Alt(Vec<Regex>),
    /// Kleene closure `r*`.
    Star(Box<Regex>),
    /// `r+ = r, r*`.
    Plus(Box<Regex>),
    /// `r? = r | ε`.
    Opt(Box<Regex>),
}

impl Regex {
    /// A single untagged name.
    pub fn name(n: Name) -> Regex {
        Regex::Sym(n.untagged())
    }

    /// A single tagged name.
    pub fn sym(s: Sym) -> Regex {
        Regex::Sym(s)
    }

    /// Smart concatenation: flattens, drops `ε`, propagates `Empty`.
    pub fn concat(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        for p in parts {
            match p {
                Regex::Empty => return Regex::Empty,
                Regex::Epsilon => {}
                Regex::Concat(v) => out.extend(v),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Concat(out),
        }
    }

    /// Smart union: flattens, drops `Empty`, deduplicates structurally, and
    /// canonicalizes an `ε` branch into `?` (`r | ε` becomes `r?`).
    ///
    /// This is the paper's `∥` operator extended to n-ary unions: a union
    /// with every branch `fail` is `fail`; `fail` branches are absorbed.
    pub fn alt(parts: impl IntoIterator<Item = Regex>) -> Regex {
        let mut out: Vec<Regex> = Vec::new();
        let mut has_epsilon = false;
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Epsilon => has_epsilon = true,
                Regex::Alt(v) => {
                    for x in v {
                        if !out.contains(&x) {
                            out.push(x);
                        }
                    }
                }
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        let core = match out.len() {
            0 => {
                return if has_epsilon {
                    Regex::Epsilon
                } else {
                    Regex::Empty
                }
            }
            1 => out.pop().expect("len checked"),
            _ => Regex::Alt(out),
        };
        if has_epsilon {
            Regex::opt(core)
        } else {
            core
        }
    }

    /// Smart Kleene star.
    pub fn star(r: Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(inner) => Regex::Star(inner),
            Regex::Plus(inner) | Regex::Opt(inner) => Regex::Star(inner),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// Smart `+`.
    pub fn plus(r: Regex) -> Regex {
        match r {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Star(inner) => Regex::Star(inner),
            Regex::Plus(inner) => Regex::Plus(inner),
            Regex::Opt(inner) => Regex::Star(inner),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// Smart `?`.
    pub fn opt(r: Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(inner) => Regex::Star(inner),
            Regex::Plus(inner) => Regex::Star(inner),
            Regex::Opt(inner) => Regex::Opt(inner),
            other => Regex::Opt(Box::new(other)),
        }
    }

    /// Binary concatenation convenience.
    pub fn then(self, other: Regex) -> Regex {
        Regex::concat([self, other])
    }

    /// Binary union convenience.
    pub fn or(self, other: Regex) -> Regex {
        Regex::alt([self, other])
    }

    /// Whether this regex *is* the empty language.
    ///
    /// Because smart constructors propagate `Empty`, the check is structural.
    pub fn is_empty_lang(&self) -> bool {
        matches!(self, Regex::Empty)
    }

    /// The paper's *nullable* test: does `L(r)` contain the empty sequence?
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Concat(v) => v.iter().all(Regex::nullable),
            Regex::Alt(v) => v.iter().any(Regex::nullable),
            Regex::Plus(r) => r.nullable(),
        }
    }

    /// All symbols occurring in the regex, in sorted order.
    pub fn syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_syms(&mut out);
        out
    }

    fn collect_syms(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(s) => {
                out.insert(*s);
            }
            Regex::Concat(v) | Regex::Alt(v) => {
                for r in v {
                    r.collect_syms(out);
                }
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.collect_syms(out),
        }
    }

    /// All distinct *names* (tag projected out) occurring in the regex.
    pub fn names(&self) -> BTreeSet<Name> {
        self.syms().into_iter().map(Sym::image).collect()
    }

    /// Distinct symbols in first-appearance (left-to-right) order — used
    /// for human-oriented DTD displays.
    pub fn syms_in_order(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        fn walk(r: &Regex, out: &mut Vec<Sym>) {
            match r {
                Regex::Empty | Regex::Epsilon => {}
                Regex::Sym(s) => {
                    if !out.contains(s) {
                        out.push(*s);
                    }
                }
                Regex::Concat(v) | Regex::Alt(v) => {
                    for x in v {
                        walk(x, out);
                    }
                }
                Regex::Star(x) | Regex::Plus(x) | Regex::Opt(x) => walk(x, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Whether `s` occurs as a leaf.
    pub fn contains_sym(&self, s: Sym) -> bool {
        match self {
            Regex::Empty | Regex::Epsilon => false,
            Regex::Sym(x) => *x == s,
            Regex::Concat(v) | Regex::Alt(v) => v.iter().any(|r| r.contains_sym(s)),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.contains_sym(s),
        }
    }

    /// Rebuilds the regex with every leaf replaced by `f(leaf)`.
    ///
    /// Used for the *image* operation (drop tags, Definition 3.9) and for
    /// the *one-level extension* substitution (Definition 4.3).
    pub fn map_syms(&self, f: &mut impl FnMut(Sym) -> Regex) -> Regex {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(s) => f(*s),
            Regex::Concat(v) => Regex::concat(v.iter().map(|r| r.map_syms(f))),
            Regex::Alt(v) => Regex::alt(v.iter().map(|r| r.map_syms(f))),
            Regex::Star(r) => Regex::star(r.map_syms(f)),
            Regex::Plus(r) => Regex::plus(r.map_syms(f)),
            Regex::Opt(r) => Regex::opt(r.map_syms(f)),
        }
    }

    /// The image of a tagged regular expression: every `n^T` becomes `n^0`
    /// (Definition 3.9).
    pub fn image(&self) -> Regex {
        self.map_syms(&mut |s| Regex::Sym(s.name.untagged()))
    }

    /// Number of AST nodes — used to bound simplification work.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(v) | Regex::Alt(v) => 1 + v.iter().map(Regex::size).sum::<usize>(),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => 1 + r.size(),
        }
    }

    /// A regex matching exactly the given word.
    pub fn word(w: &[Sym]) -> Regex {
        Regex::concat(w.iter().map(|&s| Regex::Sym(s)))
    }
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn a() -> Regex {
        Regex::Sym(sym("a"))
    }
    fn b() -> Regex {
        Regex::Sym(sym("b"))
    }

    #[test]
    fn concat_unit_laws() {
        assert_eq!(Regex::concat([Regex::Epsilon, a()]), a());
        assert_eq!(Regex::concat([a(), Regex::Epsilon]), a());
        assert_eq!(Regex::concat([] as [Regex; 0]), Regex::Epsilon);
        assert_eq!(Regex::concat([Regex::Empty, a()]), Regex::Empty);
    }

    #[test]
    fn concat_flattens() {
        let r = Regex::concat([a().then(b()), a()]);
        match r {
            Regex::Concat(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat concat, got {other:?}"),
        }
    }

    #[test]
    fn alt_absorbs_empty_and_dedups() {
        assert_eq!(Regex::alt([Regex::Empty, a()]), a());
        assert_eq!(Regex::alt([a(), a()]), a());
        assert_eq!(Regex::alt([] as [Regex; 0]), Regex::Empty);
        let r = Regex::alt([a().or(b()), a()]);
        match r {
            Regex::Alt(v) => assert_eq!(v.len(), 2),
            other => panic!("expected 2-way alt, got {other:?}"),
        }
    }

    #[test]
    fn star_collapses() {
        assert_eq!(Regex::star(Regex::Epsilon), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::star(a())), Regex::star(a()));
        assert_eq!(Regex::star(Regex::plus(a())), Regex::star(a()));
        assert_eq!(Regex::star(Regex::opt(a())), Regex::star(a()));
    }

    #[test]
    fn plus_opt_collapse() {
        assert_eq!(Regex::plus(Regex::opt(a())), Regex::star(a()));
        assert_eq!(Regex::opt(Regex::plus(a())), Regex::star(a()));
        assert_eq!(Regex::plus(Regex::star(a())), Regex::star(a()));
        assert_eq!(Regex::opt(Regex::opt(a())), Regex::opt(a()));
        assert_eq!(Regex::plus(Regex::Empty), Regex::Empty);
        assert_eq!(Regex::opt(Regex::Empty), Regex::Epsilon);
    }

    #[test]
    fn nullable_cases() {
        assert!(Regex::Epsilon.nullable());
        assert!(!a().nullable());
        assert!(Regex::star(a()).nullable());
        assert!(!Regex::plus(a()).nullable());
        assert!(Regex::opt(a()).nullable());
        assert!(!a().then(Regex::star(b())).nullable());
        assert!(Regex::opt(a()).then(Regex::star(b())).nullable());
        assert!(a().or(Regex::Epsilon).nullable());
    }

    #[test]
    fn image_drops_tags() {
        let n = crate::symbol::name("j");
        let r = Regex::sym(n.tagged(2)).then(Regex::name(n));
        let img = r.image();
        assert_eq!(img, Regex::name(n).then(Regex::name(n)));
    }

    #[test]
    fn syms_and_names() {
        let n = crate::symbol::name("x");
        let r = Regex::sym(n.tagged(1)).or(Regex::name(n));
        assert_eq!(r.syms().len(), 2);
        assert_eq!(r.names().len(), 1);
    }

    #[test]
    fn empty_never_nested() {
        // Smart constructors must keep Empty at top level only.
        let r = Regex::alt([
            Regex::concat([a(), Regex::Empty]),
            Regex::star(Regex::Empty),
        ]);
        // concat propagated Empty; star(Empty) = Epsilon; alt absorbs Empty.
        assert_eq!(r, Regex::Epsilon);
    }
}
