//! Validation of elements and documents against a DTD (Definition 2.3/2.4).

use crate::model::{ContentModel, Dtd};
use mix_relang::symbol::{Name, Sym};
use mix_relang::{Dfa, Nfa, Regex};
use mix_xml::{Content, Document, Element};
use std::collections::HashMap;
use std::fmt;

/// Why an element failed validation, with the path from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Element names from the root to the offending element.
    pub path: Vec<Name>,
    /// What went wrong there.
    pub kind: ValidationErrorKind,
}

/// The kinds of validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationErrorKind {
    /// The element's name has no type definition (Definition 2.3, cond. 1).
    UndeclaredName(Name),
    /// The root element is not the document type (Definition 2.4).
    WrongDocType {
        /// The expected document type.
        expected: Name,
        /// The actual root name.
        actual: Name,
    },
    /// The child-name sequence is not in the type's language (cond. 2).
    ContentMismatch {
        /// The element whose content failed.
        name: Name,
        /// The observed child-name word.
        found: Vec<Name>,
    },
    /// String content for a non-PCDATA type, or vice versa (cond. 3).
    PcdataMismatch {
        /// The element whose content failed.
        name: Name,
        /// True if the element had string content.
        had_text: bool,
    },
    /// Two elements share an ID (validity, Appendix A).
    DuplicateId(mix_xml::ElemId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at /")?;
        for (i, n) in self.path.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{n}")?;
        }
        match &self.kind {
            ValidationErrorKind::UndeclaredName(n) => write!(f, ": undeclared name '{n}'"),
            ValidationErrorKind::WrongDocType { expected, actual } => {
                write!(
                    f,
                    ": document type is '{actual}', DTD requires '{expected}'"
                )
            }
            ValidationErrorKind::ContentMismatch { name, found } => {
                write!(f, ": content of '{name}' is [")?;
                for (i, n) in found.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, "], not in the declared model")
            }
            ValidationErrorKind::PcdataMismatch { name, had_text } => {
                if *had_text {
                    write!(f, ": '{name}' has string content but is not PCDATA")
                } else {
                    write!(f, ": '{name}' is PCDATA but has element content")
                }
            }
            ValidationErrorKind::DuplicateId(id) => write!(f, ": duplicate id '{id}'"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// States a content model's DFA may reach before the validator gives up
/// determinizing it and runs its Glushkov NFA instead (which allocates
/// a word per element).
const MAX_DFA_STATES: usize = 1024;

/// A validator with every content model of a DTD compiled once, reusable
/// across many documents. It owns what it compiled, so it can be kept
/// beside the DTD: the mediator keeps one per view member.
///
/// Each content model runs as a minimal DFA over the model's own names,
/// so checking a child word takes one binary search and one table read
/// per child and allocates nothing. Each name the DTD declares or
/// mentions has a slot, and a model's symbols point at their slots, so
/// only the root's name is hashed.
#[derive(Debug)]
pub struct Validator {
    doc_type: Name,
    /// The slot of every name the DTD declares or a model mentions.
    slots: HashMap<Name, usize>,
    /// What each slot's name must contain; `None` for a name a model
    /// mentions but the DTD does not declare.
    types: Vec<Option<Type>>,
}

#[derive(Debug)]
enum Type {
    Pcdata,
    Elements(Model),
}

/// A content model compiled to run over child names.
#[derive(Debug)]
struct Model {
    /// The model's untagged names, sorted.
    alphabet: Vec<Sym>,
    /// The slot of each alphabet name.
    slots: Vec<usize>,
    run: Run,
}

#[derive(Debug)]
enum Run {
    /// The minimal DFA over `alphabet`.
    Dfa(Dfa),
    /// The Glushkov NFA of a model whose DFA passed [`MAX_DFA_STATES`].
    Nfa(Nfa),
}

impl Model {
    fn compile(r: &Regex, slot: &mut impl FnMut(Name) -> usize) -> Model {
        // a tagged symbol never matches a child name, whose tag is 0
        let alphabet: Vec<Sym> = r.syms().into_iter().filter(|s| s.is_untagged()).collect();
        let nfa = Nfa::from_regex(r);
        let run = match Dfa::from_nfa_bounded(&nfa, &alphabet, MAX_DFA_STATES) {
            Some(dfa) => Run::Dfa(dfa.minimize()),
            None => Run::Nfa(nfa),
        };
        Model {
            slots: alphabet.iter().map(|s| slot(s.name)).collect(),
            alphabet,
            run,
        }
    }

    /// The alphabet index of `name`, if the model mentions it.
    fn symbol(&self, name: Name) -> Option<usize> {
        self.alphabet.binary_search(&name.untagged()).ok()
    }

    /// Is the word of `children`'s names in the model's language?
    fn accepts(&self, children: &[Element]) -> bool {
        match &self.run {
            Run::Dfa(dfa) => {
                let width = self.alphabet.len();
                let mut state = dfa.start as usize;
                for c in children {
                    let Some(a) = self.symbol(c.name) else {
                        return false;
                    };
                    state = dfa.transitions[state * width + a] as usize;
                }
                dfa.accepting[state]
            }
            Run::Nfa(nfa) => {
                let word: Vec<Sym> = children.iter().map(|c| c.name.untagged()).collect();
                nfa.accepts(&word)
            }
        }
    }
}

impl Validator {
    /// Compiles every content model of `dtd`.
    pub fn new(dtd: &Dtd) -> Validator {
        let mut slots: HashMap<Name, usize> = HashMap::new();
        let mut slot = |n: Name| {
            let next = slots.len();
            *slots.entry(n).or_insert(next)
        };
        let mut compiled: Vec<(usize, Type)> = Vec::new();
        for (n, m) in dtd.types.iter() {
            let s = slot(n);
            compiled.push((
                s,
                match m {
                    ContentModel::Pcdata => Type::Pcdata,
                    ContentModel::Elements(r) => Type::Elements(Model::compile(r, &mut slot)),
                },
            ));
        }
        let mut types: Vec<Option<Type>> = (0..slots.len()).map(|_| None).collect();
        for (s, t) in compiled {
            types[s] = Some(t);
        }
        Validator {
            doc_type: dtd.doc_type,
            slots,
            types,
        }
    }

    /// Checks `e |= D` (Definition 2.3), ignoring the document-type rule.
    pub fn validate_element(&self, e: &Element) -> Result<(), ValidationError> {
        let slot = self.slots.get(&e.name).copied();
        self.go(e, slot).map_err(|mut err| {
            err.path.reverse();
            err
        })
    }

    /// Checks a full document: `e |= D`, root name = document type, and ID
    /// uniqueness.
    pub fn validate_document(&self, doc: &Document) -> Result<(), ValidationError> {
        if doc.root.name != self.doc_type {
            return Err(ValidationError {
                path: vec![doc.root.name],
                kind: ValidationErrorKind::WrongDocType {
                    expected: self.doc_type,
                    actual: doc.root.name,
                },
            });
        }
        if let Some(id) = doc.duplicate_id() {
            return Err(ValidationError {
                path: vec![doc.root.name],
                kind: ValidationErrorKind::DuplicateId(id),
            });
        }
        self.validate_element(&doc.root)
    }

    /// Validates `e`, whose name has `slot`. The error's path runs from
    /// the offending element up to `e`: each level appends its name on
    /// the way out, so a valid element costs no path bookkeeping.
    fn go(&self, e: &Element, slot: Option<usize>) -> Result<(), ValidationError> {
        let fail = |kind| {
            Err(ValidationError {
                path: vec![e.name],
                kind,
            })
        };
        let Some(ty) = slot.and_then(|s| self.types[s].as_ref()) else {
            return fail(ValidationErrorKind::UndeclaredName(e.name));
        };
        match (&e.content, ty) {
            (Content::Text(_), Type::Pcdata) => Ok(()),
            (Content::Text(_), Type::Elements(_)) => fail(ValidationErrorKind::PcdataMismatch {
                name: e.name,
                had_text: true,
            }),
            (Content::Elements(_), Type::Pcdata) => fail(ValidationErrorKind::PcdataMismatch {
                name: e.name,
                had_text: false,
            }),
            (Content::Elements(children), Type::Elements(model)) => {
                if !model.accepts(children) {
                    return fail(ValidationErrorKind::ContentMismatch {
                        name: e.name,
                        found: children.iter().map(|c| c.name).collect(),
                    });
                }
                for c in children {
                    let slot = model.symbol(c.name).map(|a| model.slots[a]);
                    self.go(c, slot).map_err(|mut err| {
                        err.path.push(e.name);
                        err
                    })?;
                }
                Ok(())
            }
        }
    }
}

/// One-shot element validation (`e |= D`, Definition 2.3).
pub fn validate_element(dtd: &Dtd, e: &Element) -> Result<(), ValidationError> {
    Validator::new(dtd).validate_element(e)
}

/// One-shot document validation (Definition 2.4 + ID uniqueness).
pub fn validate_document(dtd: &Dtd, doc: &Document) -> Result<(), ValidationError> {
    Validator::new(dtd).validate_document(doc)
}

/// Convenience used throughout the tests: `e |= D`?
pub fn satisfies(dtd: &Dtd, doc: &Document) -> bool {
    validate_document(dtd, doc).is_ok()
}

/// The validator as it was before content models were determinized:
/// a Glushkov NFA per model, a word built for every element and a path
/// kept while walking. Compiled only for tests, as the reference the
/// compiled validator is checked against.
#[cfg(test)]
mod oracle {
    use super::{ValidationError, ValidationErrorKind};
    use crate::model::{ContentModel, Dtd};
    use mix_relang::symbol::Name;
    use mix_relang::Nfa;
    use mix_xml::{Content, Document, Element};
    use std::collections::HashMap;

    pub(super) struct NfaValidator<'d> {
        dtd: &'d Dtd,
        automata: HashMap<Name, Nfa>,
    }

    impl<'d> NfaValidator<'d> {
        pub(super) fn new(dtd: &'d Dtd) -> NfaValidator<'d> {
            let mut automata = HashMap::new();
            for (n, m) in dtd.types.iter() {
                if let ContentModel::Elements(r) = m {
                    automata.insert(n, Nfa::from_regex(r));
                }
            }
            NfaValidator { dtd, automata }
        }

        pub(super) fn validate_element(&self, e: &Element) -> Result<(), ValidationError> {
            let mut path = Vec::new();
            self.go(e, &mut path)
        }

        pub(super) fn validate_document(&self, doc: &Document) -> Result<(), ValidationError> {
            if doc.root.name != self.dtd.doc_type {
                return Err(ValidationError {
                    path: vec![doc.root.name],
                    kind: ValidationErrorKind::WrongDocType {
                        expected: self.dtd.doc_type,
                        actual: doc.root.name,
                    },
                });
            }
            if let Some(id) = doc.duplicate_id() {
                return Err(ValidationError {
                    path: vec![doc.root.name],
                    kind: ValidationErrorKind::DuplicateId(id),
                });
            }
            self.validate_element(&doc.root)
        }

        fn go(&self, e: &Element, path: &mut Vec<Name>) -> Result<(), ValidationError> {
            path.push(e.name);
            let fail = |path: &[Name], kind| {
                Err(ValidationError {
                    path: path.to_vec(),
                    kind,
                })
            };
            let Some(model) = self.dtd.get(e.name) else {
                return fail(path, ValidationErrorKind::UndeclaredName(e.name));
            };
            match (&e.content, model) {
                (Content::Text(_), ContentModel::Pcdata) => {}
                (Content::Text(_), ContentModel::Elements(_)) => {
                    return fail(
                        path,
                        ValidationErrorKind::PcdataMismatch {
                            name: e.name,
                            had_text: true,
                        },
                    );
                }
                (Content::Elements(_), ContentModel::Pcdata) => {
                    return fail(
                        path,
                        ValidationErrorKind::PcdataMismatch {
                            name: e.name,
                            had_text: false,
                        },
                    );
                }
                (Content::Elements(children), ContentModel::Elements(_)) => {
                    let word: Vec<mix_relang::Sym> =
                        children.iter().map(|c| c.name.untagged()).collect();
                    let nfa = self.automata.get(&e.name).expect("compiled with the DTD");
                    if !nfa.accepts(&word) {
                        return fail(
                            path,
                            ValidationErrorKind::ContentMismatch {
                                name: e.name,
                                found: children.iter().map(|c| c.name).collect(),
                            },
                        );
                    }
                    for c in children {
                        self.go(c, path)?;
                    }
                }
            }
            path.pop();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::d1_department;
    use mix_xml::parse_document;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dept_doc() -> Document {
        parse_document(
            "<department>\
               <name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>t2</title><author>a</author><conference/></publication>\
               </gradStudent>\
             </department>",
        )
        .unwrap()
    }

    #[test]
    fn valid_department_document() {
        assert!(satisfies(&d1_department(), &dept_doc()));
    }

    #[test]
    fn wrong_doc_type() {
        let doc = parse_document("<professor><firstName>x</firstName></professor>").unwrap();
        let err = validate_document(&d1_department(), &doc).unwrap_err();
        assert!(matches!(err.kind, ValidationErrorKind::WrongDocType { .. }));
    }

    #[test]
    fn content_mismatch_reports_path() {
        // professor missing lastName
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
               </gradStudent>\
             </department>",
        )
        .unwrap();
        let err = validate_document(&d1_department(), &doc).unwrap_err();
        match &err.kind {
            ValidationErrorKind::ContentMismatch { name, .. } => {
                assert_eq!(name.as_str(), "professor");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("department/professor"), "{shown}");
    }

    #[test]
    fn pcdata_mismatch_both_directions() {
        // journal is EMPTY (ε) but given text
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author>\
                   <journal>VLDB J.</journal></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
               </gradStudent>\
             </department>",
        )
        .unwrap();
        let err = validate_document(&d1_department(), &doc).unwrap_err();
        assert!(matches!(
            err.kind,
            ValidationErrorKind::PcdataMismatch { had_text: true, .. }
        ));
        // name is PCDATA but given children
        let doc = parse_document(
            "<department><name><x/></name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
               </gradStudent>\
             </department>",
        )
        .unwrap();
        let err = validate_document(&d1_department(), &doc).unwrap_err();
        assert!(matches!(
            err.kind,
            ValidationErrorKind::PcdataMismatch {
                had_text: false,
                ..
            }
        ));
    }

    #[test]
    fn undeclared_name() {
        let dtd = crate::parse::parse_compact("{<r : a?> <a : PCDATA>}").unwrap();
        let doc = parse_document("<r><b>hm</b></r>").unwrap();
        let err = validate_document(&dtd, &doc).unwrap_err();
        // content model is checked first: b is not in a?'s language
        assert!(matches!(
            err.kind,
            ValidationErrorKind::ContentMismatch { .. }
        ));
        // but a document whose *root* is undeclared reports UndeclaredName
        let dtd2 = crate::parse::parse_compact("{<b : zzz?> <zzz : PCDATA>}").unwrap();
        let doc2 = parse_document("<b><undeclared/></b>").unwrap();
        let err2 = validate_document(&dtd2, &doc2).unwrap_err();
        assert!(matches!(
            err2.kind,
            ValidationErrorKind::ContentMismatch { .. }
        ));
    }

    #[test]
    fn empty_content_matches_epsilon_model() {
        let dtd = crate::parse::parse_compact("{<r : a*> <a : EMPTY>}").unwrap();
        let doc = parse_document("<r><a/><a/></r>").unwrap();
        assert!(satisfies(&dtd, &doc));
        let doc = parse_document("<r/>").unwrap();
        assert!(satisfies(&dtd, &doc));
    }

    #[test]
    fn validator_is_reusable() {
        let dtd = d1_department();
        let v = Validator::new(&dtd);
        for _ in 0..3 {
            assert!(v.validate_document(&dept_doc()).is_ok());
        }
    }

    /// Applies one random mutation to the element at position `at` in
    /// document order (counting down `at`): drops, duplicates or
    /// renames one of its children, or swaps its text for children or
    /// its children for text. Returns whether it mutated something.
    fn mutate(e: &mut Element, at: &mut usize, names: &[Name], rng: &mut StdRng) -> bool {
        if *at > 0 {
            *at -= 1;
            return match &mut e.content {
                Content::Elements(v) => v.iter_mut().any(|c| mutate(c, at, names, rng)),
                Content::Text(_) => false,
            };
        }
        let rename = names[rng.gen_range(0..names.len())];
        match &mut e.content {
            Content::Text(_) => {
                e.content = Content::Elements(vec![Element::new(rename.as_str(), vec![])]);
            }
            Content::Elements(v) if v.is_empty() || rng.gen_bool(0.2) => {
                e.content = Content::Text("t".into());
            }
            Content::Elements(v) => {
                let k = rng.gen_range(0..v.len());
                match rng.gen_range(0..4) {
                    0 => {
                        v.remove(k);
                    }
                    1 => {
                        let copy = v[k].deep_clone_fresh();
                        v.insert(k, copy);
                    }
                    // a plain clone shares IDs with the original
                    2 => {
                        let copy = v[k].clone();
                        v.insert(k, copy);
                    }
                    _ => v[k].name = rename,
                }
            }
        }
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The compiled validator gives the NFA oracle's verdict, error
        /// kind and path on sampled valid documents and on mutated ones,
        /// as a document and as an element.
        #[test]
        fn compiled_validator_agrees_with_the_nfa_oracle(
            paper in 0u8..3,
            seed in 0u64..u64::MAX,
        ) {
            use crate::generate::{random_dtd, DtdGenConfig};
            use crate::sample::{DocConfig, DocSampler};
            let mut rng = StdRng::seed_from_u64(seed);
            let dtd = if paper == 0 {
                d1_department()
            } else {
                random_dtd(&mut rng, &DtdGenConfig::default())
            };
            let compiled = Validator::new(&dtd);
            let oracle = oracle::NfaValidator::new(&dtd);
            let mut names: Vec<Name> = dtd.types.keys().collect();
            names.push(Name::intern("undeclared"));
            let sampler = DocSampler::new(&dtd, DocConfig::default()).expect("productive");
            let mut invalid = 0;
            for _ in 0..4 {
                let mut doc = sampler.sample(&mut rng);
                prop_assert_eq!(compiled.validate_document(&doc), Ok(()));
                for _ in 0..rng.gen_range(1..4) {
                    let mut at = rng.gen_range(0..doc.size());
                    mutate(&mut doc.root, &mut at, &names, &mut rng);
                }
                let got = compiled.validate_document(&doc);
                prop_assert_eq!(&got, &oracle.validate_document(&doc), "{:?}", doc);
                prop_assert_eq!(
                    compiled.validate_element(&doc.root),
                    oracle.validate_element(&doc.root),
                    "{:?}",
                    doc
                );
                invalid += usize::from(got.is_err());
            }
            // most mutations break validity
            prop_assert!(invalid > 0, "four mutated documents all valid");
        }
    }

    /// A model whose DFA would pass the state bound still validates, by
    /// its NFA.
    #[test]
    fn models_past_the_dfa_bound_run_as_nfas() {
        // (a|b)*, a, (a|b){11}: the DFA must remember the last 12 letters
        let tail = "(a | b), ".repeat(10);
        let src = format!("{{<r : (a | b)*, a, {tail}(a | b)> <a : EMPTY> <b : EMPTY>}}");
        let dtd = crate::parse::parse_compact(&src).unwrap();
        let v = Validator::new(&dtd);
        let oracle = oracle::NfaValidator::new(&dtd);
        let Some(Type::Elements(model)) = &v.types[v.slots[&dtd.doc_type]] else {
            panic!("r has element content");
        };
        assert!(matches!(model.run, Run::Nfa(_)));
        for word in [
            "a".repeat(12),
            format!("a{}", "b".repeat(11)),
            format!("b{}", "a".repeat(12)),
        ] {
            let kids: String = word.chars().map(|c| format!("<{c}/>")).collect();
            let doc = parse_document(&format!("<r>{kids}</r>")).unwrap();
            assert_eq!(
                v.validate_document(&doc),
                oracle.validate_document(&doc),
                "{word}"
            );
        }
    }
}
