//! Satisfaction of specialized DTDs (Definition 3.10).
//!
//! An s-DTD is a nondeterministic bottom-up tree automaton whose states are
//! the specializations `n^i`. An element satisfies the s-DTD if *some*
//! assignment of specializations to nodes makes every node's tagged child
//! sequence a member of its assigned specialized type. We compute, bottom
//! up, the exact set of specializations assignable to each subtree, using
//! NFA simulation where each child position offers a *set* of tagged
//! letters.

use crate::model::{ContentModel, SDtd};
use mix_relang::symbol::Sym;
use mix_relang::Nfa;
use mix_xml::{Content, Document, Element};
use std::collections::HashMap;

/// A compiled s-DTD acceptor, reusable across documents.
pub struct SAcceptor<'d> {
    sdtd: &'d SDtd,
    automata: HashMap<Sym, Nfa>,
}

impl<'d> SAcceptor<'d> {
    /// Compiles every specialized content model.
    pub fn new(sdtd: &'d SDtd) -> SAcceptor<'d> {
        let mut automata = HashMap::new();
        for (s, m) in sdtd.types.iter() {
            if let ContentModel::Elements(r) = m {
                automata.insert(s, Nfa::from_regex(r));
            }
        }
        SAcceptor { sdtd, automata }
    }

    /// The set of specializations assignable to `e` (bottom-up).
    pub fn assignable(&self, e: &Element) -> Vec<Sym> {
        let child_sets: Vec<Vec<Sym>> = e.children().iter().map(|c| self.assignable(c)).collect();
        let mut out = Vec::new();
        for spec in self.sdtd.specializations(e.name) {
            let ok = match (self.sdtd.get(spec), &e.content) {
                (Some(ContentModel::Pcdata), Content::Text(_)) => true,
                (Some(ContentModel::Elements(_)), Content::Elements(_)) => {
                    let nfa = self.automata.get(&spec).expect("compiled");
                    accepts_set_word(nfa, &child_sets)
                }
                _ => false,
            };
            if ok {
                out.push(spec);
            }
        }
        out
    }

    /// Document-level satisfaction: the root must be assignable *to the
    /// document type itself* and IDs must be unique.
    pub fn document_satisfies(&self, doc: &Document) -> bool {
        doc.root.name == self.sdtd.doc_type.name
            && doc.duplicate_id().is_none()
            && self.assignable(&doc.root).contains(&self.sdtd.doc_type)
    }
}

/// NFA simulation where position `i` of the word may be any symbol in
/// `sets[i]` — "does some choice yield an accepted word?".
fn accepts_set_word(nfa: &Nfa, sets: &[Vec<Sym>]) -> bool {
    let n = nfa.len();
    let mut current = vec![false; n];
    current[0] = true;
    let mut next = vec![false; n];
    for set in sets {
        if set.is_empty() {
            return false; // this child satisfies no specialization at all
        }
        next.iter_mut().for_each(|b| *b = false);
        let mut any = false;
        for (s, live) in current.iter().enumerate() {
            if !live {
                continue;
            }
            for &(sym, t) in &nfa.transitions[s] {
                if set.contains(&sym) {
                    next[t as usize] = true;
                    any = true;
                }
            }
        }
        if !any {
            return false;
        }
        std::mem::swap(&mut current, &mut next);
    }
    current
        .iter()
        .zip(&nfa.accepting)
        .any(|(live, acc)| *live && *acc)
}

/// One-shot: does `doc` satisfy `sdtd`?
pub fn sdtd_satisfies(sdtd: &SDtd, doc: &Document) -> bool {
    SAcceptor::new(sdtd).document_satisfies(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_compact_sdtd;
    use mix_xml::parse_document;

    /// The tight s-DTD of Example 3.4 (D4), for professors only.
    fn d4_like() -> SDtd {
        parse_compact_sdtd(
            "{<withJournals : professor*>\
              <professor : firstName, lastName, publication*, publication^1, \
                           publication*, publication^1, publication*, teaches>\
              <publication : title, author+, (journal | conference)>\
              <publication^1 : title, author+, journal>\
              <teaches : EMPTY> <journal : EMPTY> <conference : EMPTY>}",
        )
        .unwrap()
    }

    fn prof(pub_kinds: &[&str]) -> String {
        let pubs: String = pub_kinds
            .iter()
            .map(|k| format!("<publication><title>t</title><author>a</author><{k}/></publication>"))
            .collect();
        format!(
            "<withJournals><professor>\
               <firstName>Y</firstName><lastName>P</lastName>{pubs}<teaches/>\
             </professor></withJournals>"
        )
    }

    #[test]
    fn two_journals_satisfy_d4() {
        let s = d4_like();
        let doc = parse_document(&prof(&["journal", "journal"])).unwrap();
        assert!(sdtd_satisfies(&s, &doc));
        let doc = parse_document(&prof(&["conference", "journal", "journal"])).unwrap();
        assert!(sdtd_satisfies(&s, &doc));
        let doc =
            parse_document(&prof(&["journal", "conference", "journal", "conference"])).unwrap();
        assert!(sdtd_satisfies(&s, &doc));
    }

    #[test]
    fn fewer_than_two_journals_fail_d4() {
        let s = d4_like();
        for kinds in [vec!["journal"], vec!["conference", "conference"], vec![]] {
            let doc = parse_document(&prof(&kinds)).unwrap();
            assert!(
                !sdtd_satisfies(&s, &doc),
                "should fail with publications {kinds:?}"
            );
        }
    }

    #[test]
    fn merged_plain_dtd_would_accept_what_sdtd_rejects() {
        // This is the whole point of s-DTDs (Section 3.3): the merged DTD
        // loses the two-journal constraint.
        let s = d4_like();
        let merged_types = "{<withJournals : professor*>\
              <professor : firstName, lastName, publication, publication, publication*, teaches>\
              <publication : title, author+, (journal | conference)>\
              <teaches : EMPTY> <journal : EMPTY> <conference : EMPTY>}";
        let plain = crate::parse::parse_compact(merged_types).unwrap();
        let doc = parse_document(&prof(&["conference", "conference"])).unwrap();
        assert!(crate::validate::satisfies(&plain, &doc));
        assert!(!sdtd_satisfies(&s, &doc));
    }

    #[test]
    fn plain_dtd_as_sdtd_agrees_with_validation() {
        let d = crate::paper::d1_department();
        let s = SDtd::from_dtd(&d);
        let doc = parse_document(
            "<department><name>CS</name>\
               <professor><firstName>Y</firstName><lastName>P</lastName>\
                 <publication><title>t</title><author>a</author><journal/></publication>\
                 <teaches/></professor>\
               <gradStudent><firstName>P</firstName><lastName>V</lastName>\
                 <publication><title>t</title><author>a</author><conference/></publication>\
               </gradStudent></department>",
        )
        .unwrap();
        assert!(crate::validate::satisfies(&d, &doc));
        assert!(sdtd_satisfies(&s, &doc));
        let bad = parse_document("<department><name>CS</name></department>").unwrap();
        assert!(!crate::validate::satisfies(&d, &bad));
        assert!(!sdtd_satisfies(&s, &bad));
    }

    #[test]
    fn wrong_root_name_rejected() {
        let s = d4_like();
        let doc = parse_document("<other/>").unwrap();
        assert!(!sdtd_satisfies(&s, &doc));
    }

    #[test]
    fn pcdata_specialization() {
        // A name can have one PCDATA specialization and one element one.
        let s = parse_compact_sdtd("{<r : x, x^1> <x : PCDATA> <x^1 : y?> <y : EMPTY>}").unwrap();
        let doc = parse_document("<r><x>text</x><x><y/></x></r>").unwrap();
        assert!(sdtd_satisfies(&s, &doc));
        // both-text fails: second x must match x^1 (element content)
        let doc = parse_document("<r><x>a</x><x>b</x></r>").unwrap();
        assert!(!sdtd_satisfies(&s, &doc));
    }
}
