//! DTD parsers: real XML `<!ELEMENT …>` syntax and the paper's compact
//! `<name : model>` notation (which is also what our `Display` emits).
//!
//! Names that are *used* but never declared are completed with `PCDATA`
//! definitions — the paper does this implicitly (D1 never declares
//! `firstName`, `title`, …).

use crate::model::{ContentModel, Dtd, SDtd};
use mix_relang::ast::Regex;
use mix_relang::parser::ParseError;
use mix_relang::symbol::Name;
use std::fmt;

/// A DTD parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DTD parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for DtdError {}

impl From<ParseError> for DtdError {
    fn from(e: ParseError) -> DtdError {
        DtdError {
            pos: e.pos,
            msg: e.msg,
        }
    }
}

/// One parsed declaration before assembly.
enum Decl {
    Pcdata,
    Any,
    Model(Regex),
}

fn finish_dtd(
    doc_type: Option<Name>,
    decls: Vec<(mix_relang::Sym, Decl)>,
    complete_pcdata: bool,
) -> Result<(Option<Dtd>, SDtd), DtdError> {
    let doc_type = doc_type
        .or_else(|| decls.first().map(|(s, _)| s.name))
        .ok_or(DtdError {
            pos: 0,
            msg: "empty DTD".into(),
        })?;
    // ANY is a macro for (n1 | … | nk)* over all declared names (Remark 1).
    let all_names: Vec<Name> = {
        let mut v: Vec<Name> = decls.iter().map(|(s, _)| s.name).collect();
        v.dedup();
        v
    };
    let any_model = Regex::star(Regex::alt(all_names.iter().map(|&n| Regex::name(n))));
    let mut sdtd = SDtd::new(doc_type.untagged());
    for (sym, d) in decls {
        let m = match d {
            Decl::Pcdata => ContentModel::Pcdata,
            Decl::Any => ContentModel::Elements(any_model.clone()),
            Decl::Model(r) => ContentModel::Elements(r),
        };
        if sdtd.types.insert(sym, m).is_some() {
            return Err(DtdError {
                pos: 0,
                msg: format!("duplicate declaration for '{sym}'"),
            });
        }
    }
    if complete_pcdata {
        let used: Vec<mix_relang::Sym> = sdtd
            .types
            .iter()
            .flat_map(|(_, m)| {
                m.regex()
                    .map(|r| r.syms().into_iter().collect::<Vec<_>>())
                    .unwrap_or_default()
            })
            .collect();
        for s in used {
            if !sdtd.types.contains(s) {
                sdtd.types.insert(s, ContentModel::Pcdata);
            }
        }
    }
    // If every key is untagged this is a plain DTD as well.
    let plain = if sdtd.types.keys().all(|k| k.is_untagged()) {
        let mut d = Dtd::new(doc_type);
        for (s, m) in sdtd.types.iter() {
            d.types.insert(s.name, m.clone());
        }
        Some(d)
    } else {
        None
    };
    Ok((plain, sdtd))
}

/// Parses the paper's compact notation, e.g.
///
/// ```text
/// {<department : name, professor+, gradStudent+, course*>
///  <professor : firstName, lastName, publication+, teaches>}
/// ```
///
/// Tagged entries (`<publication^1 : …>`) make it an s-DTD; `parse_compact`
/// rejects those, [`parse_compact_sdtd`] accepts them. The document type is
/// the first entry unless an explicit `(document type: name)` annotation —
/// which `Display` emits — names another one. `PCDATA`, `#PCDATA`, `EMPTY`
/// and `ANY` keywords are understood; used-but-undeclared names become
/// `PCDATA`.
pub fn parse_compact_sdtd(src: &str) -> Result<SDtd, DtdError> {
    let mut c = mix_relang::parser::Cursor::new(src);
    let braced = c.eat('{');
    let doc_type = parse_doc_type_annotation(&mut c)?;
    let mut decls: Vec<(mix_relang::Sym, Decl)> = Vec::new();
    loop {
        if braced && c.eat('}') {
            break;
        }
        if c.at_end() {
            if braced {
                return Err(DtdError {
                    pos: c.pos(),
                    msg: "missing closing '}'".into(),
                });
            }
            break;
        }
        c.expect('<').map_err(DtdError::from)?;
        let n = c.name().map_err(DtdError::from)?;
        let name = Name::intern(n);
        let sym = if c.eat('^') {
            let mut digits = String::new();
            while matches!(c.peek(), Some(ch) if ch.is_ascii_digit()) {
                digits.push(c.bump().expect("peeked digit"));
            }
            let tag: u32 = digits.parse().map_err(|_| DtdError {
                pos: c.pos(),
                msg: "expected a tag number after '^'".into(),
            })?;
            name.tagged(tag)
        } else {
            name.untagged()
        };
        c.expect(':').map_err(DtdError::from)?;
        let r = c.alt().map_err(DtdError::from)?;
        c.expect('>').map_err(DtdError::from)?;
        decls.push((sym, classify(r)));
    }
    let (_, sdtd) = finish_dtd(doc_type, decls, true)?;
    Ok(sdtd)
}

/// Eats an optional `(document type: name)` annotation — the form `Display`
/// puts right after the opening brace so round-trips preserve a document
/// type that is not the first declaration.
fn parse_doc_type_annotation(
    c: &mut mix_relang::parser::Cursor<'_>,
) -> Result<Option<Name>, DtdError> {
    if !c.eat('(') {
        return Ok(None);
    }
    let kw1 = c.name().map_err(DtdError::from)?.to_owned();
    // ':' is a name character in this grammar, so `name()` reads "type:"
    // as one token when nothing separates them
    let kw2 = c.name().map_err(DtdError::from)?.to_owned();
    if kw1 != "document" || !(kw2 == "type" || kw2 == "type:") {
        return Err(DtdError {
            pos: c.pos(),
            msg: format!("expected '(document type: …)', got '({kw1} {kw2} …)'"),
        });
    }
    if kw2 == "type" {
        c.expect(':').map_err(DtdError::from)?;
    }
    let n = c.name().map_err(DtdError::from)?;
    let name = Name::intern(n);
    c.expect(')').map_err(DtdError::from)?;
    Ok(Some(name))
}

/// Like [`parse_compact_sdtd`] but requires all entries untagged and returns
/// a plain [`Dtd`].
pub fn parse_compact(src: &str) -> Result<Dtd, DtdError> {
    let sdtd = parse_compact_sdtd(src)?;
    if let Some(t) = sdtd.types.keys().find(|k| !k.is_untagged()) {
        return Err(DtdError {
            pos: 0,
            msg: format!("'{t}' is tagged: this is a specialized DTD, not a plain DTD"),
        });
    }
    let mut d = Dtd::new(sdtd.doc_type.name);
    for (s, m) in sdtd.types.iter() {
        d.types.insert(s.name, m.clone());
    }
    Ok(d)
}

/// Recognizes the PCDATA / EMPTY / ANY keywords, which the regex parser
/// reads as single-name expressions.
fn classify(r: Regex) -> Decl {
    if let Regex::Sym(s) = &r {
        match s.name.as_str() {
            "PCDATA" | "#PCDATA" => return Decl::Pcdata,
            "EMPTY" => return Decl::Model(Regex::Epsilon),
            "ANY" => return Decl::Any,
            _ => {}
        }
    }
    Decl::Model(r)
}

/// Parses real XML DTD syntax:
///
/// ```text
/// <!DOCTYPE department [
///   <!ELEMENT department (name, professor+, gradStudent+, course*)>
///   <!ELEMENT name (#PCDATA)>
/// ]>
/// ```
///
/// A bare sequence of `<!ELEMENT …>` declarations (no `DOCTYPE` wrapper) is
/// also accepted, with the first declaration giving the document type.
/// `ATTLIST` declarations are skipped (the model keeps only `id`
/// attributes, Section 2), comments are ignored.
pub fn parse_xml_dtd(src: &str) -> Result<Dtd, DtdError> {
    let mut c = mix_relang::parser::Cursor::new(src);
    let mut doc_type: Option<Name> = None;
    let mut in_subset = false;
    let mut decls: Vec<(mix_relang::Sym, Decl)> = Vec::new();
    loop {
        if c.at_end() {
            break;
        }
        if in_subset && c.eat(']') {
            c.expect('>').map_err(DtdError::from)?;
            in_subset = false;
            continue;
        }
        c.expect('<').map_err(DtdError::from)?;
        c.expect('!').map_err(DtdError::from)?;
        if c.eat('-') {
            // comment `<!-- … -->`
            c.expect('-').map_err(DtdError::from)?;
            let mut last2 = ['\0'; 2];
            loop {
                match c.bump() {
                    None => {
                        return Err(DtdError {
                            pos: c.pos(),
                            msg: "unterminated comment".into(),
                        })
                    }
                    Some('>') if last2 == ['-', '-'] => break,
                    Some(ch) => {
                        last2 = [last2[1], ch];
                    }
                }
            }
            continue;
        }
        let kw = c.name().map_err(DtdError::from)?;
        match kw {
            "DOCTYPE" => {
                let n = c.name().map_err(DtdError::from)?;
                doc_type = Some(Name::intern(n));
                c.expect('[').map_err(DtdError::from)?;
                in_subset = true;
            }
            "ELEMENT" => {
                let n = c.name().map_err(DtdError::from)?;
                let name = Name::intern(n);
                let r = c.alt().map_err(DtdError::from)?;
                c.expect('>').map_err(DtdError::from)?;
                decls.push((name.untagged(), classify(r)));
            }
            "ATTLIST" => {
                // skip to the closing '>'
                loop {
                    match c.bump() {
                        Some('>') => break,
                        Some(_) => {}
                        None => {
                            return Err(DtdError {
                                pos: c.pos(),
                                msg: "unterminated ATTLIST".into(),
                            })
                        }
                    }
                }
            }
            other => {
                return Err(DtdError {
                    pos: c.pos(),
                    msg: format!("unsupported declaration '<!{other} …>'"),
                })
            }
        }
    }
    let (plain, _) = finish_dtd(doc_type, decls, true)?;
    plain.ok_or(DtdError {
        pos: 0,
        msg: "XML DTDs cannot contain tagged names".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_relang::symbol::name;

    /// The paper's department DTD (D1).
    const D1: &str = "{\
        <department : name, professor+, gradStudent+, course*>\
        <professor : firstName, lastName, publication+, teaches>\
        <gradStudent : firstName, lastName, publication+>\
        <publication : title, author+, (journal | conference)>}";

    #[test]
    fn parse_d1_compact() {
        let d = parse_compact(D1).unwrap();
        assert_eq!(d.doc_type, name("department"));
        // 4 declared + name, firstName, lastName, publication?, teaches,
        // title, author, journal, conference, course completed as PCDATA
        assert!(d.types.len() >= 4);
        assert!(d.get(name("firstName")).unwrap().is_pcdata());
        assert!(d.get(name("journal")).unwrap().is_pcdata());
        assert!(d.undefined_names().is_empty());
        let prof = d.get(name("professor")).unwrap().regex().unwrap();
        assert_eq!(
            prof.to_string(),
            "firstName, lastName, publication+, teaches"
        );
    }

    #[test]
    fn doc_type_annotation_overrides_first_declaration() {
        let d = parse_compact("{ (document type: r)\n <a : PCDATA> <r : a*>}").unwrap();
        assert_eq!(d.doc_type, name("r"));
        // a malformed annotation fails loudly instead of being skipped
        assert!(parse_compact("{(doc kind: r) <r : a*>}").is_err());
    }

    #[test]
    fn compact_without_braces() {
        let d = parse_compact("<r : a*> <a : PCDATA>").unwrap();
        assert_eq!(d.doc_type, name("r"));
        assert!(d.get(name("a")).unwrap().is_pcdata());
    }

    #[test]
    fn compact_sdtd_with_tags() {
        let s = parse_compact_sdtd(
            "{<withJournals : professor*>\
              <professor : publication*, publication^1, publication*>\
              <publication : title, (journal | conference)>\
              <publication^1 : title, journal>}",
        )
        .unwrap();
        assert_eq!(s.doc_type, name("withJournals").untagged());
        assert_eq!(s.specializations(name("publication")).len(), 2);
        // plain parse of the same text must fail
        assert!(parse_compact("{<a : b^1> <b^1 : PCDATA>}").is_err());
    }

    #[test]
    fn keywords() {
        let d = parse_compact("{<r : a, b, c> <a : EMPTY> <b : ANY> <c : #PCDATA>}").unwrap();
        assert_eq!(d.get(name("a")).unwrap().regex().unwrap(), &Regex::Epsilon);
        assert!(d.get(name("c")).unwrap().is_pcdata());
        let b = d.get(name("b")).unwrap().regex().unwrap();
        // ANY = (r | a | b | c)*
        assert!(b.to_string().contains('*'));
        assert_eq!(b.names().len(), 4);
    }

    #[test]
    fn parse_xml_syntax() {
        let src = r#"
            <!DOCTYPE department [
              <!-- the running example -->
              <!ELEMENT department (name, professor+, gradStudent+, course*)>
              <!ELEMENT professor (firstName, lastName, publication+, teaches)>
              <!ELEMENT publication (title, author+, (journal | conference))>
              <!ELEMENT name (#PCDATA)>
              <!ATTLIST professor id ID #REQUIRED>
            ]>
        "#;
        let d = parse_xml_dtd(src).unwrap();
        assert_eq!(d.doc_type, name("department"));
        assert!(d.get(name("name")).unwrap().is_pcdata());
        assert!(d.get(name("title")).unwrap().is_pcdata()); // completed
        assert!(d.undefined_names().is_empty());
    }

    #[test]
    fn xml_syntax_without_doctype() {
        let d = parse_xml_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>").unwrap();
        assert_eq!(d.doc_type, name("r"));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(parse_compact("{<r : a> <r : b>}").is_err());
        assert!(parse_xml_dtd("<!ELEMENT r (a)> <!ELEMENT r (b)>").is_err());
    }

    #[test]
    fn hash_in_a_name_is_an_error_at_its_byte() {
        // `{<r : a` is 7 bytes, `<!ELEMENT r (a` 14 and `<!ELEMENT ` 10
        assert_eq!(
            parse_compact("{<r : a#b*> <a#b : PCDATA>}")
                .unwrap_err()
                .pos,
            7
        );
        assert_eq!(
            parse_compact("{<r : a*> <a#b : PCDATA>}").unwrap_err().pos,
            12
        );
        assert_eq!(parse_xml_dtd("<!ELEMENT r (a#b*)>").unwrap_err().pos, 14);
        assert_eq!(
            parse_xml_dtd("<!ELEMENT #foo (#PCDATA)>").unwrap_err().pos,
            10
        );
        // the keyword itself still parses, in both syntaxes
        let d = parse_compact("{<r : a*> <a : #PCDATA>}").unwrap();
        assert_eq!(d.get(name("a")), Some(&ContentModel::Pcdata));
        let d = parse_xml_dtd("<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>").unwrap();
        assert_eq!(d.get(name("a")), Some(&ContentModel::Pcdata));
    }

    #[test]
    fn empty_and_garbage_rejected() {
        assert!(parse_compact("").is_err());
        assert!(parse_compact("{}").is_err());
        assert!(parse_compact("{<r a>}").is_err());
        assert!(parse_xml_dtd("<!WIDGET r>").is_err());
    }
}
