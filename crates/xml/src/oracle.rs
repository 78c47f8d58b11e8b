//! The recursive-descent parser this crate used before the event reader
//! became its one parser, and the `write!`-based serializer the byte
//! writer replaced. Both are compiled only for tests, as the references
//! the reader and the writer are checked against; the parser has no
//! nesting cap, so callers keep their inputs shallow.

use crate::element::{Content, Document, ElemId, Element};
use crate::parser::{escape, unescape, XmlError};
use crate::writer::WriteConfig;
use mix_relang::symbol::Name;
use std::io::{self, Write};

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match self.src[self.pos..].find("?>") {
                    Some(k) => self.pos += k + 2,
                    None => return Err(self.err("unterminated processing instruction")),
                }
            } else if self.starts_with("<!--") {
                match self.src[self.pos..].find("-->") {
                    Some(k) => self.pos += k + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {
                self.bump();
            }
            _ => return Err(self.err("expected an element name")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-'))
        {
            self.bump();
        }
        Ok(&self.src[start..self.pos])
    }

    fn quoted(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => {
                self.bump();
                q
            }
            _ => return Err(self.err("expected a quoted attribute value")),
        };
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let v = self.src[start..self.pos].to_owned();
                self.bump();
                return Ok(unescape(&v).into_owned());
            }
            self.bump();
        }
        Err(self.err("unterminated attribute value"))
    }

    /// Parses `<name …>` up to and including the closing `>`; returns the
    /// element with its content.
    fn element(&mut self) -> Result<Element, XmlError> {
        if !self.eat_str("<") {
            return Err(self.err("expected '<'"));
        }
        let name = self.name()?;
        let elem_name = Name::intern(name);
        let mut id: Option<ElemId> = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.bump();
                    if !self.eat_str(">") {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok(Element {
                        name: elem_name,
                        id: id.unwrap_or_else(ElemId::fresh),
                        content: Content::Elements(vec![]),
                    });
                }
                Some('>') => {
                    self.bump();
                    break;
                }
                _ => {
                    let attr = self
                        .name()
                        .map_err(|_| self.err("expected attribute, '/>' or '>'"))?;
                    self.skip_ws();
                    if !self.eat_str("=") {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.skip_ws();
                    let value = self.quoted()?;
                    if attr.eq_ignore_ascii_case("id") {
                        if id.is_some() {
                            return Err(self.err("duplicate id attribute"));
                        }
                        id = Some(ElemId::named(&value));
                    } else {
                        return Err(self.err(format!(
                            "attribute '{attr}' is outside the paper's model (only 'id' is allowed)"
                        )));
                    }
                }
            }
        }
        let content = self.content(name)?;
        Ok(Element {
            name: elem_name,
            id: id.unwrap_or_else(ElemId::fresh),
            content,
        })
    }

    /// Parses content up to and including `</name>`.
    fn content(&mut self, open_name: &str) -> Result<Content, XmlError> {
        // Decide between character content and element content by scanning
        // for the first non-whitespace character.
        let mut children = Vec::new();
        let mut text: Option<String> = None;
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                // The paper's compact notation allows `</>`.
                self.skip_ws();
                if self.peek() != Some('>') {
                    let n = self.name()?;
                    if n != open_name {
                        return Err(
                            self.err(format!("mismatched close tag: '{n}' vs '{open_name}'"))
                        );
                    }
                    self.skip_ws();
                }
                if !self.eat_str(">") {
                    return Err(self.err("expected '>' in close tag"));
                }
                return Ok(match text {
                    Some(t) => {
                        if !children.is_empty() {
                            return Err(self.err("mixed content is outside the paper's model"));
                        }
                        Content::Text(t)
                    }
                    None => Content::Elements(children),
                });
            }
            match self.peek() {
                None => return Err(self.err(format!("unterminated element '{open_name}'"))),
                Some('<') => {
                    if self.starts_with("<!--") {
                        self.skip_misc()?;
                        continue;
                    }
                    if text.as_deref().is_some_and(|t| !t.trim().is_empty()) {
                        return Err(self.err("mixed content is outside the paper's model"));
                    }
                    text = None;
                    children.push(self.element()?);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == '<' {
                            break;
                        }
                        self.bump();
                    }
                    let chunk = &self.src[start..self.pos];
                    if chunk.trim().is_empty() && !children.is_empty() {
                        // inter-element whitespace
                        continue;
                    }
                    let t = text.get_or_insert_with(String::new);
                    t.push_str(&unescape(chunk));
                }
            }
        }
    }
}

/// Parses a document: optional XML prolog/comments, one root element,
/// unique IDs.
pub(crate) fn parse_document(src: &str) -> Result<Document, XmlError> {
    let mut p = P { src, pos: 0 };
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos < src.len() {
        return Err(p.err("trailing input after root element"));
    }
    let doc = Document::new(root);
    if let Some(id) = doc.duplicate_id() {
        return Err(XmlError {
            pos: 0,
            msg: format!("duplicate element id '{id}'"),
        });
    }
    Ok(doc)
}

/// The serializer as it was before the byte writer: a `write!` per tag
/// and an escaped copy of every text and ID.
fn write_elem<W: Write>(
    e: &Element,
    cfg: WriteConfig,
    level: usize,
    out: &mut W,
) -> io::Result<()> {
    const SPACES: &str = "                                                                ";
    let pad = |out: &mut W, level: usize| -> io::Result<()> {
        if let Some(w) = cfg.indent {
            let mut n = level * w;
            while n > 0 {
                let take = n.min(SPACES.len());
                out.write_all(&SPACES.as_bytes()[..take])?;
                n -= take;
            }
        }
        Ok(())
    };
    let nl = |out: &mut W| -> io::Result<()> {
        if cfg.indent.is_some() {
            out.write_all(b"\n")?;
        }
        Ok(())
    };
    pad(out, level)?;
    write!(out, "<{}", e.name)?;
    if cfg.write_ids && !e.id.is_auto() {
        write!(out, " id=\"{}\"", escape(&e.id.to_string()))?;
    }
    match &e.content {
        Content::Elements(v) if v.is_empty() => {
            out.write_all(b"/>")?;
            nl(out)?;
        }
        Content::Elements(v) => {
            out.write_all(b">")?;
            nl(out)?;
            for c in v {
                write_elem(c, cfg, level + 1, out)?;
            }
            pad(out, level)?;
            write!(out, "</{}>", e.name)?;
            nl(out)?;
        }
        Content::Text(t) => {
            write!(out, ">{}</{}>", escape(t), e.name)?;
            nl(out)?;
        }
    }
    Ok(())
}

/// The old serializer into a sink at nesting `level`.
pub(crate) fn write_element_at<W: Write>(
    e: &Element,
    cfg: WriteConfig,
    level: usize,
    out: &mut W,
) -> io::Result<()> {
    write_elem(e, cfg, level, out)
}

/// The old `String` serializer.
pub(crate) fn write_element(e: &Element, cfg: WriteConfig) -> String {
    let mut buf = Vec::new();
    write_elem(e, cfg, 0, &mut buf).expect("writing to a Vec cannot fail");
    let mut out = String::from_utf8(buf).expect("serializer emits UTF-8");
    if cfg.indent.is_some() {
        out.truncate(out.trim_end().len());
    }
    out
}
