//! Parsing the paper's XML fragment from text in memory.
//!
//! Accepts exactly the model of Section 2: elements with an optional `id`
//! attribute and either element content or character content. Mixed
//! content, non-`id` attributes, entities, comments inside content, and
//! processing instructions are rejected with positioned errors (XML
//! prologs `<?xml …?>` and `<!-- … -->` comments *between* elements are
//! tolerated so realistic files parse). The parsing itself is the event
//! reader's ([`crate::reader`]); this module adds the error type and the
//! entity escaping both directions share.

use crate::element::Document;
use crate::reader::{read_document, StreamError};
use std::borrow::Cow;
use std::fmt;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

/// Replaces the five XML entity references (`&lt; &gt; &quot; &apos;
/// &amp;`) with their characters; text without `&` is borrowed as is.
pub(crate) fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&apos;", "'")
            .replace("&amp;", "&"),
    )
}

/// Escapes `& < > "` as entity references — the inverse of the reader's
/// entity decoding for serializer output (apostrophes pass through; the
/// reader still decodes `&apos;` from foreign producers).
pub fn escape(s: &str) -> String {
    if !s.contains(['&', '<', '>', '"']) {
        return s.to_owned();
    }
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Parses a document: optional XML prolog/comments, one root element.
/// Also enforces ID uniqueness (Appendix A validity requirement 1).
/// [`read_document`] is the same parser over any byte stream.
pub fn parse_document(src: &str) -> Result<Document, XmlError> {
    read_document(src.as_bytes()).map_err(|e| match e {
        StreamError::Parse(e) => e,
        // reading a byte slice cannot fail
        StreamError::Io(e) => XmlError {
            pos: 0,
            msg: e.to_string(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElemId;

    fn root(src: &str) -> crate::Element {
        parse_document(src).unwrap().root
    }

    #[test]
    fn simple_element_tree() {
        let e = root(r#"<professor id="p1"><firstName>Yannis</firstName><teaches/></professor>"#);
        assert_eq!(e.name.as_str(), "professor");
        assert_eq!(e.id, ElemId::named("p1"));
        assert_eq!(e.children().len(), 2);
        assert_eq!(e.children()[0].pcdata(), Some("Yannis"));
        assert_eq!(e.children()[1].children().len(), 0);
    }

    #[test]
    fn fresh_ids_when_missing() {
        let e = root("<a><b/><b/></a>");
        assert_ne!(e.children()[0].id, e.children()[1].id);
    }

    #[test]
    fn paper_style_empty_close() {
        // The paper writes `<journal></>` — anonymous close tags.
        let e = root("<publication><journal></></>");
        assert_eq!(e.children()[0].name.as_str(), "journal");
    }

    #[test]
    fn whitespace_between_elements_ignored() {
        let e = root("<a>\n  <b/>\n  <c/>\n</a>");
        assert_eq!(e.children().len(), 2);
        assert!(e.pcdata().is_none());
    }

    #[test]
    fn text_content_preserved() {
        let e = root("<name>  CS &amp; Engineering </name>");
        assert_eq!(e.pcdata(), Some("  CS & Engineering "));
    }

    #[test]
    fn mixed_content_rejected() {
        assert!(parse_document("<a>text<b/></a>").is_err());
        assert!(parse_document("<a><b/>text</a>").is_err());
    }

    #[test]
    fn non_id_attributes_rejected() {
        assert!(parse_document(r#"<a href="x"/>"#).is_err());
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(parse_document("<a></b>").is_err());
        assert!(parse_document("<a>").is_err());
    }

    #[test]
    fn prolog_and_comments_tolerated() {
        let d = parse_document("<?xml version=\"1.0\"?>\n<!-- dept -->\n<a><b/></a>").unwrap();
        assert_eq!(d.doc_type().as_str(), "a");
        let d = parse_document("<a><!-- inside --><b/></a>").unwrap();
        assert_eq!(d.root.children().len(), 1);
    }

    #[test]
    fn duplicate_ids_rejected_at_document_level() {
        assert!(parse_document(r#"<a><b id="x"/><c id="x"/></a>"#).is_err());
        assert!(parse_document(r#"<a><b id="x"/><c id="y"/></a>"#).is_ok());
        // two spellings of one auto id
        assert!(parse_document("<a><b id='#7'/><c id='#07'/></a>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        assert_eq!(unescape("&lt;&amp;&gt;&quot;&apos;"), "<&>\"'");
        assert_eq!(escape("<&>\""), "&lt;&amp;&gt;&quot;");
        assert_eq!(unescape(&escape("a<b&c")), "a<b&c");
    }
}
