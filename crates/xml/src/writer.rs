//! Serialization of elements back to XML text.
//!
//! The core serializer renders into any [`std::io::Write`] sink, so answer
//! documents can be streamed to files and sockets without first building
//! the whole text in memory (the `mix-stream` answer path). The `String`
//! conveniences delegate to it and keep their historical byte-exact output
//! (indented mode trims the trailing newline for symmetric roundtrips; the
//! `io` variants keep it, since a streaming producer cannot un-write).

use crate::element::{Content, Document, Element};
use crate::parser::escape;
use std::io::{self, Write};

/// Serialization options.
#[derive(Debug, Clone, Copy)]
pub struct WriteConfig {
    /// Pretty-print with this indent width; `None` writes compact XML.
    pub indent: Option<usize>,
    /// Emit `id="…"` attributes (auto-generated IDs are always skipped).
    pub write_ids: bool,
}

impl Default for WriteConfig {
    fn default() -> Self {
        WriteConfig {
            indent: Some(2),
            write_ids: true,
        }
    }
}

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

/// Serializes an element into an [`io::Write`] sink, indented as if it
/// sat at nesting `level` of a larger document. In indented mode the
/// output ends with a newline (streaming producers append siblings, so
/// there is no trailing trim — see [`write_element`] for the `String`
/// symmetry rule).
pub fn write_element_at<W: Write>(
    e: &Element,
    cfg: WriteConfig,
    level: usize,
    out: &mut W,
) -> io::Result<()> {
    write_elem(e, cfg, level, out)
}

/// Serializes an element to a sink at level 0 (newline-terminated in
/// indented mode; see [`write_element_at`]).
pub fn write_element_to<W: Write>(e: &Element, cfg: WriteConfig, out: &mut W) -> io::Result<()> {
    write_elem(e, cfg, 0, out)
}

/// Serializes a document to a sink (newline-terminated in indented mode).
pub fn write_document_to<W: Write>(d: &Document, cfg: WriteConfig, out: &mut W) -> io::Result<()> {
    write_element_to(&d.root, cfg, out)
}

/// Serializes an element.
pub fn write_element(e: &Element, cfg: WriteConfig) -> String {
    let mut buf = Vec::new();
    write_elem(e, cfg, 0, &mut buf).expect("writing to a Vec cannot fail");
    let mut out = String::from_utf8(buf).expect("serializer emits UTF-8");
    if cfg.indent.is_some() {
        // drop the trailing newline for symmetric roundtrips
        out.truncate(out.trim_end().len());
    }
    out
}

/// Serializes a document.
pub fn write_document(d: &Document, cfg: WriteConfig) -> String {
    write_element(&d.root, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn parse_root(src: &str) -> Element {
        parse_document(src).unwrap().root
    }

    #[test]
    fn roundtrip_compact() {
        let src = r#"<professor id="p1"><firstName>Yannis</firstName><teaches/></professor>"#;
        let e = parse_root(src);
        let cfg = WriteConfig {
            indent: None,
            write_ids: true,
        };
        let out = write_element(&e, cfg);
        assert_eq!(out, src);
        // write(parse(write(x))) == write(x)  (IDs of id-less elements are
        // freshly generated on each parse, so compare serialized forms)
        assert_eq!(write_element(&parse_root(&out), cfg), out);
    }

    #[test]
    fn roundtrip_pretty() {
        let src = "<a><b><c/></b><d>txt</d></a>";
        let e = parse_root(src);
        let pretty = write_element(&e, WriteConfig::default());
        assert!(pretty.contains('\n'));
        let reparsed = parse_root(&pretty);
        assert_eq!(write_element(&reparsed, WriteConfig::default()), pretty);
    }

    #[test]
    fn auto_ids_not_written() {
        let e = Element::new("x", vec![]);
        let out = write_element(
            &e,
            WriteConfig {
                indent: None,
                write_ids: true,
            },
        );
        assert_eq!(out, "<x/>");
    }

    #[test]
    fn text_is_escaped() {
        let e = Element::text("t", "a < b & c");
        let out = write_element(
            &e,
            WriteConfig {
                indent: None,
                write_ids: false,
            },
        );
        assert_eq!(out, "<t>a &lt; b &amp; c</t>");
        assert_eq!(parse_root(&out).pcdata(), Some("a < b & c"));
    }

    #[test]
    fn io_variant_matches_string_variant_modulo_trailing_newline() {
        let src = "<a><b><c/></b><d>t &amp; u</d></a>";
        let e = parse_root(src);
        for cfg in [
            WriteConfig::default(),
            WriteConfig {
                indent: None,
                write_ids: true,
            },
            WriteConfig {
                indent: Some(4),
                write_ids: false,
            },
        ] {
            let mut buf = Vec::new();
            write_element_to(&e, cfg, &mut buf).unwrap();
            let via_io = String::from_utf8(buf).unwrap();
            let via_string = write_element(&e, cfg);
            if cfg.indent.is_some() {
                assert_eq!(via_io, format!("{via_string}\n"));
            } else {
                assert_eq!(via_io, via_string);
            }
        }
    }

    #[test]
    fn write_element_at_indents_like_a_nested_child() {
        let e = parse_root("<d>txt</d>");
        let mut buf = Vec::new();
        write_element_at(&e, WriteConfig::default(), 2, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "    <d>txt</d>\n");
    }

    #[test]
    fn deep_indentation_pads_fully() {
        // deeper than the serializer's internal padding chunk
        let e = Element::new("x", vec![]);
        let mut buf = Vec::new();
        write_element_at(&e, WriteConfig::default(), 40, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s, format!("{}<x/>\n", " ".repeat(80)));
    }
}
