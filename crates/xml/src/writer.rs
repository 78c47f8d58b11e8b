//! Serialization of elements back to XML text.
//!
//! The core serializer renders into any [`std::io::Write`] sink, so answer
//! documents can be streamed to files and sockets without first building
//! the whole text in memory (the `mix-stream` answer path). The `String`
//! conveniences delegate to it and keep their historical byte-exact output
//! (indented mode trims the trailing newline for symmetric roundtrips; the
//! `io` variants keep it, since a streaming producer cannot un-write).

use crate::element::{Content, Document, ElemId, Element};
use mix_relang::symbol::Name;
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

/// Spaces written in chunks of this size.
const SPACES: &[u8; 64] = &[b' '; 64];

/// The serializer: every piece of markup, name and text goes to `out`
/// as a byte slice, with no formatting machinery and no copy of a text
/// or an ID.
struct Writer<'w, W> {
    out: &'w mut W,
    cfg: WriteConfig,
}

impl<W: Write> Writer<'_, W> {
    fn pad(&mut self, level: usize) -> io::Result<()> {
        if let Some(w) = self.cfg.indent {
            let mut n = level * w;
            while n > 0 {
                let take = n.min(SPACES.len());
                self.out.write_all(&SPACES[..take])?;
                n -= take;
            }
        }
        Ok(())
    }

    fn newline(&mut self) -> io::Result<()> {
        if self.cfg.indent.is_some() {
            self.out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Writes `s` with `& < > "` replaced by entity references, one
    /// slice per run between them.
    fn escaped(&mut self, s: &str) -> io::Result<()> {
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let entity: &[u8] = match b {
                b'&' => b"&amp;",
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                b'"' => b"&quot;",
                _ => continue,
            };
            self.out.write_all(&bytes[start..i])?;
            self.out.write_all(entity)?;
            start = i + 1;
        }
        self.out.write_all(&bytes[start..])
    }

    fn close(&mut self, name: Name) -> io::Result<()> {
        self.out.write_all(b"</")?;
        self.out.write_all(name.as_str().as_bytes())?;
        self.out.write_all(b">")?;
        self.newline()
    }

    /// Writes an element with element content `children`, indented at
    /// nesting `level`; `id` is the explicit ID to write, if any.
    fn parent<'e>(
        &mut self,
        name: Name,
        id: Option<Name>,
        children: impl ExactSizeIterator<Item = &'e Element>,
        level: usize,
    ) -> io::Result<()> {
        self.pad(level)?;
        self.open(name, id)?;
        if children.len() == 0 {
            self.out.write_all(b"/>")?;
            return self.newline();
        }
        self.out.write_all(b">")?;
        self.newline()?;
        for c in children {
            self.element(c, level + 1)?;
        }
        self.pad(level)?;
        self.close(name)
    }

    /// `<name` and, when given, its ` id="…"`.
    fn open(&mut self, name: Name, id: Option<Name>) -> io::Result<()> {
        self.out.write_all(b"<")?;
        self.out.write_all(name.as_str().as_bytes())?;
        if let Some(id) = id {
            self.out.write_all(b" id=\"")?;
            self.escaped(id.as_str())?;
            self.out.write_all(b"\"")?;
        }
        Ok(())
    }

    fn element(&mut self, e: &Element, level: usize) -> io::Result<()> {
        // auto IDs (and `#…` spellings of them) are never written
        let id = match e.id {
            ElemId::Named(n) if self.cfg.write_ids && !e.id.is_auto() => Some(n),
            _ => None,
        };
        match &e.content {
            Content::Elements(v) => self.parent(e.name, id, v.iter(), level),
            Content::Text(t) => {
                self.pad(level)?;
                self.open(e.name, id)?;
                self.out.write_all(b">")?;
                self.escaped(t)?;
                self.close(e.name)
            }
        }
    }
}

fn write_elem<W: Write>(
    e: &Element,
    cfg: WriteConfig,
    level: usize,
    out: &mut W,
) -> io::Result<()> {
    Writer { out, cfg }.element(e, level)
}

/// The `String` form of a serialization into a byte buffer: indented
/// output loses its trailing newline, for symmetric roundtrips.
fn finish(buf: Vec<u8>, cfg: WriteConfig) -> String {
    let mut out = String::from_utf8(buf).expect("serializer emits UTF-8");
    if cfg.indent.is_some() && out.ends_with('\n') {
        out.pop();
    }
    out
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
    finish(buf, cfg)
}

/// Serializes a document.
pub fn write_document(d: &Document, cfg: WriteConfig) -> String {
    write_element(&d.root, cfg)
}

/// Serializes the answer document a root named `root` over copies of
/// `members` would be, without building it: the bytes equal
/// [`write_document`] of a root with a fresh ID whose children are
/// `members`, each given fresh IDs (as `Element::deep_clone_fresh`
/// gives them), since auto IDs are never written. So `members` may be
/// borrowed straight from a source document; write them with
/// `write_ids: false`, because a copy would not carry their explicit
/// IDs.
pub fn write_answer(root: Name, members: &[&Element], cfg: WriteConfig) -> String {
    let mut buf = Vec::new();
    Writer { out: &mut buf, cfg }
        .parent(root, None, members.iter().copied(), 0)
        .expect("writing to a Vec cannot fail");
    finish(buf, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::parser::parse_document;
    use proptest::prelude::*;

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

    /// A random tree: each draw hangs one node under an earlier one. A
    /// node has text or children, and an ID that is fresh, named (with
    /// markup characters among the names), `#N` or a `#…` name.
    fn random_tree(draws: &[u32]) -> Element {
        const NAMES: [&str; 4] = ["a", "b-c", "café", "x.y"];
        const IDS: [&str; 6] = ["p1", "a&b", "<q>", "\"d\"", "#7", "#x"];
        const TEXTS: [&str; 6] = ["", "plain", "a < b & c", "\"q\" > 'r'", "søren — ∀x", "  "];
        let mut nodes = vec![Element::new("r", vec![])];
        let mut parent = vec![usize::MAX];
        for (k, &x) in draws.iter().enumerate() {
            let pick = x as usize % (k + 1);
            let name = NAMES[x as usize / 7 % NAMES.len()];
            let mut e = match x / 31 % 3 {
                0 => Element::text(name, TEXTS[x as usize / 101 % TEXTS.len()]),
                _ => Element::new(name, vec![]),
            };
            if x / 211 % 3 == 0 {
                e = e.with_id(IDS[x as usize / 701 % IDS.len()]);
            }
            parent.push(pick);
            nodes.push(e);
        }
        // attach children to parents, last first, so each parent gets its
        // children in draw order; a parent with text gives it up
        for k in (1..nodes.len()).rev() {
            let child = nodes.pop().expect("k < len");
            let p = &mut nodes[parent[k]];
            match &mut p.content {
                Content::Elements(v) => v.insert(0, child),
                Content::Text(_) => p.content = Content::Elements(vec![child]),
            }
        }
        nodes.pop().expect("the root")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte writer prints what the `write!` writer printed, for
        /// every indent, with and without IDs, at every nesting level.
        #[test]
        fn byte_writer_prints_the_oracles_bytes(
            draws in prop::collection::vec(0u32..1_000_000, 0..40),
            indent in prop::sample::select(vec![None, Some(2), Some(4)]),
            write_ids in prop::sample::select(vec![true, false]),
            level in 0usize..4,
        ) {
            let e = random_tree(&draws);
            let cfg = WriteConfig { indent, write_ids };
            prop_assert_eq!(write_element(&e, cfg), oracle::write_element(&e, cfg));
            let (mut new, mut old) = (Vec::new(), Vec::new());
            write_element_at(&e, cfg, level, &mut new).unwrap();
            oracle::write_element_at(&e, cfg, level, &mut old).unwrap();
            prop_assert_eq!(String::from_utf8(new).unwrap(), String::from_utf8(old).unwrap());
        }

        /// Writing borrowed members without IDs prints the bytes of the
        /// document built from fresh copies of them.
        #[test]
        fn write_answer_prints_the_copied_document(
            draws in prop::collection::vec(0u32..1_000_000, 0..40),
            indent in prop::sample::select(vec![None, Some(2), Some(4)]),
            take in 0usize..6,
        ) {
            let source = random_tree(&draws);
            let members: Vec<&Element> = source.walk().skip(1).step_by(2).take(take).collect();
            let copy = Document::new(Element::new(
                "ans",
                members.iter().map(|m| m.deep_clone_fresh()).collect(),
            ));
            let cfg = WriteConfig { indent, write_ids: true };
            prop_assert_eq!(
                write_answer(Name::intern("ans"), &members, WriteConfig { write_ids: false, ..cfg }),
                write_document(&copy, cfg)
            );
        }
    }
}
