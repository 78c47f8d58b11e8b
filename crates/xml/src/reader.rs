//! The XML reader: a pull-based event reader over any [`std::io::Read`],
//! and the tree builder on top of it.
//!
//! This is the workspace's one parser for the paper's XML fragment
//! (Section 2). [`read_document`] (and [`crate::parse_document`] for
//! text already in memory) builds the tree that every source document,
//! file and remote reply becomes; `mix-stream` consumes the same events
//! directly and never materializes a tree. The reader holds
//! **O(depth + longest token)** memory. Its rules:
//!
//! * only the `id` attribute is allowed; other attributes are errors;
//! * no mixed content: an element has either a single text run (possibly
//!   split by comments) or child elements, never both;
//! * `</>` anonymous close tags (the paper's compact notation) close the
//!   innermost element;
//! * `<a></a>` is *element* content (an empty child list) while
//!   `<a>  </a>` is *text* content `"  "` — whitespace between elements
//!   is skipped only once children exist;
//! * XML prologs and comments are tolerated between elements (and
//!   comments inside element content, which also swallow the whitespace
//!   that follows them); the entity references `&lt; &gt; &quot; &apos;
//!   &amp;` are decoded;
//! * trailing input after the root element is rejected;
//! * elements nest at most [`MAX_NESTING_DEPTH`] deep.
//!
//! The reader rejects a repeated explicit `id="…"` where the second one
//! occurs. Fresh IDs never collide with each other or with a named ID,
//! so the tree builder checks uniqueness over the whole tree only when
//! an explicit `id="#N"` folded onto [`ElemId::Auto`]: that one can
//! collide with a fresh ID.

use crate::element::{Content, Document, ElemId, Element};
use crate::parser::{unescape, XmlError};
use mix_relang::symbol::Name;
use mix_relang::MAX_NESTING_DEPTH;
use std::collections::HashSet;
use std::fmt;
use std::io::Read;
use std::ops::Range;

/// One parsing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// An element opened (`<name>`, `<name id="…">`, or the open half of
    /// a self-closing `<name/>`, which is immediately followed by its
    /// [`XmlEvent::Close`]).
    Open {
        /// The element name.
        name: Name,
        /// The explicit ID attribute, if any.
        id: Option<ElemId>,
    },
    /// The element's character content. Emitted at most once per element,
    /// immediately before its [`XmlEvent::Close`], and only for elements
    /// with no child elements.
    Text(String),
    /// An element closed.
    Close {
        /// The element name (resolved even for anonymous `</>` tags).
        name: Name,
    },
    /// The document is over: root closed, trailing misc consumed, EOF
    /// reached. Repeated calls keep returning `Eof`.
    Eof,
}

/// A read failure: an I/O error from the underlying reader or a
/// positioned syntax error.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The input violates the paper's XML fragment.
    Parse(XmlError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> Self {
        StreamError::Parse(e)
    }
}

struct Level {
    name: Name,
    saw_child: bool,
    /// Whether the reader's text buffer holds this element's text. Only
    /// the innermost element can have text: opening a child drops it.
    has_text: bool,
}

/// Slots of the reader's name cache.
const NAME_CACHE: usize = 64;

/// The pull-based event reader. See the module docs for the accepted
/// fragment.
pub struct EventReader<R: Read> {
    src: R,
    /// Decoded window; `buf[pos..]` is not consumed yet.
    buf: String,
    pos: usize,
    /// Bytes dropped from the front of `buf` (absolute position of
    /// `buf[0]` in the input).
    consumed: u64,
    /// Read buffer; `raw[..raw_len]` is the undecoded tail of a
    /// multi-byte character split by the last read.
    raw: Vec<u8>,
    raw_len: usize,
    eof: bool,
    /// The Close owed after a self-closing tag or a Text event.
    pending_close: Option<Name>,
    stack: Vec<Level>,
    seen_root: bool,
    finished: bool,
    ids: HashSet<ElemId>,
    buf_high_water: usize,
    bytes_read: u64,
    /// The innermost element's text so far, reused from element to
    /// element: whitespace before a first child is read into it and
    /// dropped without an allocation.
    text: String,
    /// Names this reader resolved, direct-mapped by the FNV-1a hash of
    /// their text, so a repeated name skips the interner's lock.
    names: [Option<Name>; NAME_CACHE],
}

const READ_CHUNK: usize = 8 * 1024;

fn err_at(pos: usize, msg: impl Into<String>) -> StreamError {
    StreamError::Parse(XmlError {
        pos,
        msg: msg.into(),
    })
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-')
}

/// `char::is_whitespace` on an ASCII byte.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// Length of the prefix of `s` whose characters satisfy `ascii` (on
/// ASCII bytes, a byte at a time) or `other` (on any other character).
fn span_while(s: &str, ascii: impl Fn(u8) -> bool, other: impl Fn(char) -> bool) -> usize {
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if !ascii(b) {
                break;
            }
            i += 1;
        } else {
            let c = s[i..].chars().next().expect("a char starts at a boundary");
            if !other(c) {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

impl<R: Read> EventReader<R> {
    /// Wraps a byte source.
    pub fn new(src: R) -> EventReader<R> {
        EventReader {
            src,
            buf: String::new(),
            pos: 0,
            consumed: 0,
            raw: vec![0; READ_CHUNK],
            raw_len: 0,
            eof: false,
            pending_close: None,
            stack: Vec::new(),
            seen_root: false,
            finished: false,
            ids: HashSet::new(),
            buf_high_water: 0,
            bytes_read: 0,
            text: String::new(),
            names: [None; NAME_CACHE],
        }
    }

    /// Largest number of buffered, not-yet-consumed bytes held at any
    /// point — the reader's memory high-water mark (grows with the
    /// longest single token, not with the document).
    pub fn buffer_high_water(&self) -> usize {
        self.buf_high_water
    }

    /// Total input bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn offset(&self) -> usize {
        (self.consumed + self.pos as u64) as usize
    }

    fn err(&self, msg: impl Into<String>) -> StreamError {
        err_at(self.offset(), msg)
    }

    /// Drops the consumed prefix and appends one read's worth of input;
    /// `false` once EOF is reached. Offsets relative to `pos` survive.
    fn fill_more(&mut self) -> Result<bool, StreamError> {
        if self.eof {
            return Ok(false);
        }
        self.buf.drain(..self.pos);
        self.consumed += self.pos as u64;
        self.pos = 0;
        let n = self.src.read(&mut self.raw[self.raw_len..])?;
        // the absolute position just past the decoded window
        let end = self.consumed as usize + self.buf.len();
        if n == 0 {
            self.eof = true;
            if self.raw_len > 0 {
                return Err(err_at(end, "input ends inside a multi-byte UTF-8 sequence"));
            }
            return Ok(false);
        }
        self.bytes_read += n as u64;
        let filled = self.raw_len + n;
        match std::str::from_utf8(&self.raw[..filled]) {
            Ok(s) => {
                self.buf.push_str(s);
                self.raw_len = 0;
            }
            // a multi-byte character split by the read: keep its head
            Err(e) if e.error_len().is_none() => {
                let valid = e.valid_up_to();
                self.buf
                    .push_str(std::str::from_utf8(&self.raw[..valid]).expect("valid prefix"));
                self.raw.copy_within(valid..filled, 0);
                self.raw_len = filled - valid;
            }
            Err(e) => return Err(err_at(end + e.valid_up_to(), "input is not valid UTF-8")),
        }
        self.buf_high_water = self.buf_high_water.max(self.buf.len());
        Ok(true)
    }

    /// Ensures at least `n` unconsumed bytes are buffered; `false` when
    /// EOF arrives first.
    fn have(&mut self, n: usize) -> Result<bool, StreamError> {
        while self.buf.len() - self.pos < n {
            if !self.fill_more()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn peek_char(&mut self) -> Result<Option<char>, StreamError> {
        if !self.have(1)? {
            return Ok(None);
        }
        Ok(self.buf[self.pos..].chars().next())
    }

    /// The next byte, for decisions on ASCII markup.
    fn peek_byte(&mut self) -> Result<Option<u8>, StreamError> {
        if !self.have(1)? {
            return Ok(None);
        }
        Ok(Some(self.buf.as_bytes()[self.pos]))
    }

    fn starts_with(&mut self, s: &str) -> Result<bool, StreamError> {
        self.have(s.len())?;
        Ok(self.buf[self.pos..].starts_with(s))
    }

    fn eat_str(&mut self, s: &str) -> Result<bool, StreamError> {
        if self.starts_with(s)? {
            self.pos += s.len();
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn skip_ws(&mut self) -> Result<(), StreamError> {
        loop {
            let rest = &self.buf[self.pos..];
            let n = span_while(rest, is_ascii_space, char::is_whitespace);
            self.pos += n;
            if n < rest.len() || !self.fill_more()? {
                return Ok(());
            }
        }
    }

    /// Skips whitespace, `<?…?>` processing instructions and `<!--…-->`
    /// comments.
    fn skip_misc(&mut self) -> Result<(), StreamError> {
        loop {
            self.skip_ws()?;
            if self.starts_with("<?")? {
                self.skip_until("?>", "unterminated processing instruction")?;
            } else if self.starts_with("<!--")? {
                self.skip_until("-->", "unterminated comment")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Advances past the next occurrence of `end` (inclusive), searching
    /// from the cursor; an unterminated construct is reported where it
    /// starts.
    fn skip_until(&mut self, end: &str, msg: &str) -> Result<(), StreamError> {
        let start = self.offset();
        loop {
            if let Some(k) = self.buf[self.pos..].find(end) {
                self.pos += k + end.len();
                return Ok(());
            }
            // Keep a window large enough that `end` can't hide across the
            // refill boundary, discard the rest. The window is sized in
            // bytes, so widen it until the new pos is a char boundary —
            // `end` is ASCII, so keeping extra bytes never loses a match.
            let keep = (end.len() - 1).min(self.buf.len() - self.pos);
            let mut drop = self.buf.len() - self.pos - keep;
            while !self.buf.is_char_boundary(self.pos + drop) {
                drop -= 1;
            }
            self.pos += drop;
            if !self.fill_more()? {
                return Err(err_at(start, msg));
            }
        }
    }

    /// Consumes a name; returns its span in `buf`, valid until the next
    /// refill.
    fn name(&mut self) -> Result<Range<usize>, StreamError> {
        if !matches!(self.peek_char()?, Some(c) if is_name_start(c)) {
            return Err(self.err("expected an element name"));
        }
        let ascii = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'-');
        let mut len = 0;
        loop {
            let rest = &self.buf[self.pos + len..];
            let k = span_while(rest, ascii, is_name_char);
            len += k;
            if k < rest.len() || !self.fill_more()? {
                break;
            }
        }
        self.pos += len;
        Ok(self.pos - len..self.pos)
    }

    /// The interned name spelled by `buf[span]`, from this reader's
    /// cache when it resolved that text before.
    fn resolve(&mut self, span: Range<usize>) -> Name {
        let text = &self.buf[span];
        // FNV-1a: element names are short
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let slot = (hash % NAME_CACHE as u64) as usize;
        match self.names[slot] {
            Some(name) if name.as_str() == text => name,
            _ => {
                let name = Name::intern(text);
                self.names[slot] = Some(name);
                name
            }
        }
    }

    /// Length of the text run at the cursor: the bytes up to the next
    /// `<` or EOF.
    fn text_len(&mut self) -> Result<usize, StreamError> {
        let mut len = 0;
        loop {
            if let Some(k) = self.buf[self.pos + len..].find('<') {
                return Ok(len + k);
            }
            len = self.buf.len() - self.pos;
            if !self.fill_more()? {
                return Ok(len);
            }
        }
    }

    fn quoted(&mut self) -> Result<String, StreamError> {
        let quote = match self.peek_char()? {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected a quoted attribute value")),
        };
        self.pos += 1;
        let mut len = 0;
        loop {
            if let Some(k) = self.buf[self.pos + len..].find(quote) {
                let value = unescape(&self.buf[self.pos..self.pos + len + k]).into_owned();
                self.pos += len + k + 1;
                return Ok(value);
            }
            len = self.buf.len() - self.pos;
            if !self.fill_more()? {
                self.pos += len;
                return Err(self.err("unterminated attribute value"));
            }
        }
    }

    /// Parses `<name …>` / `<name …/>`; returns the Open event (owing the
    /// Close for the self-closing form).
    fn open_tag(&mut self) -> Result<XmlEvent, StreamError> {
        if self.stack.len() == MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "elements nested deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        if !self.eat_str("<")? {
            return Err(self.err("expected '<'"));
        }
        let span = self.name()?;
        let name = self.resolve(span);
        let mut id: Option<ElemId> = None;
        loop {
            self.skip_ws()?;
            match self.peek_byte()? {
                Some(b'/') => {
                    self.pos += 1;
                    if !self.eat_str(">")? {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.register_id(id)?;
                    self.pending_close = Some(name);
                    return Ok(XmlEvent::Open { name, id });
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.register_id(id)?;
                    self.stack.push(Level {
                        name,
                        saw_child: false,
                        has_text: false,
                    });
                    return Ok(XmlEvent::Open { name, id });
                }
                _ => {
                    let span = self
                        .name()
                        .map_err(|_| self.err("expected attribute, '/>' or '>'"))?;
                    let attr = &self.buf[span];
                    // keep a foreign name only for its error message
                    let foreign = (!attr.eq_ignore_ascii_case("id")).then(|| attr.to_owned());
                    self.skip_ws()?;
                    if !self.eat_str("=")? {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.skip_ws()?;
                    let value = self.quoted()?;
                    if let Some(attr) = foreign {
                        return Err(self.err(format!(
                            "attribute '{attr}' is outside the paper's model (only 'id' is allowed)"
                        )));
                    }
                    if id.is_some() {
                        return Err(self.err("duplicate id attribute"));
                    }
                    id = Some(ElemId::named(&value));
                }
            }
        }
    }

    fn register_id(&mut self, id: Option<ElemId>) -> Result<(), StreamError> {
        if let Some(id) = id {
            if !self.ids.insert(id) {
                return Err(self.err(format!("duplicate element id '{id}'")));
            }
        }
        Ok(())
    }

    /// Parses `</name>` or `</>`; emits the pending text (if any) first.
    fn close_tag(&mut self) -> Result<XmlEvent, StreamError> {
        self.pos += 2; // "</"
        self.skip_ws()?;
        let open_name = self.stack.last().expect("close inside content").name;
        if self.peek_byte()? != Some(b'>') {
            let span = self.name()?;
            let n = &self.buf[span];
            if n != open_name.as_str() {
                let msg = format!("mismatched close tag: '{n}' vs '{open_name}'");
                return Err(self.err(msg));
            }
            self.skip_ws()?;
        }
        if !self.eat_str(">")? {
            return Err(self.err("expected '>' in close tag"));
        }
        let level = self.stack.pop().expect("checked above");
        if !level.has_text {
            return Ok(XmlEvent::Close { name: level.name });
        }
        if level.saw_child {
            return Err(self.err("mixed content is outside the paper's model"));
        }
        self.pending_close = Some(level.name);
        Ok(XmlEvent::Text(self.text.as_str().to_owned()))
    }

    /// The next event. After the final [`XmlEvent::Eof`] every further
    /// call returns `Eof` again.
    pub fn next_event(&mut self) -> Result<XmlEvent, StreamError> {
        if let Some(name) = self.pending_close.take() {
            return Ok(XmlEvent::Close { name });
        }
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        if self.stack.is_empty() {
            self.skip_misc()?;
            if !self.seen_root {
                self.seen_root = true;
                return self.open_tag();
            }
            if self.have(1)? {
                return Err(self.err("trailing input after root element"));
            }
            self.finished = true;
            return Ok(XmlEvent::Eof);
        }
        loop {
            if !self.have(1)? {
                let name = self.stack.last().expect("nonempty").name;
                return Err(self.err(format!("unterminated element '{name}'")));
            }
            if self.buf.as_bytes()[self.pos] == b'<' {
                self.have(2)?;
                match self.buf.as_bytes().get(self.pos + 1).copied() {
                    Some(b'/') => return self.close_tag(),
                    Some(b'!') if self.starts_with("<!--")? => {
                        self.skip_misc()?;
                        continue;
                    }
                    _ => {}
                }
                let level = self.stack.last_mut().expect("nonempty");
                if level.has_text && !self.text.trim().is_empty() {
                    return Err(self.err("mixed content is outside the paper's model"));
                }
                level.has_text = false;
                level.saw_child = true;
                return self.open_tag();
            }
            if self.stack.last().expect("nonempty").saw_child {
                // whitespace between elements; any other text after a
                // child is mixed content, rejected whatever it holds
                self.skip_ws()?;
                if matches!(self.peek_byte()?, None | Some(b'<')) {
                    continue;
                }
            }
            let len = self.text_len()?;
            let run = unescape(&self.buf[self.pos..self.pos + len]);
            let level = self.stack.last_mut().expect("nonempty");
            if !level.has_text {
                level.has_text = true;
                self.text.clear();
            }
            self.text.push_str(&run);
            self.pos += len;
        }
    }
}

/// Builds the document `src` holds — the workspace's one way from XML
/// text to a tree. Elements without an explicit ID get fresh ones at
/// their open tags, so a tree without explicit IDs has IDs that
/// increase in document order (see [`Document::duplicate_id`]), and ID
/// uniqueness is enforced over the whole tree (Appendix A validity
/// requirement 1).
pub fn read_document<R: Read>(src: R) -> Result<Document, StreamError> {
    let mut reader = EventReader::new(src);
    // elements still open, outermost first: name, ID, and where their
    // children start in `done`
    let mut open: Vec<(Name, ElemId, usize)> = Vec::new();
    // closed elements whose parent is still open, in document order
    let mut done: Vec<Element> = Vec::new();
    let mut text = None;
    // an explicit `#N` is the one ID that can equal a fresh one
    let mut folded = false;
    loop {
        match reader.next_event()? {
            XmlEvent::Open { name, id } => {
                folded |= matches!(id, Some(ElemId::Auto(_)));
                open.push((name, id.unwrap_or_else(ElemId::fresh), done.len()));
            }
            XmlEvent::Text(t) => text = Some(t),
            XmlEvent::Close { .. } => {
                let (name, id, first) = open.pop().expect("the reader balances tags");
                let content = match text.take() {
                    Some(t) => Content::Text(t),
                    None if first == done.len() => Content::Elements(Vec::new()),
                    None => Content::Elements(done.split_off(first)),
                };
                done.push(Element { name, id, content });
            }
            XmlEvent::Eof => break,
        }
    }
    let doc = Document::new(done.pop().expect("Eof follows the root's Close"));
    match folded.then(|| doc.duplicate_id()).flatten() {
        Some(id) => Err(err_at(0, format!("duplicate element id '{id}'"))),
        None => Ok(doc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::parser::parse_document;
    use crate::writer::{write_document, WriteConfig};
    use proptest::prelude::*;
    use std::io::{self, Cursor};

    /// A source that trickles one byte per read, so every token of the
    /// input straddles a refill boundary somewhere.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) => {
                    buf[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    /// Every event up to `Eof`, or up to and including the first error.
    fn events(src: impl Read) -> Vec<Result<XmlEvent, String>> {
        let mut r = EventReader::new(src);
        let mut out = Vec::new();
        loop {
            match r.next_event() {
                Ok(XmlEvent::Eof) => return out,
                Ok(ev) => out.push(Ok(ev)),
                Err(e) => {
                    out.push(Err(e.to_string()));
                    return out;
                }
            }
        }
    }

    /// The builder and the oracle accept the same inputs with the same
    /// trees (compared as text: auto IDs are fresh per parse) and reject
    /// the rest with the same error. The one difference is duplicate IDs:
    /// the reader reports the second occurrence where it stands, while
    /// the oracle checks IDs only after the whole input parsed — at
    /// byte 0, or not at all when a later syntax error comes first.
    fn agree(src: &str) {
        let cfg = WriteConfig {
            indent: None,
            write_ids: true,
        };
        match (parse_document(src), oracle::parse_document(src)) {
            (Ok(a), Ok(b)) => assert_eq!(
                write_document(&a, cfg),
                write_document(&b, cfg),
                "on {src:?}"
            ),
            (Err(r), Err(o)) if r.msg.starts_with("duplicate element id") => assert!(
                o.msg == r.msg || o.pos >= r.pos,
                "reader {r} vs oracle {o} on {src:?}"
            ),
            (Err(r), Err(o)) => assert_eq!(r, o, "on {src:?}"),
            (r, o) => panic!("reader {r:?} vs oracle {o:?} on {src:?}"),
        }
    }

    /// One step of a random document: open an element (with an optional
    /// explicit ID), add text, or close the innermost element.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Open(&'static str, Option<&'static str>),
        Text(&'static str),
        Close,
    }

    /// Builds an element tree under a root `r` from `steps`. Text lands
    /// only in childless elements, and a child replaces its parent's
    /// text, so the tree stays inside the paper's fragment.
    fn build(steps: &[Step]) -> Element {
        fn attach(stack: &mut Vec<Element>) {
            let child = stack.pop().expect("a child to attach");
            let parent = stack.last_mut().expect("a parent");
            match &mut parent.content {
                Content::Elements(children) => children.push(child),
                Content::Text(_) => parent.content = Content::Elements(vec![child]),
            }
        }
        let mut stack = vec![Element::new("r", vec![])];
        for step in steps {
            match *step {
                Step::Open(name, id) => {
                    let e = Element::new(name, vec![]);
                    stack.push(match id {
                        Some(id) => e.with_id(id),
                        None => e,
                    });
                }
                Step::Text(t) => {
                    let top = stack.last_mut().expect("the root stays");
                    match &mut top.content {
                        Content::Text(s) => s.push_str(t),
                        Content::Elements(v) if v.is_empty() => {
                            top.content = Content::Text(t.into())
                        }
                        Content::Elements(_) => {}
                    }
                }
                Step::Close if stack.len() > 1 => attach(&mut stack),
                Step::Close => {}
            }
        }
        while stack.len() > 1 {
            attach(&mut stack);
        }
        stack.pop().expect("the root")
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let names = vec!["a", "b", "café", "名前", "x-y.z", "_u", "n:s", "δ"];
        let ids = vec![("a", "p1"), ("b", "p2"), ("café", "é9"), ("δ", "p1")];
        let texts = vec![
            "x",
            " ",
            "  ",
            "\n",
            "a < b",
            "&",
            "\"q\"",
            "'",
            ">",
            "søren — ∀x",
        ];
        let step = prop_oneof![
            3 => prop::sample::select(names).prop_map(|n| Step::Open(n, None)),
            1 => prop::sample::select(ids).prop_map(|(n, id)| Step::Open(n, Some(id))),
            2 => prop::sample::select(texts).prop_map(Step::Text),
            3 => Just(Step::Close),
        ];
        prop::collection::vec(step, 0..30)
    }

    /// Comments, processing instructions, whitespace, entities, and a few
    /// fragments that break the markup they land in.
    const NOISE: &[&str] = &[
        "<!-- c -->",
        "<!--é—-->",
        "<?pi x?>",
        " ",
        "\n  ",
        "&apos;",
        "&quot;",
        "&lt;",
        "x",
        "<!--",
        "</",
        "/>",
        " id='z'",
        " href='h'",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The tree builder agrees with the oracle on serialized random
        /// trees with noise spliced in, and a reader fed one byte at a
        /// time produces the same events as one fed the whole input.
        #[test]
        fn reader_matches_the_oracle(
            steps in steps(),
            pretty in prop::sample::select(vec![true, false]),
            at in prop::collection::vec(0usize..100_000, 0..4),
            noise in prop::collection::vec(prop::sample::select(NOISE.to_vec()), 4..5),
        ) {
            let cfg = WriteConfig {
                indent: pretty.then_some(2),
                write_ids: true,
            };
            let mut src = write_document(&Document::new(build(&steps)), cfg);
            for (&at, piece) in at.iter().zip(noise) {
                let mut k = at % (src.len() + 1);
                while !src.is_char_boundary(k) {
                    k -= 1;
                }
                src.insert_str(k, piece);
            }
            agree(&src);
            prop_assert_eq!(
                events(OneByte(src.as_bytes())),
                events(src.as_bytes()),
                "on {:?}",
                src
            );
        }
    }

    #[test]
    fn agrees_with_the_oracle_on_hand_picked_inputs() {
        for src in [
            r#"<professor id="p1"><firstName>Yannis</firstName><teaches/></professor>"#,
            "<a><b/><b/></a>",
            "<publication><journal></></>",
            "<a>\n  <b/>\n  <c/>\n</a>",
            "<name>  CS &amp; Engineering </name>",
            "<a></a>",
            "<a>  </a>",
            "<a>text<b/></a>",
            "<a><b/>text</a>",
            r#"<a href="x"/>"#,
            "<a></b>",
            "<a>",
            "<a",
            "<a id='x",
            "<?xml version=\"1.0\"?>\n<!-- dept -->\n<a><b/></a>",
            "<a><!-- inside --><b/></a>",
            "<a><!-- unterminated <b/></a>",
            r#"<a><b id="x"/><c id="x"/></a>"#,
            r#"<a><b id="x"/><c id="y"/></a>"#,
            "<a/><b/>",
            "<a>x<!-- c -->y</a>",
            "<a>x <!-- c --> y</a>",
            "<a><b/> <!-- c --> x</a>",
            "<a><!-- c --><?pi?><b/></a>",
            "<t>a &lt; b &amp; c</t>",
            "<a attr='x'/>",
            "<a id='p' id='q'/>",
            "<x>&quot;&apos;</x>",
            "<a><b>  </b></a>",
            "<café>søren — ∀x</café>",
            "",
        ] {
            agree(src);
        }
    }

    #[test]
    fn event_shape() {
        let evs = events(r#"<a id="x"><b>hi</b><c/></a>"#.as_bytes());
        let (a, b, c) = (Name::intern("a"), Name::intern("b"), Name::intern("c"));
        use XmlEvent::*;
        assert_eq!(
            evs,
            [
                Open {
                    name: a,
                    id: Some(ElemId::named("x"))
                },
                Open { name: b, id: None },
                Text("hi".into()),
                Close { name: b },
                Open { name: c, id: None },
                Close { name: c },
                Close { name: a },
            ]
            .map(Ok)
        );
    }

    /// An explicit `id="#N"` folds onto `ElemId::Auto(N)`, and `N` can be
    /// the fresh ID an earlier element of the same document received:
    /// the whole-tree check still runs and rejects it.
    #[test]
    fn explicit_id_equal_to_an_earlier_fresh_id_is_rejected() {
        // this thread's next fresh ID is one past the last one it took,
        // unless that one ended its block
        let next = loop {
            if let ElemId::Auto(n) = ElemId::fresh() {
                if n % crate::element::FRESH_BLOCK != 0 {
                    break n + 1;
                }
            }
        };
        let src = format!(r##"<r><a/><b id="#{next}"/></r>"##);
        let err = read_document(src.as_bytes()).unwrap_err().to_string();
        assert!(
            err.contains(&format!("duplicate element id '#{next}'")),
            "{err}"
        );
    }

    /// Fresh IDs are handed out at open tags, so a tree read without
    /// explicit IDs has IDs that increase in document order.
    #[test]
    fn fresh_ids_increase_in_document_order() {
        let doc = parse_document("<a><b><c/><d>t</d></b><e/><f><g/></f></a>").unwrap();
        let ids: Vec<u64> = doc
            .root
            .walk()
            .map(|e| match e.id {
                ElemId::Auto(n) => n,
                ElemId::Named(n) => panic!("named id {n}"),
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn multibyte_comment_survives_trickle_reads() {
        // The comment skipper trims its window by raw byte count; with
        // 1-byte reads the trim lands inside the multi-byte characters
        // unless it is widened back to a char boundary (regression:
        // slice panic "byte index is not a char boundary").
        for src in [
            "<a><!--€€€--><b/></a>",
            "<?π — ∀x?><a>t</a>",
            "<a>x<!-- søren — café -->y</a>",
        ] {
            assert_eq!(events(OneByte(src.as_bytes())), events(src.as_bytes()));
        }
    }

    #[test]
    fn invalid_utf8_is_a_positioned_error() {
        let e = read_document(&b"<a>\xff</a>"[..]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "XML parse error at byte 3: input is not valid UTF-8"
        );
        let e = read_document(&b"<a>\xc3"[..]).unwrap_err();
        assert!(e.to_string().contains("multi-byte"), "{e}");
    }

    #[test]
    fn buffer_stays_bounded_on_wide_documents() {
        // 20k siblings: the window must not grow with the document.
        let mut src = String::from("<root>");
        for i in 0..20_000 {
            src.push_str(&format!("<leaf>v{i}</leaf>"));
        }
        src.push_str("</root>");
        let mut r = EventReader::new(Cursor::new(src.clone().into_bytes()));
        while r.next_event().unwrap() != XmlEvent::Eof {}
        assert_eq!(r.bytes_read(), src.len() as u64);
        assert!(
            r.buffer_high_water() <= 2 * READ_CHUNK,
            "window grew to {}",
            r.buffer_high_water()
        );
    }

    #[test]
    fn eof_is_sticky() {
        let mut r = EventReader::new(Cursor::new(b"<a/>".to_vec()));
        let mut n = 0;
        while r.next_event().unwrap() != XmlEvent::Eof {
            n += 1;
        }
        assert_eq!(n, 2);
        assert_eq!(r.next_event().unwrap(), XmlEvent::Eof);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |d: usize, leaf: &str| format!("{}{leaf}{}", "<a>".repeat(d), "</a>".repeat(d));
        // on a thread with the default 2 MiB stack, whatever the depth
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let doc = parse_document(&nest(MAX_NESTING_DEPTH, "t")).unwrap();
                assert_eq!(doc.root.depth(), MAX_NESTING_DEPTH);
                let doc = parse_document(&nest(MAX_NESTING_DEPTH - 1, "<b/>")).unwrap();
                assert_eq!(doc.root.depth(), MAX_NESTING_DEPTH);
                for src in [
                    nest(MAX_NESTING_DEPTH, "<b/>"),
                    nest(MAX_NESTING_DEPTH + 1, ""),
                    nest(50_000, ""),
                ] {
                    let e = parse_document(&src).unwrap_err();
                    assert_eq!(e.pos, 3 * MAX_NESTING_DEPTH);
                    assert!(e.msg.contains("nested deeper"), "{e}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
