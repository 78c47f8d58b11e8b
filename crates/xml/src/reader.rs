//! The XML reader: a pull-based event reader over any [`std::io::Read`],
//! and the tree builder on top of it.
//!
//! This is the workspace's one parser for the paper's XML fragment
//! (Section 2). [`read_document`] (and [`crate::parse_document`] for
//! text already in memory) builds the tree that every source document,
//! file and remote reply becomes; `mix-stream` consumes the same events
//! directly and never materializes a tree. The reader holds
//! **O(depth + longest token)** bytes of input. Two things grow with the
//! document's explicit IDs besides: the set of the `id` values read so
//! far, so that a repeat is rejected where it occurs, and the name
//! table, into which [`ElemId::named`] interns each `id` value not of
//! the `#N` form and which never shrinks. Its rules:
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
//!
//! Each token (an open or close tag, a text run, the whitespace between
//! elements, a comment, a processing instruction) is read by one byte
//! loop over the reader's window, which finds where the token ends and
//! the spans it is decoded from. A token cut by the window's end refills
//! the window, and its scan resumes at the byte where it stopped, so a
//! token trickled in one byte per read costs time linear in its length.

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

/// Where the scan of element content stands.
#[derive(Clone, Copy)]
enum ContentAt {
    /// In whitespace after a child element.
    Space,
    /// In a text run, or before a token when no child came yet.
    Text,
    /// On a `<`, whose next byte tells a close tag, a comment and an
    /// open tag apart.
    Lt,
}

/// Where the scan of an open tag stands.
#[derive(Clone, Copy)]
enum OpenAt {
    /// In the element name, whose first character follows the `<`.
    Name,
    /// Whitespace, then `/`, `>` or an attribute name.
    Space,
    /// After `/`, which `>` must follow.
    Slash,
    /// In an attribute name that starts this many bytes past the cursor.
    Attr(usize),
    /// After an attribute name: whitespace, then `=`.
    Eq,
    /// After `=`: whitespace, then a quote.
    Quote,
    /// In a value quoted by this byte, starting this many bytes past the
    /// cursor.
    Value(u8, usize),
}

/// Where the scan of a close tag stands.
#[derive(Clone, Copy, PartialEq)]
enum CloseAt {
    /// After `</` when no name follows at once: whitespace, then `>` or
    /// the name.
    Start,
    /// In the name, which starts this many bytes past the cursor.
    Name(usize),
    /// After the name: whitespace, then `>`.
    End,
}

/// Where the scan of whitespace, comments and processing instructions
/// stands.
#[derive(Clone, Copy)]
enum MiscAt {
    /// In whitespace.
    Space,
    /// In a `<` that may open `<?` or `<!--`.
    Lt,
    /// In a comment (`mark` `-`, ended by `-->`) or a processing
    /// instruction (`mark` `?`, ended by `?>`), `run` marks just read.
    Skip { mark: u8, run: u8 },
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
    /// Every explicit ID read so far, so that a repeat is rejected where
    /// it occurs.
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
        if ascii(b) {
            i += 1;
        } else if b.is_ascii() {
            break;
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

/// Length of the whitespace `s` starts with.
fn space_len(s: &str) -> usize {
    span_while(s, is_ascii_space, char::is_whitespace)
}

/// Length of the name characters `s` starts with.
fn name_len(s: &str) -> usize {
    let ascii = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'.' | b'-');
    span_while(s, ascii, char::is_alphanumeric)
}

/// Whether `s` is a name the reader reads.
pub(crate) fn is_name(s: &str) -> bool {
    starts_name(s) && name_len(s) == s.len()
}

/// Whether `s` starts with a character that can start a name.
fn starts_name(s: &str) -> bool {
    match s.as_bytes().first() {
        Some(&b) if b.is_ascii() => b.is_ascii_alphabetic() || matches!(b, b'_' | b':'),
        _ => s.chars().next().is_some_and(char::is_alphabetic),
    }
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
    /// point — the reader's window high-water mark (grows with the
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

    /// A syntax error `i` bytes past the cursor.
    fn err(&self, i: usize, msg: impl Into<String>) -> StreamError {
        err_at(self.offset() + i, msg)
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

    /// Skips whitespace, `<?…?>` processing instructions and `<!--…-->`
    /// comments, dropping them from the window as they are read, and
    /// returns the byte after them (`None` at EOF). An unterminated
    /// comment or instruction is reported where it starts.
    fn skip_misc(&mut self) -> Result<Option<u8>, StreamError> {
        let mut at = MiscAt::Space;
        // bytes of the markup at the cursor read so far
        let mut i = 0;
        // where the comment or instruction being skipped starts
        let mut start = 0;
        loop {
            // `None` past the window: refill and resume at `i`, or EOF
            let b = self.buf.as_bytes().get(self.pos + i).copied();
            if b.is_none() && self.fill_more()? {
                continue;
            }
            match at {
                MiscAt::Space => {
                    let k = space_len(&self.buf[self.pos..]);
                    if k > 0 {
                        self.pos += k;
                        continue;
                    }
                    if b != Some(b'<') {
                        return Ok(b);
                    }
                    (at, i) = (MiscAt::Lt, 1);
                }
                // the terminator is searched for from the `<`, so `<?>`
                // and `<!-->` are complete
                MiscAt::Lt => match (i, b) {
                    (1, Some(b'?')) => {
                        start = self.offset();
                        (at, i) = (MiscAt::Skip { mark: b'?', run: 1 }, 2);
                    }
                    (1, Some(b'!')) | (2, Some(b'-')) => i += 1,
                    (3, Some(b'-')) => {
                        start = self.offset();
                        (at, i) = (MiscAt::Skip { mark: b'-', run: 2 }, 4);
                    }
                    _ => return Ok(Some(b'<')),
                },
                MiscAt::Skip { mark, mut run } => {
                    let (need, msg) = match mark {
                        b'-' => (2, "unterminated comment"),
                        _ => (1, "unterminated processing instruction"),
                    };
                    if b.is_none() {
                        return Err(err_at(start, msg));
                    }
                    let rest = &self.buf.as_bytes()[self.pos + i..];
                    let mut end = None;
                    for (k, &c) in rest.iter().enumerate() {
                        if c == b'>' && run == need {
                            end = Some(k + 1);
                            break;
                        }
                        run = if c == mark { (run + 1).min(need) } else { 0 };
                    }
                    self.pos += i + end.unwrap_or(rest.len());
                    i = 0;
                    at = match end {
                        Some(_) => MiscAt::Space,
                        None => MiscAt::Skip { mark, run },
                    };
                }
            }
        }
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

    /// Reads `<name …>` or `<name …/>` from the cursor, which is on its
    /// `<`, and returns the Open event (owing the Close for `/>`).
    fn open_tag(&mut self) -> Result<XmlEvent, StreamError> {
        if self.stack.len() == MAX_NESTING_DEPTH {
            return Err(self.err(
                0,
                format!("elements nested deeper than {MAX_NESTING_DEPTH} levels"),
            ));
        }
        let mut at = OpenAt::Name;
        let mut i = 1;
        // the element name is `1..name_end` past the cursor; the others
        // are spans past the cursor too
        let mut name_end = 1;
        let mut attr = 0..0;
        let mut id: Option<Range<usize>> = None;
        let self_closing = loop {
            // `None` past the window: refill and resume at `i`, or EOF
            let b = self.buf.as_bytes().get(self.pos + i).copied();
            if b.is_none() && self.fill_more()? {
                continue;
            }
            let rest = &self.buf[self.pos + i..];
            match at {
                OpenAt::Name | OpenAt::Attr(_) => {
                    if i == 1 && !starts_name(rest) {
                        return Err(self.err(i, "expected an element name"));
                    }
                    let k = name_len(rest);
                    i += k;
                    if k == rest.len() && b.is_some() {
                        continue;
                    }
                    if let OpenAt::Attr(start) = at {
                        (attr, at) = (start..i, OpenAt::Eq);
                        continue;
                    }
                    name_end = i;
                    // `<name>`, the common tag, ends here
                    if rest.as_bytes().get(k) == Some(&b'>') {
                        break false;
                    }
                    at = OpenAt::Space;
                }
                OpenAt::Space | OpenAt::Eq | OpenAt::Quote => {
                    let k = space_len(rest);
                    if k > 0 {
                        i += k;
                        continue;
                    }
                    match (at, b) {
                        (OpenAt::Space, Some(b'>')) => break false,
                        (OpenAt::Space, Some(b'/')) => (at, i) = (OpenAt::Slash, i + 1),
                        (OpenAt::Space, _) if starts_name(rest) => at = OpenAt::Attr(i),
                        (OpenAt::Space, _) => {
                            return Err(self.err(i, "expected attribute, '/>' or '>'"))
                        }
                        (OpenAt::Eq, Some(b'=')) => (at, i) = (OpenAt::Quote, i + 1),
                        (OpenAt::Eq, _) => {
                            return Err(self.err(i, "expected '=' after attribute name"))
                        }
                        (_, Some(q @ (b'"' | b'\''))) => (at, i) = (OpenAt::Value(q, i + 1), i + 1),
                        _ => return Err(self.err(i, "expected a quoted attribute value")),
                    }
                }
                OpenAt::Slash => match b {
                    Some(b'>') => break true,
                    _ => return Err(self.err(i, "expected '>' after '/'")),
                },
                OpenAt::Value(quote, start) => match rest.bytes().position(|c| c == quote) {
                    None if b.is_some() => i += rest.len(),
                    None => return Err(self.err(i, "unterminated attribute value")),
                    Some(k) => {
                        let value = start..i + k;
                        i += k + 1;
                        let key = &self.buf[self.pos..][attr.clone()];
                        if !key.eq_ignore_ascii_case("id") {
                            let msg = format!(
                                "attribute '{key}' is outside the paper's model (only 'id' is allowed)"
                            );
                            return Err(self.err(i, msg));
                        }
                        if id.is_some() {
                            return Err(self.err(i, "duplicate id attribute"));
                        }
                        (id, at) = (Some(value), OpenAt::Space);
                    }
                },
            }
        };
        // `i` is on the tag's closing `>`
        let name = self.resolve(self.pos + 1..self.pos + name_end);
        let id = id.map(|v| ElemId::named(&unescape(&self.buf[self.pos..][v])));
        self.pos += i + 1;
        if let Some(id) = id {
            if !self.ids.insert(id) {
                return Err(self.err(0, format!("duplicate element id '{id}'")));
            }
        }
        if self_closing {
            self.pending_close = Some(name);
        } else {
            self.stack.push(Level {
                name,
                saw_child: false,
                has_text: false,
            });
        }
        Ok(XmlEvent::Open { name, id })
    }

    /// Reads `</name>` or `</>` from the cursor, which is on its `<`;
    /// emits the pending text (if any) first.
    fn close_tag(&mut self) -> Result<XmlEvent, StreamError> {
        let open = self.stack.last().expect("close inside content").name;
        let mut at = CloseAt::Name(2);
        let mut i = 2;
        loop {
            // `None` past the window: refill and resume at `i`, or EOF
            let b = self.buf.as_bytes().get(self.pos + i).copied();
            if b.is_none() && self.fill_more()? {
                continue;
            }
            let rest = &self.buf[self.pos + i..];
            match at {
                CloseAt::Start | CloseAt::End => {
                    let k = space_len(rest);
                    if k > 0 {
                        i += k;
                        continue;
                    }
                    if b == Some(b'>') {
                        break;
                    }
                    if at == CloseAt::End {
                        return Err(self.err(i, "expected '>' in close tag"));
                    }
                    if !starts_name(rest) {
                        return Err(self.err(i, "expected an element name"));
                    }
                    at = CloseAt::Name(i);
                }
                CloseAt::Name(start) => {
                    if i == 2 {
                        // `</name>` for the element that is open, the
                        // common tag, is one comparison
                        let expect = open.as_str().as_bytes();
                        let bytes = rest.as_bytes();
                        if bytes.starts_with(expect) && bytes.get(expect.len()) == Some(&b'>') {
                            i += expect.len();
                            break;
                        }
                        // `</>` and `</ name>` are read from the whitespace
                        if !starts_name(rest) {
                            at = CloseAt::Start;
                            continue;
                        }
                    }
                    let k = name_len(rest);
                    i += k;
                    if k == rest.len() && b.is_some() {
                        continue;
                    }
                    let name = &self.buf[self.pos..][start..i];
                    if name != open.as_str() {
                        let msg = format!("mismatched close tag: '{name}' vs '{open}'");
                        return Err(self.err(i, msg));
                    }
                    if rest.as_bytes().get(k) == Some(&b'>') {
                        break;
                    }
                    at = CloseAt::End;
                }
            }
        }
        self.pos += i + 1;
        let level = self.stack.pop().expect("checked above");
        if !level.has_text {
            return Ok(XmlEvent::Close { name: level.name });
        }
        if level.saw_child {
            return Err(self.err(0, "mixed content is outside the paper's model"));
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
            let next = self.skip_misc()?;
            if !self.seen_root {
                self.seen_root = true;
                if next != Some(b'<') {
                    return Err(self.err(0, "expected '<'"));
                }
                return self.open_tag();
            }
            if next.is_some() {
                return Err(self.err(0, "trailing input after root element"));
            }
            self.finished = true;
            return Ok(XmlEvent::Eof);
        }
        // whitespace after a child is skipped, and any other text after a
        // child is mixed content, rejected whatever it holds
        let first = match self.stack.last().expect("inside the root").saw_child {
            true => ContentAt::Space,
            false => ContentAt::Text,
        };
        let mut at = first;
        // bytes of the token at the cursor read so far
        let mut i = 0;
        // whether the text run holds an entity reference
        let mut amp = false;
        loop {
            // `None` past the window: refill and resume at `i`, or EOF
            let b = self.buf.as_bytes().get(self.pos + i).copied();
            if b.is_none() && self.fill_more()? {
                continue;
            }
            match at {
                ContentAt::Space => {
                    let rest = &self.buf[self.pos..];
                    let k = space_len(rest);
                    self.pos += k;
                    if k == rest.len() && b.is_some() {
                        continue;
                    }
                    (at, i) = match rest.as_bytes().get(k) {
                        Some(b'<') => (ContentAt::Lt, 1),
                        Some(_) => (ContentAt::Text, 0),
                        None => return Err(self.unterminated()),
                    };
                }
                ContentAt::Text => {
                    let rest = &self.buf.as_bytes()[self.pos..];
                    while let Some(&c) = rest.get(i) {
                        if c == b'<' {
                            break;
                        }
                        amp |= c == b'&';
                        i += 1;
                    }
                    if i == rest.len() && b.is_some() {
                        continue;
                    }
                    if i > 0 {
                        let run = &self.buf[self.pos..self.pos + i];
                        let level = self.stack.last_mut().expect("inside the root");
                        if !level.has_text {
                            level.has_text = true;
                            self.text.clear();
                        }
                        if amp {
                            self.text.push_str(&unescape(run));
                        } else {
                            self.text.push_str(run);
                        }
                        self.pos += i;
                    }
                    // the run ends at a `<` or at EOF
                    if b.is_none() {
                        return Err(self.unterminated());
                    }
                    (at, i, amp) = (ContentAt::Lt, 1, false);
                }
                ContentAt::Lt => {
                    match b {
                        Some(b'/') => return self.close_tag(),
                        Some(b'!') => {
                            let from = self.offset();
                            self.skip_misc()?;
                            if self.offset() != from {
                                (at, i) = (first, 0);
                                continue;
                            }
                        }
                        _ => {}
                    }
                    let level = self.stack.last_mut().expect("inside the root");
                    if level.has_text && !self.text.trim().is_empty() {
                        return Err(self.err(0, "mixed content is outside the paper's model"));
                    }
                    level.has_text = false;
                    level.saw_child = true;
                    return self.open_tag();
                }
            }
        }
    }

    /// The error for input that ends inside the innermost element.
    fn unterminated(&self) -> StreamError {
        let name = self.stack.last().expect("inside the root").name;
        self.err(0, format!("unterminated element '{name}'"))
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
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

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

    /// A source whose reads return the chunk sizes `sizes` cycles
    /// through, so tokens are cut at every offset while the window also
    /// holds what precedes them.
    struct Chunks<'a> {
        rest: &'a [u8],
        sizes: &'a [usize],
        next: usize,
    }

    impl Read for Chunks<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(buf.len()).min(self.rest.len());
            let (head, rest) = self.rest.split_at(n);
            buf[..n].copy_from_slice(head);
            self.rest = rest;
            Ok(n)
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
        /// time, or chunks of 1–31 bytes, produces the same events as one
        /// fed the whole input.
        #[test]
        fn reader_matches_the_oracle(
            steps in steps(),
            pretty in prop::sample::select(vec![true, false]),
            at in prop::collection::vec(0usize..100_000, 0..4),
            noise in prop::collection::vec(prop::sample::select(NOISE.to_vec()), 4..5),
            sizes in prop::collection::vec(1usize..32, 1..8),
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
            let chunks = Chunks {
                rest: src.as_bytes(),
                sizes: &sizes,
                next: 0,
            };
            prop_assert_eq!(
                events(chunks),
                events(src.as_bytes()),
                "on {:?} in chunks of {:?}",
                src,
                sizes
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

    /// A long token trickled in one byte per read costs time linear in
    /// its length: each refill resumes the token's scan where it
    /// stopped, and an unterminated one fails as it does read whole.
    #[test]
    fn trickled_long_tokens_cost_linear_time() {
        // the root name of the tree `src` holds, read one byte per read,
        // or its error; a read that takes over 10 s fails the test
        fn trickled(src: &str) -> Result<String, String> {
            let (done, finished) = std::sync::mpsc::channel();
            let src = src.to_owned();
            let reader = std::thread::spawn(move || {
                let doc = read_document(OneByte(src.as_bytes()));
                let _ = done.send(());
                doc.map(|d| d.root.name.to_string())
                    .map_err(|e| e.to_string())
            });
            match finished.recv_timeout(Duration::from_secs(10)) {
                Err(RecvTimeoutError::Timeout) => panic!("a trickled token took over 10 s"),
                _ => reader.join().expect("the reader thread does not panic"),
            }
        }
        let long = "x".repeat(1 << 20);
        for (done, cut) in [
            (format!("<a>{long}</a>"), format!("<a>{long}")),
            (format!("<a id='{long}'/>"), format!("<a id='{long}")),
            (format!("<a><!--{long}--></a>"), format!("<a><!--{long}")),
        ] {
            assert_eq!(trickled(&done), Ok("a".to_owned()));
            let whole = read_document(cut.as_bytes()).unwrap_err().to_string();
            assert_eq!(trickled(&cut), Err(whole));
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
