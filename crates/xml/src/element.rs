//! The abstract XML element model (Definition 2.1).
//!
//! An element is a triple of a name, a unique ID attribute, and content
//! that is either a sequence of elements or a PCDATA string. Per the paper's
//! simplifications (Section 2) there are no other attributes, no mixed
//! content, and no entities.

use crate::reader::is_name;
use mix_relang::symbol::Name;
use mix_relang::MAX_NESTING_DEPTH;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The ID attribute of an element — unique within a document.
///
/// Parsed documents carry their textual IDs; programmatically built
/// elements get fresh `#N` IDs from a process-wide counter. Auto IDs are
/// a plain number, **not** an interned string: each thread takes a
/// block of 4 096 numbers from the counter at once, so
/// [`ElemId::fresh`] is a thread-local increment and threads that parse
/// or clone in parallel share no counter. The id-refreshing walks that
/// answer caches run per served copy ([`Element::refresh_auto_ids`])
/// cost nanoseconds per node instead of a symbol-table insertion — and
/// the symbol table does not accrete one dead `"#N"` entry per
/// constructed element for the life of the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElemId {
    /// An ID written as `id="…"` in source text.
    Named(Name),
    /// A process-unique auto-generated ID, serialized as `#N`.
    Auto(u64),
}

/// Fresh IDs a thread takes from the process-wide counter at once.
pub(crate) const FRESH_BLOCK: u64 = 4096;

/// The first number of the next unclaimed block.
static NEXT_AUTO_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's unused fresh IDs: `next..end` of its current block.
    static FRESH: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl ElemId {
    /// An ID from explicit text (as written in `id="…"`). Text of the
    /// auto form (`#` + digits) folds onto [`ElemId::Auto`] so that a
    /// document round-tripped through text keeps its identity semantics.
    pub fn named(s: &str) -> ElemId {
        match s.strip_prefix('#').and_then(|t| t.parse::<u64>().ok()) {
            Some(n) => ElemId::Auto(n),
            None => ElemId::Named(Name::intern(s)),
        }
    }

    /// A fresh, process-unique ID.
    pub fn fresh() -> ElemId {
        FRESH.with(|block| {
            let (mut next, mut end) = block.get();
            if next == end {
                next = NEXT_AUTO_ID.fetch_add(FRESH_BLOCK, Ordering::Relaxed);
                end = next + FRESH_BLOCK;
            }
            block.set((next + 1, end));
            ElemId::Auto(next)
        })
    }

    /// Whether this ID was auto-generated (or spelled in the `#…` form
    /// reserved for generated IDs, which serializers never emit).
    pub fn is_auto(self) -> bool {
        match self {
            ElemId::Auto(_) => true,
            ElemId::Named(n) => n.as_str().starts_with('#'),
        }
    }
}

impl fmt::Debug for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemId::Named(n) => write!(f, "{n}"),
            ElemId::Auto(n) => write!(f, "#{n}"),
        }
    }
}

/// Element content: a sequence of elements or a PCDATA string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Content {
    /// Element content — possibly empty (an empty list is *not* an XML
    /// `EMPTY` element, see Appendix A).
    Elements(Vec<Element>),
    /// Character content.
    Text(String),
}

/// An XML element (Definition 2.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Element {
    /// The element name.
    pub name: Name,
    /// The unique ID attribute.
    pub id: ElemId,
    /// The content.
    pub content: Content,
}

impl Element {
    /// A new element with element content and a fresh ID.
    pub fn new(name: &str, children: Vec<Element>) -> Element {
        Element {
            name: Name::intern(name),
            id: ElemId::fresh(),
            content: Content::Elements(children),
        }
    }

    /// A new element with character content and a fresh ID.
    pub fn text(name: &str, value: &str) -> Element {
        Element {
            name: Name::intern(name),
            id: ElemId::fresh(),
            content: Content::Text(value.to_owned()),
        }
    }

    /// Replaces the ID (builder-style), e.g. to mirror a parsed `id="…"`.
    pub fn with_id(mut self, id: &str) -> Element {
        self.id = ElemId::named(id);
        self
    }

    /// The element's children; empty for character content.
    pub fn children(&self) -> &[Element] {
        match &self.content {
            Content::Elements(v) => v,
            Content::Text(_) => &[],
        }
    }

    /// The PCDATA value, if this element has character content.
    pub fn pcdata(&self) -> Option<&str> {
        match &self.content {
            Content::Text(s) => Some(s),
            Content::Elements(_) => None,
        }
    }

    /// The sequence of child names — the word checked against the DTD type
    /// (Definition 2.3, condition 2).
    pub fn child_names(&self) -> Vec<Name> {
        self.children().iter().map(|c| c.name).collect()
    }

    /// Depth-first, left-to-right traversal (self first) — the document
    /// order the paper uses for view content.
    pub fn walk(&self) -> Walk<'_> {
        Walk { stack: vec![self] }
    }

    /// Number of element nodes in this subtree.
    pub fn size(&self) -> usize {
        self.walk().count()
    }

    /// Maximum nesting depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(Element::depth)
            .max()
            .unwrap_or(0)
    }

    /// Finds the (first) element with the given ID in this subtree.
    pub fn find_by_id(&self, id: ElemId) -> Option<&Element> {
        self.walk().find(|e| e.id == id)
    }

    /// Clones the subtree, giving every node a fresh ID. Useful when the
    /// same source element must appear twice in a constructed document
    /// without violating ID uniqueness.
    pub fn deep_clone_fresh(&self) -> Element {
        Element {
            name: self.name,
            id: ElemId::fresh(),
            content: match &self.content {
                Content::Text(s) => Content::Text(s.clone()),
                Content::Elements(v) => {
                    Content::Elements(v.iter().map(Element::deep_clone_fresh).collect())
                }
            },
        }
    }

    /// Whether `self` and `other` are equal except for auto IDs: same
    /// names, same explicit IDs, same text and same children in order.
    /// Two answers that differ only in their fresh IDs serialize to the
    /// same bytes, and this tells so without allocating.
    pub fn same_up_to_auto_ids(&self, other: &Element) -> bool {
        let ids_agree = self.id == other.id || (self.id.is_auto() && other.id.is_auto());
        self.name == other.name
            && ids_agree
            && match (&self.content, &other.content) {
                (Content::Text(a), Content::Text(b)) => a == b,
                (Content::Elements(a), Content::Elements(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_up_to_auto_ids(y))
                }
                _ => false,
            }
    }

    /// A keyed 64-bit hash of this subtree up to auto IDs, with its
    /// element count, in one walk. The hash covers what
    /// [`Element::same_up_to_auto_ids`] compares (names, explicit IDs,
    /// content kind, child counts and text bytes), so equal subtrees in
    /// that sense hash equal, and two that differ collide with chance
    /// about 2^-64 for a `seed` the subtrees' author does not know.
    ///
    /// Each element adds one folded product of its own fields and its
    /// document-order position to a sum. The products do not depend on
    /// one another, so the walk is not one long chain of multiplies.
    pub fn fingerprint(&self, seed: u64) -> Fingerprint {
        let mut walk = FingerprintWalk {
            keys: keys(seed),
            elements: 0,
            reads_back: true,
            names: [u32::MAX; NAME_SLOTS],
        };
        let sum = walk.subtree(self, 1);
        Fingerprint {
            hash: fold(sum ^ walk.keys[5], walk.keys[1]),
            elements: walk.elements as usize,
            reads_back: walk.reads_back,
        }
    }

    /// Re-assigns a fresh ID to every *auto-identified* node in this
    /// subtree, keeping explicit `id="…"` attributes intact.
    ///
    /// A plain [`Clone`] shares its IDs with the original, so two clones
    /// of one parsed answer placed side by side in a constructed document
    /// would collide, and the document would break ID uniqueness
    /// (validity requirement 1 of Appendix A, which
    /// [`Document::duplicate_id`] checks). Answer caches that hand out
    /// clones of a memoized parse call this on every copy they release.
    pub fn refresh_auto_ids(&mut self) {
        if self.id.is_auto() {
            self.id = ElemId::fresh();
        }
        if let Content::Elements(children) = &mut self.content {
            for c in children {
                c.refresh_auto_ids();
            }
        }
    }
}

/// What [`Element::fingerprint`] finds in one walk of a subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// The keyed hash of the subtree up to auto IDs.
    pub hash: u64,
    /// Element nodes in the subtree.
    pub elements: usize,
    /// Whether the subtree, written as a document, reads back as itself
    /// up to auto IDs. It does not when an element has empty text,
    /// which is written `<a></a>` and read back as empty *element*
    /// content, when it nests deeper than the reader accepts
    /// ([`MAX_NESTING_DEPTH`]), or when it holds a name the reader does
    /// not read (the DTD parsers accept `#` inside a name). Explicit IDs
    /// are not checked for repeats.
    pub reads_back: bool,
}

/// Slots of [`FingerprintWalk::names`].
const NAME_SLOTS: usize = 64;

/// The state of one [`Element::fingerprint`] walk.
struct FingerprintWalk {
    keys: [u64; 6],
    /// Elements walked so far, which is the document-order position of
    /// the next one.
    elements: u64,
    reads_back: bool,
    /// Intern indices of names already checked against the reader's
    /// name rule, one slot per index modulo [`NAME_SLOTS`]; an answer
    /// holds few distinct names, so each is checked about once.
    names: [u32; NAME_SLOTS],
}

impl FingerprintWalk {
    /// The sum of the products of `e`'s subtree, `e` nesting `depth`
    /// deep. Leaves are summed in their parent's loop, so only elements
    /// with children cost a call.
    fn subtree(&mut self, e: &Element, depth: usize) -> u64 {
        let children = match &e.content {
            Content::Elements(v) if !v.is_empty() => v,
            _ => return self.leaf(e),
        };
        if depth >= MAX_NESTING_DEPTH {
            self.reads_back = false;
        }
        let mut sum = self.product(e, children.len() as u64);
        for c in children {
            let p = match &c.content {
                Content::Elements(v) if !v.is_empty() => self.subtree(c, depth + 1),
                _ => self.leaf(c),
            };
            sum = sum.wrapping_add(p);
        }
        sum
    }

    /// The product of an element with text or no children.
    #[inline(always)]
    fn leaf(&mut self, e: &Element) -> u64 {
        let s = match &e.content {
            Content::Text(t) => t.as_bytes(),
            Content::Elements(_) => return self.product(e, 0),
        };
        let shape = match s.len() {
            0 => {
                self.reads_back = false;
                SHORT_TEXT
            }
            // read a byte at a time, the last byte standing in for the
            // ones past the end, so that every short text takes this one
            // path whatever its length
            len @ 1..=7 => {
                let last = len - 1;
                let bytes = (0..7).fold(0, |x, i| x | u64::from(s[i.min(last)]) << (8 * i));
                SHORT_TEXT | (len as u64) << 56 | bytes
            }
            _ => text_hash(s, &self.keys),
        };
        self.product(e, shape)
    }

    /// The folded product of `e`'s name and explicit ID, its `shape`,
    /// and its position. The shape of element content is its child
    /// count; of a text of up to 7 bytes, [`SHORT_TEXT`], its length in
    /// bits 56 to 58 and its bytes below; and of a longer text, its
    /// keyed hash.
    #[inline(always)]
    fn product(&mut self, e: &Element, shape: u64) -> u64 {
        let k = &self.keys;
        // an explicit ID takes the high half of `a`, and `HAS_ID` tells
        // it from none, since an intern index may be 0
        let (id, shape) = match e.id {
            ElemId::Named(n) if !e.id.is_auto() => (u64::from(n.index()) << 32, shape ^ HAS_ID),
            _ => (0, shape),
        };
        let name = e.name.index();
        let a = (u64::from(name) | id) ^ k[0];
        let b = shape.wrapping_add(self.elements.wrapping_mul(k[1])) ^ k[2];
        self.elements += 1;
        let slot = &mut self.names[name as usize % NAME_SLOTS];
        if *slot != name {
            *slot = name;
            self.reads_back &= is_name(e.name.as_str());
        }
        fold(a, b)
    }
}

/// The bit of a [`FingerprintWalk::product`] shape that marks an
/// explicit ID.
const HAS_ID: u64 = 1 << 63;

/// The bit of a [`FingerprintWalk::product`] shape that marks a text of
/// up to 7 bytes.
const SHORT_TEXT: u64 = 1 << 62;

/// The high and low halves of the 128-bit product of `a` and `b`,
/// xored together.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The keys of a fingerprint under `seed` (splitmix64 steps). Key 1 is
/// odd, so that positions times it stay distinct.
fn keys(seed: u64) -> [u64; 6] {
    let mut s = seed;
    let mut keys = [0; 6].map(|_: u64| {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    });
    keys[1] |= 1;
    keys
}

/// A keyed hash of `s`, at least 8 bytes long, and its length: 16 bytes
/// per fold, the last 16 (or, for up to 16, the first and last 8)
/// overlapping the ones before. The words read from a text of a given
/// length cover every byte of it, so texts of equal length that differ
/// read different words.
fn text_hash(s: &[u8], k: &[u64; 6]) -> u64 {
    let word = |i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("8 bytes"));
    let len = s.len();
    let mut h = k[3] ^ len as u64;
    if len <= 16 {
        return fold(word(0) ^ k[4], word(len - 8) ^ h);
    }
    let mut i = 0;
    while i + 16 < len {
        h = fold(word(i) ^ k[4], word(i + 8) ^ h);
        i += 16;
    }
    fold(word(len - 16) ^ k[4], word(len - 8) ^ h)
}

/// Whether every ID in `e`'s subtree is an [`ElemId::Auto`] greater
/// than the one before it in document order, `last` being the one
/// before `e` (0 before the first, which no fresh ID is).
fn ids_increase(e: &Element, last: &mut u64) -> bool {
    match e.id {
        ElemId::Auto(n) if n > *last => *last = n,
        _ => return false,
    }
    e.children().iter().all(|c| ids_increase(c, last))
}

/// Iterator of [`Element::walk`].
pub struct Walk<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<&'a Element> {
        let e = self.stack.pop()?;
        // Push children in reverse so they pop left-to-right.
        self.stack.extend(e.children().iter().rev());
        Some(e)
    }
}

/// A document: a root element (Definition 2.4 minus the DTD, which lives in
/// `mix-dtd`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Document {
    /// The root element; its name is the document type.
    pub root: Element,
}

impl Document {
    /// Wraps a root element.
    pub fn new(root: Element) -> Document {
        Document { root }
    }

    /// The document type `d_root` — the name of the root element.
    pub fn doc_type(&self) -> Name {
        self.root.name
    }

    /// Checks that no two elements share an ID (validity requirement 1 of
    /// Appendix A). Returns the first duplicated ID if any: the first
    /// element, in document order, whose ID an earlier element has.
    ///
    /// One walk settles the common case: IDs that are all auto and
    /// strictly increase in document order are distinct. The reader,
    /// `evaluate`'s copies and [`Document::refresh_auto_ids`] hand out
    /// IDs that way. Otherwise sorting the IDs and comparing neighbours
    /// settles a duplicate-free document without hashing; only a
    /// document with a duplicate is walked again to find the first one.
    pub fn duplicate_id(&self) -> Option<ElemId> {
        if ids_increase(&self.root, &mut 0) {
            return None;
        }
        self.duplicate_id_by_sorting()
    }

    /// [`Document::duplicate_id`] without the one-walk proof.
    fn duplicate_id_by_sorting(&self) -> Option<ElemId> {
        let mut ids: Vec<ElemId> = self.root.walk().map(|e| e.id).collect();
        ids.sort_unstable();
        if ids.windows(2).all(|w| w[0] != w[1]) {
            return None;
        }
        let mut seen = HashSet::new();
        self.root.walk().find(|e| !seen.insert(e.id)).map(|e| e.id)
    }

    /// Number of element nodes.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// [`Element::refresh_auto_ids`] over the whole document.
    pub fn refresh_auto_ids(&mut self) {
        self.root.refresh_auto_ids();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::{Arc, Barrier};

    fn sample() -> Element {
        Element::new(
            "professor",
            vec![
                Element::text("firstName", "Yannis"),
                Element::text("lastName", "P"),
                Element::new(
                    "publication",
                    vec![
                        Element::text("title", "DTD inference"),
                        Element::new("journal", vec![]),
                    ],
                ),
            ],
        )
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = ElemId::fresh();
        let b = ElemId::fresh();
        assert_ne!(a, b);
        assert!(a.is_auto());
    }

    /// Threads released together each take more than one block of
    /// fresh IDs: no ID is handed out twice.
    #[test]
    fn fresh_ids_from_racing_threads_are_distinct() {
        const THREADS: usize = 4;
        let per_thread = 2 * FRESH_BLOCK as usize + 7;
        let start = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..per_thread).map(|_| ElemId::fresh()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(id.is_auto());
                assert!(all.insert(id), "{id} handed out twice");
            }
        }
        assert_eq!(all.len(), THREADS * per_thread);
    }

    #[test]
    fn named_ids_compare_by_text() {
        assert_eq!(ElemId::named("p1"), ElemId::named("p1"));
        assert_ne!(ElemId::named("p1"), ElemId::named("p2"));
        assert!(!ElemId::named("p1").is_auto());
    }

    #[test]
    fn refresh_auto_ids_disjoins_clones_but_keeps_named_ids() {
        let mut original = sample();
        if let Content::Elements(v) = &mut original.content {
            v[0].id = ElemId::named("fn1");
        }
        let mut copy = original.clone();
        copy.refresh_auto_ids();
        // every auto id moved off the original's...
        let originals: std::collections::HashSet<ElemId> = original
            .walk()
            .filter(|e| e.id.is_auto())
            .map(|e| e.id)
            .collect();
        assert!(copy
            .walk()
            .filter(|e| e.id.is_auto())
            .all(|e| !originals.contains(&e.id)));
        // ...while the explicit id and the shape survived
        assert_eq!(copy.children()[0].id, ElemId::named("fn1"));
        assert_eq!(copy.child_names(), original.child_names());
        assert!(Document::new(copy).duplicate_id().is_none());
    }

    #[test]
    fn same_up_to_auto_ids_ignores_only_auto_ids() {
        let original = sample();
        assert!(original.same_up_to_auto_ids(&original.deep_clone_fresh()));
        // text, names, child order and explicit ids all count
        let mut text = original.clone();
        if let Content::Elements(v) = &mut text.content {
            v[0].content = Content::Text("Y".into());
        }
        assert!(!original.same_up_to_auto_ids(&text));
        let mut shorter = original.clone();
        if let Content::Elements(v) = &mut shorter.content {
            v.pop();
        }
        assert!(!original.same_up_to_auto_ids(&shorter));
        let mut reordered = original.clone();
        if let Content::Elements(v) = &mut reordered.content {
            v.swap(0, 1);
        }
        assert!(!original.same_up_to_auto_ids(&reordered));
        let named = original.clone().with_id("p1");
        assert!(!original.same_up_to_auto_ids(&named));
        assert!(named.same_up_to_auto_ids(&named.clone()));
        let leaf = Element::new("journal", vec![]);
        assert!(!leaf.same_up_to_auto_ids(&Element::text("journal", "")));
    }

    /// The fingerprint tells apart what `same_up_to_auto_ids` tells
    /// apart, under any seed, and flags what compact text cannot
    /// reproduce.
    #[test]
    fn fingerprints_agree_with_same_up_to_auto_ids() {
        let original = sample();
        let mut variants = vec![original.deep_clone_fresh(), original.clone().with_id("#x")];
        let mut text = original.clone();
        if let Content::Elements(v) = &mut text.content {
            v[0].content = Content::Text("Yannit".into());
        }
        variants.push(text);
        let mut swapped = original.clone();
        if let Content::Elements(v) = &mut swapped.content {
            v.swap(0, 1);
        }
        variants.push(swapped);
        variants.push(original.clone().with_id("p1"));
        variants.push(Element::new("journal", vec![]));
        variants.push(Element::text("journal", ""));
        for seed in [0, 1, u64::MAX] {
            let print = original.fingerprint(seed);
            assert_eq!((print.elements, print.reads_back), (6, true));
            for v in &variants {
                let same = original.same_up_to_auto_ids(v);
                assert_eq!(v.fingerprint(seed).hash == print.hash, same, "{v:?}");
            }
        }
        assert_ne!(original.fingerprint(1).hash, original.fingerprint(2).hash);
        assert!(!Element::text("journal", "").fingerprint(0).reads_back);
        assert!(!Element::text("a#b", "x").fingerprint(0).reads_back);
        assert!(Element::text("é.b-1", "x").fingerprint(0).reads_back);
        let mut deep = Element::text("t", "x");
        for _ in 0..MAX_NESTING_DEPTH {
            deep = Element::new("n", vec![deep]);
        }
        assert!(!deep.fingerprint(0).reads_back);
        assert!(deep.children()[0].fingerprint(0).reads_back);
    }

    /// Texts of every length hash apart from their one-byte edits and
    /// from themselves with their last byte repeated.
    #[test]
    fn text_fingerprints_see_every_byte() {
        let print = |s: &[u8]| {
            let text = std::str::from_utf8(s).expect("ASCII");
            Element::text("t", text).fingerprint(7).hash
        };
        for len in 0..40 {
            let s: Vec<u8> = (0..len).map(|i| b'a' + (i * 7 % 26) as u8).collect();
            let h = print(&s);
            for i in 0..len {
                let mut t = s.clone();
                t[i] ^= 0x20;
                assert_ne!(print(&t), h, "len {len}, byte {i}");
            }
            let mut longer = s.clone();
            longer.push(s.last().copied().unwrap_or(b'a'));
            assert_ne!(print(&longer), h, "len {len}");
        }
    }

    #[test]
    fn child_names_order() {
        let e = sample();
        let names: Vec<&str> = e.child_names().iter().map(|n| n.as_str()).collect();
        assert_eq!(names, ["firstName", "lastName", "publication"]);
    }

    #[test]
    fn walk_is_depth_first_left_to_right() {
        let e = sample();
        let order: Vec<&str> = e.walk().map(|x| x.name.as_str()).collect();
        assert_eq!(
            order,
            [
                "professor",
                "firstName",
                "lastName",
                "publication",
                "title",
                "journal"
            ]
        );
    }

    #[test]
    fn size_and_depth() {
        let e = sample();
        assert_eq!(e.size(), 6);
        assert_eq!(e.depth(), 3);
        assert_eq!(Element::new("x", vec![]).depth(), 1);
    }

    #[test]
    fn find_by_id() {
        let e = sample();
        let pubid = e.children()[2].id;
        assert_eq!(e.find_by_id(pubid).unwrap().name.as_str(), "publication");
        assert!(e.find_by_id(ElemId::named("nope")).is_none());
    }

    #[test]
    fn deep_clone_fresh_changes_all_ids() {
        let e = sample();
        let c = e.deep_clone_fresh();
        let old: Vec<ElemId> = e.walk().map(|x| x.id).collect();
        let new: Vec<ElemId> = c.walk().map(|x| x.id).collect();
        assert_eq!(old.len(), new.len());
        for id in new {
            assert!(!old.contains(&id));
        }
    }

    #[test]
    fn duplicate_id_detection() {
        let dup = Element::new("a", vec![]).with_id("x");
        let doc = Document::new(Element::new("root", vec![dup.clone(), dup]));
        assert_eq!(doc.duplicate_id(), Some(ElemId::named("x")));
        let ok = Document::new(sample());
        assert!(ok.duplicate_id().is_none());
    }

    /// The first repeated ID in document order, by a recursive
    /// pre-order walk with a hash set.
    fn first_repeat(e: &Element, seen: &mut HashSet<ElemId>) -> Option<ElemId> {
        if !seen.insert(e.id) {
            return Some(e.id);
        }
        e.children().iter().find_map(|c| first_repeat(c, seen))
    }

    /// A random tree: each draw hangs one node under an earlier one, with
    /// an ID that is fresh, one of a few names, one of a few auto
    /// numbers, or a copy of an earlier node's ID.
    fn random_tree(draws: &[u32]) -> Element {
        let mut ids = vec![ElemId::fresh()];
        let mut parent = vec![usize::MAX];
        for (k, &x) in draws.iter().enumerate() {
            let (pick, kind, v) = (x as usize / 40 % (k + 1), x / 4 % 10, x % 4);
            parent.push(pick);
            ids.push(match kind {
                0..=5 => ElemId::fresh(),
                6 | 7 => ElemId::named(&format!("n{v}")),
                8 => ElemId::Auto(u64::from(v)),
                _ => ids[pick],
            });
        }
        fn build(k: usize, ids: &[ElemId], parent: &[usize]) -> Element {
            let children = (k + 1..ids.len())
                .filter(|&c| parent[c] == k)
                .map(|c| build(c, ids, parent))
                .collect();
            Element {
                name: Name::intern("e"),
                id: ids[k],
                content: Content::Elements(children),
            }
        }
        build(0, &ids, &parent)
    }

    /// A random tree whose IDs take the shapes replies have: fresh in
    /// document order (as the reader gives them), refreshed, cloned
    /// (sharing every auto ID with the original), with a folded `#N`
    /// or a named ID spliced in, or fresh out of order.
    fn shaped_tree(draws: &[u32], shape: u32) -> Element {
        let mut e = random_tree(draws);
        e.refresh_auto_ids();
        let pick = draws.first().map_or(0, |&x| x as usize);
        match shape {
            0 => {}
            1 => {
                let copy = e.clone();
                e = Element::new("twice", vec![e, copy]);
                e.id = ElemId::Auto(0);
                e.refresh_auto_ids();
                // the second copy shares the first one's IDs again
                if let Content::Elements(v) = &mut e.content {
                    v[1] = v[0].clone();
                }
            }
            2 | 3 => {
                let n = e.size();
                let target = pick % n;
                let id = match shape {
                    2 => e.walk().nth(pick / 7 % n).map(|x| x.id).expect("in range"),
                    _ => ElemId::named("p1"),
                };
                set_nth_id(&mut e, target, id);
            }
            _ => {
                // fresh IDs handed out bottom-up, as a tree built from
                // its leaves gets them
                fn post_order(e: &mut Element) {
                    if let Content::Elements(v) = &mut e.content {
                        v.iter_mut().for_each(post_order);
                    }
                    e.id = ElemId::fresh();
                }
                post_order(&mut e);
            }
        }
        e
    }

    /// Sets the ID of the `n`th element of `e` in document order.
    fn set_nth_id(e: &mut Element, n: usize, id: ElemId) {
        fn go(e: &mut Element, n: &mut usize, id: ElemId) -> bool {
            if *n == 0 {
                e.id = id;
                return true;
            }
            *n -= 1;
            match &mut e.content {
                Content::Elements(v) => v.iter_mut().any(|c| go(c, n, id)),
                Content::Text(_) => false,
            }
        }
        go(e, &mut { n }, id);
    }

    proptest! {
        /// The one-walk proof answers as the sort does: on trees with
        /// fresh, refreshed, cloned, folded `#N` and named IDs, and on
        /// arbitrary random ones.
        #[test]
        fn the_one_walk_duplicate_id_answers_as_the_sort_does(
            draws in prop::collection::vec(0u32..40_000, 0..40),
            shape in 0u32..5,
        ) {
            for doc in [
                Document::new(shaped_tree(&draws, shape)),
                Document::new(random_tree(&draws)),
            ] {
                prop_assert_eq!(doc.duplicate_id(), doc.duplicate_id_by_sorting());
            }
        }

        /// The sort-then-walk check reports exactly the ID a hash-set
        /// walk in document order reports, duplicate or not.
        #[test]
        fn duplicate_id_matches_a_hash_set_walk(
            draws in prop::collection::vec(0u32..40_000, 0..40)
        ) {
            let doc = Document::new(random_tree(&draws));
            prop_assert_eq!(doc.duplicate_id(), first_repeat(&doc.root, &mut HashSet::new()));
        }
    }

    #[test]
    fn empty_content_is_not_text() {
        let e = Element::new("teaches", vec![]);
        assert!(e.pcdata().is_none());
        assert_eq!(e.children().len(), 0);
    }
}
