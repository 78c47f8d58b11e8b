//! A source's last good answers are kept as compact text under a keyed
//! content fingerprint (DESIGN.md §7). Over random documents with
//! explicit IDs, `#N`-form IDs, markup characters, whitespace-only and
//! multi-byte text, multi-byte names and nesting:
//!
//! * `Element::fingerprint` is equal for copies that differ only in auto
//!   IDs, and differs after a rename, a text edit, a sibling swap, an
//!   added or dropped child, or a changed explicit ID;
//! * an answer served stale through `resilient_answer` renders with IDs
//!   exactly as the fresh answer does, and carries none of its auto IDs;
//!   an answer holding empty text, which its text would not reproduce,
//!   is not kept, so its query fails instead.

use mix::dtd::Validator;
use mix::mediator::{resilient_answer, Health, ReplyCheck, SourceInstruments};
use mix::prelude::*;
use mix::relang::symbol::Name;
use mix::xml::{Content, ElemId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Mutex;

/// Names with element content, under the root `r`.
const PARENTS: [&str; 3] = ["x", "y.z", "ñ-w"];
/// Names with text content.
const LEAVES: [&str; 3] = ["t", "u", "é"];

/// Characters of random texts: markup, whitespace, multi-byte.
const CHARS: [char; 16] = [
    'a', 'Z', '0', '&', '<', '>', '"', '\'', ' ', '\t', '\n', '\r', 'ü', '∑', '😀', ';',
];

/// The DTD every generated document is valid under: any children under
/// the root and the parents, text in the leaves.
fn dtd() -> Dtd {
    let names: Vec<&str> = PARENTS.iter().chain(&LEAVES).copied().collect();
    let any = format!("({})*", names.join(" | "));
    let mut src = format!("{{<r : {any}>");
    for p in PARENTS {
        src += &format!(" <{p} : {any}>");
    }
    for l in LEAVES {
        src += &format!(" <{l} : PCDATA>");
    }
    parse_compact(&(src + "}")).expect("the DTD parses")
}

/// A random text: now and then empty or whitespace only, otherwise up to
/// 40 characters of [`CHARS`].
fn text(rng: &mut StdRng) -> String {
    match rng.gen_range(0..20) {
        0 => String::new(),
        1 => " \t\n ".chars().take(rng.gen_range(1..5_usize)).collect(),
        _ => (0..rng.gen_range(1..40))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect(),
    }
}

/// A random ID, numbered from `next`: explicit (some spelled with markup
/// characters), of the `#N` form that folds onto an auto ID (numbered far
/// above any fresh ID a test run reaches), `#`-spelled and so treated as
/// auto, or none.
fn id(rng: &mut StdRng, next: &mut u64) -> Option<ElemId> {
    *next += 1;
    let text = match rng.gen_range(0..8) {
        0 => format!("p{next}"),
        1 => format!("q{next}&<\"'"),
        2 => format!("#{}", (1_u64 << 40) + *next),
        3 => format!("#n{next}"),
        _ => return None,
    };
    Some(ElemId::named(&text))
}

fn element(rng: &mut StdRng, depth: usize, next: &mut u64) -> Element {
    let mut e = if depth >= 5 || rng.gen_bool(0.5) {
        Element::text(LEAVES[rng.gen_range(0..3_usize)], &text(rng))
    } else {
        let children = (0..rng.gen_range(0..4))
            .map(|_| element(rng, depth + 1, next))
            .collect();
        Element::new(PARENTS[rng.gen_range(0..3_usize)], children)
    };
    if let Some(id) = id(rng, next) {
        e.id = id;
    }
    e
}

fn document(rng: &mut StdRng) -> Document {
    let mut next = 0;
    let children = (0..rng.gen_range(0..6))
        .map(|_| element(rng, 1, &mut next))
        .collect();
    let mut root = Element::new("r", children);
    if let Some(id) = id(rng, &mut next) {
        root.id = id;
    }
    Document::new(root)
}

/// The compact rendering with IDs, which is how the stale table keeps
/// an answer.
fn render(doc: &Document) -> String {
    let compact = WriteConfig {
        indent: None,
        write_ids: true,
    };
    write_document(doc, compact)
}

/// The child-index paths of every element of `e`, in document order.
fn paths(e: &Element, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    for (i, c) in e.children().iter().enumerate() {
        at.push(i);
        paths(c, at, out);
        at.pop();
    }
}

fn at_mut<'a>(e: &'a mut Element, path: &[usize]) -> &'a mut Element {
    path.iter().fold(e, |e, &i| match &mut e.content {
        Content::Elements(v) => &mut v[i],
        Content::Text(_) => unreachable!("paths lead through element content"),
    })
}

/// `root` with mutation `kind` applied at a random element that admits
/// it, or `None` when none does.
fn mutate(root: &Element, kind: usize, rng: &mut StdRng) -> Option<Element> {
    let mut all = Vec::new();
    paths(root, &mut Vec::new(), &mut all);
    let mut copy = root.clone();
    let fits = |e: &Element| match kind {
        1 => e.pcdata().is_some(),
        2 => e.children().len() >= 2,
        3 => matches!(e.content, Content::Elements(_)),
        4 => !e.children().is_empty(),
        _ => true,
    };
    let fitting: Vec<&Vec<usize>> = all.iter().filter(|p| fits(at_mut(&mut copy, p))).collect();
    let path = fitting.get(rng.gen_range(0..fitting.len().max(1)))?;
    let e = at_mut(&mut copy, path);
    match kind {
        // rename
        0 => e.name = Name::intern(if e.name.as_str() == "t" { "u" } else { "t" }),
        // text edit: one ASCII byte changed, which keeps the length, or
        // one character more when the text has no ASCII byte
        1 => {
            if let Content::Text(t) = &mut e.content {
                let ascii: Vec<usize> = (0..t.len())
                    .filter(|&i| t.as_bytes()[i].is_ascii())
                    .collect();
                match ascii.get(rng.gen_range(0..ascii.len().max(1))) {
                    Some(&i) => {
                        let c = if t.as_bytes()[i] == b'a' { "b" } else { "a" };
                        t.replace_range(i..i + 1, c);
                    }
                    None => t.push(CHARS[rng.gen_range(0..CHARS.len())]),
                }
            }
        }
        // sibling swap
        2 => {
            if let Content::Elements(v) = &mut e.content {
                let i = rng.gen_range(0..v.len() - 1);
                v.swap(i, i + 1);
            }
        }
        // added child
        3 => {
            if let Content::Elements(v) = &mut e.content {
                let i = rng.gen_range(0..=v.len());
                v.insert(i, Element::text("t", "added"));
            }
        }
        // dropped child
        4 => {
            if let Content::Elements(v) = &mut e.content {
                v.remove(rng.gen_range(0..v.len()));
            }
        }
        // changed explicit ID
        _ => e.id = ElemId::named(&format!("changed{}", rng.gen_range(0..u32::MAX))),
    }
    Some(copy)
}

/// Answers every query with its document once, and is unavailable after.
struct Once {
    dtd: Dtd,
    doc: Mutex<Option<Document>>,
}

impl Wrapper for Once {
    fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    fn fetch(&self) -> Result<Document, SourceError> {
        Err(SourceError::Unavailable("answers only".into()))
    }

    fn answer(&self, _: &Query) -> Result<Document, SourceError> {
        self.doc
            .lock()
            .unwrap()
            .take()
            .ok_or_else(|| SourceError::Unavailable("answered once".into()))
    }
}

const CASES: u32 = 400;

/// Stale answers served, and queries failed for empty text, over the
/// cases run so far of [`stale_answers_render_as_the_fresh_answer`].
static SERVED: Mutex<[u32; 2]> = Mutex::new([0; 2]);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The fingerprint agrees with `same_up_to_auto_ids`: equal for
    /// copies that differ in auto IDs only, different after each kind of
    /// edit that `same_up_to_auto_ids` sees.
    #[test]
    fn fingerprints_see_every_edit_and_no_auto_id(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = document(&mut rng);
        let key = rng.gen_range(0..u64::MAX);
        let print = doc.root.fingerprint(key);
        prop_assert_eq!(print.elements, doc.size());
        let mut refreshed = doc.root.clone();
        refreshed.refresh_auto_ids();
        prop_assert_eq!(refreshed.fingerprint(key).hash, print.hash);
        let has_empty_text = doc.root.walk().any(|e| e.pcdata() == Some(""));
        prop_assert_eq!(print.reads_back, !has_empty_text);
        if print.reads_back {
            let back = parse_document(&render(&doc)).expect("the text reads back");
            prop_assert!(back.root.same_up_to_auto_ids(&doc.root));
            prop_assert_eq!(back.root.fingerprint(key), print);
        }
        for kind in 0..6 {
            let Some(edited) = mutate(&doc.root, kind, &mut rng) else {
                continue;
            };
            if !edited.same_up_to_auto_ids(&doc.root) {
                prop_assert_ne!(edited.fingerprint(key).hash, print.hash, "edit {}", kind);
            }
        }
    }

    /// A stale answer renders with IDs exactly as the fresh one, with
    /// auto IDs of its own; one holding empty text is not kept.
    #[test]
    fn stale_answers_render_as_the_fresh_answer(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = document(&mut rng);
        let dtd = dtd();
        let validator = Validator::new(&dtd);
        let w = Once { dtd: dtd.clone(), doc: Mutex::new(Some(doc.clone())) };
        let query = parse_query("v = SELECT X WHERE <r> X:<x/> </r>").unwrap();
        let health = Mutex::new(Health::new());
        let policy = ResiliencePolicy::default();
        let call = || resilient_answer(
            "s",
            &w,
            &query,
            ReplyCheck::View(&validator),
            &policy,
            &health,
            &SourceInstruments::noop("s"),
        );
        let (_, fresh) = call();
        prop_assert_eq!(fresh.status, FetchStatus::Fresh);
        let (stale, outcome) = call();
        let empty_text = doc.root.walk().any(|e| e.pcdata() == Some(""));
        let served = {
            let mut served = SERVED.lock().unwrap();
            served[usize::from(empty_text)] += 1;
            *served
        };
        if served[0] + served[1] == CASES {
            prop_assert!(served[0] >= CASES / 2 && served[1] >= CASES / 10, "{:?}", served);
        }
        if empty_text {
            prop_assert_eq!(outcome.status, FetchStatus::Failed);
            return;
        }
        prop_assert_eq!(outcome.status, FetchStatus::Stale);
        let stale = stale.expect("a stale answer");
        prop_assert_eq!(render(&stale), render(&doc));
        let original: HashSet<ElemId> = doc.root.walk().map(|e| e.id).collect();
        for e in stale.root.walk().filter(|e| e.id.is_auto()) {
            prop_assert!(!original.contains(&e.id), "{} is the original's", e.id);
        }
    }
}
