//! Hash-consed regex pool: every structurally-canonical regex node is
//! interned once into a process-wide arena and addressed by a `u32`
//! [`ReId`], so structural equality and hashing become single integer
//! compares (the classic technique of Owens/Reppy/Turon,
//! "Regular-expression derivatives re-examined").
//!
//! The pool caches per-node attributes at intern time — nullability,
//! size, the sorted symbol alphabet, the first-set, and a content-stable
//! fingerprint — so the derivative, determinism, simplification, and
//! inference layers stop recomputing them on every visit. Smart
//! constructors ([`concat_ids`], [`alt_ids`], [`star_id`], [`plus_id`],
//! [`opt_id`]) perform **exactly** the normalizations of the boxed
//! [`Regex`] constructors, which gives the central invariant:
//!
//! > `ReId` equality ⟺ structural equality of the externed regexes, and
//! > every id-level rewrite mirrors its boxed twin node-for-node.
//!
//! [`intern`] maps a boxed [`Regex`] into the pool *verbatim* (no
//! re-normalization) and [`to_regex`] rebuilds the identical structure,
//! so the conversion is lossless in both directions and the boxed type
//! remains the parse/display/public-API boundary.
//!
//! The pool is append-only: ids are never invalidated, entries are never
//! moved, and the arena is shared by every thread behind a `parking_lot`
//! lock (the same pattern as the [`crate::symbol`] interner). Node
//! count, approximate bytes, and intern hit/miss counters are exported
//! as `relang_pool_*` instruments of [`mix_obs::global()`].

use crate::ast::Regex;
use crate::symbol::Sym;
use mix_obs::{Counter, Gauge};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A handle to one interned regex node. Copy, 4 bytes; equality and
/// hashing are integer operations, and two ids are equal iff the regexes
/// they denote are structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReId(u32);

impl ReId {
    /// The id of [`Regex::Empty`] (the paper's `fail`), pre-seeded at slot 0.
    pub const EMPTY: ReId = ReId(0);
    /// The id of [`Regex::Epsilon`], pre-seeded at slot 1.
    pub const EPSILON: ReId = ReId(1);

    /// The raw arena index (dense, allocation order).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for ReId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReId({} = {})", self.0, to_regex(*self))
    }
}

/// The shape of one pool node: the [`Regex`] enum with every child
/// replaced by its [`ReId`]. Sequence children are shared `Arc` slices so
/// reading a node out of the pool never deep-copies.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ReNode {
    /// The empty language.
    Empty,
    /// The empty sequence `ε`.
    Epsilon,
    /// A single tagged name.
    Sym(Sym),
    /// Concatenation (children in order).
    Concat(Arc<[ReId]>),
    /// Union (children in order).
    Alt(Arc<[ReId]>),
    /// Kleene closure.
    Star(ReId),
    /// One-or-more.
    Plus(ReId),
    /// Zero-or-one.
    Opt(ReId),
}

/// One arena slot: the node plus every attribute computed at intern time.
///
/// `alphabet`/`first` are *structural* (they may over-approximate the
/// language on non-normalized regexes that nest `Empty`); `empty_lang`,
/// `live_first`, and `live_alpha` are *language-exact* for every input —
/// the inclusion memo uses them to refute `L(a) ⊆ L(b)` in O(|Σ|)
/// without touching an automaton.
struct Entry {
    node: ReNode,
    nullable: bool,
    fp: u64,
    size: u32,
    alphabet: Arc<[Sym]>,
    first: Arc<[Sym]>,
    empty_lang: bool,
    live_first: Arc<[Sym]>,
    live_alpha: Arc<[Sym]>,
}

struct Inner {
    entries: Vec<Entry>,
    index: HashMap<ReNode, u32>,
    /// Memoized [`image_id`] results (tag-projection is *hot* in tighten).
    images: HashMap<ReId, ReId>,
    /// Bytes held in child slices / alphabets / first-sets (approximate).
    aux_bytes: usize,
}

struct Pool {
    inner: RwLock<Inner>,
    hits: Counter,
    misses: Counter,
    nodes_gauge: Gauge,
    bytes_gauge: Gauge,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let obs = mix_obs::global();
        let empty_syms: Arc<[Sym]> = Arc::from(Vec::new());
        let entries = vec![
            Entry {
                node: ReNode::Empty,
                nullable: false,
                fp: mix(0, 1),
                size: 1,
                alphabet: Arc::clone(&empty_syms),
                first: Arc::clone(&empty_syms),
                empty_lang: true,
                live_first: Arc::clone(&empty_syms),
                live_alpha: Arc::clone(&empty_syms),
            },
            Entry {
                node: ReNode::Epsilon,
                nullable: true,
                fp: mix(0, 2),
                size: 1,
                alphabet: Arc::clone(&empty_syms),
                first: Arc::clone(&empty_syms),
                empty_lang: false,
                live_first: Arc::clone(&empty_syms),
                live_alpha: empty_syms,
            },
        ];
        let mut index = HashMap::new();
        index.insert(ReNode::Empty, 0);
        index.insert(ReNode::Epsilon, 1);
        Pool {
            inner: RwLock::new(Inner {
                entries,
                index,
                images: HashMap::new(),
                aux_bytes: 0,
            }),
            hits: obs.counter("relang_pool_intern_hits_total"),
            misses: obs.counter("relang_pool_intern_misses_total"),
            nodes_gauge: obs.gauge("relang_pool_nodes"),
            bytes_gauge: obs.gauge("relang_pool_bytes"),
        }
    })
}

/// SplitMix64 finalizer over a running combine — the same stable mixer as
/// the inference cache, so fingerprints are process-independent (they
/// bottom out in [`Sym::stable_hash`], never in intern indices).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sorted dedup-merge of already-sorted symbol sets, reusing an input
/// `Arc` when the merge adds nothing.
fn merge_syms(sets: &[&Arc<[Sym]>]) -> Arc<[Sym]> {
    let mut nonempty: Vec<&Arc<[Sym]>> = sets.iter().copied().filter(|s| !s.is_empty()).collect();
    match nonempty.len() {
        0 => Arc::from(Vec::new()),
        1 => Arc::clone(nonempty.pop().expect("len checked")),
        _ => {
            let mut out: Vec<Sym> = Vec::new();
            for set in nonempty {
                out.extend(set.iter().copied());
            }
            out.sort();
            out.dedup();
            Arc::from(out)
        }
    }
}

/// Every cached attribute of one node, computed before insertion.
struct Attrs {
    nullable: bool,
    fp: u64,
    size: u32,
    alphabet: Arc<[Sym]>,
    first: Arc<[Sym]>,
    empty_lang: bool,
    live_first: Arc<[Sym]>,
    live_alpha: Arc<[Sym]>,
}

/// Computes every cached attribute of `node` from its (already interned)
/// children. Called with a read guard on the arena.
///
/// The `live_*` sets are language-exact for arbitrary (even
/// non-normalized) structures because they are threaded through
/// `empty_lang`: a child with an empty language contributes nothing, and
/// an empty-language parent has empty live sets.
fn compute_attrs(inner: &Inner, node: &ReNode) -> Attrs {
    let e = |id: ReId| &inner.entries[id.0 as usize];
    let empty_syms = || -> Arc<[Sym]> { Arc::from(Vec::new()) };
    match node {
        ReNode::Empty | ReNode::Epsilon => unreachable!("seeded at pool construction"),
        ReNode::Sym(s) => {
            let one: Arc<[Sym]> = Arc::from(vec![*s]);
            Attrs {
                nullable: false,
                fp: mix(mix(0, 3), s.stable_hash()),
                size: 1,
                alphabet: Arc::clone(&one),
                first: Arc::clone(&one),
                empty_lang: false,
                live_first: Arc::clone(&one),
                live_alpha: one,
            }
        }
        ReNode::Concat(v) => {
            let nullable = v.iter().all(|&c| e(c).nullable);
            let fp = v.iter().fold(mix(0, 4), |h, &c| mix(h, e(c).fp));
            let size = 1 + v.iter().map(|&c| e(c).size).sum::<u32>();
            let alpha = merge_syms(&v.iter().map(|&c| &e(c).alphabet).collect::<Vec<_>>());
            // first = union of children first-sets up to and including the
            // first non-nullable child
            let mut firsts: Vec<&Arc<[Sym]>> = Vec::new();
            for &c in v.iter() {
                firsts.push(&e(c).first);
                if !e(c).nullable {
                    break;
                }
            }
            let first = merge_syms(&firsts);
            // a concatenation is empty iff any factor is; when nonempty,
            // every factor is nonempty so the live unions are plain
            let empty_lang = v.iter().any(|&c| e(c).empty_lang);
            let (live_first, live_alpha) = if empty_lang {
                (empty_syms(), empty_syms())
            } else {
                let la = merge_syms(&v.iter().map(|&c| &e(c).live_alpha).collect::<Vec<_>>());
                let mut lfs: Vec<&Arc<[Sym]>> = Vec::new();
                for &c in v.iter() {
                    lfs.push(&e(c).live_first);
                    if !e(c).nullable {
                        break;
                    }
                }
                (merge_syms(&lfs), la)
            };
            Attrs {
                nullable,
                fp,
                size,
                alphabet: alpha,
                first,
                empty_lang,
                live_first,
                live_alpha,
            }
        }
        ReNode::Alt(v) => {
            let nullable = v.iter().any(|&c| e(c).nullable);
            let fp = v.iter().fold(mix(0, 5), |h, &c| mix(h, e(c).fp));
            let size = 1 + v.iter().map(|&c| e(c).size).sum::<u32>();
            let alpha = merge_syms(&v.iter().map(|&c| &e(c).alphabet).collect::<Vec<_>>());
            let first = merge_syms(&v.iter().map(|&c| &e(c).first).collect::<Vec<_>>());
            // empty-language branches have empty live sets, so plain
            // unions are already the exact live sets of the union
            let empty_lang = v.iter().all(|&c| e(c).empty_lang);
            let live_first = merge_syms(&v.iter().map(|&c| &e(c).live_first).collect::<Vec<_>>());
            let live_alpha = merge_syms(&v.iter().map(|&c| &e(c).live_alpha).collect::<Vec<_>>());
            Attrs {
                nullable,
                fp,
                size,
                alphabet: alpha,
                first,
                empty_lang,
                live_first,
                live_alpha,
            }
        }
        ReNode::Star(x) | ReNode::Plus(x) | ReNode::Opt(x) => {
            let tag = match node {
                ReNode::Star(_) => 6,
                ReNode::Plus(_) => 7,
                _ => 8,
            };
            let c = e(*x);
            let nullable = match node {
                ReNode::Plus(_) => c.nullable,
                _ => true,
            };
            // `g*` and `g?` always contain ε; `g+` is empty iff `g` is.
            // In every case the live sets coincide with the child's.
            let empty_lang = match node {
                ReNode::Plus(_) => c.empty_lang,
                _ => false,
            };
            Attrs {
                nullable,
                fp: mix(mix(0, tag), c.fp),
                size: 1 + c.size,
                alphabet: Arc::clone(&c.alphabet),
                first: Arc::clone(&c.first),
                empty_lang,
                live_first: Arc::clone(&c.live_first),
                live_alpha: Arc::clone(&c.live_alpha),
            }
        }
    }
}

fn aux_bytes_of(node: &ReNode, attrs: &Attrs) -> usize {
    let child_bytes = match node {
        ReNode::Concat(v) | ReNode::Alt(v) => std::mem::size_of_val(&v[..]),
        _ => 0,
    };
    // symbol sets are shared Arcs; count them once via strong-count 1
    let set_bytes = |s: &Arc<[Sym]>| {
        if Arc::strong_count(s) <= 2 {
            std::mem::size_of_val(&s[..])
        } else {
            0
        }
    };
    child_bytes
        + set_bytes(&attrs.alphabet)
        + set_bytes(&attrs.first)
        + set_bytes(&attrs.live_first)
        + set_bytes(&attrs.live_alpha)
}

/// Interns a fully-formed node (children must already be pool ids).
fn intern_node(node: ReNode) -> ReId {
    let p = pool();
    {
        let g = p.inner.read();
        if let Some(&i) = g.index.get(&node) {
            p.hits.inc();
            return ReId(i);
        }
    }
    let attrs = {
        let g = p.inner.read();
        compute_attrs(&g, &node)
    };
    let mut g = p.inner.write();
    if let Some(&i) = g.index.get(&node) {
        p.hits.inc();
        return ReId(i);
    }
    let i = g.entries.len() as u32;
    g.aux_bytes += aux_bytes_of(&node, &attrs);
    g.index.insert(node.clone(), i);
    g.entries.push(Entry {
        node,
        nullable: attrs.nullable,
        fp: attrs.fp,
        size: attrs.size,
        alphabet: attrs.alphabet,
        first: attrs.first,
        empty_lang: attrs.empty_lang,
        live_first: attrs.live_first,
        live_alpha: attrs.live_alpha,
    });
    p.misses.inc();
    p.nodes_gauge.set(g.entries.len() as i64);
    p.bytes_gauge.set(approx_bytes(&g) as i64);
    ReId(i)
}

fn approx_bytes(g: &Inner) -> usize {
    g.entries.len() * (std::mem::size_of::<Entry>() + std::mem::size_of::<(ReNode, u32)>())
        + g.aux_bytes
}

// ---------------------------------------------------------------------
// Smart constructors — each mirrors its boxed Regex twin exactly.
// ---------------------------------------------------------------------

/// The interned [`Regex::Sym`] leaf.
pub fn sym_id(s: Sym) -> ReId {
    intern_node(ReNode::Sym(s))
}

/// Smart concatenation over ids: flattens, drops `ε`, propagates `Empty`
/// (mirrors [`Regex::concat`]).
pub fn concat_ids(parts: impl IntoIterator<Item = ReId>) -> ReId {
    // collect first: the iterator may intern on the fly, and holding the
    // read guard across a re-entrant write would deadlock
    let parts: Vec<ReId> = parts.into_iter().collect();
    let mut out: Vec<ReId> = Vec::new();
    {
        let g = pool().inner.read();
        for id in parts {
            match &g.entries[id.0 as usize].node {
                ReNode::Empty => return ReId::EMPTY,
                ReNode::Epsilon => {}
                ReNode::Concat(v) => out.extend(v.iter().copied()),
                _ => out.push(id),
            }
        }
    }
    match out.len() {
        0 => ReId::EPSILON,
        1 => out[0],
        _ => intern_node(ReNode::Concat(out.into())),
    }
}

/// Smart union over ids: flattens, drops `Empty`, deduplicates (id
/// equality *is* the structural dedup of [`Regex::alt`]), and
/// canonicalizes an `ε` branch into `?`.
pub fn alt_ids(parts: impl IntoIterator<Item = ReId>) -> ReId {
    let parts: Vec<ReId> = parts.into_iter().collect();
    let mut out: Vec<ReId> = Vec::new();
    let mut has_epsilon = false;
    {
        let g = pool().inner.read();
        for id in parts {
            match &g.entries[id.0 as usize].node {
                ReNode::Empty => {}
                ReNode::Epsilon => has_epsilon = true,
                ReNode::Alt(v) => {
                    for &x in v.iter() {
                        if !out.contains(&x) {
                            out.push(x);
                        }
                    }
                }
                _ => {
                    if !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
    }
    let core = match out.len() {
        0 => {
            return if has_epsilon {
                ReId::EPSILON
            } else {
                ReId::EMPTY
            }
        }
        1 => out[0],
        _ => intern_node(ReNode::Alt(out.into())),
    };
    if has_epsilon {
        opt_id(core)
    } else {
        core
    }
}

/// Smart Kleene star (mirrors [`Regex::star`]).
pub fn star_id(r: ReId) -> ReId {
    match node(r) {
        ReNode::Empty | ReNode::Epsilon => ReId::EPSILON,
        ReNode::Star(_) => r,
        ReNode::Plus(inner) | ReNode::Opt(inner) => intern_node(ReNode::Star(inner)),
        _ => intern_node(ReNode::Star(r)),
    }
}

/// Smart `+` (mirrors [`Regex::plus`]).
pub fn plus_id(r: ReId) -> ReId {
    match node(r) {
        ReNode::Empty => ReId::EMPTY,
        ReNode::Epsilon => ReId::EPSILON,
        ReNode::Star(_) | ReNode::Plus(_) => r,
        ReNode::Opt(inner) => intern_node(ReNode::Star(inner)),
        _ => intern_node(ReNode::Plus(r)),
    }
}

/// Smart `?` (mirrors [`Regex::opt`]).
pub fn opt_id(r: ReId) -> ReId {
    match node(r) {
        ReNode::Empty | ReNode::Epsilon => ReId::EPSILON,
        ReNode::Star(_) | ReNode::Opt(_) => r,
        ReNode::Plus(inner) => intern_node(ReNode::Star(inner)),
        _ => intern_node(ReNode::Opt(r)),
    }
}

// ---------------------------------------------------------------------
// Conversions and accessors
// ---------------------------------------------------------------------

/// Interns a boxed regex *verbatim* — no re-normalization, so
/// [`to_regex`]`(intern(r))` is structurally identical to `r` for every
/// input, normalized or not.
pub fn intern(r: &Regex) -> ReId {
    match r {
        Regex::Empty => ReId::EMPTY,
        Regex::Epsilon => ReId::EPSILON,
        Regex::Sym(s) => sym_id(*s),
        Regex::Concat(v) => {
            let kids: Vec<ReId> = v.iter().map(intern).collect();
            intern_node(ReNode::Concat(kids.into()))
        }
        Regex::Alt(v) => {
            let kids: Vec<ReId> = v.iter().map(intern).collect();
            intern_node(ReNode::Alt(kids.into()))
        }
        Regex::Star(x) => intern_node(ReNode::Star(intern(x))),
        Regex::Plus(x) => intern_node(ReNode::Plus(intern(x))),
        Regex::Opt(x) => intern_node(ReNode::Opt(intern(x))),
    }
}

/// Rebuilds the boxed regex denoted by `id` (the lossless inverse of
/// [`intern`]).
pub fn to_regex(id: ReId) -> Regex {
    match node(id) {
        ReNode::Empty => Regex::Empty,
        ReNode::Epsilon => Regex::Epsilon,
        ReNode::Sym(s) => Regex::Sym(s),
        ReNode::Concat(v) => Regex::Concat(v.iter().map(|&c| to_regex(c)).collect()),
        ReNode::Alt(v) => Regex::Alt(v.iter().map(|&c| to_regex(c)).collect()),
        ReNode::Star(x) => Regex::Star(Box::new(to_regex(x))),
        ReNode::Plus(x) => Regex::Plus(Box::new(to_regex(x))),
        ReNode::Opt(x) => Regex::Opt(Box::new(to_regex(x))),
    }
}

/// The node stored at `id` (cheap: children are shared `Arc` slices).
pub fn node(id: ReId) -> ReNode {
    pool().inner.read().entries[id.0 as usize].node.clone()
}

/// Cached nullability (does `L(id)` contain the empty sequence?).
pub fn nullable(id: ReId) -> bool {
    pool().inner.read().entries[id.0 as usize].nullable
}

/// Cached content-stable fingerprint: a process-independent structural
/// hash built from [`Sym::stable_hash`] leaves. Equal fingerprints are a
/// (collision-improbable) witness of structural equality across
/// processes; within one process use `ReId` equality instead.
pub fn fingerprint(id: ReId) -> u64 {
    pool().inner.read().entries[id.0 as usize].fp
}

/// Cached AST node count.
pub fn size(id: ReId) -> usize {
    pool().inner.read().entries[id.0 as usize].size as usize
}

/// Cached sorted distinct symbols of the regex.
pub fn alphabet(id: ReId) -> Arc<[Sym]> {
    Arc::clone(&pool().inner.read().entries[id.0 as usize].alphabet)
}

/// Cached first-set: the symbols that can start a word of `L(id)` (an
/// over-approximation only for non-normalized regexes that nest `Empty`).
pub fn first_set(id: ReId) -> Arc<[Sym]> {
    Arc::clone(&pool().inner.read().entries[id.0 as usize].first)
}

/// Cached, language-exact emptiness: `L(id) = ∅`? Exact for every input,
/// normalized or not.
pub fn empty_lang(id: ReId) -> bool {
    pool().inner.read().entries[id.0 as usize].empty_lang
}

/// Cached, language-exact first-set: exactly the symbols that start some
/// word of `L(id)`.
pub fn live_first(id: ReId) -> Arc<[Sym]> {
    Arc::clone(&pool().inner.read().entries[id.0 as usize].live_first)
}

/// Cached, language-exact alphabet: exactly the symbols occurring in some
/// word of `L(id)`.
pub fn live_alphabet(id: ReId) -> Arc<[Sym]> {
    Arc::clone(&pool().inner.read().entries[id.0 as usize].live_alpha)
}

/// `a ⊆ b` over sorted symbol sets (a linear merge walk).
pub fn syms_subset(a: &[Sym], b: &[Sym]) -> bool {
    let mut i = 0;
    for &s in a {
        while i < b.len() && b[i] < s {
            i += 1;
        }
        if i >= b.len() || b[i] != s {
            return false;
        }
    }
    true
}

/// The sorted union of two cached alphabets (the shared alphabet of a
/// product construction), reusing `a`'s set when it already covers `b`.
pub fn shared_alphabet_ids(a: ReId, b: ReId) -> Arc<[Sym]> {
    let (sa, sb) = {
        let g = pool().inner.read();
        (
            Arc::clone(&g.entries[a.0 as usize].alphabet),
            Arc::clone(&g.entries[b.0 as usize].alphabet),
        )
    };
    merge_syms(&[&sa, &sb])
}

/// Rebuilds `id` with every leaf replaced by `f(leaf)` — the id-level
/// [`Regex::map_syms`].
pub fn map_syms_id(id: ReId, f: &mut impl FnMut(Sym) -> ReId) -> ReId {
    match node(id) {
        ReNode::Empty => ReId::EMPTY,
        ReNode::Epsilon => ReId::EPSILON,
        ReNode::Sym(s) => f(s),
        ReNode::Concat(v) => concat_ids(v.iter().map(|&c| map_syms_id(c, f)).collect::<Vec<_>>()),
        ReNode::Alt(v) => alt_ids(v.iter().map(|&c| map_syms_id(c, f)).collect::<Vec<_>>()),
        ReNode::Star(x) => star_id(map_syms_id(x, f)),
        ReNode::Plus(x) => plus_id(map_syms_id(x, f)),
        ReNode::Opt(x) => opt_id(map_syms_id(x, f)),
    }
}

/// Memoized image (Definition 3.9): every `n^T` becomes `n^0`. Tighten
/// asks for the same images over and over; the pool remembers each.
pub fn image_id(id: ReId) -> ReId {
    if let Some(&img) = pool().inner.read().images.get(&id) {
        return img;
    }
    let img = map_syms_id(id, &mut |s| sym_id(s.name.untagged()));
    pool().inner.write().images.insert(id, img);
    img
}

// ---------------------------------------------------------------------
// Portable arena export / import (the mix-store warm-start surface)
// ---------------------------------------------------------------------

/// One node of a portable arena export: the [`ReNode`] shape with every
/// child replaced by its *export index* and symbols spelled out as
/// `(name string, tag)` pairs. Intern indices are process-local, so a
/// portable encoding must bottom out in content, never in ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableNode {
    /// The empty language.
    Empty,
    /// The empty sequence `ε`.
    Epsilon,
    /// A single tagged name, by content.
    Sym {
        /// The element name, spelled out.
        name: String,
        /// The specialization tag (`0` = untagged).
        tag: crate::symbol::Tag,
    },
    /// Concatenation (children as export indices).
    Concat(Vec<u32>),
    /// Union (children as export indices).
    Alt(Vec<u32>),
    /// Kleene closure.
    Star(u32),
    /// One-or-more.
    Plus(u32),
    /// Zero-or-one.
    Opt(u32),
}

/// One exported arena slot: the portable node plus the content-stable
/// fingerprint cached at intern time. [`import_arena`] re-interns the
/// node and re-verifies the fingerprint; a mismatch disqualifies the
/// slot (and everything reachable through it) instead of trusting it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableEntry {
    /// The node, children as indices into the same export.
    pub node: PortableNode,
    /// The [`fingerprint`] recorded when the node was interned.
    pub fp: u64,
}

/// The outcome of [`import_arena`]: a dense map from export indices to
/// the (re-)interned ids of this process, with holes where a slot failed
/// re-validation.
#[derive(Clone, Debug, Default)]
pub struct ImportedArena {
    /// `ids[i]` is the local id of export slot `i`, or `None` if the slot
    /// (or a child it depends on) failed fingerprint re-validation.
    pub ids: Vec<Option<ReId>>,
    /// Slots re-interned and fingerprint-verified.
    pub imported: usize,
    /// Slots dropped (bad child reference or fingerprint mismatch).
    pub skipped: usize,
}

impl ImportedArena {
    /// The local id of export slot `i`, if it survived re-validation.
    pub fn id(&self, i: u32) -> Option<ReId> {
        self.ids.get(i as usize).copied().flatten()
    }
}

/// Exports the whole arena in allocation order. Children always precede
/// parents (a node is interned only after its children), so an export is
/// importable by a single forward pass. The export index of a slot is
/// exactly its [`ReId::index`] at export time.
pub fn export_arena() -> Vec<PortableEntry> {
    let g = pool().inner.read();
    g.entries
        .iter()
        .map(|e| {
            let node = match &e.node {
                ReNode::Empty => PortableNode::Empty,
                ReNode::Epsilon => PortableNode::Epsilon,
                ReNode::Sym(s) => PortableNode::Sym {
                    name: s.name.as_str().to_owned(),
                    tag: s.tag,
                },
                ReNode::Concat(v) => PortableNode::Concat(v.iter().map(|c| c.0).collect()),
                ReNode::Alt(v) => PortableNode::Alt(v.iter().map(|c| c.0).collect()),
                ReNode::Star(x) => PortableNode::Star(x.0),
                ReNode::Plus(x) => PortableNode::Plus(x.0),
                ReNode::Opt(x) => PortableNode::Opt(x.0),
            };
            PortableEntry { node, fp: e.fp }
        })
        .collect()
}

/// Re-interns an exported arena into this process's pool, re-validating
/// every slot: children must resolve to already-imported slots (exports
/// are in allocation order, so a forward reference is corruption), and
/// the recomputed fingerprint must equal the recorded one. A failed slot
/// becomes a hole; slots referencing a hole become holes themselves, so
/// corruption never poisons anything downstream — ids stay dense because
/// interning goes through the ordinary hash-consing path.
pub fn import_arena(entries: &[PortableEntry]) -> ImportedArena {
    use crate::symbol::Name;
    let mut out = ImportedArena {
        ids: Vec::with_capacity(entries.len()),
        ..ImportedArena::default()
    };
    for entry in entries {
        // resolve children against the slots imported so far; any miss
        // (forward/out-of-range reference or an earlier hole) skips this
        // slot too
        let child = |i: &u32| out.ids.get(*i as usize).copied().flatten();
        let id = match &entry.node {
            PortableNode::Empty => Some(ReId::EMPTY),
            PortableNode::Epsilon => Some(ReId::EPSILON),
            PortableNode::Sym { name, tag } => Some(sym_id(Sym {
                name: Name::intern(name),
                tag: *tag,
            })),
            PortableNode::Concat(v) => v
                .iter()
                .map(child)
                .collect::<Option<Vec<ReId>>>()
                .map(|kids| intern_node(ReNode::Concat(kids.into()))),
            PortableNode::Alt(v) => v
                .iter()
                .map(child)
                .collect::<Option<Vec<ReId>>>()
                .map(|kids| intern_node(ReNode::Alt(kids.into()))),
            PortableNode::Star(x) => child(x).map(|k| intern_node(ReNode::Star(k))),
            PortableNode::Plus(x) => child(x).map(|k| intern_node(ReNode::Plus(k))),
            PortableNode::Opt(x) => child(x).map(|k| intern_node(ReNode::Opt(k))),
        };
        // content-addressing check: the fingerprint recomputed from the
        // re-interned structure must match the recorded one
        let id = id.filter(|&i| fingerprint(i) == entry.fp);
        match id {
            Some(_) => out.imported += 1,
            None => out.skipped += 1,
        }
        out.ids.push(id);
    }
    out
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// A snapshot of the pool's size and dedup counters (a typed view over
/// the `relang_pool_*` instruments of [`mix_obs::global()`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Interned nodes currently resident (the arena never shrinks).
    pub nodes: u64,
    /// Approximate bytes held by the arena, hash-cons index, and cached
    /// attribute sets.
    pub bytes: u64,
    /// Constructor calls answered by an existing node.
    pub intern_hits: u64,
    /// Constructor calls that allocated a fresh node.
    pub intern_misses: u64,
}

impl PoolStats {
    /// Fraction of intern probes deduplicated onto an existing node.
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }
}

/// Current pool statistics.
pub fn pool_stats() -> PoolStats {
    let p = pool();
    let g = p.inner.read();
    PoolStats {
        nodes: g.entries.len() as u64,
        bytes: approx_bytes(&g) as u64,
        intern_hits: p.hits.get(),
        intern_misses: p.misses.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use crate::symbol::{name, sym};

    fn r(s: &str) -> Regex {
        parse_regex(s).unwrap()
    }

    #[test]
    fn intern_is_lossless_and_idempotent() {
        for src in [
            "a",
            "a, b",
            "(a | b)*, c",
            "title, author+, (journal | conference)",
            "(a?, b)*",
            "j^1, (j | c)*",
        ] {
            let re = r(src);
            let id = intern(&re);
            assert_eq!(to_regex(id), re, "{src} did not round-trip");
            assert_eq!(intern(&re), id, "{src} re-interned to a new id");
        }
        assert_eq!(intern(&Regex::Empty), ReId::EMPTY);
        assert_eq!(intern(&Regex::Epsilon), ReId::EPSILON);
    }

    #[test]
    fn id_equality_is_structural_equality() {
        let a = intern(&r("x, (y | z)*"));
        let b = intern(&r("x, (y | z)*"));
        let c = intern(&r("x, (z | y)*"));
        assert_eq!(a, b);
        assert_ne!(a, c, "branch order is structural");
    }

    #[test]
    fn smart_ctors_mirror_boxed_twins() {
        let a = Regex::Sym(sym("a"));
        let b = Regex::Sym(sym("b"));
        let ia = intern(&a);
        let ib = intern(&b);
        // concat laws
        assert_eq!(concat_ids([ReId::EPSILON, ia]), ia);
        assert_eq!(concat_ids([ReId::EMPTY, ia]), ReId::EMPTY);
        assert_eq!(concat_ids([] as [ReId; 0]), ReId::EPSILON);
        assert_eq!(
            to_regex(concat_ids([concat_ids([ia, ib]), ia])),
            Regex::concat([a.clone().then(b.clone()), a.clone()])
        );
        // alt laws
        assert_eq!(alt_ids([ReId::EMPTY, ia]), ia);
        assert_eq!(alt_ids([ia, ia]), ia);
        assert_eq!(alt_ids([] as [ReId; 0]), ReId::EMPTY);
        assert_eq!(
            to_regex(alt_ids([ReId::EPSILON, ia])),
            Regex::alt([Regex::Epsilon, a.clone()])
        );
        // star/plus/opt collapses
        assert_eq!(star_id(ReId::EPSILON), ReId::EPSILON);
        assert_eq!(star_id(star_id(ia)), star_id(ia));
        assert_eq!(star_id(plus_id(ia)), star_id(ia));
        assert_eq!(plus_id(opt_id(ia)), star_id(ia));
        assert_eq!(opt_id(plus_id(ia)), star_id(ia));
        assert_eq!(opt_id(opt_id(ia)), opt_id(ia));
        assert_eq!(plus_id(ReId::EMPTY), ReId::EMPTY);
        assert_eq!(opt_id(ReId::EMPTY), ReId::EPSILON);
        let _ = b;
    }

    #[test]
    fn cached_attributes_agree_with_boxed() {
        for src in [
            "a",
            "a?, b",
            "(a | b)*, c",
            "title, author+, (journal | conference)",
            "(prolog, (prolog | conclusion)*, conclusion)?",
        ] {
            let re = r(src);
            let id = intern(&re);
            assert_eq!(nullable(id), re.nullable(), "{src} nullable");
            assert_eq!(size(id), re.size(), "{src} size");
            let expect: Vec<Sym> = re.syms().into_iter().collect();
            assert_eq!(&alphabet(id)[..], &expect[..], "{src} alphabet");
        }
    }

    #[test]
    fn first_sets() {
        let id = intern(&r("a?, b, c"));
        let f = first_set(id);
        assert_eq!(&f[..], &[sym("a"), sym("b")]);
        let id = intern(&r("(a | b)*, c"));
        let f = first_set(id);
        assert_eq!(&f[..], &[sym("a"), sym("b"), sym("c")]);
        assert!(first_set(ReId::EPSILON).is_empty());
    }

    #[test]
    fn language_exact_attributes() {
        // empty_lang is exact even on non-normalized structures that the
        // smart constructors would have collapsed
        let dead = intern(&Regex::Concat(vec![
            Regex::Sym(sym("a")),
            Regex::Empty,
            Regex::Sym(sym("b")),
        ]));
        assert!(empty_lang(dead));
        assert!(live_first(dead).is_empty());
        assert!(live_alphabet(dead).is_empty());
        // … while the structural sets over-approximate on such inputs
        assert!(!alphabet(dead).is_empty());

        let hollow = intern(&Regex::Star(Box::new(Regex::Empty)));
        assert!(!empty_lang(hollow), "L(∅*) = {{ε}}");
        assert!(live_alphabet(hollow).is_empty());

        let mixed = intern(&Regex::Alt(vec![
            Regex::Concat(vec![Regex::Sym(sym("a")), Regex::Empty]),
            Regex::Sym(sym("b")),
        ]));
        assert!(!empty_lang(mixed));
        assert_eq!(&live_first(mixed)[..], &[sym("b")]);
        assert_eq!(&live_alphabet(mixed)[..], &[sym("b")]);

        // on normalized regexes live and structural sets coincide
        let norm = intern(&parse_regex("a?, b, (c | d)+").unwrap());
        assert!(!empty_lang(norm));
        assert_eq!(&live_first(norm)[..], &first_set(norm)[..]);
        assert_eq!(&live_alphabet(norm)[..], &alphabet(norm)[..]);
    }

    #[test]
    fn syms_subset_is_set_inclusion() {
        let (a, b, c) = (sym("a"), sym("b"), sym("c"));
        assert!(syms_subset(&[], &[a]));
        assert!(syms_subset(&[a, c], &[a, b, c]));
        assert!(!syms_subset(&[a, b], &[a, c]));
        assert!(!syms_subset(&[a], &[]));
    }

    #[test]
    fn fingerprints_are_structural() {
        assert_eq!(
            fingerprint(intern(&r("a, b"))),
            fingerprint(intern(&r("a, b")))
        );
        assert_ne!(
            fingerprint(intern(&r("a, b"))),
            fingerprint(intern(&r("b, a")))
        );
        assert_ne!(fingerprint(intern(&r("a*"))), fingerprint(intern(&r("a+"))));
        assert_ne!(
            fingerprint(intern(&r("j^1"))),
            fingerprint(intern(&r("j^2")))
        );
    }

    #[test]
    fn image_is_memoized_and_correct() {
        let re = r("j^1, (j | c)*, j^2");
        let id = intern(&re);
        let img = image_id(id);
        assert_eq!(to_regex(img), re.image());
        assert_eq!(image_id(id), img);
    }

    #[test]
    fn map_syms_mirrors_boxed() {
        let re = r("x, (y | z)+");
        let n = name("w");
        let boxed = re.map_syms(&mut |s| {
            if s.name == name("y") {
                Regex::Sym(n.untagged())
            } else {
                Regex::Sym(s)
            }
        });
        let id = map_syms_id(intern(&re), &mut |s| {
            if s.name == name("y") {
                sym_id(n.untagged())
            } else {
                sym_id(s)
            }
        });
        assert_eq!(to_regex(id), boxed);
    }

    #[test]
    fn export_import_roundtrips_the_arena() {
        let a = intern(&r("exp1, (exp2 | exp3)*"));
        let b = intern(&r("exp4^2, exp1+"));
        let exported = export_arena();
        let back = import_arena(&exported);
        assert_eq!(back.skipped, 0);
        assert_eq!(back.imported, exported.len());
        // importing into the same process maps every slot onto itself
        assert_eq!(back.id(a.index()), Some(a));
        assert_eq!(back.id(b.index()), Some(b));
        assert_eq!(back.id(ReId::EMPTY.index()), Some(ReId::EMPTY));
    }

    #[test]
    fn import_skips_tampered_slots_and_their_dependents() {
        let parent = intern(&r("tam1, tam2"));
        let mut exported = export_arena();
        // find tam1's leaf slot and corrupt its recorded fingerprint
        let leaf = exported
            .iter()
            .position(|e| matches!(&e.node, PortableNode::Sym { name, .. } if name == "tam1"))
            .expect("leaf exported");
        exported[leaf].fp ^= 1;
        let back = import_arena(&exported);
        assert!(back.skipped >= 1);
        assert_eq!(back.id(leaf as u32), None, "tampered slot must not map");
        assert_eq!(
            back.id(parent.index()),
            None,
            "a node over a tampered child must not map"
        );
        // untouched slots still import
        assert_eq!(back.id(ReId::EPSILON.index()), Some(ReId::EPSILON));
    }

    #[test]
    fn import_skips_forward_references() {
        let exported = vec![PortableEntry {
            // child index 7 does not exist yet at slot 0: corruption
            node: PortableNode::Star(7),
            fp: 0,
        }];
        let back = import_arena(&exported);
        assert_eq!(back.imported, 0);
        assert_eq!(back.skipped, 1);
        assert_eq!(back.id(0), None);
    }

    #[test]
    fn pool_stats_move() {
        let before = pool_stats();
        let _ = intern(&r("statsprobe1, statsprobe2*"));
        let after = pool_stats();
        assert!(after.nodes > before.nodes);
        assert!(after.bytes > 0);
        assert!(after.intern_misses > before.intern_misses);
        let _ = intern(&r("statsprobe1, statsprobe2*"));
        let third = pool_stats();
        assert!(third.intern_hits > after.intern_hits);
        assert!(third.dedup_ratio() > 0.0);
    }
}
