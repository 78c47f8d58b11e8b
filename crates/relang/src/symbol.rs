//! Interned element names and tagged names.
//!
//! The paper's model (Definition 2.2) works with a finite set `N` of element
//! names; specialized DTDs (Definition 3.8) extend it to tagged names
//! `n^i` where the *tag* `i` is a non-negative integer and `n^0` is written
//! simply `n`. Names are hot: every regex leaf, every automaton transition,
//! every DTD lookup touches them, so we intern them once into a global table
//! and pass around a `u32` index.
//!
//! Reading a name back ([`Name::as_str`], [`Name::stable_hash`], every
//! `Display`) takes no lock: the table is append-only, in segments that
//! never move, so serializers on many threads share nothing but
//! read-only memory. Only [`Name::intern`] locks, to look up or extend
//! the text-to-index map.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned element name (the `n` of the paper).
///
/// Two `Name`s are equal iff the underlying strings are equal; comparison and
/// hashing are integer operations on the intern index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(u32);

/// The tag of a specialized name: `0` means "untagged" (`n` is shorthand for
/// `n^0`, Section 3.3).
pub type Tag = u32;

/// A tagged name `n^T` — a member of the set `N^+` of Definition 3.8.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym {
    /// The underlying element name `n`.
    pub name: Name,
    /// The specialization tag `T` (`0` = untagged).
    pub tag: Tag,
}

/// One interned name: its text and the FNV-1a hash of it. The hash is
/// computed once at intern time so fingerprinting a whole DTD/query costs
/// one table read per name instead of a re-hash of its characters (intern
/// indices themselves are not stable across processes, so they cannot
/// serve as persistent cache keys).
type Entry = (&'static str, u64);

/// Segments of the name table; segment `k` holds `2^k` slots, so the
/// table has room for every `u32` index but the last.
const SEGMENTS: usize = 32;

/// The append-only name table, read without a lock: segment `k` holds
/// the entries of indices `2^k - 1 .. 2^(k+1) - 1`. A segment is
/// allocated once and never moves, and a slot is written once, before
/// its index is published, so `Name::as_str` is two acquire loads.
static TABLE: [OnceLock<Box<[OnceLock<Entry>]>>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The segment and offset of index `i` in [`TABLE`].
fn slot_of(i: u32) -> (usize, usize) {
    let j = i as usize + 1;
    let k = j.ilog2() as usize;
    (k, j - (1 << k))
}

/// Text to index; only `Name::intern` takes this lock.
fn index() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INDEX: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INDEX.get_or_init(|| RwLock::new(HashMap::new()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Name {
    /// Interns `s` and returns its `Name`. Idempotent.
    pub fn intern(s: &str) -> Name {
        if let Some(&i) = index().read().get(s) {
            return Name(i);
        }
        let mut g = index().write();
        if let Some(&i) = g.get(s) {
            return Name(i);
        }
        let i = u32::try_from(g.len())
            .ok()
            .filter(|&i| i < u32::MAX)
            .expect("fewer than 2^32 - 1 interned names");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let (k, off) = slot_of(i);
        let segment = TABLE[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        // fill the slot before the index is published: a `Name` comes only
        // from this map or this return, so every reader finds its slot full
        segment[off]
            .set((leaked, fnv1a(leaked.as_bytes())))
            .expect("each index is assigned once");
        g.insert(leaked, i);
        Name(i)
    }

    /// This name's table entry.
    fn entry(self) -> &'static Entry {
        let (k, off) = slot_of(self.0);
        TABLE[k]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("a Name's slot is filled before the Name exists")
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        self.entry().0
    }

    /// The raw intern index (useful as a dense array key).
    pub fn index(self) -> u32 {
        self.0
    }

    /// This name as an untagged symbol (`n^0`).
    pub fn untagged(self) -> Sym {
        Sym { name: self, tag: 0 }
    }

    /// This name with tag `t`.
    pub fn tagged(self, t: Tag) -> Sym {
        Sym { name: self, tag: t }
    }

    /// A process-independent 64-bit hash of the underlying string,
    /// precomputed at intern time. Equal strings hash equal in every
    /// process, which makes this the building block for the inference
    /// cache's stable fingerprints (the intern *index* is only stable
    /// within one process).
    pub fn stable_hash(self) -> u64 {
        self.entry().1
    }
}

impl Sym {
    /// Whether this is an untagged symbol (`n^0`).
    pub fn is_untagged(self) -> bool {
        self.tag == 0
    }

    /// The *image* of this symbol: the name with the tag projected out
    /// (Definition 3.9).
    pub fn image(self) -> Name {
        self.name
    }

    /// Process-independent hash of the tagged name (see
    /// [`Name::stable_hash`]); the tag is mixed in with a SplitMix64-style
    /// finalizer so `n^1` and `n^2` scatter.
    pub fn stable_hash(self) -> u64 {
        let mut z = self
            .name
            .stable_hash()
            .wrapping_add((self.tag as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tag == 0 {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}^{}", self.name, self.tag)
        }
    }
}

impl From<Name> for Sym {
    fn from(n: Name) -> Sym {
        n.untagged()
    }
}

/// Convenience: intern a name.
pub fn name(s: &str) -> Name {
    Name::intern(s)
}

/// Convenience: intern a name as an untagged symbol.
pub fn sym(s: &str) -> Sym {
    Name::intern(s).untagged()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn intern_is_idempotent() {
        let a = Name::intern("professor");
        let b = Name::intern("professor");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "professor");
    }

    #[test]
    fn distinct_strings_distinct_names() {
        assert_ne!(Name::intern("journal"), Name::intern("conference"));
    }

    #[test]
    fn tags_distinguish_syms() {
        let n = Name::intern("publication");
        assert_ne!(n.untagged(), n.tagged(1));
        assert_eq!(n.tagged(1).image(), n);
        assert!(n.untagged().is_untagged());
        assert!(!n.tagged(2).is_untagged());
    }

    #[test]
    fn stable_hashes_depend_only_on_content() {
        let a = Name::intern("stable-hash-probe");
        let b = Name::intern("stable-hash-probe");
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert_ne!(
            Name::intern("journal").stable_hash(),
            Name::intern("conference").stable_hash()
        );
        // FNV-1a is a fixed function of the bytes: pin one value so a
        // accidental algorithm change (which would orphan any persisted
        // fingerprints) fails loudly.
        assert_eq!(Name::intern("a").stable_hash(), 0xaf63_dc4c_8601_ec8c);
        let n = Name::intern("publication");
        assert_ne!(n.tagged(1).stable_hash(), n.tagged(2).stable_hash());
        assert_ne!(n.untagged().stable_hash(), n.tagged(1).stable_hash());
    }

    #[test]
    fn display_forms() {
        let n = Name::intern("pub");
        assert_eq!(n.untagged().to_string(), "pub");
        assert_eq!(n.tagged(3).to_string(), "pub^3");
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut v = Vec::new();
                    for k in 0..100 {
                        v.push(Name::intern(&format!("name-{}", (i * 7 + k) % 50)));
                    }
                    v
                })
            })
            .collect();
        let all: Vec<Vec<Name>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same string interned from different threads must agree.
        for row in &all {
            for n in row {
                assert_eq!(Name::intern(n.as_str()), *n);
            }
        }
    }

    /// Threads released together intern overlapping new names (crossing
    /// several table segments) and read earlier ones back while the
    /// others insert: every `Name` keeps its own text and hash.
    #[test]
    fn names_read_back_while_others_intern() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let start = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut names = Vec::with_capacity(PER_THREAD);
                    for k in 0..PER_THREAD {
                        // neighbouring threads share half their names
                        let text = format!("barrier-probe-{}", t * PER_THREAD / 2 + k);
                        names.push((Name::intern(&text), text));
                        let (n, text) = &names[k / 2];
                        assert_eq!(n.as_str(), text);
                        assert_eq!(n.stable_hash(), fnv1a(text.as_bytes()));
                    }
                    names
                })
            })
            .collect();
        let mut by_text: HashMap<String, Name> = HashMap::new();
        for h in handles {
            for (n, text) in h.join().unwrap() {
                assert_eq!(n.as_str(), text);
                assert_eq!(*by_text.entry(text).or_insert(n), n);
            }
        }
        assert_eq!(by_text.len(), (THREADS + 1) * PER_THREAD / 2);
    }
}
