//! Memoized automata construction and language-relation results.
//!
//! The serving layer answers *many* queries over the same handful of
//! source DTDs, so the same content-model regexes flow through
//! [`crate::is_subset`] / [`crate::equivalent`] over and over — and DFA
//! construction (subset construction + minimization) dominates the cost
//! of tighten/collapse/merge. This module keeps two process-wide memo
//! tables behind `parking_lot` locks:
//!
//! * a **DFA cache** keyed on `(ReId, alphabet id)` — the minimized
//!   complete DFA for a regex over an explicit alphabet is pure, so it is
//!   shared across every inclusion check that needs it. Both key halves
//!   are pool-interned `u32`s ([`crate::pool`]), so a probe hashes eight
//!   bytes instead of deep-hashing a boxed regex and cloning its
//!   alphabet;
//! * an **inclusion cache** keyed on `(ReId, ReId)` holding the boolean
//!   result of `L(a) ⊆ L(b)` — the collapse/equivalence passes re-ask the
//!   same pairs constantly (every pipeline run re-derives the same
//!   specializations).
//!
//! Both id tables are bounded: when a table reaches its capacity it is
//! flushed wholesale (counted as an eviction) rather than growing without
//! limit — the working set of a mediator is small and re-warming is
//! cheap. Results are pure functions of their keys, so memoization never
//! changes any answer; `tests/serving_prop.rs` property-checks this
//! against the uncached procedures.
//!
//! Hit/miss/eviction accounting lives in the process-wide
//! [`mix_obs::global()`] registry (the memo is itself process-wide, so
//! the global registry is its natural home); [`memo_stats`] remains as a
//! typed view over those counters for the serving layer and benches.

use crate::ast::Regex;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::pool::{self, ReId};
use crate::symbol::Sym;
use mix_obs::Counter;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Entries kept per table before a wholesale flush.
const DFA_CAPACITY: usize = 4096;
const INCLUSION_CAPACITY: usize = 1 << 15;

/// DFA-table key: pool id of the regex plus pool id of the (sorted)
/// alphabet it was built over.
type DfaKey = (ReId, u32);

struct Memo {
    dfas: RwLock<HashMap<DfaKey, Arc<Dfa>>>,
    inclusions: RwLock<HashMap<(ReId, ReId), bool>>,
    dfa_hits: Counter,
    dfa_misses: Counter,
    inclusion_hits: Counter,
    inclusion_misses: Counter,
    evictions: Counter,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| {
        let obs = mix_obs::global();
        Memo {
            dfas: RwLock::new(HashMap::new()),
            inclusions: RwLock::new(HashMap::new()),
            dfa_hits: obs.counter("relang_dfa_memo_hits_total"),
            dfa_misses: obs.counter("relang_dfa_memo_misses_total"),
            inclusion_hits: obs.counter("relang_inclusion_memo_hits_total"),
            inclusion_misses: obs.counter("relang_inclusion_memo_misses_total"),
            evictions: obs.counter("relang_memo_evictions_total"),
        }
    })
}

/// Counters of the process-wide automata memo tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// DFA-cache lookups served from the table.
    pub dfa_hits: u64,
    /// DFA-cache lookups that had to run subset construction.
    pub dfa_misses: u64,
    /// Inclusion-result lookups served from the table.
    pub inclusion_hits: u64,
    /// Inclusion-result lookups that had to run the product check.
    pub inclusion_misses: u64,
    /// Wholesale table flushes triggered by the capacity bound.
    pub evictions: u64,
}

/// A snapshot of the memo counters (a typed view over the
/// `relang_*_memo_*` counters of [`mix_obs::global()`]).
pub fn memo_stats() -> MemoStats {
    let m = memo();
    MemoStats {
        dfa_hits: m.dfa_hits.get(),
        dfa_misses: m.dfa_misses.get(),
        inclusion_hits: m.inclusion_hits.get(),
        inclusion_misses: m.inclusion_misses.get(),
        evictions: m.evictions.get(),
    }
}

/// Drops every memoized DFA and inclusion result (counters are kept).
/// Only needed by benchmarks that want a genuinely cold start.
pub fn clear_memo() {
    let m = memo();
    m.dfas.write().clear();
    m.inclusions.write().clear();
}

/// Snapshots the id-keyed inclusion table as `(a, b, L(a) ⊆ L(b))`
/// triples — the mix-store persistence surface. The ids are only
/// meaningful next to a matching arena export ([`pool::export_arena`])
/// taken in the same process, which is why the store writes both into
/// one checksummed generation.
pub fn export_inclusions() -> Vec<(ReId, ReId, bool)> {
    memo()
        .inclusions
        .read()
        .iter()
        .map(|(&(a, b), &v)| (a, b, v))
        .collect()
}

/// Seeds the id-keyed inclusion table with persisted results whose ids
/// were re-validated through [`pool::import_arena`]. Seeding respects
/// the capacity bound (entries past it are dropped rather than flushing
/// warm state) and never overwrites a resident entry. Returns how many
/// entries were inserted.
pub fn import_inclusions(entries: impl IntoIterator<Item = (ReId, ReId, bool)>) -> usize {
    let m = memo();
    let mut table = m.inclusions.write();
    let mut inserted = 0;
    for (a, b, v) in entries {
        if table.len() >= INCLUSION_CAPACITY {
            break;
        }
        if let std::collections::hash_map::Entry::Vacant(slot) = table.entry((a, b)) {
            slot.insert(v);
            inserted += 1;
        }
    }
    inserted
}

/// The minimized complete DFA of `r` over `alphabet`, shared via the
/// process-wide cache. `alphabet` must be sorted and must contain every
/// symbol of `r` (as guaranteed by the callers in [`crate::ops`]).
pub fn memoized_dfa(r: &Regex, alphabet: &[Sym]) -> Arc<Dfa> {
    memoized_dfa_id(pool::intern(r), pool::intern_alphabet(alphabet))
}

/// The id-keyed DFA memo. A probe hashes `(u32, u32)`.
pub fn memoized_dfa_id(r: ReId, alphabet_id: u32) -> Arc<Dfa> {
    let m = memo();
    {
        let table = m.dfas.read();
        if let Some(dfa) = table.get(&(r, alphabet_id)) {
            m.dfa_hits.inc();
            return Arc::clone(dfa);
        }
    }
    m.dfa_misses.inc();
    let alphabet = pool::alphabet_by_index(alphabet_id);
    let regex = pool::to_regex(r);
    let built = Arc::new(Dfa::from_nfa(&Nfa::from_regex(&regex), &alphabet).minimize());
    let mut table = m.dfas.write();
    if table.len() >= DFA_CAPACITY {
        table.clear();
        m.evictions.inc();
    }
    table
        .entry((r, alphabet_id))
        .or_insert_with(|| Arc::clone(&built));
    built
}

/// Memoized `L(a) ⊆ L(b)`; the uncached procedure lives in [`crate::ops`].
pub fn memoized_subset(a: &Regex, b: &Regex) -> bool {
    if a.is_empty_lang() {
        return true;
    }
    memoized_subset_id(pool::intern(a), pool::intern(b))
}

/// Id-keyed memoized inclusion. `ReId` equality covers the structural
/// fast path for free.
pub fn memoized_subset_id(a: ReId, b: ReId) -> bool {
    if a == ReId::EMPTY || a == b {
        return true;
    }
    let m = memo();
    {
        let table = m.inclusions.read();
        if let Some(&result) = table.get(&(a, b)) {
            m.inclusion_hits.inc();
            return result;
        }
    }
    m.inclusion_misses.inc();
    let result = refute_subset_id(a, b).unwrap_or_else(|| {
        let alpha = pool::shared_alphabet_ids(a, b);
        let alphabet_id = pool::intern_alphabet(&alpha);
        let da = inclusion_dfa(a, alphabet_id, &alpha);
        let db = inclusion_dfa(b, alphabet_id, &alpha);
        da.subset_of(&db)
    });
    let mut table = m.inclusions.write();
    if table.len() >= INCLUSION_CAPACITY {
        table.clear();
        m.evictions.inc();
    }
    table.insert((a, b), result);
    result
}

/// The automaton for one side of an inclusion walk. Reuses the cached
/// minimized DFA when some caller already paid for it; otherwise builds
/// the *raw* subset construction and does not cache it. [`Dfa::subset_of`]
/// is a reachability walk, correct on any complete DFA pair over a shared
/// alphabet, so minimizing here would be pure overhead — the inclusion
/// *answer* is what gets memoized (two `u32`s and a bool per entry),
/// which is the right cache granularity for this decision procedure.
/// Canonical minimized DFAs stay available via [`memoized_dfa_id`].
fn inclusion_dfa(r: ReId, alphabet_id: u32, alphabet: &[Sym]) -> Arc<Dfa> {
    let m = memo();
    if let Some(dfa) = m.dfas.read().get(&(r, alphabet_id)) {
        m.dfa_hits.inc();
        return Arc::clone(dfa);
    }
    m.dfa_misses.inc();
    let regex = pool::to_regex(r);
    Arc::new(Dfa::from_nfa(&Nfa::from_regex(&regex), alphabet))
}

/// Decides `L(a) ⊆ L(b)` from the pool's *language-exact* cached
/// attributes alone, without building automata. Returns `None` when the
/// attributes cannot settle it (the product check runs then). These are
/// decisions, not heuristics — every arm is exact, so the memo stays
/// answer-identical to the uncached procedure:
///
/// * `L(a) = ∅` ⟹ trivially included;
/// * `L(b) = ∅` (and `L(a) ≠ ∅`) ⟹ refuted;
/// * `ε ∈ L(a)` but `ε ∉ L(b)` ⟹ refuted;
/// * some symbol occurs in a word of `a` but in no word of `b` ⟹ that
///   word refutes inclusion;
/// * some symbol starts a word of `a` but starts no word of `b` ⟹
///   refuted likewise.
///
/// In the inference stack the bulk of inclusion probes are *failed*
/// subsumption candidates (simplify's union pruning, tighten's validity
/// checks), and almost all of them fall to one of these arms — this is
/// where the X18 cold-inference speedup comes from.
fn refute_subset_id(a: ReId, b: ReId) -> Option<bool> {
    if pool::empty_lang(a) {
        return Some(true);
    }
    if pool::empty_lang(b) {
        return Some(false);
    }
    if pool::nullable(a) && !pool::nullable(b) {
        return Some(false);
    }
    if !pool::syms_subset(&pool::live_alphabet(a), &pool::live_alphabet(b)) {
        return Some(false);
    }
    if !pool::syms_subset(&pool::live_first(a), &pool::live_first(b)) {
        return Some(false);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::shared_alphabet;
    use crate::parser::parse_regex;

    fn r(s: &str) -> Regex {
        parse_regex(s).unwrap()
    }

    #[test]
    fn memoized_dfa_agrees_with_direct_construction() {
        for src in [
            "a",
            "a, b",
            "(a | b)*, c",
            "title, author+, (journal | conference)",
            "(a?, b)*",
        ] {
            let re = r(src);
            let alpha: Vec<Sym> = re.syms().into_iter().collect();
            let cached = memoized_dfa(&re, &alpha);
            let direct = Dfa::from_nfa(&Nfa::from_regex(&re), &alpha).minimize();
            for w in direct.enumerate_words(4, 200) {
                assert!(cached.accepts(&w), "{src} lost {w:?}");
            }
            assert_eq!(cached.len(), direct.len(), "{src}");
        }
    }

    #[test]
    fn repeated_lookups_hit() {
        let a = r("x1, (x2 | x3)*");
        let alpha: Vec<Sym> = a.syms().into_iter().collect();
        let _ = memoized_dfa(&a, &alpha);
        let before = memo_stats();
        let _ = memoized_dfa(&a, &alpha);
        let after = memo_stats();
        assert!(after.dfa_hits > before.dfa_hits);
    }

    #[test]
    fn memoized_subset_matches_semantics() {
        assert!(memoized_subset(&r("a, a"), &r("a*")));
        assert!(!memoized_subset(&r("a*"), &r("a, a")));
        assert!(memoized_subset(&Regex::Empty, &r("b")));
        // cached round answers identically
        assert!(memoized_subset(&r("a, a"), &r("a*")));
        assert!(!memoized_subset(&r("a*"), &r("a, a")));
    }

    #[test]
    fn distinct_alphabets_get_distinct_dfas() {
        let re = r("q1");
        let own: Vec<Sym> = re.syms().into_iter().collect();
        let wider = shared_alphabet(&re, &r("q1 | q2"));
        let d1 = memoized_dfa(&re, &own);
        let d2 = memoized_dfa(&re, &wider);
        assert_eq!(d1.alphabet.len(), 1);
        assert_eq!(d2.alphabet.len(), 2);
    }

    #[test]
    fn clear_memo_empties_tables() {
        let a = r("z9, z8");
        let alpha: Vec<Sym> = a.syms().into_iter().collect();
        let _ = memoized_dfa(&a, &alpha);
        clear_memo();
        let before = memo_stats();
        let _ = memoized_dfa(&a, &alpha);
        let after = memo_stats();
        assert!(
            after.dfa_misses > before.dfa_misses,
            "cleared entry re-built"
        );
    }

    #[test]
    fn inclusion_export_import_restores_cached_answers() {
        let a = pool::intern(&r("w1, w1"));
        let b = pool::intern(&r("w1*"));
        assert!(memoized_subset_id(a, b));
        let exported = export_inclusions();
        assert!(exported.contains(&(a, b, true)));
        // a fresh process is simulated by clearing, then importing
        clear_memo();
        let seeded = import_inclusions(exported.clone());
        assert!(seeded >= 1);
        let before = memo_stats();
        assert!(memoized_subset_id(a, b));
        let after = memo_stats();
        assert!(
            after.inclusion_hits > before.inclusion_hits,
            "imported entry must serve as a hit"
        );
        // re-importing is a no-op (resident entries are never overwritten)
        assert_eq!(
            import_inclusions(
                exported
                    .iter()
                    .copied()
                    .filter(|&(x, y, _)| (x, y) == (a, b))
            ),
            0
        );
    }

    #[test]
    fn memoized_dfas_stay_resident() {
        let a = r("f1, (f2 | f3)*");
        let alpha: Vec<Sym> = a.syms().into_iter().collect();
        let key = (pool::intern(&a), pool::intern_alphabet(&alpha));
        // other unit tests clear the shared table concurrently, so one
        // undisturbed round out of a few is enough
        let resident = (0..8).any(|_| {
            let built = memoized_dfa(&a, &alpha);
            memo()
                .dfas
                .read()
                .get(&key)
                .is_some_and(|d| Arc::ptr_eq(d, &built))
        });
        assert!(resident, "the built automaton is kept under its id key");
    }
}
