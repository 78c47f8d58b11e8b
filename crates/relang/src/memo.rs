//! Memoized language-relation results.
//!
//! The serving layer answers *many* queries over the same handful of
//! source DTDs, so the same content-model regexes flow through
//! [`crate::is_subset`] / [`crate::equivalent`] over and over — and DFA
//! construction dominates the cost of tighten/collapse/merge. This module
//! keeps one process-wide **inclusion cache** behind a `parking_lot`
//! lock, keyed on `(ReId, ReId)` and holding the boolean result of
//! `L(a) ⊆ L(b)`: the collapse/equivalence passes re-ask the same pairs
//! constantly (every pipeline run re-derives the same specializations).
//! Both key halves are pool-interned `u32`s ([`crate::pool`]), so a probe
//! hashes eight bytes instead of deep-hashing two boxed regexes. The
//! automata an inclusion check builds are dropped once it is decided.
//!
//! The table is bounded: when it reaches its capacity it is flushed
//! wholesale (counted as an eviction) rather than growing without limit
//! — the working set of a mediator is small and re-warming is cheap.
//! Results are pure functions of their keys, so memoization never
//! changes any answer; `tests/intern_prop.rs` property-checks this
//! against the uncached procedure.
//!
//! Hit/miss/eviction accounting lives in the process-wide
//! [`mix_obs::global()`] registry (the memo is itself process-wide, so
//! the global registry is its natural home); [`memo_stats`] remains as a
//! typed view over those counters for the serving layer and benches.

use crate::ast::Regex;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::pool::{self, ReId};
use mix_obs::Counter;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Entries kept before a wholesale flush.
const INCLUSION_CAPACITY: usize = 1 << 15;

struct Memo {
    inclusions: RwLock<HashMap<(ReId, ReId), bool>>,
    inclusion_hits: Counter,
    inclusion_misses: Counter,
    evictions: Counter,
}

fn memo() -> &'static Memo {
    static MEMO: OnceLock<Memo> = OnceLock::new();
    MEMO.get_or_init(|| {
        let obs = mix_obs::global();
        Memo {
            inclusions: RwLock::new(HashMap::new()),
            inclusion_hits: obs.counter("relang_inclusion_memo_hits_total"),
            inclusion_misses: obs.counter("relang_inclusion_memo_misses_total"),
            evictions: obs.counter("relang_memo_evictions_total"),
        }
    })
}

/// Counters of the process-wide inclusion memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
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
        inclusion_hits: m.inclusion_hits.get(),
        inclusion_misses: m.inclusion_misses.get(),
        evictions: m.evictions.get(),
    }
}

/// Drops every memoized inclusion result (counters are kept). Only
/// needed by benchmarks that want a genuinely cold start.
pub fn clear_memo() {
    memo().inclusions.write().clear();
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
        // the raw subset constructions: `subset_of` is a reachability
        // walk, correct on any complete DFA pair over a shared alphabet,
        // so minimizing them would be pure overhead
        let alpha = pool::shared_alphabet_ids(a, b);
        let dfa = |r| Dfa::from_nfa(&Nfa::from_regex(&pool::to_regex(r)), &alpha);
        dfa(a).subset_of(&dfa(b))
    });
    let mut table = m.inclusions.write();
    if table.len() >= INCLUSION_CAPACITY {
        table.clear();
        m.evictions.inc();
    }
    table.insert((a, b), result);
    result
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
    use crate::parser::parse_regex;

    fn r(s: &str) -> Regex {
        parse_regex(s).unwrap()
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
}
