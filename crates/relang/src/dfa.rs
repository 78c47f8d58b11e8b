//! Deterministic automata: subset construction, completion, product,
//! minimization, and the word-counting dynamic program used by the
//! tightness metrics.
//!
//! [`Dfa::minimize`] is Hopcroft's O(n·|Σ|·log n) partition refinement
//! with the smaller-half rule, and the one minimizer. The seed
//! implementation's Moore refinement survives in test builds only, as
//! the cross-check oracle of the unit tests (both produce *the* minimal
//! DFA, so state counts must agree exactly).

use crate::ast::Regex;
use crate::nfa::Nfa;
use crate::symbol::Sym;
use std::collections::{HashMap, VecDeque};

/// A complete deterministic finite automaton over an explicit alphabet.
///
/// Every state has exactly one transition per alphabet symbol (a sink state
/// is materialized during construction), so language-theoretic operations
/// (complement, product, counting) are table walks.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// The symbols this automaton distinguishes. Symbols outside the
    /// alphabet are rejected from any state.
    pub alphabet: Vec<Sym>,
    /// `transitions[s * alphabet.len() + a]` = successor of state `s` on
    /// alphabet symbol index `a`.
    pub transitions: Vec<u32>,
    /// `accepting[s]` is true if `s` is final.
    pub accepting: Vec<bool>,
    /// The start state.
    pub start: u32,
}

impl Dfa {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.accepting.len()
    }

    /// True when there are no states (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.accepting.is_empty()
    }

    fn step(&self, state: u32, a: usize) -> u32 {
        self.transitions[state as usize * self.alphabet.len() + a]
    }

    fn sym_index(&self, s: Sym) -> Option<usize> {
        self.alphabet.iter().position(|&x| x == s)
    }

    /// Subset construction over the given alphabet.
    ///
    /// The alphabet must be a superset of the symbols the NFA uses; extra
    /// symbols yield dead transitions. Passing a shared alphabet lets two
    /// DFAs be combined with [`Dfa::product`].
    pub fn from_nfa(nfa: &Nfa, alphabet: &[Sym]) -> Dfa {
        Self::from_nfa_bounded(nfa, alphabet, usize::MAX).expect("no bound on the states")
    }

    /// [`Dfa::from_nfa`], giving up with `None` once the subset
    /// construction has found more than `max_states` states — a
    /// content model whose DFA would blow up exponentially.
    pub fn from_nfa_bounded(nfa: &Nfa, alphabet: &[Sym], max_states: usize) -> Option<Dfa> {
        let asz = alphabet.len();
        let nsz = nfa.len();
        // Map each subset (bitset as Vec<u64>) to a DFA state id.
        let words = nsz.div_ceil(64);
        if words <= 1 {
            return Self::from_nfa_small(nfa, alphabet, max_states);
        }
        // Per-(NFA state, alphabet index) successor bitmask, so the
        // subset step ORs whole words instead of re-scanning every
        // transition list for every discovered subset.
        let mut masks = vec![0u64; nsz * asz * words];
        let sym_idx: HashMap<Sym, usize> =
            alphabet.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for (s, row) in nfa.transitions.iter().enumerate() {
            for &(sym, t) in row {
                if let Some(&a) = sym_idx.get(&sym) {
                    masks[(s * asz + a) * words + t as usize / 64] |= 1 << (t % 64);
                }
            }
        }
        let mut start = vec![0u64; words];
        start[0] |= 1; // NFA state 0
        let mut index: HashMap<Vec<u64>, u32> = HashMap::new();
        index.insert(start.clone(), 0);
        let mut order = vec![start];
        let mut transitions: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut frontier = 0usize;
        while frontier < order.len() {
            let set = order[frontier].clone();
            frontier += 1;
            accepting.push((0..nsz).any(|s| set[s / 64] >> (s % 64) & 1 == 1 && nfa.accepting[s]));
            for a in 0..asz {
                let mut next = vec![0u64; words];
                for (w, &setw) in set.iter().enumerate() {
                    let mut bits = setw;
                    while bits != 0 {
                        let s = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let row = &masks[(s * asz + a) * words..(s * asz + a + 1) * words];
                        for (nw, &mw) in next.iter_mut().zip(row) {
                            *nw |= mw;
                        }
                    }
                }
                let id = *index.entry(next.clone()).or_insert_with(|| {
                    order.push(next);
                    (order.len() - 1) as u32
                });
                transitions.push(id);
            }
            if order.len() > max_states {
                return None;
            }
        }
        debug_assert_eq!(transitions.len(), order.len() * asz);
        Some(Dfa {
            alphabet: alphabet.to_vec(),
            transitions,
            accepting,
            start: 0,
        })
    }

    /// Single-word specialization of the subset construction for NFAs
    /// with at most 64 states (every content model in the paper corpus
    /// and golden suite). Subsets are plain `u64`s, so the hot loop
    /// performs no heap allocation and the subset index hashes machine
    /// words instead of vectors. Discovery order matches the general
    /// path exactly, so the resulting DFA is byte-identical.
    fn from_nfa_small(nfa: &Nfa, alphabet: &[Sym], max_states: usize) -> Option<Dfa> {
        let asz = alphabet.len();
        let nsz = nfa.len();
        let sym_idx: HashMap<Sym, usize> =
            alphabet.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut masks = vec![0u64; nsz * asz];
        for (s, row) in nfa.transitions.iter().enumerate() {
            for &(sym, t) in row {
                if let Some(&a) = sym_idx.get(&sym) {
                    masks[s * asz + a] |= 1u64 << t;
                }
            }
        }
        let mut accept_mask = 0u64;
        for (s, &acc) in nfa.accepting.iter().enumerate() {
            if acc {
                accept_mask |= 1u64 << s;
            }
        }
        let mut index: HashMap<u64, u32> = HashMap::new();
        index.insert(1, 0); // start subset = {NFA state 0}
        let mut order: Vec<u64> = vec![1];
        let mut transitions: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut frontier = 0usize;
        while frontier < order.len() {
            let set = order[frontier];
            frontier += 1;
            accepting.push(set & accept_mask != 0);
            for a in 0..asz {
                let mut next = 0u64;
                let mut bits = set;
                while bits != 0 {
                    let s = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    next |= masks[s * asz + a];
                }
                let id = *index.entry(next).or_insert_with(|| {
                    order.push(next);
                    (order.len() - 1) as u32
                });
                transitions.push(id);
            }
            if order.len() > max_states {
                return None;
            }
        }
        debug_assert_eq!(transitions.len(), order.len() * asz);
        Some(Dfa {
            alphabet: alphabet.to_vec(),
            transitions,
            accepting,
            start: 0,
        })
    }

    /// Builds a minimized DFA for `r` over the union of `r`'s symbols and
    /// `extra` alphabet symbols.
    pub fn from_regex_with_alphabet(r: &Regex, extra: &[Sym]) -> Dfa {
        let mut alphabet: Vec<Sym> = r.syms().into_iter().collect();
        for &s in extra {
            if !alphabet.contains(&s) {
                alphabet.push(s);
            }
        }
        alphabet.sort();
        Dfa::from_nfa(&Nfa::from_regex(r), &alphabet).minimize()
    }

    /// Builds a minimized DFA for `r` over exactly `r`'s own symbols.
    pub fn from_regex(r: &Regex) -> Dfa {
        Dfa::from_regex_with_alphabet(r, &[])
    }

    /// Runs the automaton. Symbols outside the alphabet reject.
    pub fn accepts(&self, word: &[Sym]) -> bool {
        let mut s = self.start;
        for &c in word {
            match self.sym_index(c) {
                Some(a) => s = self.step(s, a),
                None => return false,
            }
        }
        self.accepting[s as usize]
    }

    /// Complement (the DFA is complete by construction, so this just flips
    /// accepting states). The complement is relative to the alphabet.
    pub fn complement(&self) -> Dfa {
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions: self.transitions.clone(),
            accepting: self.accepting.iter().map(|b| !b).collect(),
            start: self.start,
        }
    }

    /// Product automaton computing the *intersection* of two languages.
    ///
    /// Panics if the alphabets differ — build both sides with a shared
    /// alphabet (see [`Dfa::from_regex_with_alphabet`]).
    pub fn product(&self, other: &Dfa) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "product requires a shared alphabet"
        );
        let asz = self.alphabet.len();
        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut order = vec![(self.start, other.start)];
        index.insert(order[0], 0);
        let mut transitions = Vec::new();
        let mut accepting = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let (p, q) = order[i];
            i += 1;
            accepting.push(self.accepting[p as usize] && other.accepting[q as usize]);
            for a in 0..asz {
                let next = (self.step(p, a), other.step(q, a));
                let id = *index.entry(next).or_insert_with(|| {
                    order.push(next);
                    (order.len() - 1) as u32
                });
                transitions.push(id);
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            accepting,
            start: 0,
        }
    }

    /// `L(self) ⊆ L(other)` by an on-the-fly pairwise reachability walk:
    /// a reachable pair `(s, t)` with `s` accepting and `t` not is a
    /// counterexample word. Equivalent to
    /// `self.product(&other.complement()).language_is_empty()` but never
    /// materializes the product automaton or the complement — the
    /// interned inclusion memo's closer when the attribute refutations
    /// don't settle the probe.
    ///
    /// Panics if the alphabets differ (both DFAs are complete, so the
    /// walk is total).
    pub fn subset_of(&self, other: &Dfa) -> bool {
        assert_eq!(
            self.alphabet, other.alphabet,
            "inclusion requires a shared alphabet"
        );
        let asz = self.alphabet.len();
        let width = other.len();
        let mut seen = vec![false; self.len() * width];
        let mut stack = vec![(self.start, other.start)];
        seen[self.start as usize * width + other.start as usize] = true;
        while let Some((s, t)) = stack.pop() {
            if self.accepting[s as usize] && !other.accepting[t as usize] {
                return false;
            }
            for a in 0..asz {
                let next = (self.step(s, a), other.step(t, a));
                let slot = next.0 as usize * width + next.1 as usize;
                if !seen[slot] {
                    seen[slot] = true;
                    stack.push(next);
                }
            }
        }
        true
    }

    /// Does the automaton accept any word at all?
    pub fn language_is_empty(&self) -> bool {
        // BFS from the start state.
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            if self.accepting[s as usize] {
                return false;
            }
            for a in 0..self.alphabet.len() {
                let t = self.step(s, a);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Hopcroft partition-refinement minimization with the smaller-half
    /// rule (also prunes unreachable states). Produces the unique minimal
    /// complete DFA; block numbering is deterministic (first occurrence in
    /// reachability order), so repeated runs are byte-identical.
    pub fn minimize(&self) -> Dfa {
        let asz = self.alphabet.len();
        // 1. restrict to reachable states and renumber densely
        let mut reach: Vec<Option<u32>> = vec![None; self.len()];
        let mut order = vec![self.start];
        reach[self.start as usize] = Some(0);
        let mut i = 0;
        while i < order.len() {
            let s = order[i];
            i += 1;
            for a in 0..asz {
                let t = self.step(s, a);
                if reach[t as usize].is_none() {
                    reach[t as usize] = Some(order.len() as u32);
                    order.push(t);
                }
            }
        }
        let n = order.len();
        let mut delta = vec![0u32; n * asz];
        for (ri, &s) in order.iter().enumerate() {
            for a in 0..asz {
                delta[ri * asz + a] = reach[self.step(s, a) as usize].expect("successor reachable");
            }
        }
        // 2. initial partition by acceptance (empty halves dropped)
        let mut block_of = vec![0u32; n];
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        {
            let mut rej = Vec::new();
            let mut acc = Vec::new();
            for (ri, &s) in order.iter().enumerate() {
                if self.accepting[s as usize] {
                    acc.push(ri as u32);
                } else {
                    rej.push(ri as u32);
                }
            }
            for b in [rej, acc] {
                if !b.is_empty() {
                    let id = blocks.len() as u32;
                    for &s in &b {
                        block_of[s as usize] = id;
                    }
                    blocks.push(b);
                }
            }
        }
        // inverse transitions in CSR layout: the states reaching `t` on
        // `a` are `pred[pred_off[t*asz+a] .. pred_off[t*asz+a+1]]`. Two
        // flat arrays instead of n·|Σ| tiny vectors — profiling showed
        // those small allocations made Hopcroft slower than Moore on the
        // small DFAs the inference stack actually builds.
        let mut pred_off = vec![0u32; n * asz + 1];
        for ri in 0..n {
            for a in 0..asz {
                pred_off[delta[ri * asz + a] as usize * asz + a + 1] += 1;
            }
        }
        for i in 1..pred_off.len() {
            pred_off[i] += pred_off[i - 1];
        }
        let mut pred = vec![0u32; n * asz];
        let mut cursor = pred_off.clone();
        for ri in 0..n {
            for a in 0..asz {
                let slot = delta[ri * asz + a] as usize * asz + a;
                pred[cursor[slot] as usize] = ri as u32;
                cursor[slot] += 1;
            }
        }
        drop(cursor);
        // 3. worklist refinement. `in_wl[b * asz + a]` tracks pending
        // (block, symbol) splitters; splitting block B into B/N re-adds
        // both halves if (B, c) was pending, else the smaller half.
        let mut wl: VecDeque<(u32, usize)> = VecDeque::new();
        let mut in_wl = vec![false; blocks.len() * asz];
        for b in 0..blocks.len() {
            for a in 0..asz {
                in_wl[b * asz + a] = true;
                wl.push_back((b as u32, a));
            }
        }
        let mut mark = vec![false; n];
        // scratch buffers reused across refinement rounds (no per-round
        // allocation on the hot path)
        let mut x: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let mut seen_block = vec![false; blocks.len()];
        while let Some((splitter, a)) = wl.pop_front() {
            in_wl[splitter as usize * asz + a] = false;
            // X = states with an a-transition into the splitter block
            x.clear();
            for &s in &blocks[splitter as usize] {
                let slot = s as usize * asz + a;
                for &p in &pred[pred_off[slot] as usize..pred_off[slot + 1] as usize] {
                    if !mark[p as usize] {
                        mark[p as usize] = true;
                        x.push(p);
                    }
                }
            }
            touched.clear();
            if seen_block.len() < blocks.len() {
                seen_block.resize(blocks.len(), false);
            }
            for &p in &x {
                let b = block_of[p as usize] as usize;
                if !seen_block[b] {
                    seen_block[b] = true;
                    touched.push(b as u32);
                }
            }
            for &b in &touched {
                seen_block[b as usize] = false;
            }
            touched.sort_unstable();
            for &b in &touched {
                let bi = b as usize;
                let (marked, unmarked): (Vec<u32>, Vec<u32>) =
                    blocks[bi].iter().partition(|&&s| mark[s as usize]);
                if unmarked.is_empty() {
                    continue; // every state of the block hit: no split
                }
                let new_id = blocks.len() as u32;
                for &s in &marked {
                    block_of[s as usize] = new_id;
                }
                blocks[bi] = unmarked;
                blocks.push(marked);
                in_wl.resize(blocks.len() * asz, false);
                for c in 0..asz {
                    if in_wl[bi * asz + c] {
                        in_wl[new_id as usize * asz + c] = true;
                        wl.push_back((new_id, c));
                    } else {
                        let smaller = if blocks[bi].len() <= blocks[new_id as usize].len() {
                            b
                        } else {
                            new_id
                        };
                        in_wl[smaller as usize * asz + c] = true;
                        wl.push_back((smaller, c));
                    }
                }
            }
            for &p in &x {
                mark[p as usize] = false;
            }
        }
        // 4. quotient, numbering blocks by first occurrence in
        // reachability order (so the start block is state 0)
        let nb = blocks.len();
        let mut newid = vec![u32::MAX; nb];
        let mut repr: Vec<u32> = Vec::new();
        for (ri, &blk) in block_of.iter().enumerate().take(n) {
            let b = blk as usize;
            if newid[b] == u32::MAX {
                newid[b] = repr.len() as u32;
                repr.push(ri as u32);
            }
        }
        let mut transitions = vec![0u32; nb * asz];
        let mut accepting = vec![false; nb];
        for (c, &ri) in repr.iter().enumerate() {
            accepting[c] = self.accepting[order[ri as usize] as usize];
            for a in 0..asz {
                transitions[c * asz + a] =
                    newid[block_of[delta[ri as usize * asz + a] as usize] as usize];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            accepting,
            start: newid[block_of[0] as usize],
        }
    }

    /// The seed implementation's Moore partition-refinement minimization
    /// (also prunes unreachable states), kept as the test oracle for
    /// [`Dfa::minimize`] — both yield the unique minimal DFA.
    #[cfg(test)]
    fn minimize_moore(&self) -> Dfa {
        let asz = self.alphabet.len();
        // 1. restrict to reachable states
        let mut reach: Vec<Option<u32>> = vec![None; self.len()];
        let mut order = vec![self.start];
        reach[self.start as usize] = Some(0);
        let mut i = 0;
        while i < order.len() {
            let s = order[i];
            i += 1;
            for a in 0..asz {
                let t = self.step(s, a);
                if reach[t as usize].is_none() {
                    reach[t as usize] = Some(order.len() as u32);
                    order.push(t);
                }
            }
        }
        let n = order.len();
        // 2. initial partition by acceptance
        let mut class: Vec<u32> = order
            .iter()
            .map(|&s| u32::from(self.accepting[s as usize]))
            .collect();
        let mut nclasses = 2;
        loop {
            // signature of each state: (class, classes of successors)
            let mut sig_index: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut next_class = vec![0u32; n];
            let mut next_n = 0;
            for (ri, &s) in order.iter().enumerate() {
                let mut sig = Vec::with_capacity(asz + 1);
                sig.push(class[ri]);
                for a in 0..asz {
                    let t = self.step(s, a);
                    let rt = reach[t as usize].expect("successor reachable");
                    sig.push(class[rt as usize]);
                }
                let id = *sig_index.entry(sig).or_insert_with(|| {
                    next_n += 1;
                    next_n - 1
                });
                next_class[ri] = id;
            }
            if next_n == nclasses {
                class = next_class;
                break;
            }
            nclasses = next_n;
            class = next_class;
        }
        // 3. build the quotient
        let mut transitions = vec![0u32; nclasses as usize * asz];
        let mut accepting = vec![false; nclasses as usize];
        let mut seen = vec![false; nclasses as usize];
        for (ri, &s) in order.iter().enumerate() {
            let c = class[ri] as usize;
            if seen[c] {
                continue;
            }
            seen[c] = true;
            accepting[c] = self.accepting[s as usize];
            for a in 0..asz {
                let t = self.step(s, a);
                let rt = reach[t as usize].expect("successor reachable");
                transitions[c * asz + a] = class[rt as usize];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            accepting,
            start: class[0],
        }
    }

    /// Counts accepted words of each length `0..=max_len`.
    ///
    /// Saturates at `u128::MAX`. This is the workhorse of the quantitative
    /// tightness metric: the number of *sequences of children* a type allows.
    pub fn count_words_by_len(&self, max_len: usize) -> Vec<u128> {
        let asz = self.alphabet.len();
        let mut counts = vec![0u128; self.len()];
        counts[self.start as usize] = 1;
        let mut out = Vec::with_capacity(max_len + 1);
        let accept_sum = |c: &[u128]| {
            c.iter()
                .zip(&self.accepting)
                .filter(|(_, acc)| **acc)
                .fold(0u128, |s, (v, _)| s.saturating_add(*v))
        };
        out.push(accept_sum(&counts));
        for _ in 0..max_len {
            let mut next = vec![0u128; self.len()];
            for (s, &v) in counts.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                for a in 0..asz {
                    let t = self.step(s as u32, a) as usize;
                    next[t] = next[t].saturating_add(v);
                }
            }
            counts = next;
            out.push(accept_sum(&counts));
        }
        out
    }

    /// Enumerates accepted words of length ≤ `max_len`, up to `cap` words,
    /// in length-lexicographic order.
    pub fn enumerate_words(&self, max_len: usize, cap: usize) -> Vec<Vec<Sym>> {
        let mut out = Vec::new();
        let mut layer: Vec<(u32, Vec<Sym>)> = vec![(self.start, Vec::new())];
        for len in 0..=max_len {
            for (s, w) in &layer {
                if self.accepting[*s as usize] {
                    out.push(w.clone());
                    if out.len() >= cap {
                        return out;
                    }
                }
            }
            if len == max_len {
                break;
            }
            let mut next = Vec::new();
            for (s, w) in &layer {
                for (a, &sym) in self.alphabet.iter().enumerate() {
                    let t = self.step(*s, a);
                    // Skip obvious dead branches: states from which no
                    // accepting state is reachable would still be expanded;
                    // keep it simple and rely on `cap`/`max_len` to bound.
                    let mut w2 = w.clone();
                    w2.push(sym);
                    next.push((t, w2));
                }
            }
            layer = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_regex;
    use crate::symbol::sym;
    use proptest::prelude::*;

    fn dfa(s: &str) -> Dfa {
        Dfa::from_regex(&parse_regex(s).unwrap())
    }

    fn accepts(d: &Dfa, word: &[&str]) -> bool {
        let w: Vec<_> = word.iter().map(|s| sym(s)).collect();
        d.accepts(&w)
    }

    #[test]
    fn determinization_agrees_with_nfa() {
        let sources = [
            "a",
            "a, b",
            "a | b",
            "(a | b)*, c",
            "title, author+, (journal | conference)",
            "(a?, b)*",
            "a+, a+",
        ];
        let words: Vec<Vec<&str>> = vec![
            vec![],
            vec!["a"],
            vec!["b"],
            vec!["a", "b"],
            vec!["a", "a"],
            vec!["a", "b", "c"],
            vec!["title", "author", "journal"],
            vec!["a", "a", "a", "a"],
            vec!["b", "a"],
        ];
        for src in sources {
            let r = parse_regex(src).unwrap();
            let nfa = Nfa::from_regex(&r);
            let d = Dfa::from_regex(&r);
            for w in &words {
                let ws: Vec<_> = w.iter().map(|s| sym(s)).collect();
                assert_eq!(
                    nfa.accepts(&ws),
                    d.accepts(&ws),
                    "mismatch for {src} on {w:?}"
                );
            }
        }
    }

    #[test]
    fn complement_flips() {
        let d = dfa("a, b");
        let c = d.complement();
        assert!(accepts(&d, &["a", "b"]));
        assert!(!accepts(&c, &["a", "b"]));
        assert!(!accepts(&d, &["a"]));
        assert!(accepts(&c, &["a"]));
    }

    #[test]
    fn product_intersects() {
        let alpha: Vec<Sym> = vec![sym("a"), sym("b")];
        let d1 = Dfa::from_regex_with_alphabet(&parse_regex("a*, b*").unwrap(), &alpha);
        let d2 = Dfa::from_regex_with_alphabet(&parse_regex("(a, a)* , b*").unwrap(), &alpha);
        let p = d1.product(&d2);
        assert!(accepts(&p, &["a", "a", "b"]));
        assert!(!accepts(&p, &["a", "b"]));
        assert!(accepts(&p, &[]));
    }

    #[test]
    fn emptiness() {
        assert!(Dfa::from_regex(&Regex::Empty).language_is_empty());
        assert!(!dfa("a?").language_is_empty());
        // a ∩ b = ∅
        let alpha: Vec<Sym> = vec![sym("a"), sym("b")];
        let d1 = Dfa::from_regex_with_alphabet(&parse_regex("a").unwrap(), &alpha);
        let d2 = Dfa::from_regex_with_alphabet(&parse_regex("b").unwrap(), &alpha);
        assert!(d1.product(&d2).language_is_empty());
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        // a|a, (a) and a should all minimize to the same 2+sink machine.
        let d1 = dfa("a | a").minimize();
        let d2 = dfa("a").minimize();
        assert_eq!(d1.len(), d2.len());
        // p*,p,p* has the same language as p+.
        let d3 = dfa("p*, p, p*").minimize();
        let d4 = dfa("p+").minimize();
        assert_eq!(d3.len(), d4.len());
    }

    #[test]
    fn hopcroft_agrees_with_moore() {
        let sources = [
            "a",
            "a | a",
            "p*, p, p*",
            "p+",
            "(a | b)*, c",
            "title, author+, (journal | conference)",
            "(a?, b)*",
            "a+, a+",
            "(a, b) | (a, c) | (a, d)",
            "((a | b), (a | b))*",
        ];
        for src in sources {
            let r = parse_regex(src).unwrap();
            let raw = Dfa::from_nfa(
                &Nfa::from_regex(&r),
                &r.syms().into_iter().collect::<Vec<_>>(),
            );
            let h = raw.minimize();
            let m = raw.minimize_moore();
            assert_eq!(h.len(), m.len(), "state counts differ for {src}");
            let mut wh = h.enumerate_words(4, 500);
            let mut wm = m.enumerate_words(4, 500);
            wh.sort();
            wm.sort();
            assert_eq!(wh, wm, "languages differ for {src}");
        }
        // Hopcroft on an empty-language automaton
        let e = Dfa::from_regex(&Regex::Empty);
        assert!(e.minimize().language_is_empty());
    }

    #[test]
    fn subset_of_agrees_with_product_complement() {
        let sources = [
            "a",
            "a | b",
            "a*",
            "(a | b)*",
            "a, b",
            "(a, b) | (a, c)",
            "a+, b?",
            "title, author+, (journal | conference)",
            "title, author+, journal",
        ];
        for x in sources {
            for y in sources {
                let (rx, ry) = (parse_regex(x).unwrap(), parse_regex(y).unwrap());
                let mut alpha: Vec<Sym> = rx.syms().into_iter().chain(ry.syms()).collect();
                alpha.sort();
                alpha.dedup();
                let dx = Dfa::from_regex_with_alphabet(&rx, &alpha);
                let dy = Dfa::from_regex_with_alphabet(&ry, &alpha);
                assert_eq!(
                    dx.subset_of(&dy),
                    dx.product(&dy.complement()).language_is_empty(),
                    "subset_of diverges on {x} ⊆ {y}"
                );
            }
        }
    }

    #[test]
    fn counting_words() {
        // (a|b)* has 2^n words of length n.
        let d = dfa("(a | b)*");
        let c = d.count_words_by_len(5);
        assert_eq!(c, vec![1, 2, 4, 8, 16, 32]);
        // a? has one word of length 0 and one of length 1.
        let d = dfa("a?");
        assert_eq!(d.count_words_by_len(3), vec![1, 1, 0, 0]);
    }

    #[test]
    fn counting_saturates() {
        let d = dfa("(a | b)*");
        let c = d.count_words_by_len(200);
        assert_eq!(*c.last().unwrap(), u128::MAX.saturating_mul(1)); // saturated? 2^200 > u128::MAX
        assert_eq!(c[200], u128::MAX);
    }

    #[test]
    fn enumerate_small() {
        let d = dfa("a, b | c");
        let mut words = d.enumerate_words(2, 100);
        words.sort();
        assert_eq!(words.len(), 2);
        assert!(words.contains(&vec![sym("c")]));
        assert!(words.contains(&vec![sym("a"), sym("b")]));
    }

    /// Random content-model regexes over {a, b, c}, built through the
    /// smart constructors.
    fn arb_regex() -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            4 => prop::sample::select(vec!["a", "b", "c"]).prop_map(|s| Regex::Sym(sym(s))),
            1 => Just(Regex::Epsilon),
        ];
        leaf.prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::concat),
                prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
                inner.clone().prop_map(Regex::star),
                inner.clone().prop_map(Regex::plus),
                inner.prop_map(Regex::opt),
            ]
        })
    }

    fn abc() -> Vec<Sym> {
        vec![sym("a"), sym("b"), sym("c")]
    }

    /// All words over {a, b, c} of length ≤ 4.
    fn all_words() -> Vec<Vec<Sym>> {
        let mut out: Vec<Vec<Sym>> = vec![vec![]];
        let mut layer: Vec<Vec<Sym>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &layer {
                for s in abc() {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Hopcroft and the seed Moore pass both compute *the* minimal
        /// DFA: identical state counts, identical language.
        #[test]
        fn hopcroft_matches_moore(r in arb_regex()) {
            let raw = Dfa::from_nfa(&Nfa::from_regex(&r), &abc());
            let hopcroft = raw.minimize();
            let moore = raw.minimize_moore();
            prop_assert_eq!(hopcroft.len(), moore.len(), "minimal sizes differ for {}", r);
            prop_assert!(hopcroft.len() <= raw.len());
            for w in all_words() {
                prop_assert_eq!(raw.accepts(&w), hopcroft.accepts(&w), "{:?} of {}", w, r);
                prop_assert_eq!(raw.accepts(&w), moore.accepts(&w), "{:?} of {}", w, r);
            }
        }
    }
}
