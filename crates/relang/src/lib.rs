//! # mix-relang — regular expressions over element names
//!
//! The foundation of the MIX view-DTD inference reproduction
//! (Papakonstantinou & Velikhov, ICDE 1999). A DTD maps each element name
//! to a *type*: a regular expression over element names (Definition 2.2);
//! a specialized DTD uses *tagged* regular expressions over tagged names
//! (Definition 3.8). This crate provides:
//!
//! * interned [`Name`]s and tagged [`Sym`]bols,
//! * the [`Regex`] AST with normalizing smart constructors,
//! * a parser ([`parse_regex`]) and pretty-printer for the paper's
//!   content-model notation,
//! * Glushkov [`Nfa`]s and complete [`Dfa`]s with product, complement and
//!   minimization,
//! * the language-level decision procedures behind *tightness*
//!   ([`is_subset`], [`equivalent`]), plus counting and enumeration used by
//!   the quantitative tightness metrics,
//! * a language-preserving [`simplify()`] pass (the "can be simplified to
//!   (D2)" step of Example 4.3),
//! * budget-steered random [`sample_word`] generation for workloads.

#![warn(missing_docs)]

pub mod ast;
pub mod derivative;
pub mod determinism;
pub mod dfa;
mod display;
pub mod memo;
pub mod nfa;
pub mod ops;
pub mod parser;
pub mod pool;
pub mod sample;
pub mod simplify;
pub mod symbol;

pub use ast::Regex;
pub use derivative::{derivative, derivative_id, matches_by_derivative};
pub use determinism::{ambiguity, is_deterministic, Ambiguity};
pub use dfa::Dfa;
pub use memo::{clear_memo, export_inclusions, import_inclusions, memo_stats, MemoStats};
pub use nfa::Nfa;
pub use ops::{
    count_words_by_len, count_words_upto, enumerate_words, equivalent, equivalent_id,
    equivalent_uncached, image_cached, is_proper_subset, is_subset, is_subset_id,
    is_subset_uncached, language_is_empty, map_syms_cached, matches, min_word_len,
};
pub use parser::{parse_regex, ParseError};
pub use pool::{
    export_arena, import_arena, intern, pool_stats, to_regex, ImportedArena, PoolStats,
    PortableEntry, PortableNode, ReId, ReNode,
};
pub use sample::{sample_word, SampleConfig};
pub use simplify::{simplify, simplify_id};
pub use symbol::{name, sym, Name, Sym, Tag};
