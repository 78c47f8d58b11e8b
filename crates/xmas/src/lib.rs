//! # mix-xmas — the pick-element XMAS query language
//!
//! The fragment of XMAS (XML Matching And Structuring) the paper's
//! inference algorithm handles (Section 2.1): queries whose SELECT clause
//! has a single pick variable and whose WHERE clause is one tree condition
//! over one source plus id inequalities. Provides the AST, a parser for the
//! paper's syntax, the normalization preprocessing (wildcard expansion, tag
//! assignment), and the evaluator that materializes view documents.

#![warn(missing_docs)]

pub mod ast;
mod display;
pub mod eval;
pub mod gen;
pub mod normalize;
#[cfg(test)]
mod oracle;
pub mod paper;
pub mod parser;

pub use ast::{Body, Condition, NameTest, Query, Var};
pub use eval::{evaluate, pick_bindings, unsatisfiable_diseq};
pub use gen::{random_query, random_view_query, QueryGenConfig};
pub use normalize::{normalize, well_formed, NormalizeError};
pub use parser::{parse_query, QueryError};
