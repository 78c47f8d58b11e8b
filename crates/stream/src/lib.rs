//! # mix-stream — event-driven streaming XMAS evaluation
//!
//! The in-memory pipeline (`mix-xml` parse → `mix-xmas` evaluate) holds
//! the whole source document resident, which caps the mediator at
//! documents that fit in RAM. This crate evaluates the streamable
//! fragment of XMAS — pick-element queries without `!=` constraints —
//! in one pass over the raw XML bytes:
//!
//! * `mix-xml`'s [`EventReader`] pulls open/text/close events from any
//!   [`std::io::Read`] with a bounded buffer — the same reader that
//!   builds `mix_xml::parse_document`'s trees, so both paths accept and
//!   reject exactly the same documents;
//! * [`compile`] flattens a normalized query into pattern nodes plus
//!   per-node DTD feasibility sets — the hash-consed content-model
//!   pool's emptiness/first/alphabet attributes prune descents that
//!   could never satisfy the pattern in a DTD-valid document;
//! * [`matcher`] runs a stack of active pattern states over the events,
//!   emitting answer elements incrementally in document order with
//!   `O(depth × pattern)` live state (plus any answers whose ancestor
//!   conditions are still unresolved).
//!
//! Answers are byte-identical to `mix_xmas::evaluate`. Queries outside
//! the fragment are rejected at compile time ([`Unsupported`]), so a
//! caller — the mediator's `StreamingWrapper` — can fall back to the
//! in-memory evaluator.
//!
//! ```
//! use mix_stream::{stream_answer, CompiledQuery};
//! let q = mix_xmas::parse_query(
//!     "profs = SELECT P WHERE <department> P:<professor/> </>",
//! ).unwrap();
//! let cq = CompiledQuery::compile(&q, None).unwrap();
//! let xml = "<department><professor id='p1'><teaches/></professor></department>";
//! let (answer, stats) = stream_answer(xml.as_bytes(), &cq).unwrap();
//! assert_eq!(answer.root.children().len(), 1);
//! assert!(stats.peak_state_bytes() > 0);
//! ```

#![warn(missing_docs)]

pub mod compile;
pub mod matcher;

pub use compile::{CompiledQuery, Unsupported, MAX_SIBLING_CONDS};
pub use matcher::{stream_answer, stream_answer_to, stream_eval, StreamStats};
pub use mix_xml::{EventReader, StreamError, XmlEvent};
