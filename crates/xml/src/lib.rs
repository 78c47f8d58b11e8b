//! # mix-xml — the abstract XML model of the MIX mediator
//!
//! Implements the XML fragment of Section 2 of the paper: elements with a
//! name, a unique ID, and either element content or PCDATA (no other
//! attributes, no mixed content, no entities). Ships a from-scratch reader
//! and serializer for that fragment and the structural-class abstraction of
//! Definition 3.5. The reader ([`reader`]) is the one parser: it streams
//! open/text/close events from any byte source, and [`parse_document`] /
//! [`read_document`] build trees from those events.

#![warn(missing_docs)]

pub mod element;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod reader;
pub mod skeleton;
pub mod writer;

pub use element::{Content, Document, ElemId, Element, Fingerprint};
pub use parser::{escape, parse_document, XmlError};
pub use reader::{read_document, EventReader, StreamError, XmlEvent};
pub use skeleton::{same_structural_class, Skeleton};
pub use writer::{
    write_answer, write_document, write_document_to, write_element, write_element_at,
    write_element_to, WriteConfig,
};
