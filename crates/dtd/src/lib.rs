//! # mix-dtd — DTDs and specialized DTDs
//!
//! Document Type Definitions exactly as the paper models them
//! (Definition 2.2) plus the paper's *specialized DTDs* (Definition 3.8),
//! with:
//!
//! * two parsers (real `<!ELEMENT …>` syntax and the paper's compact
//!   `<name : model>` notation) and matching display,
//! * validation of documents ([`validate_document`], Definition 2.3/2.4)
//!   and s-DTD satisfaction ([`sdtd_satisfies`], Definition 3.10, via
//!   bottom-up tree-automaton acceptance),
//! * exact tightness comparison ([`tighter_than`], Definitions 3.2–3.4)
//!   built on productivity/usability analyses,
//! * exact document counting ([`count_documents_by_size`],
//!   [`count_sdocuments_by_size`]) — the quantitative tightness metric,
//! * random DTD and valid-document generators for workloads.

#![warn(missing_docs)]

pub mod analysis;
pub mod compare;
pub mod count;
mod display;
pub mod enumerate;
pub mod generate;
pub mod model;
pub mod paper;
pub mod parse;
pub mod sample;
pub mod scompare;
pub mod sdtd;
pub mod validate;
pub mod xml_syntax;

pub use analysis::{describes_some_document, nondeterministic_names, productive, restrict, usable};
pub use compare::{same_documents, strictly_tighter, tighter_than, Tightness};
pub use count::{
    count_documents_by_size, count_documents_upto, count_sdocuments_by_size, count_sdocuments_upto,
};
pub use enumerate::enumerate_documents;
pub use generate::{
    random_dtd, seeded_dtd, write_sized_document, ChunkedDocConfig, ChunkedDocWriter, DtdGenConfig,
};
pub use model::{ContentModel, Dtd, SDtd, TypeMap};
pub use parse::{parse_compact, parse_compact_sdtd, parse_xml_dtd, DtdError};
pub use sample::{sample_documents, DocConfig, DocSampler};
pub use scompare::{
    counting_necessary_condition, sdtd_image_dtd, sdtd_tighter_than_bounded, SBoundedTightness,
};
pub use sdtd::{sdtd_satisfies, SAcceptor};
pub use validate::{
    satisfies, validate_document, validate_element, ValidationError, ValidationErrorKind, Validator,
};
pub use xml_syntax::to_xml_syntax;
