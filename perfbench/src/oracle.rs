//! The correctness oracle: every answer the measured program gives is
//! compared with one computed by an in-process twin, once per distinct
//! input and outside every timed window.

use mix_xml::{write_document, Document, WriteConfig};
use std::collections::HashMap;

/// Expected serialized answers, keyed by input index.
pub struct Oracle {
    expected: HashMap<usize, String>,
}

/// The byte form answers are compared in (compact XML with ids).
pub fn render(doc: &Document) -> String {
    write_document(
        doc,
        WriteConfig {
            indent: None,
            write_ids: true,
        },
    )
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            expected: HashMap::new(),
        }
    }

    pub fn expect(&mut self, input: usize, rendered: String) {
        self.expected.insert(input, rendered);
    }

    /// Whether `got` is byte-identical to the twin's answer for `input`.
    /// An input the twin never answered is a mismatch.
    pub fn check(&self, input: usize, got: &str) -> bool {
        self.expected.get(&input).is_some_and(|e| e == got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::parse_document;

    #[test]
    fn oracle_rejects_a_corrupted_answer() {
        let twin = parse_document("<ans><a>x</a><a>y</a></ans>").unwrap();
        let mut oracle = Oracle::new();
        oracle.expect(0, render(&twin));
        // the same answer, parsed independently, passes
        let same = parse_document("<ans><a>x</a><a>y</a></ans>").unwrap();
        assert!(oracle.check(0, &render(&same)));
        // one changed text value fails
        let corrupted = parse_document("<ans><a>x</a><a>z</a></ans>").unwrap();
        assert!(!oracle.check(0, &render(&corrupted)));
        // a dropped member fails
        let short = parse_document("<ans><a>x</a></ans>").unwrap();
        assert!(!oracle.check(0, &render(&short)));
        // an input the twin never answered fails
        assert!(!oracle.check(1, &render(&same)));
    }
}
