//! Parser for the paper's query syntax, e.g. (Q2):
//!
//! ```text
//! withJournals = SELECT P
//! WHERE <department>
//!         <name>CS</name>
//!         P:<professor | gradStudent>
//!           <publication id=Pub1><journal/></publication>
//!           <publication id=Pub2><journal/></publication>
//!         </>
//!       </>
//! AND Pub1 != Pub2
//! ```
//!
//! Close tags may be anonymous (`</>`), element positions may be a
//! disjunction (`professor | gradStudent`) or the wildcard `*`, and
//! string-content conditions are written inline (`<name>CS</name>`).

use crate::ast::{Body, Condition, NameTest, Query, Var};
use mix_relang::symbol::Name;
use mix_relang::MAX_NESTING_DEPTH;
use std::fmt;

/// A query parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for QueryError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
    /// Conditions open around the cursor.
    depth: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), QueryError> {
        if self.eat_str(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    /// An identifier (no ':' — those separate a variable from its
    /// condition).
    fn ident(&mut self) -> Result<&'a str, QueryError> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.err("expected an identifier")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '.' | '-'))
        {
            self.bump();
        }
        Ok(&self.src[start..self.pos])
    }

    fn keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        self.skip_ws();
        let start = self.pos;
        match self.ident() {
            Ok(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
            _ => {
                self.pos = start;
                Err(self.err(format!("expected keyword '{kw}'")))
            }
        }
    }

    /// `professor | gradStudent` or `*`.
    fn nametest(&mut self) -> Result<NameTest, QueryError> {
        self.skip_ws();
        if self.peek() == Some('*') {
            self.bump();
            return Ok(NameTest::Wildcard);
        }
        let mut names = vec![Name::intern(self.ident()?)];
        while self.eat_str("|") {
            names.push(Name::intern(self.ident()?));
        }
        Ok(NameTest::Names(names))
    }

    /// `[Var ':'] '<' …`.
    fn condition(&mut self) -> Result<Condition, QueryError> {
        self.skip_ws();
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "conditions nested deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        let mut var = None;
        if matches!(self.peek(), Some(c) if c.is_alphabetic() || c == '_') {
            let save = self.pos;
            let v = self.ident()?;
            self.skip_ws();
            if self.peek() == Some(':') {
                self.bump();
                self.skip_ws();
                if self.peek() == Some('<') {
                    var = Some(Var::new(v));
                } else {
                    return Err(self.err("expected '<' after 'Var:'"));
                }
            } else {
                self.pos = save;
                return Err(self.err("expected a condition ('<' or 'Var:<')"));
            }
        }
        self.expect_str("<")?;
        let test = self.nametest()?;
        let mut id_var = None;
        self.skip_ws();
        if self.eat_str("id") {
            self.expect_str("=")?;
            id_var = Some(Var::new(self.ident()?));
            self.skip_ws();
        }
        // self-closing?
        if self.eat_str("/>") {
            return Ok(Condition {
                test,
                var,
                id_var,
                tag: 0,
                body: Body::Children(vec![]),
            });
        }
        self.expect_str(">")?;
        self.depth += 1;
        let body = self.body(&test)?;
        self.depth -= 1;
        Ok(Condition {
            test,
            var,
            id_var,
            tag: 0,
            body,
        })
    }

    /// Content of a condition, up to and including the close tag.
    fn body(&mut self, open: &NameTest) -> Result<Body, QueryError> {
        self.skip_ws();
        // close tag right away: no constraint
        if self.eat_str("</") {
            self.close_rest(open)?;
            return Ok(Body::Children(vec![]));
        }
        // a nested condition starts with '<' or 'Var:<'; otherwise the body
        // is a string condition
        if self.next_is_condition() {
            let mut children = Vec::new();
            loop {
                self.skip_ws();
                if self.eat_str("</") {
                    self.close_rest(open)?;
                    return Ok(Body::Children(children));
                }
                children.push(self.condition()?);
            }
        }
        // text content, up to '</'
        let start = self.pos;
        while !self.starts_with("</") {
            if self.bump().is_none() {
                return Err(self.err("unterminated string condition"));
            }
        }
        let text = self.src[start..self.pos].trim().to_owned();
        self.pos += 2;
        self.close_rest(open)?;
        Ok(Body::Text(text))
    }

    /// After `</`: `>` (anonymous close) or a repetition of the opening
    /// name test followed by `>`.
    fn close_rest(&mut self, open: &NameTest) -> Result<(), QueryError> {
        self.skip_ws();
        if self.peek() != Some('>') {
            let t = self.nametest()?;
            if &t != open {
                return Err(self.err("close tag does not repeat the opening name test"));
            }
            self.skip_ws();
        }
        self.expect_str(">")
    }

    fn next_is_condition(&self) -> bool {
        // lookahead: optional "ident :" then '<'
        let rest = self.src[self.pos..].trim_start();
        if rest.starts_with('<') {
            return true;
        }
        let ident_len = rest
            .char_indices()
            .take_while(|(i, c)| {
                if *i == 0 {
                    c.is_alphabetic() || *c == '_'
                } else {
                    c.is_alphanumeric() || matches!(c, '_' | '.' | '-')
                }
            })
            .count();
        if ident_len == 0 {
            return false;
        }
        let after: &str = rest[ident_len..].trim_start();
        after.starts_with(':') && after[1..].trim_start().starts_with('<')
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        let view_name = Name::intern(self.ident()?);
        self.expect_str("=")?;
        self.keyword("SELECT")?;
        let pick = Var::new(self.ident()?);
        self.keyword("WHERE")?;
        let root = self.condition()?;
        let mut diseqs = Vec::new();
        while self.keyword("AND").is_ok() {
            let a = Var::new(self.ident()?);
            self.expect_str("!=")?;
            let b = Var::new(self.ident()?);
            diseqs.push((a, b));
        }
        self.skip_ws();
        if self.pos < self.src.len() {
            return Err(self.err("trailing input after query"));
        }
        Ok(Query {
            view_name,
            pick,
            root,
            diseqs,
        })
    }
}

/// Parses a pick-element XMAS query.
pub fn parse_query(src: &str) -> Result<Query, QueryError> {
    P {
        src,
        pos: 0,
        depth: 0,
    }
    .query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_relang::symbol::name;

    /// (Q2) of the paper.
    pub const Q2: &str = "withJournals = SELECT P \
        WHERE <department> <name>CS</name> \
          P:<professor | gradStudent> \
            <publication id=Pub1><journal/></publication> \
            <publication id=Pub2><journal/></publication> \
          </> \
        </> \
        AND Pub1 != Pub2";

    #[test]
    fn parse_q2() {
        let q = parse_query(Q2).unwrap();
        assert_eq!(q.view_name, name("withJournals"));
        assert_eq!(q.pick, Var::new("P"));
        assert_eq!(q.diseqs, vec![(Var::new("Pub1"), Var::new("Pub2"))]);
        assert_eq!(q.root.test.names(), &[name("department")]);
        let kids = q.root.children();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].body, Body::Text("CS".into()));
        let pick = &kids[1];
        assert_eq!(pick.var, Some(Var::new("P")));
        assert_eq!(pick.test.names(), &[name("professor"), name("gradStudent")]);
        assert_eq!(pick.children().len(), 2);
        assert_eq!(pick.children()[0].id_var, Some(Var::new("Pub1")));
        assert_eq!(
            pick.children()[0].children()[0].test.names(),
            &[name("journal")]
        );
    }

    #[test]
    fn parse_q3_journal_publications() {
        let q = parse_query(
            "publist = SELECT P \
             WHERE <department> <name>CS</name> \
               <professor | gradStudent> P:<publication><journal/></publication> </> \
             </>",
        )
        .unwrap();
        assert_eq!(q.pick_path().unwrap().len(), 3);
    }

    #[test]
    fn parse_q12_with_intermediate_vars() {
        let q = parse_query(
            "papers = SELECT P \
             WHERE D:<department> G:<gradStudent> X:<publication> \
               P:<title | author/> </publication> </gradStudent> </department>",
        )
        .unwrap();
        let path = q.pick_path().unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0].var, Some(Var::new("D")));
        assert_eq!(path[2].var, Some(Var::new("X")));
    }

    #[test]
    fn wildcard_nametest() {
        let q = parse_query("v = SELECT X WHERE <r> X:<*/> </r>").unwrap();
        assert_eq!(q.pick_node().unwrap().test, NameTest::Wildcard);
    }

    #[test]
    fn named_close_tags_must_reopen() {
        assert!(parse_query("v = SELECT X WHERE X:<a></b>").is_err());
        assert!(parse_query("v = SELECT X WHERE X:<a></a>").is_ok());
        // disjunctive close repeats the open test
        assert!(parse_query("v = SELECT X WHERE X:<a|b></a|b>").is_ok());
    }

    #[test]
    fn string_condition_is_trimmed() {
        let q = parse_query("v = SELECT X WHERE X:<name>  CS  </name>").unwrap();
        assert_eq!(q.root.body, Body::Text("CS".into()));
    }

    #[test]
    fn multiple_diseqs() {
        let q = parse_query(
            "v = SELECT X WHERE X:<a> <b id=B1/> <b id=B2/> <b id=B3/> </a> \
             AND B1 != B2 AND B2 != B3 AND B1 != B3",
        )
        .unwrap();
        assert_eq!(q.diseqs.len(), 3);
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("v = SELECT WHERE <a/>").is_err());
        assert!(parse_query("v = SELECT X WHERE <a>").is_err());
        assert!(parse_query("v = SELECT X WHERE <a/> garbage").is_err());
        assert!(parse_query("v = SELECT X WHERE X:<a/> AND B1 = B2").is_err());
    }

    #[test]
    fn close_tag_name_mismatch_detected() {
        // close_rest only tolerates a repetition of the *opening* test;
        // anything else fails at the '>' expectation
        assert!(parse_query("v = SELECT X WHERE X:<a><b/></c></a>").is_err());
    }
}
