//! Parser for content-model regular expressions.
//!
//! Accepts both the paper's notation and XML DTD content-model syntax:
//!
//! ```text
//! model  := alt
//! alt    := concat ( '|' concat )*
//! concat := postfix ( ',' postfix )*
//! postfix:= atom ( '*' | '+' | '?' )*
//! atom   := NAME [ '^' TAG ]  |  '(' alt ')'  |  'ε'  |  '∅'
//! ```
//!
//! Names follow XML name rules (letters, digits, `.`, `-`, `_`, `:`), and a
//! trailing `^k` writes a tagged name of a specialized DTD (Definition 3.8).

use crate::ast::Regex;
use crate::symbol::Name;
use std::fmt;

/// The deepest nesting any parser in the workspace accepts: parentheses
/// in a content model, elements in an XML document, conditions in an
/// XMAS query. Deeper input is a typed parse error, so the recursive
/// walks over a parsed value (drop, clone, validation, evaluation,
/// serialization) stay far inside a 2 MiB thread stack. libxml2's default
/// limit is the same.
pub const MAX_NESTING_DEPTH: usize = 256;

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A hand-rolled lexing cursor, shared with the DTD and query parsers in
/// the downstream crates (they embed content-model regexes).
pub struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position.
    pub fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    /// Skips whitespace.
    pub fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    /// Peeks the next character.
    pub fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Consumes and returns the next character.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes `c` (after whitespace) if present.
    pub fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Requires `c` (after whitespace).
    pub fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    /// True when only whitespace remains.
    pub fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn is_name_start(c: char) -> bool {
        c.is_alphabetic() || c == '_' || c == ':'
    }

    fn is_name_char(c: char) -> bool {
        c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-' | '#')
    }

    /// Parses an XML name (optionally starting with `#`, for `#PCDATA`).
    pub fn name(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if Self::is_name_start(c) || c == '#' => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while let Some(c) = self.peek() {
            if Self::is_name_char(c) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(&self.src[start..self.pos])
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected a tag number"))
    }

    fn atom(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                if self.depth == MAX_NESTING_DEPTH {
                    return Err(self.err(format!(
                        "parentheses nested deeper than {MAX_NESTING_DEPTH} levels"
                    )));
                }
                self.bump();
                self.depth += 1;
                let inner = self.alt()?;
                self.depth -= 1;
                self.expect(')')?;
                Ok(inner)
            }
            Some('ε') => {
                self.bump();
                Ok(Regex::Epsilon)
            }
            Some('∅') => {
                self.bump();
                Ok(Regex::Empty)
            }
            _ => {
                let n = self.name()?;
                let name = Name::intern(n);
                if self.peek() == Some('^') {
                    self.bump();
                    let tag = self.number()?;
                    Ok(Regex::sym(name.tagged(tag)))
                } else {
                    Ok(Regex::name(name))
                }
            }
        }
    }

    fn postfix(&mut self) -> Result<Regex, ParseError> {
        let mut r = self.atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.bump();
                    r = Regex::star(r);
                }
                Some('+') => {
                    self.bump();
                    r = Regex::plus(r);
                }
                Some('?') => {
                    self.bump();
                    r = Regex::opt(r);
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.postfix()?];
        while self.eat(',') {
            parts.push(self.postfix()?);
        }
        Ok(Regex::concat(parts))
    }

    /// Parses a full regex (entry point for embedded models).
    pub fn alt(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.concat()?];
        while self.eat('|') {
            parts.push(self.concat()?);
        }
        Ok(Regex::alt(parts))
    }
}

/// Parses a content-model regular expression.
pub fn parse_regex(src: &str) -> Result<Regex, ParseError> {
    let mut c = Cursor::new(src);
    let r = c.alt()?;
    if !c.at_end() {
        return Err(c.err("trailing input after regular expression"));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{name, sym};

    #[test]
    fn simple_forms() {
        assert_eq!(parse_regex("a").unwrap(), Regex::Sym(sym("a")));
        assert_eq!(
            parse_regex("a, b").unwrap(),
            Regex::Sym(sym("a")).then(Regex::Sym(sym("b")))
        );
        assert_eq!(
            parse_regex("a | b").unwrap(),
            Regex::Sym(sym("a")).or(Regex::Sym(sym("b")))
        );
        assert_eq!(
            parse_regex("a*").unwrap(),
            Regex::star(Regex::Sym(sym("a")))
        );
    }

    #[test]
    fn precedence() {
        // '|' loosest, ',' tighter, postfix tightest.
        let r = parse_regex("a, b | c").unwrap();
        assert_eq!(
            r,
            Regex::alt([
                Regex::Sym(sym("a")).then(Regex::Sym(sym("b"))),
                Regex::Sym(sym("c")),
            ])
        );
        let r = parse_regex("a, b*").unwrap();
        assert_eq!(
            r,
            Regex::Sym(sym("a")).then(Regex::star(Regex::Sym(sym("b"))))
        );
    }

    #[test]
    fn parens_and_stacked_postfix() {
        let r = parse_regex("(a | b)*").unwrap();
        assert_eq!(
            r,
            Regex::star(Regex::Sym(sym("a")).or(Regex::Sym(sym("b"))))
        );
        // a+? == (a+)? == a*
        assert_eq!(parse_regex("a+?").unwrap(), parse_regex("a*").unwrap());
    }

    #[test]
    fn tagged_names() {
        let r = parse_regex("publication^1").unwrap();
        assert_eq!(r, Regex::sym(name("publication").tagged(1)));
        let r = parse_regex("a^2 | a").unwrap();
        assert_eq!(r.syms().len(), 2);
    }

    #[test]
    fn paper_d1_publication_type() {
        let r = parse_regex("title, author+, (journal | conference)").unwrap();
        assert_eq!(r.names().len(), 4);
        assert!(!r.nullable());
    }

    #[test]
    fn epsilon_and_empty_literals() {
        assert_eq!(parse_regex("ε").unwrap(), Regex::Epsilon);
        assert_eq!(parse_regex("∅").unwrap(), Regex::Empty);
        assert_eq!(
            parse_regex("a | ε").unwrap(),
            Regex::opt(Regex::Sym(sym("a")))
        );
    }

    #[test]
    fn errors() {
        assert!(parse_regex("").is_err());
        assert!(parse_regex("a,,b").is_err());
        assert!(parse_regex("(a").is_err());
        assert!(parse_regex("a)").is_err());
        assert!(parse_regex("a b").is_err()); // juxtaposition is not concat
        assert!(parse_regex("|a").is_err());
        assert!(parse_regex("a^x").is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        assert_eq!(
            parse_regex("  a ,\n\tb  ").unwrap(),
            parse_regex("a,b").unwrap()
        );
    }
}
