//! The full-text query language.
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query  := or
//! or     := and ( "OR" and )*
//! and    := not ( ("AND")? not )*        adjacency = implicit AND
//! not    := term ( "NOT" term )*
//! term   := word | "\"" phrase "\"" | "(" query ")"
//! ```
//!
//! A `word` runs to whitespace, a parenthesis or a quote. It and the body
//! of a `phrase` are tokenized exactly as a document is
//! ([`crate::tokenizer`]): no token is an error, one token is a term, and
//! two or more are a phrase, so `e-mail` searches `mail` and `quick-brown`
//! searches the phrase `"quick brown"`.

use domino_types::{DominoError, Result};

use crate::tokenizer::tokenize;

/// Parsed query tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryNode {
    Term(String),
    Phrase(Vec<String>),
    And(Box<QueryNode>, Box<QueryNode>),
    Or(Box<QueryNode>, Box<QueryNode>),
    /// Matches of `left` minus matches of `right`.
    Not(Box<QueryNode>, Box<QueryNode>),
}

#[derive(Debug, PartialEq)]
enum Tok {
    /// A word or a quoted phrase: a term or a phrase node.
    Words(QueryNode),
    And,
    Or,
    Not,
    LParen,
    RParen,
}

/// `text` tokenized as a document holding it is indexed, or the error
/// message `empty` makes when no word is left.
fn words(text: &str, empty: impl FnOnce() -> String) -> Result<Tok> {
    let mut words: Vec<String> = tokenize(text).into_iter().map(|(w, _)| w).collect();
    Ok(Tok::Words(match words.len() {
        0 => return Err(DominoError::InvalidArgument(empty())),
        1 => QueryNode::Term(words.remove(0)),
        _ => QueryNode::Phrase(words),
    }))
}

fn lex(src: &str) -> Result<Vec<Tok>> {
    let blank = [' ', '\t', '\n', '\r'];
    let mut out = Vec::new();
    let mut rest = src.trim_start_matches(blank);
    while let Some(c) = rest.chars().next() {
        let len = match c {
            '(' | ')' => {
                out.push(if c == '(' { Tok::LParen } else { Tok::RParen });
                1
            }
            '"' => {
                let Some(len) = rest[1..].find('"') else {
                    return Err(DominoError::InvalidArgument(
                        "unterminated phrase quote".into(),
                    ));
                };
                out.push(words(&rest[1..=len], || {
                    "phrase has no searchable words".into()
                })?);
                len + 2
            }
            _ => {
                // The first char is the word's even if it is whitespace.
                let len = rest
                    .char_indices()
                    .skip(1)
                    .find(|&(_, d)| d.is_whitespace() || matches!(d, '(' | ')' | '"'))
                    .map_or(rest.len(), |(n, _)| n);
                let word = &rest[..len];
                out.push(match word.to_ascii_uppercase().as_str() {
                    "AND" | "&" => Tok::And,
                    "OR" | "|" => Tok::Or,
                    "NOT" | "!" => Tok::Not,
                    _ => words(word, || format!("{word:?} is too short or a stopword"))?,
                });
                len
            }
        };
        rest = rest[len..].trim_start_matches(blank);
    }
    Ok(out)
}

/// Parse a query string.
pub fn parse_query(src: &str) -> Result<QueryNode> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(DominoError::InvalidArgument("empty query".into()));
    }
    let mut p = Parser { toks, pos: 0 };
    let node = p.or()?;
    if p.pos != p.toks.len() {
        return Err(DominoError::InvalidArgument(
            "trailing tokens in query".into(),
        ));
    }
    Ok(node)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn or(&mut self) -> Result<QueryNode> {
        let mut lhs = self.and()?;
        while matches!(self.peek(), Some(Tok::Or)) {
            self.pos += 1;
            let rhs = self.and()?;
            lhs = QueryNode::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<QueryNode> {
        let mut lhs = self.not()?;
        loop {
            match self.peek() {
                Some(Tok::And) => {
                    self.pos += 1;
                    let rhs = self.not()?;
                    lhs = QueryNode::And(Box::new(lhs), Box::new(rhs));
                }
                // Implicit AND on adjacency.
                Some(Tok::Words(_)) | Some(Tok::LParen) => {
                    let rhs = self.not()?;
                    lhs = QueryNode::And(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn not(&mut self) -> Result<QueryNode> {
        let mut lhs = self.term()?;
        while matches!(self.peek(), Some(Tok::Not)) {
            self.pos += 1;
            let rhs = self.term()?;
            lhs = QueryNode::Not(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<QueryNode> {
        match self.toks.get(self.pos) {
            Some(Tok::Words(node)) => {
                let node = node.clone();
                self.pos += 1;
                Ok(node)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let node = self.or()?;
                if !matches!(self.toks.get(self.pos), Some(Tok::RParen)) {
                    return Err(DominoError::InvalidArgument("missing `)` in query".into()));
                }
                self.pos += 1;
                Ok(node)
            }
            other => Err(DominoError::InvalidArgument(format!(
                "expected a term, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word() {
        assert_eq!(
            parse_query("Elephants").unwrap(),
            QueryNode::Term("elephants".into())
        );
    }

    #[test]
    fn implicit_and() {
        let q = parse_query("cats dogs").unwrap();
        assert_eq!(
            q,
            QueryNode::And(
                Box::new(QueryNode::Term("cats".into())),
                Box::new(QueryNode::Term("dogs".into()))
            )
        );
    }

    #[test]
    fn explicit_operators_and_precedence() {
        // NOT binds tighter than AND binds tighter than OR.
        let q = parse_query("cats AND dogs OR birds NOT fish").unwrap();
        assert_eq!(
            q,
            QueryNode::Or(
                Box::new(QueryNode::And(
                    Box::new(QueryNode::Term("cats".into())),
                    Box::new(QueryNode::Term("dogs".into()))
                )),
                Box::new(QueryNode::Not(
                    Box::new(QueryNode::Term("birds".into())),
                    Box::new(QueryNode::Term("fish".into()))
                ))
            )
        );
    }

    #[test]
    fn parens_override() {
        let q = parse_query("(cats OR dogs) birds").unwrap();
        assert!(matches!(q, QueryNode::And(_, _)));
    }

    #[test]
    fn phrases() {
        let q = parse_query("\"Quick Brown fox\"").unwrap();
        assert_eq!(
            q,
            QueryNode::Phrase(vec!["quick".into(), "brown".into(), "fox".into()])
        );
        // One-word phrase degrades to a term.
        assert_eq!(
            parse_query("\"fox\"").unwrap(),
            QueryNode::Term("fox".into())
        );
    }

    #[test]
    fn a_word_is_cut_at_whitespace_parentheses_and_quotes() {
        let cats = || Box::new(QueryNode::Term("cats".into()));
        let q = parse_query("\u{a0}cats(dogs)\"cats\"").unwrap();
        let dogs = Box::new(QueryNode::Term("dogs".into()));
        assert_eq!(
            q,
            QueryNode::And(Box::new(QueryNode::And(cats(), dogs)), cats())
        );
        assert!(parse_query("cats \u{a0}").is_err());
    }

    #[test]
    fn symbol_operators() {
        let q = parse_query("cats & dogs | birds").unwrap();
        assert!(matches!(q, QueryNode::Or(_, _)));
    }

    #[test]
    fn errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("(cats").is_err());
        assert!(parse_query("\"oops").is_err());
        assert!(parse_query("cats AND").is_err());
        assert!(parse_query("the").is_err(), "stopword-only query");
        assert!(parse_query("\"the of\"").is_err(), "stopword-only phrase");
    }
}
