//! Tokenizing comprehension text.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `:`.
    Colon,
    /// `|`.
    Pipe,
    /// `=>`.
    FatArrow,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `==`.
    EqEq,
    /// `!=`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(x) => write!(f, "{x}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Colon => write!(f, ":"),
            Token::Pipe => write!(f, "|"),
            Token::FatArrow => write!(f, "=>"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::EqEq => write!(f, "=="),
            Token::NotEq => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::Bang => write!(f, "!"),
        }
    }
}

/// A lexical error with byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes comprehension text.
///
/// # Errors
///
/// Returns [`LexError`] for unknown characters or malformed numbers.
pub fn lex(text: &str) -> Result<Vec<Token>, LexError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ':' => {
                out.push(Token::Colon);
                i += 1;
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '%' => {
                out.push(Token::Percent);
                i += 1;
            }
            '.' => {
                out.push(Token::Dot);
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::EqEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token::FatArrow);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "expected `==` or `=>`".into(),
                    });
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::NotEq);
                    i += 2;
                } else {
                    out.push(Token::Bang);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    out.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "expected `&&`".into(),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    out.push(Token::OrOr);
                    i += 2;
                } else {
                    out.push(Token::Pipe);
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A float has a fractional part: digits '.' digits. Right
                // after a `.` the digits are a projection index, so
                // `acc.0.1` lexes as Ident Dot Int Dot Int, not as
                // Ident Dot Float.
                let after_dot = out.last() == Some(&Token::Dot);
                let is_float = !after_dot
                    && i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && bytes[i + 1].is_ascii_digit();
                if is_float {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    // Optional exponent.
                    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                        let mut j = i + 1;
                        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j].is_ascii_digit() {
                            i = j;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                i += 1;
                            }
                        }
                    }
                    let s = &text[start..i];
                    let x = s.parse::<f64>().map_err(|_| LexError {
                        offset: start,
                        message: format!("malformed float `{s}`"),
                    })?;
                    out.push(Token::Float(x));
                } else {
                    let s = &text[start..i];
                    let x = s.parse::<i64>().map_err(|_| LexError {
                        offset: start,
                        message: format!("malformed integer `{s}`"),
                    })?;
                    out.push(Token::Int(x));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token::Ident(text[start..i].to_string()));
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_running_example() {
        let toks = lex("from x in xs where x % 2 == 0 select x * x").unwrap();
        assert_eq!(toks.len(), 14);
        assert_eq!(toks[0], Token::Ident("from".into()));
        assert_eq!(toks[6], Token::Percent);
        assert_eq!(toks[8], Token::EqEq);
    }

    #[test]
    fn floats_vs_projections() {
        assert_eq!(lex("1.5").unwrap(), vec![Token::Float(1.5)]);
        assert_eq!(lex("2e3").unwrap(), vec![Token::Int(2), Token::Ident("e3".into())]);
        assert_eq!(lex("1.5e-2").unwrap(), vec![Token::Float(0.015)]);
        // Projection: identifier, dot, integer.
        assert_eq!(
            lex("kv.0").unwrap(),
            vec![Token::Ident("kv".into()), Token::Dot, Token::Int(0)]
        );
        // A call on a float parses as float-dot-ident.
        assert_eq!(
            lex("2.5.sqrt()").unwrap(),
            vec![
                Token::Float(2.5),
                Token::Dot,
                Token::Ident("sqrt".into()),
                Token::LParen,
                Token::RParen
            ]
        );
    }

    #[test]
    fn digits_after_a_dot_are_projection_indices() {
        assert_eq!(
            lex("acc.0.1").unwrap(),
            vec![
                Token::Ident("acc".into()),
                Token::Dot,
                Token::Int(0),
                Token::Dot,
                Token::Int(1)
            ]
        );
        assert_eq!(
            lex("acc.1 + 1.5").unwrap(),
            vec![
                Token::Ident("acc".into()),
                Token::Dot,
                Token::Int(1),
                Token::Plus,
                Token::Float(1.5)
            ]
        );
        assert_eq!(lex("1.5").unwrap(), vec![Token::Float(1.5)]);
    }

    #[test]
    fn operators_and_lambdas() {
        let toks = lex("|x| x >= 1 && x != 3 || !(x <= 0)").unwrap();
        assert!(toks.contains(&Token::Pipe));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::AndAnd));
        assert!(toks.contains(&Token::OrOr));
        assert!(toks.contains(&Token::Bang));
        let toks = lex("x => x").unwrap();
        assert_eq!(toks[1], Token::FatArrow);
    }

    #[test]
    fn errors_carry_offsets() {
        let err = lex("a ; b").unwrap_err();
        assert_eq!(err.offset, 2);
        let err = lex("a & b").unwrap_err();
        assert!(err.message.contains("&&"));
        let err = lex("a = b").unwrap_err();
        assert!(err.message.contains("=="));
    }
}
