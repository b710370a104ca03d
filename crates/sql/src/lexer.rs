//! Tokenizer for the window-query dialect.

use wf_common::{Error, Result};

/// A token with its byte offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub offset: usize,
}

/// Token kinds. Keywords are lexed as `Ident` and matched
/// case-insensitively by the parser, except for punctuation.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Ident(String),
    Number(i64),
    Float(f64),
    Str(String),
    Comma,
    LParen,
    RParen,
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    Eof,
}

/// Tokenize `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: i,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: i,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: i,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: i,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: i,
                });
                i += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Ne,
                    offset: i,
                });
                i += 2;
            }
            '<' => {
                let (kind, width) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Le, 2),
                    Some(b'>') => (TokenKind::Ne, 2),
                    _ => (TokenKind::Lt, 1),
                };
                tokens.push(Token { kind, offset: i });
                i += width;
            }
            '>' => {
                let (kind, width) = match bytes.get(i + 1) {
                    Some(b'=') => (TokenKind::Ge, 2),
                    _ => (TokenKind::Gt, 1),
                };
                tokens.push(Token { kind, offset: i });
                i += width;
            }
            '\'' => {
                // The text between quotes is taken from `input` whole, so
                // multi-byte characters survive; a quote is one ASCII byte,
                // so every slice starts and ends on a char boundary.
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    let Some(len) = input[i..].find('\'') else {
                        return Err(Error::Parse {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    };
                    s.push_str(&input[i..i + len]);
                    i += len + 1;
                    // Doubled quote = escaped quote.
                    if bytes.get(i) == Some(&b'\'') {
                        s.push('\'');
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() || (c == '-' && peek_digit(bytes, i + 1)) => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len() && bytes[i] == b'.' && peek_digit(bytes, i + 1) {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| Error::Parse {
                        offset: start,
                        message: format!("invalid float `{text}`"),
                    })?)
                } else {
                    TokenKind::Number(text.parse().map_err(|_| Error::Parse {
                        offset: start,
                        message: format!("invalid integer `{text}`"),
                    })?)
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(input[start..i].to_string()),
                    offset: start,
                });
            }
            _ => {
                // Every branch above consumes whole characters, so `i` is
                // on a char boundary.
                let other = input[i..].chars().next().unwrap_or_default();
                return Err(Error::Parse {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

fn peek_digit(bytes: &[u8], i: usize) -> bool {
    i < bytes.len() && (bytes[i] as char).is_ascii_digit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT *, rank() FROM t"),
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Star,
                TokenKind::Comma,
                TokenKind::Ident("rank".into()),
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_floats() {
        assert_eq!(
            kinds("3 -7 2.5"),
            vec![
                TokenKind::Number(3),
                TokenKind::Number(-7),
                TokenKind::Float(2.5),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("= <> != < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("ab cd").unwrap();
        assert_eq!(toks[1].offset, 3);
    }

    #[test]
    fn unknown_char_errors() {
        assert!(matches!(
            tokenize("a ; b"),
            Err(Error::Parse { offset: 2, .. })
        ));
    }

    /// Literals keep multi-byte characters as written, `''` escapes
    /// included, and an unexpected character is named as written.
    #[test]
    fn non_ascii_literals_and_characters_survive() {
        assert_eq!(
            kinds("'naïve é' '多字节' 'it''s 🦀''' ''"),
            vec![
                TokenKind::Str("naïve é".into()),
                TokenKind::Str("多字节".into()),
                TokenKind::Str("it's 🦀'".into()),
                TokenKind::Str(String::new()),
                TokenKind::Eof,
            ]
        );
        let toks = tokenize("'é' x").unwrap();
        assert_eq!(toks[1].offset, 5, "offsets count bytes");
        assert!(tokenize("'多字节").is_err());
        for (sql, ch) in [("a é", 'é'), ("🦀", '🦀'), ("x 多", '多')] {
            let Err(Error::Parse { message, .. }) = tokenize(sql) else {
                panic!("{sql} must not lex");
            };
            assert_eq!(message, format!("unexpected character `{ch}`"), "{sql}");
        }
    }
}
