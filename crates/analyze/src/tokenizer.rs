//! A lightweight Rust tokenizer — just enough lexical structure for the
//! lint pass: identifiers and punctuation with line/column spans,
//! comments and string/char literals correctly skipped (so `"HashMap"`
//! in a string or a commented-out `thread::spawn` never fires a lint),
//! and line comments preserved for `// analyze::allow(...)` directives.
//!
//! Deliberately *not* a full lexer: numeric literals are consumed but not
//! emitted, and no keyword table exists — the lints match identifier
//! sequences, which is robust against formatting but (by design) not
//! against `type M = HashMap<...>` aliasing games. This is a repo lint,
//! not an adversarial sandbox.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (byte offset within the line).
    pub col: u32,
}

/// The token payload: the lints only need identifiers and punctuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `spawn`, ...).
    Ident(String),
    /// A single punctuation byte (`<`, `>`, `:`, `.`, `#`, ...).
    Punct(char),
}

/// A line comment, kept for `analyze::allow` directive parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based column of the comment's `//`.
    pub col: u32,
    /// Comment text after the `//` (or `//!`, `///`) marker.
    pub text: String,
}

/// Tokenized source: the token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Tokenized {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenizes `source`. Never fails: unterminated constructs consume the
/// rest of the file (the compiler is the arbiter of validity; the linter
/// only has to stay in sync on code that *does* compile).
pub fn tokenize(source: &str) -> Tokenized {
    let b = source.as_bytes();
    let mut out = Tokenized::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advances past `n` bytes, tracking line/col.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < b.len() {
        let c = b[i];
        // Line comment (//, ///, //!).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start_line = line;
            let mut j = i + 2;
            while j < b.len() && b[j] != b'\n' {
                j += 1;
            }
            out.comments.push(Comment {
                line: start_line,
                col,
                text: source[i + 2..j].to_string(),
            });
            bump!(j - i);
            continue;
        }
        // Block comment, nested.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            bump!(j - i);
            continue;
        }
        // Raw string (r"...", r#"..."#) and raw byte string (br#"..."#).
        let raw_start = if c == b'r' && matches!(b.get(i + 1), Some(b'"') | Some(b'#')) {
            Some(i + 1)
        } else if c == b'b'
            && b.get(i + 1) == Some(&b'r')
            && matches!(b.get(i + 2), Some(b'"') | Some(b'#'))
        {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            let mut hashes = 0usize;
            while b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&b'"') {
                j += 1;
                // Scan for `"` followed by `hashes` hash marks.
                'raw: while j < b.len() {
                    if b[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while seen < hashes && b.get(k) == Some(&b'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                bump!(j - i);
                continue;
            }
            // `r` not starting a raw string (e.g. ident `r#foo`): fall
            // through to identifier handling.
        }
        // String / byte-string literal.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) {
            let mut j = i + if c == b'b' { 2 } else { 1 };
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            bump!(j - i);
            continue;
        }
        // Byte char literal (`b'x'`, `b'\''`): the prefix must be
        // consumed here or it would leak a stray `b` identifier.
        if c == b'b' && b.get(i + 1) == Some(&b'\'') {
            let mut j = i + 2;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'\'' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            bump!(j - i);
            continue;
        }
        // Char literal vs lifetime. `'a` (no closing quote nearby) is a
        // lifetime; `'x'` / `'\n'` are char literals.
        if c == b'\'' {
            let is_char = match b.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => b.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'\'' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                bump!(j - i);
            } else {
                // Lifetime: skip the quote; the name lexes as an ident.
                bump!(1);
            }
            continue;
        }
        // Identifier.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            let (tl, tc) = (line, col);
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident(source[start..j].to_string()),
                line: tl,
                col: tc,
            });
            bump!(j - i);
            continue;
        }
        // Numeric literal: consumed, not emitted. A trailing `.` is left
        // alone unless followed by a digit (so `0..n` keeps its dots and
        // `1.5` doesn't).
        if c.is_ascii_digit() {
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            if b.get(j) == Some(&b'.') && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
                j += 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            }
            bump!(j - i);
            continue;
        }
        // Whitespace.
        if c.is_ascii_whitespace() {
            bump!(1);
            continue;
        }
        // Everything else: single punctuation byte.
        out.tokens.push(Token {
            kind: TokenKind::Punct(c as char),
            line,
            col,
        });
        bump!(1);
    }
    out
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            TokenKind::Punct(_) => None,
        }
    }

    /// Whether this token is the given punctuation byte.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn skips_comments_and_strings() {
        let src = r##"
            // HashMap in a comment
            /* thread::spawn /* nested */ still a comment */
            let s = "HashMap::new()";
            let r = r#"Instant"#;
            let c = 'x';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let t = tokenize("let a = 1;\n// analyze::allow(x): y\nlet b = 2;");
        assert_eq!(t.comments.len(), 1);
        assert_eq!(t.comments[0].line, 2);
        assert_eq!(t.comments[0].text, " analyze::allow(x): y");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"a".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn spans_are_one_based() {
        let t = tokenize("ab cd\n  ef");
        assert_eq!((t.tokens[0].line, t.tokens[0].col), (1, 1));
        assert_eq!((t.tokens[1].line, t.tokens[1].col), (1, 4));
        assert_eq!((t.tokens[2].line, t.tokens[2].col), (2, 3));
    }

    #[test]
    fn multi_hash_raw_strings_are_skipped_whole() {
        // The inner `"#` must not terminate an `r##` string.
        let src = r####"let s = r##"HashMap "# Instant"##; fn tail() {}"####;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"tail".to_string()), "lexing resumes after");
    }

    #[test]
    fn byte_strings_and_byte_chars_are_skipped() {
        let src = "let s = b\"HashMap\"; let r = br#\"Instant\"#; let c = b'x'; fn tail() {}";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"x".to_string()), "byte-char body skipped");
        assert!(!ids.contains(&"b".to_string()), "no stray prefix ident");
        assert!(ids.contains(&"tail".to_string()));
    }

    #[test]
    fn escaped_quotes_in_char_literals_stay_inside_them() {
        // If `'\''` or `b'\''` mis-lexed, the quote would open a
        // phantom literal and swallow `tail`.
        let src = "let q = '\\''; let bq = b'\\''; let bs = '\\\\'; fn tail() {}";
        let t = tokenize(src);
        let ids: Vec<_> = t.tokens.iter().filter_map(Token::ident).collect();
        assert!(ids.contains(&"tail"), "lexing resumes after the literals");
        assert!(
            t.tokens.iter().all(|tk| !tk.is_punct('\'')),
            "no quote leaks into the token stream"
        );
    }

    #[test]
    fn char_literal_holding_a_double_quote_does_not_open_a_string() {
        let ids = idents("let q = '\"'; fn tail() { let s = \"Instant\"; }");
        assert!(ids.contains(&"tail".to_string()));
        assert!(
            !ids.contains(&"Instant".to_string()),
            "string still skipped"
        );
    }

    #[test]
    fn ranges_survive_number_scanning() {
        let t = tokenize("for i in 0..64 { a[i] = 1.5; }");
        let dots: usize = t.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "the `..` of the range is preserved");
    }
}
