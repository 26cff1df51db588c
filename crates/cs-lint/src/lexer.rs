//! A hand-rolled Rust lexer, sufficient for token-stream linting.
//!
//! This is not a full grammar: it produces a flat token stream with
//! source positions, which is all the rule engine (DESIGN.md §14) needs.
//! What it **must** get exactly right is the boundary between code and
//! non-code, because every lint rule keys off identifier tokens and a
//! violation spelled inside a string or comment must never fire:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`, `/** .. */`),
//! * string literals with escapes, multi-line strings, byte strings,
//!   and raw (byte) strings with arbitrary hash fences (`r#"…"#`),
//! * char literals vs. lifetimes (`'a'` vs `'a`), including `'\''` and
//!   non-ASCII chars,
//! * raw identifiers (`r#fn`).
//!
//! Numbers and multi-character operators are tokenized with maximal
//! munch so `+=` and `::` arrive as single tokens the rules can match.

/// Lexical class of a [`Token`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword, including raw identifiers.
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`) — *not* a char literal.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    CharLit,
    /// String literal of any flavor (plain, byte, raw, raw byte).
    StrLit,
    /// Numeric literal, suffix included (`1_000u64`, `0.5`, `0xFF`).
    NumLit,
    /// Operator or delimiter; multi-char operators are one token.
    Punct,
    /// `//`-style comment, doc comments included. Text keeps the `//`.
    LineComment,
    /// `/* */`-style comment, nesting and doc forms included.
    BlockComment,
}

/// One lexeme with its position. `start..end` indexes the source text.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
    /// 1-based source line of the token's first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the token's first byte.
    pub col: u32,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// Multi-character operators, longest first so maximal munch is a plain
/// prefix scan.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tracks byte position plus 1-based line/column while scanning.
struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.src.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// Advances one byte, maintaining line/col.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes ident-continue bytes.
    fn eat_ident(&mut self) {
        while !self.at_end() && is_ident_continue(self.peek(0)) {
            self.bump();
        }
    }

    /// Consumes a quote-delimited literal with `\`-escapes; the opening
    /// quote is already consumed. Stops after the closing quote (or at
    /// end of input on unterminated literals).
    fn eat_escaped_until(&mut self, quote: u8) {
        while !self.at_end() {
            let b = self.peek(0);
            if b == b'\\' {
                self.bump();
                if !self.at_end() {
                    self.bump();
                }
            } else if b == quote {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    /// Consumes a raw string body: the cursor sits just after `r##...#"`;
    /// stops after `"` followed by `hashes` `#` bytes.
    fn eat_raw_until(&mut self, hashes: usize) {
        while !self.at_end() {
            if self.peek(0) == b'"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek(1 + i) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }
}

/// Returns `Some(hashes)` when the bytes at `c.pos + offset` begin a raw
/// string fence `#*"` (zero or more hashes then a quote).
fn raw_fence_at(c: &Cursor<'_>, offset: usize) -> Option<usize> {
    let mut hashes = 0;
    while c.peek(offset + hashes) == b'#' {
        hashes += 1;
    }
    (c.peek(offset + hashes) == b'"').then_some(hashes)
}

/// Lexes `src` and drops comment tokens: the stream the item parser
/// and rule matchers run on. (The engine still lexes
/// with comments once per file — it needs them for annotations — and
/// partitions; this helper serves tests and single-purpose callers.)
pub fn code_tokens(src: &str) -> Vec<Token> {
    lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// Lexes `src` into a flat token stream, comments included.
///
/// Never panics on malformed input: unterminated literals and comments
/// extend to end of input, and unknown bytes become 1-byte punct tokens.
pub fn lex(src: &str) -> Vec<Token> {
    let mut c = Cursor::new(src);
    let mut out = Vec::with_capacity(src.len() / 6);

    while !c.at_end() {
        let b = c.peek(0);
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }

        let (start, line, col) = (c.pos, c.line, c.col);
        let kind = match b {
            b'/' if c.peek(1) == b'/' => {
                while !c.at_end() && c.peek(0) != b'\n' {
                    c.bump();
                }
                TokenKind::LineComment
            }
            b'/' if c.peek(1) == b'*' => {
                c.bump_n(2);
                let mut depth = 1usize;
                while !c.at_end() && depth > 0 {
                    if c.peek(0) == b'/' && c.peek(1) == b'*' {
                        depth += 1;
                        c.bump_n(2);
                    } else if c.peek(0) == b'*' && c.peek(1) == b'/' {
                        depth -= 1;
                        c.bump_n(2);
                    } else {
                        c.bump();
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                c.bump();
                c.eat_escaped_until(b'"');
                TokenKind::StrLit
            }
            b'r' if raw_fence_at(&c, 1).is_some() => {
                // r"..." or r#"..."# raw string. (A raw *identifier*
                // `r#ident` has no quote after the hashes and falls
                // through to the ident arm below.)
                let hashes = raw_fence_at(&c, 1).expect("checked by guard");
                c.bump_n(1 + hashes + 1);
                c.eat_raw_until(hashes);
                TokenKind::StrLit
            }
            b'b' if c.peek(1) == b'"' => {
                c.bump_n(2);
                c.eat_escaped_until(b'"');
                TokenKind::StrLit
            }
            b'b' if c.peek(1) == b'\'' => {
                c.bump_n(2);
                c.eat_escaped_until(b'\'');
                TokenKind::CharLit
            }
            b'b' if c.peek(1) == b'r' && raw_fence_at(&c, 2).is_some() => {
                let hashes = raw_fence_at(&c, 2).expect("checked by guard");
                c.bump_n(2 + hashes + 1);
                c.eat_raw_until(hashes);
                TokenKind::StrLit
            }
            b'\'' => {
                // Char literal or lifetime. After the opening quote:
                //   * `\`  — definitely a char literal (`'\n'`, `'\''`);
                //   * ident-start — consume the ident run; a closing `'`
                //     right after means char (`'a'`), none means
                //     lifetime (`'a`, `'static`, `'_`);
                //   * anything else (digit, punct, non-ASCII byte) — a
                //     char literal like `'é'` or `'('`.
                c.bump();
                if c.peek(0) == b'\\' {
                    c.eat_escaped_until(b'\'');
                    TokenKind::CharLit
                } else if is_ident_start(c.peek(0)) {
                    c.eat_ident();
                    if c.peek(0) == b'\'' {
                        c.bump();
                        TokenKind::CharLit
                    } else {
                        TokenKind::Lifetime
                    }
                } else {
                    c.eat_escaped_until(b'\'');
                    TokenKind::CharLit
                }
            }
            b'r' if c.peek(1) == b'#' && is_ident_start(c.peek(2)) => {
                // Raw identifier `r#fn`.
                c.bump_n(2);
                c.eat_ident();
                TokenKind::Ident
            }
            _ if is_ident_start(b) => {
                c.eat_ident();
                TokenKind::Ident
            }
            _ if b.is_ascii_digit() => {
                lex_number(&mut c);
                TokenKind::NumLit
            }
            _ => {
                let rest = &src[c.pos..];
                let munch = PUNCTS.iter().find(|p| rest.starts_with(**p));
                match munch {
                    Some(p) => c.bump_n(p.len()),
                    None => c.bump(),
                }
                TokenKind::Punct
            }
        };
        out.push(Token {
            kind,
            start,
            end: c.pos,
            line,
            col,
        });
    }
    out
}

/// Consumes a numeric literal: int/float, radix prefixes, `_`
/// separators, exponents with signs, and type suffixes. The fraction
/// dot is taken only when a digit follows, so `1..2` and `x.0` lex as
/// expected.
fn lex_number(c: &mut Cursor<'_>) {
    // Integer part (also swallows hex digits, `e`, and suffixes since
    // they are ident-continue bytes).
    c.eat_ident();
    // Fraction: `.` only counts when followed by a digit, otherwise it
    // is a range operator or a method dot.
    if c.peek(0) == b'.' && c.peek(1).is_ascii_digit() {
        c.bump();
        c.eat_ident();
    }
    // Signed exponent (`1e+5`, `2.5E-3`): the `e` was already consumed
    // by an ident run above; take the sign and digits it left behind.
    if (c.peek(0) == b'+' || c.peek(0) == b'-')
        && matches!(c.src.get(c.pos.wrapping_sub(1)), Some(b'e') | Some(b'E'))
        && c.peek(1).is_ascii_digit()
    {
        c.bump();
        c.eat_ident();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds_and_text(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let src = r####"let s = r#"Instant::now()"#; let t = r"HashMap";"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "t"]);
        let strs: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .map(|t| t.text(src).to_string())
            .collect();
        assert_eq!(strs, vec![r####"r#"Instant::now()"#"####, r#"r"HashMap""#]);
    }

    #[test]
    fn raw_string_multi_hash_fence() {
        let src = "r##\"a \"# b\"## thread";
        let toks = kinds_and_text(src);
        assert_eq!(toks[0], (TokenKind::StrLit, "r##\"a \"# b\"##".to_string()));
        assert_eq!(toks[1], (TokenKind::Ident, "thread".to_string()));
    }

    #[test]
    fn raw_identifier_is_an_ident() {
        assert_eq!(idents("r#fn + r#type"), vec!["r#fn", "r#type"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = r###"b"ab\"c" br#"un"wrap"# b'x' b'\''"###;
        let toks = kinds_and_text(src);
        assert_eq!(
            toks,
            vec![
                (TokenKind::StrLit, r#"b"ab\"c""#.to_string()),
                (TokenKind::StrLit, r###"br#"un"wrap"#"###.to_string()),
                (TokenKind::CharLit, "b'x'".to_string()),
                (TokenKind::CharLit, r"b'\''".to_string()),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* x /* HashMap */ y */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// `HashMap` example\n//! inner\n/** block doc */\nfn f() {}";
        assert_eq!(idents(src), vec!["fn", "f"]);
        let comments = lex(src)
            .iter()
            .filter(|t| t.kind != TokenKind::Ident)
            .count();
        assert!(comments >= 3);
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a u8) -> char { 'a' }";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(chars, vec!["'a'"]);
    }

    #[test]
    fn tricky_char_literals_do_not_desync() {
        // If `'\''` or `'"'` were mis-lexed, the following quote would
        // open a phantom string and swallow the `spawn` ident.
        for src in [
            "let c = '\\''; thread",
            "let c = '\"'; thread",
            "let c = '_'; thread",
        ] {
            assert!(
                idents(src).contains(&"thread".to_string()),
                "desync on {src:?}"
            );
        }
        assert_eq!(idents("let c = 'é'; ok"), vec!["let", "c", "ok"]);
        // `'_` alone is a lifetime.
        let src = "&'_ u8";
        assert_eq!(lex(src)[1].kind, TokenKind::Lifetime);
    }

    #[test]
    fn strings_with_escapes_and_newlines() {
        let src = "let s = \"a\\\"b\nc\"; spawn";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "spawn"]);
        // Line numbers continue correctly after the embedded newline.
        let spawn = lex(src)
            .into_iter()
            .find(|t| t.text(src) == "spawn")
            .expect("spawn token");
        assert_eq!(spawn.line, 2);
    }

    #[test]
    fn numbers_with_dots_suffixes_exponents() {
        for src in ["1.0f64", "0xFF_u8", "1_000", "1e-5", "2.5E+3", "7usize"] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src} should be one token, got {toks:?}");
            assert_eq!(toks[0].kind, TokenKind::NumLit);
        }
        // Range and tuple-field dots stay separate.
        let toks = kinds_and_text("1..2");
        assert_eq!(
            toks,
            vec![
                (TokenKind::NumLit, "1".to_string()),
                (TokenKind::Punct, "..".to_string()),
                (TokenKind::NumLit, "2".to_string()),
            ]
        );
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        let texts: Vec<_> = kinds_and_text("a += b; c::d; e -> f")
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert!(texts.contains(&"+=".to_string()));
        assert!(texts.contains(&"::".to_string()));
        assert!(texts.contains(&"->".to_string()));
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* abc", "r#\"abc", "'a", "b'"] {
            let _ = lex(src);
        }
    }
}
