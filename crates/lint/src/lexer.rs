//! A hand-rolled Rust lexer: just enough tokenization for detlint's rules.
//!
//! The lexer understands line comments, *nested* block comments, string
//! literals (with escapes), raw strings (`r"…"`, `r#"…"#`, any hash
//! count), byte strings, char literals, and lifetimes — so rule text that
//! appears inside a literal or a comment can never trigger a rule.
//! Everything else is reduced to identifiers, literals, and single-char
//! punctuation; that is all the rule matchers need.
//!
//! Suppression comments (`// detlint::allow(R8, reason = "…")`) are
//! recognized here, because only the lexer knows what is a comment.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `use`, `HashMap`, …).
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
    /// Any literal (string, raw string, char, byte, number). The source
    /// text is kept for *numeric* literals only (the stack-budget pass R9
    /// reads array lengths); string/char/byte contents are discarded as
    /// an empty payload — literal text can never trigger a rule.
    Lit(String),
}

/// A token with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// A `// detlint::allow(<rule>, reason = "…")` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment appears on. The suppression applies to findings on
    /// this line (trailing style) and on the next line (preceding style).
    pub line: u32,
    /// Rule id, e.g. `R8`.
    pub rule: String,
    /// The mandatory written justification. A suppression without a reason
    /// is malformed and suppresses nothing.
    pub reason: Option<String>,
}

/// Output of [`lex`]: the token stream plus any suppression comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression comments in source order.
    pub suppressions: Vec<Suppression>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and suppressions. Never panics on malformed
/// input: unterminated literals simply run to end of file.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Lexed::default();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                if let Some(s) = parse_suppression(&text, line) {
                    out.suppressions.push(s);
                }
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comment.
                let mut depth = 1u32;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let lit_line = line;
                i = lex_string(&chars, i, &mut line);
                out.tokens.push(Token { tok: Tok::Lit(String::new()), line: lit_line });
            }
            'r' | 'b' => {
                let lit_line = line;
                if let Some(ni) = try_lex_prefixed_literal(&chars, i, &mut line) {
                    out.tokens.push(Token { tok: Tok::Lit(String::new()), line: lit_line });
                    i = ni;
                } else {
                    i = lex_ident(&chars, i, line, &mut out.tokens);
                }
            }
            '\'' => {
                // Lifetime or char literal.
                if i + 1 < n && is_ident_start(chars[i + 1]) && chars[i + 1] != '\\' {
                    // `'a` could still be the char literal `'a'`: peek past
                    // the identifier for a closing quote.
                    let mut j = i + 1;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' && j == i + 2 {
                        // Exactly one ident char then a quote: char literal.
                        out.tokens.push(Token { tok: Tok::Lit(String::new()), line });
                        i = j + 1;
                    } else {
                        // Lifetime: consume, emit nothing.
                        i = j;
                    }
                } else {
                    // Escaped or symbolic char literal: `'\n'`, `'\u{1F600}'`,
                    // `'('`, …
                    let lit_line = line;
                    let mut j = i + 1;
                    if j < n && chars[j] == '\\' {
                        j += 2; // skip backslash + escape head
                        while j < n && chars[j] != '\'' {
                            if chars[j] == '\n' {
                                line += 1;
                            }
                            j += 1;
                        }
                    } else if j < n {
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' {
                        j += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lit(String::new()), line: lit_line });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let lit_line = line;
                let mut j = i + 1;
                while j < n
                    && (is_ident_continue(chars[j])
                        || (chars[j] == '.' && j + 1 < n && chars[j + 1].is_ascii_digit()))
                {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                out.tokens.push(Token { tok: Tok::Lit(text), line: lit_line });
                i = j;
            }
            c if is_ident_start(c) => {
                i = lex_ident(&chars, i, line, &mut out.tokens);
            }
            other => {
                out.tokens.push(Token { tok: Tok::Punct(other), line });
                i += 1;
            }
        }
    }
    out
}

fn lex_ident(chars: &[char], start: usize, line: u32, tokens: &mut Vec<Token>) -> usize {
    let mut j = start + 1;
    while j < chars.len() && is_ident_continue(chars[j]) {
        j += 1;
    }
    let name: String = chars[start..j].iter().collect();
    tokens.push(Token { tok: Tok::Ident(name), line });
    j
}

/// Lexes a normal (escaped) string starting at the opening quote; returns
/// the index just past the closing quote.
fn lex_string(chars: &[char], start: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut i = start + 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2, // escape (incl. `\"`); `\<newline>` continuation
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Handles `b"…"`, `b'…'`, `r"…"`, `r#"…"#`, `br#"…"#` (any hash count).
/// Returns the index past the literal, or `None` if `start` is actually an
/// identifier beginning with `r`/`b` (including raw identifiers `r#foo`).
fn try_lex_prefixed_literal(chars: &[char], start: usize, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    let mut i = start;
    if chars[i] == 'b' {
        i += 1;
        if i < n && chars[i] == '\'' {
            // Byte char `b'x'` / `b'\n'`.
            let mut j = i + 1;
            if j < n && chars[j] == '\\' {
                j += 2;
                while j < n && chars[j] != '\'' {
                    j += 1;
                }
            } else if j < n {
                j += 1;
            }
            if j < n && chars[j] == '\'' {
                j += 1;
            }
            return Some(j);
        }
        if i < n && chars[i] == '"' {
            return Some(lex_string(chars, i, line));
        }
    }
    if chars[start] == 'r' {
        i = start + 1;
    } else if chars[start] == 'b' && start + 1 < n && chars[start + 1] == 'r' {
        i = start + 2;
    } else {
        return None;
    }
    // Count hashes then require a quote for a raw string.
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || chars[i] != '"' {
        return None; // raw identifier like `r#fn`, or plain ident `rank`
    }
    // Raw string body: ends at `"` followed by `hashes` hashes.
    i += 1;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < n && chars[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return Some(i + 1 + hashes);
            }
        }
        i += 1;
    }
    Some(i)
}

/// Parses `detlint::allow(<rule>[, reason = "…"])` out of a comment body.
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    const NEEDLE: &str = "detlint::allow(";
    let idx = comment.find(NEEDLE)?;
    let after = &comment[idx + NEEDLE.len()..];
    let rule_end = after.find([',', ')'])?;
    let rule = after[..rule_end].trim().to_string();
    if rule.is_empty() {
        return None;
    }
    let mut reason = None;
    let tail = &after[rule_end..];
    if let Some(rest) = tail.strip_prefix(',') {
        let rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("reason") {
            let r = r.trim_start();
            if let Some(r) = r.strip_prefix('=') {
                let r = r.trim_start();
                if let Some(r) = r.strip_prefix('"') {
                    if let Some(end) = r.find('"') {
                        let text = &r[..end];
                        if !text.trim().is_empty() {
                            reason = Some(text.to_string());
                        }
                    }
                }
            }
        }
    }
    Some(Suppression { line, rule, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_contents() {
        let src = r##"
            // Instant::now() in a line comment
            /* HashMap /* nested Instant */ iteration */
            let a = "Instant::now()";
            let b = r#"std::time::Instant"#;
            let c = 'I';
            let d = b"Instant";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()), "got {ids:?}");
        assert!(!ids.contains(&"HashMap".to_string()));
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c", "let", "d"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(ids, vec!["fn", "f", "x", "str", "str", "x"]);
    }

    #[test]
    fn line_numbers_track_multiline_literals() {
        let src = "let s = \"line\none\";\nInstant";
        let lexed = lex(src);
        let last = lexed.tokens.last().unwrap();
        assert_eq!(last.tok, Tok::Ident("Instant".into()));
        assert_eq!(last.line, 3);
    }

    #[test]
    fn suppression_parsed_with_reason() {
        let lexed =
            lex("// detlint::allow(R8, reason = \"order-independent: min over unique seq\")\nx");
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.rule, "R8");
        assert_eq!(s.reason.as_deref(), Some("order-independent: min over unique seq"));
    }

    #[test]
    fn suppression_without_reason_is_flagged_malformed() {
        let lexed = lex("// detlint::allow(R7)\n");
        assert_eq!(lexed.suppressions.len(), 1);
        assert!(lexed.suppressions[0].reason.is_none());
    }

    #[test]
    fn suppression_inside_string_is_ignored() {
        let lexed = lex("let s = \"// detlint::allow(R8, reason = \\\"nope\\\")\";");
        assert!(lexed.suppressions.is_empty());
    }

    #[test]
    fn raw_hash_identifier_is_not_a_raw_string() {
        let ids = idents("let r#fn = rank; br2");
        assert!(ids.contains(&"rank".to_string()));
        assert!(ids.contains(&"br2".to_string()));
    }
}
