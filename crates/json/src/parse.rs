//! The parser, its value tree and the checked accessors.

use std::fmt;

/// Deepest container nesting [`parse`] accepts. Every document this
/// workspace writes nests at most five deep; the limit bounds the parser's
/// recursion on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token that fits `u64`, exact.
    Int(u64),
    /// Any other number (negative, fractional, exponent, or above
    /// `u64::MAX`), as the nearest finite `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

/// Why a text did not parse, or why a parsed value is not what the reader
/// asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The text is not RFC 8259 JSON.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What the grammar wanted there.
        expected: &'static str,
    },
    /// Containers nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the container that crossed the limit.
        at: usize,
    },
    /// A number literal overflows `f64`.
    NumberOutOfRange {
        /// Byte offset of the literal.
        at: usize,
    },
    /// A required object member is absent (or the value is not an object).
    Missing {
        /// The member asked for.
        key: String,
    },
    /// A member has the wrong type, or does not fit the integer width
    /// asked for.
    Mismatch {
        /// The member asked for.
        key: String,
        /// What the reader wanted.
        expected: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { at, expected } => write!(f, "byte {at}: expected {expected}"),
            Error::TooDeep { at } => write!(f, "byte {at}: nesting deeper than {MAX_DEPTH}"),
            Error::NumberOutOfRange { at } => write!(f, "byte {at}: number out of range"),
            Error::Missing { key } => write!(f, "missing member {key:?}"),
            Error::Mismatch { key, expected } => write!(f, "member {key:?}: expected {expected}"),
        }
    }
}

impl std::error::Error for Error {}

/// A Rust type [`Value::req`] can read a member as, with checked
/// narrowing. `Option<T>` reads `null` as `None`.
pub trait FromValue<'a>: Sized {
    /// What the type wants, for [`Error::Mismatch`].
    const EXPECTED: &'static str;

    /// `Some` when `v` is exactly representable as `Self`.
    fn from_value(v: &'a Value) -> Option<Self>;
}

impl<'a> FromValue<'a> for &'a Value {
    const EXPECTED: &'static str = "a value";

    fn from_value(v: &'a Value) -> Option<Self> {
        Some(v)
    }
}

impl FromValue<'_> for bool {
    const EXPECTED: &'static str = "a boolean";

    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl FromValue<'_> for u64 {
    const EXPECTED: &'static str = "an integer in 0..=u64::MAX";

    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

impl FromValue<'_> for u32 {
    const EXPECTED: &'static str = "an integer in 0..=u32::MAX";

    fn from_value(v: &Value) -> Option<Self> {
        u64::from_value(v).and_then(|n| u32::try_from(n).ok())
    }
}

impl FromValue<'_> for f64 {
    const EXPECTED: &'static str = "a number";

    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

impl<'a> FromValue<'a> for &'a str {
    const EXPECTED: &'static str = "a string";

    fn from_value(v: &'a Value) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl<'a, T: FromValue<'a>> FromValue<'a> for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;

    fn from_value(v: &'a Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Value {
    /// The first member named `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The required member `key` as a `T`.
    ///
    /// # Errors
    ///
    /// [`Error::Missing`] when there is no such member, [`Error::Mismatch`]
    /// when it is not exactly a `T` (wrong type, or an integer that does
    /// not fit).
    pub fn req<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<T, Error> {
        let v = self.get(key).ok_or_else(|| Error::Missing { key: key.to_owned() })?;
        T::from_value(v)
            .ok_or_else(|| Error::Mismatch { key: key.to_owned(), expected: T::EXPECTED })
    }
}

/// Parses one JSON text.
///
/// # Errors
///
/// [`Error::Syntax`] for anything outside the RFC 8259 grammar (trailing
/// bytes, raw control characters in strings and lone surrogates included),
/// [`Error::TooDeep`] past [`MAX_DEPTH`], [`Error::NumberOutOfRange`] for a
/// literal that overflows `f64`.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos == text.len() {
        Ok(v)
    } else {
        Err(p.expected("end of input"))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expected(&self, expected: &'static str) -> Error {
        Error::Syntax { at: self.pos, expected }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` or fails with `expected`.
    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(expected))
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.expected(word))
        }
    }

    // Recursive: the depth is bounded by MAX_DEPTH = 128 container levels;
    // past it the parser returns Error::TooDeep.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(Error::TooDeep { at: self.pos }),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    self.eat(b',', "',' or ']'")?;
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "':'")?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    self.eat(b',', "',' or '}'")?;
                }
            }
            _ => Err(self.expected("a value")),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (\. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut integer = self.peek() != Some(b'-');
        if !integer {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.expected("a digit")),
        }
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.some_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.some_digits()?;
        }
        let token = &self.text[start..self.pos];
        if integer {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(Error::NumberOutOfRange { at: start }),
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn some_digits(&mut self) -> Result<(), Error> {
        let start = self.pos;
        self.digits();
        if self.pos == start {
            Err(self.expected("a digit"))
        } else {
            Ok(())
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte
            // verbatim. All three are ASCII, so the run ends on a
            // character boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.expected("no raw control character in a string")),
                None => return Err(self.expected("'\"' closing the string")),
            }
        }
    }

    /// The character an escape sequence stands for; `pos` is just past
    /// the backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.expected("an escape character")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `XXXX`, or `XXXX\uXXXX` for a surrogate pair; `pos` is just past
    /// the `u`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let at = self.pos - 2;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xDC00..0xE000).contains(&lo) {
                code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            }
        }
        // `from_u32` refuses exactly the surrogates left unpaired.
        char::from_u32(code)
            .ok_or(Error::Syntax { at, expected: "a surrogate pair, not a lone surrogate" })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4);
        let code = digits
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.expected("four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Writer;

    #[test]
    fn parses_the_whole_grammar_and_keeps_member_order() {
        let v =
            parse(" { \"b\" : [ 1 , -2.5e1 , true , false , null , \"s\" ] ,\r\n\t\"a\" : { } } ")
                .unwrap();
        assert_eq!(
            v,
            Value::Obj(vec![
                (
                    "b".into(),
                    Value::Arr(vec![
                        Value::Int(1),
                        Value::Num(-25.0),
                        Value::Bool(true),
                        Value::Bool(false),
                        Value::Null,
                        Value::Str("s".into()),
                    ])
                ),
                ("a".into(), Value::Obj(vec![])),
            ])
        );
        for scalar in ["0", "-0", "1.5", "\"\"", "null", "[]"] {
            assert!(parse(scalar).is_ok(), "{scalar}");
        }
    }

    #[test]
    fn rejects_what_the_grammar_rejects() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "01",
            "1.",
            ".5",
            "+1",
            "1e",
            "1e+",
            "-",
            "nul",
            "truex",
            "[1]x",
            "{} {}",
            "\"a",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\t\"",
            "\"\n\"",
            "'a'",
        ] {
            assert!(matches!(parse(bad), Err(Error::Syntax { .. })), "{bad:?}");
        }
    }

    #[test]
    fn strings_decode_escapes_and_stay_utf8() {
        assert_eq!(parse(r#""a\u0001b""#), Ok(Value::Str("a\u{1}b".into())));
        assert_eq!(parse("\"é 😀\""), Ok(Value::Str("é 😀".into())));
        assert_eq!(parse(r#""\ud83d\ude00 \u00e9 \" \\ \/ \b \f \n \r \t""#).unwrap(), {
            Value::Str("😀 é \" \\ / \u{8} \u{c} \n \r \t".into())
        });
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\u0041""#, r#""\ude00""#] {
            assert!(matches!(parse(lone), Err(Error::Syntax { .. })), "{lone}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep), Err(Error::TooDeep { at: MAX_DEPTH }));
        // The depth bomb that overflowed the old validator's stack.
        assert_eq!(parse(&"[".repeat(200_000)), Err(Error::TooDeep { at: MAX_DEPTH }));
        assert_eq!(parse(&"{\"a\":".repeat(200_000)), Err(Error::TooDeep { at: 5 * MAX_DEPTH }));
    }

    #[test]
    fn integers_stay_exact_and_overflow_is_an_error() {
        assert_eq!(parse("9007199254740993"), Ok(Value::Int((1 << 53) + 1)));
        assert_eq!(parse("18446744073709551615"), Ok(Value::Int(u64::MAX)));
        assert_eq!(parse("18446744073709551616"), Ok(Value::Num(18_446_744_073_709_551_616.0)));
        assert_eq!(parse("1000000000000000000000"), Ok(Value::Num(1e21)));
        assert_eq!(parse("-1"), Ok(Value::Num(-1.0)));
        assert_eq!(parse("1e999"), Err(Error::NumberOutOfRange { at: 0 }));
        assert_eq!(parse("[-1e999]"), Err(Error::NumberOutOfRange { at: 1 }));
        assert_eq!(parse("1e-999"), Ok(Value::Num(0.0)));
    }

    #[test]
    fn accessors_narrow_with_a_check() {
        let v = parse(r#"{"r":4294967295,"big":4294967296,"x":1.5,"n":null,"s":"t","b":true}"#)
            .unwrap();
        assert_eq!(v.req::<u32>("r"), Ok(u32::MAX));
        assert_eq!(v.req::<u64>("big"), Ok(1 << 32));
        assert!(matches!(v.req::<u32>("big"), Err(Error::Mismatch { .. })));
        assert!(matches!(v.req::<u64>("x"), Err(Error::Mismatch { .. })));
        assert_eq!(v.req::<f64>("r"), Ok(4_294_967_295.0));
        assert_eq!(v.req::<f64>("x"), Ok(1.5));
        assert!(matches!(v.req::<f64>("n"), Err(Error::Mismatch { .. })));
        assert_eq!(v.req::<Option<f64>>("n"), Ok(None));
        assert_eq!(v.req::<Option<u32>>("r"), Ok(Some(u32::MAX)));
        assert!(matches!(v.req::<Option<u32>>("big"), Err(Error::Mismatch { .. })));
        assert_eq!(v.req::<&str>("s"), Ok("t"));
        assert_eq!(v.req::<bool>("b"), Ok(true));
        assert_eq!(v.req::<bool>("nope"), Err(Error::Missing { key: "nope".into() }));
        assert!(matches!(Value::Null.req::<bool>("b"), Err(Error::Missing { .. })));
        assert_eq!(v.req::<&Value>("n"), Ok(&Value::Null));
    }

    #[test]
    fn what_the_writer_writes_the_parser_reads() {
        let text = "q\" b\\ n\n r\r t\t u\u{1}\u{1f} \u{7f} é \u{2028} 😀 /";
        let mut out = String::new();
        let mut w = Writer::document(&mut out, "unit/1");
        w.field(text, text).field("max", u64::MAX).field("third", 1.0 / 3.0);
        w.field("inf", f64::INFINITY).key("list").inline().begin_array().value(5e-324).end_array();
        w.end_document();
        let v = parse(&out).unwrap();
        assert_eq!(v.req::<&str>("schema"), Ok("unit/1"));
        assert_eq!(v.req::<&str>(text), Ok(text));
        assert_eq!(v.req::<u64>("max"), Ok(u64::MAX));
        assert_eq!(v.req::<f64>("third").unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(v.req::<Option<f64>>("inf"), Ok(None));
        assert_eq!(v.get("list"), Some(&Value::Arr(vec![Value::Num(5e-324)])));
    }
}
