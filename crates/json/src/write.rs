//! The push-style writer.

use std::fmt::Write as _;

/// A value [`Writer::value`] can write in one token: integers, `f64`,
/// `bool`, strings, and `Option`s of those (`None` is `null`).
pub trait Scalar {
    /// Appends the value's JSON token to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! integer_scalar {
    ($($ty:ty),*) => {$(
        impl Scalar for $ty {
            fn write_json(&self, out: &mut String) {
                // Decimal digits, last first, into the tail of a buffer
                // u64::MAX fits: several times cheaper than `Display`,
                // and a trace line is mostly integers.
                let mut n = *self as u64;
                let mut digits = [b'0'; 20];
                let mut start = digits.len();
                for slot in digits.iter_mut().rev() {
                    *slot = b'0' + (n % 10) as u8;
                    n /= 10;
                    start -= 1;
                    if n == 0 {
                        break;
                    }
                }
                out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
            }
        }
    )*};
}

integer_scalar!(u8, u16, u32, u64, usize);

impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        // Bytes of `self` already written. Every byte escaped is ASCII, so
        // the runs between them are whole characters.
        let mut done = 0;
        for (i, b) in self.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.push_str(&self[done..i]);
            done = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
        }
        out.push_str(&self[done..]);
        out.push('"');
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Appends JSON to a caller-owned buffer, one token at a time, in the
/// order the caller pushes it. The constructor picks the layout.
///
/// The writer tracks commas, indentation and nothing else: the caller
/// balances `begin_*`/`end_*` and alternates keys and values inside
/// objects.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    /// Document layout: each member on its own line, indented two spaces
    /// per open container.
    indented: bool,
    /// Open containers.
    depth: usize,
    /// The depth at which [`inline`](Writer::inline) was asked for: while
    /// set, containers opened at or below it are written compactly.
    inline_from: Option<usize>,
    /// Nothing has been written into the innermost open container yet.
    first: bool,
    /// A key was written and its value is pending.
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// The compact layout: no whitespace anywhere. One JSONL line, or a
    /// member nested inside one.
    pub fn compact(out: &'a mut String) -> Self {
        Writer { out, indented: false, depth: 0, inline_from: None, first: true, after_key: false }
    }

    /// The document layout: opens the top-level object and writes its
    /// `"schema"` member; every further member sits on its own indented
    /// line as `"key": value`. Close with
    /// [`end_document`](Writer::end_document).
    pub fn document(out: &'a mut String, schema: &str) -> Self {
        let mut w = Writer { indented: true, ..Writer::compact(out) };
        w.begin_object().field("schema", schema);
        w
    }

    /// Closes the object [`document`](Writer::document) opened and ends
    /// the file with a newline.
    pub fn end_document(mut self) {
        self.end_object();
        self.out.push('\n');
    }

    /// Writes the next value — a scalar or a whole container — compactly
    /// on the current line of a document. No effect in the compact layout.
    pub fn inline(&mut self) -> &mut Self {
        self.inline_from.get_or_insert(self.depth);
        self
    }

    /// Whether a token at `depth` gets the document layout's whitespace.
    fn spaced(&self, depth: usize) -> bool {
        self.indented && self.inline_from.is_none_or(|from| depth <= from)
    }

    fn new_line(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Comma and line break before a key or an array element.
    fn separate(&mut self) {
        if self.depth > 0 {
            if !self.first {
                self.out.push(',');
            }
            if self.spaced(self.depth) {
                self.new_line(self.depth);
            }
        }
        self.first = false;
    }

    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else {
            self.separate();
        }
    }

    fn after_value(&mut self) {
        if self.inline_from == Some(self.depth) {
            self.inline_from = None;
        }
    }

    fn begin(&mut self, open: char) -> &mut Self {
        self.before_value();
        self.out.push(open);
        self.depth += 1;
        self.first = true;
        self
    }

    fn end(&mut self, close: char) -> &mut Self {
        let inner = self.depth;
        self.depth -= 1;
        if !self.first && self.spaced(inner) {
            self.new_line(self.depth);
        }
        self.first = false;
        self.out.push(close);
        self.after_value();
        self
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.begin('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.end('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.begin('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.end(']')
    }

    /// Writes a member key; the next value or `begin_*` is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        key.write_json(self.out);
        self.out.push(':');
        if self.spaced(self.depth) {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// Writes one scalar as an array element or as the pending key's value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.before_value();
        v.write_json(self.out);
        self.after_value();
        self
    }

    /// `key(k).value(v)`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(f: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut out = String::new();
        f(&mut Writer::compact(&mut out));
        out
    }

    #[test]
    fn compact_layout_has_no_whitespace_and_keeps_key_order() {
        let s = compact(|w| {
            w.begin_object().field("z", 1u32).field("a", true).key("n").begin_array();
            w.value(1.5).value(None::<u64>).begin_object().end_object().end_array();
            w.key("o").begin_object().field("k", "v").end_object().end_object();
        });
        assert_eq!(s, r#"{"z":1,"a":true,"n":[1.5,null,{}],"o":{"k":"v"}}"#);
    }

    #[test]
    fn one_escape_rule() {
        let s = compact(|w| {
            w.value("q\" b\\ n\n r\r t\t u\u{1}\u{1f} é 😀 /");
        });
        assert_eq!(s, "\"q\\\" b\\\\ n\\n r\\r t\\t u\\u0001\\u001f é 😀 /\"");
        let key = compact(|w| {
            w.begin_object().field("k\n", 0u8).end_object();
        });
        assert_eq!(key, "{\"k\\n\":0}");
    }

    #[test]
    fn one_number_rule() {
        let s = compact(|w| {
            w.begin_array().value(u64::MAX).value(0u8).value(1e21).value(0.1 + 0.2);
            w.value(5e-324).value(f64::NAN).value(f64::NEG_INFINITY).value(Some(2.0)).end_array();
        });
        let tiny = format!("{}", 5e-324);
        assert_eq!(
            s,
            format!(
                "[18446744073709551615,0,1000000000000000000000,0.30000000000000004,\
                 {tiny},null,null,2]"
            )
        );
    }

    #[test]
    fn document_layout_indents_and_inlines_on_request() {
        let mut out = String::new();
        let mut w = Writer::document(&mut out, "unit/1");
        w.key("empty").begin_array().end_array();
        w.key("table").begin_object();
        w.key("row").inline().begin_object().field("a", 1u32).key("b").begin_array();
        w.value(2u32).value(3u32).end_array().end_object();
        w.field("after", 4u32).end_object();
        w.key("list").begin_array();
        w.inline().begin_object().field("i", 0u32).end_object();
        w.inline().value(7u32).value(8u32).end_array();
        w.key("pair").inline().begin_array().value(1u32).value(2u32).end_array();
        w.end_document();
        assert_eq!(
            out,
            "{\n  \"schema\": \"unit/1\",\n  \"empty\": [],\n  \"table\": {\n    \
             \"row\": {\"a\":1,\"b\":[2,3]},\n    \"after\": 4\n  },\n  \"list\": [\n    \
             {\"i\":0},\n    7,\n    8\n  ],\n  \"pair\": [1,2]\n}\n"
        );
    }
}
