//! # redcr-json — the workspace's one JSON codec
//!
//! Everything the reproduction hands a reader leaves the tree as JSON: the
//! flight-recorder JSONL, the Perfetto export, the sweep cache and grid
//! document, the profiler and model-validation sidecars.
//! All of it is written by [`Writer`] and read back by [`parse`], so the
//! escape rule, the number rule and the grammar are each stated once.
//!
//! * **Writing** is push-style and keeps the caller's key order. Strings
//!   escape `"` `\` `\n` `\r` `\t`, write any other byte below `0x20` as
//!   `\u00XX` and everything else as verbatim UTF-8. Integers are exact;
//!   a finite `f64` is Rust's shortest round-trip `Display`; a non-finite
//!   one is `null`. Two layouts: [`Writer::compact`] (no whitespace — JSONL
//!   lines and nested members) and [`Writer::document`] (indented,
//!   `"key": value`, opening with the document's `"schema"` member).
//! * **Reading** covers the full RFC 8259 grammar, keeps member order,
//!   rejects trailing bytes, decodes `\uXXXX` including surrogate pairs,
//!   refuses nesting deeper than [`MAX_DEPTH`] and keeps integer tokens
//!   that fit `u64` exact. [`Value::req`] narrows with a check: a `u32`
//!   member above `u32::MAX` is an [`Error`], never an `as` cast, and a
//!   float literal that overflows is an error, never `inf`.
//!
//! ```
//! use redcr_json::{parse, Writer};
//!
//! let mut line = String::new();
//! let mut w = Writer::compact(&mut line);
//! w.begin_object().field("rank", 3u32).field("t", f64::INFINITY).field("ev", "a\"b");
//! w.end_object();
//! assert_eq!(line, r#"{"rank":3,"t":null,"ev":"a\"b"}"#);
//!
//! let v = parse(&line).unwrap();
//! assert_eq!(v.req::<u32>("rank"), Ok(3));
//! assert_eq!(v.req::<Option<f64>>("t"), Ok(None));
//! assert_eq!(v.req::<&str>("ev"), Ok("a\"b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parse;
mod write;

pub use parse::{parse, Error, FromValue, Value, MAX_DEPTH};
pub use write::{Scalar, Writer};
