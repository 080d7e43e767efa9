#![forbid(unsafe_code)]
//! # ferex-json — the one JSON writer behind every report
//!
//! Every versioned artifact of the workspace (the conformance, recovery,
//! chaos, load v1/v2 and mutation reports, the kernel bench grid and the
//! lint report) is serialized here, so string escaping, number formatting,
//! comma placement and indentation exist exactly once. CI pins those
//! reports byte for byte, which makes the layout part of the contract:
//!
//! * a **pretty** [`Object`] writes one `"key": value` per line, indented
//!   2 spaces per nesting level;
//! * an **inline** [`Object`] writes `{"a": 1, "b": 2}` on one line;
//! * [`Value::lines`] is an array with one element per line, and
//!   [`Value::inline`] (or any `Vec`) an array on one line, `[1, 2, 3]`.
//!
//! Report keys are the struct field names, so emitters list them with
//! [`fields!`] rather than spelling each key twice. Zero dependencies: no
//! serializer crate is available offline.

use std::fmt::Write as _;

/// One rendered JSON value. Multi-line values are rendered at indent 0;
/// nesting one re-indents it, which is safe because escaped strings never
/// contain a raw newline.
#[derive(Debug, Clone, PartialEq)]
pub struct Value(String);

impl Value {
    /// JSON `null`.
    pub fn null() -> Value {
        Value("null".to_string())
    }

    /// A finite number with a fixed count of decimals (`12.3`).
    ///
    /// # Panics
    ///
    /// On a non-finite `x`, which has no JSON spelling.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        assert!(x.is_finite(), "report numbers must be finite, got {x}");
        Value(format!("{x:.decimals$}"))
    }

    /// An array with one element per line.
    pub fn lines<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        let items: Vec<String> = items.into_iter().map(|v| v.into().0).collect();
        seq('[', &items, false, ']')
    }

    /// An array on one line, `[a, b, c]`.
    pub fn inline<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        let items: Vec<String> = items.into_iter().map(|v| v.into().0).collect();
        seq('[', &items, true, ']')
    }
}

/// Delimits rendered items: `{a, b}` inline, otherwise one item per line,
/// each indented 2 deeper than the delimiters.
fn seq(open: char, items: &[String], inline: bool, close: char) -> Value {
    if inline {
        return Value(format!("{open}{}{close}", items.join(", ")));
    }
    let body: Vec<String> =
        items.iter().map(|i| format!("\n  {}", i.replace('\n', "\n  "))).collect();
    Value(format!("{open}{}\n{close}", body.join(",")))
}

/// A JSON object whose keys keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    fields: Vec<String>,
    inline: bool,
}

impl Object {
    /// An object with one `"key": value` per line.
    pub fn pretty() -> Object {
        Object { fields: Vec::new(), inline: false }
    }

    /// An object on one line, `{"a": 1, "b": 2}`.
    pub fn inline() -> Object {
        Object { fields: Vec::new(), inline: true }
    }

    /// Appends `"key": value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Object {
        self.fields.push(format!("\"{}\": {}", escape(key), value.into().0));
        self
    }

    /// Renders the object as a whole document, newline-terminated.
    pub fn to_json(&self) -> String {
        seq('{', &self.fields, self.inline, '}').0 + "\n"
    }
}

/// Escapes a string for a JSON literal: `"` and `\`, `\n` and `\t` as
/// short escapes, every other character below U+0020 as `\u00XX`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

impl From<Object> for Value {
    fn from(o: Object) -> Value {
        seq('{', &o.fields, o.inline, '}')
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value(format!("\"{}\"", escape(s)))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        s.as_str().into()
    }
}

/// The shortest round-trip decimal (`Display` for `f64`).
///
/// # Panics
///
/// On a non-finite `x`, which has no JSON spelling.
impl From<f64> for Value {
    fn from(x: f64) -> Value {
        assert!(x.is_finite(), "report numbers must be finite, got {x}");
        Value(x.to_string())
    }
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value(x.to_string())
            }
        }
    )*};
}
display_scalars!(bool, u32, u64, usize);

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(x: Option<T>) -> Value {
        x.map_or_else(Value::null, Into::into)
    }
}

/// A `Vec` is an inline array.
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(xs: Vec<T>) -> Value {
        Value::inline(xs)
    }
}

/// A reference renders like the value it points to.
impl<T: Clone + Into<Value>> From<&T> for Value {
    fn from(x: &T) -> Value {
        x.clone().into()
    }
}

/// Appends one field per listed struct field, keyed by the field's own
/// name: `fields!(Object::pretty(); c => metric, rows; p => rate)` is
/// `Object::pretty().field("metric", &c.metric).field("rows", &c.rows)`
/// `.field("rate", &p.rate)`.
#[macro_export]
macro_rules! fields {
    ($obj:expr; $($src:expr => $($name:ident),+);+ $(;)?) => {
        $obj$($(.field(stringify!($name), &$src.$name))+)+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layout_primitive_renders_exactly() {
        struct Cell {
            name: &'static str,
            rows: Vec<u64>,
        }
        let cells = [Cell { name: "a", rows: vec![7, 8] }, Cell { name: "b", rows: Vec::new() }];
        let doc = Object::pretty()
            .field("schema", "demo-v1")
            .field("inline", Object::inline().field("a", 1u64).field("b", 0.25))
            .field("missing", None::<u64>)
            .field("counts", vec![3u64, 1, 4])
            .field("timing", Value::fixed(12.345, 1))
            .field("flag", false)
            .field(
                "rows",
                Value::lines([Object::inline().field("x", 0.0), Object::inline().field("x", 1.5)]),
            )
            .field(
                "cells",
                Value::lines(cells.iter().map(|c| fields!(Object::pretty(); c => name, rows))),
            )
            .field("empty", Value::lines(Vec::<u64>::new()));
        let want = r#"{
  "schema": "demo-v1",
  "inline": {"a": 1, "b": 0.25},
  "missing": null,
  "counts": [3, 1, 4],
  "timing": 12.3,
  "flag": false,
  "rows": [
    {"x": 0},
    {"x": 1.5}
  ],
  "cells": [
    {
      "name": "a",
      "rows": [7, 8]
    },
    {
      "name": "b",
      "rows": []
    }
  ],
  "empty": [
  ]
}
"#;
        assert_eq!(doc.to_json(), want);
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nnext\ttab"), "line\\nnext\\ttab");
        assert_eq!(escape("\u{1}\r"), "\\u0001\\u000d");
        assert_eq!(escape("µ-Å ✓ 深"), "µ-Å ✓ 深");
        assert_eq!(Value::from("q\"\n"), Value("\"q\\\"\\n\"".to_string()));
    }

    #[test]
    #[should_panic(expected = "report numbers must be finite")]
    fn non_finite_numbers_are_rejected() {
        let _ = Value::from(f64::NAN);
    }
}
