//! Minimal hand-rolled JSON emission for the `--json` harness outputs.
//!
//! The container deliberately carries no serde; the benchmark binaries
//! only ever emit flat objects of numbers, strings, and small arrays,
//! so a value enum with a renderer covers everything.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// An unsigned integer (rendered without a decimal point).
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::field`] chaining.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key/value pair (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Shortest stable form with enough precision for
                    // cycle counts and ratios.
                    let _ = write!(out, "{n:.4}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// A mechanism snapshot: one key per counter-table row.
impl From<&mechanism::StatsSnapshot> for Json {
    fn from(s: &mechanism::StatsSnapshot) -> Json {
        let value = |v| match v {
            mechanism::Value::Count(n) => Json::Int(n),
            mechanism::Value::Label(l) => Json::Str(l.into()),
        };
        Json::Obj(s.fields().map(|(row, v)| (row.name.into(), value(v))).collect())
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_object() {
        let j = Json::obj()
            .field("bench", Json::Str("table2".into()))
            .field("iters", Json::Int(1000))
            .field("ratio", Json::Num(2.375))
            .field("ok", Json::Bool(true))
            .field(
                "rows",
                Json::Arr(vec![Json::obj().field("name", Json::Str("zpoline".into()))]),
            );
        let s = j.render();
        assert!(s.contains("\"bench\": \"table2\""));
        assert!(s.contains("\"iters\": 1000"));
        assert!(s.contains("\"ratio\": 2.3750"));
        assert!(s.contains("\"name\": \"zpoline\""));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings_and_hides_nonfinite() {
        let j = Json::obj()
            .field("s", Json::Str("a\"b\\c\nd".into()))
            .field("nan", Json::Num(f64::NAN));
        let s = j.render();
        assert!(s.contains("\\\"b\\\\c\\n"));
        assert!(s.contains("\"nan\": null"));
    }

    #[test]
    fn empty_collections() {
        assert_eq!(Json::obj().render(), "{}\n");
        assert_eq!(Json::Arr(vec![]).render(), "[]\n");
    }
}
