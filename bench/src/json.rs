//! A minimal JSON value and writer (the workspace vendors no `serde_json`).

use std::fmt::{self, Write};

#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` round-trips; non-finite → `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Compact, single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    f.write_str(": ")?;
                    write!(f, "{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_on_one_line() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(12800)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("note", Json::str("a \"quoted\"\nline")),
            ("nan", Json::Num(f64::NAN)),
            ("reps", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"correct\": true, \"attempted\": 12800, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}}, \"note\": \"a \\\"quoted\\\"\\nline\", \
             \"nan\": null, \"reps\": [1, null]}"
        );
    }
}
