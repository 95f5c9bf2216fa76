//! The JSON the snapshot binaries write (`BENCH_encode.json`,
//! `BENCH_index.json`, `BENCH_kernels.json`, `BENCH_net.json`,
//! `BENCH_figs.json`): a value tree with ordered object keys and a
//! two-space-indented printer. Write-only — nothing in the workspace reads
//! the snapshots back.

use std::fmt::{self, Write as _};

/// A JSON value. Object keys keep the order they were given in.
#[derive(Debug)]
pub enum Json {
    /// `null`; also what a non-finite number prints as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Every number; whole values below 1e15 print without a fraction.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            // Rust's `Display` for f64 is the shortest string that round-trips.
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, ('[', ']'), items.iter().map(|v| (None, v))),
            Json::Obj(pairs) => {
                let pairs = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_seq(out, depth, ('{', '}'), pairs)
            }
        }
    }
}

/// Pretty rendering: two-space indent, `": "` after each key, `[]` / `{}`
/// when empty.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_number!(i32, u64, usize, f64);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Writes `snapshot`, pretty-printed and newline-terminated, to `path`.
pub fn write_snapshot(path: &str, snapshot: &Json) -> std::io::Result<()> {
    std::fs::write(path, format!("{snapshot}\n"))
}

/// Writes the items of an array (keys `None`) or an object one per line at
/// `depth + 1`, between `open` and `close`.
fn write_seq<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    if items.len() > 0 {
        for (i, (key, value)) in items.enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            indent(out, depth + 1);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push('\n');
        indent(out, depth);
    }
    out.push(close);
}

fn indent(out: &mut String, depth: usize) {
    out.extend(std::iter::repeat_n("  ", depth));
}

fn write_str(out: &mut String, s: &str) {
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
    fn pretty_matches_the_committed_snapshot_layout() {
        // An `aggregate` element as it stands in BENCH_net.json.
        let point = Json::obj([
            ("clients", 1usize.into()),
            ("unique_mbps", 78.51206139580391.into()),
            ("duplicate_mbps", 122.14575897710256.into()),
        ]);
        let net = Json::obj([("aggregate", Json::Arr(vec![point]))]);
        assert_eq!(
            net.to_string(),
            r#"{
  "aggregate": [
    {
      "clients": 1,
      "unique_mbps": 78.51206139580391,
      "duplicate_mbps": 122.14575897710256
    }
  ]
}"#
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::from("a \"q\" \\ b\nc\u{1}\t");
        assert_eq!(s.to_string(), r#""a \"q\" \\ b\nc\u0001\t""#);
    }

    #[test]
    fn numbers_print_as_integers_shortest_floats_or_null() {
        let cases = [
            (1024.0, "1024"),
            (-2.5, "-2.5"),
            (0.0295, "0.0295"),
            (999_999_999_999_999.0, "999999999999999"),
            (1_000_000_000_000_001.0, "1000000000000001"),
            (-0.0, "0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ];
        for (n, text) in cases {
            assert_eq!(Json::from(n).to_string(), text);
            if n.is_finite() {
                assert_eq!(text.parse::<f64>().unwrap(), n, "{text} round-trips");
            }
        }
        assert_eq!(Json::from(26usize).to_string(), "26");
        assert_eq!(Json::from(u64::MAX >> 12).to_string(), "4503599627370495");
    }

    #[test]
    fn empty_containers_stay_on_one_line_and_keys_keep_their_order() {
        let v = Json::obj([
            ("z", Json::Arr(vec![])),
            ("a", Json::Obj(vec![])),
            ("m", Json::Arr(vec![Json::Null, true.into()])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\n  \"z\": [],\n  \"a\": {},\n  \"m\": [\n    null,\n    true\n  ]\n}"
        );
    }
}
