//! Offline, in-tree stand-in for `serde_json`, reduced to what the
//! benchmark's tests call: [`from_str`] parses a document into a
//! [`Value`] tree read with [`Value::get`], [`Value::as_str`] and
//! [`Value::as_f64`]. There is no writer and no typed (de)serialization;
//! the product crates encode their state with `janus_common::codec`.
//!
//! Numbers are held as `f64`.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object lookup by key; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse error, with the byte offset it was found at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Convenience alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Parses a JSON document.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(Error(format!(
                "unexpected byte `{}` at {}",
                other as char, self.pos
            ))),
        }
    }

    /// Parses `open item (, item)* close` with `item` per element.
    fn list<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(Error(format!(
                        "expected `,` or `{}` at byte {}",
                        close as char, self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.list(b'[', b']', Self::value).map(Value::Array)
    }

    fn object(&mut self) -> Result<Value> {
        self.list(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            Ok((key, p.value()?))
        })
        .map(Value::Object)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error("unterminated string".into()));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error("unterminated escape".into()));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let c = u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or_else(|| Error(format!("bad \\u{hex}")))?;
                            self.pos += 4;
                            out.push(c);
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    // Re-scan as UTF-8 from the byte before.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|e| Error(e.to_string()))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| Error(format!("bad number `{text}` at byte {start}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (src, want) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("1.5", Value::Number(1.5)),
            ("42", Value::Number(42.0)),
            ("-7e-1", Value::Number(-0.7)),
            ("\"hi\\n\"", Value::String("hi\n".into())),
        ] {
            assert_eq!(from_str(src).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let src = r#""quote\" slash\\ newline\n tab\t unicode\u0001é漢""#;
        let want = "quote\" slash\\ newline\n tab\t unicode\u{1}é漢";
        assert_eq!(from_str(src).unwrap().as_str(), Some(want));
    }

    #[test]
    fn objects_and_arrays_answer_lookups() {
        let doc = from_str(r#" {"a": [1, {"unit": "s"}], "b": 2.5, "c": {}} "#).unwrap();
        let Some(Value::Array(items)) = doc.get("a") else {
            panic!("a is an array")
        };
        assert_eq!(items[1].get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(doc.get("b").and_then(Value::as_f64), Some(2.5));
        assert_eq!(doc.get("c"), Some(&Value::Object(Vec::new())));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["{", "[1,]", "12 34", "", "-", "{\"a\" 1}", "\"open"] {
            assert!(from_str(bad).is_err(), "{bad:?}");
        }
    }
}
