//! Just enough JSON: the workspace builds offline with no serializer,
//! and `compare` must read back the result files this harness writes.

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Fields in file order.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|f| f.0 == key).map(|f| &f.1),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// A number as JSON takes it, with all its digits (`null` when not
/// finite — JSON has no NaN).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_space();
    if p.at != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_space();
                if self.eat("}") {
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_space();
                    if self.eat("}") {
                        return Ok(Value::Object(fields));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => self.string().map(Value::String),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Number)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Strings the harness writes hold no escapes beyond `\"` and `\\`;
    /// those and `\n`, `\t`, `\/` are read, anything else is refused.
    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => *c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    };
                    out.push(c);
                    self.at += 2;
                }
                Some(c) => {
                    out.push(*c);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_harness_writes() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y"}, "d": {}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2500.0),
                Value::Bool(true),
                Value::Null
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("d"), Some(&Value::Object(Vec::new())));
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(f64::NAN), "null");
    }
}
