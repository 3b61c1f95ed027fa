//! Item values: the Notes data model's scalar and list types.
//!
//! Notes items are typed: text, number, date/time — each either scalar or a
//! list — plus rich text (an opaque body kept out of view buffers). Lists
//! are first-class: the formula language operates on them pairwise, and
//! multi-value items sort by their first element in view collations.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DominoError, Result};
use crate::reader::Reader;

/// A date/time value, stored as ticks on the shared timeline (see
/// [`crate::time::Timestamp`]). Kept as its own newtype so formulas can
/// distinguish date arithmetic from plain numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DateTime(pub i64);

impl DateTime {
    pub fn from_ticks(t: u64) -> DateTime {
        DateTime(t as i64)
    }

    pub fn ticks(self) -> i64 {
        self.0
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// The type tag of a [`Value`], used for collation (values of different
/// types sort by type rank, as Notes view collations do) and for encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    Number,
    DateTime,
    Text,
    NumberList,
    DateTimeList,
    TextList,
    RichText,
}

impl ValueType {
    /// Collation rank: numbers < datetimes < text < rich text. Lists rank as
    /// their element type (they collate by first element).
    pub fn rank(self) -> u8 {
        match self {
            ValueType::Number | ValueType::NumberList => 0,
            ValueType::DateTime | ValueType::DateTimeList => 1,
            ValueType::Text | ValueType::TextList => 2,
            ValueType::RichText => 3,
        }
    }
}

/// The value of one item.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Number(f64),
    NumberList(Vec<f64>),
    Text(String),
    TextList(Vec<String>),
    DateTime(DateTime),
    DateTimeList(Vec<DateTime>),
    /// Rich text bodies are opaque to views and formulas except via
    /// [`Value::to_text`], which yields their extractable plain text.
    RichText(Vec<u8>),
}

impl Value {
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Number(_) => ValueType::Number,
            Value::NumberList(_) => ValueType::NumberList,
            Value::Text(_) => ValueType::Text,
            Value::TextList(_) => ValueType::TextList,
            Value::DateTime(_) => ValueType::DateTime,
            Value::DateTimeList(_) => ValueType::DateTimeList,
            Value::RichText(_) => ValueType::RichText,
        }
    }

    /// Convenience constructor from `&str`.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Convenience constructor for a text list.
    pub fn text_list<I, S>(items: I) -> Value
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Value::TextList(items.into_iter().map(Into::into).collect())
    }

    /// Number of elements (lists) or 1 (scalars); matches `@Elements`.
    pub fn elements(&self) -> usize {
        match self {
            Value::NumberList(v) => v.len(),
            Value::TextList(v) => v.len(),
            Value::DateTimeList(v) => v.len(),
            _ => 1,
        }
    }

    /// True for `""`, empty lists, and empty rich text — what Notes formulas
    /// treat as "not there" in `@If(field = ""; ...)` patterns.
    pub fn is_empty(&self) -> bool {
        match self {
            Value::Text(s) => s.is_empty(),
            Value::TextList(v) => v.is_empty() || v.iter().all(|s| s.is_empty()),
            Value::NumberList(v) => v.is_empty(),
            Value::DateTimeList(v) => v.is_empty(),
            Value::RichText(b) => b.is_empty(),
            Value::Number(_) | Value::DateTime(_) => false,
        }
    }

    /// Render as display text (what `@Text` returns and what views show).
    /// List elements join with `;`. Rich text yields its plain-text bytes
    /// interpreted as UTF-8 (lossy).
    pub fn to_text(&self) -> String {
        fn join<T: ToString>(v: &[T]) -> String {
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(";")
        }
        match self {
            Value::Number(n) => fmt_number(*n),
            Value::NumberList(v) => v
                .iter()
                .map(|n| fmt_number(*n))
                .collect::<Vec<_>>()
                .join(";"),
            Value::Text(s) => s.clone(),
            Value::TextList(v) => v.join(";"),
            Value::DateTime(d) => d.to_string(),
            Value::DateTimeList(v) => join(v),
            Value::RichText(b) => String::from_utf8_lossy(b).into_owned(),
        }
    }

    /// Coerce to a single number if possible (`@TextToNumber` semantics for
    /// text; first element for lists).
    pub fn as_number(&self) -> Result<f64> {
        match self {
            Value::Number(n) => Ok(*n),
            Value::NumberList(v) => v
                .first()
                .copied()
                .ok_or_else(|| DominoError::FormulaEval("empty number list has no value".into())),
            Value::Text(s) => s
                .trim()
                .parse::<f64>()
                .map_err(|_| DominoError::FormulaEval(format!("cannot convert {s:?} to number"))),
            Value::DateTime(d) => Ok(d.0 as f64),
            other => Err(DominoError::FormulaEval(format!(
                "cannot convert {:?} to number",
                other.value_type()
            ))),
        }
    }

    /// Truthiness: Notes treats nonzero numbers as true. Text is not
    /// implicitly boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Number(n) => Ok(*n != 0.0),
            Value::NumberList(v) => Ok(v.iter().any(|n| *n != 0.0)),
            other => Err(DominoError::FormulaEval(format!(
                "cannot use {:?} as a condition",
                other.value_type()
            ))),
        }
    }

    /// Iterate the value as a list of scalar values (scalars yield one).
    pub fn iter_scalars(&self) -> Vec<Value> {
        match self {
            Value::NumberList(v) => v.iter().map(|n| Value::Number(*n)).collect(),
            Value::TextList(v) => v.iter().map(|s| Value::Text(s.clone())).collect(),
            Value::DateTimeList(v) => v.iter().map(|d| Value::DateTime(*d)).collect(),
            scalar => vec![scalar.clone()],
        }
    }

    /// Rebuild a value from scalars of a homogeneous type. An empty slice
    /// becomes an empty text list (the Notes "no values" result).
    pub fn from_scalars(items: Vec<Value>) -> Result<Value> {
        if items.is_empty() {
            return Ok(Value::TextList(Vec::new()));
        }
        if items.len() == 1 {
            return Ok(items.into_iter().next().expect("len checked"));
        }
        match &items[0] {
            Value::Number(_) => {
                let mut out = Vec::with_capacity(items.len());
                for v in &items {
                    out.push(v.as_number()?);
                }
                Ok(Value::NumberList(out))
            }
            Value::DateTime(_) => {
                let mut out = Vec::with_capacity(items.len());
                for v in &items {
                    match v {
                        Value::DateTime(d) => out.push(*d),
                        _ => {
                            return Err(DominoError::FormulaEval("mixed list element types".into()))
                        }
                    }
                }
                Ok(Value::DateTimeList(out))
            }
            _ => {
                let out = items.iter().map(|v| v.to_text()).collect();
                Ok(Value::TextList(out))
            }
        }
    }

    /// Total order used by view collations: type rank first, then value;
    /// lists compare by their first element then lexicographically.
    pub fn collate(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.value_type().rank(), other.value_type().rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        let a = self.iter_scalars();
        let b = other.iter_scalars();
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = match (x, y) {
                (Value::Number(m), Value::Number(n)) => m.partial_cmp(n).unwrap_or(Ordering::Equal),
                (Value::DateTime(m), Value::DateTime(n)) => m.cmp(n),
                (Value::Text(m), Value::Text(n)) => {
                    // Case-insensitive primary weight, case-sensitive tiebreak,
                    // mirroring the default Notes collation.
                    let ci = m.to_lowercase().cmp(&n.to_lowercase());
                    if ci != Ordering::Equal {
                        ci
                    } else {
                        m.cmp(n)
                    }
                }
                (Value::RichText(m), Value::RichText(n)) => m.cmp(n),
                _ => Ordering::Equal,
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    }

    /// Approximate in-memory/storage footprint in bytes (for bandwidth
    /// accounting in replication experiments and summary-bucket budgeting).
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Number(_) => 8,
            Value::NumberList(v) => 8 * v.len() + 4,
            Value::Text(s) => s.len() + 4,
            Value::TextList(v) => v.iter().map(|s| s.len() + 4).sum::<usize>() + 4,
            Value::DateTime(_) => 8,
            Value::DateTimeList(v) => 8 * v.len() + 4,
            Value::RichText(b) => b.len() + 4,
        }
    }

    // ---- binary encoding (shared by storage, WAL, and replication) ----

    /// Append the canonical binary encoding of this value to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        fn put_len(buf: &mut Vec<u8>, n: usize) {
            buf.extend_from_slice(&(n as u32).to_le_bytes());
        }
        match self {
            Value::Number(n) => {
                buf.push(0);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            Value::NumberList(v) => {
                buf.push(1);
                put_len(buf, v.len());
                for n in v {
                    buf.extend_from_slice(&n.to_le_bytes());
                }
            }
            Value::Text(s) => {
                buf.push(2);
                put_len(buf, s.len());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::TextList(v) => {
                buf.push(3);
                put_len(buf, v.len());
                for s in v {
                    put_len(buf, s.len());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
            Value::DateTime(d) => {
                buf.push(4);
                buf.extend_from_slice(&d.0.to_le_bytes());
            }
            Value::DateTimeList(v) => {
                buf.push(5);
                put_len(buf, v.len());
                for d in v {
                    buf.extend_from_slice(&d.0.to_le_bytes());
                }
            }
            Value::RichText(b) => {
                buf.push(6);
                put_len(buf, b.len());
                buf.extend_from_slice(b);
            }
        }
    }

    /// Decode a value from `buf` starting at `*pos`, advancing `*pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let mut r = Reader::at(buf, *pos);
        let v = Value::read(&mut r)?;
        *pos = r.pos();
        Ok(v)
    }

    /// Decode a value at the reader's cursor.
    pub fn read(r: &mut Reader<'_>) -> Result<Value> {
        Ok(match r.u8("value tag")? {
            0 => Value::Number(r.f64("number")?),
            1 => {
                let n = r.u32("value length")?;
                let mut v = Vec::with_capacity((n as usize).min(1024));
                for _ in 0..n {
                    v.push(r.f64("number list")?);
                }
                Value::NumberList(v)
            }
            2 => {
                let n = r.u32("value length")? as usize;
                Value::Text(r.text(n, "text value")?.to_owned())
            }
            3 => {
                let n = r.u32("value length")?;
                let mut v = Vec::with_capacity((n as usize).min(1024));
                for _ in 0..n {
                    let len = r.u32("text list length")? as usize;
                    v.push(r.text(len, "text list")?.to_owned());
                }
                Value::TextList(v)
            }
            4 => Value::DateTime(DateTime(r.i64("date/time")?)),
            5 => {
                let n = r.u32("value length")?;
                let mut v = Vec::with_capacity((n as usize).min(1024));
                for _ in 0..n {
                    v.push(DateTime(r.i64("date/time list")?));
                }
                Value::DateTimeList(v)
            }
            6 => {
                let n = r.u32("value length")? as usize;
                Value::RichText(r.bytes(n, "rich text")?.to_vec())
            }
            t => return Err(DominoError::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}

impl From<DateTime> for Value {
    fn from(d: DateTime) -> Value {
        Value::DateTime(d)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Number(if b { 1.0 } else { 0.0 })
    }
}

/// Format a number the way Notes displays it: integers without a decimal
/// point, everything else with standard float formatting.
fn fmt_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        let back = Value::decode(&buf, &mut pos).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(pos, buf.len(), "decoder consumed exactly the encoding");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(&Value::Number(3.25));
        roundtrip(&Value::NumberList(vec![1.0, -2.5, 0.0]));
        roundtrip(&Value::text("hello"));
        roundtrip(&Value::text_list(["a", "", "c"]));
        roundtrip(&Value::DateTime(DateTime(-7)));
        roundtrip(&Value::DateTimeList(vec![DateTime(1), DateTime(2)]));
        roundtrip(&Value::RichText(vec![0, 255, 42]));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Value::text("hello world").encode(&mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(Value::decode(&buf[..cut], &mut pos).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut pos = 0;
        assert!(Value::decode(&[99], &mut pos).is_err());
    }

    #[test]
    fn to_text_formats() {
        assert_eq!(Value::Number(3.0).to_text(), "3");
        assert_eq!(Value::Number(3.5).to_text(), "3.5");
        assert_eq!(Value::text_list(["a", "b"]).to_text(), "a;b");
        assert_eq!(Value::NumberList(vec![1.0, 2.0]).to_text(), "1;2");
        assert_eq!(Value::RichText(b"body".to_vec()).to_text(), "body");
    }

    #[test]
    fn as_number_coercions() {
        assert_eq!(Value::text(" 42 ").as_number().unwrap(), 42.0);
        assert_eq!(Value::NumberList(vec![7.0, 8.0]).as_number().unwrap(), 7.0);
        assert!(Value::text("nope").as_number().is_err());
        assert!(Value::text_list(["x"]).as_number().is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Number(1.0).as_bool().unwrap());
        assert!(!Value::Number(0.0).as_bool().unwrap());
        assert!(Value::NumberList(vec![0.0, 2.0]).as_bool().unwrap());
        assert!(Value::text("true").as_bool().is_err());
    }

    #[test]
    fn collation_orders_types_then_values() {
        let n = Value::Number(99.0);
        let d = Value::DateTime(DateTime(0));
        let t = Value::text("a");
        assert_eq!(n.collate(&d), Ordering::Less);
        assert_eq!(d.collate(&t), Ordering::Less);
        assert_eq!(
            Value::text("Apple").collate(&Value::text("banana")),
            Ordering::Less
        );
        assert_eq!(
            Value::text("a").collate(&Value::text("A")),
            Ordering::Greater
        );
        assert_eq!(
            Value::NumberList(vec![1.0, 5.0]).collate(&Value::NumberList(vec![1.0])),
            Ordering::Greater
        );
    }

    #[test]
    fn scalars_roundtrip_through_lists() {
        let v = Value::text_list(["x", "y"]);
        let back = Value::from_scalars(v.iter_scalars()).unwrap();
        assert_eq!(back, v);
        let s = Value::Number(5.0);
        assert_eq!(Value::from_scalars(s.iter_scalars()).unwrap(), s);
        assert_eq!(
            Value::from_scalars(vec![]).unwrap(),
            Value::TextList(vec![])
        );
    }

    #[test]
    fn emptiness() {
        assert!(Value::text("").is_empty());
        assert!(Value::TextList(vec![]).is_empty());
        assert!(Value::text_list([""]).is_empty());
        assert!(!Value::Number(0.0).is_empty());
        assert!(!Value::text("x").is_empty());
    }

    #[test]
    fn byte_size_tracks_payload() {
        assert!(Value::text("abcdef").byte_size() > Value::text("a").byte_size());
        assert_eq!(Value::Number(0.0).byte_size(), 8);
    }
}
