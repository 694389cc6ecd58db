//! Typed values, rows, schemas, and order-preserving key encoding.
//!
//! The engine stores rows as self-describing byte strings (each value
//! carries a type tag) and indexes them by *memcomparable* keys: the
//! byte-wise ordering of an encoded key equals the typed ordering of the
//! values, so B-tree code compares plain byte slices.

use socrates_common::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// A column value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL. Sorts before everything.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (total order via `f64::total_cmp`).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The type tag used in encodings; also the major sort key across
    /// types (keys of mixed type order by tag first).
    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// Total order over values (NULL first, then by type tag, then value).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A row: one value per column.
pub type Row = Vec<Value>;

/// Column types for schema declarations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// Boolean.
    Bool,
}

/// A table schema. The first `key_columns` columns form the primary key.
#[derive(Clone, Debug, PartialEq)]
pub struct Schema {
    /// Column names and types, primary-key columns first.
    pub columns: Vec<(String, ColumnType)>,
    /// How many leading columns form the primary key.
    pub key_columns: usize,
}

impl Schema {
    /// Build a schema; panics if `key_columns` is zero or exceeds the
    /// column count.
    pub fn new(columns: Vec<(String, ColumnType)>, key_columns: usize) -> Schema {
        assert!(key_columns >= 1 && key_columns <= columns.len());
        Schema { columns, key_columns }
    }

    /// Extract the primary-key values from a full row.
    pub fn key_of<'a>(&self, row: &'a [Value]) -> &'a [Value] {
        &row[..self.key_columns]
    }

    /// Check a row's arity and value types against the schema.
    pub fn validate(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::InvalidArgument(format!(
                "row has {} values, schema has {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        for (i, (v, (name, t))) in row.iter().zip(&self.columns).enumerate() {
            let ok = matches!(
                (v, t),
                (Value::Null, _)
                    | (Value::Int(_), ColumnType::Int)
                    | (Value::Float(_), ColumnType::Float)
                    | (Value::Str(_), ColumnType::Str)
                    | (Value::Bytes(_), ColumnType::Bytes)
                    | (Value::Bool(_), ColumnType::Bool)
            );
            if !ok {
                return Err(Error::InvalidArgument(format!(
                    "column {i} ('{name}') expects {t:?}, got {v:?}"
                )));
            }
            if i < self.key_columns && matches!(v, Value::Null) {
                return Err(Error::InvalidArgument(format!(
                    "key column {i} ('{name}') may not be NULL"
                )));
            }
        }
        Ok(())
    }
}

// ---- row (self-describing) encoding ----

/// Append the self-describing encoding of `row` to `out`.
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        out.push(v.tag());
        match v {
            Value::Null => {}
            Value::Bool(b) => out.push(*b as u8),
            Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
            Value::Float(f) => out.extend_from_slice(&f.to_le_bytes()),
            Value::Str(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        }
    }
}

/// Decode a row previously written by [`encode_row`].
pub fn decode_row(data: &[u8]) -> Result<Row> {
    let err = || Error::Corruption("truncated row".into());
    if data.len() < 2 {
        return Err(err());
    }
    let n = u16::from_le_bytes(data[0..2].try_into().unwrap()) as usize;
    let mut off = 2usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = *data.get(off).ok_or_else(err)?;
        off += 1;
        let v =
            match tag {
                0 => Value::Null,
                1 => {
                    let b = *data.get(off).ok_or_else(err)?;
                    off += 1;
                    Value::Bool(b != 0)
                }
                2 => {
                    let bytes = data.get(off..off + 8).ok_or_else(err)?;
                    off += 8;
                    Value::Int(i64::from_le_bytes(bytes.try_into().unwrap()))
                }
                3 => {
                    let bytes = data.get(off..off + 8).ok_or_else(err)?;
                    off += 8;
                    Value::Float(f64::from_le_bytes(bytes.try_into().unwrap()))
                }
                4 | 5 => {
                    let lb = data.get(off..off + 4).ok_or_else(err)?;
                    let len = u32::from_le_bytes(lb.try_into().unwrap()) as usize;
                    off += 4;
                    let bytes = data.get(off..off + len).ok_or_else(err)?.to_vec();
                    off += len;
                    if tag == 4 {
                        Value::Str(String::from_utf8(bytes).map_err(|_| {
                            Error::Corruption("invalid utf8 in string value".into())
                        })?)
                    } else {
                        Value::Bytes(bytes)
                    }
                }
                other => return Err(Error::Corruption(format!("bad value tag {other}"))),
            };
        row.push(v);
    }
    Ok(row)
}

// ---- memcomparable key encoding ----

/// Append the order-preserving encoding of `key` values to `out`:
/// byte-wise comparison of encodings == lexicographic [`Value::total_cmp`].
pub fn encode_key(key: &[Value], out: &mut Vec<u8>) {
    for v in key {
        out.push(v.tag());
        match v {
            Value::Null => {}
            Value::Bool(b) => out.push(*b as u8),
            Value::Int(i) => {
                // Flip the sign bit so two's complement sorts unsigned.
                out.extend_from_slice(&(*i as u64 ^ (1 << 63)).to_be_bytes());
            }
            Value::Float(f) => {
                // IEEE-754 total-order trick.
                let bits = f.to_bits() as i64;
                let key = if bits < 0 { !bits as u64 } else { bits as u64 ^ (1 << 63) };
                out.extend_from_slice(&key.to_be_bytes());
            }
            Value::Str(s) => {
                escape_bytes(s.as_bytes(), out);
            }
            Value::Bytes(b) => {
                escape_bytes(b, out);
            }
        }
    }
}

/// 0x00-terminated escaping: 0x00 in the data becomes 0x00 0xFF; the
/// terminator 0x00 0x00 sorts before any continuation.
fn escape_bytes(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0);
    out.push(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip_all_types() {
        let row: Row = vec![
            Value::Int(-5),
            Value::Str("héllo".into()),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Bytes(vec![0, 1, 2]),
            Value::Null,
        ];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(decode_row(&buf).unwrap(), row);
    }

    #[test]
    fn row_decode_rejects_truncation() {
        let row: Row = vec![Value::Str("abc".into()), Value::Int(1)];
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in [0, 1, 3, 7, buf.len() - 1] {
            assert!(decode_row(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    fn enc(vs: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_key(vs, &mut out);
        out
    }

    #[test]
    fn key_encoding_orders_ints() {
        let vals = [i64::MIN, -100, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(enc(&[Value::Int(w[0])]) < enc(&[Value::Int(w[1])]), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn key_encoding_orders_floats() {
        let vals = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1e-9, 3.25, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(
                enc(&[Value::Float(w[0])]) <= enc(&[Value::Float(w[1])]),
                "{} !<= {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn key_encoding_orders_strings_with_zeros_and_prefixes() {
        let cases: Vec<(&[u8], &[u8])> = vec![
            (b"a", b"b"),
            (b"a", b"aa"),
            (b"", b"a"),
            (b"a\x00", b"a\x00\x00"),
            (b"a\x00b", b"ab"), // 0x00 0xFF < 'b'
        ];
        for (a, b) in cases {
            assert!(
                enc(&[Value::Bytes(a.to_vec())]) < enc(&[Value::Bytes(b.to_vec())]),
                "{a:?} !< {b:?}"
            );
        }
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let a = enc(&[Value::Int(1), Value::Str("b".into())]);
        let b = enc(&[Value::Int(1), Value::Str("c".into())]);
        let c = enc(&[Value::Int(2), Value::Str("a".into())]);
        assert!(a < b);
        assert!(b < c);
        // Prefix property: ("ab") vs ("a","b") must not collide confusingly;
        // the terminator keeps the single-column prefix strictly smaller.
        let p1 = enc(&[Value::Str("a".into())]);
        let p2 = enc(&[Value::Str("a".into()), Value::Str("".into())]);
        assert!(p1 < p2);
    }

    #[test]
    fn schema_validation() {
        let s =
            Schema::new(vec![("id".into(), ColumnType::Int), ("name".into(), ColumnType::Str)], 1);
        s.validate(&[Value::Int(1), Value::Str("x".into())]).unwrap();
        s.validate(&[Value::Int(1), Value::Null]).unwrap(); // NULL allowed off-key
        assert!(s.validate(&[Value::Null, Value::Str("x".into())]).is_err()); // NULL key
        assert!(s.validate(&[Value::Str("x".into()), Value::Str("x".into())]).is_err());
        assert!(s.validate(&[Value::Int(1)]).is_err());
        assert_eq!(s.key_of(&[Value::Int(7), Value::Null]), &[Value::Int(7)]);
    }

    #[test]
    fn total_cmp_cross_type() {
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(9).total_cmp(&Value::Str("a".into())), Ordering::Less);
    }
}
