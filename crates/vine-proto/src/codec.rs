//! The binary encoding of a frame payload: one serde [`Value`], written
//! as a tag byte followed by the tag's body.
//!
//! ```text
//! tag  value   body
//! 0    Null    -
//! 1    false   -
//! 2    true    -
//! 3    I64     zigzag LEB128 varint
//! 4    U64     LEB128 varint
//! 5    U128    LEB128 varint
//! 6    F64     8 bytes, IEEE 754 bits little-endian
//! 7    Str     varint byte length, then UTF-8 bytes
//! 8    Bytes   varint byte length, then the raw bytes
//! 9    Seq     varint element count, then the elements
//! 10   Map     varint entry count, then key, value, key, value, ...
//! ```
//!
//! Byte blobs (arguments, results, compiled images, serialized functions)
//! lower to [`Value::Bytes`] and travel raw. The decoder treats its input
//! as hostile: it never panics, caps nesting at [`MAX_DEPTH`], checks
//! every length and count against the bytes that remain before it
//! allocates, and rejects unknown tags, overlong varints, invalid UTF-8
//! and trailing bytes.

use serde::Value;

/// Deepest nesting of sequences and maps a payload may carry. Protocol
/// messages nest about six levels; the cap bounds the decoder's recursion.
const MAX_DEPTH: usize = 64;

/// Largest up-front reservation for a sequence or map: a count is only a
/// claim until its elements have been read.
const PREALLOC_CAP: usize = 1024;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const I64: u8 = 3;
const U64: u8 = 4;
const U128: u8 = 5;
const F64: u8 = 6;
const STR: u8 = 7;
const BYTES: u8 = 8;
const SEQ: u8 = 9;
const MAP: u8 = 10;

/// Append the encoding of `v` to `out`.
pub(crate) fn encode(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::I64(n) => {
            out.push(I64);
            put_varint(out, ((n << 1) ^ (n >> 63)) as u64 as u128);
        }
        Value::U64(n) => {
            out.push(U64);
            put_varint(out, u128::from(*n));
        }
        Value::U128(n) => {
            out.push(U128);
            put_varint(out, *n);
        }
        Value::F64(x) => {
            out.push(F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => put_blob(out, STR, s.as_bytes()),
        Value::Bytes(b) => put_blob(out, BYTES, b),
        Value::Seq(items) => {
            out.push(SEQ);
            put_varint(out, items.len() as u128);
            for item in items {
                encode(out, item);
            }
        }
        Value::Map(entries) => {
            out.push(MAP);
            put_varint(out, entries.len() as u128);
            for (k, val) in entries {
                encode(out, k);
                encode(out, val);
            }
        }
    }
}

fn put_blob(out: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    out.push(tag);
    put_varint(out, bytes.len() as u128);
    out.extend_from_slice(bytes);
}

fn put_varint(out: &mut Vec<u8>, mut n: u128) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

/// Decode exactly one value spanning all of `bytes`.
pub(crate) fn decode(bytes: &[u8]) -> Result<Value, String> {
    let mut r = Reader { bytes, pos: 0 };
    let v = r.value(0)?;
    if r.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the value",
            bytes.len() - r.pos
        ));
    }
    Ok(v)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| format!("payload ends at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "length {n} exceeds the {} bytes left",
                self.remaining()
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A LEB128 varint of at most `bits` significant bits.
    fn varint(&mut self, bits: u32) -> Result<u128, String> {
        let mut n: u128 = 0;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            let chunk = u128::from(b & 0x7f);
            if shift >= bits || (shift > 0 && chunk >> (bits - shift) != 0) {
                return Err(format!("varint wider than {bits} bits"));
            }
            n |= chunk << shift;
            if b & 0x80 == 0 {
                return Ok(n);
            }
            shift += 7;
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        // most varints (field-name lengths, small counts and ids) fit in
        // one byte: skip the general loop
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.varint(64).map(|n| n as u64),
        }
    }

    /// A count of items that each take at least `min_bytes`, checked
    /// against the bytes left so a forged count cannot drive allocation.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u64()?;
        let fits = self.remaining() / min_bytes;
        if n > fits as u64 {
            return Err(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        let tag = self.byte()?;
        Ok(match tag {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            I64 => {
                let z = self.u64()?;
                Value::I64((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            U64 => Value::U64(self.u64()?),
            U128 => Value::U128(self.varint(128)?),
            F64 => {
                let bits: [u8; 8] = self.take(8)?.try_into().expect("8-byte slice");
                Value::F64(f64::from_bits(u64::from_le_bytes(bits)))
            }
            STR => {
                let n = self.count(1)?;
                let s = std::str::from_utf8(self.take(n)?)
                    .map_err(|e| format!("string is not UTF-8: {e}"))?;
                Value::Str(s.to_owned())
            }
            BYTES => {
                let n = self.count(1)?;
                Value::Bytes(self.take(n)?.to_vec())
            }
            SEQ | MAP if depth == MAX_DEPTH => {
                return Err(format!("nesting deeper than {MAX_DEPTH}"));
            }
            SEQ => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n.min(PREALLOC_CAP));
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                Value::Seq(items)
            }
            MAP => {
                let n = self.count(2)?;
                let mut entries = Vec::with_capacity(n.min(PREALLOC_CAP));
                for _ in 0..n {
                    let k = self.value(depth + 1)?;
                    let v = self.value(depth + 1)?;
                    entries.push((k, v));
                }
                Value::Map(entries)
            }
            other => return Err(format!("unknown tag {other} at byte {}", self.pos - 1)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let mut out = Vec::new();
        encode(&mut out, &v);
        assert_eq!(decode(&out).unwrap(), v, "{out:?}");
    }

    #[test]
    fn every_variant_round_trips() {
        for n in [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            round_trip(Value::I64(n));
        }
        for n in [0, 127, 128, 300, u64::MAX] {
            round_trip(Value::U64(n));
        }
        for n in [0, u128::from(u64::MAX) + 1, u128::MAX] {
            round_trip(Value::U128(n));
        }
        round_trip(Value::F64(-2.5));
        round_trip(Value::Map(vec![
            (Value::Str("hé".into()), Value::Bytes(vec![0, 255])),
            (
                Value::U64(7),
                Value::Seq(vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
            ),
        ]));
    }

    #[test]
    fn small_integers_take_one_byte() {
        let mut out = Vec::new();
        encode(&mut out, &Value::U64(127));
        encode(&mut out, &Value::I64(-64));
        assert_eq!(out, [U64, 127, I64, 127]);
    }

    #[test]
    fn varints_wider_than_their_type_are_rejected() {
        // eleven continuation groups cannot be a u64
        let mut bytes = vec![U64];
        bytes.extend([0xff; 10]);
        bytes.push(0x01);
        assert!(decode(&bytes).unwrap_err().contains("wider"));
        // ten groups whose last one carries bits past 64
        let mut bytes = vec![U64];
        bytes.extend([0xff; 9]);
        bytes.push(0x02);
        assert!(decode(&bytes).unwrap_err().contains("wider"));
    }
}
