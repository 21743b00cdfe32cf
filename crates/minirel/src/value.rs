//! SQL values: typed cells with total ordering and three byte encodings —
//! a row codec (compact, for heap pages), a *memcomparable* key codec
//! (order-preserving, for B+tree keys), and a memcomparable sort key that
//! orders Ints and Floats together (for the sort operators) — plus
//! [`ValueSet`], the hash set behind `IN` lists.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;

/// One cell of a row.
#[derive(Debug)]
pub enum Value {
    /// SQL NULL. Sorts before everything; equal to itself for grouping.
    Null,
    /// 64-bit signed integer (holds `oid`s, `tid`s, counters, timestamps).
    Int(i64),
    /// 64-bit float (scores, relevance, log-probabilities).
    Float(f64),
    /// UTF-8 string (URLs, topic names).
    Str(String),
}

/// `clone_from` of a string over a string reuses its buffer, so a row
/// copied over a row of the same shape ([`Vec::clone_from`]) allocates
/// nothing.
impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Str(s) => Value::Str(s.clone()),
        }
    }

    fn clone_from(&mut self, source: &Value) {
        match (self, source) {
            (Value::Str(old), Value::Str(s)) => old.clone_from(s),
            (slot, v) => *slot = v.clone(),
        }
    }
}

impl Value {
    /// Make this `Value::Str(s)`, reusing the buffer of a string it holds.
    pub fn set_str(&mut self, s: &str) {
        match self {
            Value::Str(old) => {
                old.clear();
                old.push_str(s);
            }
            slot => *slot = Value::Str(s.to_owned()),
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (Int promoted to f64); `None` for Null/Str.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view; floats are *not* silently truncated.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL truthiness: non-zero numbers are true; Null is false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// Total order used by ORDER BY, sort operators, and key encoding:
    /// `Null < numbers (Int/Float compared numerically) < strings`.
    /// NaN sorts after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }

    // ----- row codec (compact, self-delimiting) -----

    /// Append the compact row encoding of `self` to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                buf.push(2);
                buf.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                buf.push(3);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Decode one value from the front of `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> DbResult<Value> {
        let mut v = Value::Null;
        v.decode_into(buf)?;
        Ok(v)
    }

    /// [`Value::decode`] into `self`: a string decoded over a string
    /// reuses its buffer.
    fn decode_into(&mut self, buf: &mut &[u8]) -> DbResult<()> {
        let [tag] = take(buf, "truncated value")?;
        *self = match tag {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(take(buf, "truncated int")?)),
            2 => Value::Float(f64::from_le_bytes(take(buf, "truncated float")?)),
            3 => {
                let n = u32::from_le_bytes(take(buf, "truncated string length")?) as usize;
                let (body, rest) = buf
                    .split_at_checked(n)
                    .ok_or_else(|| DbError::Page("truncated string body".into()))?;
                let s = std::str::from_utf8(body)
                    .map_err(|_| DbError::Page("invalid utf8 in string".into()))?;
                *buf = rest;
                if let Value::Str(old) = self {
                    old.clear();
                    old.push_str(s);
                    return Ok(());
                }
                Value::Str(s.to_owned())
            }
            t => return Err(DbError::Page(format!("unknown value tag {t}"))),
        };
        Ok(())
    }

    // ----- key codec (memcomparable) -----

    /// Append an order-preserving encoding: comparing encoded byte strings
    /// with `memcmp` equals [`Value::total_cmp`] on the originals *within a
    /// homogeneously-typed column* (which is what schema validation
    /// guarantees for every indexed column — ints stored into float columns
    /// are widened by [`crate::schema::Schema::check_row`]). Strings escape
    /// `0x00` so composite keys stay self-delimiting.
    pub fn encode_key(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0x01),
            Value::Int(i) => buf.extend_from_slice(&int_key(*i)),
            Value::Float(f) => {
                buf.push(0x03);
                buf.extend_from_slice(&f64_to_ordered_bits(*f).to_be_bytes());
            }
            Value::Str(s) => {
                buf.push(0x04);
                for &b in s.as_bytes() {
                    if b == 0x00 {
                        buf.extend_from_slice(&[0x00, 0xFF]);
                    } else {
                        buf.push(b);
                    }
                }
                buf.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }

    /// Append a memcomparable *sort* key. Unlike [`Value::encode_key`],
    /// whose type tag puts every Int before every Float, Ints and Floats
    /// share one tag and order by numeric value: the nearest f64 first,
    /// then an Int's exact distance from it (at most 512, so an `i16`), so
    /// ints past 2⁵³ that round to one f64 still sort exactly. An Int and
    /// a Float of equal value get equal keys.
    pub fn encode_sort_key(&self, buf: &mut Vec<u8>) {
        let (f, off) = match self {
            Value::Int(i) => {
                let f = *i as f64;
                (f, (i128::from(*i) - f as i128) as i16)
            }
            Value::Float(f) => (*f, 0),
            other => return other.encode_key(buf),
        };
        buf.push(0x02);
        buf.extend_from_slice(&f64_to_ordered_bits(f).to_be_bytes());
        buf.extend_from_slice(&(off as u16 ^ 0x8000).to_be_bytes());
    }
}

/// The values of an `IN` list behind a hash table: [`ValueSet::contains`]
/// is exactly `vals.iter().any(|x| x == v)`, found by hashing instead of
/// walking the list. `Value`'s `Hash` agrees with its cross-type `Eq`, and
/// every entry of equal hash is compared with `Eq`, so where equality is
/// not transitive (`Float(2⁵³)` equals both `Int(2⁵³)` and `Int(2⁵³ + 1)`)
/// the answer is still the list walk's. Cloning shares the table.
#[derive(Debug, Clone)]
pub struct ValueSet(std::sync::Arc<SetTable>);

#[derive(Debug)]
struct SetTable {
    vals: Vec<Value>,
    /// First entry of each bucket; `u32::MAX` ends a chain.
    heads: Vec<u32>,
    /// Each entry's hash and the next entry of its bucket.
    chain: Vec<(u64, u32)>,
}

const NIL: u32 = u32::MAX;

fn set_hash(v: &Value) -> u64 {
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
    BuildHasherDefault::<DefaultHasher>::default().hash_one(v)
}

impl ValueSet {
    /// The set of `vals`, in list order.
    pub fn new(vals: Vec<Value>) -> ValueSet {
        let mask = vals.len().next_power_of_two() - 1;
        let mut heads = vec![NIL; mask + 1];
        let mut chain = Vec::with_capacity(vals.len());
        for (i, v) in vals.iter().enumerate() {
            let h = set_hash(v);
            let bucket = &mut heads[h as usize & mask];
            chain.push((h, *bucket));
            *bucket = i as u32;
        }
        ValueSet(std::sync::Arc::new(SetTable { vals, heads, chain }))
    }

    /// Is some list value `==` to `v`?
    pub fn contains(&self, v: &Value) -> bool {
        let t = &*self.0;
        let h = set_hash(v);
        let mut i = t.heads[h as usize & (t.heads.len() - 1)];
        while i != NIL {
            let (hi, next) = t.chain[i as usize];
            if hi == h && t.vals[i as usize] == *v {
                return true;
            }
            i = next;
        }
        false
    }

    /// The list values, in list order.
    pub fn values(&self) -> &[Value] {
        &self.0.vals
    }
}

impl From<Vec<Value>> for ValueSet {
    fn from(vals: Vec<Value>) -> ValueSet {
        ValueSet::new(vals)
    }
}

impl PartialEq for ValueSet {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

/// The one checked read both decoders share: take the next `N` bytes off
/// the front of `buf`, or fail with `what` if fewer are left.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> DbResult<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| DbError::Page(what.into()))?;
    *buf = rest;
    Ok(*head)
}

/// Map f64 bit patterns to u64s whose unsigned order equals `total_cmp`.
fn f64_to_ordered_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 0 {
        bits | (1u64 << 63) // positive: set sign bit
    } else {
        !bits // negative: flip all
    }
}

/// Inverse of [`f64_to_ordered_bits`].
fn ordered_bits_to_f64(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits & !(1u64 << 63)) // was positive: clear sign bit
    } else {
        f64::from_bits(!bits) // was negative: flip all
    }
}

/// The key encoding of `Value::Int(i)` ([`Value::encode_key`]), in a
/// fixed array: a one-column int key built without allocating.
pub fn int_key(i: i64) -> [u8; 9] {
    let mut key = [0x02; 9];
    // Flip the sign bit so two's-complement sorts unsigned.
    key[1..].copy_from_slice(&(i as u64 ^ (1u64 << 63)).to_be_bytes());
    key
}

/// Encode a composite key.
pub fn encode_composite_key(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 9);
    for v in vals {
        v.encode_key(&mut out);
    }
    out
}

/// Decode a memcomparable composite key back into its values — the
/// inverse of [`encode_composite_key`] — into `row`, the `i`-th at
/// position `cols[i]`, in place: a string decoded over a string reuses
/// its buffer. Index-only scans serve rows this way, straight from B+tree
/// keys, without touching the heap. `row` must reach every position of
/// `cols`; values past the end of `cols` are decoded and dropped.
pub fn decode_key_into(mut bytes: &[u8], cols: &[usize], row: &mut Row) -> DbResult<()> {
    let (mut cols, mut spare) = (cols.iter(), Value::Null);
    while let Some((&tag, rest)) = bytes.split_first() {
        bytes = rest;
        let slot = match cols.next() {
            Some(&c) => &mut row[c],
            None => &mut spare,
        };
        *slot = match tag {
            0x01 => Value::Null,
            0x02 => {
                let bits = u64::from_be_bytes(take(&mut bytes, "truncated int key")?);
                Value::Int((bits ^ (1u64 << 63)) as i64)
            }
            0x03 => {
                let bits = u64::from_be_bytes(take(&mut bytes, "truncated float key")?);
                Value::Float(ordered_bits_to_f64(bits))
            }
            0x04 => {
                let mut s = match std::mem::replace(slot, Value::Null) {
                    Value::Str(old) => old.into_bytes(),
                    _ => Vec::new(),
                };
                s.clear();
                loop {
                    let [b] = take(&mut bytes, "unterminated string key")?;
                    if b != 0x00 {
                        s.push(b);
                        continue;
                    }
                    match take(&mut bytes, "unterminated string key")? {
                        [0xFF] => s.push(0x00), // escaped NUL
                        [0x00] => break,        // terminator
                        [b] => {
                            return Err(DbError::Page(format!("bad string key escape {b:#x}")));
                        }
                    }
                }
                Value::Str(
                    String::from_utf8(s)
                        .map_err(|_| DbError::Page("invalid utf8 in string key".into()))?,
                )
            }
            t => return Err(DbError::Page(format!("unknown key tag {t:#x}"))),
        };
    }
    Ok(())
}

/// A row is just a boxed sequence of values.
pub type Row = Vec<Value>;

/// Encode a whole row with the compact codec.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(row.len() * 10);
    encode_row_into(row, &mut buf);
    buf
}

/// [`encode_row`], appended to `buf`.
pub fn encode_row_into(row: &[Value], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        v.encode(buf);
    }
}

/// Decode a whole row.
pub fn decode_row(bytes: &[u8]) -> DbResult<Row> {
    let mut row = Vec::new();
    decode_row_into(bytes, None, &mut row)?;
    Ok(row)
}

/// Skip one encoded value without materializing it (no allocation, no
/// UTF-8 validation) — the cursor half of column-pruned decoding.
fn skip_value(buf: &mut &[u8]) -> DbResult<()> {
    let [tag] = take(buf, "truncated value")?;
    let skip = match tag {
        0 => 0,
        1 | 2 => 8,
        3 => u32::from_le_bytes(take(buf, "truncated string length")?) as usize,
        t => return Err(DbError::Page(format!("bad value tag {t}"))),
    };
    *buf = buf
        .get(skip..)
        .ok_or_else(|| DbError::Page("truncated value body".into()))?;
    Ok(())
}

/// Decode a row into `row`, replacing what it held and reusing its
/// buffer — a scan decodes every record into one row and hands it on.
/// `keep` (`None` = every column) marks the columns to decode; the rest
/// come back as [`Value::Null`] placeholders (same arity, same column
/// positions) and are never materialized — in particular, text columns
/// allocate nothing — which is what makes column-pruned scans cheap.
/// `keep` shorter than the row keeps nothing past its end. When `row`
/// already has the record's arity, each column is overwritten in place,
/// so a string decoded over a string reuses its buffer.
pub fn decode_row_into(mut bytes: &[u8], keep: Option<&[bool]>, row: &mut Row) -> DbResult<()> {
    let n = u16::from_le_bytes(take(&mut bytes, "truncated row header")?) as usize;
    if row.len() != n {
        row.clear();
        row.resize(n, Value::Null);
    }
    for (i, slot) in row.iter_mut().enumerate() {
        if keep.is_none_or(|k| k.get(i).copied().unwrap_or(false)) {
            slot.decode_into(&mut bytes)?;
        } else {
            skip_value(&mut bytes)?;
            if !slot.is_null() {
                *slot = Value::Null;
            }
        }
    }
    Ok(())
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                // Ints and equal-valued floats must hash alike because they
                // compare equal (used as hash-join/group keys).
                state.write_u8(1);
                state.write_u64(f64_to_ordered_bits(*i as f64));
            }
            Value::Float(f) => {
                state.write_u8(1);
                state.write_u64(f64_to_ordered_bits(*f));
            }
            Value::Str(s) => {
                state.write_u8(2);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut s = buf.as_slice();
        Value::decode(&mut s).unwrap()
    }

    #[test]
    fn row_codec_round_trips() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Str("http://example.org/?q=bike".into()),
        ];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
        for v in &row {
            assert_eq!(&roundtrip(v), v);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[]).is_err());
        assert!(decode_row(&[5, 0, 9]).is_err()); // bogus tag 9
        let mut buf = encode_row(&[Value::Str("hello".into())]);
        buf.truncate(buf.len() - 2); // chop string body
        assert!(decode_row(&buf).is_err());
    }

    #[test]
    fn total_order_across_types() {
        let vals = [
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Int(-5),
            Value::Float(-1.5),
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Float(f64::INFINITY),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
        // The sort key orders the same values the same way across types.
        let key = |v: &Value| {
            let mut b = Vec::new();
            v.encode_sort_key(&mut b);
            b
        };
        for w in vals.windows(2) {
            assert!(key(&w[0]) < key(&w[1]), "{} before {}", w[0], w[1]);
        }
        assert_eq!(key(&Value::Int(3)), key(&Value::Float(3.0)));
        let big = 1i64 << 53;
        assert!(key(&Value::Int(big)) < key(&Value::Int(big + 1)));
        assert!(key(&Value::Int(big + 1)) < key(&Value::Float(big as f64 + 2.0)));
        assert!(key(&Value::Int(i64::MAX - 1)) < key(&Value::Int(i64::MAX)));
    }

    #[test]
    fn int_float_equality_and_hash_agree() {
        use std::hash::BuildHasher;
        assert_eq!(Value::Int(3), Value::Float(3.0));
        let b = std::collections::hash_map::RandomState::new();
        let h = |v: &Value| b.hash_one(v);
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn key_encoding_preserves_order_per_type() {
        // Key columns are homogeneously typed (schema validation widens
        // ints in float columns), so order preservation is asserted within
        // each type, with Null sorting below everything.
        let groups: Vec<Vec<Value>> = vec![
            vec![
                Value::Null,
                Value::Int(i64::MIN),
                Value::Int(-1),
                Value::Int(0),
                Value::Int(7),
                Value::Int(i64::MAX),
            ],
            vec![
                Value::Null,
                Value::Float(f64::NEG_INFINITY),
                Value::Float(-1e300),
                Value::Float(-0.0),
                Value::Float(3.25),
                Value::Float(f64::INFINITY),
            ],
            vec![
                Value::Null,
                Value::Str(String::new()),
                Value::Str("a\u{0}b".into()),
                Value::Str("ab".into()),
                Value::Str("b".into()),
            ],
        ];
        for vals in groups {
            let keys: Vec<Vec<u8>> = vals
                .iter()
                .map(|v| {
                    let mut b = Vec::new();
                    v.encode_key(&mut b);
                    b
                })
                .collect();
            for i in 0..keys.len() - 1 {
                assert!(
                    keys[i] < keys[i + 1],
                    "key order broken between {} and {}",
                    vals[i],
                    vals[i + 1]
                );
            }
        }
    }

    #[test]
    fn composite_key_round_trips() {
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Null],
            vec![Value::Int(i64::MIN), Value::Int(-1), Value::Int(i64::MAX)],
            vec![
                Value::Float(-0.0),
                Value::Float(3.25),
                Value::Float(f64::NEG_INFINITY),
            ],
            vec![
                Value::Str(String::new()),
                Value::Str("a\u{0}b".into()),
                Value::Str("plain".into()),
            ],
            vec![
                Value::Int(7),
                Value::Null,
                Value::Str("x".into()),
                Value::Float(-1e300),
            ],
        ];
        for row in rows {
            let key = encode_composite_key(&row);
            let back = decode_key(&key, row.len()).unwrap();
            // Compare bitwise (total_cmp treats -0.0 < 0.0 so Eq is fine,
            // but also check the debug form to catch sign-of-zero slips).
            assert_eq!(format!("{back:?}"), format!("{row:?}"));
        }
    }

    #[test]
    fn composite_key_decode_rejects_garbage() {
        assert!(decode_key(&[0x09], 1).is_err()); // unknown tag
        assert!(decode_key(&[0x02, 1, 2], 1).is_err()); // short int
        assert!(decode_key(&[0x04, b'a'], 1).is_err()); // unterminated
        assert!(decode_key(&[0x04, 0x00, 0x07], 1).is_err()); // bad escape
    }

    /// A key of `n` values, decoded into a row of its own.
    fn decode_key(key: &[u8], n: usize) -> DbResult<Row> {
        let mut row = vec![Value::Null; n];
        decode_key_into(key, &(0..n).collect::<Vec<_>>(), &mut row)?;
        Ok(row)
    }

    #[test]
    fn decoding_over_a_row_overwrites_it_in_place() {
        let key = encode_composite_key(&[Value::Str("ab".into()), Value::Int(-3)]);
        let mut row = vec![Value::Int(9), Value::Null, Value::Str("longer text".into())];
        decode_key_into(&key, &[2, 0], &mut row).unwrap();
        assert_eq!(
            row,
            vec![Value::Int(-3), Value::Null, Value::Str("ab".into())]
        );

        let keep = [true, false, true];
        let rec = encode_row(&[Value::Str("x".into()), Value::Int(1), Value::Float(0.5)]);
        let mut row = vec![Value::Str("old".into()), Value::Int(7), Value::Int(8)];
        decode_row_into(&rec, Some(&keep), &mut row).unwrap();
        assert_eq!(
            row,
            vec![Value::Str("x".into()), Value::Null, Value::Float(0.5)]
        );
        let mut short = vec![Value::Int(1)];
        decode_row_into(&rec, None, &mut short).unwrap();
        assert_eq!(short, decode_row(&rec).unwrap());
    }

    #[test]
    fn composite_keys_are_prefix_free() {
        // ("a", 1) must not collide with ("a\0...",) style confusions.
        let k1 = encode_composite_key(&[Value::Str("a".into()), Value::Int(1)]);
        let k2 = encode_composite_key(&[Value::Str("a\u{0}".into()), Value::Int(1)]);
        let k3 = encode_composite_key(&[Value::Str("a".into()), Value::Int(2)]);
        assert!(k1 < k2);
        assert!(k1 < k3);
        assert_ne!(k2, k3);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(2).is_truthy());
        assert!(Value::Float(0.1).is_truthy());
        assert!(!Value::Str(String::new()).is_truthy());
    }
}
