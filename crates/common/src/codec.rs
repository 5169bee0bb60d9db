//! The one binary codec for state that leaves a process: wire frames
//! (`janus-net::wire`) and every stored or shipped blob — cluster and
//! shard checkpoints, bulk-load journals, directory snapshots.
//!
//! All integers are little-endian and `usize` travels as `u64`. Floats
//! travel as their IEEE-754 bit patterns, so `±inf`, `-0.0` and NaN
//! payloads survive bit-exactly. Collections and strings are `u32`
//! count-prefixed; an `Option` is a `0`/`1` tag byte plus the value.
//!
//! Integrity is a CRC32 trailer: [`seal`] appends `crc32_le` of the
//! bytes it covers, and [`unseal`] verifies it before a single field is
//! parsed, so a flipped bit fails with a typed error instead of decoding
//! into a different value. A stored blob is `seal(tag ‖ body)`, with a
//! 4-byte per-type tag ([`to_blob`] / [`from_blob`]), so a blob of the
//! wrong kind is refused too. The decoder is hardened against hostile
//! input: [`Dec::count`] refuses a collection count that could not fit
//! in the bytes left before anything is reserved, and a body with
//! trailing bytes is malformed ([`Dec::finish`]).
//!
//! A [`Dec`] carries the [`JanusError`] constructor its input maps to:
//! `Protocol` for bytes off a socket, `Storage` for bytes off a disk.

use crate::{
    crc32, AggregateFunction, Estimate, JanusError, Moments, Query, QueryTemplate, RangePredicate,
    Rect, Result, Row,
};

/// The [`JanusError`] variant a malformed input maps to.
pub type ErrorKind = fn(String) -> JanusError;

/// Bytes of the CRC32 trailer [`seal`] appends.
pub const TRAILER: usize = 4;

/// Appends the CRC32 of `buf[from..]` to `buf`: `body ‖ crc32_le`.
#[inline]
pub fn seal(buf: &mut Vec<u8>, from: usize) {
    let crc = crc32(&buf[from..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies a [`seal`]ed buffer's trailer and returns the body it
/// covers; `err` builds the error for a short or corrupt buffer.
#[inline]
pub fn unseal<E>(bytes: &[u8], err: impl FnOnce(String) -> E) -> std::result::Result<&[u8], E> {
    if bytes.len() < TRAILER {
        return Err(err(format!(
            "{} bytes is shorter than the CRC trailer",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stated = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stated != computed {
        return Err(err(format!(
            "CRC mismatch: computed {computed:08x}, trailer says {stated:08x}"
        )));
    }
    Ok(body)
}

/// Encodes `value` as a stored blob: `seal(tag ‖ body)`.
pub fn to_blob<T: Encode + ?Sized>(tag: &[u8; 4], value: &T) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(tag);
    value.encode(&mut e);
    seal(&mut e.buf, 0);
    e.buf
}

/// Decodes a blob written by [`to_blob`] with the same `tag`. A bad CRC,
/// a wrong tag, a malformed body or trailing bytes are all
/// [`JanusError::Storage`]; `what` names the blob in the message.
pub fn from_blob<T: Decode>(tag: &[u8; 4], bytes: &[u8], what: &str) -> Result<T> {
    let corrupt = |why: String| JanusError::Storage(format!("corrupt {what}: {why}"));
    let body = unseal(bytes, corrupt)?;
    match body.strip_prefix(tag) {
        Some(body) => {
            let mut d = Dec::new(body, JanusError::Storage);
            let value = T::decode(&mut d)?;
            d.finish()?;
            Ok(value)
        }
        None => Err(corrupt(format!(
            "not a {what} blob (tag {:?})",
            body.get(..4).unwrap_or(body)
        ))),
    }
}

/// A value with one binary encoding.
pub trait Encode {
    /// Appends `self` to `e`.
    fn encode(&self, e: &mut Enc);
}

/// A value decodable from its [`Encode`] layout.
pub trait Decode: Sized {
    /// The fewest bytes one encoded value occupies — the unit
    /// [`Dec::count`] checks a collection count against. Types that
    /// appear in collections state theirs; 1 is always a lower bound.
    const MIN_LEN: usize = 1;

    /// Reads one value.
    fn decode(d: &mut Dec<'_>) -> Result<Self>;
}

/// Encoder: appends fields to a byte buffer.
#[derive(Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `usize` as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Appends an `f64`'s bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends a `bool` as one `0`/`1` byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Appends a collection count.
    #[inline]
    pub fn count(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "collection too large to encode");
        self.u32(n as u32);
    }
    /// Appends a count-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    /// Appends count-prefixed raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.count(b.len());
        self.buf.extend_from_slice(b);
    }
    /// Appends any [`Encode`] value.
    #[inline]
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }
}

/// Decoder: reads fields off a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    err: ErrorKind,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf` whose errors are built by `err`.
    #[inline]
    pub fn new(buf: &'a [u8], err: ErrorKind) -> Self {
        Dec { buf, pos: 0, err }
    }
    /// An error of this decoder's kind.
    #[cold]
    pub fn error(&self, msg: impl Into<String>) -> JanusError {
        (self.err)(msg.into())
    }
    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Reads `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.error(format!(
                "truncated input: needed {n} more bytes, had {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    /// Reads a `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.error(format!("value {v} overflows usize")))
    }
    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads a `0`/`1` byte; any other value is malformed.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format!("invalid bool tag {other}"))),
        }
    }
    /// Reads a collection count and refuses counts that could not
    /// possibly fit in the remaining bytes (each element occupies at
    /// least `min_elem` bytes) — so a hostile count cannot trigger a
    /// huge allocation.
    #[inline]
    pub fn count(&mut self, min_elem: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(self.error(format!(
                "collection count {n} exceeds {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
    /// Reads a count-prefixed `f64` collection in one bounds check: the
    /// bulk form of `get::<Vec<f64>>()`, same layout, for row values and
    /// rectangle corners.
    #[inline]
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        Ok(self
            .take(8 * n)?
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }
    /// Reads a count-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| self.error("string is not valid UTF-8"))
    }
    /// Reads count-prefixed raw bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
    /// Reads any [`Decode`] value.
    #[inline]
    pub fn get<T: Decode>(&mut self) -> Result<T> {
        T::decode(self)
    }
    /// Ends decoding: every byte must have been consumed.
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.error(format!("{n} trailing bytes after the body"))),
        }
    }
}

macro_rules! primitive {
    ($($t:ident => $len:expr),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, e: &mut Enc) {
                e.$t(*self);
            }
        }
        impl Decode for $t {
            const MIN_LEN: usize = $len;
            #[inline]
            fn decode(d: &mut Dec<'_>) -> Result<Self> {
                d.$t()
            }
        }
    )*};
}
primitive!(u32 => 4, u64 => 8, usize => 8, f64 => 8, bool => 1);

impl<T: Encode> Encode for [T] {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.count(self.len());
        for x in self {
            x.encode(e);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        self.as_slice().encode(e);
    }
}

impl<T: Decode> Decode for Vec<T> {
    const MIN_LEN: usize = 4;
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let n = d.count(T::MIN_LEN)?;
        (0..n).map(|_| T::decode(d)).collect()
    }
}

impl<T: Encode> Encode for Option<T> {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.bool(self.is_some());
        if let Some(v) = self {
            v.encode(e);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(if d.bool()? { Some(T::decode(d)?) } else { None })
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

/// Fixed-size arrays carry no count.
impl<const N: usize> Encode for [u64; N] {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        for &x in self {
            e.u64(x);
        }
    }
}

impl<const N: usize> Decode for [u64; N] {
    const MIN_LEN: usize = 8 * N;
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let mut out = [0u64; N];
        for x in &mut out {
            *x = d.u64()?;
        }
        Ok(out)
    }
}

impl Encode for Row {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.u64(self.id);
        self.values.encode(e);
    }
}

impl Decode for Row {
    const MIN_LEN: usize = 12;
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let id = d.u64()?;
        let values = d.f64s()?;
        Ok(Row::new(id, values))
    }
}

impl Encode for AggregateFunction {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            AggregateFunction::Count => 0,
            AggregateFunction::Sum => 1,
            AggregateFunction::Avg => 2,
            AggregateFunction::Min => 3,
            AggregateFunction::Max => 4,
        });
    }
}

impl Decode for AggregateFunction {
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match d.u8()? {
            0 => AggregateFunction::Count,
            1 => AggregateFunction::Sum,
            2 => AggregateFunction::Avg,
            3 => AggregateFunction::Min,
            4 => AggregateFunction::Max,
            other => return Err(d.error(format!("invalid aggregate tag {other}"))),
        })
    }
}

impl Encode for QueryTemplate {
    fn encode(&self, e: &mut Enc) {
        self.agg.encode(e);
        e.usize(self.agg_column);
        self.predicate_columns.encode(e);
    }
}

impl Decode for QueryTemplate {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(QueryTemplate::new(d.get()?, d.usize()?, d.get()?))
    }
}

impl Encode for Query {
    fn encode(&self, e: &mut Enc) {
        self.agg.encode(e);
        e.usize(self.agg_column);
        self.predicate_columns.encode(e);
        self.range.lo().encode(e);
        self.range.hi().encode(e);
    }
}

impl Decode for Query {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let agg = d.get()?;
        let agg_column = d.usize()?;
        let predicate_columns = d.get()?;
        let range = RangePredicate::new(d.f64s()?, d.f64s()?)
            .map_err(|e| d.error(format!("invalid query range: {e}")))?;
        Query::new(agg, agg_column, predicate_columns, range)
            .map_err(|e| d.error(format!("invalid query: {e}")))
    }
}

impl Encode for Rect {
    fn encode(&self, e: &mut Enc) {
        self.lo().encode(e);
        self.hi().encode(e);
    }
}

impl Decode for Rect {
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Rect::new(d.f64s()?, d.f64s()?).map_err(|e| d.error(format!("invalid rectangle: {e}")))
    }
}

impl Encode for Estimate {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.f64(self.value);
        e.f64(self.catchup_variance);
        e.f64(self.sample_variance);
        e.usize(self.covered_nodes);
        e.usize(self.partial_nodes);
        e.usize(self.samples_used);
        e.bool(self.partial);
    }
}

impl Decode for Estimate {
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(Estimate {
            value: d.f64()?,
            catchup_variance: d.f64()?,
            sample_variance: d.f64()?,
            covered_nodes: d.usize()?,
            partial_nodes: d.usize()?,
            samples_used: d.usize()?,
            partial: d.bool()?,
        })
    }
}

impl Encode for Moments {
    #[inline]
    fn encode(&self, e: &mut Enc) {
        e.f64(self.count);
        e.f64(self.sum);
        e.f64(self.sumsq);
    }
}

impl Decode for Moments {
    #[inline]
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        Ok(Moments {
            count: d.f64()?,
            sum: d.f64()?,
            sumsq: d.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: &[u8; 4] = b"TEST";

    #[test]
    fn values_round_trip_bit_exactly() {
        let rows = vec![Row::new(7, vec![1.5, -0.0, f64::NAN]), Row::new(9, vec![])];
        let rect = Some(Rect::unbounded(2));
        let words = [1, u64::MAX, 3, 4];
        let mut e = Enc::default();
        e.put(&rows);
        e.put(&rect);
        e.put(&words);
        let mut d = Dec::new(&e.buf, JanusError::Storage);
        let back_rows: Vec<Row> = d.get().unwrap();
        let back_rect: Option<Rect> = d.get().unwrap();
        let back_words: [u64; 4] = d.get().unwrap();
        d.finish().unwrap();
        let bits = |rs: &[Row]| -> Vec<Vec<u64>> {
            rs.iter()
                .map(|r| r.values.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&back_rows), bits(&rows));
        assert_eq!(back_rect, rect);
        assert_eq!(back_words, words);
    }

    #[test]
    fn a_row_is_twelve_bytes_plus_eight_per_column() {
        let mut e = Enc::default();
        e.put(&Row::new(1, vec![0.0; 5]));
        assert_eq!(e.buf.len(), 52);
    }

    #[test]
    fn wrong_tags_truncation_and_trailing_bytes_are_refused() {
        let blob = to_blob(TAG, &5u64);
        assert_eq!(from_blob::<u64>(TAG, &blob, "n").unwrap(), 5);
        assert!(from_blob::<u64>(b"NOPE", &blob, "n").is_err());
        assert!(from_blob::<u64>(TAG, &blob[..3], "n").is_err());
        let mut long = blob[..blob.len() - TRAILER].to_vec();
        long.push(0);
        seal(&mut long, 0);
        assert!(from_blob::<u64>(TAG, &long, "n").is_err());
    }
}
