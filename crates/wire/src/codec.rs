//! Encoder/decoder primitives and the [`Encode`]/[`Decode`] traits.

use std::fmt;

/// Errors produced while decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// An enum discriminant or tag byte had no defined meaning.
    InvalidTag(u32),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// Input remained after the top-level value was decoded.
    TrailingBytes(usize),
    /// A declared length exceeded the remaining input (corrupt frame).
    LengthOverrun,
    /// Frame checksum mismatch.
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidTag(t) => write!(f, "invalid tag {t}"),
            WireError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::LengthOverrun => write!(f, "declared length exceeds input"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = Result<T, WireError>;

/// Growable output buffer with primitive write operations.
#[derive(Default, Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing buffer, appending after its current contents —
    /// the streaming path: callers keep one buffer across encodes instead
    /// of allocating a fresh `Vec` per value.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }
}

/// Borrowing reader with primitive read operations.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over a byte slice.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Fails unless the input was fully consumed.
    pub fn finish(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array, for the fixed-width reads.
    pub(crate) fn take_array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a LEB128 varint.
    pub fn get_varint(&mut self) -> WireResult<u64> {
        read_varint(self.input, &mut self.pos)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// The input not yet consumed, left unconsumed: a decoder of a long run
    /// of small fields walks it with [`read_varint`] and slice reads, then
    /// consumes what it used with [`Decoder::get_raw`].
    pub fn unread(&self) -> &'a [u8] {
        &self.input[self.pos..]
    }

    /// Reads a declared collection length, bounding it by the remaining
    /// input so corrupt lengths cannot trigger huge allocations.
    pub fn get_len(&mut self) -> WireResult<usize> {
        let n = self.get_varint()? as usize;
        // Every element needs at least one byte on the wire.
        if n > self.remaining() {
            return Err(WireError::LengthOverrun);
        }
        Ok(n)
    }
}

/// Reads the LEB128 varint at `input[*pos..]` and moves `pos` past it:
/// [`Decoder::get_varint`] over a plain slice and index, which the
/// compiler keeps in registers across a caller's loop. Always inlined: a
/// call per field costs a top-k reply's decode a fifth of its time.
#[inline(always)]
pub fn read_varint(input: &[u8], pos: &mut usize) -> WireResult<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = input.get(*pos) else {
            return Err(WireError::UnexpectedEof);
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
}

/// The zigzag varint value of the step from `prev` to `next`: wrapping, so
/// any order and both ends of `u64` stay exact, and a step of ±n takes
/// about `2n` whatever its sign. Delta-coded fields (reply keys and
/// counts, WAL start times) write this with [`Encoder::put_varint`].
pub fn zigzag_step(prev: u64, next: u64) -> u64 {
    let step = next.wrapping_sub(prev) as i64;
    ((step << 1) ^ (step >> 63)) as u64
}

/// The value that the zigzag step `z` leads to from `prev`: the inverse of
/// [`zigzag_step`].
pub fn unzigzag_step(prev: u64, z: u64) -> u64 {
    prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// Types that can serialize themselves onto an [`Encoder`].
pub trait Encode {
    /// Appends the wire representation of `self`.
    fn encode(&self, enc: &mut Encoder);
}

/// Types that can deserialize themselves from a [`Decoder`].
pub trait Decode: Sized {
    /// Reads one value.
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self>;
}

// --- implementations for primitives and std containers ---

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self as u8);
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::InvalidTag(t as u32)),
        }
    }
}

impl Encode for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(*self as u64);
    }
}

impl Decode for u16 {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_varint()?;
        u16::try_from(v).map_err(|_| WireError::VarintOverflow)
    }
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(*self as u64);
    }
}

impl Decode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_varint()?;
        u32::try_from(v).map_err(|_| WireError::VarintOverflow)
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_varint()
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(*self as u64);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let v = dec.get_varint()?;
        usize::try_from(v).map_err(|_| WireError::VarintOverflow)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            t => Err(WireError::InvalidTag(t as u32)),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let n = dec.get_len()?;
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::decode(dec)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

impl<T: Encode> Encode for &T {
    fn encode(&self, enc: &mut Encoder) {
        (*self).encode(enc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = crate::to_bytes(&v);
        let back: T = crate::from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            rt(v);
        }
    }

    #[test]
    fn varint_sizes() {
        let mut e = Encoder::new();
        e.put_varint(127);
        assert_eq!(e.len(), 1);
        let mut e = Encoder::new();
        e.put_varint(128);
        assert_eq!(e.len(), 2);
        let mut e = Encoder::new();
        e.put_varint(u64::MAX);
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes: overflow.
        let bytes = [0x80u8; 11];
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn containers() {
        rt(Some(42u32));
        rt(Option::<u32>::None);
        rt(vec![1u64, 2, 3]);
        rt(Vec::<u64>::new());
        rt((1u8, 2u16, 3u64));
        rt(vec![(1u32, 2u32), (3, 4)]);
    }

    #[test]
    fn corrupt_length_rejected() {
        // A vec claiming 1000 elements but with 2 bytes of payload.
        let mut e = Encoder::new();
        e.put_varint(1000);
        e.put_u8(1);
        e.put_u8(2);
        let r: WireResult<Vec<u32>> = crate::from_bytes(&e.into_bytes());
        assert_eq!(r, Err(WireError::LengthOverrun));
    }

    #[test]
    fn eof_detected() {
        let r: WireResult<u32> = crate::from_bytes(&[]);
        assert_eq!(r, Err(WireError::UnexpectedEof));
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.get_u32(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn bool_strictness() {
        let r: WireResult<bool> = crate::from_bytes(&[2]);
        assert_eq!(r, Err(WireError::InvalidTag(2)));
    }

    #[test]
    fn fixed_width_endianness() {
        let mut e = Encoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.bytes(), &[0x04, 0x03, 0x02, 0x01]);
    }
}
