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
    /// A bit-packed field ended in a byte whose pad bits were not zero.
    NonzeroPadding,
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
            WireError::NonzeroPadding => write!(f, "nonzero pad bits after a bit-packed field"),
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
/// about `2n` whatever its sign. Delta-coded fields (top-k counts, WAL
/// start times) write this with [`Encoder::put_varint`], and a histogram
/// reply's keys out of ascending order with [`BitWriter::put_exp_golomb`].
pub fn zigzag_step(prev: u64, next: u64) -> u64 {
    let step = next.wrapping_sub(prev) as i64;
    ((step << 1) ^ (step >> 63)) as u64
}

/// The value that the zigzag step `z` leads to from `prev`: the inverse of
/// [`zigzag_step`].
pub fn unzigzag_step(prev: u64, z: u64) -> u64 {
    prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// Writes exp-Golomb codes onto an [`Encoder`], most significant bit first.
/// The order-`k` code of `v` is `v + 2^k` in binary behind as many zeros as
/// it has bits past the `k + 1`th: `2·bits(v + 2^k) − k − 1` bits in all,
/// one bit for 0 at order 0 and 129 for `u64::MAX`. [`BitWriter::finish`]
/// zero-pads the last byte.
pub struct BitWriter<'a> {
    enc: &'a mut Encoder,
    /// Pending bits in the low `len < 64`, the oldest highest; above them,
    /// bits already written.
    acc: u64,
    len: u32,
}

impl<'a> BitWriter<'a> {
    /// A writer that appends after what `enc` holds.
    pub fn new(enc: &'a mut Encoder) -> Self {
        BitWriter {
            enc,
            acc: 0,
            len: 0,
        }
    }

    /// The low `n <= 64` bits of `bits`, whose other bits are zero.
    #[inline(always)]
    fn put(&mut self, bits: u64, n: u32) {
        let free = 64 - self.len;
        if n < free {
            self.acc = self.acc << n | bits;
            self.len += n;
        } else {
            // Fill the pending word and write it; the rest of `bits` waits.
            let rest = n - free;
            let word = self.acc.checked_shl(free).unwrap_or(0) | bits >> rest;
            self.enc.put_raw(&word.to_be_bytes());
            (self.acc, self.len) = (bits, rest);
        }
    }

    /// The order-`k` exp-Golomb code of `v`, for `k <= 63`.
    #[inline(always)]
    pub fn put_exp_golomb(&mut self, v: u64, k: u32) {
        match v.checked_add(1 << k) {
            // `x` of at most 32 bits: the code fits one `put`.
            Some(x) if x >> 32 == 0 => {
                let len = 64 - x.leading_zeros();
                self.put(x, 2 * len - k - 1);
            }
            _ => self.put_long(u128::from(v) + (1 << k), k),
        }
    }

    /// The code of `x − 2^k` when `x` has more than 32 bits: at most 64
    /// zeros, then the up to 65 bits of `x` in two writes.
    #[cold]
    fn put_long(&mut self, x: u128, k: u32) {
        let len = 128 - x.leading_zeros();
        self.put(0, len - 1 - k);
        self.put((x >> 64) as u64, len.saturating_sub(64));
        self.put(x as u64, len.min(64));
    }

    /// Writes the pending bits, zero-padded to a byte.
    pub fn finish(self) {
        let bytes = self.len.div_ceil(8) as usize;
        let last = self.acc.checked_shl(64 - self.len).unwrap_or(0);
        self.enc.put_raw(&last.to_be_bytes()[..bytes]);
    }
}

/// Reads what a [`BitWriter`] wrote from the front of a byte slice.
pub struct BitReader<'a> {
    input: &'a [u8],
    /// Bits consumed.
    pos: usize,
    /// The `have < 64` bits after `pos`, highest first, then zeros or later bits.
    window: u64,
    have: u32,
}

impl<'a> BitReader<'a> {
    /// A reader at the first bit of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        BitReader {
            input,
            pos: 0,
            window: 0,
            have: 0,
        }
    }

    /// Bits not yet read.
    pub fn bits_left(&self) -> usize {
        self.input.len() * 8 - self.pos
    }

    /// An order-`k` exp-Golomb code, `k <= 63`. More than 64 leading zeros
    /// (more than the code of `u64::MAX` at order 0 has), or a value past
    /// `u64::MAX`, is a `VarintOverflow`; a code the input ends in is an
    /// `UnexpectedEof`.
    #[inline(always)]
    pub fn get_exp_golomb(&mut self, k: u32) -> WireResult<u64> {
        // The usual case, inlined into the caller's loop: the whole code is
        // in the window, which one load fills with 57 bits or more.
        if self.have < 57 {
            let (byte, shift) = (self.pos / 8, self.pos % 8);
            (self.window, self.have) = match self.input.get(byte..).and_then(|s| s.first_chunk()) {
                // At most 63, so that no code shifts out the whole window.
                Some(s) => (u64::from_be_bytes(*s) << shift, (64 - shift as u32).min(63)),
                None => (peek(self.input, self.pos), self.bits_left() as u32),
            };
        }
        if k == 0 && self.window >> 63 == 1 {
            // The one-bit code of 0.
            self.window <<= 1;
            self.have -= 1;
            self.pos += 1;
            return Ok(0);
        }
        let len = 2 * self.window.leading_zeros() + k + 1;
        if len > self.have {
            let (v, pos) = get_long(self.input, self.pos, k)?;
            (self.pos, self.have) = (pos, 0);
            return Ok(v);
        }
        let v = (self.window >> (64 - len)) - (1 << k);
        self.window <<= len;
        self.have -= len;
        self.pos += len as usize;
        Ok(v)
    }

    /// The bytes read, the last one's pad included, once the pad bits are
    /// checked to be zero.
    pub fn finish(self) -> WireResult<usize> {
        let used = self.pos.div_ceil(8);
        let pad = used * 8 - self.pos;
        if pad > 0 && self.input[used - 1] & ((1 << pad) - 1) != 0 {
            return Err(WireError::NonzeroPadding);
        }
        Ok(used)
    }
}

/// The 64 bits of `input` from bit `pos` on, zeros past its end.
fn peek(input: &[u8], pos: usize) -> u64 {
    let mut w = [0; 16];
    let tail = input.get(pos / 8..).unwrap_or_default();
    let n = tail.len().min(9);
    w[..n].copy_from_slice(&tail[..n]);
    (u128::from_be_bytes(w) << (pos % 8) >> 64) as u64
}

/// [`BitReader::get_exp_golomb`] of a code at bit `pos` of `input` that its
/// window does not hold: the value and the bit after the code.
#[cold]
fn get_long(input: &[u8], mut pos: usize, k: u32) -> WireResult<(u64, usize)> {
    let left = input.len() * 8 - pos;
    let zeros = match peek(input, pos).leading_zeros() {
        64 if left <= 64 => return Err(WireError::UnexpectedEof),
        64 if input[(pos + 64) / 8] << ((pos + 64) % 8) < 0x80 => {
            return Err(WireError::VarintOverflow);
        }
        z => z,
    };
    if 2 * zeros as usize + k as usize + 1 > left {
        return Err(WireError::UnexpectedEof);
    }
    pos += zeros as usize + 1;
    // The `zeros + k` bits after the leading one, in at most two reads.
    let mut low = 0u128;
    for n in [(zeros + k).saturating_sub(64), (zeros + k).min(64)] {
        low = low << n | u128::from(peek(input, pos).checked_shr(64 - n).unwrap_or(0));
        pos += n as usize;
    }
    let v = (1 << (zeros + k) | low) - (1 << k);
    Ok((
        u64::try_from(v).map_err(|_| WireError::VarintOverflow)?,
        pos,
    ))
}

/// The exp-Golomb order `k` that codes `values` in the fewest bits (the
/// smallest such `k`), from two histograms over the values' bit lengths.
///
/// At order `k` a value of `b` bits costs `k + 1` bits if `b <= k`, and
/// otherwise `2(b − k) + k − 1`, two more when its bits from the top down
/// to bit `k` are all ones (adding `2^k` then carries into a new bit).
/// Those bits are all ones exactly when `k >= c`, where `c < b` is the bit
/// length of the value's complement within its `b` bits. So going from
/// order `k − 1` to `k` costs one bit more for each value of fewer than `k`
/// bits, one less for each other value, and two more for each value whose
/// `c` is `k`.
pub fn exp_golomb_order(values: impl Iterator<Item = u64>) -> u32 {
    // Per bit length: values of it, and values whose complement has it.
    let (mut lens, mut carries, mut longest) = ([0u32; 65], [0u32; 65], 0);
    for v in values {
        let b = 64 - v.leading_zeros();
        let complement = !v & u64::MAX.checked_shr(64 - b).unwrap_or(0);
        lens[b as usize] += 1;
        carries[(64 - complement.leading_zeros()) as usize] += 1;
        longest = longest.max(b as usize);
    }
    let n: i64 = lens.iter().map(|&c| i64::from(c)).sum();
    // Past the longest value, every order costs one bit more per value.
    let (mut cost, mut best, mut best_k, mut short) = (0, 0, 0, i64::from(lens[0]));
    for k in 1..=longest.min(63) {
        cost += short - (n - short) + 2 * i64::from(carries[k]);
        short += i64::from(lens[k]);
        if cost < best {
            (best, best_k) = (cost, k as u32);
        }
    }
    best_k
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
