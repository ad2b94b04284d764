//! Length-delimited frames with type tags and CRC-32 trailers.
//!
//! Every controller ↔ host message travels as one frame:
//!
//! ```text
//! +----------+----------+---------------+----------+
//! | len: u32 | typ: u16 | payload bytes | crc: u32 |
//! +----------+----------+---------------+----------+
//! ```
//!
//! `len` covers `typ + payload`; `crc` covers `typ + payload`. The 10 bytes
//! of `len`/`typ`/`crc` are [`FRAME_OVERHEAD`], counted in the traffic
//! accounting of Figures 11/12 the same way the paper's HTTP framing would
//! have been.
//!
//! The layout is written down in two places in this file and nowhere
//! else: forwards in [`Frame::build_into`], which [`Frame::build`] (a
//! value encoded straight into the frame's one buffer) and `to_wire` go
//! through, and backwards in [`Frame::parse`], which hands the payload out
//! as a slice of its input and which `from_wire` copies from.

use crate::codec::{Encode, Encoder, WireError, WireResult};
use crate::crc::crc32;

/// Fixed per-frame byte overhead (length, type, checksum).
pub const FRAME_OVERHEAD: usize = 4 + 2 + 4;

/// A decoded frame: message type plus raw payload bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Application-level message type tag.
    pub typ: u16,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(typ: u16, payload: Vec<u8>) -> Self {
        Frame { typ, payload }
    }

    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        FRAME_OVERHEAD + self.payload.len()
    }

    /// Serializes the frame.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        Frame::build_into(&mut out, self.typ, |enc| enc.put_raw(&self.payload));
        out
    }

    /// The wire bytes of a frame carrying `value`, encoded in place: byte
    /// for byte `Frame::new(typ, to_bytes(value)).to_wire()`, without the
    /// payload vector in between.
    pub fn build<T: Encode + ?Sized>(typ: u16, value: &T) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_OVERHEAD);
        Frame::build_into(&mut out, typ, |enc| value.encode(enc));
        out
    }

    /// Appends one frame to `out`, encoded in place: a length placeholder,
    /// `typ`, whatever `payload` writes, then the length patched in and the
    /// CRC appended. A writer that frames into one buffer it keeps calls
    /// this directly.
    pub fn build_into(out: &mut Vec<u8>, typ: u16, payload: impl FnOnce(&mut Encoder)) {
        let start = out.len();
        let mut enc = Encoder::from_vec(std::mem::take(out));
        enc.put_u32(0);
        enc.put_u16(typ);
        payload(&mut enc);
        *out = enc.into_bytes();
        let body_len = out.len() - start - 4;
        out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Parses one frame from the front of `input` without copying it:
    /// its type, its payload as a slice of `input`, and the number of
    /// bytes consumed.
    pub fn parse(input: &[u8]) -> WireResult<(u16, &[u8], usize)> {
        let eof = WireError::UnexpectedEof;
        let (len, rest) = input.split_first_chunk::<4>().ok_or(eof)?;
        let body_len = u32::from_le_bytes(*len) as usize;
        if body_len < 2 {
            return Err(WireError::LengthOverrun);
        }
        let (body, rest) = rest.split_at_checked(body_len).ok_or(eof)?;
        let crc_stored = rest.first_chunk::<4>().ok_or(eof)?;
        if crc32(body) != u32::from_le_bytes(*crc_stored) {
            return Err(WireError::BadChecksum);
        }
        // Cannot fail: `body_len >= 2` was checked above.
        let (typ, payload) = body.split_first_chunk::<2>().ok_or(eof)?;
        Ok((u16::from_le_bytes(*typ), payload, 4 + body_len + 4))
    }

    /// Parses one frame from the front of `input`, returning it together
    /// with the number of bytes consumed.
    pub fn from_wire(input: &[u8]) -> WireResult<(Frame, usize)> {
        let (typ, payload, used) = Frame::parse(input)?;
        Ok((Frame::new(typ, payload.to_vec()), used))
    }
}

/// Splits a byte stream into consecutive frames.
///
/// Returns the frames and fails if the stream ends mid-frame or a checksum
/// is bad.
pub fn split_stream(mut input: &[u8]) -> WireResult<Vec<Frame>> {
    let mut frames = Vec::new();
    while !input.is_empty() {
        let (f, used) = Frame::from_wire(input)?;
        frames.push(f);
        input = &input[used..];
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Frame::new(7, vec![1, 2, 3, 4, 5]);
        let wire = f.to_wire();
        assert_eq!(wire.len(), f.wire_len());
        let (back, used) = Frame::from_wire(&wire).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn empty_payload() {
        let f = Frame::new(0, vec![]);
        let wire = f.to_wire();
        assert_eq!(wire.len(), FRAME_OVERHEAD);
        let (back, _) = Frame::from_wire(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn corrupted_payload_detected() {
        let f = Frame::new(3, vec![9; 32]);
        let mut wire = f.to_wire();
        wire[10] ^= 0x01;
        assert_eq!(Frame::from_wire(&wire), Err(WireError::BadChecksum));
    }

    #[test]
    fn corrupted_type_detected() {
        let f = Frame::new(3, vec![9; 8]);
        let mut wire = f.to_wire();
        wire[4] ^= 0x80; // flip a bit in `typ`
        assert_eq!(Frame::from_wire(&wire), Err(WireError::BadChecksum));
    }

    #[test]
    fn truncated_frame_detected() {
        let f = Frame::new(3, vec![9; 8]);
        let wire = f.to_wire();
        for cut in 0..wire.len() {
            assert!(Frame::from_wire(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn stream_of_frames() {
        let a = Frame::new(1, vec![1]);
        let b = Frame::new(2, vec![2, 2]);
        let c = Frame::new(3, vec![]);
        let mut stream = Vec::new();
        stream.extend(a.to_wire());
        stream.extend(b.to_wire());
        stream.extend(c.to_wire());
        let frames = split_stream(&stream).unwrap();
        assert_eq!(frames, vec![a, b, c]);
        assert!(split_stream(&stream[..stream.len() - 1]).is_err());
    }
}
