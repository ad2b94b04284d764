//! Compact binary wire format for controller ↔ host messages.
//!
//! The paper exchanges queries and responses between the controller and the
//! PathDump agents over a Flask REST channel (§3). This reproduction replaces
//! that channel with an in-process message bus, but still **serializes every
//! message** through this codec so that the traffic volumes reported for
//! Figures 11 and 12 are measured from real encoded bytes rather than
//! estimated.
//!
//! The format is deliberately simple: little-endian fixed-width integers,
//! LEB128 varints for counts and 64-bit values, exp-Golomb bit codes for the
//! histogram reply's bins, and length-prefixed frames with a CRC-32
//! trailer. It has exactly the primitives some message uses.

pub mod codec;
pub mod crc;
pub mod frame;
pub mod types;

pub use codec::{
    exp_golomb_order, read_varint, unzigzag_step, zigzag_step, BitReader, BitWriter, Decode,
    Decoder, Encode, Encoder, WireError, WireResult,
};
pub use frame::{Frame, FRAME_OVERHEAD};

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Encodes a value into a caller-provided buffer, appending after its
/// current contents. The streaming counterpart of [`to_bytes`]: batch
/// encoders (snapshots, frame assembly) reuse one buffer across values
/// instead of materializing a `Vec` per value.
pub fn encode_into<T: Encode + ?Sized>(value: &T, out: &mut Vec<u8>) {
    let mut enc = Encoder::from_vec(std::mem::take(out));
    value.encode(&mut enc);
    *out = enc.into_bytes();
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> WireResult<T> {
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// The encoded size of a value, in bytes (what would go on the management
/// network for this payload).
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> usize {
    to_bytes(value).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_helpers() {
        let v: Vec<u32> = vec![1, 2, 3, 500];
        let bytes = to_bytes(&v);
        let back: Vec<u32> = from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
        assert_eq!(encoded_len(&v), bytes.len());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0xff);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn encode_into_appends_and_matches_to_bytes() {
        let v: Vec<u32> = vec![9, 10, 11];
        let mut buf = vec![0xAA, 0xBB];
        encode_into(&v, &mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB], "existing contents preserved");
        assert_eq!(&buf[2..], &to_bytes(&v)[..], "same wire bytes appended");
        // Reuse without reallocation: capacity carries over.
        let cap = buf.capacity();
        buf.clear();
        encode_into(&42u64, &mut buf);
        assert_eq!(buf, to_bytes(&42u64));
        assert_eq!(buf.capacity(), cap, "buffer was reused, not replaced");
    }
}
