//! CRC-32 (IEEE 802.3 polynomial), slice-by-8.
//!
//! Frames carry a CRC-32 trailer so corrupted management-channel messages
//! are detected rather than misparsed. Implemented from scratch (no external
//! crates, no intrinsics), reflected form, polynomial `0xEDB88320`. A top-k
//! reply is 160 KB and is summed once by its sender and once by its
//! receiver on every tree edge, so the loop folds eight input bytes per
//! step through eight tables built at compile time instead of one byte
//! through one: same polynomial, same values, fewer dependent lookups.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the remainder of byte `b` followed by `k` zero bytes:
/// `TABLES[0]` is the classic byte-at-a-time table, and the other seven are
/// what lets eight bytes be divided independently and xor-ed together.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 64 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
            if bit % 8 == 0 {
                t[bit / 8 - 1][b] = c;
            }
        }
        b += 1;
    }
    t
};

/// Computes the CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][ch[4] as usize]
            ^ t[2][ch[5] as usize]
            ^ t[1][ch[6] as usize]
            ^ t[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"some frame payload";
        let good = crc32(data);
        let mut bad = data.to_vec();
        bad[3] ^= 0x10;
        assert_ne!(crc32(&bad), good);
    }
}
