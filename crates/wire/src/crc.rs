//! CRC-32 (IEEE 802.3 polynomial), slice-by-16.
//!
//! Frames carry a CRC-32 trailer so corrupted management-channel messages
//! are detected rather than misparsed. Implemented from scratch (no external
//! crates, no intrinsics), reflected form, polynomial `0xEDB88320`. A
//! 10 000-entry top-k reply is ≈ 45 KB from a leaf and ≈ 55 KB merged, and
//! is summed once by its sender and once by its receiver on every tree
//! edge, so the loop folds sixteen input bytes per step through sixteen
//! tables (16 KB) built at compile time instead of one byte through one:
//! same polynomial, same values, one dependent lookup chain per 16 bytes.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step, and tables.
const SLICE: usize = 16;

/// `TABLES[k][b]` is the remainder of byte `b` followed by `k` zero bytes:
/// `TABLES[0]` is the classic byte-at-a-time table, and the other fifteen
/// are what lets sixteen bytes be divided independently and xor-ed together.
static TABLES: [[u32; 256]; SLICE] = {
    let mut t = [[0u32; 256]; SLICE];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 * SLICE {
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
    let (blocks, tail) = data.as_chunks::<SLICE>();
    for block in blocks {
        // The running remainder folds into the first four bytes; each byte
        // then contributes its remainder over the bytes that follow it.
        let mut b = *block;
        for (x, r) in b.iter_mut().zip(c.to_le_bytes()) {
            *x ^= r;
        }
        c = 0;
        for (i, &x) in b.iter().enumerate() {
            c ^= t[SLICE - 1 - i][x as usize];
        }
    }
    for &b in tail {
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
