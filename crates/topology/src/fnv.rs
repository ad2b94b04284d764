//! A fast FNV-1a-with-final-mix hasher for the per-packet hot paths
//! (trajectory memory, EMC, decode memo): the default SipHash costs more
//! than the rest of those paths combined, and their keys are not
//! attacker-controlled in this reproduction. Lives here so every edge
//! crate shares one implementation (topology is the root dependency).

use crate::ids::{FlowId, Protocol};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The hasher. Byte streams go through the classic per-byte FNV-1a loop;
/// word-sized writes — which is what derived `Hash` impls over ids, tags,
/// and flow fields emit — mix a whole word in one multiply. A murmur-style
/// final avalanche makes up for the coarser mixing (see [`ecmp_hash`] for
/// why raw FNV alone is too weak for bucket selection).
///
/// [`ecmp_hash`]: crate::ecmp_hash
#[derive(Default)]
pub struct FnvHasher(u64);

impl FnvHasher {
    #[inline]
    fn mix_word(&mut self, v: u64) {
        let h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        self.0 = (h ^ v).wrapping_mul(0x1000_0000_01b3);
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix_word(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// Build-hasher alias for [`FnvHasher`].
pub type FnvBuild = BuildHasherDefault<FnvHasher>;

/// A [`FlowId`] as a hash key of two packed words — addresses, then ports
/// and protocol — so [`FnvHasher`] mixes it in two multiplies instead of
/// one per field. The protocol is packed by discriminant, not by
/// [`Protocol::number`]: `Tcp` and `Other(6)` are distinct flows and hash
/// apart. The per-flow maps of the trajectory memory and the top-k merge's
/// dedup set both key on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowKey(pub FlowId);

impl Hash for FlowKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let f = &self.0;
        state.write_u64(((f.src_ip.0 as u64) << 32) | f.dst_ip.0 as u64);
        let proto = match f.proto {
            Protocol::Tcp => 0u64,
            Protocol::Udp => 1,
            Protocol::Other(n) => 0x100 | n as u64,
        };
        state.write_u64(((f.src_port as u64) << 48) | ((f.dst_port as u64) << 32) | proto);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FnvHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        let hashes: Vec<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 1000, "no collisions on small dense inputs");
    }

    #[test]
    fn flow_key_tags_the_protocol_by_discriminant() {
        use crate::ids::Ip;
        let tcp = FlowId::tcp(Ip(1), 2, Ip(3), 4);
        let other6 = FlowId {
            proto: Protocol::Other(6),
            ..tcp
        };
        assert_eq!(tcp.proto.number(), other6.proto.number());
        assert_ne!(hash_of(&FlowKey(tcp)), hash_of(&FlowKey(other6)));
    }

    #[test]
    fn byte_stream_and_empty_input_hash() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&Vec::<u16>::new()), hash_of(&vec![0u16]));
    }
}
