//! Serializable queries, responses, and the merge semantics used by both
//! the direct and multi-level aggregation mechanisms (§3.2).
//!
//! Every query and response crosses the management network through the
//! `pathdump-wire` codec, so the Figure 11/12 traffic numbers come from
//! real encoded frames.

use pathdump_topology::{
    FlowId, FlowKey, FnvBuild, Ip, LinkPattern, Nanos, Path, Protocol, TimeRange,
};
use pathdump_wire::{
    exp_golomb_order, read_varint, unzigzag_step, zigzag_step, BitReader, BitWriter, Decode,
    Decoder, Encode, Encoder, WireError, WireResult,
};
use std::collections::HashSet;

/// A query executable on a host agent (the Host API of Table 1 plus the
/// composite traffic-measurement queries of §2.3).
#[derive(Clone, PartialEq, Debug)]
pub enum Query {
    /// `getFlows(linkID, timeRange)`.
    GetFlows {
        /// Link pattern (wildcards allowed).
        link: LinkPattern,
        /// Time window.
        range: TimeRange,
    },
    /// `getPaths(flowID, linkID, timeRange)`.
    GetPaths {
        /// The flow.
        flow: FlowId,
        /// Link pattern.
        link: LinkPattern,
        /// Time window.
        range: TimeRange,
    },
    /// `getCount(Flow, timeRange)`.
    GetCount {
        /// The flow.
        flow: FlowId,
        /// Restrict to one path (the `Flow` pair of §2.1), or all paths.
        path: Option<Path>,
        /// Time window.
        range: TimeRange,
    },
    /// `getDuration(Flow, timeRange)`.
    GetDuration {
        /// The flow.
        flow: FlowId,
        /// Restrict to one path, or all paths.
        path: Option<Path>,
        /// Time window.
        range: TimeRange,
    },
    /// `getPoorTCPFlows(threshold)`.
    GetPoorTcp {
        /// Consecutive-retransmission threshold.
        threshold: u32,
    },
    /// Flow-size distribution over a link: histogram of per-flow byte
    /// totals in `bin_bytes` buckets (the §4.2 / Figure 11 query).
    FlowSizeDist {
        /// Link pattern.
        link: LinkPattern,
        /// Time window.
        range: TimeRange,
        /// Histogram bin width in bytes (the paper uses 10 000).
        bin_bytes: u64,
    },
    /// Top-k flows by bytes (the §2.3 / Figure 12 query).
    TopK {
        /// How many flows.
        k: u32,
        /// Time window.
        range: TimeRange,
    },
    /// Per (srcIP, dstIP) byte totals — the traffic-matrix query.
    TrafficMatrix {
        /// Time window.
        range: TimeRange,
    },
    /// Flows exceeding a byte threshold (heavy hitters).
    HeavyHitters {
        /// Byte threshold.
        min_bytes: u64,
        /// Time window.
        range: TimeRange,
    },
}

/// A response, mergeable across hosts.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Flow list (deduplicated on merge).
    Flows(Vec<FlowId>),
    /// Path list (deduplicated on merge).
    Paths(Vec<Path>),
    /// Byte/packet counters (summed on merge).
    Count {
        /// Bytes.
        bytes: u64,
        /// Packets.
        pkts: u64,
    },
    /// Duration (max on merge).
    Duration(Nanos),
    /// Histogram: bin index → flow count (summed per bin on merge).
    ///
    /// Its wire form (tag 4) packs the bins into one bitstream of
    /// exp-Golomb codes:
    ///
    /// - `bin_bytes` (varint), then the bin count `n` (varint).
    /// - A header byte: bit 6 set when the keys strictly ascend, bits 0–5 an
    ///   order `k`; bit 7 is clear. The encoder picks the `k` that makes the
    ///   reply smallest ([`exp_golomb_order`]).
    /// - Per bin, most significant bit first: the order-`k` exp-Golomb code
    ///   of the key's gap, `key − previous key − 1` when the keys ascend (the
    ///   first key itself), else of the zigzag of the wrapping step from the
    ///   previous key (the first against 0); then the order-0 exp-Golomb
    ///   (Elias-gamma) code of `count − 1`, wrapping.
    /// - Zero bits to the next byte boundary.
    ///
    /// The store and the merge emit ascending keys, mostly a few apart,
    /// and most bins of a flow-size distribution hold one flow, whose count
    /// takes one bit. The zigzag and the wrapping keep any order, repeated
    /// keys and both ends of `u64` exact; a code is at most 129 bits
    /// (`u64::MAX` at order 0). The decoder returns a `WireError` for a
    /// header with bit 7 set, a bin count larger than the bits left allow
    /// (two per bin), a code with more than 64 leading zeros or a value
    /// past `u64::MAX` (an ascending key included), and nonzero pad bits.
    Hist {
        /// Bin width in bytes.
        bin_bytes: u64,
        /// bin → count, strictly ascending by bin; `merge` restores the
        /// order if a caller breaks it.
        bins: Vec<(u64, u64)>,
    },
    /// Top-k (merged and re-truncated to `k`; "(n−1)·k key-value pairs are
    /// discarded during aggregation", §5.2).
    ///
    /// The largest message on the management network, so its wire form
    /// (tag 5) is table-coded rather than `k` and a list of
    /// `(varint bytes, 13-byte flow id)`:
    ///
    /// - `k`, then the entry count. An empty list stops here.
    /// - The distinct source addresses in first-appearance order, a count
    ///   and 4 bytes each, then the distinct `(dst_ip, dst_port, proto)`
    ///   triples the same way, 7 bytes each (protocol by number, as in a
    ///   flow id). A host's reply names its own address once and ≈ 127
    ///   sources, so 12 of a flow id's 13 bytes repeat across a reply;
    ///   the tables carry them once. They come first so the decoder knows
    ///   every size, and whether an entry carries a destination index,
    ///   before it allocates.
    /// - Per entry: the zigzag varint of `bytes − previous bytes`
    ///   (wrapping; the first is against 0), the source index (varint), the
    ///   source port (2 bytes, little-endian) and the destination index
    ///   (varint). In the descending order the store and the merge emit, a
    ///   difference is a byte or two where the count is three; zigzag keeps
    ///   any order exact, including the unsorted input `merge` re-sorts.
    ///
    /// **A destination table of one entry leaves the destination index
    /// out** of every entry: a host's own reply names one destination, so
    /// its entries are a count step, a source index and a port.
    ///
    /// A count larger than the remaining input allows, or an index beyond
    /// its table, is a `WireError`.
    TopK {
        /// k.
        k: u32,
        /// Descending by `(bytes, flow)`, one entry per flow; `merge`
        /// restores the order if a caller breaks it.
        entries: Vec<(u64, FlowId)>,
    },
    /// (srcIP, dstIP) → bytes (summed on merge), strictly ascending by
    /// address pair; `merge` restores the order if a caller breaks it.
    Matrix(Vec<((Ip, Ip), u64)>),
}

impl Response {
    /// Merges another response of the same variant into `self`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched variants (a protocol error).
    pub fn merge(&mut self, other: Response) {
        match (self, other) {
            // Flows/Paths merge into *canonical sorted order* (sort +
            // dedup), not first-occurrence order. Like the TopK max-dedup
            // below, this makes the merge a semilattice — associative,
            // commutative, idempotent — so an aggregation tree merging
            // child responses in whatever order they arrive over a real
            // transport is bit-identical to the in-process reference
            // merging in modeled-arrival order (pinned by the rpc crate's
            // tree-equivalence differential suite).
            (Response::Flows(a), Response::Flows(b)) => {
                a.extend(b);
                a.sort_unstable();
                a.dedup();
            }
            (Response::Paths(a), Response::Paths(b)) => {
                a.extend(b);
                a.sort_unstable();
                a.dedup();
            }
            (
                Response::Count { bytes, pkts },
                Response::Count {
                    bytes: b2,
                    pkts: p2,
                },
            ) => {
                *bytes += b2;
                *pkts += p2;
            }
            (Response::Duration(a), Response::Duration(b)) => {
                if b > *a {
                    *a = b;
                }
            }
            (
                Response::Hist { bin_bytes, bins },
                Response::Hist {
                    bin_bytes: bb2,
                    bins: bins2,
                },
            ) => {
                debug_assert_eq!(*bin_bytes, bb2, "histogram bin widths must agree");
                merge_sums(bins, bins2);
            }
            (Response::TopK { k, entries }, Response::TopK { k: k2, entries: e2 }) => {
                debug_assert_eq!(*k, k2, "k must agree across hosts");
                merge_top_k(*k as usize, entries, e2);
            }
            (Response::Matrix(a), Response::Matrix(b)) => merge_sums(a, b),
            (s, o) => panic!("cannot merge {s:?} with {o:?}"),
        }
    }

    /// An empty response of the right shape for a query.
    pub fn empty_for(q: &Query) -> Response {
        match q {
            Query::GetFlows { .. } | Query::GetPoorTcp { .. } | Query::HeavyHitters { .. } => {
                Response::Flows(Vec::new())
            }
            Query::GetPaths { .. } => Response::Paths(Vec::new()),
            Query::GetCount { .. } => Response::Count { bytes: 0, pkts: 0 },
            Query::GetDuration { .. } => Response::Duration(Nanos::ZERO),
            Query::FlowSizeDist { bin_bytes, .. } => Response::Hist {
                bin_bytes: *bin_bytes,
                bins: Vec::new(),
            },
            Query::TopK { k, .. } => Response::TopK {
                k: *k,
                entries: Vec::new(),
            },
            Query::TrafficMatrix { .. } => Response::Matrix(Vec::new()),
        }
    }
}

/// Max-dedup top-k of two entry lists into `a`, under the total order of
/// `TibRead::top_k_flows`: `(bytes, flow)` descending, so equal-byte ties
/// break by flow id. Both sides arrive in that order (`select_top_k` and every
/// earlier merge emit it), so a two-way merge that stops at `k` outputs
/// does it; a side that is out of order is sorted first, so that on any
/// input the result is that of concatenate, sort, keep each flow's first
/// entry, truncate. A flow's first entry in merged order is its max. The
/// dedup must be *global* (a set), not adjacent-only, or a flow that hosts
/// report with different byte counts occupies two of the k slots and a
/// multi-level tree (which merges the duplicates while adjacent, deeper
/// down) disagrees with a direct fan-in on the k-th entry; the set hashes a
/// flow as the two packed words of [`FlowKey`]. The per-flow max makes the
/// merge associative, commutative and idempotent, so any merge tree yields
/// the same top-k.
fn merge_top_k(k: usize, a: &mut Vec<(u64, FlowId)>, mut b: Vec<(u64, FlowId)>) {
    for side in [&mut *a, &mut b] {
        if !side.is_sorted_by(|x, y| x >= y) {
            side.sort_unstable_by(|x, y| y.cmp(x));
        }
    }
    let cap = k.min(a.len() + b.len());
    let mut seen = HashSet::with_capacity_and_hasher(cap, FnvBuild::default());
    let mut out = Vec::with_capacity(cap);
    let (mut i, mut j) = (0, 0);
    while out.len() < k {
        let (e, own) = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x < y => (*y, false),
            (Some(x), _) => (*x, true),
            (None, Some(y)) => (*y, false),
            (None, None) => break,
        };
        *(if own { &mut i } else { &mut j }) += 1;
        if seen.insert(FlowKey(e.1)) {
            out.push(e);
        }
    }
    *a = out;
}

/// Per-key sums of two lists into `a` (`Hist` bins, `Matrix` cells). Both
/// sides arrive ascending by key (`execute_on_tib` and every earlier merge
/// emit that), so a two-way merge that folds equal adjacent keys does it;
/// a side that is out of order is stably sorted first, so that on any
/// input the result is that of the `HashMap` fold this replaces — where a
/// key repeated inside `a` kept its last value and inside `b` was summed.
fn merge_sums<K: Ord + Copy>(a: &mut Vec<(K, u64)>, mut b: Vec<(K, u64)>) {
    for side in [&mut *a, &mut b] {
        if !side.is_sorted_by(|x, y| x.0 <= y.0) {
            side.sort_by_key(|e| e.0);
        }
    }
    let mut out: Vec<(K, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    loop {
        let (e, own) = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if y.0 < x.0 => (*y, false),
            (Some(x), _) => (*x, true),
            (None, Some(y)) => (*y, false),
            (None, None) => break,
        };
        *(if own { &mut i } else { &mut j }) += 1;
        match out.last_mut() {
            Some(last) if last.0 == e.0 => last.1 = if own { e.1 } else { last.1 + e.1 },
            _ => out.push(e),
        }
    }
    *a = out;
}

// --- wire encoding ---------------------------------------------------------

impl Encode for Query {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Query::GetFlows { link, range } => {
                enc.put_u8(0);
                link.encode(enc);
                range.encode(enc);
            }
            Query::GetPaths { flow, link, range } => {
                enc.put_u8(1);
                flow.encode(enc);
                link.encode(enc);
                range.encode(enc);
            }
            Query::GetCount { flow, path, range } => {
                enc.put_u8(2);
                flow.encode(enc);
                path.encode(enc);
                range.encode(enc);
            }
            Query::GetDuration { flow, path, range } => {
                enc.put_u8(3);
                flow.encode(enc);
                path.encode(enc);
                range.encode(enc);
            }
            Query::GetPoorTcp { threshold } => {
                enc.put_u8(4);
                enc.put_varint(*threshold as u64);
            }
            Query::FlowSizeDist {
                link,
                range,
                bin_bytes,
            } => {
                enc.put_u8(5);
                link.encode(enc);
                range.encode(enc);
                enc.put_varint(*bin_bytes);
            }
            Query::TopK { k, range } => {
                enc.put_u8(6);
                enc.put_varint(*k as u64);
                range.encode(enc);
            }
            Query::TrafficMatrix { range } => {
                enc.put_u8(7);
                range.encode(enc);
            }
            Query::HeavyHitters { min_bytes, range } => {
                enc.put_u8(8);
                enc.put_varint(*min_bytes);
                range.encode(enc);
            }
        }
    }
}

impl Decode for Query {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(match dec.get_u8()? {
            0 => Query::GetFlows {
                link: LinkPattern::decode(dec)?,
                range: TimeRange::decode(dec)?,
            },
            1 => Query::GetPaths {
                flow: FlowId::decode(dec)?,
                link: LinkPattern::decode(dec)?,
                range: TimeRange::decode(dec)?,
            },
            2 => Query::GetCount {
                flow: FlowId::decode(dec)?,
                path: Option::<Path>::decode(dec)?,
                range: TimeRange::decode(dec)?,
            },
            3 => Query::GetDuration {
                flow: FlowId::decode(dec)?,
                path: Option::<Path>::decode(dec)?,
                range: TimeRange::decode(dec)?,
            },
            4 => Query::GetPoorTcp {
                threshold: u32::decode(dec)?,
            },
            5 => Query::FlowSizeDist {
                link: LinkPattern::decode(dec)?,
                range: TimeRange::decode(dec)?,
                bin_bytes: dec.get_varint()?,
            },
            6 => Query::TopK {
                k: u32::decode(dec)?,
                range: TimeRange::decode(dec)?,
            },
            7 => Query::TrafficMatrix {
                range: TimeRange::decode(dec)?,
            },
            8 => Query::HeavyHitters {
                min_bytes: dec.get_varint()?,
                range: TimeRange::decode(dec)?,
            },
            t => return Err(WireError::InvalidTag(t as u32)),
        })
    }
}

impl Encode for Response {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Response::Flows(v) => {
                enc.put_u8(0);
                v.encode(enc);
            }
            Response::Paths(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
            Response::Count { bytes, pkts } => {
                enc.put_u8(2);
                enc.put_varint(*bytes);
                enc.put_varint(*pkts);
            }
            Response::Duration(d) => {
                enc.put_u8(3);
                d.encode(enc);
            }
            Response::Hist { bin_bytes, bins } => {
                enc.put_u8(4);
                enc.put_varint(*bin_bytes);
                enc.put_varint(bins.len() as u64);
                let ascending = bins.windows(2).all(|w| w[0].0 < w[1].0);
                let k = exp_golomb_order(key_gaps(bins, ascending));
                enc.put_u8(u8::from(ascending) << 6 | k as u8);
                let mut bits = BitWriter::new(enc);
                for (gap, &(_, count)) in key_gaps(bins, ascending).zip(bins) {
                    bits.put_exp_golomb(gap, k);
                    bits.put_exp_golomb(count.wrapping_sub(1), 0);
                }
                bits.finish();
            }
            Response::TopK { k, entries } => {
                enc.put_u8(5);
                k.encode(enc);
                encode_top_k(entries, enc);
            }
            Response::Matrix(v) => {
                enc.put_u8(6);
                v.encode(enc);
            }
        }
    }
}

impl Decode for Response {
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(match dec.get_u8()? {
            0 => Response::Flows(Vec::<FlowId>::decode(dec)?),
            1 => Response::Paths(Vec::<Path>::decode(dec)?),
            2 => Response::Count {
                bytes: dec.get_varint()?,
                pkts: dec.get_varint()?,
            },
            3 => Response::Duration(Nanos::decode(dec)?),
            4 => {
                let bin_bytes = dec.get_varint()?;
                let n = dec.get_varint()?;
                let header = dec.get_u8()?;
                if header >= 0x80 {
                    return Err(WireError::InvalidTag(header.into()));
                }
                let (ascending, k) = (header & 0x40 != 0, u32::from(header & 0x3F));
                let mut bits = BitReader::new(dec.unread());
                // A bin takes two bits or more: a key code and a count code.
                if n > (bits.bits_left() / 2) as u64 {
                    return Err(WireError::LengthOverrun);
                }
                let mut bins = Vec::with_capacity(n as usize);
                let mut key = 0u64;
                for i in 0..n {
                    let gap = bits.get_exp_golomb(k)?;
                    key = match (ascending, i) {
                        (false, _) => unzigzag_step(key, gap),
                        (true, 0) => gap,
                        // Past `u64::MAX`, an ascending key is corrupt.
                        (true, _) => key
                            .checked_add(gap)
                            .and_then(|key| key.checked_add(1))
                            .ok_or(WireError::VarintOverflow)?,
                    };
                    bins.push((key, bits.get_exp_golomb(0)?.wrapping_add(1)));
                }
                let used = bits.finish()?;
                dec.get_raw(used)?;
                Response::Hist { bin_bytes, bins }
            }
            5 => Response::TopK {
                k: u32::decode(dec)?,
                entries: decode_top_k(dec)?,
            },
            6 => Response::Matrix(Vec::<((Ip, Ip), u64)>::decode(dec)?),
            t => return Err(WireError::InvalidTag(t as u32)),
        })
    }
}

/// The values a histogram reply codes its keys as (see [`Response::Hist`]):
/// with `ascending`, each key less the one before it, less one (the first
/// key itself); otherwise the zigzag of each wrapping step from the key
/// before it (the first against 0).
fn key_gaps(bins: &[(u64, u64)], ascending: bool) -> impl Iterator<Item = u64> + '_ {
    let mut prev = if ascending { u64::MAX } else { 0 };
    bins.iter().map(move |&(key, _)| {
        let gap = if ascending {
            key.wrapping_sub(prev).wrapping_sub(1)
        } else {
            zigzag_step(prev, key)
        };
        prev = key;
        gap
    })
}

/// The `(dst_ip, dst_port, proto)` of a flow packed as the little-endian
/// bytes of its wire table entry: address in bytes 0–3, port in 4–5,
/// protocol number in 6.
fn dst_key(f: &FlowId) -> u64 {
    u64::from(f.dst_ip.0) | u64::from(f.dst_port) << 32 | u64::from(f.proto.number()) << 48
}

/// Numbers distinct keys in first-appearance order: one table of a top-k
/// reply. Open addressing over a power-of-two array of `(key, index)`
/// slots at most a quarter full, so a lookup is a multiply and, nearly
/// always, one load.
struct Interner {
    /// The distinct keys; a key's index is its position.
    keys: Vec<u64>,
    /// `(key, index)` per slot; a free slot's key is [`Interner::FREE`].
    slots: Vec<(u64, u32)>,
    /// `64 − log2(slots.len())`: the hash is the top bits of a multiply.
    shift: u32,
}

impl Interner {
    /// No key: addresses are 32 bits and destination triples 56.
    const FREE: u64 = u64::MAX;

    fn new() -> Self {
        Interner {
            keys: Vec::new(),
            slots: vec![(Self::FREE, 0); 64],
            shift: 64 - 6,
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn index(&mut self, key: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut s = self.home(key);
        loop {
            match self.slots[s] {
                (k, i) if k == key => return i,
                (Self::FREE, _) => return self.insert(key, s),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Files `key` in the free slot `s`; doubles the slots past a quarter.
    #[cold]
    fn insert(&mut self, key: u64, s: usize) -> u32 {
        let i = self.keys.len() as u32;
        self.keys.push(key);
        self.slots[s] = (key, i);
        if self.keys.len() * 4 > self.slots.len() {
            self.shift -= 1;
            self.slots = vec![(Self::FREE, 0); self.slots.len() * 2];
            let mask = self.slots.len() - 1;
            for (i, &k) in self.keys.iter().enumerate() {
                let mut s = self.home(k);
                while self.slots[s].0 != Self::FREE {
                    s = (s + 1) & mask;
                }
                self.slots[s] = (k, i as u32);
            }
        }
        i
    }
}

/// Writes a top-k entry list in the table-coded layout documented on
/// [`Response::TopK`]. A pre-scan, which stops at the first destination
/// that differs from entry 0's, says whether the destination table has
/// more than one entry; only then are destinations interned and indexed.
/// The entries go to a second buffer while the tables fill, and follow the
/// tables.
fn encode_top_k(entries: &[(u64, FlowId)], enc: &mut Encoder) {
    enc.put_varint(entries.len() as u64);
    let Some((_, f0)) = entries.first() else {
        return;
    };
    let dst0 = dst_key(f0);
    let (mut srcs, mut dsts) = (Interner::new(), Interner::new());
    dsts.index(dst0);
    let body = if entries.iter().any(|(_, f)| dst_key(f) != dst0) {
        encode_entries::<true>(entries, &mut srcs, &mut dsts)
    } else {
        encode_entries::<false>(entries, &mut srcs, &mut dsts)
    };
    enc.put_varint(srcs.keys.len() as u64);
    for s in &srcs.keys {
        enc.put_raw(&s.to_le_bytes()[..4]);
    }
    enc.put_varint(dsts.keys.len() as u64);
    for d in &dsts.keys {
        enc.put_raw(&d.to_le_bytes()[..7]);
    }
    enc.put_raw(body.bytes());
}

/// The entries of a top-k reply, one loop per shape: `DST` says whether an
/// entry carries its destination index, so that the block after each count
/// is a copy of a fixed size.
fn encode_entries<const DST: bool>(
    entries: &[(u64, FlowId)],
    srcs: &mut Interner,
    dsts: &mut Interner,
) -> Encoder {
    let mut body = Encoder::with_capacity(entries.len() * 6);
    let mut prev = 0u64;
    for (bytes, f) in entries {
        body.put_varint(zigzag_step(prev, *bytes));
        prev = *bytes;
        let s = srcs.index(u64::from(f.src_ip.0));
        let d = if DST { dsts.index(dst_key(f)) } else { 0 };
        let [p0, p1] = f.src_port.to_le_bytes();
        if (s | d) < 0x80 {
            // Every written index one byte: the rest of the entry is one
            // block, of a size fixed by the shape.
            let block = [s as u8, p0, p1, d as u8];
            body.put_raw(&block[..3 + usize::from(DST)]);
        } else {
            body.put_varint(u64::from(s));
            body.put_raw(&[p0, p1]);
            if DST {
                body.put_varint(u64::from(d));
            }
        }
    }
    body
}

/// The fewest bytes an entry takes: two one-byte varints and the port,
/// the destination index implied.
const MIN_ENTRY: usize = 4;

/// A count of items of `width` bytes that must fit in the input left
/// after `reserved` bytes — checked before anything is allocated for them.
fn get_count(dec: &mut Decoder<'_>, width: usize, reserved: usize) -> WireResult<usize> {
    let n = dec.get_varint()?;
    if n > (dec.remaining().saturating_sub(reserved) / width) as u64 {
        return Err(WireError::LengthOverrun);
    }
    Ok(n as usize)
}

/// Item `i` of a table.
fn item<T: Copy>(table: &[T], i: u64) -> WireResult<T> {
    if i >= table.len() as u64 {
        return Err(WireError::InvalidTag(i.min(u64::from(u32::MAX)) as u32));
    }
    Ok(table[i as usize])
}

/// Reads what [`encode_top_k`] writes. The tables are read first, so every
/// size, and whether an entry carries a destination index, is known before
/// the one allocation per table and for the entries; the entries are then
/// walked as a slice, the fields after each count as one block of 3 or 4
/// bytes when every written index takes one byte.
fn decode_top_k(dec: &mut Decoder<'_>) -> WireResult<Vec<(u64, FlowId)>> {
    let n = get_count(dec, MIN_ENTRY, 0)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let reserved = n * MIN_ENTRY;
    let n_src = get_count(dec, 4, reserved)?;
    let srcs: Vec<Ip> = dec
        .get_raw(4 * n_src)?
        .chunks_exact(4)
        .map(|b| Ip(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect();
    let n_dst = get_count(dec, 7, reserved)?;
    let dsts: Vec<(Ip, u16, Protocol)> = dec
        .get_raw(7 * n_dst)?
        .chunks_exact(7)
        .map(|b| {
            (
                Ip(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                u16::from_le_bytes([b[4], b[5]]),
                Protocol::from_number(b[6]),
            )
        })
        .collect();
    let input = dec.unread();
    let (entries, used) = if n_dst == 1 {
        decode_entries::<false>(input, n, &srcs, &dsts)?
    } else {
        decode_entries::<true>(input, n, &srcs, &dsts)?
    };
    dec.get_raw(used)?;
    Ok(entries)
}

/// Reads what [`encode_entries`] writes: `n` entries from the front of
/// `input`, and the bytes they took.
fn decode_entries<const DST: bool>(
    input: &[u8],
    n: usize,
    srcs: &[Ip],
    dsts: &[(Ip, u16, Protocol)],
) -> WireResult<(Vec<(u64, FlowId)>, usize)> {
    // The block after each count when every written index takes one byte.
    let width = 3 + usize::from(DST);
    let mut pos = 0;
    let mut entries = Vec::with_capacity(n);
    let mut bytes = 0u64;
    for _ in 0..n {
        let z = read_varint(input, &mut pos)?;
        bytes = unzigzag_step(bytes, z);
        let block = input.get(pos..pos + width).map(|b| {
            let d = if DST { b[3] } else { 0 };
            (b[0], u16::from_le_bytes([b[1], b[2]]), d)
        });
        let (s, src_port, d) = match block {
            Some((s, port, d)) if (s | d) < 0x80 => {
                pos += width;
                (u64::from(s), port, u64::from(d))
            }
            _ => {
                let s = read_varint(input, &mut pos)?;
                let Some(&[p0, p1]) = input.get(pos..pos + 2) else {
                    return Err(WireError::UnexpectedEof);
                };
                pos += 2;
                let d = if DST {
                    read_varint(input, &mut pos)?
                } else {
                    0
                };
                (s, u16::from_le_bytes([p0, p1]), d)
            }
        };
        let src_ip = item(srcs, s)?;
        let (dst_ip, dst_port, proto) = item(dsts, d)?;
        entries.push((
            bytes,
            FlowId {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                proto,
            },
        ));
    }
    Ok((entries, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::SwitchId;
    use pathdump_wire::{from_bytes, to_bytes};

    fn flow(s: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), s, Ip::new(10, 1, 0, 2), 80)
    }

    #[test]
    fn query_wire_roundtrips() {
        let queries = vec![
            Query::GetFlows {
                link: LinkPattern::exact(SwitchId(1), SwitchId(2)),
                range: TimeRange::ANY,
            },
            Query::GetPaths {
                flow: flow(1),
                link: LinkPattern::ANY,
                range: TimeRange::since(Nanos(5)),
            },
            Query::GetCount {
                flow: flow(2),
                path: Some(Path::new(vec![SwitchId(0), SwitchId(9)])),
                range: TimeRange::ANY,
            },
            Query::GetDuration {
                flow: flow(2),
                path: None,
                range: TimeRange::ANY,
            },
            Query::GetPoorTcp { threshold: 3 },
            Query::FlowSizeDist {
                link: LinkPattern::into(SwitchId(7)),
                range: TimeRange::ANY,
                bin_bytes: 10_000,
            },
            Query::TopK {
                k: 10_000,
                range: TimeRange::ANY,
            },
            Query::TrafficMatrix {
                range: TimeRange::ANY,
            },
            Query::HeavyHitters {
                min_bytes: 1_000_000,
                range: TimeRange::ANY,
            },
        ];
        for q in queries {
            let back: Query = from_bytes(&to_bytes(&q)).unwrap();
            assert_eq!(back, q);
        }
    }

    #[test]
    fn response_wire_roundtrips() {
        let responses = vec![
            Response::Flows(vec![flow(1), flow(2)]),
            Response::Paths(vec![Path::new(vec![SwitchId(3)])]),
            Response::Count {
                bytes: 12345,
                pkts: 99,
            },
            Response::Duration(Nanos::from_millis(7)),
            Response::Hist {
                bin_bytes: 10_000,
                bins: vec![(0, 5), (3, 2)],
            },
            Response::TopK {
                k: 2,
                entries: vec![(500, flow(9)), (100, flow(3))],
            },
            Response::Matrix(vec![((Ip(1), Ip(2)), 777)]),
        ];
        for r in responses {
            let back: Response = from_bytes(&to_bytes(&r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn merge_flows_dedups() {
        let mut a = Response::Flows(vec![flow(1), flow(2)]);
        a.merge(Response::Flows(vec![flow(2), flow(3)]));
        assert_eq!(a, Response::Flows(vec![flow(1), flow(2), flow(3)]));
    }

    #[test]
    fn merge_counts_and_durations() {
        let mut c = Response::Count { bytes: 10, pkts: 1 };
        c.merge(Response::Count { bytes: 5, pkts: 2 });
        assert_eq!(c, Response::Count { bytes: 15, pkts: 3 });
        let mut d = Response::Duration(Nanos(5));
        d.merge(Response::Duration(Nanos(3)));
        assert_eq!(d, Response::Duration(Nanos(5)));
        d.merge(Response::Duration(Nanos(9)));
        assert_eq!(d, Response::Duration(Nanos(9)));
    }

    #[test]
    fn merge_hist_adds_bins() {
        let mut h = Response::Hist {
            bin_bytes: 10,
            bins: vec![(0, 1), (2, 5)],
        };
        h.merge(Response::Hist {
            bin_bytes: 10,
            bins: vec![(2, 1), (7, 4)],
        });
        assert_eq!(
            h,
            Response::Hist {
                bin_bytes: 10,
                bins: vec![(0, 1), (2, 6), (7, 4)],
            }
        );
    }

    #[test]
    fn merge_topk_truncates() {
        let mut t = Response::TopK {
            k: 2,
            entries: vec![(100, flow(1)), (50, flow(2))],
        };
        t.merge(Response::TopK {
            k: 2,
            entries: vec![(75, flow(3)), (25, flow(4))],
        });
        assert_eq!(
            t,
            Response::TopK {
                k: 2,
                entries: vec![(100, flow(1)), (75, flow(3))],
            }
        );
    }

    #[test]
    fn merge_topk_dedups_nonadjacent_duplicates() {
        // The same flow reported with different byte counts by different
        // hosts must occupy one slot (its max), never two — even when the
        // duplicates are not adjacent after the descending sort. Before the
        // global dedup, `(99, f2), (98, f5), (97, f2)` survived intact and
        // squeezed f6 out of a k=3 answer that a tree-shaped merge kept.
        let mut t = Response::TopK {
            k: 3,
            entries: vec![(99, flow(2))],
        };
        t.merge(Response::TopK {
            k: 3,
            entries: vec![(97, flow(2))],
        });
        t.merge(Response::TopK {
            k: 3,
            entries: vec![(98, flow(5))],
        });
        t.merge(Response::TopK {
            k: 3,
            entries: vec![(96, flow(6))],
        });
        assert_eq!(
            t,
            Response::TopK {
                k: 3,
                entries: vec![(99, flow(2)), (98, flow(5)), (96, flow(6))],
            }
        );
    }

    #[test]
    fn merge_topk_is_associative() {
        // Max-dedup top-k under a total order is a semilattice: any merge
        // tree over the same host responses yields the same entries. Drive
        // every 2-partition of four host responses with ties (equal bytes
        // across flows) and duplicates (one flow on several hosts).
        let hosts: Vec<Vec<(u64, FlowId)>> = vec![
            vec![(99, flow(2)), (50, flow(1))],
            vec![(97, flow(2)), (50, flow(3))],
            vec![(98, flow(5)), (50, flow(4))],
            vec![(96, flow(6)), (50, flow(1))],
        ];
        let merge_all = |order: &[usize]| {
            let mut acc = Response::TopK {
                k: 3,
                entries: Vec::new(),
            };
            for &i in order {
                acc.merge(Response::TopK {
                    k: 3,
                    entries: hosts[i].clone(),
                });
            }
            acc
        };
        // Flat merges in every rotation, plus a tree shape: (0+1) + (2+3).
        let flat = merge_all(&[0, 1, 2, 3]);
        for order in [[1, 2, 3, 0], [3, 2, 1, 0], [2, 0, 3, 1]] {
            assert_eq!(merge_all(&order), flat, "order {order:?}");
        }
        let mut left = merge_all(&[0, 1]);
        let right = merge_all(&[2, 3]);
        left.merge(right);
        assert_eq!(left, flat, "tree-shaped merge");
    }

    #[test]
    fn merge_topk_keeps_tcp_and_protocol_6_apart() {
        // `Protocol::Tcp` and `Protocol::Other(6)` share a protocol number
        // but are two flows: the dedup must not fold one into the other.
        let tcp = flow(1);
        let other6 = FlowId {
            proto: pathdump_topology::Protocol::Other(6),
            ..tcp
        };
        let mut t = Response::TopK {
            k: 2,
            entries: vec![(5, tcp)],
        };
        t.merge(Response::TopK {
            k: 2,
            entries: vec![(4, other6)],
        });
        assert_eq!(
            t,
            Response::TopK {
                k: 2,
                entries: vec![(5, tcp), (4, other6)],
            }
        );
    }

    #[test]
    fn merge_topk_breaks_byte_ties_by_flow_id() {
        // Equal-byte entries must rank by flow id descending — the same
        // order `TibRead::top_k_flows` uses — so a host-level answer and a
        // merged answer agree on the k-th entry.
        let mut t = Response::TopK {
            k: 2,
            entries: vec![(50, flow(1))],
        };
        t.merge(Response::TopK {
            k: 2,
            entries: vec![(50, flow(3)), (50, flow(2))],
        });
        let want: Vec<(u64, FlowId)> = {
            let mut v = vec![(50, flow(1)), (50, flow(2)), (50, flow(3))];
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.truncate(2);
            v
        };
        assert_eq!(
            t,
            Response::TopK {
                k: 2,
                entries: want
            }
        );
    }

    #[test]
    fn merge_matrix_sums() {
        let mut m = Response::Matrix(vec![((Ip(1), Ip(2)), 10)]);
        m.merge(Response::Matrix(vec![
            ((Ip(1), Ip(2)), 5),
            ((Ip(3), Ip(4)), 7),
        ]));
        assert_eq!(
            m,
            Response::Matrix(vec![((Ip(1), Ip(2)), 15), ((Ip(3), Ip(4)), 7)])
        );
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn mismatched_merge_panics() {
        let mut a = Response::Flows(vec![]);
        a.merge(Response::Duration(Nanos(1)));
    }

    #[test]
    fn empty_for_matches_variants() {
        let q = Query::TopK {
            k: 5,
            range: TimeRange::ANY,
        };
        assert_eq!(
            Response::empty_for(&q),
            Response::TopK {
                k: 5,
                entries: vec![]
            }
        );
    }
}
