//! The wire crate's rewritten routines against the code they replaced,
//! which lives on here as the reference: slice-by-16 `crc32` against the
//! byte-at-a-time loop, `Frame::build` / `Frame::parse` against the old
//! copying `to_wire` / `from_wire`, the one-block `FlowId` codec against
//! the field-by-field one it replaced on WAL record frames and requests
//! carrying `GetPaths` / `GetCount`, the table-coded top-k reply against
//! the same layout written field by field (tables found by linear search),
//! and the bit-packed histogram reply against the same layout written and
//! read one bit at a time (its exp-Golomb order found by trying them all).
//! Same bytes out, same value or the same `WireError` back — at every
//! truncation — on every input tried. Deterministic (exhaustive over small
//! sizes, seeded for large ones) rather than property-based: the
//! interesting inputs are the length and alignment boundaries, and those
//! can all be listed.

use pathdump_core::{build_tree, Query, Response, TreeNode};
use pathdump_rpc::{Coverage, ReplyMsg, RequestMsg};
use pathdump_tib::wal::{frame_record, replay, WAL_FRAME_RECORD};
use pathdump_tib::TibRecord;
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, Protocol, SwitchId, TimeRange};
use pathdump_wire::crc::crc32;
use pathdump_wire::{from_bytes, to_bytes, Decode, Decoder, Frame, WireError, WireResult};

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The byte-at-a-time loop `crc32` replaced, with the table lookup
/// spelled out as the polynomial division it caches, so the reference
/// shares nothing with `TABLES`.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// SplitMix64, so the random buffers are the same on every run.
fn fill(seed: u64, buf: &mut [u8]) {
    let mut s = seed;
    for b in buf {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *b = (z ^ (z >> 31)) as u8;
    }
}

#[test]
fn slice_by_16_matches_bytewise_at_every_length_and_offset() {
    let mut backing = [0u8; 16 + 130];
    fill(1, &mut backing);
    for start in 0..16 {
        for len in 0..=130 {
            let data = &backing[start..start + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
        }
    }
}

#[test]
fn slice_by_16_matches_bytewise_around_multiples_of_16() {
    let mut backing = vec![0u8; 4096 + 16 + 1];
    fill(6, &mut backing);
    for m in (16..=4096).step_by(16) {
        for len in [m - 1, m, m + 1] {
            for start in [0, 1, 15] {
                let data = &backing[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }
}

#[test]
fn slice_by_16_matches_bytewise_on_large_random_buffers() {
    for (seed, len) in [(2u64, 1_000usize), (3, 65_537), (4, 163_841), (5, 200_000)] {
        let mut buf = vec![0u8; len];
        fill(seed, &mut buf);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]), "seed {seed}");
    }
}

/// `to_wire` as it was before `seal`: the builders' reference.
fn old_to_wire(f: &Frame) -> Vec<u8> {
    let body_len = 2 + f.payload.len();
    let mut out = Vec::with_capacity(4 + body_len + 4);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&f.typ.to_le_bytes());
    out.extend_from_slice(&f.payload);
    let crc = crc32_bytewise(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// `from_wire` as it was before `parse`: the parser's reference.
fn old_from_wire(input: &[u8]) -> WireResult<(Frame, usize)> {
    if input.len() < 4 {
        return Err(WireError::UnexpectedEof);
    }
    let body_len = u32::from_le_bytes(input[..4].try_into().unwrap()) as usize;
    if body_len < 2 {
        return Err(WireError::LengthOverrun);
    }
    let total = 4 + body_len + 4;
    if input.len() < total {
        return Err(WireError::UnexpectedEof);
    }
    let body = &input[4..4 + body_len];
    let crc_stored = u32::from_le_bytes(input[4 + body_len..total].try_into().unwrap());
    if crc32_bytewise(body) != crc_stored {
        return Err(WireError::BadChecksum);
    }
    let typ = u16::from_le_bytes(body[..2].try_into().unwrap());
    Ok((Frame::new(typ, body[2..].to_vec()), total))
}

fn parse_owned(input: &[u8]) -> WireResult<(Frame, usize)> {
    Frame::parse(input).map(|(typ, payload, used)| (Frame::new(typ, payload.to_vec()), used))
}

#[test]
fn build_and_to_wire_match_the_old_bytes() {
    let values: Vec<Vec<(u64, Vec<u8>)>> = vec![
        vec![],
        vec![(7, "x".into())],
        (0..300)
            .map(|i| (i * 1_000_003, format!("flow-{i}").into_bytes()))
            .collect(),
    ];
    for (typ, v) in [0u16, 7, 0xBEEF].into_iter().zip(&values) {
        let f = Frame::new(typ, to_bytes(v));
        assert_eq!(Frame::build(typ, v), old_to_wire(&f));
        assert_eq!(f.to_wire(), old_to_wire(&f));
    }
}

#[test]
fn parse_matches_the_old_parser_on_every_cut_and_bit_flip() {
    for payload in [vec![], vec![0xA5], (0..=40u8).collect::<Vec<u8>>()] {
        let mut wire = Frame::new(0x0102, payload).to_wire();
        wire.extend_from_slice(&[9, 9, 9]); // a following frame's first bytes
        for cut in 0..=wire.len() {
            assert_eq!(
                parse_owned(&wire[..cut]),
                old_from_wire(&wire[..cut]),
                "cut {cut}"
            );
        }
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(parse_owned(&bad), old_from_wire(&bad), "bit {bit}");
            assert_eq!(Frame::from_wire(&bad), old_from_wire(&bad), "bit {bit}");
        }
    }
    // Lengths the CRC does not cover: too short to hold `typ`, and
    // far past the input.
    for len in [0u32, 1, 2, 1 << 20, u32::MAX] {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0; 12]);
        assert_eq!(parse_owned(&wire), old_from_wire(&wire), "len {len}");
    }
}

// ---------------------------------------------------------------------------
// The codec spelled out: a flow id written and read one field at a time, a
// varint one byte at a time, a top-k reply's tables kept as lists searched
// from the front — and the messages that carry flow ids spelled out over
// those, so that the reference shares no code with the library's `Encode` /
// `Decode` impls.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OldEnc(Vec<u8>);

impl OldEnc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.0.push(byte);
                return;
            }
            self.0.push(byte | 0x80);
        }
    }

    fn flow(&mut self, f: &FlowId) {
        self.0.extend_from_slice(&f.src_ip.0.to_le_bytes());
        self.0.extend_from_slice(&f.dst_ip.0.to_le_bytes());
        self.0.extend_from_slice(&f.src_port.to_le_bytes());
        self.0.extend_from_slice(&f.dst_port.to_le_bytes());
        self.u8(f.proto.number());
    }

    fn opt_varint(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.varint(v);
            }
        }
    }

    fn range(&mut self, r: &TimeRange) {
        self.opt_varint(r.start.map(|n| n.0));
        self.opt_varint(r.end.map(|n| n.0));
    }

    fn link(&mut self, l: &LinkPattern) {
        self.opt_varint(l.from.map(|s| u64::from(s.0)));
        self.opt_varint(l.to.map(|s| u64::from(s.0)));
    }

    fn path(&mut self, p: &Path) {
        self.varint(p.0.len() as u64);
        for s in &p.0 {
            self.varint(u64::from(s.0));
        }
    }

    fn u32s(&mut self, v: &[u32]) {
        self.varint(v.len() as u64);
        for &x in v {
            self.varint(u64::from(x));
        }
    }

    /// `k`, the entry count, and unless that is 0: the source table, the
    /// destination table, then per entry the zigzagged step from the
    /// previous count, the source index, the source port and the
    /// destination index, left out when the destination table has one
    /// entry.
    fn top_k(&mut self, r: &Response) {
        let Response::TopK { k, entries } = r else {
            panic!("not a top-k response: {r:?}");
        };
        self.u8(5);
        self.varint(u64::from(*k));
        self.varint(entries.len() as u64);
        if entries.is_empty() {
            return;
        }
        let mut srcs: Vec<Ip> = Vec::new();
        let mut dsts: Vec<(Ip, u16, u8)> = Vec::new();
        let mut indices = Vec::new();
        for (_, f) in entries {
            let dst = (f.dst_ip, f.dst_port, f.proto.number());
            indices.push((position(&mut srcs, f.src_ip), position(&mut dsts, dst)));
        }
        self.varint(srcs.len() as u64);
        for ip in &srcs {
            self.0.extend_from_slice(&ip.0.to_le_bytes());
        }
        self.varint(dsts.len() as u64);
        for (ip, port, proto) in &dsts {
            self.0.extend_from_slice(&ip.0.to_le_bytes());
            self.0.extend_from_slice(&port.to_le_bytes());
            self.u8(*proto);
        }
        let mut prev = 0u64;
        for ((bytes, f), (s, d)) in entries.iter().zip(indices) {
            let step = bytes.wrapping_sub(prev) as i64;
            prev = *bytes;
            self.varint(((step << 1) ^ (step >> 63)) as u64);
            self.varint(s as u64);
            self.0.extend_from_slice(&f.src_port.to_le_bytes());
            if dsts.len() > 1 {
                self.varint(d as u64);
            }
        }
    }

    /// The bin width, the bin count, the header byte (bit 6 when the keys
    /// strictly ascend, the order `k` below it), then the bits of every
    /// bin's key code and count code (see [`hist_bits`]).
    fn hist(&mut self, r: &Response) {
        let Response::Hist { bin_bytes, bins } = r else {
            panic!("not a histogram response: {r:?}");
        };
        self.u8(4);
        self.varint(*bin_bytes);
        self.varint(bins.len() as u64);
        let ascending = bins.windows(2).all(|w| w[0].0 < w[1].0);
        // The order whose bits are fewest, the smallest on a tie.
        let k = (0..64)
            .min_by_key(|&k| hist_bits(bins, ascending, k).0.len())
            .unwrap();
        self.u8(u8::from(ascending) << 6 | k as u8);
        self.0.extend(hist_bits(bins, ascending, k).bytes());
    }

    fn reply(&mut self, m: &ReplyMsg) {
        self.varint(m.req_id);
        match m.response {
            Response::Hist { .. } => self.hist(&m.response),
            _ => self.top_k(&m.response),
        }
        self.u32s(&m.coverage.answered);
        self.u32s(&m.coverage.missed);
        self.u32s(&m.coverage.timed_out);
    }

    fn record(&mut self, r: &TibRecord) {
        self.flow(&r.flow);
        self.path(&r.path);
        self.varint(r.stime.0);
        self.varint(r.etime.0 - r.stime.0);
        self.varint(r.bytes);
        self.varint(r.pkts);
    }

    fn request(&mut self, m: &RequestMsg) {
        self.varint(m.req_id);
        self.varint(m.deadline.0);
        match &m.query {
            Query::GetPaths { flow, link, range } => {
                self.u8(1);
                self.flow(flow);
                self.link(link);
                self.range(range);
            }
            Query::GetCount { flow, path, range } => {
                self.u8(2);
                self.flow(flow);
                match path {
                    None => self.u8(0),
                    Some(p) => {
                        self.u8(1);
                        self.path(p);
                    }
                }
                self.range(range);
            }
            q => panic!("no reference for {q:?}"),
        }
        // The subtree, breadth first as `(host, parent index + 1)`.
        let mut order: Vec<(&TreeNode, u64)> = vec![(&m.subtree, 0)];
        let mut i = 0;
        while i < order.len() {
            let node = order[i].0;
            order.extend(node.children.iter().map(|c| (c, i as u64 + 1)));
            i += 1;
        }
        self.varint(order.len() as u64);
        for (node, parent) in order {
            self.varint(node.host as u64);
            self.varint(parent);
        }
    }
}

/// Bits, one `bool` each, in the order they go on the wire.
#[derive(Default)]
struct Bits(Vec<bool>);

impl Bits {
    /// The order-`k` exp-Golomb code of `v`: `x = v + 2^k` in binary,
    /// behind one zero for each of its bits past the `k + 1`th.
    fn exp_golomb(&mut self, v: u64, k: u32) {
        let x = u128::from(v) + (1 << k);
        let len = (0..=128).find(|&n| x >> n == 0).unwrap();
        self.0.extend((k + 1..len).map(|_| false));
        self.0.extend((0..len).rev().map(|i| x >> i & 1 == 1));
    }

    /// Eight bits a byte, the first the most significant, the last byte
    /// padded with zeros.
    fn bytes(&self) -> Vec<u8> {
        let byte = |c: &[bool]| (0..8).fold(0, |b, i| b << 1 | u8::from(c.get(i) == Some(&true)));
        self.0.chunks(8).map(byte).collect()
    }
}

/// A histogram reply's bins at order `k`: per bin the key's code, of the
/// key less the one before it less one (the first key itself) when the
/// keys ascend, else of the zigzag of the wrapping step from the key
/// before it (the first against 0); then the order-0 code of `count − 1`,
/// wrapping.
fn hist_bits(bins: &[(u64, u64)], ascending: bool, k: u32) -> Bits {
    let mut bits = Bits::default();
    let mut prev: Option<u64> = None;
    for &(key, count) in bins {
        let gap = match (ascending, prev) {
            (true, None) => key,
            (true, Some(p)) => key - p - 1,
            (false, p) => {
                let step = key.wrapping_sub(p.unwrap_or(0)) as i64;
                ((step << 1) ^ (step >> 63)) as u64
            }
        };
        bits.exp_golomb(gap, k);
        bits.exp_golomb(count.wrapping_sub(1), 0);
        prev = Some(key);
    }
    bits
}

/// The index of `x` in `table`, appended first if it is not there.
fn position<T: PartialEq>(table: &mut Vec<T>, x: T) -> usize {
    match table.iter().position(|y| *y == x) {
        Some(i) => i,
        None => {
            table.push(x);
            table.len() - 1
        }
    }
}

fn old_bytes(f: impl FnOnce(&mut OldEnc)) -> Vec<u8> {
    let mut e = OldEnc::default();
    f(&mut e);
    e.0
}

struct OldDec<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> OldDec<'a> {
    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.input.len() - self.pos < n {
            return Err(WireError::UnexpectedEof);
        }
        self.pos += n;
        Ok(&self.input[self.pos - n..self.pos])
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> WireResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
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

    fn narrow<T: TryFrom<u64>>(&mut self) -> WireResult<T> {
        T::try_from(self.varint()?).map_err(|_| WireError::VarintOverflow)
    }

    fn len(&mut self) -> WireResult<usize> {
        let n = self.varint()? as usize;
        if n > self.input.len() - self.pos {
            return Err(WireError::LengthOverrun);
        }
        Ok(n)
    }

    fn flow(&mut self) -> WireResult<FlowId> {
        Ok(FlowId {
            src_ip: Ip(self.u32()?),
            dst_ip: Ip(self.u32()?),
            src_port: self.u16()?,
            dst_port: self.u16()?,
            proto: Protocol::from_number(self.u8()?),
        })
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> WireResult<T>) -> WireResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(WireError::InvalidTag(t as u32)),
        }
    }

    fn range(&mut self) -> WireResult<TimeRange> {
        Ok(TimeRange {
            start: self.opt(|d| d.varint().map(Nanos))?,
            end: self.opt(|d| d.varint().map(Nanos))?,
        })
    }

    fn link(&mut self) -> WireResult<LinkPattern> {
        Ok(LinkPattern {
            from: self.opt(|d| d.narrow().map(SwitchId))?,
            to: self.opt(|d| d.narrow().map(SwitchId))?,
        })
    }

    fn path(&mut self) -> WireResult<Path> {
        let n = self.len()?;
        let mut hops = Vec::new();
        for _ in 0..n {
            hops.push(SwitchId(self.narrow()?));
        }
        Ok(Path(hops))
    }

    fn u32s(&mut self) -> WireResult<Vec<u32>> {
        let n = self.len()?;
        (0..n).map(|_| self.narrow()).collect()
    }

    /// A count of items of at least `width` bytes each that must fit in
    /// what is left of the input after `reserved` bytes.
    fn count(&mut self, width: usize, reserved: usize) -> WireResult<usize> {
        let n = self.varint()?;
        let left = (self.input.len() - self.pos).saturating_sub(reserved);
        if n > (left / width) as u64 {
            return Err(WireError::LengthOverrun);
        }
        Ok(n as usize)
    }

    /// Entry `i` of a table.
    fn lookup<T: Copy>(table: &[T], i: u64) -> WireResult<T> {
        if i >= table.len() as u64 {
            return Err(WireError::InvalidTag(u32::try_from(i).unwrap_or(u32::MAX)));
        }
        Ok(table[i as usize])
    }

    fn top_k(&mut self) -> WireResult<Response> {
        match self.u8()? {
            5 => {}
            t => return Err(WireError::InvalidTag(t as u32)),
        }
        let k = self.narrow()?;
        // An entry takes four bytes or more: two varints and a port, the
        // destination index implied.
        let n = self.count(4, 0)?;
        let mut entries = Vec::new();
        if n == 0 {
            return Ok(Response::TopK { k, entries });
        }
        let n_src = self.count(4, 4 * n)?;
        let mut srcs = Vec::new();
        for _ in 0..n_src {
            srcs.push(Ip(self.u32()?));
        }
        let n_dst = self.count(7, 4 * n)?;
        let mut dsts = Vec::new();
        for _ in 0..n_dst {
            let ip = Ip(self.u32()?);
            let port = self.u16()?;
            dsts.push((ip, port, Protocol::from_number(self.u8()?)));
        }
        let mut bytes = 0u64;
        for _ in 0..n {
            let z = self.varint()?;
            let step = ((z >> 1) as i64) ^ -((z & 1) as i64);
            bytes = bytes.wrapping_add(step as u64);
            let s = self.varint()?;
            let src_port = self.u16()?;
            let d = if n_dst == 1 { 0 } else { self.varint()? };
            let src_ip = Self::lookup(&srcs, s)?;
            let (dst_ip, dst_port, proto) = Self::lookup(&dsts, d)?;
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
        Ok(Response::TopK { k, entries })
    }

    fn hist(&mut self) -> WireResult<Response> {
        match self.u8()? {
            4 => {}
            t => return Err(WireError::InvalidTag(t as u32)),
        }
        let bin_bytes = self.varint()?;
        let n = self.varint()?;
        let header = self.u8()?;
        if header >= 0x80 {
            return Err(WireError::InvalidTag(header as u32));
        }
        let (ascending, k) = (header & 0x40 != 0, u32::from(header & 0x3F));
        let mut at = self.pos * 8;
        // A bin takes two bits or more.
        if n > ((self.input.len() * 8 - at) / 2) as u64 {
            return Err(WireError::LengthOverrun);
        }
        let mut bins = Vec::new();
        // The smallest key an ascending bin may take next.
        let (mut key, mut next) = (0u64, 0u128);
        for _ in 0..n {
            let gap = self.exp_golomb(&mut at, k)?;
            key = if ascending {
                u64::try_from(next + u128::from(gap)).map_err(|_| WireError::VarintOverflow)?
            } else {
                let step = ((gap >> 1) as i64) ^ -((gap & 1) as i64);
                key.wrapping_add(step as u64)
            };
            next = u128::from(key) + 1;
            let count = self.exp_golomb(&mut at, 0)?.wrapping_add(1);
            bins.push((key, count));
        }
        while !at.is_multiple_of(8) {
            if self.bit(&mut at)? {
                return Err(WireError::NonzeroPadding);
            }
        }
        self.pos = at / 8;
        Ok(Response::Hist { bin_bytes, bins })
    }

    /// The bit at bit offset `*at` of the input, the first of a byte its
    /// most significant.
    fn bit(&self, at: &mut usize) -> WireResult<bool> {
        let byte = *self.input.get(*at / 8).ok_or(WireError::UnexpectedEof)?;
        *at += 1;
        Ok(byte >> (7 - (*at - 1) % 8) & 1 == 1)
    }

    /// An order-`k` exp-Golomb code from bit offset `*at`: zeros up to the
    /// first one, at most 64 of them, then as many bits as zeros plus `k`.
    fn exp_golomb(&self, at: &mut usize, k: u32) -> WireResult<u64> {
        let mut zeros = 0;
        while !self.bit(at)? {
            zeros += 1;
            if zeros > 64 {
                return Err(WireError::VarintOverflow);
            }
        }
        let mut x = 1u128;
        for _ in 0..zeros + k {
            x = x << 1 | u128::from(self.bit(at)?);
        }
        u64::try_from(x - (1 << k)).map_err(|_| WireError::VarintOverflow)
    }

    fn reply(&mut self) -> WireResult<ReplyMsg> {
        let req_id = self.varint()?;
        let response = match self.input.get(self.pos) {
            Some(4) => self.hist()?,
            _ => self.top_k()?,
        };
        let coverage = Coverage {
            answered: self.u32s()?,
            missed: self.u32s()?,
            timed_out: self.u32s()?,
        };
        let mut normal = coverage.clone();
        normal.normalize();
        if normal != coverage {
            return Err(WireError::InvalidTag(u32::MAX));
        }
        Ok(ReplyMsg {
            req_id,
            response,
            coverage,
        })
    }

    fn record(&mut self) -> WireResult<TibRecord> {
        let flow = self.flow()?;
        let path = self.path()?;
        let stime = self.varint()?;
        let delta = self.varint()?;
        let bytes = self.varint()?;
        let pkts = self.varint()?;
        let etime = stime.checked_add(delta).ok_or(WireError::VarintOverflow)?;
        Ok(TibRecord {
            flow,
            path,
            stime: Nanos(stime),
            etime: Nanos(etime),
            bytes,
            pkts,
        })
    }

    /// The request up to its subtree. The subtree carries no flow id and
    /// its codec did not change, so it is read by the library's.
    fn request(&mut self) -> WireResult<RequestMsg> {
        let req_id = self.varint()?;
        let deadline = Nanos(self.varint()?);
        let query = match self.u8()? {
            1 => Query::GetPaths {
                flow: self.flow()?,
                link: self.link()?,
                range: self.range()?,
            },
            2 => Query::GetCount {
                flow: self.flow()?,
                path: self.opt(|d| d.path())?,
                range: self.range()?,
            },
            t => return Err(WireError::InvalidTag(t as u32)),
        };
        let mut rest = Decoder::new(&self.input[self.pos..]);
        let subtree = TreeNode::decode(&mut rest)?;
        self.pos = self.input.len() - rest.remaining();
        Ok(RequestMsg {
            req_id,
            deadline,
            query,
            subtree,
        })
    }

    /// The value and nothing after it, as `from_bytes` requires.
    fn whole<T>(input: &'a [u8], f: impl FnOnce(&mut Self) -> WireResult<T>) -> WireResult<T> {
        let mut d = OldDec { input, pos: 0 };
        let v = f(&mut d)?;
        match input.len() - d.pos {
            0 => Ok(v),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// `value` encodes to `old`, and every prefix of `old` decodes — or fails —
/// as the reference decodes it. (The whole of it decodes; to `value`
/// itself unless a flow is `Protocol::Other(6)`, which both codecs write
/// as 6 and read back as `Tcp`.)
fn same_at_every_cut<T: Decode + PartialEq + std::fmt::Debug>(
    value: &T,
    new: Vec<u8>,
    old: Vec<u8>,
    old_decode: impl Fn(&[u8]) -> WireResult<T>,
) {
    let cuts = 0..=new.len();
    same_at_cuts(value, new, old, old_decode, cuts);
}

/// [`same_at_every_cut`] at the listed cuts only.
fn same_at_cuts<T: Decode + PartialEq + std::fmt::Debug>(
    value: &T,
    new: Vec<u8>,
    old: Vec<u8>,
    old_decode: impl Fn(&[u8]) -> WireResult<T>,
    cuts: impl IntoIterator<Item = usize>,
) {
    assert_eq!(new, old, "bytes of {value:?}");
    assert!(from_bytes::<T>(&new).is_ok(), "{value:?}");
    for cut in cuts {
        assert_eq!(
            from_bytes::<T>(&new[..cut]),
            old_decode(&new[..cut]),
            "cut {cut} of {}",
            new.len()
        );
    }
    let mut longer = new.clone();
    longer.push(0);
    assert_eq!(
        from_bytes::<T>(&longer),
        old_decode(&longer),
        "trailing byte"
    );
}

/// Flows over every protocol form, ports and addresses at their extremes.
fn flows() -> Vec<FlowId> {
    let mut v = Vec::new();
    for (i, proto) in [
        Protocol::Tcp,
        Protocol::Udp,
        Protocol::Other(0),
        Protocol::Other(6),
        Protocol::Other(89),
        Protocol::Other(255),
    ]
    .into_iter()
    .enumerate()
    {
        let i = i as u32;
        v.push(FlowId {
            src_ip: Ip(0x0A00_0002 + i),
            dst_ip: Ip(u32::MAX - i),
            src_port: [0, 1, 1024, 40_001, u16::MAX - 1, u16::MAX][i as usize],
            dst_port: 80,
            proto,
        });
    }
    v
}

/// `n` entries over `n_src` sources and `n_dst` destinations, in the
/// store's `(bytes, flow)`-descending order unless `sorted` is false.
fn wide_entries(n: u32, n_src: u32, n_dst: u32, sorted: bool) -> Vec<(u64, FlowId)> {
    let mut v: Vec<(u64, FlowId)> = (0..n)
        .map(|i| {
            let flow = FlowId {
                src_ip: Ip(0x0A00_0000 + i * 7_919 % n_src),
                dst_ip: Ip(0x0B00_0000 + i % n_dst),
                src_port: i as u16,
                dst_port: (i % n_dst) as u16,
                proto: [Protocol::Tcp, Protocol::Udp][(i % n_dst) as usize % 2],
            };
            (u64::from(i % 97) * 1_000_003, flow)
        })
        .collect();
    if sorted {
        v.sort_unstable_by(|a, b| b.cmp(a));
    }
    v
}

#[test]
fn top_k_replies_match_the_field_by_field_codec() {
    let fl = flows();
    let byte_counts = [0u64, 1, 127, 128, 16_383, 16_384, 1 << 35, u64::MAX];
    let entries = |n: usize| -> Vec<(u64, FlowId)> {
        (0..n)
            .map(|i| (byte_counts[i % byte_counts.len()], fl[i % fl.len()]))
            .collect()
    };
    let mut extremes = Vec::new();
    for a in [0, 1, u64::MAX - 1, u64::MAX] {
        for b in [0, 1, u64::MAX - 1, u64::MAX] {
            let i = extremes.len();
            extremes.push((a, fl[i % fl.len()]));
            extremes.push((b, fl[(i + 1) % fl.len()]));
        }
    }
    let cases = [
        (0u32, entries(0)),
        (1, entries(1)),
        (10_000, entries(7)),
        (u32::MAX, entries(50)),
        (32, extremes),
        // Two-byte indices: more than 128 sources, then destinations too.
        (300, wide_entries(300, 200, 1, true)),
        (300, wide_entries(300, 150, 140, true)),
        (300, wide_entries(300, 129, 3, false)),
    ];
    for (k, entries) in cases {
        let response = Response::TopK { k, entries };
        same_at_every_cut(
            &response,
            to_bytes(&response),
            old_bytes(|e| e.top_k(&response)),
            |b| OldDec::whole(b, |d| d.top_k()),
        );
        let reply = ReplyMsg {
            req_id: 0x1234_5678,
            response,
            coverage: Coverage {
                answered: vec![0, 3, 200],
                missed: vec![1],
                timed_out: vec![2, 70_000],
            },
        };
        same_at_every_cut(
            &reply,
            to_bytes(&reply),
            old_bytes(|e| e.reply(&reply)),
            |b| OldDec::whole(b, |d| d.reply()),
        );
        // The frame around the reply: the same bytes as the old
        // field-by-field payload framed by the old writer.
        let framed = Frame::build(0x11, &reply);
        assert_eq!(
            framed,
            old_to_wire(&Frame::new(0x11, old_bytes(|e| e.reply(&reply))))
        );
    }
}

/// More than 16 384 sources, so source indices take three bytes: the same
/// bytes, and the same value or error at a spread of cuts (every cut of a
/// 100 KB reply would decode 100 KB ten thousand times over).
#[test]
fn top_k_replies_with_three_byte_indices_match_the_field_by_field_codec() {
    for sorted in [true, false] {
        let entries = wide_entries(20_000, 16_500, 2, sorted);
        let mut sources: Vec<Ip> = entries.iter().map(|e| e.1.src_ip).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), 16_500);
        let response = Response::TopK { k: 20_000, entries };
        let new = to_bytes(&response);
        let len = new.len();
        let cuts = (0..=64)
            .chain(len - 64..=len)
            .chain((1..64).map(|i| i * len / 64));
        same_at_cuts(
            &response,
            new,
            old_bytes(|e| e.top_k(&response)),
            |b| OldDec::whole(b, |d| d.top_k()),
            cuts,
        );
        let reply = ReplyMsg {
            req_id: 3,
            response,
            coverage: Coverage::default(),
        };
        let wire = Frame::build(0x11, &reply);
        assert_eq!(
            wire,
            old_to_wire(&Frame::new(0x11, old_bytes(|e| e.reply(&reply))))
        );
        let (_, payload, _) = Frame::parse(&wire).unwrap();
        assert_eq!(from_bytes::<ReplyMsg>(payload), Ok(reply));
    }
}

/// The table shapes the other top-k cases leave out: one source with one
/// destination (the destination index implied, the source index written)
/// and with two-byte destination indices, and three-byte indices in both
/// tables.
#[test]
fn one_source_and_wide_table_top_k_replies_match_the_field_by_field_codec() {
    for entries in [
        wide_entries(300, 1, 1, true),
        wide_entries(300, 1, 150, true),
    ] {
        let response = Response::TopK { k: 300, entries };
        same_at_every_cut(
            &response,
            to_bytes(&response),
            old_bytes(|e| e.top_k(&response)),
            |b| OldDec::whole(b, |d| d.top_k()),
        );
        let reply = ReplyMsg {
            req_id: 0x1234_5678,
            response,
            coverage: Coverage {
                answered: vec![0, 3, 200],
                missed: vec![1],
                timed_out: vec![2, 70_000],
            },
        };
        same_at_every_cut(
            &reply,
            to_bytes(&reply),
            old_bytes(|e| e.reply(&reply)),
            |b| OldDec::whole(b, |d| d.reply()),
        );
        let framed = Frame::build(0x11, &reply);
        assert_eq!(
            framed,
            old_to_wire(&Frame::new(0x11, old_bytes(|e| e.reply(&reply))))
        );
    }
    // Three-byte indices in both tables, at a spread of cuts.
    let entries = wide_entries(20_000, 16_500, 16_400, false);
    let response = Response::TopK { k: 20_000, entries };
    let new = to_bytes(&response);
    let len = new.len();
    let cuts = (0..=64)
        .chain(len - 64..=len)
        .chain((1..64).map(|i| i * len / 64));
    same_at_cuts(
        &response,
        new,
        old_bytes(|e| e.top_k(&response)),
        |b| OldDec::whole(b, |d| d.top_k()),
        cuts,
    );
}

#[test]
fn hist_replies_match_the_bit_by_bit_codec() {
    let dense: Vec<(u64, u64)> = (0..300).map(|k| (k, 1 + k % 7)).collect();
    // Every ordered pair of 0, 1, `MAX − 1` and `MAX` side by side as keys,
    // with counts at the same extremes: the key steps wrap both ways.
    let ends = [0, 1, u64::MAX - 1, u64::MAX];
    let mut extremes = Vec::new();
    for a in ends {
        for b in ends {
            let c = ends[extremes.len() % ends.len()];
            extremes.push((a, c));
            extremes.push((b, u64::MAX - c));
        }
    }
    let mut gapped = vec![(0u64, 1u64)];
    for g in [63, 64, 8_191, 8_192, (1 << 20) - 1, 1 << 20, (1 << 20) + 1] {
        let key = gapped.last().unwrap().0 + g;
        gapped.push((key, g));
    }
    // The shape a `query_fsd` host sends: dense full bins, then sparse ones
    // that mostly hold one flow.
    let mut fsd: Vec<(u64, u64)> = (0..12).map(|k| (k, 40 + k * k)).collect();
    fsd.extend((1..60u64).map(|i| (12 + i * 40 + i * 29 % 37, 1 + (i % 9 == 0) as u64)));
    let cases = [
        (10_000u64, vec![]),
        (10_000, vec![(0, 1)]),
        (0, vec![(u64::MAX, u64::MAX)]),
        (10_000, dense.clone()),
        (1, gapped.clone()),
        (1, gapped.into_iter().rev().collect()),
        (u64::MAX, dense.iter().rev().copied().collect()),
        (10_000, vec![(5, 1), (5, 1), (5, 9), (0, 1), (5, 2)]),
        (10_000, extremes.clone()),
        (10_000, fsd),
        (10_000, vec![(u64::MAX - 1, 0), (u64::MAX, 0)]),
        (10_000, vec![(0, 0), (1 << 63, u64::MAX), (u64::MAX, 1)]),
    ];
    for (bin_bytes, bins) in cases {
        let response = Response::Hist { bin_bytes, bins };
        same_at_every_cut(
            &response,
            to_bytes(&response),
            old_bytes(|e| e.hist(&response)),
            |b| OldDec::whole(b, |d| d.hist()),
        );
        let reply = ReplyMsg {
            req_id: 0x1234_5678,
            response,
            coverage: Coverage {
                answered: vec![0, 3, 200],
                missed: vec![1],
                timed_out: vec![2, 70_000],
            },
        };
        same_at_every_cut(
            &reply,
            to_bytes(&reply),
            old_bytes(|e| e.reply(&reply)),
            |b| OldDec::whole(b, |d| d.reply()),
        );
        let framed = Frame::build(0x11, &reply);
        assert_eq!(
            framed,
            old_to_wire(&Frame::new(0x11, old_bytes(|e| e.reply(&reply))))
        );
    }
}

/// Keys at every gap width the orders take, up to the 129-bit code of
/// `u64::MAX` at order 0, against the bit-by-bit codec; the bytes of that
/// code spelled out; and each way a bitstream can be malformed, rejected
/// alike by both.
#[test]
fn hist_codes_at_their_longest_match_the_bit_by_bit_codec() {
    let half = 1u64 << 63;
    let mut keys = vec![0u64, 31, 63, 64, 4_159, 8_255, 1 << 30, half, 0];
    keys.extend([half - 1, 1 << 62, u64::MAX, 0, u64::MAX - (1 << 62)]);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let cases = [
        keys.iter().map(|&k| (k, 1)).collect::<Vec<_>>(),
        keys.iter().map(|&k| (k, k % 3)).collect(),
        sorted.iter().map(|&k| (k, k.wrapping_neg())).collect(),
        (0..500u64)
            .map(|k| (k * 37, 1 + (k % 5 == 0) as u64))
            .collect(),
    ];
    for bins in cases {
        let response = Response::Hist {
            bin_bytes: 10_000,
            bins,
        };
        same_at_every_cut(
            &response,
            to_bytes(&response),
            old_bytes(|e| e.hist(&response)),
            |b| OldDec::whole(b, |d| d.hist()),
        );
    }
    // One bin, key 0 and count 0: ascending at order 0 (header 0x40), the
    // key's code is one bit, and the count's, of `u64::MAX`, is 64 zeros,
    // a one and 64 zeros. 130 bits, so six pad bits.
    let top = Response::Hist {
        bin_bytes: 1,
        bins: vec![(0, 0)],
    };
    let mut want = vec![4, 1, 1, 0x40, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x40];
    want.extend([0; 8]);
    assert_eq!(to_bytes(&top), want);
    let both = |bytes: &[u8]| {
        let lib = from_bytes::<Response>(bytes);
        assert_eq!(lib, OldDec::whole(bytes, |d| d.hist()), "{bytes:x?}");
        lib
    };
    // A 65th leading zero; a value past `u64::MAX`; a pad bit set; bit 7
    // of the header set.
    let mut zeros = want.clone();
    zeros[12] = 0;
    let mut past = want.clone();
    past[20] = 0x40;
    let mut pad = want.clone();
    pad[20] = 0x01;
    let mut header = want.clone();
    header[3] = 0xC0;
    assert_eq!(both(&zeros), Err(WireError::VarintOverflow));
    assert_eq!(both(&past), Err(WireError::VarintOverflow));
    assert_eq!(both(&pad), Err(WireError::NonzeroPadding));
    assert_eq!(both(&header), Err(WireError::InvalidTag(0xC0)));
    // An ascending key past `u64::MAX`: key `u64::MAX`, then a gap of 0.
    let mut bits = Bits::default();
    for (v, k) in [(u64::MAX, 0), (0, 0), (0, 0), (0, 0)] {
        bits.exp_golomb(v, k);
    }
    let mut wrap = vec![4, 1, 2, 0x40];
    wrap.extend(bits.bytes());
    assert_eq!(both(&wrap), Err(WireError::VarintOverflow));
    // More bins than two bits each can hold.
    assert_eq!(both(&[4, 1, 5, 0x40, 0xFF]), Err(WireError::LengthOverrun));
}

/// The order picked from bit-length histograms is the one that trying
/// every order finds, on values spread over every bit length and on
/// values just below, at and above each carry boundary.
#[test]
fn exp_golomb_order_matches_trying_every_order() {
    let cost = |values: &[u64], k: u32| {
        let mut bits = Bits::default();
        values.iter().for_each(|&v| bits.exp_golomb(v, k));
        bits.0.len()
    };
    let mut seed = [0u8; 8];
    for round in 0..400u64 {
        fill(round, &mut seed);
        let mix = u64::from_le_bytes(seed);
        let values: Vec<u64> = (0..1 + mix % 40)
            .map(|i| {
                fill(round * 64 + i, &mut seed);
                let v = u64::from_le_bytes(seed) >> (mix >> (i % 8 * 8) & 63);
                match i % 3 {
                    0 => v,
                    1 => (u64::MAX >> (v % 64)) << (mix % 8),
                    _ => ((u64::MAX >> (v % 64)) << (mix % 8)).wrapping_sub(1),
                }
            })
            .collect();
        let best = (0..64).min_by_key(|&k| cost(&values, k)).unwrap();
        assert_eq!(
            pathdump_wire::exp_golomb_order(values.iter().copied()),
            best,
            "{values:?}"
        );
    }
    assert_eq!(pathdump_wire::exp_golomb_order(std::iter::empty()), 0);
}

/// Exact sizes of 3 000-bin replies, from the documented layout: the tag,
/// `bin_bytes` 10 000 (two varint bytes), the bin count (two) and the
/// header, then the bits, padded to a byte.
#[test]
fn hist_reply_sizes_follow_the_layout() {
    let size = |bins: Vec<(u64, u64)>| {
        to_bytes(&Response::Hist {
            bin_bytes: 10_000,
            bins,
        })
        .len()
    };
    let head = 1 + 2 + 2 + 1;
    // Dense keys 0..3 000 ascend with gaps of 0: one bit each at order 0.
    // A count `c` takes `2·bits(c) − 1`; over counts 1..=100 that is
    // 1 + 2·3 + 4·5 + 8·7 + 16·9 + 32·11 + 37·13 = 1 060 bits.
    let dense: Vec<(u64, u64)> = (0..3_000).map(|k| (k, 1 + k % 100)).collect();
    assert_eq!(size(dense.clone()), head + (3_000 + 30 * 1_060) / 8);
    // Sparse keys 0, 1 000, 2 000, … holding one flow each: gaps of 999
    // (10 bits) and a first of 0 take 11 bits each at order 10, and each
    // count one bit; 36 000 bits.
    let sparse: Vec<(u64, u64)> = (0..3_000).map(|i| (i * 1_000, 1)).collect();
    assert_eq!(size(sparse), head + 36_000 / 8);
    // Dense keys descending: zigzagged steps, the first 5 998 (13 bits),
    // every later one 1. At order 1 a step of 1 takes two bits and 5 998
    // takes 2·12 + 1 − 1 = 24; the counts as for `dense`. 37 822 bits.
    let unsorted: Vec<(u64, u64)> = dense.into_iter().rev().collect();
    assert_eq!(size(unsorted), head + 37_822usize.div_ceil(8));
}

#[test]
fn wal_record_frames_match_the_field_by_field_codec() {
    let fl = flows();
    let paths = [
        Path::new(vec![]),
        Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(16), SwitchId(12)]),
        Path::new(vec![SwitchId(127), SwitchId(128), SwitchId(u16::MAX)]),
    ];
    let spans = [
        (0u64, 0u64),
        (10, 250),
        (1 << 40, (1 << 40) + 9_999),
        (u64::MAX - 1, u64::MAX),
    ];
    let mut log = Vec::new();
    let mut recs = Vec::new();
    for (i, &(stime, etime)) in spans.iter().enumerate() {
        for (j, path) in paths.iter().enumerate() {
            let rec = TibRecord {
                flow: fl[(i + j) % fl.len()],
                path: path.clone(),
                stime: Nanos(stime),
                etime: Nanos(etime),
                bytes: [0, 1_460, u64::MAX][j],
                pkts: [1, 128, u64::MAX][i % 3],
            };
            let payload = old_bytes(|e| e.record(&rec));
            same_at_every_cut(&rec, to_bytes(&rec), payload.clone(), |b| {
                OldDec::whole(b, |d| d.record())
            });
            recs.push(OldDec::whole(&payload, |d| d.record()));
            // The frame, and every cut of it read as the WAL reads it.
            let wire = frame_record(&rec);
            assert_eq!(wire, old_to_wire(&Frame::new(WAL_FRAME_RECORD, payload)));
            for cut in 0..=wire.len() {
                let new = Frame::parse(&wire[..cut]).and_then(|(_, p, _)| from_bytes(p));
                let old = old_from_wire(&wire[..cut])
                    .and_then(|(f, _)| OldDec::whole(&f.payload, |d| d.record()));
                assert_eq!(new, old, "cut {cut} of {rec:?}");
            }
            log.extend(wire);
        }
    }
    let recs: WireResult<Vec<TibRecord>> = recs.into_iter().collect();
    assert_eq!(replay(&log).map(|r| r.records), recs);
}

#[test]
fn get_paths_and_get_count_requests_match_the_field_by_field_codec() {
    let fl = flows();
    let links = [
        LinkPattern::ANY,
        LinkPattern::exact(SwitchId(1), SwitchId(300)),
        LinkPattern::into(SwitchId(u16::MAX)),
        LinkPattern::out_of(SwitchId(0)),
    ];
    let ranges = [
        TimeRange::ANY,
        TimeRange::since(Nanos(5)),
        TimeRange::until(Nanos(u64::MAX)),
        TimeRange::between(Nanos(128), Nanos(1 << 50)),
    ];
    let hosts: Vec<usize> = (0..13).collect();
    let subtrees = [
        TreeNode {
            host: 300,
            children: vec![],
        },
        build_tree(&hosts, &[1, 3, 3]).remove(0),
    ];
    for (i, flow) in fl.iter().enumerate() {
        let (link, range) = (links[i % links.len()], ranges[i % ranges.len()]);
        let queries = [
            Query::GetPaths {
                flow: *flow,
                link,
                range,
            },
            Query::GetCount {
                flow: *flow,
                path: None,
                range,
            },
            Query::GetCount {
                flow: *flow,
                path: Some(Path::new(vec![SwitchId(3), SwitchId(200)])),
                range,
            },
        ];
        for query in queries {
            let req = RequestMsg {
                req_id: i as u64 * 1_000_003,
                deadline: Nanos::from_millis(250),
                query,
                subtree: subtrees[i % subtrees.len()].clone(),
            };
            same_at_every_cut(&req, to_bytes(&req), old_bytes(|e| e.request(&req)), |b| {
                OldDec::whole(b, |d| d.request())
            });
        }
    }
}
