//! Per-host write-ahead log for the tiered TIB.
//!
//! Every [`TieredTib::insert_batch`](crate::segment::TieredTib::insert_batch)
//! with a WAL attached appends the whole batch as one frame, in one
//! append, *before* any of its records becomes queryable, so a *process*
//! crash loses at most the batch being appended (see [`FileWal`] for what
//! a power loss can take): recovery loads the last snapshot and replays
//! the WAL over it
//! ([`TieredTib::recover`](crate::segment::TieredTib::recover)). After a
//! successful snapshot ([`checkpoint`](crate::segment::TieredTib::checkpoint))
//! the log is reset — it only ever holds the records inserted since.
//!
//! # Framing
//!
//! Frames reuse the wire codec's [`Frame`] layout verbatim
//! (`len:u32 | typ:u16 | payload | crc:u32`, CRC over `typ + payload`).
//! [`frame_batch`] is the one writer, and it writes one of two types:
//!
//! - [`WAL_FRAME_RECORD`], for a batch of one record: the payload is the
//!   wire-encoded [`TibRecord`] — the exact bytes the rpc plane ships, so
//!   the codec robustness suite's truncation/corruption guarantees carry
//!   over. A log written one record at a time is a run of these.
//! - [`WAL_FRAME_BATCH`], for a batch of two or more, table-coded as a
//!   top-k reply is: each flow id is written once, and each record names
//!   its flow by index into that table.
//!   - A varint flow count, then each distinct flow id once (13 bytes),
//!     in first-appearance order.
//!   - A varint record count.
//!   - Per record: the varint flow index, left out when the table has one
//!     entry (a FIN batch is one flow's records, one per path it used);
//!     the path as a record writes it; the zigzag varint of the step of
//!     `stime` from the previous record's (the first from 0); the varint
//!     duration `etime − stime`; varint `bytes`; varint `pkts`.
//!
//! [`replay`] flattens both types, in log order.
//!
//! # Torn-tail tolerance (and what is NOT tolerated)
//!
//! A crash mid-append leaves a *prefix* of a valid frame at the end of
//! the log. [`replay`] stops at the first [`WireError::UnexpectedEof`]
//! and reports the dropped byte count — that is the explicitly-tolerated
//! truncation. A torn batch frame loses exactly its batch: the CRC covers
//! the frame whole, so none of its records replays, and none of them was
//! queryable before the append returned. Everything else is corruption
//! and fails the replay hard: a CRC mismatch ([`WireError::BadChecksum`]),
//! an unknown frame type, a payload that does not decode, a count larger
//! than the payload could hold, a flow index outside the table, or
//! trailing payload bytes. Snapshot loading ([`crate::snapshot`])
//! tolerates no truncation at all; the crash-recovery suite pins the
//! distinction.

use crate::record::TibRecord;
use pathdump_topology::{FlowId, FnvBuild, Nanos, Path};
use pathdump_wire::types::FLOW_ID_LEN;
use pathdump_wire::{
    from_bytes, unzigzag_step, zigzag_step, Decode, Decoder, Encode, Encoder, Frame, WireError,
    WireResult,
};
use std::collections::HashMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path as FsPath, PathBuf};

/// Frame type tag of a WAL append of one record.
pub const WAL_FRAME_RECORD: u16 = 0x0A17;

/// Frame type tag of a WAL append of a batch of two or more records.
pub const WAL_FRAME_BATCH: u16 = 0x0A18;

/// The fewest bytes a batch-frame record takes past its flow index: a
/// one-byte path length and four one-byte varints.
const MIN_BATCH_RECORD: usize = 5;

/// Encodes one record as a WAL frame: [`frame_batch`] of a one-record
/// batch.
pub fn frame_record(rec: &TibRecord) -> Vec<u8> {
    let mut out = Vec::new();
    frame_batch(std::slice::from_ref(rec), &mut out);
    out
}

/// Appends to `out` the one frame that logs `batch` (see the module docs
/// for the two layouts). A one-record batch is the [`WAL_FRAME_RECORD`]
/// frame of that record, byte for byte.
pub fn frame_batch(batch: &[TibRecord], out: &mut Vec<u8>) {
    if let [rec] = batch {
        return Frame::build_into(out, WAL_FRAME_RECORD, |enc| rec.encode(enc));
    }
    Frame::build_into(out, WAL_FRAME_BATCH, |enc| encode_batch(batch, enc));
}

/// The batch payload: the flow table, numbered in first-appearance order
/// through a map, then the records.
fn encode_batch(batch: &[TibRecord], enc: &mut Encoder) {
    let mut index: HashMap<FlowId, u64, FnvBuild> = HashMap::default();
    let mut flows = Vec::new();
    for r in batch {
        index.entry(r.flow).or_insert_with(|| {
            flows.push(r.flow);
            flows.len() as u64 - 1
        });
    }
    enc.put_varint(flows.len() as u64);
    flows.iter().for_each(|f| f.encode(enc));
    enc.put_varint(batch.len() as u64);
    let mut prev = 0;
    for r in batch {
        if flows.len() != 1 {
            enc.put_varint(index[&r.flow]);
        }
        r.path.encode(enc);
        enc.put_varint(zigzag_step(prev, r.stime.0));
        prev = r.stime.0;
        enc.put_varint(r.etime.0 - r.stime.0);
        enc.put_varint(r.bytes);
        enc.put_varint(r.pkts);
    }
}

/// A count of items of at least `width` bytes each, checked against the
/// input left before anything is allocated for them.
fn get_count(dec: &mut Decoder<'_>, width: usize) -> WireResult<usize> {
    let n = dec.get_varint()?;
    if n > (dec.remaining() / width) as u64 {
        return Err(WireError::LengthOverrun);
    }
    Ok(n as usize)
}

/// Reads what [`encode_batch`] writes, appending the records to `out`.
fn decode_batch(payload: &[u8], out: &mut Vec<TibRecord>) -> WireResult<()> {
    let mut dec = Decoder::new(payload);
    let n_flows = get_count(&mut dec, FLOW_ID_LEN)?;
    let flows = (0..n_flows)
        .map(|_| FlowId::decode(&mut dec))
        .collect::<WireResult<Vec<_>>>()?;
    let indexed = n_flows != 1;
    let n = get_count(&mut dec, MIN_BATCH_RECORD + usize::from(indexed))?;
    out.reserve(n);
    let mut stime = 0;
    for _ in 0..n {
        let i = if indexed { dec.get_varint()? } else { 0 };
        let flow = *usize::try_from(i)
            .ok()
            .and_then(|i| flows.get(i))
            .ok_or(WireError::InvalidTag(i.min(u64::from(u32::MAX)) as u32))?;
        let path = Path::decode(&mut dec)?;
        stime = unzigzag_step(stime, dec.get_varint()?);
        // As for a lone record: an etime past 64 bits is corruption.
        let etime = stime
            .checked_add(dec.get_varint()?)
            .ok_or(WireError::VarintOverflow)?;
        out.push(TibRecord {
            flow,
            path,
            stime: Nanos(stime),
            etime: Nanos(etime),
            bytes: dec.get_varint()?,
            pkts: dec.get_varint()?,
        });
    }
    dec.finish()
}

/// The outcome of a successful WAL replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Fully-framed records, in append order.
    pub records: Vec<TibRecord>,
    /// Bytes of torn tail dropped after the last complete frame (0 for a
    /// cleanly-closed log).
    pub dropped_tail: usize,
}

/// Replays a WAL byte stream: the records of every frame, batch frames
/// flattened, in log order. A torn tail (the stream ending mid-frame) is
/// tolerated and reported via [`WalReplay::dropped_tail`]; any other
/// malformation — bad CRC, unknown frame type, undecodable payload — is
/// an error (see the module docs for why the two are different).
pub fn replay(bytes: &[u8]) -> WireResult<WalReplay> {
    let mut rest = bytes;
    let mut records = Vec::new();
    while !rest.is_empty() {
        let (typ, payload, used) = match Frame::parse(rest) {
            // The torn tail: a crash cut the final append short. The CRC
            // was checked on every complete frame before this point.
            Err(WireError::UnexpectedEof) => break,
            parsed => parsed?,
        };
        match typ {
            WAL_FRAME_RECORD => records.push(from_bytes::<TibRecord>(payload)?),
            WAL_FRAME_BATCH => decode_batch(payload, &mut records)?,
            _ => return Err(WireError::InvalidTag(u32::from(typ))),
        }
        rest = &rest[used..];
    }
    Ok(WalReplay {
        records,
        dropped_tail: rest.len(),
    })
}

/// Where WAL frames durably land. Implementations must make `bytes`
/// return exactly the appended-and-not-reset frame stream; beyond that
/// the engine is storage-agnostic ([`VecWal`] for tests and crash
/// simulation, [`FileWal`] for real per-host logs).
pub trait WalStore: std::fmt::Debug + Send {
    /// Appends pre-framed bytes (one whole frame per call: one batch).
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()>;

    /// Discards the log contents (called after a successful snapshot —
    /// every logged record is now durable in the snapshot).
    fn reset(&mut self) -> std::io::Result<()>;

    /// The current log contents.
    fn bytes(&self) -> std::io::Result<Vec<u8>>;

    /// Current log length in bytes.
    fn len(&self) -> u64;

    /// True when the log holds no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory WAL: the crash-recovery suite truncates its buffer at
/// arbitrary offsets to simulate kills mid-append.
#[derive(Clone, Debug, Default)]
pub struct VecWal {
    buf: Vec<u8>,
}

impl VecWal {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        VecWal::default()
    }
}

impl WalStore for VecWal {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(frame);
        Ok(())
    }

    fn reset(&mut self) -> std::io::Result<()> {
        self.buf.clear();
        Ok(())
    }

    fn bytes(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.buf.clone())
    }

    fn len(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// A file-backed WAL. Each append — one batch's frame — is one `write_all`
/// straight to the file descriptor (no user-space buffer; the `flush`
/// after it is a no-op on `File`), so once `append` returns the whole
/// batch is in the OS page cache: it **survives a kill of this process,
/// not a power loss or kernel crash**. A kill during the write tears at
/// most that batch's frame, and [`replay`] drops the batch whole. Nothing
/// calls `sync_data`, and whatever the kernel had not written back is
/// gone, possibly more than the torn tail [`replay`] tolerates. Reset
/// truncates in place. The file is created (or truncated) on open — pass
/// its prior contents through [`replay`] *before* reopening when
/// recovering.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: std::fs::File,
    written: u64,
}

impl FileWal {
    /// Creates (truncating any previous log) a WAL at `path`.
    pub fn create(path: &FsPath) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileWal {
            path: path.to_path_buf(),
            file,
            written: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &FsPath {
        &self.path
    }
}

impl WalStore for FileWal {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.file.write_all(frame)?;
        self.file.flush()?;
        self.written += frame.len() as u64;
        Ok(())
    }

    fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.written = 0;
        Ok(())
    }

    fn bytes(&self) -> std::io::Result<Vec<u8>> {
        std::fs::read(&self.path)
    }

    fn len(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FlowId, Ip, Nanos, Path as TPath, SwitchId};
    use pathdump_wire::to_bytes;

    fn rec(sport: u16, t0: u64) -> TibRecord {
        TibRecord {
            flow: FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80),
            path: TPath::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
            stime: Nanos(t0),
            etime: Nanos(t0 + 50),
            bytes: 1000 + u64::from(sport),
            pkts: 3,
        }
    }

    fn log_of(recs: &[TibRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in recs {
            out.extend(frame_record(r));
        }
        out
    }

    #[test]
    fn replay_roundtrip() {
        let recs = vec![rec(1, 0), rec(2, 100), rec(3, 200)];
        let rep = replay(&log_of(&recs)).unwrap();
        assert_eq!(rep.records, recs);
        assert_eq!(rep.dropped_tail, 0);
        assert_eq!(replay(&[]).unwrap(), WalReplay::default());
    }

    #[test]
    fn every_truncation_recovers_the_durable_prefix() {
        let recs = vec![rec(1, 0), rec(2, 100), rec(3, 200)];
        let log = log_of(&recs);
        // Byte offset at which each frame ends (frames vary in size —
        // varint-encoded stimes).
        let mut ends = Vec::new();
        let mut off = 0;
        for r in &recs {
            off += frame_record(r).len();
            ends.push(off);
        }
        for cut in 0..=log.len() {
            let rep = replay(&log[..cut]).unwrap();
            // Exactly the records whose frames fit entirely below `cut`.
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let durable = if complete == 0 { 0 } else { ends[complete - 1] };
            assert_eq!(rep.records, recs[..complete], "cut at {cut}");
            assert_eq!(rep.dropped_tail, cut - durable);
        }
    }

    #[test]
    fn corruption_is_not_tolerated() {
        let log = log_of(&[rec(1, 0), rec(2, 100)]);
        // Flip one payload bit in the first frame: CRC catches it.
        let mut bad = log.clone();
        bad[8] ^= 0x01;
        assert_eq!(replay(&bad), Err(WireError::BadChecksum));
        // An unknown frame type is corruption, not a tolerated tail.
        let mut stream = Frame::new(0x7777, to_bytes(&rec(9, 0))).to_wire();
        stream.extend(log_of(&[rec(2, 100)]));
        assert_eq!(replay(&stream), Err(WireError::InvalidTag(0x7777)));
        // A frame whose payload has trailing garbage fails decode.
        let mut payload = to_bytes(&rec(1, 0));
        payload.push(0xEE);
        let framed = Frame::new(WAL_FRAME_RECORD, payload).to_wire();
        assert!(replay(&framed).is_err());
    }

    #[test]
    fn vec_wal_append_reset() {
        let mut w = VecWal::new();
        assert!(w.is_empty());
        w.append(&frame_record(&rec(1, 0))).unwrap();
        w.append(&frame_record(&rec(2, 50))).unwrap();
        assert_eq!(w.len(), 2 * frame_record(&rec(1, 0)).len() as u64);
        let rep = replay(&w.bytes().unwrap()).unwrap();
        assert_eq!(rep.records.len(), 2);
        w.reset().unwrap();
        assert!(w.is_empty());
        assert!(w.bytes().unwrap().is_empty());
    }

    #[test]
    fn file_wal_append_reset() {
        let dir = std::env::temp_dir().join(format!("pathdump-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("host.wal");
        let mut w = FileWal::create(&path).unwrap();
        w.append(&frame_record(&rec(1, 0))).unwrap();
        w.append(&frame_record(&rec(2, 50))).unwrap();
        assert_eq!(w.len(), w.bytes().unwrap().len() as u64);
        let rep = replay(&w.bytes().unwrap()).unwrap();
        assert_eq!(rep.records, vec![rec(1, 0), rec(2, 50)]);
        // Reopening truncates: a fresh log after checkpoint.
        w.reset().unwrap();
        assert!(w.is_empty());
        w.append(&frame_record(&rec(3, 99))).unwrap();
        assert_eq!(
            replay(&w.bytes().unwrap()).unwrap().records,
            vec![rec(3, 99)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
