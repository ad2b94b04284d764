//! Group-commit differential suite for the WAL.
//!
//! The oracle is the log as it was written one record at a time: one
//! `WAL_FRAME_RECORD` frame (a wire-encoded `TibRecord`) per record, in
//! insertion order. Whatever framing the store writes, replaying its log
//! must give the oracle's records in the oracle's order, and a store
//! recovered from it must answer every query as one recovered from the
//! oracle does.
//!
//! The store writes one frame per `insert_batch` (group commit), so a
//! kill mid-append loses whole batches: every cut of its log replays the
//! batches before the cut and reports the rest as a torn tail.

use pathdump_tib::wal::{frame_batch, frame_record, replay, WAL_FRAME_BATCH, WAL_FRAME_RECORD};
use pathdump_tib::{TibRead, TibRecord, TieredTib, VecWal};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::{Encoder, Frame, WireError, FRAME_OVERHEAD};
use proptest::prelude::*;

/// The per-record writer: one frame per record, each the record's wire
/// encoding behind the frame header.
fn oracle_log(batches: &[Vec<TibRecord>]) -> Vec<u8> {
    let mut log = Vec::new();
    for rec in batches.iter().flatten() {
        log.extend(Frame::build(WAL_FRAME_RECORD, rec));
    }
    log
}

fn flow(i: u16) -> FlowId {
    FlowId::tcp(
        Ip::new(10, 0, i as u8, 2),
        40_000 + i,
        Ip::new(10, 3, 0, 2),
        80,
    )
}

/// Four five-switch paths between one ToR pair of a k = 4 fat-tree, and a
/// one-switch path.
fn path(i: usize) -> Path {
    let ids: &[u16] = match i % 5 {
        0 => &[0, 8, 16, 14, 6],
        1 => &[0, 8, 17, 14, 6],
        2 => &[0, 9, 18, 15, 6],
        3 => &[0, 9, 19, 15, 6],
        _ => &[3],
    };
    Path(ids.iter().copied().map(SwitchId).collect())
}

/// Start times that make the zigzag step wide, negative and wrapping.
const STIMES: [u64; 6] = [0, 1, 1_000, 1 << 40, u64::MAX - 1_000, u64::MAX];

/// One generated record: flow, path, start-time selector and offset,
/// duration, bytes.
type Gen = (u16, usize, usize, u64, u64, u64);

/// One generated batch: whether it is FIN-shaped (one flow, one record
/// per path, as a FIN eviction exports), and its records.
type GenBatch = (bool, Vec<Gen>);

fn record(g: &Gen, fin_flow: Option<u16>) -> TibRecord {
    let &(f, p, s, off, dur, bytes) = g;
    let stime = STIMES[s % STIMES.len()].saturating_add(off);
    TibRecord {
        flow: flow(fin_flow.unwrap_or(f)),
        path: path(p),
        stime: Nanos(stime),
        etime: Nanos(stime.saturating_add(dur)),
        // Up to 2^40 bytes: wide varints whose store totals cannot overflow.
        bytes: bytes >> 24,
        pkts: 1 + bytes % 1_000,
    }
}

fn batches_of(spec: &[GenBatch]) -> Vec<Vec<TibRecord>> {
    spec.iter()
        .map(|(fin, gens)| {
            let fin_flow = fin.then(|| gens.first().map_or(0, |g| g.0));
            gens.iter().map(|g| record(g, fin_flow)).collect()
        })
        .collect()
}

fn gen_batches() -> impl Strategy<Value = Vec<GenBatch>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            proptest::collection::vec(
                (
                    0u16..6,
                    0usize..5,
                    0usize..6,
                    0u64..5_000,
                    0u64..100_000,
                    any::<u64>(),
                ),
                1..6,
            ),
        ),
        0..8,
    )
}

fn flat(batches: &[Vec<TibRecord>]) -> Vec<TibRecord> {
    batches.iter().flatten().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The oracle replays to its own records, with no torn tail.
    #[test]
    fn oracle_log_replays_its_records(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let rep = replay(&oracle_log(&batches)).expect("oracle log replays");
        prop_assert_eq!(rep.records, flat(&batches));
        prop_assert_eq!(rep.dropped_tail, 0);
    }

    /// A store fed one record at a time writes the oracle's bytes.
    #[test]
    fn single_inserts_write_the_oracle_bytes(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let mut store = TieredTib::new();
        store.attach_wal(Box::new(VecWal::new()));
        for rec in batches.iter().flatten() {
            store.insert(rec.clone());
        }
        prop_assert_eq!(store.wal_bytes().expect("wal bytes"), oracle_log(&batches));
    }
}

/// The store's log of `batches`, one `insert_batch` each, and the frame
/// end offsets. Every record is seen by `each` once, right after its own
/// insert.
fn store_log(batches: &[Vec<TibRecord>]) -> (Vec<u8>, Vec<usize>) {
    let mut store = TieredTib::new();
    store.set_seal_after(Some(3));
    store.attach_wal(Box::new(VecWal::new()));
    let mut seen = Vec::new();
    let mut ends = Vec::new();
    for batch in batches {
        store
            .insert_batch(batch, |s, r| {
                assert_eq!(s.len(), seen.len() + 1, "one step per record, after it");
                seen.push(r.clone());
            })
            .expect("well-formed batch");
        ends.push(store.wal_len() as usize);
    }
    assert_eq!(seen, flat(batches));
    assert_eq!(store.wal_errors(), 0);
    (store.wal_bytes().expect("wal bytes"), ends)
}

/// The frame `frame_batch` appends for `batch`.
fn batch_frame(batch: &[TibRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_batch(batch, &mut out);
    out
}

fn empty_snapshot() -> Vec<u8> {
    let mut snapshot = Vec::new();
    TieredTib::new()
        .checkpoint(&mut snapshot)
        .expect("checkpoint");
    snapshot
}

/// Every `TibRead` query, on every flow of `recs` and on a few ranges
/// and link patterns, answers the same on `a` and `b`.
fn assert_same_answers(a: &TieredTib, b: &TieredTib, recs: &[TibRecord]) {
    assert_eq!(a.records_vec(), b.records_vec());
    let ranges = [
        TimeRange::ANY,
        TimeRange::between(Nanos(500), Nanos(1 << 41)),
        TimeRange::until(Nanos(2_000)),
        TimeRange::between(Nanos(u64::MAX - 2_000), Nanos(u64::MAX)),
    ];
    let links = [
        LinkPattern::ANY,
        LinkPattern::exact(SwitchId(8), SwitchId(16)),
        LinkPattern::out_of(SwitchId(9)),
    ];
    for range in ranges {
        for link in links {
            assert_eq!(a.get_flows(link, range), b.get_flows(link, range));
            assert_eq!(
                a.link_flow_counts(link, range),
                b.link_flow_counts(link, range)
            );
        }
        assert_eq!(a.top_k_flows(3, range), b.top_k_flows(3, range));
        for r in recs {
            assert_eq!(
                a.get_paths(r.flow, LinkPattern::ANY, range),
                b.get_paths(r.flow, LinkPattern::ANY, range)
            );
            for path in [None, Some(&r.path)] {
                assert_eq!(
                    a.get_count(r.flow, path, range),
                    b.get_count(r.flow, path, range)
                );
                assert_eq!(
                    a.get_duration(r.flow, path, range),
                    b.get_duration(r.flow, path, range)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A log written through `insert_batch` replays to the oracle's
    /// records, in the same order, with one frame per non-empty batch.
    #[test]
    fn batched_log_replays_to_the_oracle(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let (log, ends) = store_log(&batches);
        let rep = replay(&log).expect("store log replays");
        let oracle = replay(&oracle_log(&batches)).expect("oracle log replays");
        prop_assert_eq!(&rep.records, &oracle.records);
        prop_assert_eq!(rep.dropped_tail, 0);
        let mut start = 0;
        for (batch, end) in batches.iter().zip(&ends) {
            prop_assert_eq!(&log[start..*end], &batch_frame(batch)[..]);
            start = *end;
        }
    }

    /// A store recovered from the batched log answers every query as one
    /// recovered from the oracle's log.
    #[test]
    fn recovered_store_answers_as_the_oracle(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let snapshot = empty_snapshot();
        let (log, _) = store_log(&batches);
        let (got, got_report) = TieredTib::recover(&snapshot, &log).expect("recover");
        let (want, want_report) =
            TieredTib::recover(&snapshot, &oracle_log(&batches)).expect("recover oracle");
        prop_assert_eq!(got_report, want_report);
        assert_same_answers(&got, &want, &flat(&batches));
    }

    /// A kill at any byte of a multi-batch log: the batches whose frames
    /// end at or before the cut replay whole, the rest is a reported torn
    /// tail — never a part of a batch.
    #[test]
    fn every_cut_loses_whole_batches(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let (log, ends) = store_log(&batches);
        for cut in 0..=log.len() {
            let rep = replay(&log[..cut]).expect("a cut is a torn tail");
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            let durable = if complete == 0 { 0 } else { ends[complete - 1] };
            prop_assert_eq!(&rep.records, &flat(&batches[..complete]));
            prop_assert_eq!(rep.dropped_tail, cut - durable);
        }
    }

    /// No bit flip panics, and none is read as data that was not written:
    /// a flipped log replays to an error or to a prefix of whole batches.
    /// The same flips inside a batch payload under a recomputed CRC reach
    /// the batch decoder itself, which must fail or decode, never panic.
    #[test]
    fn no_bit_flip_panics(spec in gen_batches(), bit in 0usize..8) {
        let batches = batches_of(&spec);
        let (log, ends) = store_log(&batches);
        for i in 0..log.len() {
            let mut bad = log.clone();
            bad[i] ^= 1 << bit;
            if let Ok(rep) = replay(&bad) {
                let complete = ends.iter().filter(|&&e| e <= log.len() - rep.dropped_tail).count();
                prop_assert_eq!(&rep.records, &flat(&batches[..complete]));
            }
        }
        for batch in batches.iter().filter(|b| b.len() > 1) {
            let frame = batch_frame(batch);
            let payload = &frame[6..frame.len() - 4];
            for i in 0..payload.len() {
                let mut bad = payload.to_vec();
                bad[i] ^= 1 << bit;
                let _ = replay(&Frame::new(WAL_FRAME_BATCH, bad).to_wire());
            }
        }
    }

    /// A log that mixes the two frame types — a per-record log continued
    /// by a batching store — replays every record in order.
    #[test]
    fn mixed_frame_types_replay_in_order(spec in gen_batches()) {
        let batches = batches_of(&spec);
        let mut log = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            if i % 2 == 0 {
                batch.iter().for_each(|r| log.extend(frame_record(r)));
            } else {
                frame_batch(batch, &mut log);
            }
        }
        let rep = replay(&log).expect("mixed log replays");
        prop_assert_eq!(rep.records, flat(&batches));
        prop_assert_eq!(rep.dropped_tail, 0);
    }
}

/// A FIN batch: one flow's records, one per path, 10 ns apart.
fn fin_batch(n: usize) -> Vec<TibRecord> {
    (0..n)
        .map(|i| TibRecord {
            flow: flow(1),
            path: path(i),
            stime: Nanos(20 + 10 * i as u64),
            etime: Nanos(50 + 10 * i as u64),
            bytes: 1_500,
            pkts: 1,
        })
        .collect()
}

/// Frame sizes from the documented layout. A record of these batches
/// takes a 5-switch path (a length byte and five ids), a one-byte stime
/// step (the first, 20, zigzags to 40; later steps of ±10 to 20 or 19),
/// a one-byte duration (30), two bytes of `bytes` (1 500) and one of
/// `pkts`: 11 bytes, and one more for a flow index when the table has two
/// or more flows. Alone, the same record is a whole wire record: its
/// 13-byte flow id, the path, a one-byte stime and the rest.
#[test]
fn batch_sizes_follow_the_layout() {
    let fin = fin_batch(4);
    // One record: today's frame, byte for byte.
    assert_eq!(
        batch_frame(&fin[..1]),
        Frame::build(WAL_FRAME_RECORD, &fin[0])
    );
    assert_eq!(frame_record(&fin[0]).len(), FRAME_OVERHEAD + 13 + 11);
    // A FIN batch: one table entry, no indices.
    assert_eq!(
        batch_frame(&fin).len(),
        FRAME_OVERHEAD + 1 + 13 + 1 + 4 * 11
    );
    // Reversed: a first step of 50 (zigzag 100), then −10s: one byte each.
    let rev: Vec<TibRecord> = fin.iter().rev().cloned().collect();
    assert_eq!(
        batch_frame(&rev).len(),
        FRAME_OVERHEAD + 1 + 13 + 1 + 4 * 11
    );
    // A flush batch of two flows: two table entries, an index per record.
    let mut flush = fin.clone();
    flush[1].flow = flow(2);
    flush[3].flow = flow(2);
    assert_eq!(
        batch_frame(&flush).len(),
        FRAME_OVERHEAD + 1 + 2 * 13 + 1 + 4 * (1 + 11)
    );
    assert_eq!(
        replay(&batch_frame(&flush)).expect("replays").records,
        flush
    );
    // An empty batch is a well-formed frame of nothing.
    assert_eq!(batch_frame(&[]).len(), FRAME_OVERHEAD + 2);
    assert!(replay(&batch_frame(&[]))
        .expect("replays")
        .records
        .is_empty());
}

/// A batch payload with a valid CRC can still lie; each lie is an error.
#[test]
fn malformed_batch_payloads_are_errors() {
    let framed = |payload: Vec<u8>| Frame::new(WAL_FRAME_BATCH, payload).to_wire();
    let two_flows = {
        let mut b = fin_batch(2);
        b[1].flow = flow(2);
        b
    };
    let good = batch_frame(&two_flows);
    let payload = good[6..good.len() - 4].to_vec();

    // A flow count beyond what the payload can hold: refused before any
    // allocation.
    let mut enc = Encoder::new();
    enc.put_varint(u64::MAX / 2);
    assert_eq!(
        replay(&framed(enc.into_bytes())),
        Err(WireError::LengthOverrun)
    );
    // A record count beyond what the rest can hold.
    let mut huge = payload[..1 + 2 * 13].to_vec();
    huge.extend([0xFF, 0xFF, 0x03]);
    huge.extend(&payload[1 + 2 * 13 + 1..]);
    assert_eq!(replay(&framed(huge)), Err(WireError::LengthOverrun));
    // A flow index outside the two-entry table.
    let mut bad_index = payload.clone();
    bad_index[1 + 2 * 13 + 1] = 2;
    assert_eq!(replay(&framed(bad_index)), Err(WireError::InvalidTag(2)));
    // Records with no flow table to index.
    let mut no_table = vec![0, 1];
    no_table.extend(&payload[1 + 2 * 13 + 1..1 + 2 * 13 + 1 + 12]);
    assert!(replay(&framed(no_table)).is_err());
    // Trailing bytes after the last record.
    let mut trailing = payload.clone();
    trailing.push(0);
    assert_eq!(replay(&framed(trailing)), Err(WireError::TrailingBytes(1)));
    // An etime past 64 bits.
    let mut late = fin_batch(2);
    late[1].stime = Nanos(u64::MAX);
    late[1].etime = Nanos(u64::MAX);
    let frame = batch_frame(&late);
    let mut wrapped = frame[6..frame.len() - 4].to_vec();
    // The second record's duration byte: after the flow count, the flow,
    // the record count, one whole record, then a path and the wrapping
    // stime step from 20 to `u64::MAX`, −21, zigzagged to one byte.
    let dur = 1 + 13 + 1 + 11 + 6 + 1;
    assert_eq!(wrapped[dur], 0);
    wrapped[dur] = 1;
    assert_eq!(replay(&framed(wrapped)), Err(WireError::VarintOverflow));
    // The untouched payload decodes.
    assert_eq!(
        replay(&framed(payload)).expect("replays").records,
        two_flows
    );
}
