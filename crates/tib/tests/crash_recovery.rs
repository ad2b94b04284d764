//! Crash-recovery differential gate (blocking in CI).
//!
//! The durability contract under test: a host that dies mid-ingest loses
//! at most the unflushed WAL tail. Concretely, for a kill at an
//! **arbitrary byte offset** into the log — including mid-frame —
//! `TieredTib::recover(snapshot, wal_prefix)` must reproduce exactly the
//! records durable at that point: everything in the last checkpoint plus
//! every *fully framed* WAL append, in order, answering all queries
//! bit-identically to a linear-scan reference over that prefix.
//!
//! The asymmetry pinned here (and unit-tested below) is deliberate:
//! a torn WAL tail is an expected crash artifact and is tolerated, but a
//! truncated *snapshot* — or any WAL damage other than the tail — is
//! corruption and must be rejected loudly.

use pathdump_tib::wal::{frame_record, replay, WAL_FRAME_RECORD};
use pathdump_tib::{FileWal, Tib, TibRead, TibRecord, TieredTib, VecWal};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use pathdump_wire::{Encode, Encoder, Frame, WireError};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn flow(sport: u16) -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
}

fn path_pool() -> Vec<Path> {
    vec![
        Path(vec![SwitchId(1), SwitchId(9), SwitchId(2)]),
        Path(vec![SwitchId(1), SwitchId(17), SwitchId(2)]),
        Path(vec![SwitchId(3)]),
    ]
}

/// One generated event: record shape + an action selector
/// (0..=1 insert, 2 insert+seal, 3 insert+checkpoint).
type Ev = (u16, usize, u64, u64, u64, u8);

fn record_of(ev: &Ev, pool: &[Path]) -> TibRecord {
    let &(sport, pidx, t0, dur, bytes, _) = ev;
    TibRecord {
        flow: flow(1 + sport % 5),
        path: pool[pidx % pool.len()].clone(),
        stime: Nanos(t0 % 100),
        etime: Nanos(t0 % 100 + dur % 40),
        bytes: 1 + bytes % 500,
        pkts: 1 + bytes % 5,
    }
}

/// Runs the ingest schedule, returning the last checkpoint's snapshot,
/// the full WAL contents at death, and the records each covers.
fn run_ingest(evs: &[Ev]) -> (Vec<u8>, Vec<u8>, Vec<TibRecord>, Vec<TibRecord>) {
    let pool = path_pool();
    let mut store = TieredTib::new();
    store.attach_wal(Box::new(VecWal::new()));
    // An empty store's checkpoint: recovery must work from t=0 too.
    let mut snapshot = Vec::new();
    store.checkpoint(&mut snapshot).expect("checkpoint");
    let mut in_snapshot = Vec::new();
    let mut in_wal = Vec::new();
    for ev in evs {
        let rec = record_of(ev, &pool);
        store.insert(rec.clone());
        in_wal.push(rec);
        match ev.5 % 4 {
            2 => store.seal(),
            3 => {
                snapshot.clear();
                store.checkpoint(&mut snapshot).expect("checkpoint");
                in_snapshot.append(&mut in_wal);
            }
            _ => {}
        }
    }
    let wal = store.wal_bytes().expect("wal bytes");
    (snapshot, wal, in_snapshot, in_wal)
}

/// Linear-scan reference answers over the durable prefix.
fn assert_matches_reference(recovered: &TieredTib, durable: &[TibRecord]) {
    let mut flat = Tib::new();
    for r in durable {
        flat.insert(r.clone());
    }
    assert_eq!(recovered.records_vec(), durable);
    let ranges = [
        TimeRange::ANY,
        TimeRange::between(Nanos(10), Nanos(70)),
        TimeRange::until(Nanos(40)),
    ];
    for range in ranges {
        assert_eq!(
            recovered.get_flows(LinkPattern::ANY, range),
            flat.get_flows(LinkPattern::ANY, range)
        );
        assert_eq!(recovered.top_k_flows(4, range), flat.top_k_flows(4, range));
        assert_eq!(
            recovered.link_flow_counts(LinkPattern::ANY, range),
            flat.link_flow_counts(LinkPattern::ANY, range)
        );
        for r in durable {
            assert_eq!(
                recovered.get_count(r.flow, None, range),
                flat.get_count(r.flow, None, range)
            );
            assert_eq!(
                recovered.get_paths(r.flow, LinkPattern::ANY, range),
                flat.get_paths(r.flow, LinkPattern::ANY, range)
            );
        }
    }
    if let Some(r) = durable.first() {
        assert_eq!(
            recovered.get_duration(r.flow, None, TimeRange::ANY),
            flat.get_duration(r.flow, None, TimeRange::ANY)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill the host at an arbitrary WAL byte offset — before, inside,
    /// or after any frame — and recover. The recovered store must hold
    /// exactly the durable records (snapshot + complete WAL frames) and
    /// answer every query like a flat reference over them.
    #[test]
    fn kill_at_any_wal_offset_recovers_durable_prefix(
        evs in proptest::collection::vec(
            (0u16..5, 0usize..3, 0u64..100, 0u64..40, 0u64..500, 0u8..8), 0..18),
        cut_sel in 0u64..10_000,
    ) {
        let (snapshot, wal, in_snapshot, in_wal) = run_ingest(&evs);
        // Frame-end offsets let us predict the durable WAL prefix.
        let mut ends = Vec::new();
        let mut off = 0usize;
        for r in &in_wal {
            off += frame_record(r).len();
            ends.push(off);
        }
        prop_assert_eq!(off, wal.len());

        let cut = (cut_sel as usize) % (wal.len() + 1);
        let (recovered, report) =
            TieredTib::recover(&snapshot, &wal[..cut]).expect("torn tail must recover");
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let durable_bytes = if complete == 0 { 0 } else { ends[complete - 1] };
        prop_assert_eq!(report.snapshot_records, in_snapshot.len());
        prop_assert_eq!(report.wal_records, complete);
        prop_assert_eq!(report.dropped_tail, cut - durable_bytes);

        let mut durable = in_snapshot.clone();
        durable.extend_from_slice(&in_wal[..complete]);
        assert_matches_reference(&recovered, &durable);
    }

    /// Every strict snapshot prefix must be rejected outright — partial
    /// snapshots are corruption, never silently-accepted data loss —
    /// even when a healthy WAL would paper over the damage.
    #[test]
    fn truncated_snapshot_never_recovers(
        evs in proptest::collection::vec(
            (0u16..5, 0usize..3, 0u64..100, 0u64..40, 0u64..500, 0u8..8), 1..10),
        cut_sel in 0u64..10_000,
    ) {
        let (snapshot, wal, _, _) = run_ingest(&evs);
        let cut = (cut_sel as usize) % snapshot.len();
        prop_assert!(TieredTib::recover(&snapshot[..cut], &wal).is_err(),
            "snapshot truncated to {cut}/{} bytes must be rejected", snapshot.len());
    }
}

/// The boundary-semantics distinction in one place: the same store, the
/// same crash, and the two artifacts treated oppositely — WAL tail
/// dropped and counted, snapshot truncation fatal.
#[test]
fn torn_wal_tolerated_truncated_snapshot_rejected() {
    let pool = path_pool();
    let mut store = TieredTib::new();
    store.attach_wal(Box::new(VecWal::new()));
    for i in 0..6u16 {
        store.insert(record_of(&(i, i as usize, i as u64 * 9, 5, 100, 0), &pool));
    }
    store.seal();
    let mut snapshot = Vec::new();
    store.checkpoint(&mut snapshot).expect("checkpoint");
    let tail_recs: Vec<TibRecord> = (6..9u16)
        .map(|i| record_of(&(i, i as usize, i as u64 * 9, 5, 100, 0), &pool))
        .collect();
    for r in &tail_recs {
        store.insert(r.clone());
    }
    let wal = store.wal_bytes().expect("wal bytes");

    // Mid-frame kill: last frame torn, first two replay, tail counted.
    let torn = wal.len() - 3;
    let (rec, report) = TieredTib::recover(&snapshot, &wal[..torn]).expect("recover");
    assert_eq!(report.snapshot_records, 6);
    assert_eq!(report.wal_records, 2);
    assert!(report.dropped_tail > 0);
    assert_eq!(rec.len(), 8);
    assert_eq!(&rec.records_vec()[6..], &tail_recs[..2]);

    // The same cut applied to the snapshot instead: hard error.
    assert!(TieredTib::recover(&snapshot[..snapshot.len() - 3], &wal).is_err());

    // Non-tail WAL damage (flipped payload byte) is corruption, not a
    // torn tail: replay must fail, not skip the frame.
    let mut corrupt = wal.clone();
    corrupt[8] ^= 0xFF;
    assert!(TieredTib::recover(&snapshot, &corrupt).is_err());
}

/// A record whose `stime + delta` does not fit 64 bits is corruption even
/// inside a well-framed, CRC-valid WAL frame: decoding it used to wrap
/// `etime` below `stime` (or panic a debug build). Replay and recovery
/// return the error; no store ever holds such a record.
#[test]
fn wal_record_with_wrapping_etime_is_rejected() {
    let good = record_of(&(1, 0, 10, 5, 100, 0), &path_pool());
    let mut enc = Encoder::new();
    good.flow.encode(&mut enc);
    good.path.encode(&mut enc);
    Nanos(u64::MAX - 1).encode(&mut enc);
    enc.put_varint(5);
    enc.put_varint(good.bytes);
    enc.put_varint(good.pkts);
    let mut wal = frame_record(&good);
    wal.extend_from_slice(&Frame::new(WAL_FRAME_RECORD, enc.into_bytes()).to_wire());
    wal.extend_from_slice(&frame_record(&good));

    assert_eq!(replay(&wal).unwrap_err(), WireError::VarintOverflow);
    let mut snapshot = Vec::new();
    TieredTib::new()
        .checkpoint(&mut snapshot)
        .expect("checkpoint");
    assert!(TieredTib::recover(&snapshot, &wal).is_err());
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> std::path::PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pathdump-crash-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// End-to-end with real files: ingest through a `FileWal`, "crash" by
/// dropping the store, chop the on-disk log mid-frame, recover from the
/// snapshot file + damaged log, and resume ingest on a fresh WAL.
#[test]
fn file_wal_crash_and_resume_round_trip() {
    let dir = temp_dir();
    let pool = path_pool();
    let wal_path = dir.join("host.wal");
    let snap_path = dir.join("host.tib3");

    let mut store = TieredTib::new();
    store.attach_wal(Box::new(FileWal::create(&wal_path).expect("create wal")));
    let recs: Vec<TibRecord> = (0..7u16)
        .map(|i| record_of(&(i, i as usize, i as u64 * 11, 6, 200, 0), &pool))
        .collect();
    for r in &recs[..4] {
        store.insert(r.clone());
    }
    store.seal();
    let mut snapshot = Vec::new();
    store.checkpoint(&mut snapshot).expect("checkpoint");
    std::fs::write(&snap_path, &snapshot).expect("write snapshot");
    assert_eq!(store.wal_len(), 0, "checkpoint resets the on-disk log");
    for r in &recs[4..] {
        store.insert(r.clone());
    }
    drop(store); // the crash

    // Tear the last frame on disk, then recover from the two files.
    let mut log = std::fs::read(&wal_path).expect("read wal");
    log.truncate(log.len() - 2);
    let snap = std::fs::read(&snap_path).expect("read snapshot");
    let (mut recovered, report) = TieredTib::recover(&snap, &log).expect("recover");
    assert_eq!(report.snapshot_records, 4);
    assert_eq!(report.wal_records, 2);
    assert!(report.dropped_tail > 0);
    assert_eq!(recovered.records_vec(), &recs[..6]);

    // Resume: re-attach a fresh WAL and keep ingesting.
    recovered.attach_wal(Box::new(FileWal::create(&wal_path).expect("recreate wal")));
    recovered.insert(recs[6].clone());
    assert_eq!(recovered.len(), 7);
    assert!(recovered.wal_len() > 0);
    assert_eq!(recovered.wal_errors(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// An empty WAL and an empty snapshot are both legitimate recovery
/// inputs (first boot, clean shutdown).
#[test]
fn recovery_from_clean_shutdown_and_first_boot() {
    let mut empty = Vec::new();
    TieredTib::new().checkpoint(&mut empty).expect("checkpoint");
    let (store, report) = TieredTib::recover(&empty, &[]).expect("first boot");
    assert!(store.is_empty());
    assert_eq!(report.snapshot_records + report.wal_records, 0);
    assert_eq!(report.dropped_tail, 0);
}
