//! TIB2 compatibility gate: `tests/data/legacy_v2.tib` is a flat snapshot
//! as the store wrote them until TIB3 (`u32 "TIB2" | varint bucket_width |
//! record slice`). Nothing writes that envelope any more; files on disk
//! still carry it, so the one loader must keep reading it — as a head-only
//! store with the file's records, order and bucket width — and keep
//! rejecting a damaged one.

use pathdump_tib::{load_tiered, TibRead, TibRecord, SNAPSHOT_MAGIC};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId};
use pathdump_wire::{Decoder, Encode, Encoder};

const LEGACY: &[u8] = include_bytes!("data/legacy_v2.tib");

/// Not the default (8 s), so a loader that drops the header's width fails.
const WIDTH: Nanos = Nanos(1000);

/// The file's records: two flows, a re-routed flow, a looping path, a
/// zero-duration record and one at the top of the time axis.
fn legacy_records() -> Vec<TibRecord> {
    let flow = |sport| FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80);
    let rec = |sport, path: &[u16], stime, etime, bytes, pkts| TibRecord {
        flow: flow(sport),
        path: Path::new(path.iter().map(|&s| SwitchId(s)).collect()),
        stime: Nanos(stime),
        etime: Nanos(etime),
        bytes,
        pkts,
    };
    vec![
        rec(1001, &[0, 8, 4], 0, 950, 5_000, 5),
        rec(1001, &[0, 9, 4], 1_000, 2_500, 3_000, 3),
        rec(1002, &[0, 8, 4], 2_000, 2_000, 64, 1),
        rec(1003, &[1, 9, 1, 9, 5], 40, 70_000, 1 << 33, 6_000_000),
        rec(1002, &[4], u64::MAX - 1, u64::MAX, 1, 1),
    ]
}

/// The TIB2 envelope, field by field.
fn legacy_bytes() -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(SNAPSHOT_MAGIC);
    enc.put_varint(WIDTH.0);
    legacy_records().encode(&mut enc);
    enc.into_bytes()
}

/// `bytes` with its bucket-width varint replaced by `width`'s.
fn with_width(bytes: &[u8], width: u64) -> Vec<u8> {
    let mut dec = Decoder::new(bytes);
    dec.get_u32().expect("magic");
    dec.get_varint().expect("width");
    let body = &bytes[bytes.len() - dec.remaining()..];
    let mut enc = Encoder::new();
    enc.put_raw(&bytes[..4]);
    enc.put_varint(width);
    enc.put_raw(body);
    enc.into_bytes()
}

#[test]
fn tib2_file_loads_as_head_only_store() {
    assert_eq!(
        LEGACY,
        &legacy_bytes()[..],
        "the file is the envelope above"
    );
    let store = load_tiered(LEGACY).expect("a TIB2 file still loads");
    assert_eq!(store.num_sealed(), 0, "flat file: everything is head");
    assert_eq!(store.bucket_width(), WIDTH);
    assert_eq!(store.len(), legacy_records().len());
    assert_eq!(store.records_vec(), legacy_records());
    assert_eq!(store.head().records_vec(), legacy_records());

    assert!(
        load_tiered(&LEGACY[..LEGACY.len() - 3]).is_err(),
        "truncated"
    );
    let mut flipped = LEGACY.to_vec();
    flipped[0] ^= 0xFF;
    assert!(load_tiered(&flipped).is_err(), "flipped magic");
    assert!(load_tiered(&with_width(LEGACY, 0)).is_err(), "width 0");
    // The splice itself is sound: the original width goes back in cleanly.
    assert_eq!(with_width(LEGACY, WIDTH.0), LEGACY);
}

/// Rewrites `tests/data/legacy_v2.tib`. The bytes were first produced by
/// the flat writer (`save`) this format belonged to, and compared equal to
/// [`legacy_bytes`] at the commit that recorded them; the writer is gone.
#[test]
#[ignore = "rewrites tests/data/legacy_v2.tib"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/legacy_v2.tib");
    std::fs::write(path, legacy_bytes()).expect("write legacy_v2.tib");
}
