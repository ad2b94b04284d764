//! A record that ends before it starts (`etime < stime`) never reaches the
//! store's log. Logged, its duration `etime − stime` wraps, and the replay
//! of that frame fails the recovery of the whole log, losing the good
//! records on both sides of it.
//!
//! `TieredTib::insert_batch` refuses a batch holding one, before the WAL
//! append and before filing any of its records; `TieredTib::insert` panics
//! on one in every build, naming it, also before the append. A store that
//! refused such a record recovers every good record from its log.

use pathdump_tib::{StoreError, TibRead, TibRecord, TieredTib, VecWal};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn rec(port: u16, stime: u64, etime: u64) -> TibRecord {
    TibRecord {
        flow: FlowId::tcp(Ip::new(10, 0, 0, 2), port, Ip::new(10, 1, 0, 2), 80),
        path: Path::new(vec![SwitchId(1), SwitchId(2), SwitchId(3)]),
        stime: Nanos(stime),
        etime: Nanos(etime),
        bytes: 1_500,
        pkts: 1,
    }
}

/// A store with a log, holding one good record already.
fn logged_store() -> TieredTib {
    let mut store = TieredTib::new();
    store.set_seal_after(Some(2));
    store.attach_wal(Box::new(VecWal::new()));
    store.insert(rec(1, 10, 20));
    store
}

#[test]
fn a_batch_with_a_record_that_ends_before_it_starts_is_refused_whole() {
    let mut store = logged_store();
    let log = store.wal_bytes().expect("log");
    let bad = rec(3, 100, 50);
    let batch = [rec(2, 30, 40), bad.clone(), rec(4, 60, 70)];
    let mut seen = 0;
    match store.insert_batch(&batch, |_, _| seen += 1) {
        Err(StoreError::EndsBeforeStart(r)) => assert_eq!(r, bad),
        other => panic!("{other:?}"),
    }
    assert_eq!(seen, 0, "no record of the batch was filed");
    assert_eq!(store.len(), 1);
    assert_eq!(store.wal_bytes().expect("log"), log, "nothing was logged");

    // The store goes on, and its log recovers every good record.
    store
        .insert_batch(&[rec(2, 30, 40), rec(4, 60, 70)], |_, _| {})
        .expect("a well-formed batch");
    let mut snapshot = Vec::new();
    TieredTib::new()
        .checkpoint(&mut snapshot)
        .expect("empty snapshot");
    let log = store.wal_bytes().expect("log");
    let (back, report) = TieredTib::recover(&snapshot, &log).expect("the log replays");
    assert_eq!(report.wal_records, 3);
    assert_eq!(back.records_vec(), store.records_vec());
}

#[test]
fn insert_panics_naming_the_record_before_it_is_logged() {
    let mut store = logged_store();
    let log = store.wal_bytes().expect("log");
    let bad = rec(3, 100, 50);
    let err = catch_unwind(AssertUnwindSafe(|| store.insert(bad.clone())))
        .expect_err("a record that ends before it starts panics");
    let msg = err
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(msg.contains("ends before it starts"), "{msg}");
    assert!(msg.contains(&format!("{:?}", bad.flow)), "{msg}");
    assert_eq!(store.len(), 1);
    assert_eq!(store.wal_bytes().expect("log"), log, "nothing was logged");
}

#[test]
fn a_record_of_no_duration_is_accepted() {
    let mut store = logged_store();
    store.insert(rec(2, 50, 50));
    store
        .insert_batch(&[rec(3, 0, 0), rec(4, u64::MAX, u64::MAX)], |_, _| {})
        .expect("etime == stime is well formed");
    assert_eq!(store.len(), 4);
}
