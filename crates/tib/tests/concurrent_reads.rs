//! Lock-free-reader contract: queries proceed concurrently with ingest
//! and never observe a torn state.
//!
//! A [`TibReader`] snapshot is defined to be *exactly* the records sealed
//! by some prefix of the writer's seal sequence — never a partial
//! segment, never records out of order. With seal boundaries known in
//! advance, every answer a reader can legally produce is precomputable:
//! the threads below hammer snapshots while the writer ingests, seals,
//! and evicts, and every observed view must match one of the
//! precomputed boundary answers bit-for-bit. Views grabbed early must
//! keep answering unchanged after later seals and cold eviction
//! (including the lazy reload path under concurrency).

use pathdump_tib::{SealedView, Tib, TibRead, TibReader, TibRecord, TieredTib};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn flow(sport: u16) -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
}

fn rec(i: usize) -> TibRecord {
    TibRecord {
        flow: flow(1 + (i % 7) as u16),
        path: Path(vec![SwitchId(1 + (i % 3) as u16), SwitchId(99)]),
        stime: Nanos(i as u64 * 3),
        etime: Nanos(i as u64 * 3 + 2),
        bytes: 100 + (i as u64 % 11) * 10,
        pkts: 1 + i as u64 % 4,
    }
}

/// The answers a consistent sealed view of `n` records must give.
#[derive(PartialEq, Debug)]
struct Expected {
    flows: Vec<FlowId>,
    top3: Vec<(u64, FlowId)>,
    counts: HashMap<FlowId, (u64, u64)>,
}

fn expected_at(recs: &[TibRecord]) -> Expected {
    let mut flat = Tib::new();
    for r in recs {
        flat.insert(r.clone());
    }
    Expected {
        flows: flat.get_flows(LinkPattern::ANY, TimeRange::ANY),
        top3: flat.top_k_flows(3, TimeRange::ANY),
        counts: flat.link_flow_counts(LinkPattern::ANY, TimeRange::ANY),
    }
}

fn check_view(view: &SealedView, expected: &HashMap<usize, Expected>) {
    let n = view.num_records();
    let want = expected
        .get(&n)
        .unwrap_or_else(|| panic!("torn view: {n} records is not a seal boundary"));
    let got = Expected {
        flows: view.get_flows(LinkPattern::ANY, TimeRange::ANY),
        top3: view.top_k_flows(3, TimeRange::ANY),
        counts: view.link_flow_counts(LinkPattern::ANY, TimeRange::ANY),
    };
    assert_eq!(&got, want, "view of {n} records diverged from reference");
}

const PHASES: usize = 8;
const PER_PHASE: usize = 40;
const READERS: usize = 4;

#[test]
fn readers_race_ingest_across_seals_and_eviction() {
    let all: Vec<TibRecord> = (0..PHASES * PER_PHASE).map(rec).collect();
    // Legal boundary answers: one per seal point (incl. the empty view).
    let expected: HashMap<usize, Expected> = (0..=PHASES)
        .map(|p| (p * PER_PHASE, expected_at(&all[..p * PER_PHASE])))
        .collect();

    let dir = std::env::temp_dir().join(format!("pathdump-concur-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create evict dir");

    let mut store = TieredTib::new();
    let reader = store.reader();
    let start = Barrier::new(READERS + 1);
    let done = AtomicBool::new(false);
    let snapshots_taken = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let r: TibReader = reader.clone();
            let (start, done, taken, expected) = (&start, &done, &snapshots_taken, &expected);
            s.spawn(move || {
                start.wait();
                let mut last_len = 0;
                while !done.load(Ordering::Acquire) {
                    let view = r.snapshot();
                    assert!(
                        view.num_records() >= last_len,
                        "sealed prefix went backwards"
                    );
                    last_len = view.num_records();
                    check_view(&view, expected);
                    taken.fetch_add(1, Ordering::Relaxed);
                }
                // One final look after the writer stops.
                check_view(&r.snapshot(), expected);
            });
        }

        let (start, done, taken, expected) = (&start, &done, &snapshots_taken, &expected);
        let all = &all;
        let dir = &dir;
        s.spawn(move || {
            start.wait();
            // A view held from before any ingest: must stay empty forever.
            let genesis = store.reader().snapshot();
            let mut held: Vec<(Arc<SealedView>, usize)> = vec![(genesis, 0)];
            for (p, chunk) in all.chunks(PER_PHASE).enumerate() {
                for r in chunk {
                    store.insert(r.clone());
                }
                store.seal();
                held.push((store.reader().snapshot(), (p + 1) * PER_PHASE));
                // Readers and ingest overlap by construction, whatever the
                // scheduler does: the rest of the ingest waits until the
                // readers have checked `READERS` views between them. The
                // deadline only keeps a reader that died of a failed check
                // from hanging the writer; the scope reports its panic.
                let waiting = Instant::now();
                while p == 0
                    && taken.load(Ordering::Relaxed) < READERS
                    && waiting.elapsed() < Duration::from_secs(30)
                {
                    std::thread::yield_now();
                }
                // Push older segments cold while readers are live: lazy
                // reload must serve them transparently.
                if p % 3 == 2 {
                    store.evict_cold(1, dir).expect("evict");
                }
            }
            // Every held view still answers as of its seal point, even
            // though segments behind it have since gone cold.
            for (view, len) in &held {
                assert_eq!(view.num_records(), *len);
                check_view(view, expected);
            }
            assert_eq!(store.len(), PHASES * PER_PHASE);
            assert_eq!(store.read_failures(), 0);
            done.store(true, Ordering::Release);
        });
    });

    assert!(
        snapshots_taken.load(Ordering::Relaxed) >= READERS,
        "readers made progress during ingest"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The writer-side store answers the full dataset (sealed + head) while
/// reader views answer the sealed prefix — the two stay consistent at
/// the moment of a seal.
#[test]
fn store_and_view_agree_at_seal_boundaries() {
    let mut store = TieredTib::new();
    let reader = store.reader();
    for p in 0..4 {
        for i in p * 10..(p + 1) * 10 {
            store.insert(rec(i));
        }
        store.seal();
        let view = reader.snapshot();
        assert_eq!(view.num_records(), store.num_records());
        assert_eq!(
            view.get_flows(LinkPattern::ANY, TimeRange::ANY),
            store.get_flows(LinkPattern::ANY, TimeRange::ANY)
        );
        assert_eq!(
            view.top_k_flows(5, TimeRange::ANY),
            store.top_k_flows(5, TimeRange::ANY)
        );
        assert_eq!(view.num_segments(), p + 1);
    }
}
