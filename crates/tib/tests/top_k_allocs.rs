//! Pins what an all-time `top_k_flows(10_000)` over 24 000 flows — one
//! host of the `query_topk` benchmark — costs the allocator: two blocks
//! per call, the 16-byte ranking keys (whose losers double as the radix
//! scratch) and the answer. The body before held three in the radix path
//! (the byte counts, the survivors, the radix scratch).
//!
//! The count matters beyond its own cost: a freed block at the top of the
//! heap that glibc hands back to the kernel is page-faulted back on the next
//! call, and an extra 160 KB temporary was enough to make that happen on
//! every call.
//!
//! Counted with the per-thread allocator in `counting_alloc/`.

mod counting_alloc;

use counting_alloc::thread_alloc_count;
use pathdump_tib::{Tib, TibRead, TibRecord, TieredTib};
use pathdump_topology::{FlowId, Ip, Nanos, Path, SwitchId, TimeRange};

const FLOWS: usize = 24_000;
const K: usize = 10_000;

/// Blocks one call allocates: the keys and the answer.
const ALLOCS_PER_CALL: u64 = 2;

/// One record per flow, sized as `query_topk`'s hosts are: nine in ten
/// mice of 200 B–100 KB, the rest elephants up to 30 MB, so the ranking
/// takes its two radix passes.
fn records() -> Vec<TibRecord> {
    let path = Path::new([0u16, 2, 4].into_iter().map(SwitchId).collect());
    let mut s = 1u64;
    (0..FLOWS)
        .map(|i| {
            // SplitMix64 step.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = if z % 10 < 9 {
                200 + (z >> 8) % 99_800
            } else {
                100_000 + (z >> 8) % 29_900_000
            };
            TibRecord {
                flow: FlowId::tcp(Ip(0x0A00_0002), 1024 + i as u16, Ip(0x0A63_0002), 80),
                path: path.clone(),
                stime: Nanos(i as u64),
                etime: Nanos(i as u64 + 1_000),
                bytes,
                pkts: bytes / 1460 + 1,
            }
        })
        .collect()
}

/// Allocations of each of three calls on this thread, after checking the
/// answer is the top `K` in order.
fn allocs_per_call<T: TibRead>(tib: &T) -> Vec<u64> {
    (0..3)
        .map(|_| {
            let before = thread_alloc_count();
            let top = tib.top_k_flows(K, TimeRange::ANY);
            let n = thread_alloc_count() - before;
            assert_eq!(top.len(), K);
            assert!(top.windows(2).all(|w| w[0] > w[1]));
            n
        })
        .collect()
}

#[test]
fn all_time_top_k_allocates_two_blocks_per_call() {
    let want = vec![ALLOCS_PER_CALL; 3];

    let mut flat = Tib::new();
    records().into_iter().for_each(|r| flat.insert(r));
    assert_eq!(allocs_per_call(&flat), want, "Tib");

    let mut tiered = TieredTib::new();
    records().into_iter().for_each(|r| tiered.insert(r));
    tiered.seal();
    assert_eq!(allocs_per_call(&tiered), want, "TieredTib");
}
