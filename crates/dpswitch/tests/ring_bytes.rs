//! Pins what the NIC-ring model costs in heap, as counts: building a
//! `FrameBatch` makes a fixed number of allocations whatever its length,
//! and holds each frame once, growing the heap by at most
//! `MAX_NET_BYTES_PER_FRAME` beyond the frames it consumes (the frame
//! bytes plus a 28-byte head, an end offset, a strip offset and a verdict
//! slot per frame, less the consumed per-frame `Vec` headers).
//!
//! The counters are **per-thread** (const-initialized TLS, so reading
//! them never allocates), as in `zero_alloc_run_once`: the libtest
//! harness's main thread allocates at its own pace.

use pathdump_dpswitch::{build_frame, FrameBatch};
use pathdump_topology::{FlowId, Ip};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Net heap bytes one frame may add beyond its own bytes.
const MAX_NET_BYTES_PER_FRAME: i64 = 40;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Records an allocating entry point that grows the heap by `grow`
/// bytes. `try_with` so allocations during TLS teardown stay safe.
fn on_alloc(grow: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = NET_BYTES.try_with(|c| c.set(c.get() + grow));
}

fn on_free(size: usize) {
    let _ = NET_BYTES.try_with(|c| c.set(c.get() - size as i64));
}

/// `(allocations, net heap bytes)` on this thread so far.
fn counters() -> (u64, i64) {
    (ALLOCS.with(Cell::get), NET_BYTES.with(Cell::get))
}

/// System allocator wrapper counting allocations and summing sizes.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `n` frames of 0–2 tags and 64–191 B payloads, as the Figure 13 mix.
fn frames(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let flow = FlowId::tcp(Ip(0x0A00_0002 + i as u32), 1024, Ip(0x0A63_0002), 80);
            let tags: Vec<u16> = (0..i % 3).map(|t| (i + t) as u16 % 4096).collect();
            build_frame(&flow, &tags, 0, 64 + i % 128)
        })
        .collect()
}

/// `(allocations, net heap bytes beyond the frame bytes)` of building a
/// `FrameBatch` from `n` frames, with the consumed input counted.
fn build_cost(n: usize) -> (u64, i64) {
    let input = frames(n);
    let frame_bytes: i64 = input.iter().map(|f| f.len() as i64).sum();
    let (allocs, bytes) = counters();
    let batch = FrameBatch::new(input);
    let (allocs_after, bytes_after) = counters();
    assert_eq!(batch.total_bytes(), frame_bytes as u64);
    drop(batch);
    (allocs_after - allocs, bytes_after - bytes - frame_bytes)
}

#[test]
fn allocations_do_not_grow_with_the_ring() {
    let (small, _) = build_cost(64);
    let (large, _) = build_cost(4096);
    assert_eq!(small, large, "allocations for 64 frames vs for 4 096");
}

#[test]
fn ring_holds_each_frame_once() {
    for n in [64, 4096] {
        let (_, extra) = build_cost(n);
        let per_frame = extra as f64 / n as f64;
        assert!(
            extra <= MAX_NET_BYTES_PER_FRAME * n as i64,
            "{n} frames: {per_frame:.1} B per frame beyond the frame bytes (at most {MAX_NET_BYTES_PER_FRAME})"
        );
    }
}
