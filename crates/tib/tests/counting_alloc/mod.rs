//! The per-thread counting allocator behind the allocation pins
//! (`insert_allocs.rs`, `top_k_allocs.rs`) and the resident-bytes pin
//! (`resident_bytes.rs`). The counters are per-thread, as in
//! `crates/dpswitch/tests/zero_alloc_run_once.rs`: the libtest harness
//! allocates on its own thread at its own pace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts an allocating entry point against the current thread.
/// `try_with` so allocations during TLS teardown stay safe (uncounted).
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Adds `delta` requested bytes to the current thread's live total.
fn live(delta: i64) {
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() + delta));
}

/// Allocating calls made on this thread so far.
#[allow(dead_code)] // not every test reads both counters
pub fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Bytes requested on this thread and not yet freed on it: the size each
/// caller asked for, before the allocator's own headers and rounding.
#[allow(dead_code)]
pub fn thread_live_bytes() -> i64 {
    THREAD_LIVE.with(|c| c.get())
}

/// System allocator wrapper counting every allocating entry point.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
