//! A counting global allocator, installed only by the traced binary.
//!
//! While counting is switched on it tallies allocation calls and the net
//! bytes allocated; switched off, it costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// Forwards to [`System`], counting while [`set_counting`] is on.
pub struct Counting;

fn note(bytes: usize, sign: i64, call: bool) {
    if ON.load(Ordering::Relaxed) {
        if call {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE.fetch_add(sign * bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// only read `layout.size()`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1, true);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1, true);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), -1, false);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, 1, true);
        note(layout.size(), -1, false);
        // SAFETY: `ptr` came from this allocator with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Allocation calls counted so far.
#[must_use]
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Net bytes allocated while counting (allocations minus frees).
#[must_use]
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}
