//! A counting global allocator: every `alloc`, `alloc_zeroed` and
//! `realloc` made on the current thread bumps a thread-local counter.
//!
//! The benchmark binary installs it with `#[global_allocator]`; without
//! that declaration [`allocations`] stays at zero. Counting per thread
//! keeps the figure exact even when a test harness allocates on other
//! threads at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread allocation counter.
pub struct CountingAlloc;

#[inline]
fn bump() {
    // `Cell<u64>` has no destructor, so the slot is never torn down and
    // `with` cannot fail, even while the thread exits.
    COUNT.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (including reallocations) made so far on this thread.
pub fn allocations() -> u64 {
    COUNT.with(Cell::get)
}
