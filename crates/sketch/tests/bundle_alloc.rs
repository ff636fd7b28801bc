//! Allocation regression test for [`FmBundle`]: inserting into and
//! merging warm bundles must allocate nothing. The hash family is derived
//! from `(family_seed, F)` on demand, so the only heap block a bundle owns
//! is its sketch array, allocated once at construction (or clone).
//!
//! Lives in its own integration-test binary so the counting global
//! allocator sees no concurrent allocations from unrelated tests.

use ia_sketch::FmBundle;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_insert_merge_and_covers_allocate_nothing_and_clone_allocates_once() {
    let mut a = FmBundle::new(0x1ADC_0DE5_EED0, 16, 16);
    let mut b = FmBundle::new(0x1ADC_0DE5_EED0, 16, 16);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for u in 0..1000u64 {
        a.insert(u);
        b.insert(u.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        a.merge(&b);
        assert!(a.covers(&b));
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "1000 warm insert/merge/covers rounds allocated {allocated} times"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copy = a.clone();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocated, 1, "a bundle clone allocated {allocated} times");
    assert_eq!(copy, a);
}
